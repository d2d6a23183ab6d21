"""Monte-Carlo zero-secrecy-rate estimator: capacities, indicator, determinism.

Proves:
 Group 1 — per-trial primitives
   Shannon capacities at reference points, strict-inequality indicator
   with the tie convention, negative-gain rejection.

 Group 2 — scenario container
   linear SNR conversion, user count passthrough, validation of the SNR,
   wiretap exponent, and eavesdropper-center settings.

 Group 3 — draw layout
   explicit single-draw shapes and the wiretap distance range.

 Group 4 — estimator behavior
   dominating wiretap (vanishing sphere) drives the estimate to one; the
   estimate is bit-identical across the configured SNR (it cancels in the
   rate difference), across worker counts, and across repeated runs;
   partial trailing blocks are handled; the standard error follows the
   binomial formula; trials = 0 rejected.

 Group 5 — scheme behavior
   all five schemes produce proper probabilities; greedy selection does
   not hurt the served user; phase-only surfaces lose to fully connected
   ones by a clear statistical margin at matched settings; the estimate
   agrees with the closed-form references at moderate depth.

 Group 6 — batched rows over shared draws
   ``run_monte_carlo_many`` equals a per-config ``run_monte_carlo`` loop
   exactly (p_hat and std_err) on the fig2 radius grid, fig3 with mixed
   element counts, fig4 around a fixed eavesdropper centre and mixed
   RIS-user distances and user counts, over all five schemes, 1-3 worker
   threads and a trial count that is not a multiple of the block size;
   each block is drawn once per draw layout, not once per row.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest

from zsrpsim import secrecy as sec
from zsrpsim.fading import FadingParams
from zsrpsim.propagation import AirGroundParams, ScenarioGeometry
from zsrpsim.scheduling import SchemeId

# closed-form references for the default scenario (independently validated
# against quadrature in the analytic-layer tests)
RS_DEFAULT = 0.03569559129313944
PFS_DEFAULT = 0.02667028157484286


def make_config(geometry, air, fading, scheme=SchemeId.FCR_RS, **kw):
    return sec.ScenarioConfig(geometry=geometry, air=air, fading=fading, scheme=scheme, **kw)


# --- Group 1: per-trial primitives ---


def test_capacity_reference_points():
    assert math.isclose(sec.capacity_main(100.0, 0.03), 2.0, rel_tol=1e-12)
    assert sec.capacity_main(100.0, 0.0) == 0.0
    assert math.isclose(sec.capacity_eve(100.0, 0.03), 2.0, rel_tol=1e-12)


def test_capacity_negative_gain():
    with pytest.raises(ValueError):
        sec.capacity_main(100.0, -1e-9)
    with pytest.raises(ValueError):
        sec.capacity_eve(100.0, -1e-9)


def test_indicator_convention():
    assert not sec.zsr_indicator(2.0, 1.0)
    assert sec.zsr_indicator(1.0, 2.0)
    # ties are a zero-probability boundary, counted as positive secrecy
    assert not sec.zsr_indicator(1.0, 1.0)


# --- Group 2: scenario container ---


def test_config_derived_fields(geometry, air, fading):
    cfg = make_config(geometry, air, fading, gamma_b_db=20.0)
    assert cfg.n_users == 4
    assert math.isclose(cfg.gamma_b_linear, 100.0, rel_tol=1e-12)


def test_config_validation(geometry, air, fading):
    with pytest.raises(ValueError):
        make_config(geometry, air, fading, gamma_b_db=float("nan"))
    with pytest.raises(ValueError):
        make_config(geometry, air, fading, alpha_eve=0.0)
    with pytest.raises(ValueError):
        make_config(geometry, air, fading, eve_center="moon")
    with pytest.raises(ValueError):
        make_config(geometry, air, fading, eve_center="fixed", eve_center_h_m=-5.0)


# --- Group 3: draw layout ---


def test_single_draw_shapes(geometry, air, fading, rng):
    cfg = make_config(geometry, air, fading)
    draw = sec.sample_channel_draw(rng, cfg)
    assert draw.h_br.shape == (fading.n_elements,)
    assert draw.h_rn.shape == (geometry.n_users, fading.n_elements)
    assert 0.0 < draw.d_be <= geometry.r_eve_m


# --- Group 4: estimator behavior ---


def test_vanishing_sphere_saturates(geometry, air, fading):
    from zsrpsim.propagation import ScenarioGeometry

    tiny = ScenarioGeometry(r_eve_m=1e-3)
    cfg = make_config(tiny, air, fading)
    est = sec.run_monte_carlo(cfg, trials=2_000, seed=7)
    assert est.p_hat == 1.0
    assert est.std_err == 0.0


def test_snr_cancels_bitwise(geometry, air, fading):
    runs = []
    for db in (0.0, 20.0, 40.0):
        cfg = make_config(geometry, air, fading, gamma_b_db=db)
        runs.append(sec.run_monte_carlo(cfg, trials=8_192, seed=99).p_hat)
    assert runs[0] == runs[1] == runs[2]


def test_worker_count_invariance(geometry, air, fading):
    cfg = make_config(geometry, air, fading, scheme=SchemeId.FCR_GCSI_PFS)
    # 5 full blocks plus a 2048-trial tail
    ests = [sec.run_monte_carlo(cfg, trials=22_528, seed=5, threads=t) for t in (1, 3)]
    assert ests[0].p_hat == ests[1].p_hat
    assert ests[0].std_err == ests[1].std_err


def test_seed_reproducibility_and_fields(geometry, air, fading):
    cfg = make_config(geometry, air, fading)
    a = sec.run_monte_carlo(cfg, trials=5_000, seed=31)
    b = sec.run_monte_carlo(cfg, trials=5_000, seed=31)
    c = sec.run_monte_carlo(cfg, trials=5_000, seed=32)
    assert a.p_hat == b.p_hat
    assert a.p_hat != c.p_hat
    assert a.trials == 5_000 and a.seed == 31
    expect_se = math.sqrt(a.p_hat * (1.0 - a.p_hat) / a.trials)
    assert math.isclose(a.std_err, expect_se, rel_tol=1e-12)


def test_zero_trials_rejected(geometry, air, fading):
    cfg = make_config(geometry, air, fading)
    with pytest.raises(ValueError):
        sec.run_monte_carlo(cfg, trials=0, seed=1)


# --- Group 5: scheme behavior ---


@pytest.mark.parametrize(
    "scheme",
    [SchemeId.FCR_RS, SchemeId.FCR_GCSI_PFS, SchemeId.SCR_RS, SchemeId.SCR_GCSI_PFS,
     SchemeId.SCR_FCSI_PFS],
)
def test_all_schemes_produce_probabilities(geometry, air, fading, scheme):
    cfg = make_config(geometry, air, fading, scheme=scheme)
    est = sec.run_monte_carlo(cfg, trials=4_096, seed=11)
    assert 0.0 <= est.p_hat <= 1.0
    assert est.std_err >= 0.0


def test_greedy_selection_helps(geometry, air, fading):
    trials = 40_960
    rs = sec.run_monte_carlo(
        make_config(geometry, air, fading, scheme=SchemeId.FCR_RS), trials, seed=3
    )
    pfs = sec.run_monte_carlo(
        make_config(geometry, air, fading, scheme=SchemeId.FCR_GCSI_PFS), trials, seed=3
    )
    margin = 3.0 * math.hypot(rs.std_err, pfs.std_err)
    assert pfs.p_hat < rs.p_hat - margin


def test_fc_beats_sc(geometry, air, fading):
    trials = 20_480
    fc = sec.run_monte_carlo(
        make_config(geometry, air, fading, scheme=SchemeId.FCR_RS), trials, seed=13
    )
    sc = sec.run_monte_carlo(
        make_config(geometry, air, fading, scheme=SchemeId.SCR_RS), trials, seed=13
    )
    assert fc.p_hat < sc.p_hat - 3.0 * math.hypot(fc.std_err, sc.std_err)


def test_matches_closed_form_moderate_depth(geometry, air, fading):
    trials = 60_000
    for scheme, ref in ((SchemeId.FCR_RS, RS_DEFAULT), (SchemeId.FCR_GCSI_PFS, PFS_DEFAULT)):
        est = sec.run_monte_carlo(make_config(geometry, air, fading, scheme=scheme),
                                  trials, seed=2026)
        assert abs(est.p_hat - ref) < 4.0 * est.std_err, scheme


def test_heterogeneous_user_distances(air, fading):
    from zsrpsim.propagation import ScenarioGeometry

    geom = ScenarioGeometry(d_rn_m=(30.0, 50.0, 80.0, 120.0))
    cfg = make_config(geom, air, fading, scheme=SchemeId.FCR_RS)
    est = sec.run_monte_carlo(cfg, trials=8_192, seed=21)
    assert 0.0 < est.p_hat < 1.0


def test_fixed_center_runs(geometry, air, fading):
    cfg = make_config(geometry, air, fading, eve_center="fixed", eve_center_h_m=200.0)
    est = sec.run_monte_carlo(cfg, trials=8_192, seed=17)
    assert 0.0 <= est.p_hat <= 1.0


# --- Group 6: batched rows over shared draws ---

#: two full blocks plus a partial one
BATCH_TRIALS = 2 * sec.BLOCK_TRIALS + 808
BATCH_SEED = 4242


def _batch_cases() -> dict[str, list[sec.ScenarioConfig]]:
    base = sec.ScenarioConfig(geometry=ScenarioGeometry(), air=AirGroundParams(),
                              fading=FadingParams(), scheme=SchemeId.FCR_RS)

    def at(config, scheme, **geometry):
        return dataclasses.replace(
            config, scheme=scheme,
            geometry=dataclasses.replace(config.geometry, **geometry))

    fixed = dataclasses.replace(base, eve_center="fixed", eve_center_h_m=150.0)
    distances = ((30.0, 50.0, 80.0, 120.0), (50.0,) * 4, (40.0, 60.0, 90.0))
    return {
        "fig2": [at(base, s, r_eve_m=r) for r in (100.0, 200.0, 300.0, 400.0, 500.0)
                 for s in SchemeId],
        # element counts interleave, so the merge must restore input order
        "fig3-mixed-l": [dataclasses.replace(base, scheme=s,
                                             fading=FadingParams(n_elements=n))
                         for s in SchemeId for n in (4, 8, 16)],
        "fig4-fixed": [at(fixed, s, h_br_m=h) for h in (60.0, 150.0, 450.0, 1000.0)
                       for s in SchemeId],
        "mixed-d-rn": [at(base, s, d_rn_m=d, r_eve_m=r) for d in distances
                       for s in SchemeId for r in (250.0, 500.0)],
    }


@functools.lru_cache(maxsize=None)
def _loop_reference(case: str) -> list[tuple[float, float]]:
    return [(e.p_hat, e.std_err)
            for e in (sec.run_monte_carlo(c, BATCH_TRIALS, BATCH_SEED)
                      for c in _batch_cases()[case])]


@pytest.mark.parametrize("threads", (1, 2, 3))
@pytest.mark.parametrize("case", sorted(_batch_cases()))
def test_batch_equals_per_config_loop(case, threads):
    batch = sec.run_monte_carlo_many(_batch_cases()[case], BATCH_TRIALS, BATCH_SEED,
                                     threads=threads)
    assert [(e.p_hat, e.std_err) for e in batch] == _loop_reference(case)
    assert all(e.trials == BATCH_TRIALS and e.seed == BATCH_SEED for e in batch)


def test_batch_draws_once_per_layout_and_block(monkeypatch):
    calls = []

    def counting(rng, r_max_m, size=None):
        calls.append(size)
        return np.cbrt(rng.random(size)) * r_max_m

    monkeypatch.setattr(sec, "sample_eve_distance", counting)
    configs = _batch_cases()["fig3-mixed-l"] + _batch_cases()["fig2"]
    sec.run_monte_carlo_many(configs, BATCH_TRIALS, BATCH_SEED, threads=2)
    # three element counts make three layouts; fig2 shares the L = 16 one
    assert sorted(calls) == sorted([sec.BLOCK_TRIALS, sec.BLOCK_TRIALS, 808] * 3)


def test_batch_edge_cases(geometry, air, fading):
    cfg = make_config(geometry, air, fading)
    assert sec.run_monte_carlo_many([], 5_000, seed=1, threads=2) == []
    twice = sec.run_monte_carlo_many([cfg, cfg], 5_000, seed=1)
    assert twice[0] == twice[1] == sec.run_monte_carlo(cfg, 5_000, seed=1)
    with pytest.raises(ValueError):
        sec.run_monte_carlo_many([cfg], 0, seed=1)
    with pytest.raises(ValueError):
        sec.run_monte_carlo_many([cfg], 5_000, seed=1, threads=0)
