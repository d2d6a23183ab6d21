"""Monte-Carlo zero-secrecy-rate estimator: scenario, determinism, schemes.

Proves:
 Group 1 — scenario container
   user count passthrough, validation of the SNR, wiretap exponent and
   centre altitude (NaN, infinite and nonpositive values refused); a
   fixed centre stays where it was set when the BS moves, and the
   eavesdropper offset follows the BS (0.0 for a ball centred on it).

 Group 2 — estimator behavior
   dominating wiretap (vanishing sphere) drives the estimate to one; the
   estimate is bit-identical across the configured SNR (it cancels in the
   rate difference), across worker counts, and across repeated runs;
   partial trailing blocks are handled; a served-user row's standard
   error follows the binomial formula, and a round-robin row's equals the
   standard error of its per-trial user averages, rebuilt here from the
   documented draw order; at wiretap exponent 3, around a BS-centred
   ball and a fixed centre offset from the BS, both round-robin
   architectures' p_hat (near 0.2) and error equal that rebuild; the one
   variance formula is within 2 ulp of the binomial one at K = 1 (no hits
   and all hits included) and equals the round-robin one it replaced bit
   for bit at K = N; a hand-built block
   counts (sum k, K n, sum k^2) for a round-robin and a PFS row, ties
   secure; trials = 0 and a negative seed rejected.

 Group 3 — scheme behavior
   all five schemes produce proper probabilities; greedy selection does
   not hurt the served user; phase-only surfaces lose to fully connected
   ones by a clear statistical margin at matched settings; the estimate
   agrees with the closed-form references at moderate depth.

 Group 4 — batched rows over shared draws
   ``run_monte_carlo_many`` equals a per-config ``run_monte_carlo`` loop
   exactly (p_hat and std_err) on the fig2 radius grid, fig3 with mixed
   element counts, fig4 around a fixed eavesdropper centre, BS-centred
   and fixed-centre rows in one call (a centre at the BS altitude
   included) and mixed RIS-user distances and user counts, over all five
   schemes, 1-3 worker threads and a trial count that is not a multiple
   of the block size; each block is drawn once per draw layout, not once
   per row, and the centre is not part of the layout: a BS-centred row
   and a fixed centre at the BS altitude share their eavesdropper gains
   and their estimates.

 Group 5 — memoized blocks behind ``run_monte_carlo``
   for every scheme around a BS-centred and a fixed centre on 1-3 worker
   threads, a cold call, a warm call made after another altitude and the
   streaming ``run_monte_carlo_many`` agree exactly, and the blocks are
   drawn once; a new seed, trial count, scheme or draw layout replaces
   the one entry while the thread count and the eavesdropper centre do
   not; the kept arrays are read-only and hold only what the scheme
   counts, user axis first (the (N, n) cascade behind one shared index,
   or the (1, n) pick and served cascade), and the distance and polar
   direction of every block, at most 8 (N + 2) bytes per trial; bad
   arguments raise
   before any draw and leave the entry in place; threads racing over two
   keys get the streaming values.

 Group 6 — one block's reduced draws
   the single connected amplitudes, reduced in place, leave the fully
   connected cascade, the GCSI pick and its served cascade equal to
   those of a fully connected group on the same (seed, block), equal
   the out-of-place formula on the documented draw order, and every
   kept array stays read-only; one user's fully connected cascade over
   25 blocks at unit large-scale gains follows the series CDF of the
   cascade (Kolmogorov–Smirnov, p > 1e-4) for two fading settings.
   Element powers drawn as means of m exponentials follow the Gamma(m,
   1/m) CDF for m = 1..4 (Kolmogorov–Smirnov, p > 1e-4), and one user's
   single connected cascade over 10 blocks has the mean
   L + L(L - 1) (E[sqrt(g_b)] E[sqrt(g_r)])^2 within 4 standard errors
   for two fading settings.

 Group 7 — an eavesdropper ball with a fixed centre
   at offset 0 the eavesdropper gain reads the sampled radius, bit for
   bit the law-of-cosines form, on drawn samples at three radii; the
   offset-ball oracle (the sphere-sphere lens volume integrated over
   the served power sum and W by fixed Gauss-Legendre rules) equals the
   BS-centred analytic value to 1e-10 at zero offset for both serving
   rules; the fixed-centre MC rows (centre at 150 m, BS at 300 m and
   450 m, default users and users 150 m from the RIS, where the offset
   moves the ZSRP by up to 20 %) lie within 4 standard errors of it; the
   drawn BS-eavesdropper distance follows the lens law at an offset
   inside and past the radius (Kolmogorov-Smirnov, p > 1e-4).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import threading

import numpy as np
import pytest
from scipy import stats

from zsrpsim import secrecy as sec
from zsrpsim.analytic import ClosedFormParams, cdf_Z_single, zsrp_for_scheme
from zsrpsim.fading import FadingParams, cdf_S
from zsrpsim.propagation import (AirGroundParams, ScenarioGeometry, bs_ris_gain,
                                 large_scale_gain, ris_user_gain, sample_eve_distance)
from zsrpsim.scheduling import SchemeId

from oracles import eve_within, zsrp_offset_ball

# closed-form references for the default scenario (independently validated
# against quadrature in the analytic-layer tests)
RS_DEFAULT = 0.03569559129313944
PFS_DEFAULT = 0.02667028157484286


def make_config(geometry, air, fading, scheme=SchemeId.FCR_RS, **kw):
    return sec.ScenarioConfig(geometry=geometry, air=air, fading=fading, scheme=scheme, **kw)


def _documented_powers(rng, m, shape):
    """A block's Gamma(m, 1/m) element powers in the documented draw order,
    element axis first: one unit exponential for every power, then each
    element row's m - 1 further ones in turn, and the sum over m."""
    powers = rng.standard_exponential(shape)
    for row in powers:
        for _ in range(m - 1):
            row += rng.standard_exponential(shape[1:])
    return powers / m


# --- Group 1: scenario container ---


def test_config_derived_fields(geometry, air, fading):
    cfg = make_config(geometry, air, fading, gamma_b_db=20.0)
    assert cfg.n_users == 4


def test_config_validation(geometry, air, fading):
    with pytest.raises(ValueError):
        make_config(geometry, air, fading, gamma_b_db=float("nan"))
    with pytest.raises(ValueError):
        make_config(geometry, air, fading, alpha_eve=0.0)
    with pytest.raises(ValueError, match="eve_center_h_m"):
        make_config(geometry, air, fading, eve_center_h_m=-5.0)
    # the mode string is the config file's: load_config resolves it
    with pytest.raises(TypeError):
        make_config(geometry, air, fading, eve_center="fixed")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_refuses_non_finite(geometry, air, fading, bad):
    with pytest.raises(ValueError, match="alpha_eve must be positive and finite"):
        make_config(geometry, air, fading, alpha_eve=bad)
    with pytest.raises(ValueError, match="eve_center_h_m must be positive and finite"):
        make_config(geometry, air, fading, eve_center_h_m=bad)


def test_fixed_centre_pinned_once(geometry, air, fading):
    cfg = make_config(geometry, air, fading, eve_center_h_m=geometry.h_br_m)
    assert cfg.eve_offset_m == 0.0
    # moving the BS keeps the ball where it was pinned; the offset follows
    high = dataclasses.replace(geometry, h_br_m=600.0)
    moved = dataclasses.replace(cfg, geometry=high)
    assert moved.eve_center_h_m == geometry.h_br_m
    assert moved.eve_offset_m == 600.0 - geometry.h_br_m
    # a ball without a centre altitude moves with the BS
    centred = make_config(geometry, air, fading)
    assert centred.eve_center_h_m is None
    assert dataclasses.replace(centred, geometry=high).eve_offset_m == 0.0


# --- Group 2: estimator behavior ---


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
    cfg = make_config(geometry, air, fading, scheme=SchemeId.FCR_GCSI_PFS)
    a = sec.run_monte_carlo(cfg, trials=5_000, seed=31)
    b = sec.run_monte_carlo(cfg, trials=5_000, seed=31)
    c = sec.run_monte_carlo(cfg, trials=5_000, seed=32)
    assert a.p_hat == b.p_hat
    assert a.p_hat != c.p_hat
    assert a.trials == 5_000 and a.seed == 31
    expect_se = math.sqrt(a.p_hat * (1.0 - a.p_hat) / a.trials)
    assert math.isclose(a.std_err, expect_se, rel_tol=1e-12)


def _round_robin_trial_means(cfg, trials: int, seed: int) -> np.ndarray:
    """Each trial's share of round-robin users in the event, rebuilt from
    the documented draw order of each block: BS-side powers, user-side
    powers, the unit-ball radius and, last, the cosine of the polar
    angle, uniform on (-1, 1], which only a fixed centre reads."""
    geometry, air, fading = cfg.geometry, cfg.air, cfg.fading
    n_el, m1, m2 = fading.n_elements, fading.m1, fading.m2
    sigma2_sq = bs_ris_gain(geometry, air)
    sigma1_sq = np.array([ris_user_gain(geometry, air, u) for u in range(cfg.n_users)])
    means = []
    for i in range(-(-trials // sec.BLOCK_TRIALS)):
        n = min(sec.BLOCK_TRIALS, trials - i * sec.BLOCK_TRIALS)
        rng = sec._block_rng(seed, i)
        gb = _documented_powers(rng, m2, (n_el, n))
        gr = _documented_powers(rng, m1, (n_el, n, cfg.n_users))
        d_be = sample_eve_distance(rng, size=n) * geometry.r_eve_m
        if cfg.eve_center_h_m is not None:
            # the eavesdropper at radius d_be from the ball's centre, the BS
            # on the centre's vertical, dz above it
            cos_polar = 1.0 - 2.0 * rng.random(n)
            sin_polar = np.sqrt(1.0 - cos_polar ** 2)
            dz = geometry.h_br_m - cfg.eve_center_h_m
            d_be = np.hypot(d_be * sin_polar, d_be * cos_polar - dz)
        if cfg.scheme.fully_connected:
            cascade = gb.sum(axis=0)[:, None] * gr.sum(axis=0)
        else:
            cascade = (np.sqrt(gb)[:, :, None] * np.sqrt(gr)).sum(axis=0) ** 2
        main = sigma2_sq * sigma1_sq * cascade
        eve = air.ref_gain * np.maximum(d_be, 1e-9) ** -cfg.alpha_eve
        means.append((main < eve[:, None]).mean(axis=1))
    return np.concatenate(means)


@pytest.mark.parametrize("scheme", [SchemeId.FCR_RS, SchemeId.SCR_RS])
def test_round_robin_error_from_per_trial_means(geometry, air, fading, scheme):
    # p_hat averages N correlated user indicators per trial; its error is
    # the (plug-in) standard error of those T per-trial means, not the
    # binomial one of T * N independent indicators
    cfg = make_config(geometry, air, fading, scheme=scheme)
    trials, seed = 2 * sec.BLOCK_TRIALS + 808, 23
    means = _round_robin_trial_means(cfg, trials, seed)
    est = sec.run_monte_carlo(cfg, trials, seed)
    assert math.isclose(est.p_hat, means.mean(), rel_tol=1e-12)
    assert math.isclose(est.std_err, means.std() / math.sqrt(trials), rel_tol=1e-12)
    binomial = math.sqrt(est.p_hat * (1.0 - est.p_hat) / trials)
    assert not math.isclose(est.std_err, binomial, rel_tol=1e-3)


@pytest.mark.parametrize("center", [{}, {"eve_center_h_m": 175.0}],
                         ids=["bs", "fixed"])
@pytest.mark.parametrize("scheme", [SchemeId.FCR_RS, SchemeId.SCR_RS])
def test_wiretap_exponent_three_from_per_trial_means(air, fading, scheme, center):
    # alpha_eve = 3, around a BS-centred ball and a fixed centre 25 m above
    # the BS; the 50 m ball puts p near 0.2, so every indicator counts
    geometry = ScenarioGeometry(r_eve_m=50.0)
    cfg = make_config(geometry, air, fading, scheme=scheme, alpha_eve=3.0, **center)
    trials, seed = 2 * sec.BLOCK_TRIALS + 808, 23
    means = _round_robin_trial_means(cfg, trials, seed)
    est = sec.run_monte_carlo(cfg, trials, seed)
    assert 0.05 < est.p_hat < 0.5
    assert math.isclose(est.p_hat, means.mean(), rel_tol=1e-12)
    assert math.isclose(est.std_err, means.std() / math.sqrt(trials), rel_tol=1e-12)


@pytest.mark.parametrize("trials", (1, 2, 7, 4_096, 22_528, 400_000))
def test_served_user_error_is_binomial(trials):
    # at K = 1 the one formula is p (1 - p) / T, rounded once; the float
    # reference forms 1 - p as (T - h) / T, since 1.0 - p cancels near
    # p = 1 (3e-12 relative off at h = T - 1, T = 400,000)
    for h in sorted({0, 1, trials // 3, trials // 2, trials - 1, trials}):
        p = h / trials
        want = math.sqrt(p * ((trials - h) / trials) / trials)
        # one count triple per block, as the runners merge them
        counts = [(h, trials, h)] if h < 2 else [(1, 1, 1), (h - 1, trials - 1, h - 1)]
        est = sec._estimate(counts, trials, seed=3)
        assert est.p_hat == p
        assert abs(est.std_err - want) <= 2.0 * math.ulp(want)


@pytest.mark.parametrize("n_users", (2, 4, 7))
def test_round_robin_error_unchanged(n_users):
    # at K = N the one formula is the round-robin one it replaced, bit for bit
    rng = np.random.default_rng(n_users)
    for trials in (1, 5, 808, 2 * sec.BLOCK_TRIALS + 808):
        for p in (0.0, 1e-3, 0.3, 1.0):
            k = rng.binomial(n_users, p, size=trials)
            h, sq = int(k.sum()), int(np.dot(k, k))
            est = sec._estimate([(h, n_users * trials, sq)], trials, seed=3)
            old = (sq * trials - h * h) / (n_users ** 2 * trials ** 3)
            assert est.p_hat == h / (n_users * trials)
            assert est.std_err == math.sqrt(old)


def test_count_block_counts_k_of_k_users(geometry, air, fading):
    # three trials, two users; ties are secure, so equal gains count no event
    user_gains = np.array([1.0, 2.0])
    eve_gain = np.array([2.5, 6.0, 11.0])
    cascade = np.array([[1.0, 3.0, 5.0], [1.0, 3.0, 5.0]])
    pick, served = np.array([[1, 0, 1]]), np.array([[3.0, 3.0, 5.0]])
    block = sec._Block(np.ones(3), np.zeros(3), {(True, "rs"): (sec._ALL_USERS, cascade),
                                                 (False, "gcsi"): (pick, served)})
    # main gains [[1, 3, 5], [2, 6, 10]]: k = (2, 1, 2)
    rs = make_config(geometry, air, fading, SchemeId.FCR_RS)
    assert sec._count_block(block, rs, user_gains, eve_gain) == (5, 6, 9)
    # served main gains [6, 3, 10]: k = (0, 1, 1)
    pfs = make_config(geometry, air, fading, SchemeId.SCR_GCSI_PFS)
    assert sec._count_block(block, pfs, user_gains, eve_gain) == (2, 3, 2)


def test_zero_trials_rejected(geometry, air, fading):
    cfg = make_config(geometry, air, fading)
    with pytest.raises(ValueError):
        sec.run_monte_carlo(cfg, trials=0, seed=1)


def test_negative_seed_rejected(geometry, air, fading):
    cfg = make_config(geometry, air, fading)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        sec.run_monte_carlo_many([cfg], 5_000, seed=-1)


# --- Group 3: scheme behavior ---


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
    cfg = make_config(geometry, air, fading, eve_center_h_m=200.0)
    est = sec.run_monte_carlo(cfg, trials=8_192, seed=17)
    assert 0.0 <= est.p_hat <= 1.0


# --- Group 4: batched rows over shared draws ---

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

    fixed = dataclasses.replace(base, eve_center_h_m=150.0)
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
        # BS-centred, centred at 150 m (the BS altitude at h = 150 m) and
        # at 400 m, all in one call
        "mixed-centres": [dataclasses.replace(at(base, s, h_br_m=h), eve_center_h_m=c)
                          for h in (150.0, 450.0) for s in SchemeId
                          for c in (None, 150.0, 400.0)],
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
    calls = _counting_draws(monkeypatch)
    configs = _batch_cases()["fig3-mixed-l"] + _batch_cases()["fig2"]
    sec.run_monte_carlo_many(configs, BATCH_TRIALS, BATCH_SEED, threads=2)
    # three element counts make three layouts; fig2 shares the L = 16 one
    assert sorted(calls) == sorted([sec.BLOCK_TRIALS, sec.BLOCK_TRIALS, 808] * 3)


def test_batch_mixed_centres_share_blocks_and_gains(monkeypatch):
    calls = _counting_draws(monkeypatch)
    configs = _batch_cases()["mixed-centres"]
    estimates = sec.run_monte_carlo_many(configs, BATCH_TRIALS, BATCH_SEED)
    # every centre shares one layout, so each block is drawn once
    assert sorted(calls) == [808, sec.BLOCK_TRIALS, sec.BLOCK_TRIALS]
    # a centre at the BS altitude is the BS-centred ball, gains and all
    by_row = {(c.geometry.h_br_m, c.scheme, c.eve_center_h_m): (c, e)
              for c, e in zip(configs, estimates)}
    for scheme in SchemeId:
        (bs, est_bs), (at_bs, est_at_bs) = (by_row[150.0, scheme, c] for c in (None, 150.0))
        assert sec._eve_key(bs) == sec._eve_key(at_bs)
        assert est_bs == est_at_bs


def test_batch_edge_cases(geometry, air, fading):
    cfg = make_config(geometry, air, fading)
    assert sec.run_monte_carlo_many([], 5_000, seed=1, threads=2) == []
    twice = sec.run_monte_carlo_many([cfg, cfg], 5_000, seed=1)
    assert twice[0] == twice[1] == sec.run_monte_carlo(cfg, 5_000, seed=1)
    with pytest.raises(ValueError):
        sec.run_monte_carlo_many([cfg], 0, seed=1)
    with pytest.raises(ValueError):
        sec.run_monte_carlo_many([cfg], 5_000, seed=1, threads=0)


# --- Group 5: memoized blocks behind run_monte_carlo ---


def _counting_draws(monkeypatch) -> list:
    """Empty the memo and record the trial count of every block drawn."""
    monkeypatch.setattr(sec, "_memo", {})
    calls = []
    draw = sec._draw_block

    def counting(configs, seed, block_index, n):
        calls.append(n)
        return draw(configs, seed, block_index, n)

    monkeypatch.setattr(sec, "_draw_block", counting)
    return calls


def _memo_config(scheme: SchemeId, center: str, h_br_m: float = 220.0,
                 **kw) -> sec.ScenarioConfig:
    centre = {"eve_center_h_m": 150.0} if center == "fixed" else {}
    return sec.ScenarioConfig(geometry=ScenarioGeometry(h_br_m=h_br_m),
                              air=AirGroundParams(), fading=FadingParams(),
                              scheme=scheme, **centre, **kw)


def _row_arrays(block: sec._Block) -> list[np.ndarray]:
    return [a for row in block.rows.values() for a in row if isinstance(a, np.ndarray)]


def _pair(est: sec.ZsrpEstimate) -> tuple[float, float]:
    return est.p_hat, est.std_err


@pytest.mark.parametrize("threads", (1, 2, 3))
@pytest.mark.parametrize("center", ("bs", "fixed"))
@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_memo_cold_warm_and_streaming_agree(monkeypatch, scheme, center, threads):
    draws = _counting_draws(monkeypatch)
    cfg, other = _memo_config(scheme, center), _memo_config(scheme, center, 600.0)
    cold = sec.run_monte_carlo(cfg, BATCH_TRIALS, BATCH_SEED, threads=threads)
    # another altitude on another thread count shares the entry
    moved = sec.run_monte_carlo(other, BATCH_TRIALS, BATCH_SEED, threads=threads % 3 + 1)
    warm = sec.run_monte_carlo(cfg, BATCH_TRIALS, BATCH_SEED, threads=threads)
    assert sorted(draws) == [808, sec.BLOCK_TRIALS, sec.BLOCK_TRIALS]
    streaming = sec.run_monte_carlo_many([cfg, other], BATCH_TRIALS, BATCH_SEED,
                                         threads=threads)
    assert _pair(cold) == _pair(warm) == _pair(streaming[0])
    assert _pair(moved) == _pair(streaming[1])
    assert warm == cold and warm.trials == BATCH_TRIALS and warm.seed == BATCH_SEED


def test_memo_entry_replaced_by_key(monkeypatch):
    draws = _counting_draws(monkeypatch)
    base = _memo_config(SchemeId.FCR_GCSI_PFS, "bs")
    # (config, trials, seed, whether it replaces the entry)
    variants = [
        (base, BATCH_TRIALS, BATCH_SEED, True),
        # the centre is a row scalar, not part of the key
        (_memo_config(SchemeId.FCR_GCSI_PFS, "fixed"), BATCH_TRIALS, BATCH_SEED, False),
        (base, BATCH_TRIALS, BATCH_SEED + 1, True),
        (base, BATCH_TRIALS - 1, BATCH_SEED + 1, True),
        (dataclasses.replace(base, scheme=SchemeId.SCR_GCSI_PFS), BATCH_TRIALS,
         BATCH_SEED, True),
        (dataclasses.replace(base, fading=FadingParams(n_elements=8)), BATCH_TRIALS,
         BATCH_SEED, True),
        (dataclasses.replace(base, geometry=ScenarioGeometry(d_rn_m=(40.0, 60.0, 90.0))),
         BATCH_TRIALS, BATCH_SEED, True),
        (base, BATCH_TRIALS, BATCH_SEED, True),
    ]
    drawn = 0
    for cfg, trials, seed, replaces in variants:
        est = sec.run_monte_carlo(cfg, trials, seed, threads=2)
        assert list(sec._memo) == [(sec._layout(cfg), cfg.scheme, seed, trials)]
        drawn += 3 * replaces
        assert len(draws) == drawn
        assert est == sec.run_monte_carlo_many([cfg], trials, seed)[0]
        del draws[drawn:]  # the streaming reference draws too


@pytest.mark.parametrize("center", ("bs", "fixed"))
@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_memo_arrays_read_only_and_reduced(monkeypatch, scheme, center):
    _counting_draws(monkeypatch)
    cfg = _memo_config(scheme, center)
    sec.run_monte_carlo(cfg, BATCH_TRIALS, BATCH_SEED)
    (blocks,) = sec._memo.values()
    assert [b.cbrt_u.size for b in blocks] == [sec.BLOCK_TRIALS, sec.BLOCK_TRIALS, 808]
    kept = 0
    for block in blocks:
        # every centre keeps the polar direction
        assert block.dir_z.shape == block.cbrt_u.shape
        assert list(block.rows) == [(scheme.fully_connected, scheme.rule)]
        ((users, cascade),) = block.rows.values()
        if scheme.rule == "rs":
            # one shared index, not an array kept per block
            assert users is sec._ALL_USERS
            assert cascade.shape == (cfg.n_users, block.cbrt_u.size)
        else:
            assert users.shape == cascade.shape == (1, block.cbrt_u.size)
        arrays = [block.cbrt_u, block.dir_z, *_row_arrays(block)]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        kept += sum(a.nbytes for a in arrays)
    assert kept <= 8 * (cfg.n_users + 2) * BATCH_TRIALS


def test_memo_bad_arguments_raise_before_any_draw(monkeypatch):
    draws = _counting_draws(monkeypatch)
    cfg = _memo_config(SchemeId.SCR_RS, "bs")
    est = sec.run_monte_carlo(cfg, 1_000, seed=3)
    entry = dict(sec._memo)
    del draws[:]
    for trials, seed, threads, what in ((0, 3, 1, "trials"), (1_000, 3, 0, "threads"),
                                        (1_000, -1, 1, "seed")):
        with pytest.raises(ValueError, match=what):
            sec.run_monte_carlo(cfg, trials, seed, threads=threads)
    assert draws == [] and sec._memo == entry
    assert sec.run_monte_carlo(cfg, 1_000, seed=3) == est


def test_memo_threads_racing_over_two_keys(monkeypatch):
    monkeypatch.setattr(sec, "_memo", {})
    cfgs = [_memo_config(SchemeId.FCR_RS, "bs"), _memo_config(SchemeId.SCR_FCSI_PFS, "fixed")]
    want = [_pair(e) for e in sec.run_monte_carlo_many(cfgs, 1_500, seed=9)]
    got: list = []

    def worker(k: int) -> None:
        for j in range(12):
            which = (k + j) % 2
            got.append((which, _pair(sec.run_monte_carlo(cfgs[which], 1_500, seed=9))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert len(got) == 6 * 12
    assert all(pair == want[which] for which, pair in got)
    assert len(sec._memo) == 1


# --- Group 6: one block's reduced draws ---


def test_in_place_reduction_leaves_other_rows_alone(geometry, air, fading):
    # the single connected amplitudes overwrite the user-side powers after
    # the fully connected cascade and the GCSI power sums have read them
    seed, i, n = BATCH_SEED, 2, 808
    fc_only = [make_config(geometry, air, fading, s) for s in SchemeId if s.fully_connected]
    mixed = [make_config(geometry, air, fading, s) for s in SchemeId]
    alone = sec._draw_block(fc_only, seed, i, n)
    both = sec._draw_block(mixed, seed, i, n)
    assert np.array_equal(alone.rows[True, "rs"][1], both.rows[True, "rs"][1])
    pick, served = alone.rows[True, "gcsi"]
    assert np.array_equal(both.rows[True, "gcsi"][0], pick)
    assert np.array_equal(both.rows[True, "gcsi"][1], served)
    assert np.array_equal(both.rows[False, "gcsi"][0], pick)

    rng = sec._block_rng(seed, i)
    gb = _documented_powers(rng, fading.m2, (fading.n_elements, n))
    gr = _documented_powers(rng, fading.m1, (fading.n_elements, n, geometry.n_users))
    sc = (np.sqrt(gb)[:, :, None] * np.sqrt(gr)).sum(axis=0) ** 2
    assert np.array_equal(both.rows[False, "rs"][1], sc.T)
    assert np.array_equal(both.rows[False, "gcsi"][1], sc[np.arange(n), pick])
    fcsi = sc.argmax(axis=1)
    assert np.array_equal(both.rows[False, "fcsi"][0], fcsi[None])
    assert np.array_equal(both.rows[False, "fcsi"][1], sc[np.arange(n), fcsi][None])
    for block in (alone, both):
        arrays = [block.cbrt_u, block.dir_z, *_row_arrays(block)]
        assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("shapes", [(2, 2, 16), (3, 1, 8)], ids=str)
def test_block_cascade_follows_the_series_cdf(geometry, air, shapes):
    # users of one trial share the BS-side sum W, so one user's column is
    # an independent sample of the unit-gain cascade S W
    m1, m2, n_elements = shapes
    cfg = make_config(geometry, air, FadingParams(m1=m1, m2=m2, n_elements=n_elements))
    z = np.concatenate([sec._draw_block([cfg], 2026, i, sec.BLOCK_TRIALS).rows[True, "rs"][1][0]
                        for i in range(25)])
    unit = ClosedFormParams(m1=m1, m2=m2, n_elements=n_elements, scale=1.0,
                            ref_gain=1.0, r_eve_m=1.0)
    assert stats.kstest(z, lambda x: cdf_Z_single(x, unit, 1.0)).pvalue > 1e-4


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_element_powers_follow_the_gamma_cdf(m):
    # a Gamma(m, 1/m) power has the CDF of the power sum S at L = 1
    powers = sec._element_powers(sec._block_rng(2026, m), m, (4, 2048, 2))
    assert powers.shape == (4, 2048, 2)
    assert stats.kstest(powers.ravel(), lambda s: cdf_S(s, m, 1)).pvalue > 1e-4


@pytest.mark.parametrize("shapes", [(2, 2, 16), (3, 1, 8)], ids=str)
def test_single_connected_cascade_mean(geometry, air, shapes):
    # the L amplitudes sqrt(g_b g_r) are i.i.d. with E[g_b g_r] = 1 and
    # E[sqrt(g)] = Gamma(m + 1/2) / (Gamma(m) sqrt(m)) for g ~ Gamma(m, 1/m)
    m1, m2, n_elements = shapes
    cfg = make_config(geometry, air, FadingParams(m1=m1, m2=m2, n_elements=n_elements),
                      SchemeId.SCR_RS)
    z = np.concatenate([sec._draw_block([cfg], 2026, i, sec.BLOCK_TRIALS).rows[False, "rs"][1][0]
                        for i in range(10)])
    root_means = math.exp(math.lgamma(m1 + 0.5) + math.lgamma(m2 + 0.5)
                          - math.lgamma(m1) - math.lgamma(m2)) / math.sqrt(m1 * m2)
    want = n_elements + n_elements * (n_elements - 1) * root_means ** 2
    assert abs(z.mean() - want) <= 4.0 * z.std() / math.sqrt(z.size)


# --- Group 7: an eavesdropper ball with a fixed centre ---


def _cascade_params(cfg: sec.ScenarioConfig) -> ClosedFormParams:
    """The cascade of one user (the served maximum of N under PFS)."""
    geom, air, fad = cfg.geometry, cfg.air, cfg.fading
    return ClosedFormParams(
        m1=fad.m1, m2=fad.m2, n_elements=fad.n_elements,
        scale=ris_user_gain(geom, air, 0) * bs_ris_gain(geom, air),
        ref_gain=air.ref_gain, r_eve_m=geom.r_eve_m,
        n_users=1 if cfg.scheme.rule == "rs" else cfg.n_users)


def test_zero_offset_gain_is_the_law_of_cosines_form(geometry, air, fading):
    # the gain at offset 0 reads the sampled radius; the law-of-cosines
    # form it skips gives the same bits, since IEEE sqrt(rho^2) = rho
    cfg = make_config(geometry, air, fading)
    for i in range(8):
        block = sec._draw_block([cfg], 2026, i, sec.BLOCK_TRIALS)
        for r_eve in (1e-3, 500.0, 3.7e5):
            rho = r_eve * block.cbrt_u
            cosines = np.sqrt(np.maximum(rho ** 2 - 2.0 * rho * block.dir_z * 0.0
                                         + 0.0 ** 2, 0.0))
            assert np.array_equal(cosines, rho)
            want = large_scale_gain(air.ref_gain, np.maximum(cosines, 1e-9), 2.0)
            got = sec._eve_gain(block, (r_eve, 0.0, 2.0, air.ref_gain))
            assert [g.hex() for g in got.tolist()] == [w.hex() for w in want.tolist()]


@pytest.mark.parametrize("scheme", [SchemeId.FCR_RS, SchemeId.FCR_GCSI_PFS])
def test_offset_ball_oracle_at_zero_offset_is_the_analytic_value(geometry, air,
                                                                 fading, scheme):
    cfg = make_config(geometry, air, fading, scheme)
    want = zsrp_for_scheme(cfg).value
    assert math.isclose(zsrp_offset_ball(_cascade_params(cfg), 0.0), want,
                        rel_tol=1e-10, abs_tol=0.0)


def test_fixed_centre_mc_matches_the_offset_ball_oracle(air, fading):
    configs = [make_config(ScenarioGeometry(h_br_m=h, d_rn_m=(d_rn,) * 4), air,
                           fading, scheme, eve_center_h_m=150.0)
               for d_rn in (50.0, 150.0) for h in (300.0, 450.0)
               for scheme in (SchemeId.FCR_RS, SchemeId.FCR_GCSI_PFS)]
    estimates = sec.run_monte_carlo_many(configs, 400_000, 2026)
    for cfg, est in zip(configs, estimates):
        want = zsrp_offset_ball(_cascade_params(cfg), cfg.geometry.h_br_m - 150.0)
        assert abs(est.p_hat - want) < 4.0 * est.std_err, (cfg.geometry, cfg.scheme)


@pytest.mark.parametrize("h_br_m", [450.0, 1000.0])
def test_fixed_centre_distance_follows_the_lens_law(air, fading, h_br_m):
    # offsets 300 m (inside the 500 m ball) and 850 m (past it)
    cfg = make_config(ScenarioGeometry(h_br_m=h_br_m), air, fading,
                      eve_center_h_m=150.0)
    block = sec._draw_block([cfg], 2026, 0, 20_000)
    # at alpha_e = 1 and G0 = 1 the gain is the inverse distance
    dist = 1.0 / sec._eve_gain(block, (cfg.geometry.r_eve_m, cfg.eve_offset_m, 1.0, 1.0))
    law = functools.partial(eve_within, big_r=cfg.geometry.r_eve_m,
                            offset=h_br_m - 150.0)
    assert stats.kstest(dist, law).pvalue > 1e-4
