"""Altitude optimization: golden-section kernel and the full search.

Proves:
 Group 1 — golden-section kernel
   recovers quadratic minima within tolerance anywhere in the bracket
   (property); monotone objectives push to the matching endpoint; the
   call count respects the 0.618-contraction iteration bound; degenerate
   brackets and tolerances rejected, NaN and infinite tolerances included.

 Group 2 — search specification
   bound ordering, tolerance, evaluator name, and trial-count validation;
   NaN and infinite bounds or tolerances are refused.

 Group 3 — full search, closed-form objective
   the default fully connected rotation scenario has an interior optimum
   near 316 m whose value beats both endpoints (U shape); a flat
   environment exponent removes the altitude benefit and the search
   returns the lower bound; the search builds no Meijer-G composite (its
   objective is the quadrature value alone, equal to the full result's),
   while every analytic ``run`` row builds one; a pre-scan bracket already
   within the tolerance is the answer, with no golden-section step.

 Group 4 — full search, simulation objective
   fixed-seed objectives make the search deterministic end to end, and
   the pre-scan plus refinement stays within its evaluation budget; the
   batched pre-scan returns the same (h*, ZSRP, evaluation count) as
   evaluating every altitude on its own did (pinned values); a search
   draws each block once, not once per objective call, and makes one
   ``run_monte_carlo`` call per distinct altitude, h* among them.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsrpsim import analytic as an
from zsrpsim import experiments as ex
from zsrpsim import optimize as op
from zsrpsim import secrecy as sec
from zsrpsim.analytic import zsrp_for_scheme
from zsrpsim.propagation import AirGroundParams, ScenarioGeometry
from zsrpsim.scheduling import SchemeId
from zsrpsim.secrecy import ScenarioConfig

# frozen regression: closed-form optimum for the default rotation scenario
H_STAR_DEFAULT = 315.84


def iteration_bound(lo: float, hi: float, tol: float) -> int:
    return math.ceil(math.log((hi - lo) / tol) / math.log(1.0 / 0.618)) + 2


# --- Group 1: golden-section kernel ---


def test_quadratic_minimum():
    h, fh = op.golden_section_min(lambda x: (x - 3.7) ** 2, 0.0, 10.0, 1e-4)
    assert abs(h - 3.7) <= 1e-4
    assert fh == (h - 3.7) ** 2


@given(st.floats(min_value=-9.0, max_value=9.0))
@settings(max_examples=50, deadline=None)
def test_quadratic_minimum_property(a):
    h, _ = op.golden_section_min(lambda x: (x - a) ** 2, -10.0, 10.0, 1e-3)
    assert abs(h - a) <= 1e-3


def test_monotone_objectives_hit_endpoints():
    h, _ = op.golden_section_min(lambda x: x, 2.0, 9.0, 1e-3)
    assert abs(h - 2.0) <= 1e-3
    h, _ = op.golden_section_min(lambda x: -x, 2.0, 9.0, 1e-3)
    assert abs(h - 9.0) <= 1e-3


def test_call_count_bound():
    calls = 0

    def f(x: float) -> float:
        nonlocal calls
        calls += 1
        return (x - 700.0) ** 2

    op.golden_section_min(f, 40.0, 1500.0, 1.0)
    # one fresh evaluation per contraction plus the two seed points
    assert calls <= iteration_bound(40.0, 1500.0, 1.0) + 2


def test_kernel_validation():
    with pytest.raises(ValueError):
        op.golden_section_min(lambda x: x, 5.0, 5.0, 1e-3)
    with pytest.raises(ValueError):
        op.golden_section_min(lambda x: x, 9.0, 2.0, 1e-3)
    with pytest.raises(ValueError):
        op.golden_section_min(lambda x: x, 0.0, 1.0, 0.0)


# --- Group 2: search specification ---


def make_config(geometry, air, fading, scheme=SchemeId.FCR_RS):
    return ScenarioConfig(geometry=geometry, air=air, fading=fading, scheme=scheme)


def test_spec_validation(geometry, air, fading):
    cfg = make_config(geometry, air, fading)
    with pytest.raises(ValueError):
        op.AltitudeSearchSpec(config=cfg, h_lo_m=500.0, h_hi_m=100.0)
    with pytest.raises(ValueError):
        op.AltitudeSearchSpec(config=cfg, tol_m=0.0)
    with pytest.raises(ValueError):
        op.AltitudeSearchSpec(config=cfg, evaluator="exact")
    with pytest.raises(ValueError):
        op.AltitudeSearchSpec(config=cfg, evaluator="mc", trials=0)


@pytest.mark.parametrize("kw", [dict(h_hi_m=math.inf), dict(h_lo_m=math.nan),
                                dict(h_hi_m=math.nan), dict(tol_m=math.nan),
                                dict(tol_m=math.inf)])
def test_spec_refuses_non_finite(geometry, air, fading, kw):
    cfg = make_config(geometry, air, fading)
    with pytest.raises(ValueError):
        op.AltitudeSearchSpec(config=cfg, **kw)


def test_kernel_refuses_non_finite_tolerance():
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            op.golden_section_min(lambda x: x, 0.0, 1.0, tol)


# --- Group 3: closed-form objective ---


def test_default_scenario_interior_optimum(geometry, air, fading):
    cfg = make_config(geometry, air, fading)
    spec = op.AltitudeSearchSpec(config=cfg, tol_m=1.0)
    res = op.optimal_altitude(spec)
    assert abs(res.h_m - H_STAR_DEFAULT) <= 2.0
    assert res.n_evaluations >= 16

    # U shape: the optimum beats both search endpoints
    def value_at(h: float) -> float:
        geo = ScenarioGeometry(h_br_m=h)
        return zsrp_for_scheme(make_config(geo, air, fading)).value

    assert res.zsrp < value_at(40.0)
    assert res.zsrp < value_at(1500.0)
    assert math.isclose(res.zsrp, value_at(res.h_m), rel_tol=1e-9)


def test_analytic_search_builds_no_closed_form(geometry, air, fading,
                                               monkeypatch):
    calls = []
    closed_forms = an._closed_forms

    def counting(params):
        calls.append(list(params))
        return closed_forms(params)

    monkeypatch.setattr(an, "_closed_forms", counting)
    for scheme in (SchemeId.FCR_RS, SchemeId.FCR_GCSI_PFS):
        cfg = make_config(geometry, air, fading, scheme)
        spec = op.AltitudeSearchSpec(config=cfg, h_lo_m=100.0, h_hi_m=600.0,
                                     tol_m=25.0)
        res = op.optimal_altitude(spec)
        assert res.n_evaluations >= 16 and calls == []
        at_h = make_config(ScenarioGeometry(h_br_m=res.h_m), air, fading, scheme)
        (full,) = an.zsrp_many([at_h], True)
        assert full.closed_form is not None and len(sum(calls, [])) == 1
        assert res.zsrp.hex() == full.value.hex()
        calls.clear()
    # a run keeps its cross-check: one composite per analytic row
    scenario, base = ex.load_config(None)
    spec = ex.ExperimentSpec(**{**base.__dict__, "kind": "fig4",
                                "schemes": (SchemeId.FCR_RS,
                                            SchemeId.FCR_GCSI_PFS),
                                "evaluators": ("analytic",),
                                "h_grid_m": (150.0, 310.0)})
    rows = ex.run_experiment(scenario, spec)
    # all four in one batch
    assert len(rows) == 4 and [len(c) for c in calls] == [4]


def test_bracket_within_tolerance_skips_golden_section(geometry, air, fading,
                                                      monkeypatch):
    # the pre-scan's bracket, two steps of 1460 / 15 m, is already within
    # 200 m: its best point, 332 m, is the answer after 16 evaluations
    def never(*args):
        raise AssertionError("golden section ran on a bracket within tol_m")

    monkeypatch.setattr(op, "golden_section_min", never)
    cfg = make_config(geometry, air, fading)
    res = op.optimal_altitude(op.AltitudeSearchSpec(config=cfg, tol_m=200.0))
    step = (1500.0 - 40.0) / 15
    assert res.h_m == 40.0 + 3 * step
    assert round(res.h_m) == 332 and res.n_evaluations == 16
    at_h = make_config(ScenarioGeometry(h_br_m=res.h_m), air, fading)
    assert res.zsrp.hex() == zsrp_for_scheme(at_h).value.hex()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_flat_exponent_prefers_low_altitude(geometry, fading):
    # constant exponent: altitude only adds distance, so the lower bound
    # wins.  High altitudes push the probability to ~1e-8 where the two
    # routes differ by more than 1e-6 relative (within the quadrature's own
    # absolute tolerance); that deviation is surfaced as a warning by
    # design and asserted explicitly in the closed-form tests.
    flat = AirGroundParams(alpha_zenith=2.0, alpha_ground=2.0)
    cfg = make_config(geometry, flat, fading)
    spec = op.AltitudeSearchSpec(config=cfg, h_lo_m=40.0, h_hi_m=800.0, tol_m=1.0)
    res = op.optimal_altitude(spec)
    assert abs(res.h_m - 40.0) <= 2.0


# --- Group 4: simulation objective ---


def test_mc_search_deterministic(geometry, air, fading):
    cfg = make_config(geometry, air, fading)
    spec = op.AltitudeSearchSpec(
        config=cfg, h_lo_m=100.0, h_hi_m=600.0, tol_m=25.0,
        evaluator="mc", trials=20_000, seed=777,
    )
    first = op.optimal_altitude(spec)
    second = op.optimal_altitude(spec)
    assert first.h_m == second.h_m
    assert first.zsrp == second.zsrp
    # pre-scan of 16 plus a short refinement
    assert first.n_evaluations <= 16 + iteration_bound(100.0, 600.0, 25.0) + 4


# pinned from a replay that emptied the memo before every objective call,
# so every altitude ran alone (see tests/data/README.md):
# (scheme, eve_center_h_m, trials) -> (h*, zsrp, n_evaluations), seed 7;
# None centres the ball on the BS, 150.0 fixes it at the default altitude
MC_SEARCH_PINNED = {
    (SchemeId.SCR_GCSI_PFS, None, 20_000): (293.5414948020044, 0.0007, 30),
    (SchemeId.FCR_RS, 150.0, 20_000): (709.0889908913257, 1.25e-05, 30),
    (SchemeId.SCR_RS, None, 9_000): (299.6416149687907, 0.001, 30),
}


@pytest.mark.parametrize("key", sorted(MC_SEARCH_PINNED, key=str))
def test_mc_search_matches_pinned(geometry, air, fading, key):
    import dataclasses

    scheme, center, trials = key
    cfg = dataclasses.replace(make_config(geometry, air, fading, scheme),
                              eve_center_h_m=center)
    res = op.optimal_altitude(op.AltitudeSearchSpec(
        config=cfg, evaluator="mc", trials=trials, seed=7))
    assert (res.h_m, res.zsrp, res.n_evaluations) == MC_SEARCH_PINNED[key]


def test_mc_search_draws_each_block_once(geometry, air, fading, monkeypatch):
    monkeypatch.setattr(sec, "_memo", {})
    draws, altitudes = [], []
    draw, run_mc = sec._draw_block, op.run_monte_carlo

    def counting_draw(configs, seed, block_index, n):
        draws.append(n)
        return draw(configs, seed, block_index, n)

    def counting_run(cfg, trials, seed, threads=1):
        altitudes.append(cfg.geometry.h_br_m)
        return run_mc(cfg, trials, seed, threads=threads)

    monkeypatch.setattr(sec, "_draw_block", counting_draw)
    monkeypatch.setattr(op, "run_monte_carlo", counting_run)
    cfg = make_config(geometry, air, fading, SchemeId.SCR_GCSI_PFS)
    res = op.optimal_altitude(op.AltitudeSearchSpec(
        config=cfg, evaluator="mc", trials=2 * sec.BLOCK_TRIALS + 808, seed=7,
        threads=2))
    assert sorted(draws) == [808, sec.BLOCK_TRIALS, sec.BLOCK_TRIALS]
    assert len(altitudes) == len(set(altitudes)) == res.n_evaluations
    assert res.h_m in altitudes
