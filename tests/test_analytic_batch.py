"""One batched analytic evaluation of many scenarios.

Proves:
 Group 1 — each row of a batch is its one-row call
   over lists of scenarios (property: m1, m2 in {1, 2, 3}, L <= 16,
   N <= 4 users at common or mixed RIS-user distances, altitudes, radii up
   to ones that refuse the closed form or the whole row, single-connected
   schemes and offset eavesdropper centres), each outcome of
   ``zsrp_many`` equals the call that holds its scenario alone: the same
   ``float.hex`` of ``value`` and ``closed_form``, or the same refusal,
   and where a row's value quadrature fails alone the batch fails too;
   the same holds on the 64-row grid of L = 4/8/16/32 elements, the 8
   default fig4 altitudes and both fully connected schemes, whose
   closed forms take their 384 distinct seeds in one call: round robin's
   3 seeds at a point are the first 3 of greedy's 12, so the default
   fig4 sweep takes 96 seed integrals, not 8 x (3 + 12) = 120.

 Group 2 — a radius past the seeds' range refuses fast
   at R = 1e40 and 1e60 m both serving rules return the quadrature value
   (pinned bits) with no closed form, in under 1 s and without a
   RuntimeWarning: their one seed call refuses each seed whose
   bracketing grid is not finite, before it reaches the quadrature;
   in a batch at R = 500, 1e40, 1e60 and 300 m, one seed call refuses
   just the huge radii's seeds, those rows alone lose their closed form,
   and their neighbours keep theirs, bit for bit; at R = 1e40 m with
   m2 L = 4, where the seeds hold but a Bessel factor of the recurrence
   passes the double range, the closed form is refused by its infinite
   rounding bound, without a RuntimeWarning.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsrpsim import analytic as an
from zsrpsim import specfun
from zsrpsim.errors import AccuracyError, AnalyticUnavailableError
from zsrpsim.fading import FadingParams
from zsrpsim.propagation import AirGroundParams, ScenarioGeometry
from zsrpsim.scheduling import SchemeId
from zsrpsim.secrecy import ScenarioConfig

FIG4_H_M = (60.0, 100.0, 150.0, 220.0, 310.0, 450.0, 700.0, 1000.0)
FC_SCHEMES = (SchemeId.FCR_RS, SchemeId.FCR_GCSI_PFS)


def outcome(res) -> tuple:
    """``float.hex`` of value and closed form, or the refusal's type."""
    if isinstance(res, Exception):
        return (type(res),)
    return (res.value.hex(),
            None if res.closed_form is None else res.closed_form.hex())


def alone(cfg: ScenarioConfig, closed_form: bool = True):
    (res,) = an.zsrp_many([cfg], closed_form)
    return res


def alone_or_failure(cfg: ScenarioConfig, closed_form: bool):
    """The one-row outcome, or the AccuracyError its value quadrature raises."""
    try:
        return alone(cfg, closed_form)
    except AccuracyError as exc:
        return exc


def seed_call_sizes(monkeypatch) -> list[int]:
    """Record the seed count of each ``meijer_g_m0_log`` call."""
    calls = []
    seed = specfun.meijer_g_m0_log

    def counting(mu, nu, x):
        calls.append(np.size(x))
        return seed(mu, nu, x)

    monkeypatch.setattr(specfun, "meijer_g_m0_log", counting)
    return calls


#: the reason of a seed whose bracketing grid is not finite
GRID_REFUSAL = "ln of the Bessel tail integrand is not finite on the bracketing grid"


def seed_calls(monkeypatch) -> list[tuple[list[str], int]]:
    """Record each ``meijer_g_m0_log`` call as the reason of each seed and
    the count of seeds that reach its tail-integral quadrature."""
    calls, integrals = [], []
    seed, quadrature = specfun.meijer_g_m0_log, specfun.adaptive_gl

    def counting_quadrature(f, lo, hi, abs_tol, count):
        integrals.append(count)
        return quadrature(f, lo, hi, abs_tol, count)

    def recording(mu, nu, x):
        integrals.clear()  # the value quadratures run before the seeds
        log_gs, reasons = seed(mu, nu, x)
        calls.append((reasons, sum(integrals)))
        return log_gs, reasons

    monkeypatch.setattr(specfun, "meijer_g_m0_log", recording)
    monkeypatch.setattr(specfun, "adaptive_gl", counting_quadrature)
    return calls


# --- Group 1: each row of a batch is its one-row call ---


@st.composite
def scenarios(draw) -> ScenarioConfig:
    n_users = draw(st.integers(1, 4))
    distances = st.sampled_from((30.0, 50.0, 80.0))
    d_rn = (draw(st.lists(distances, min_size=n_users, max_size=n_users))
            if draw(st.booleans()) else (draw(distances),) * n_users)
    h_br_m = draw(st.sampled_from((60.0, 150.0, 450.0)))
    geometry = ScenarioGeometry(
        h_br_m=h_br_m, d_rn_m=tuple(d_rn),
        # 1e40 refuses the closed form, 1e103 round robin and 1e160 both
        r_eve_m=draw(st.sampled_from((150.0, 500.0, 500.0, 2000.0, 1e40,
                                      1e103, 1e160))))
    fading = FadingParams(m1=draw(st.integers(1, 3)), m2=draw(st.integers(1, 3)),
                          n_elements=draw(st.sampled_from((1, 2, 4, 16))))
    # mostly scenarios with an analytic row; some refused ones among them
    centre = draw(st.sampled_from((None, None, None, h_br_m, 100.0)))
    scheme = draw(st.sampled_from(FC_SCHEMES * 4 + tuple(SchemeId)))
    return ScenarioConfig(geometry=geometry, air=AirGroundParams(),
                          fading=fading, scheme=scheme, eve_center_h_m=centre)


@given(st.lists(scenarios(), min_size=1, max_size=5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_batch_rows_equal_their_one_row_calls(configs, closed_form):
    with warnings.catch_warnings():
        # a closed form far from its quadrature value warns, by design
        warnings.filterwarnings("ignore", "closed-form composite deviates",
                                RuntimeWarning)
        want = [alone_or_failure(cfg, closed_form) for cfg in configs]
        if any(isinstance(r, AccuracyError) for r in want):
            # a value quadrature that fails alone fails its batch, as a
            # run of one row per call stopped at it
            with pytest.raises(AccuracyError, match="failed to converge"):
                an.zsrp_many(configs, closed_form)
            return
        got = an.zsrp_many(configs, closed_form)
    assert [outcome(r) for r in got] == [outcome(r) for r in want]
    for res in got:
        assert isinstance(res, (an.AnalyticZsrp, AnalyticUnavailableError))
        if not closed_form and isinstance(res, an.AnalyticZsrp):
            assert res.closed_form is None and res.rel_gap is None


def test_fig4_grid_rows_equal_their_one_row_calls(monkeypatch):
    configs = [ScenarioConfig(geometry=ScenarioGeometry(h_br_m=h),
                              air=AirGroundParams(),
                              fading=FadingParams(n_elements=n), scheme=scheme)
               for n in (4, 8, 16, 32) for h in FIG4_H_M for scheme in FC_SCHEMES]
    want = [outcome(alone(cfg)) for cfg in configs]
    calls = seed_call_sizes(monkeypatch)
    got = an.zsrp_many(configs, True)
    assert [outcome(r) for r in got] == want
    assert all(r.closed_form is not None for r in got)
    # round robin's 3 seeds at a point are the first 3 of greedy's 12
    # (rows of m1 L - 1 terms at L = 4 have their 3 seeds too)
    assert calls == [4 * 8 * 12]


def test_fig4_default_sweep_takes_96_seeds(monkeypatch):
    configs = [ScenarioConfig(geometry=ScenarioGeometry(h_br_m=h),
                              air=AirGroundParams(), fading=FadingParams(),
                              scheme=scheme)
               for h in FIG4_H_M for scheme in FC_SCHEMES]
    calls = seed_call_sizes(monkeypatch)
    an.zsrp_many(configs, True)
    assert calls == [96]


# --- Group 2: a radius past the seeds' range refuses fast ---

#: quadrature values at R = 1e40 and 1e60 m, default scenario otherwise
HUGE_R_VALUES = {
    (SchemeId.FCR_RS, 1e40): "0x0.0p+0",
    (SchemeId.FCR_RS, 1e60): "0x0.0p+0",
    (SchemeId.FCR_GCSI_PFS, 1e40): "0x1.06b734d618024p-377",
    (SchemeId.FCR_GCSI_PFS, 1e60): "0x1.a62af327c3753p-577",
}


@pytest.mark.parametrize("scheme, r_eve_m", list(HUGE_R_VALUES))
def test_huge_radius_refuses_the_closed_form_fast(scheme, r_eve_m, monkeypatch):
    cfg = ScenarioConfig(geometry=ScenarioGeometry(r_eve_m=r_eve_m),
                         air=AirGroundParams(), fading=FadingParams(),
                         scheme=scheme)
    calls = seed_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = time.perf_counter()
        res = alone(cfg)
        elapsed = time.perf_counter() - start
    # one seed call, whose seeds all stop at their grid: none reaches the
    # quadrature.  The row takes about 15 ms, so the bound leaves a wide
    # margin for load
    ((reasons, integrated),) = calls
    assert reasons and set(reasons) == {GRID_REFUSAL}
    assert integrated == 0
    assert elapsed < 1.0
    assert res.closed_form is None and res.rel_gap is None
    assert res.value.hex() == HUGE_R_VALUES[scheme, r_eve_m]


def test_huge_radius_row_alone_loses_its_closed_form(monkeypatch):
    def at(r_eve_m: float, scheme: SchemeId) -> ScenarioConfig:
        return ScenarioConfig(geometry=ScenarioGeometry(r_eve_m=r_eve_m),
                              air=AirGroundParams(), fading=FadingParams(),
                              scheme=scheme)

    configs = [at(r, scheme) for r in (500.0, 1e40, 1e60, 300.0)
               for scheme in FC_SCHEMES]
    want = [outcome(alone(cfg)) for cfg in configs]
    calls = seed_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = an.zsrp_many(configs, True)
    # one seed call for the batch, 12 distinct seeds per radius (round
    # robin's 3 are greedy's first 3): the huge radii's seeds stop at
    # their grid, and only the finite radii's reach the quadrature
    ((reasons, integrated),) = calls
    assert reasons == [""] * 12 + [GRID_REFUSAL] * 24 + [""] * 12
    assert integrated == 24
    assert [r.closed_form is None for r in got] == [False] * 2 + [True] * 4 + [False] * 2
    assert [outcome(r) for r in got] == want


def test_recurrence_past_the_double_range_refuses_the_closed_form(caplog):
    # at R = 1e40 m and m2 L = 4 the seeds hold, but the recurrence's
    # K_(M-B+1)(y) at y = 2 sqrt(jX) ~ 4e-36 passes the double range: the
    # sum's rounding bound is infinite and refuses the closed form, with
    # no RuntimeWarning from the sum of infinite terms
    cfg = ScenarioConfig(
        geometry=ScenarioGeometry(h_br_m=150.0, d_rn_m=(80.0,) * 4, r_eve_m=1e40),
        air=AirGroundParams(), fading=FadingParams(m1=3, m2=1, n_elements=4),
        scheme=SchemeId.FCR_GCSI_PFS)
    with warnings.catch_warnings(), caplog.at_level("INFO"):
        warnings.simplefilter("error")
        res = alone(cfg)
    assert res.closed_form is None and 0.0 < res.value < 1e-100
    assert "has rounding bound inf" in caplog.text
