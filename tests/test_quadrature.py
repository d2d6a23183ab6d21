"""Breadth-first batched adaptive Gauss-Legendre quadrature.

Proves:
 Group 1 — bit for bit against the depth-first recursion
   (``oracles.adaptive_gl_recursive``, compared by ``float.hex``): the
   direct F_S^N integrals over W at the 24 distance nodes of an outer
   panel, at h = 150 m and 1000 m, in one batched call of the oracle copy
   against one recursion each; the proportional-fair ``value``, one 1-D
   integral over the served user-side power sum, against its node-by-node
   depth-first restatement (``oracles.zsrp_pfs_1d_recursive``) at h = 150,
   310 and 1000 m and at N = 12 users and L = 32 elements, where it also
   lies within 1e-12 of the nested distance-by-W recursion; the
   volume-weighted average of (r/R)^2; the tail integral of one composite
   seed, alone and in a mixed-order batch of seeds; the seeds' fixed
   bracketing grid against the lockstep scan it replaced
   (``oracles.meijer_g_m0_log_scan``), for closed-form seeds (mu, nu, x) =
   (M + B - 4, |M - B|, jX), M <= 128, B <= 2, and general mu in [-3, 500],
   nu <= 500, x in [1e-10, 2.5e5], alone and in batches (property), and
   the scan's cutoff at most 12 points past u_ok = max(tail floor,
   2 (mu + 1)), the bound the grid length rests on; integrals given one
   bracket and tolerance each.

 Group 2 — failure and cost
   one integrand with a jump among converging ones makes the batched call
   raise ``AccuracyError`` at the depth cap, as the recursion does for
   that integrand alone, while the converging ones still match the
   recursion without it; one default ``fcr-gcsi-pfs`` value makes at
   most 14 F_S calls, two per integrand call, at h = 310 m (the nested
   distance-by-W quadrature made 196, and one inner call per distance
   node 3,028) and no call gets more than 16 panels of 24 points; a
   value far below the double range (eavesdropper radius 10^105.25 to
   10^110 m) converges to at most 1e-300 or to 0, where a second-pass
   tolerance of 1e-13 of a subnormal first result failed to converge.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsrpsim import analytic as an
from zsrpsim import specfun
from zsrpsim.errors import AccuracyError
from zsrpsim.propagation import ScenarioGeometry, bs_ris_gain, ris_user_gain
from zsrpsim.scheduling import SchemeId
from zsrpsim.secrecy import ScenarioConfig

from oracles import (adaptive_gl_each, adaptive_gl_recursive,
                     cdf_Z_quadrature_batched, cdf_Z_quadrature_recursive,
                     meijer_g_m0_log_scan, seed_bracket_scan,
                     zsrp_pfs_1d_recursive, zsrp_pfs_value_recursive)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def params_at(h_br_m: float, air, **kw) -> an.ClosedFormParams:
    """Cascade parameters as ``zsrp_for_scheme`` builds them at altitude h."""
    geom = ScenarioGeometry(h_br_m=h_br_m)
    base = dict(m1=2, m2=2, n_elements=16,
                sigma1_sq=ris_user_gain(geom, air, 0),
                sigma2_sq=bs_ris_gain(geom, air), ref_gain=air.ref_gain,
                r_eve_m=geom.r_eve_m, n_users=4)
    base.update(kw)
    return an.ClosedFormParams(**base)


# --- Group 1: bit for bit against the recursion ---


@pytest.mark.parametrize("h_br_m", [150.0, 1000.0])
@pytest.mark.parametrize("panel", [(0.0, 1.0), (0.25, 0.375)])
def test_inner_integrals_of_an_outer_panel(h_br_m, panel, air):
    p = params_at(h_br_m, air)
    lo, hi = (f * p.r_eve_m for f in panel)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    z = [p.ref_gain / r ** 2 for r in mid + half * specfun._GL_NODES]
    got = cdf_Z_quadrature_batched(np.array(z), p)
    want = [cdf_Z_quadrature_recursive(zi, p) for zi in z]
    assert hexes(got) == hexes(want)


@pytest.mark.parametrize("h_br_m", [150.0, 310.0, 1000.0])
def test_pfs_value_matches_its_recursion(h_br_m, air):
    p = params_at(h_br_m, air)
    (got,) = an.zsrp_from_params([(p, False)], False)
    assert hexes([got.value]) == hexes([zsrp_pfs_1d_recursive(p)])


def test_pfs_value_many_users_and_elements(air):
    p = params_at(310.0, air, n_users=12, n_elements=32)
    (got,) = an.zsrp_from_params([(p, False)], False)
    assert got.closed_form is None
    assert hexes([got.value]) == hexes([zsrp_pfs_1d_recursive(p)])
    nested = zsrp_pfs_value_recursive(p)
    assert abs(got.value - nested) <= 1e-12 * nested


def test_psi_average_polynomial_bits():
    r_max = 37.5

    def cdf(r, rows=None):
        return (r / r_max) ** 2

    want = adaptive_gl_recursive(lambda r: cdf(r) * 3.0 * r ** 2 / r_max ** 3,
                                 0.0, r_max, 1e-10)
    assert hexes(an.psi_average(cdf, [r_max])) == hexes([min(1.0, want)])


@pytest.mark.parametrize("mu, nu, x", [(120.0, 4.0, 0.01), (28.0, 32.0, 102.4)])
def test_tail_integral_seed_bits(mu, nu, x, monkeypatch):
    # the seed alone and first of a mixed-order batch, whose seeds each
    # take their own bracket and tolerance
    alone = [np.array([v]) for v in (mu, nu, x)]
    batch = [np.array([mu, 60.0, 28.0]), np.array([nu, 64.0, 31.0]),
             np.array([x, 5.0, 3.2])]
    got = [*specfun.meijer_g_m0_log(*alone), *specfun.meijer_g_m0_log(*batch)]
    assert hexes(got[:1]) == hexes(got[1:2])
    monkeypatch.setattr(specfun, "adaptive_gl", adaptive_gl_each)
    want = [*specfun.meijer_g_m0_log(*alone), *specfun.meijer_g_m0_log(*batch)]
    assert hexes(got) == hexes(want)


def seed_log_gs(f, seeds) -> list[str] | str:
    """``float.hex`` of each seed's ln G by ``f``, or the refusal it raises."""
    try:
        return hexes(f(*(np.array(v) for v in zip(*seeds))))
    except AccuracyError as exc:
        return f"AccuracyError: {exc}"


seed_x = st.floats(-10.0, math.log10(2.5e5)).map(lambda e: 10.0 ** e)
#: (mu, nu, x) = (M + B - 4, |M - B|, jX) of a closed-form seed, M = m2 L
package_seed = st.builds(
    lambda m, b, x: (float(m + b - 4), float(abs(m - b)), x),
    st.integers(1, 128), st.integers(0, 2), seed_x)
general_seed = st.tuples(st.floats(-3.0, 500.0),
                         st.integers(0, 500).map(float), seed_x)


@given(st.lists(st.one_of(package_seed, general_seed), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_seed_grid_matches_the_scan(seeds):
    # the fixed grid finds the lockstep scan's cutoff and peak, alone and
    # in a batch whose seeds need grids of different lengths
    assert (seed_log_gs(specfun.meijer_g_m0_log, seeds)
            == seed_log_gs(meijer_g_m0_log_scan, seeds))


def test_scan_cutoff_lies_within_12_points_past_u_ok():
    # what the grid length rests on: from u_ok = max(tail floor, 2 (mu + 1))
    # on each x1.2 step drops over 5 nats, so the scan stops at most 12
    # points past the first grid point >= u_ok, for mu up to 1e4
    rng = np.random.default_rng(23)
    mu = np.concatenate(([1e4, 1e4, -3.0, 500.0], rng.uniform(-3.0, 1e4, 150),
                         rng.uniform(-3.0, 60.0, 50)))
    nu = np.concatenate(([0.0, 500.0, 500.0, 0.0],
                         rng.integers(0, 501, 200).astype(float)))
    x = np.concatenate(([1e-10, 2.5e5, 1e-10, 2.5e5],
                        10.0 ** rng.uniform(-10.0, math.log10(2.5e5), 200)))
    stop = np.concatenate(
        [seed_bracket_scan(*(v[i:i + 25] for v in (mu, nu, x)))[0]
         for i in range(0, mu.size, 25)])
    u_lo = 2.0 * np.sqrt(x)
    u_ok = np.maximum(np.maximum(np.maximum(u_lo * 4.0, nu * 3.0), 50.0),
                      2.0 * (mu + 1.0))
    grid = np.multiply.accumulate(
        np.column_stack((u_lo, np.full((mu.size, 199), 1.2))), axis=1)
    first_ok = (grid >= u_ok[:, None]).argmax(axis=1)
    assert np.all(first_ok > 0) and np.all(stop <= first_ok + 12)
    assert np.all(stop < 14 + np.ceil(np.log(u_ok / u_lo) / math.log(1.2)))

def test_per_integral_brackets_and_tolerances():
    # peaks at 0, 1, 2 and 3 over brackets, tolerances and refinement
    # depths of their own, given one per integral or one for all
    def peaks(x, rows):
        return 1.0 / (1.0 + 50.0 * (x - rows) ** 2)

    lo = np.array([-1.0, 0.5, 0.0, 2.5])
    hi = np.array([1.0, 4.0, 2.25, 40.0])
    tol = np.array([1e-10, 1e-12, 1e-6, 1e-9])
    for args in ((lo, hi, tol), (0.0, hi, tol), (lo, 40.0, 1e-11)):
        got = specfun.adaptive_gl(peaks, *args, 4)
        assert hexes(got) == hexes(adaptive_gl_each(peaks, *args, 4))


# --- Group 2: failure and cost ---


def _with_jump(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # row 1 steps at 0.3, which no panel edge of [0, 1] ever hits
    return np.where(rows == 1, (x > 0.3).astype(float), np.exp(-x * (rows + 1)))


def test_one_diverging_integral_raises_at_the_depth_cap():
    with pytest.raises(AccuracyError, match="failed to converge"):
        specfun.adaptive_gl(_with_jump, 0.0, 1.0, 1e-10, 3)
    with pytest.raises(AccuracyError, match="failed to converge"):
        adaptive_gl_recursive(lambda x: _with_jump(x, np.ones(x.size, int)),
                              0.0, 1.0, 1e-10)
    # the converging integrands alone still come out as the recursion's
    def smooth(x, rows):
        return _with_jump(x, 2 * rows)

    got = specfun.adaptive_gl(smooth, 0.0, 1.0, 1e-10, 2)
    assert hexes(got) == hexes(adaptive_gl_each(smooth, 0.0, 1.0, 1e-10, 2))


def test_pfs_value_takes_few_integrand_calls(geometry, air, fading, monkeypatch):
    sizes = []
    cdf_s = an.cdf_S

    def counting(s, m1, n_elements):
        sizes.append(np.size(s))
        return cdf_s(s, m1, n_elements)

    monkeypatch.setattr(an, "cdf_S", counting)
    geom = ScenarioGeometry(h_br_m=310.0)
    cfg = ScenarioConfig(geometry=geom, air=air, fading=fading,
                         scheme=SchemeId.FCR_GCSI_PFS)
    an.zsrp_for_scheme(cfg)
    assert 0 < len(sizes) <= 14
    # 16 panels of 24 points: the cap that keeps peak memory in place
    assert max(sizes) <= 16 * 24


@pytest.mark.parametrize("log10_r", [105.25, 106.25, 110.0])
def test_pfs_value_far_below_the_double_range(log10_r, air):
    p = params_at(150.0, air, r_eve_m=10.0 ** log10_r)
    (value,) = an.cdf_Z_quadrature([p])
    assert 0.0 <= value <= 1e-300
