"""Breadth-first batched adaptive Gauss-Legendre quadrature.

Proves:
 Group 1 — bit for bit against the depth-first recursion
   (``oracles.adaptive_gl_recursive``, compared by ``float.hex``): every
   inner F_S^N integral at the 24 distance nodes of an outer panel, at
   h = 150 m and 1000 m; a proportional-fair ``value`` at N = 12 users and
   L = 32 elements against one recursion per distance node, whose gain
   thresholds G0 / r^2 the batched route reproduces bit for bit; the
   volume-weighted average of (r/R)^2; the tail integral of one composite
   seed; ``cdf_Z_quadrature`` of an array against its element-wise scalar
   calls, with the support edge and the array shape kept.

 Group 2 — failure and cost
   one integrand with a jump among converging ones makes the batched call
   raise ``AccuracyError`` at the depth cap, as the recursion does for
   that integrand alone, while the converging ones still match the
   recursion without it; one default ``fcr-gcsi-pfs`` value takes fewer
   than 500 integrand calls (one call per distance node took 3,028 at
   h = 310 m) and no call gets more than 16 panels of 24 points.
"""

from __future__ import annotations

import numpy as np
import pytest

from zsrpsim import analytic as an
from zsrpsim import specfun
from zsrpsim.errors import AccuracyError
from zsrpsim.propagation import ScenarioGeometry, bs_ris_gain, ris_user_gain
from zsrpsim.scheduling import SchemeId
from zsrpsim.secrecy import ScenarioConfig

from oracles import (adaptive_gl_each, adaptive_gl_recursive,
                     cdf_Z_quadrature_recursive, zsrp_pfs_value_recursive)


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
    got = an.cdf_Z_quadrature(np.array(z), p, abs_tol=1e-12)
    want = [cdf_Z_quadrature_recursive(zi, p, 1e-12) for zi in z]
    assert hexes(got) == hexes(want)


def test_pfs_value_many_users_and_elements(air):
    p = params_at(310.0, air, n_users=12, n_elements=32)
    got = an.zsrp_pfs(p, closed_form=False)
    assert got.closed_form is None
    assert hexes([got.value]) == hexes([zsrp_pfs_value_recursive(p)])


def test_pfs_thresholds_are_the_per_node_ones(air, monkeypatch):
    # the batched route maps an array of distances to the gain thresholds
    # G0 / r^2 that a per-node call computes with the scalar r ** 2
    p = params_at(310.0, air)
    seen = {}

    def capture(cdf_at_distance, r_eve_m):
        seen["cdf"] = cdf_at_distance
        return 0.5

    monkeypatch.setattr(an, "psi_average", capture)
    monkeypatch.setattr(an, "cdf_Z_quadrature", lambda z, p, abs_tol: z)
    an.zsrp_pfs(p, closed_form=False)
    r = np.random.default_rng(5).uniform(0.0, p.r_eve_m, 20_000)
    assert hexes(seen["cdf"](r)) == hexes([p.ref_gain / ri ** 2 for ri in r])


def test_psi_average_polynomial_bits():
    r_max = 37.5

    def cdf(r):
        return (r / r_max) ** 2

    want = adaptive_gl_recursive(lambda r: cdf(r) * 3.0 * r ** 2 / r_max ** 3,
                                 0.0, r_max, 1e-10)
    assert hexes([an.psi_average(cdf, r_max)]) == hexes([min(1.0, want)])


@pytest.mark.parametrize("mu, nu, x", [(120.0, 4.0, 0.01), (28.0, 32.0, 102.4)])
def test_tail_integral_seed_bits(mu, nu, x, monkeypatch):
    got = specfun.meijer_g_m0_log(mu, nu, x)
    monkeypatch.setattr(specfun, "adaptive_gl", adaptive_gl_each)
    assert hexes([got]) == hexes([specfun.meijer_g_m0_log(mu, nu, x)])


def test_cdf_Z_quadrature_array_matches_scalar_calls(air):
    p = params_at(310.0, air)
    r = np.array([[1.0, 1.0, 500.0], [300.0, 150.0, 50.0]])
    z = p.ref_gain / r ** 2 * np.array([[-1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    got = an.cdf_Z_quadrature(z, p)
    assert got.shape == z.shape
    want = [an.cdf_Z_quadrature(float(zi), p) for zi in z.ravel()]
    assert all(type(w) is float for w in want)
    assert hexes(got) == hexes(want)
    assert got[0, 0] == got[0, 1] == 0.0
    assert 0.0 < got[0, 2] < got[1, 0] < got[1, 1] < got[1, 2] <= 1.0


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
    an.zsrp_for_scheme(cfg.scheme, cfg, closed_form=False)
    assert 0 < len(sizes) < 500
    # 16 panels of 24 points: the cap that keeps peak memory in place
    assert max(sizes) <= 16 * 24
