"""Closed-form and quadrature zero-secrecy-rate expressions.

Proves:
 Group 1 — parameter container
   frozen composite argument at the default scenario, recomputed from first
   principles; positivity and integrality validation.

 Group 2 — single-user cascade CDF
   the one-element unit case collapses to 1 - 2 K_1(2) (scipy cross-check);
   the log-space series matches direct 2-D quadrature to 1e-8 on log grids
   for three fading settings; support edge, saturation, and monotonicity.

 Group 3 — greedy-selection order statistics
   the subset expansion reconstructs the N-th CDF power to 1e-9; term
   inventory and coefficient structure for the smallest case; the
   multinomial coefficient rows satisfy the defining polynomial identity;
   combinatorial guards reject oversized expansions.

 Group 4 — averaging over the wiretap sphere
   volume-weighted radial averaging integrates (r/R)^2 to 3/5; constants
   pass through; degenerate radius rejected.

 Group 5 — end-to-end probabilities
   frozen default-scenario values for rotation and greedy serving with the
   contour route agreeing to better than 1e-6 (and frozen gaps near 1e-12);
   user-count limits; greedy never hurts; monotone response to the sphere
   radius; agreement across a surface-size/radius grid; the scheme
   dispatcher and its documented refusals.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from zsrpsim import analytic as an
from zsrpsim.errors import AnalyticUnavailableError, CapacityError
from zsrpsim.fading import cdf_S
from zsrpsim.scheduling import SchemeId
from zsrpsim.secrecy import ScenarioConfig

BIG_X_DEFAULT = 102.4988007168656
RS_DEFAULT = 0.03569559129313944
PFS_DEFAULT = 0.02667028157484286
# unit-parameter cascade CDF at z=1: equals 1 - 2 K_1(2)
UNIT_CDF_AT_1 = 0.720268236366955


def unit_params(**kw) -> an.ClosedFormParams:
    base = dict(m1=1, m2=1, n_elements=1, sigma1_sq=1.0, sigma2_sq=1.0,
                ref_gain=1.0, r_eve_m=1.0, n_users=1)
    base.update(kw)
    return an.ClosedFormParams(**base)


# --- Group 1: parameter container ---


def test_big_x_frozen_and_first_principles(closed_params):
    p = closed_params(n_users=4)
    direct = p.m1 * p.m2 * p.ref_gain / (p.sigma1_sq * p.sigma2_sq * p.r_eve_m**2)
    assert math.isclose(p.big_x, direct, rel_tol=1e-12)
    assert math.isclose(p.big_x, BIG_X_DEFAULT, rel_tol=1e-12)


def test_params_validation():
    for kw in (dict(m1=0), dict(m1=1.5), dict(sigma1_sq=-1.0), dict(n_users=0),
               dict(r_eve_m=0.0), dict(ref_gain=0.0)):
        with pytest.raises(ValueError):
            unit_params(**kw)


# --- Group 2: single-user cascade CDF ---


def test_unit_cascade_reduces_to_bessel():
    got = an.cdf_Z_single(1.0, unit_params())
    ref = 1.0 - 2.0 * float(special.kv(1.0, 2.0))
    assert math.isclose(got, ref, rel_tol=1e-12)
    assert math.isclose(got, UNIT_CDF_AT_1, rel_tol=1e-12)


@pytest.mark.parametrize("m1,m2,n_elements", [(1, 1, 1), (2, 2, 2), (2, 2, 16)])
def test_series_vs_quadrature(m1, m2, n_elements):
    # grid centered on the mean cascade level E[S W] = L^2
    p = unit_params(m1=m1, m2=m2, n_elements=n_elements)
    for z in np.geomspace(0.05 * n_elements**2, 20.0 * n_elements**2, 7):
        got = an.cdf_Z_single(float(z), p)
        ref = an.cdf_Z_quadrature(float(z), p)
        assert abs(got - ref) < 1e-8, (m1, m2, n_elements, z)


def test_cascade_cdf_edges():
    p = unit_params(m1=2, m2=2, n_elements=4)
    assert an.cdf_Z_single(0.0, p) == 0.0
    assert an.cdf_Z_single(-1.0, p) == 0.0
    assert an.cdf_Z_single(1e9, p) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=0.1, max_value=200.0), st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_cascade_cdf_monotone(z, dz):
    p = unit_params(m1=2, m2=2, n_elements=4)
    lo = an.cdf_Z_single(z, p)
    hi = an.cdf_Z_single(z + dz, p)
    assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
    assert hi >= lo - 5e-16


def test_quadrature_pfs_collapses_for_one_user():
    p = unit_params(m1=2, m2=2, n_elements=4)
    for z in (1.0, 16.0, 64.0):
        assert math.isclose(
            an.cdf_Z_quadrature(z, p, pfs=True), an.cdf_Z_quadrature(z, p), rel_tol=1e-9
        )


# --- Group 3: order statistics ---


def test_order_stat_reconstruction():
    for n_users in (2, 3):
        for m1, n_elements in ((2, 2),):
            for s in (0.5 * n_elements, 1.0 * n_elements, 2.0 * n_elements):
                got = an.cdf_power_sum_order_stat(s, m1, n_elements, n_users)
                ref = cdf_S(s, m1, n_elements) ** n_users
                assert abs(got - ref) <= 1e-9 * max(ref, 1e-300), (n_users, s)


def test_subset_terms_smallest_case():
    terms = an.enumerate_subset_terms(1, 2)
    assert len(terms) == 2
    by_b1 = {t.b1: t for t in terms}
    assert set(by_b1) == {0, 1}
    for t in terms:
        assert t.cardinality == 1
        assert sum(t.composition) == 1
        assert t.a1 == 1.0
        assert t.weight == 1.0


def test_subset_term_inventory():
    # cardinality j contributes one term per weak composition of j into
    # m1 L parts: C(j + m1 L - 1, m1 L - 1) of them
    for n_users, m in ((2, 2), (3, 4)):
        expect = sum(
            math.comb(n_users, j) * math.comb(j + m - 1, m - 1)
            for j in range(1, n_users + 1)
        )
        assert len(an.enumerate_subset_terms(n_users, m)) == expect


def test_coefficient_rows_satisfy_polynomial_identity():
    # the rows collapse the multinomial expansion of (sum_t x^t / t!)^j
    x = 0.7
    for j, m in ((1, 4), (3, 5), (4, 8)):
        row = an.ordered_sum_coefficients(j, m)
        assert row.shape == (j * (m - 1) + 1,)
        lhs = sum(c * x**b for b, c in enumerate(row))
        rhs = sum(x**t / math.factorial(t) for t in range(m)) ** j
        assert math.isclose(lhs, rhs, rel_tol=1e-12), (j, m)


def test_coefficient_rows_edge_cases():
    assert np.array_equal(an.ordered_sum_coefficients(0, 5), np.array([1.0]))
    row = an.ordered_sum_coefficients(1, 6)
    assert np.allclose(row, [1.0 / math.factorial(t) for t in range(6)], rtol=1e-15)
    with pytest.raises(ValueError):
        an.ordered_sum_coefficients(-1, 4)


def test_combinatorial_guards():
    with pytest.raises(CapacityError):
        an.enumerate_subset_terms(13, 2)
    with pytest.raises(CapacityError):
        an.enumerate_subset_terms(12, 64)
    with pytest.raises(CapacityError):
        an.cdf_power_sum_order_stat(1.0, 2, 1, 13)


# --- Group 4: sphere averaging ---


def test_psi_average_polynomial():
    r_max = 500.0
    got = an.psi_average(lambda r: (r / r_max) ** 2, r_max)
    assert math.isclose(got, 0.6, rel_tol=1e-9)


def test_psi_average_constant():
    assert math.isclose(an.psi_average(lambda r: 0.37, 123.0), 0.37, rel_tol=1e-12)


def test_psi_average_domain():
    with pytest.raises(ValueError):
        an.psi_average(lambda r: 1.0, 0.0)


# --- Group 5: end-to-end probabilities ---


def test_rs_frozen_default(closed_params):
    out = an.zsrp_rs(closed_params(n_users=4))
    assert math.isclose(out.value, RS_DEFAULT, rel_tol=1e-10)
    assert out.closed_form is not None
    assert out.rel_gap < 1e-6
    # the two routes currently agree far tighter than the contract
    assert out.rel_gap < 1e-9


def test_pfs_frozen_default(closed_params):
    out = an.zsrp_pfs(closed_params(n_users=4))
    assert math.isclose(out.value, PFS_DEFAULT, rel_tol=1e-10)
    assert out.closed_form is not None
    assert out.rel_gap < 1e-6


def test_rs_independent_of_user_count(closed_params):
    # rotation serves a fixed marginal user; homogeneous users make the
    # average independent of how many there are
    one = an.zsrp_rs(closed_params(n_users=1))
    four = an.zsrp_rs(closed_params(n_users=4))
    assert math.isclose(one.value, four.value, rel_tol=1e-12)


def test_pfs_single_user_equals_rs(closed_params):
    rs = an.zsrp_rs(closed_params(n_users=1))
    pfs = an.zsrp_pfs(closed_params(n_users=1))
    assert math.isclose(rs.value, pfs.value, rel_tol=1e-10)


def test_pfs_improves_with_users(closed_params):
    vals = [an.zsrp_pfs(closed_params(n_users=n)).value for n in (1, 2, 4)]
    assert vals[0] > vals[1] > vals[2]


def test_value_decreases_with_radius(closed_params):
    vals = [an.zsrp_rs(closed_params(n_users=1, r_eve_m=r)).value for r in (300.0, 500.0, 800.0)]
    assert vals[0] > vals[1] > vals[2]


def test_closed_form_grid_agreement(closed_params):
    # both serving rules, three surface sizes, three sphere radii: the
    # contour route must track quadrature to 1e-6 everywhere (the largest
    # surface exercises deep alternating cancellation)
    for n_elements in (8, 16, 32):
        for r in (300.0, 500.0, 800.0):
            p = closed_params(n_users=4, n_elements=n_elements, r_eve_m=r)
            for fn in (an.zsrp_rs, an.zsrp_pfs):
                out = fn(p)
                assert out.closed_form is not None, (n_elements, r, fn.__name__)
                assert out.rel_gap < 1e-6, (n_elements, r, fn.__name__, out.rel_gap)


def test_many_users_fall_back_to_quadrature(closed_params):
    out = an.zsrp_pfs(closed_params(n_users=13))
    assert out.closed_form is None
    assert 0.0 < out.value < 1.0


def test_route_disagreement_surfaced_as_warning(air, fading):
    # a flat free-space environment drives the probability to ~1e-8, where
    # the relative gap between the contour route and quadrature exceeds
    # 1e-6 even though the absolute difference sits inside the quadrature
    # tolerance; the contract is to report the quadrature value and warn,
    # never to silently reconcile
    import warnings

    from zsrpsim.propagation import AirGroundParams, ScenarioGeometry

    flat_air = AirGroundParams(alpha_zenith=2.0, alpha_ground=2.0)
    geom = ScenarioGeometry(h_br_m=40.0)
    cfg = ScenarioConfig(geometry=geom, air=flat_air, fading=fading, scheme=SchemeId.FCR_RS)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = an.zsrp_for_scheme(SchemeId.FCR_RS, cfg)
    assert any("deviates" in str(w.message) for w in caught)
    assert out.closed_form is not None
    assert out.rel_gap > 1e-6
    assert out.value < 1e-6


def test_scheme_dispatch(geometry, air, fading, closed_params):
    cfg = ScenarioConfig(geometry=geometry, air=air, fading=fading, scheme=SchemeId.FCR_RS)
    rs = an.zsrp_for_scheme(SchemeId.FCR_RS, cfg)
    assert math.isclose(rs.value, RS_DEFAULT, rel_tol=1e-10)
    pfs = an.zsrp_for_scheme(SchemeId.FCR_GCSI_PFS, cfg)
    assert math.isclose(pfs.value, PFS_DEFAULT, rel_tol=1e-10)


def test_scheme_dispatch_refusals(geometry, air, fading):
    cfg = ScenarioConfig(geometry=geometry, air=air, fading=fading, scheme=SchemeId.SCR_RS)
    for scheme in (SchemeId.SCR_RS, SchemeId.SCR_GCSI_PFS, SchemeId.SCR_FCSI_PFS):
        with pytest.raises(AnalyticUnavailableError):
            an.zsrp_for_scheme(scheme, cfg)
    bent = ScenarioConfig(geometry=geometry, air=air, fading=fading,
                          scheme=SchemeId.FCR_RS, alpha_eve=3.0)
    with pytest.raises(AnalyticUnavailableError):
        an.zsrp_for_scheme(SchemeId.FCR_RS, bent)


def test_scheme_dispatch_heterogeneous_users(air, fading):
    from zsrpsim.propagation import ScenarioGeometry

    geom = ScenarioGeometry(d_rn_m=(30.0, 50.0, 80.0, 120.0))
    cfg = ScenarioConfig(geometry=geom, air=air, fading=fading, scheme=SchemeId.FCR_RS)
    # rotation averages the per-user marginals
    out = an.zsrp_for_scheme(SchemeId.FCR_RS, cfg)
    assert 0.0 < out.value < 1.0
    # greedy selection across unequal users has no expansion here
    with pytest.raises(AnalyticUnavailableError):
        an.zsrp_for_scheme(SchemeId.FCR_GCSI_PFS, cfg)


def test_offset_fixed_centre_refused(geometry, air, fading):
    import dataclasses

    from zsrpsim.propagation import ScenarioGeometry

    high = ScenarioGeometry(h_br_m=600.0)
    offset = ScenarioConfig(geometry=high, air=air, fading=fading, scheme=SchemeId.FCR_RS,
                            eve_center="fixed", eve_center_h_m=150.0)
    for scheme in (SchemeId.FCR_RS, SchemeId.FCR_GCSI_PFS):
        with pytest.raises(AnalyticUnavailableError, match="centred on the BS"):
            an.zsrp_for_scheme(scheme, offset)
    # a fixed centre at the BS altitude (or defaulting to it) is the BS ball
    bs = dataclasses.replace(offset, eve_center="bs", eve_center_h_m=None)
    want = an.zsrp_for_scheme(SchemeId.FCR_RS, bs).value
    for h0 in (600.0, None):
        at_bs = dataclasses.replace(offset, eve_center_h_m=h0)
        assert an.zsrp_for_scheme(SchemeId.FCR_RS, at_bs).value == want


def test_integral_float_shapes_accepted(geometry, air):
    from zsrpsim.fading import FadingParams

    cfg = ScenarioConfig(geometry=geometry, air=air, fading=FadingParams(m1=2.0, m2=2.0),
                         scheme=SchemeId.FCR_RS)
    out = an.zsrp_for_scheme(SchemeId.FCR_RS, cfg)
    assert math.isclose(out.value, RS_DEFAULT, rel_tol=1e-10)
