"""Closed-form and quadrature zero-secrecy-rate expressions.

Proves:
 Group 1 — parameter container
   frozen composite argument at the default scenario, recomputed from first
   principles; positivity and integrality validation; an X that is not a
   positive double is refused.

 Group 2 — single-user cascade CDF
   the one-element unit case collapses to 1 - 2 K_1(2) (scipy cross-check);
   the log-space series matches direct 2-D quadrature to 1e-8 on log grids
   for three fading settings; support edge, saturation, and monotonicity;
   one series CDF at the defaults (m1 L = m2 L = 32) starts one Bessel
   K0/K1 evaluation, not one per term; the array CDF equals the
   float-by-float oracle bit for bit (both K0/K1 branches, across x = 2,
   large x, orders past the 1e280 rescale, m1 != m2 both ways, z <= 0,
   and xi near 1.0065 where numpy's log and the C library's differ), an
   array gives each element's own value (property), a node whose Bessel
   recurrence passes the double range (xi = 1e-70 at m L = 32) reads 0.0
   without a NaN sum or a warning, one whose xi overflows reads 1.0, the
   ball-averaged F_U reads 1.0 where b^(3/2) overflows, and a default
   round-robin value starts one K0/K1 evaluation per distance integrand
   call, not one per node.

 Group 3 — greedy-selection order statistics
   the subset expansion reconstructs the N-th CDF power to 1e-9; term
   inventory and coefficient structure for the smallest case; the
   multinomial coefficient rows (from an exact-fraction oracle) satisfy the
   defining polynomial identity; fed Poisson kernels, the closed form's
   order-statistic sum equals F_S(y)^N to 1e-12 for m1 L = 1/2/5/16,
   N <= 6 and M = 4/32; combinatorial guards reject oversized expansions.

 Group 4 — averaging over the wiretap sphere
   the round-robin psi-average, given series CDFs of known average,
   integrates (r/R)^2 to 3/5 and passes constants through.

 Group 5 — end-to-end probabilities
   frozen default-scenario values for rotation and greedy serving with the
   closed form agreeing to better than 1e-6 (and frozen gaps near 1e-12);
   the round-robin value lies within 1e-12 of the one-user
   proportional-fair integral over the default fig4 altitudes at L = 16,
   and is recorded as failing that at L = 32 and h = 220/310/450 m, where
   the series cancels (strict xfail);
   the rounding bound of the order-statistic sum, not a user or term cap,
   decides the closed form: every default fig2, fig3 and fig4 grid point
   keeps it for both serving rules, 13 default users keep it within 1e-9
   of quadrature, 24 users (bound 1.1e-5) are refused with the reason at
   INFO, and below the bound both serving rules return the quadrature
   value alone; greedy never hurts; monotone response to the sphere
   radius; agreement across a surface-size/radius grid; where the contour
   oracle refuses, the tail-integral seed matches mpmath to 1e-12; an
   integrand still rising at u = 1e8 refuses in place (NaN and its
   reason), alone or in a batch whose other seed keeps its one-seed bits;
   up to a lower limit 2 sqrt(x) = 1000 a seed holds 1e-12 in ln G
   against scipy quadrature, and past it (x = 1e8, 1e10, 1e11) it refuses
   in place with its 2 sqrt(x) named, alone or in a batch whose other
   seed keeps its bits, where the unchecked bracket came out tens of
   nats off or met log(0); a fractional or non-finite order, a non-finite mu or an
   x <= 0 raises ValueError, a fractional order naming its nu and seed; the
   contiguous recurrence of the four rows of a four-user closed form, as
   handed to the order-statistic sum, their 12 seeds in one call,
   matches the tail integral term by term to 1e-12 at h = 150/1000 m, on
   both sides of B = M; each of the 120 seeds of the default fig4
   closed forms (both serving rules, one seed call per closed form) lies
   within 1e-12 in ln G of the independent contour oracle, and one
   mixed-order array call of them and three far seeds gives each seed its
   one-element call's bits; a closed form takes three seed integrals per row
   (12 for default greedy serving, 3 for rotation) in one call and logs
   the seed and term counts; rows shorter than three terms take only
   their own seeds and still track quadrature to 1e-9; the 24-user
   refusal takes its 72 seeds in one call; a seed error of 1e-9 in ln G in the flat
   environment moves the closed form past 1e-6 and warns, leaving the
   quadrature value's bits alone; the scheme dispatcher and its
   documented refusals, a wiretap exponent one ulp above 2 among them,
   which leaves the Monte-Carlo rows of a sweep as they are; mixed
   RIS-user distances under both serving rules average the
   common-distance values, each distinct distance evaluated once, and
   the greedy average matches Monte Carlo.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from zsrpsim import analytic as an
from zsrpsim import specfun
from zsrpsim.errors import AccuracyError, AnalyticUnavailableError
from zsrpsim.fading import cdf_S
from zsrpsim.propagation import ScenarioGeometry, bs_ris_gain, ris_user_gain
from zsrpsim.scheduling import SchemeId
from zsrpsim.secrecy import ScenarioConfig

from oracles import (cdf_power_sum_order_stat, cdf_Z_quadrature_recursive,
                     cdf_Z_single_scalar,
                     enumerate_subset_terms, meijer_g_m0_log_contour,
                     meijer_g_m0_log_quad, ordered_sum_coefficients)

BIG_X_DEFAULT = 102.4988007168656
RS_DEFAULT = 0.03569559129313944
PFS_DEFAULT = 0.02667028157484286
# unit-parameter cascade CDF at z=1: equals 1 - 2 K_1(2)
UNIT_CDF_AT_1 = 0.720268236366955


def series_cdf(z: np.ndarray, p: an.ClosedFormParams) -> np.ndarray:
    """The series CDF at ``p``'s own scale sigma1^2 sigma2^2."""
    return an.cdf_Z_single(z, p, p.scale)


def unit_params(**kw) -> an.ClosedFormParams:
    base = dict(m1=1, m2=1, n_elements=1, scale=1.0, ref_gain=1.0,
                r_eve_m=1.0, n_users=1)
    base.update(kw)
    return an.ClosedFormParams(**base)


def from_params(p: an.ClosedFormParams, round_robin: bool,
                closed_form: bool = True) -> an.AnalyticZsrp:
    """One (parameters, rule) row of ``zsrp_from_params``."""
    (out,) = an.zsrp_from_params([(p, round_robin)], closed_form)
    return out


def analytic_row(cfg: ScenarioConfig) -> an.AnalyticZsrp:
    """One scenario's row of ``zsrp_many``, closed form included, its
    refusal raised."""
    (out,) = an.zsrp_many([cfg], True)
    if isinstance(out, Exception):
        raise out
    return out


# --- Group 1: parameter container ---


def test_big_x_frozen_and_first_principles(closed_params):
    p = closed_params(n_users=4)
    direct = p.m1 * p.m2 * p.ref_gain / (p.scale * p.r_eve_m**2)
    assert math.isclose(p.big_x, direct, rel_tol=1e-12)
    assert math.isclose(p.big_x, BIG_X_DEFAULT, rel_tol=1e-12)


def test_params_validation():
    for kw in (dict(m1=0), dict(m1=1.5), dict(scale=-1.0), dict(n_users=0),
               dict(r_eve_m=0.0), dict(ref_gain=0.0)):
        with pytest.raises(ValueError):
            unit_params(**kw)


def test_params_refuse_x_outside_the_double_range():
    # X = m1 m2 G0 / (scale R^2) must be a positive double: scale R^2
    # underflows to 0, X overflows, or scale R^2 overflows and X is 0,
    # where both value routes and the closed form fail
    for kw in (dict(scale=1e-300, r_eve_m=1e-20), dict(scale=1e-310),
               dict(scale=1e300, r_eve_m=1e10)):
        with pytest.raises(ValueError, match="leaves the double range"):
            unit_params(**kw)


# --- Group 2: single-user cascade CDF ---


def test_unit_cascade_reduces_to_bessel():
    (got,) = series_cdf(np.array([1.0]), unit_params())
    ref = 1.0 - 2.0 * float(special.kv(1.0, 2.0))
    assert math.isclose(got, ref, rel_tol=1e-12)
    assert math.isclose(got, UNIT_CDF_AT_1, rel_tol=1e-12)


@pytest.mark.parametrize("m1,m2,n_elements", [(1, 1, 1), (2, 2, 2), (2, 2, 16)])
def test_series_vs_quadrature(m1, m2, n_elements):
    # grid centered on the mean cascade level E[S W] = L^2
    p = unit_params(m1=m1, m2=m2, n_elements=n_elements)
    z = np.geomspace(0.05 * n_elements**2, 20.0 * n_elements**2, 7)
    quad = [cdf_Z_quadrature_recursive(v, p) for v in z.tolist()]
    gap = np.abs(series_cdf(z, p) - quad)
    assert np.all(gap < 1e-8), (m1, m2, n_elements, gap)


def test_cascade_cdf_edges():
    p = unit_params(m1=2, m2=2, n_elements=4)
    at_zero, below, far = series_cdf(np.array([0.0, -1.0, 1e9]), p)
    assert at_zero == 0.0 and below == 0.0
    assert far == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=0.1, max_value=200.0), st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_cascade_cdf_monotone(z, dz):
    p = unit_params(m1=2, m2=2, n_elements=4)
    (lo,) = series_cdf(np.array([z]), p)
    (hi,) = series_cdf(np.array([z + dz]), p)
    assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
    assert hi >= lo - 5e-16


def test_series_cdf_takes_one_bessel_recurrence(closed_params, monkeypatch):
    p = closed_params(n_users=1)
    z = np.array([p.ref_gain / (0.5 * p.r_eve_m) ** 2])
    want = series_cdf(z, p)
    calls = []
    k01 = specfun._bessel_k01_scaled

    def counting(x):
        calls.append(x)
        return k01(x)

    monkeypatch.setattr(specfun, "_bessel_k01_scaled", counting)
    assert hexes(series_cdf(z, p)) == hexes(want)
    assert len(calls) == 1


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


#: (m1, m2, L): the defaults, m1 != m2 both ways (the second puts orders
#: m2 L - t below zero), and m2 L = 256, whose recurrence rescales past 1e280
SERIES_CASES = [(2, 2, 16), (1, 3, 2), (3, 1, 2), (1, 1, 4), (2, 2, 128)]


@pytest.mark.parametrize("m1,m2,n_elements", SERIES_CASES)
def test_series_cdf_array_matches_scalar_oracle(m1, m2, n_elements):
    p = unit_params(m1=m1, m2=m2, n_elements=n_elements)
    # xi = m1 m2 z: the K0/K1 argument 2 sqrt(xi) runs from the series
    # (x <= 2) through x = 2 to the trapezoid rule at large x; the
    # dense run near xi = 1.0065 holds arguments where np.log rounds
    # differently from math.log
    xi = np.concatenate([np.geomspace(1e-4, 1e4, 120), [1.0],
                         np.linspace(1.0, 1.02, 401)])
    z = np.concatenate([[0.0, -1.0, -0.0], xi / (m1 * m2)])
    got = series_cdf(z, p)
    assert hexes(got) == hexes([cdf_Z_single_scalar(v, p) for v in z.tolist()])
    assert series_cdf(z[50:51], p)[0] == got[50]


@given(st.lists(st.floats(min_value=-1.0, max_value=60.0), min_size=1, max_size=24),
       st.sampled_from(SERIES_CASES[:4]))
@settings(max_examples=30, deadline=None)
def test_series_cdf_batch_invariant(zs, case):
    m1, m2, n_elements = case
    p = unit_params(m1=m1, m2=m2, n_elements=n_elements)
    got = series_cdf(np.array(zs), p)
    assert hexes(got) == hexes([series_cdf(np.array([z]), p) for z in zs])


def test_series_cdf_past_the_double_range_is_zero():
    # at xi = 1e-70 and m L = 32 a Bessel recurrence step passes the
    # double range: that lane is 0.0, with no NaN sum and no warning
    p = unit_params(m1=2, m2=2, n_elements=16)
    z = np.array([1e-70, 1e-300, 1.0]) / 4.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = series_cdf(z, p)
        assert series_cdf(z[:1], p)[0] == 0.0
    assert got[0] == got[1] == 0.0
    assert hexes(got[2:]) == hexes([cdf_Z_single_scalar(float(z[2]), p)])


def test_series_cdf_past_the_top_of_the_double_range_is_one():
    # xi = m1 m2 z / scale overflows: that lane is 1.0, with no warning and
    # no Bessel K at an infinite argument
    p = unit_params(m1=2, m2=2, n_elements=16)
    z = np.array([1e308, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = an.cdf_Z_single(z, p, np.array([1e-10, 1.0]))
    assert got[0] == 1.0
    assert hexes(got[1:]) == hexes(series_cdf(z[1:], p))


@pytest.mark.parametrize("a_2", [1, 32])
def test_cdf_u_past_the_overflow_of_its_power_is_one(a_2):
    # b^(3/2) overflows past b ~ 1e205, where its Gamma factor is 0.0:
    # F_U = 1.0 with no inf * 0, and the other lanes keep their bits
    b = np.array([1e300, 1e206, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = an._cdf_u(b, a_2)
    assert got[0] == got[1] == 1.0
    assert hexes(got[2:]) == hexes(an._cdf_u(b[2:], a_2))


def test_series_value_starts_one_bessel_per_integrand_call(closed_params, monkeypatch):
    p = closed_params(n_users=1)
    nodes, starts = [], []
    cdf, k01 = an.cdf_Z_single, specfun._bessel_k01_scaled

    def counting_cdf(z, q, scale):
        nodes.append(np.size(z))
        return cdf(z, q, scale)

    def counting_k01(x):
        starts.append(np.size(x))
        return k01(x)

    monkeypatch.setattr(an, "cdf_Z_single", counting_cdf)
    monkeypatch.setattr(specfun, "_bessel_k01_scaled", counting_k01)
    an.zsrp_from_params([(p, True)], False)
    # one K0/K1 evaluation per integrand call, covering all of its nodes
    assert starts == nodes
    assert min(nodes) >= specfun._GL_NODES.size


# --- Group 3: order statistics ---


def test_order_stat_reconstruction():
    for n_users in (2, 3):
        for m1, n_elements in ((2, 2),):
            for s in (0.5 * n_elements, 1.0 * n_elements, 2.0 * n_elements):
                got = cdf_power_sum_order_stat(s, m1, n_elements, n_users)
                ref = cdf_S(np.array([s]), m1, n_elements)[0] ** n_users
                assert abs(got - ref) <= 1e-9 * max(ref, 1e-300), (n_users, s)


def test_subset_terms_smallest_case():
    terms = enumerate_subset_terms(1, 2)
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
        assert len(enumerate_subset_terms(n_users, m)) == expect


def test_coefficient_rows_satisfy_polynomial_identity():
    # the rows collapse the multinomial expansion of (sum_t x^t / t!)^j
    x = 0.7
    for j, m in ((1, 4), (3, 5), (4, 8)):
        row = ordered_sum_coefficients(j, m)
        assert row.shape == (j * (m - 1) + 1,)
        lhs = sum(c * x**b for b, c in enumerate(row))
        rhs = sum(x**t / math.factorial(t) for t in range(m)) ** j
        assert math.isclose(lhs, rhs, rel_tol=1e-12), (j, m)


def test_coefficient_rows_edge_cases():
    assert np.array_equal(ordered_sum_coefficients(0, 5), np.array([1.0]))
    row = ordered_sum_coefficients(1, 6)
    assert np.allclose(row, [1.0 / math.factorial(t) for t in range(6)], rtol=1e-15)
    with pytest.raises(ValueError):
        ordered_sum_coefficients(-1, 4)


@pytest.mark.parametrize("m1_elements", [1, 2, 5, 16])
@pytest.mark.parametrize("m_2", [4, 32])
def test_order_stat_series_sums_poisson_kernels_to_the_cdf_power(m1_elements, m_2):
    # kernels ln K_{j,B} = ln Gamma(M) - ln 1.5 - (M - B)/2 ln j
    # - (M + B)/2 ln X + B ln y - j y turn term (j, B) into
    # (-1)^j C(N, j) gamma_{j,B} y^B e^{-j y}, so the sum is
    # (1 - e^{-y} sum_{t<m1 L} y^t / t!)^N = F_S(y)^N at unit rate
    log_x = math.log(BIG_X_DEFAULT)
    for n_users in range(1, 7):
        for y in (0.5, 1.0, 3.0, 10.0, 40.0):
            kernels = []
            for j in range(1, n_users + 1):
                b = np.arange(j * (m1_elements - 1) + 1)
                kernels.append((math.lgamma(m_2) - math.log(1.5)
                                - 0.5 * (m_2 - b) * math.log(j)
                                - 0.5 * (m_2 + b) * log_x + b * math.log(y)
                                - j * y).tolist())
            value, _ = an._order_stat_series(m1_elements, m_2, log_x, kernels)
            want = cdf_S(np.array([y]), 1, m1_elements)[0] ** n_users
            # absolute: the rounding bound the sum returns leaves out the
            # kernels' own rounding, so the error can exceed it
            assert abs(value - want) <= 1e-12, (n_users, y, value - want)


def test_combinatorial_guards():
    with pytest.raises(ValueError, match="at most"):
        enumerate_subset_terms(13, 2)
    with pytest.raises(ValueError, match="terms"):
        enumerate_subset_terms(12, 64)
    with pytest.raises(ValueError, match="at most"):
        cdf_power_sum_order_stat(1.0, 2, 1, 13)


# --- Group 4: sphere averaging ---


def _cdf_of_r_squared(z, p, scale):
    # (r / R)^2 at the distance r = sqrt(G0 / z) that z = G0 / r^2 came from
    return p.ref_gain / (z * p.r_eve_m ** 2)


def test_psi_average_polynomial(closed_params, monkeypatch):
    monkeypatch.setattr(an, "cdf_Z_single", _cdf_of_r_squared)
    (got,) = an.psi_average([closed_params(r_eve_m=500.0)])
    assert math.isclose(got, 0.6, rel_tol=1e-9)


def test_psi_average_constant(closed_params, monkeypatch):
    monkeypatch.setattr(an, "cdf_Z_single", lambda z, p, scale: np.full(z.shape, 0.37))
    (got,) = an.psi_average([closed_params(r_eve_m=123.0)])
    assert math.isclose(got, 0.37, rel_tol=1e-12)


# --- Group 5: end-to-end probabilities ---


def test_rs_frozen_default(closed_params):
    out = from_params(closed_params(n_users=4), True)
    assert math.isclose(out.value, RS_DEFAULT, rel_tol=1e-10)
    assert out.closed_form is not None
    assert out.rel_gap < 1e-6
    # the two routes currently agree far tighter than the contract
    assert out.rel_gap < 1e-9


def test_pfs_frozen_default(closed_params):
    out = from_params(closed_params(n_users=4), False)
    assert math.isclose(out.value, PFS_DEFAULT, rel_tol=1e-10)
    assert out.closed_form is not None
    assert out.rel_gap < 1e-6


def test_rs_independent_of_user_count(closed_params):
    # rotation serves a fixed marginal user; homogeneous users make the
    # average independent of how many there are
    one = from_params(closed_params(n_users=1), True)
    four = from_params(closed_params(n_users=4), True)
    assert math.isclose(one.value, four.value, rel_tol=1e-12)


def test_pfs_single_user_equals_rs(closed_params):
    rs = from_params(closed_params(n_users=1), True)
    pfs = from_params(closed_params(n_users=1), False)
    assert math.isclose(rs.value, pfs.value, rel_tol=1e-10)


#: At L = 32 the round-robin series cancels: it lies 2.5e-12 (220 m),
#: 2.0e-12 (310 m) and 1.1e-11 (450 m) from the one-user integral.
_RR_SERIES_CANCELS = pytest.mark.xfail(
    strict=True, reason="round-robin series cancels at L = 32")


@pytest.mark.parametrize(
    "n_elements, h_br_m",
    [(16, h) for h in (60.0, 100.0, 150.0, 220.0, 310.0, 450.0, 700.0, 1000.0)]
    + [pytest.param(32, h, marks=_RR_SERIES_CANCELS)
       for h in (220.0, 310.0, 450.0)])
def test_rs_value_is_the_one_user_integral(n_elements, h_br_m, air):
    # the round-robin series, psi-averaged, against the proportional-fair
    # 1-D integral of one user: two routes that share no integral
    geom = ScenarioGeometry(h_br_m=h_br_m)
    p = an.ClosedFormParams(
        m1=2, m2=2, n_elements=n_elements,
        scale=ris_user_gain(geom, air, 0) * bs_ris_gain(geom, air),
        ref_gain=air.ref_gain, r_eve_m=geom.r_eve_m, n_users=4)
    rs = from_params(p, True, closed_form=False).value
    (one_user,) = an.cdf_Z_quadrature([dataclasses.replace(p, n_users=1)])
    assert abs(rs - one_user) <= 1e-12 * one_user


def test_pfs_improves_with_users(closed_params):
    vals = [from_params(closed_params(n_users=n), False).value
            for n in (1, 2, 4)]
    assert vals[0] > vals[1] > vals[2]


def test_value_decreases_with_radius(closed_params):
    vals = [from_params(closed_params(n_users=1, r_eve_m=r), True).value
            for r in (300.0, 500.0, 800.0)]
    assert vals[0] > vals[1] > vals[2]


def test_closed_form_grid_agreement(closed_params):
    # both serving rules, three surface sizes, three sphere radii: the
    # closed form must track quadrature to 1e-6 everywhere (the largest
    # surface exercises deep alternating cancellation)
    for n_elements in (8, 16, 32):
        for r in (300.0, 500.0, 800.0):
            p = closed_params(n_users=4, n_elements=n_elements, r_eve_m=r)
            for round_robin in (True, False):
                out = from_params(p, round_robin)
                assert out.closed_form is not None, (n_elements, r, round_robin)
                assert out.rel_gap < 1e-6, (n_elements, r, round_robin, out.rel_gap)


#: log G^{3,0}_{1,3}(0.01 | -59.5; 2, -2, -60.5), the composite at
#: (mu, nu, x) = (120, 4, 0.01), from mpmath.meijerg at 40 digits
TAIL_LOG_G = 651.8373093920151053


def test_tail_integral_fallback_matches_mpmath():
    mu, nu, x = 120.0, 4.0, 0.01
    # the contour oracle refuses this point; the tail integral answers
    with pytest.raises(AccuracyError):
        meijer_g_m0_log_contour([0.5 * (1.0 - mu)],
                                [0.5 * nu, -0.5 * nu, -0.5 * (mu + 1.0)], x)
    got, reasons = specfun.meijer_g_m0_log(np.array([mu]), np.array([nu]),
                                           np.array([x]))
    # a real log: G is positive
    assert got.dtype == np.float64 and got.shape == (1,) and reasons == [""]
    assert math.isfinite(got[0])
    assert abs(got[0] - TAIL_LOG_G) <= 1e-12


@pytest.mark.parametrize("mu, nu, x", [(1e9, 0.0, 1.0),
                                       ([28.0, 1e9], [32.0, 0.0], [1.0, 1.0])])
def test_tail_integral_that_keeps_rising_refuses(mu, nu, x):
    # u^1e9 K_0(u) still rises at u = 1e8, past which no bracket may
    # reach; such a seed refuses in place, and its batch neighbour keeps
    # its one-seed bits
    got, reasons = specfun.meijer_g_m0_log(
        *(np.array(v, ndmin=1) for v in (mu, nu, x)))
    assert math.isnan(got[-1])
    assert reasons[-1] == "Bessel tail integral fails to decay"
    if got.size == 2:
        assert reasons[0] == ""
        assert hexes(got[:1]) == hexes([one_seed(28.0, 32.0, 1.0)])


@pytest.mark.parametrize("mu, nu, x, match", [
    ([28.0], [2.5], [1.0],
     r"order must be a nonnegative integer, got nu = 2\.5 at seed 0$"),
    ([28.0, 28.0], [2.0, 2.5], [1.0, 1.0],
     r"order must be a nonnegative integer, got nu = 2\.5 at seed 1$"),
    ([28.0], [2.0], [0.0], "x > 0"),
    ([28.0, 28.0], [2.0, 2.0], [1.0, -1.0], "x > 0"),
    ([math.nan], [2.0], [1.0], "finite mu"),
    ([28.0], [math.inf], [1.0], "finite mu, nu")])
def test_seed_outside_its_domain_raises_value_error(mu, nu, x, match):
    # a fractional order is not rounded to its integer neighbour; x <= 0
    # has no lower limit 2 sqrt(x) to start a grid from, nor a non-finite
    # mu or nu a grid length
    with pytest.raises(ValueError, match=match):
        specfun.meijer_g_m0_log(*(np.array(v) for v in (mu, nu, x)))


def one_seed(mu: float, nu: float, x: float) -> float:
    """ln G at one seed, by a one-element array call; NaN where it refuses."""
    (log_g,), _ = specfun.meijer_g_m0_log(np.array([mu]), np.array([nu]),
                                          np.array([x]))
    return float(log_g)


@pytest.mark.parametrize("x", [1e3, 1e5, 2.5e5])
def test_seed_up_to_the_range_limit_holds_1e12(x):
    # up to 2 sqrt(x) = 1000 a seed stays within 1e-12 in ln G of scipy
    assert abs(one_seed(28.0, 32.0, x) - meijer_g_m0_log_quad(28.0, 32.0, x)) <= 1e-12


@pytest.mark.parametrize("x", [1e8, 1e10, 1e11])
def test_seed_past_the_range_limit_refuses(x, monkeypatch):
    with warnings.catch_warnings():
        # at 1e11 quad reports rounding above its 1e-13 request; here the
        # reference only has to be tens of nats right
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        ref = meijer_g_m0_log_quad(28.0, 32.0, x)
    assert math.isfinite(ref)
    reason = (f"Bessel tail integral from 2 sqrt(x) = {2.0 * math.sqrt(x):.4g} "
              "is past 1000, beyond which its ln G misses 1e-12")
    (alone,), reasons = specfun.meijer_g_m0_log(np.array([28.0]),
                                                np.array([32.0]), np.array([x]))
    assert math.isnan(alone) and reasons == [reason]
    # in a batch the seed refuses only itself: its neighbour keeps the
    # bits of its one-seed call
    got, reasons = specfun.meijer_g_m0_log(
        np.array([28.0, 28.0]), np.array([32.0, 32.0]), np.array([1e3, x]))
    assert math.isnan(got[1]) and reasons == ["", reason]
    assert hexes(got[:1]) == hexes([one_seed(28.0, 32.0, 1e3)])
    # unchecked, the grid's bracket misses the integrand's e^-u edge layer:
    # ln G comes out tens of nats off, or its log meets a 0.0 integral
    monkeypatch.setattr(specfun, "_SEED_U_LO_MAX", math.inf)
    if x < 1e11:
        assert abs(one_seed(28.0, 32.0, x) - ref) > 10.0
    else:
        with pytest.raises(ValueError, match="math domain error"):
            one_seed(28.0, 32.0, x)


@pytest.mark.parametrize("h_br_m", [150.0, 1000.0])
def test_composite_recurrence_matches_tail_integral(h_br_m, air, closed_params,
                                                    monkeypatch):
    from zsrpsim.propagation import ScenarioGeometry, bs_ris_gain, ris_user_gain

    geom = ScenarioGeometry(h_br_m=h_br_m)
    p = closed_params(
        scale=ris_user_gain(geom, air, 0) * bs_ris_gain(geom, air), n_users=4)
    big_x = p.big_x
    m_2, m_1 = 32, 32
    sizes = [j * (m_1 - 1) + 1 for j in (1, 2, 3, 4)]
    calls = _count_seeds(monkeypatch)
    kernels = []
    series = an._order_stat_series

    def passing(m1_elements, m_2, log_x, log_kernels):
        kernels.append(log_kernels)
        return series(m1_elements, m_2, log_x, log_kernels)

    monkeypatch.setattr(an, "_order_stat_series", passing)
    an._closed_forms([p])
    (rows,) = kernels
    # the three seeds of every row in one call
    assert [len(c) for c in calls] == [12]
    monkeypatch.undo()
    assert [len(row) for row in rows] == sizes
    # every term's own tail integral, in one (bit for bit one-element) call
    terms = [(m_2 + b - 4, m_2 - b, j * big_x)
             for j, n_b in enumerate(sizes, start=1) for b in range(n_b)]
    want, reasons = specfun.meijer_g_m0_log(*(np.array(v) for v in zip(*terms)))
    assert not any(reasons)
    spanned = set()
    for (mu, nu, x), log_g, w in zip(terms, sum(rows, []), want.tolist()):
        # 1e-12 on log G is 1e-12 relative on the tail integral I(B)
        # a real log: G is positive
        assert math.isfinite(log_g)
        assert abs(log_g - w) <= 1e-12, (mu, nu, x, log_g - w)
        spanned.add((nu < 0) - (nu > 0))
    # B < M, B = M and B > M (Bessel K of negative order)
    assert spanned == {-1, 0, 1}


def _count_seeds(monkeypatch) -> list:
    """Record each seed call as the list of its (mu, nu, x) seeds."""
    calls = []
    seed = specfun.meijer_g_m0_log

    def counting(mu, nu, x):
        calls.append(list(zip(*(np.ravel(v).tolist() for v in (mu, nu, x)))))
        return seed(mu, nu, x)

    monkeypatch.setattr(specfun, "meijer_g_m0_log", counting)
    return calls


def _fig4_seed_calls(air, fading, monkeypatch) -> list:
    """The seed calls of the default fig4 closed forms, both serving rules."""
    from zsrpsim.experiments import ExperimentSpec
    from zsrpsim.propagation import (ScenarioGeometry, bs_ris_gain,
                                     ris_user_gain)

    calls = _count_seeds(monkeypatch)
    for h in ExperimentSpec().h_grid_m:
        geom = ScenarioGeometry(h_br_m=h)
        for n_users in (1, geom.n_users):
            p = an.ClosedFormParams(
                m1=fading.m1, m2=fading.m2, n_elements=fading.n_elements,
                scale=ris_user_gain(geom, air, 0) * bs_ris_gain(geom, air),
                ref_gain=air.ref_gain,
                r_eve_m=geom.r_eve_m, n_users=n_users)
            assert an._closed_forms([p])[0] is not None, (h, n_users)
    monkeypatch.undo()
    return calls


def test_fig4_seeds_match_the_contour_oracle(air, fading, monkeypatch):
    # every seed of the default fig4 closed forms, both serving rules:
    # 8 altitudes x (12 + 3) = 120 tail integrals against the independent
    # Mellin-Barnes contour, to 1e-12 in ln G
    calls = _fig4_seed_calls(air, fading, monkeypatch)
    # one seed call per closed form: rotation (3 seeds), greedy (12)
    assert [len(c) for c in calls] == [3, 12] * 8
    seeds = sum(calls, [])
    assert len(seeds) == 120
    log_gs, reasons = specfun.meijer_g_m0_log(*(np.array(v) for v in zip(*seeds)))
    assert not any(reasons)
    for (mu, nu, x), log_g in zip(seeds, log_gs.tolist()):
        want, sign = meijer_g_m0_log_contour(
            [0.5 * (1.0 - mu)], [0.5 * nu, -0.5 * nu, -0.5 * (mu + 1.0)], x)
        assert sign == 1.0
        assert abs(log_g - want) <= 1e-12, (mu, nu, x, log_g - want)


def test_seed_array_matches_one_element_calls(air, fading, monkeypatch):
    # one mixed-order call of the 120 fig4 seeds and three far seeds (a
    # peak far past the lower end, B > M, a high order) gives each seed
    # the bits of its one-element call
    seeds = sum(_fig4_seed_calls(air, fading, monkeypatch), [])
    seeds += [(120.0, 4.0, 0.01), (28.0, 32.0, 102.4), (60.0, 64.0, 5.0)]
    got, reasons = specfun.meijer_g_m0_log(*(np.array(v) for v in zip(*seeds)))
    assert not any(reasons)
    want = [specfun.meijer_g_m0_log(*(np.array([v]) for v in seed))[0]
            for seed in seeds]
    assert all(w.shape == (1,) for w in want)
    assert hexes(got) == hexes(want)


def test_closed_form_takes_three_seeds_per_row(geometry, air, fading, monkeypatch,
                                               caplog):
    cfg = ScenarioConfig(geometry=geometry, air=air, fading=fading,
                         scheme=SchemeId.FCR_RS)
    for scheme, n_seeds, n_terms in ((SchemeId.FCR_GCSI_PFS, 12, 314),
                                     (SchemeId.FCR_RS, 3, 32)):
        calls = _count_seeds(monkeypatch)
        caplog.clear()
        with caplog.at_level("DEBUG", logger="zsrpsim.analytic"):
            out = analytic_row(dataclasses.replace(cfg, scheme=scheme))
        assert out.closed_form is not None
        # one tail integral per seed, not one per term, all in one call
        assert [len(c) for c in calls] == [n_seeds], scheme
        lines = [r.getMessage() for r in caplog.records
                 if "seed integrals" in r.getMessage()]
        assert lines == [f"closed-form composite: {n_seeds} seed integrals "
                         f"in one batched quadrature, {n_terms} terms"]


@pytest.mark.parametrize("n_elements, n_users, n_seeds",
                         [(1, 1, 1), (1, 3, 3), (2, 1, 2), (2, 3, 8)])
def test_short_rows_use_only_their_seeds(closed_params, monkeypatch,
                                         n_elements, n_users, n_seeds):
    # m1 L = n_elements: rows of j (m1 L - 1) + 1 terms, so 1 term per row
    # at m1 L = 1 and 2, 3, 4 terms at m1 L = 2
    p = closed_params(n_users=n_users, m1=1, n_elements=n_elements,
                      r_eve_m=5000.0)
    calls = _count_seeds(monkeypatch)
    out = from_params(p, False)
    assert [len(c) for c in calls] == [n_seeds]
    assert 1e-3 < out.value < 0.5
    assert out.closed_form is not None
    assert abs(out.closed_form - out.value) <= 1e-9 * out.value


def test_many_users_fall_back_to_quadrature(closed_params):
    # 24 users: the order-statistic sum's rounding bound is 1.1e-5 of it
    out = from_params(closed_params(n_users=24), False)
    assert out.closed_form is None
    assert 0.0 < out.value < 1.0


def test_rounding_bound_admits_13_users_and_refuses_24(closed_params, caplog,
                                                       monkeypatch):
    # the bound, not a user count, decides: 3.0e-9 at N = 13, 1.1e-5 at 24
    out = from_params(closed_params(n_users=13), False)
    assert out.closed_form is not None
    assert abs(out.closed_form - out.value) <= 1e-9 * out.value
    calls = _count_seeds(monkeypatch)
    with caplog.at_level("INFO", logger="zsrpsim.analytic"):
        assert an._closed_forms([closed_params(n_users=24)])[0] is None
    # the refusal still evaluates every seed, all 3 x 24 in one call
    assert [len(c) for c in calls] == [72]
    (reason,) = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
    assert "unavailable" in reason and "rounding bound" in reason
    bound = float(reason.split("rounding bound ")[1].split(",")[0])
    value = float(reason.split("order-statistic sum ")[1].split(" ")[0])
    assert 1e-5 < bound / value < 1.2e-5


def test_default_grids_keep_their_closed_forms(air, fading, caplog):
    # every point of the fig2 radius, fig3 surface-size and fig4 altitude
    # grids stays inside the rounding bound, for both serving rules
    from zsrpsim.experiments import ExperimentSpec
    from zsrpsim.propagation import (ScenarioGeometry, bs_ris_gain,
                                     ris_user_gain)

    spec = ExperimentSpec()
    points = ([ScenarioGeometry(r_eve_m=r) for r in spec.r_grid_m]
              + [ScenarioGeometry(h_br_m=h) for h in spec.h_grid_m])
    cases = [(g, fading.n_elements) for g in points]
    cases += [(ScenarioGeometry(), n) for n in spec.l_grid]
    with caplog.at_level("INFO", logger="zsrpsim.analytic"):
        for geom, n_elements in cases:
            for n_users in (1, geom.n_users):
                p = an.ClosedFormParams(
                    m1=fading.m1, m2=fading.m2, n_elements=n_elements,
                    scale=ris_user_gain(geom, air, 0) * bs_ris_gain(geom, air),
                    ref_gain=air.ref_gain,
                    r_eve_m=geom.r_eve_m, n_users=n_users)
                assert an._closed_forms([p])[0] is not None, (geom, n_elements, n_users)
    assert "unavailable" not in caplog.text


def test_both_rules_fall_back_past_the_rounding_bound(closed_params, monkeypatch):
    p = closed_params(n_users=4)
    want = {rr: from_params(p, rr).value for rr in (True, False)}
    # a resolution below either composite's rounding bound (7.7e-14 and
    # 1.9e-12 of the result): the quadrature value stands alone
    monkeypatch.setattr(an, "REL_GAP_WARN", 1e-15)
    for round_robin, value in want.items():
        out = from_params(p, round_robin)
        assert (out.value, out.closed_form, out.rel_gap) == (value, None, None), \
            round_robin


def test_route_disagreement_surfaced_as_warning(air, fading, monkeypatch):
    # a flat free-space environment drives the probability to ~1e-8, where
    # the order-statistic sum cancels deeply; a seed error of 1e-9 in ln G
    # then moves the closed form by more than 1e-6 relative.  The contract
    # is to report the quadrature value and warn, never to silently
    # reconcile
    from zsrpsim.propagation import AirGroundParams, ScenarioGeometry

    flat_air = AirGroundParams(alpha_zenith=2.0, alpha_ground=2.0)
    geom = ScenarioGeometry(h_br_m=40.0)
    cfg = ScenarioConfig(geometry=geom, air=flat_air, fading=fading, scheme=SchemeId.FCR_RS)
    want = an.zsrp_for_scheme(cfg).value
    seed = specfun.meijer_g_m0_log

    def off_by_1e9(*args):
        log_gs, reasons = seed(*args)
        return log_gs + 1e-9, reasons

    monkeypatch.setattr(specfun, "meijer_g_m0_log", off_by_1e9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = analytic_row(cfg)
    assert any("deviates" in str(w.message) for w in caught)
    assert out.closed_form is not None
    assert out.rel_gap > 1e-6
    assert out.value < 1e-6
    # the injected seed error reaches the closed form only
    assert out.value.hex() == want.hex()


def test_scheme_dispatch(geometry, air, fading, closed_params):
    cfg = ScenarioConfig(geometry=geometry, air=air, fading=fading, scheme=SchemeId.FCR_RS)
    rs = an.zsrp_for_scheme(cfg)
    assert math.isclose(rs.value, RS_DEFAULT, rel_tol=1e-10)
    pfs = an.zsrp_for_scheme(dataclasses.replace(cfg, scheme=SchemeId.FCR_GCSI_PFS))
    assert math.isclose(pfs.value, PFS_DEFAULT, rel_tol=1e-10)


def test_scheme_dispatch_refusals(geometry, air, fading):
    cfg = ScenarioConfig(geometry=geometry, air=air, fading=fading, scheme=SchemeId.SCR_RS)
    for scheme in (SchemeId.SCR_RS, SchemeId.SCR_GCSI_PFS, SchemeId.SCR_FCSI_PFS):
        with pytest.raises(AnalyticUnavailableError):
            an.zsrp_for_scheme(dataclasses.replace(cfg, scheme=scheme))
    bent = ScenarioConfig(geometry=geometry, air=air, fading=fading,
                          scheme=SchemeId.FCR_RS, alpha_eve=3.0)
    with pytest.raises(AnalyticUnavailableError):
        an.zsrp_for_scheme(bent)


def test_wiretap_exponent_one_ulp_off_two_is_refused(geometry, air, fading):
    from zsrpsim.experiments import ExperimentSpec, run_experiment

    near = ScenarioConfig(geometry=geometry, air=air, fading=fading,
                          scheme=SchemeId.FCR_RS,
                          alpha_eve=math.nextafter(2.0, 3.0))
    with pytest.raises(AnalyticUnavailableError, match="alpha_eve"):
        an.zsrp_for_scheme(near)
    (out,) = an.zsrp_many([near], closed_form=True)
    assert isinstance(out, AnalyticUnavailableError)
    # the sweep drops the analytic rows and keeps its Monte-Carlo rows
    schemes = (SchemeId.FCR_RS, SchemeId.FCR_GCSI_PFS)
    both = ExperimentSpec(schemes=schemes, trials=4096, seed=3)
    rows = run_experiment(near, both)
    assert [r["evaluator"] for r in rows] == ["mc", "mc"]
    mc_only = dataclasses.replace(both, evaluators=("mc",))
    assert rows == run_experiment(near, mc_only)


def test_scheme_dispatch_heterogeneous_users(air, fading):
    from zsrpsim.propagation import ScenarioGeometry

    geom = ScenarioGeometry(d_rn_m=(30.0, 50.0, 80.0, 120.0))
    cfg = ScenarioConfig(geometry=geom, air=air, fading=fading, scheme=SchemeId.FCR_RS)
    # rotation averages the per-user marginals, with the slot average's bits
    out = an.zsrp_for_scheme(cfg)
    assert out.value.hex() == "0x1.7529d7fd9a476p-2"


def test_greedy_serving_with_mixed_distances_is_the_user_average(air, fading):
    from zsrpsim.propagation import ScenarioGeometry
    from zsrpsim.secrecy import run_monte_carlo

    # GCSI-PFS serves the largest unscaled power sum, uniform over users:
    # the value averages the common-distance values at each user's distance
    geom = ScenarioGeometry(h_br_m=150.0, d_rn_m=(30.0, 50.0, 70.0, 90.0))
    cfg = ScenarioConfig(geometry=geom, air=air, fading=fading,
                         scheme=SchemeId.FCR_GCSI_PFS)
    out = analytic_row(cfg)
    assert math.isclose(out.value, 0.1907192919881172, rel_tol=1e-12, abs_tol=0.0)
    assert out.closed_form is not None and out.rel_gap < 1e-12
    est = run_monte_carlo(cfg, 400_000, 7)
    assert abs(est.p_hat - out.value) < 4.0 * est.std_err


@pytest.mark.parametrize("scheme", [SchemeId.FCR_RS, SchemeId.FCR_GCSI_PFS])
def test_repeated_distances_are_evaluated_once(scheme, air, fading, monkeypatch):
    from zsrpsim.propagation import ScenarioGeometry

    geom = ScenarioGeometry(d_rn_m=(50.0, 50.0, 80.0, 80.0))
    cfg = ScenarioConfig(geometry=geom, air=air, fading=fading, scheme=scheme)
    per_user = [an.zsrp_for_scheme(dataclasses.replace(
        cfg, geometry=dataclasses.replace(geom, d_rn_m=(d,) * 4))).value
        for d in geom.d_rn_m]
    calls = []
    unwrapped = an.zsrp_from_params

    def counted(*args, **kwargs):
        calls.append([p.scale for p, _ in args[0]])
        return unwrapped(*args, **kwargs)

    monkeypatch.setattr(an, "zsrp_from_params", counted)
    out = an.zsrp_for_scheme(cfg)
    # one call, one row per distinct distance
    assert len(calls) == 1 and len(calls[0]) == 2 and calls[0][0] > calls[0][1]
    assert math.isclose(out.value, sum(per_user) / 4, rel_tol=1e-15, abs_tol=0.0)


def test_offset_fixed_centre_refused(geometry, air, fading):
    from zsrpsim.propagation import ScenarioGeometry

    high = ScenarioGeometry(h_br_m=600.0)
    offset = ScenarioConfig(geometry=high, air=air, fading=fading, scheme=SchemeId.FCR_RS,
                            eve_center_h_m=150.0)
    for scheme in (SchemeId.FCR_RS, SchemeId.FCR_GCSI_PFS):
        with pytest.raises(AnalyticUnavailableError, match="centred on the BS"):
            an.zsrp_for_scheme(dataclasses.replace(offset, scheme=scheme))
    # a fixed centre at the BS altitude is the BS ball
    bs = dataclasses.replace(offset, eve_center_h_m=None)
    at_bs = dataclasses.replace(offset, eve_center_h_m=600.0)
    assert analytic_row(at_bs) == analytic_row(bs)


def test_radius_past_the_double_range_refused(geometry, air, fading):
    # round robin cubes the radius, proportional fairness squares it:
    # 1e103 m cubes past the double range but squares within it
    for r_eve_m, refused in ((1e103, {"fcr-rs"}), (1e160, {"fcr-rs", "fcr-gcsi-pfs"})):
        big = dataclasses.replace(geometry, r_eve_m=r_eve_m)
        for scheme in (SchemeId.FCR_RS, SchemeId.FCR_GCSI_PFS):
            cfg = ScenarioConfig(geometry=big, air=air, fading=fading, scheme=scheme)
            if scheme.value in refused:
                with pytest.raises(AnalyticUnavailableError, match="too large"):
                    an.zsrp_for_scheme(cfg)
            else:
                assert 0.0 < an.zsrp_for_scheme(cfg).value < 1e-300


def test_integral_float_shapes_accepted(geometry, air):
    from zsrpsim.fading import FadingParams

    cfg = ScenarioConfig(geometry=geometry, air=air, fading=FadingParams(m1=2.0, m2=2.0),
                         scheme=SchemeId.FCR_RS)
    out = an.zsrp_for_scheme(cfg)
    assert math.isclose(out.value, RS_DEFAULT, rel_tol=1e-10)
