"""Closed-form and quadrature zero-secrecy-rate expressions.

Proves:
 Group 1 — parameter container
   frozen composite argument at the default scenario, recomputed from first
   principles; positivity and integrality validation.

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
   without a NaN sum or a warning, and a default
   round-robin value starts one K0/K1 evaluation per distance integrand
   call, not one per node.

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
   closed form agreeing to better than 1e-6 (and frozen gaps near 1e-12);
   the rounding bound of the order-statistic sum, not a user or term cap,
   decides the closed form: every default fig2, fig3 and fig4 grid point
   keeps it for both serving rules, 13 default users keep it within 1e-9
   of quadrature, 24 users (bound 1.1e-5) are refused with the reason at
   INFO, and below the bound both serving rules return the quadrature
   value alone; greedy never hurts; monotone response to the sphere
   radius; agreement across a surface-size/radius grid; where the contour
   oracle refuses, the tail-integral seed matches mpmath to 1e-12; an
   integrand still rising at u = 1e8 refuses, alone or in a batch; up to
   a lower limit 2 sqrt(x) = 1000 a seed holds 1e-12 in ln G against
   scipy quadrature, and past it (x = 1e8, 1e10, 1e11) it refuses, alone
   or in a batch, where the unchecked scan came out tens of nats off or
   met log(0); the
   contiguous recurrence of four composite rows, their 12 seeds in one
   call, matches the tail integral term by term to 1e-12 at h = 150/1000
   m, on both sides of B = M; each of the 120 seeds of the default fig4
   closed forms (both serving rules, one seed call per closed form) lies
   within 1e-12 in ln G of the independent contour oracle, and one
   mixed-order array call of them and three far seeds gives each seed its
   scalar call's bits; a closed form takes three seed integrals per row
   (12 for default greedy serving, 3 for rotation) in one call and logs
   the seed and term counts; rows shorter than three terms take only
   their own seeds and still track quadrature to 1e-9; the 24-user
   refusal takes its 72 seeds in one call; a seed error of 1e-9 in ln G in the flat
   environment moves the closed form past 1e-6 and warns, leaving the
   quadrature value's bits alone; the scheme dispatcher and its
   documented refusals.
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
from zsrpsim.scheduling import SchemeId
from zsrpsim.secrecy import ScenarioConfig

from oracles import (cdf_power_sum_order_stat, cdf_Z_single_scalar,
                     enumerate_subset_terms, meijer_g_m0_log_contour,
                     meijer_g_m0_log_quad, ordered_sum_coefficients)

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


def test_series_cdf_takes_one_bessel_recurrence(closed_params, monkeypatch):
    p = closed_params(n_users=1)
    z = p.ref_gain / (0.5 * p.r_eve_m) ** 2
    want = an.cdf_Z_single(z, p)
    calls = []
    k01 = specfun._bessel_k01_scaled

    def counting(x):
        calls.append(x)
        return k01(x)

    monkeypatch.setattr(specfun, "_bessel_k01_scaled", counting)
    assert an.cdf_Z_single(z, p) == want
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
    got = an.cdf_Z_single(z, p)
    assert hexes(got) == hexes([cdf_Z_single_scalar(v, p) for v in z.tolist()])
    assert an.cdf_Z_single(float(z[50]), p) == got[50]


@given(st.lists(st.floats(min_value=-1.0, max_value=60.0), min_size=1, max_size=24),
       st.sampled_from(SERIES_CASES[:4]))
@settings(max_examples=30, deadline=None)
def test_series_cdf_batch_invariant(zs, case):
    m1, m2, n_elements = case
    p = unit_params(m1=m1, m2=m2, n_elements=n_elements)
    got = an.cdf_Z_single(np.array(zs), p)
    assert hexes(got) == hexes([an.cdf_Z_single(z, p) for z in zs])


def test_series_cdf_past_the_double_range_is_zero():
    # at xi = 1e-70 and m L = 32 a Bessel recurrence step passes the
    # double range: that lane is 0.0, with no NaN sum and no warning
    p = unit_params(m1=2, m2=2, n_elements=16)
    z = np.array([1e-70, 1e-300, 1.0]) / 4.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = an.cdf_Z_single(z, p)
        assert an.cdf_Z_single(float(z[0]), p) == 0.0
    assert got[0] == got[1] == 0.0
    assert hexes(got[2:]) == hexes([cdf_Z_single_scalar(float(z[2]), p)])


def test_series_value_starts_one_bessel_per_integrand_call(closed_params, monkeypatch):
    p = closed_params(n_users=1)
    nodes, starts = [], []
    cdf, k01 = an.cdf_Z_single, specfun._bessel_k01_scaled

    def counting_cdf(z, q):
        nodes.append(np.size(z))
        return cdf(z, q)

    def counting_k01(x):
        starts.append(np.size(x))
        return k01(x)

    monkeypatch.setattr(an, "cdf_Z_single", counting_cdf)
    monkeypatch.setattr(specfun, "_bessel_k01_scaled", counting_k01)
    an.zsrp_from_params(p, True, closed_form=False)
    # one K0/K1 evaluation per integrand call, covering all of its nodes
    assert starts == nodes
    assert min(nodes) >= specfun._GL_NODES.size


# --- Group 3: order statistics ---


def test_order_stat_reconstruction():
    for n_users in (2, 3):
        for m1, n_elements in ((2, 2),):
            for s in (0.5 * n_elements, 1.0 * n_elements, 2.0 * n_elements):
                got = cdf_power_sum_order_stat(s, m1, n_elements, n_users)
                ref = cdf_S(s, m1, n_elements) ** n_users
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


def test_combinatorial_guards():
    with pytest.raises(ValueError, match="at most"):
        enumerate_subset_terms(13, 2)
    with pytest.raises(ValueError, match="terms"):
        enumerate_subset_terms(12, 64)
    with pytest.raises(ValueError, match="at most"):
        cdf_power_sum_order_stat(1.0, 2, 1, 13)


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
    out = an.zsrp_from_params(closed_params(n_users=4), True)
    assert math.isclose(out.value, RS_DEFAULT, rel_tol=1e-10)
    assert out.closed_form is not None
    assert out.rel_gap < 1e-6
    # the two routes currently agree far tighter than the contract
    assert out.rel_gap < 1e-9


def test_pfs_frozen_default(closed_params):
    out = an.zsrp_from_params(closed_params(n_users=4), False)
    assert math.isclose(out.value, PFS_DEFAULT, rel_tol=1e-10)
    assert out.closed_form is not None
    assert out.rel_gap < 1e-6


def test_rs_independent_of_user_count(closed_params):
    # rotation serves a fixed marginal user; homogeneous users make the
    # average independent of how many there are
    one = an.zsrp_from_params(closed_params(n_users=1), True)
    four = an.zsrp_from_params(closed_params(n_users=4), True)
    assert math.isclose(one.value, four.value, rel_tol=1e-12)


def test_pfs_single_user_equals_rs(closed_params):
    rs = an.zsrp_from_params(closed_params(n_users=1), True)
    pfs = an.zsrp_from_params(closed_params(n_users=1), False)
    assert math.isclose(rs.value, pfs.value, rel_tol=1e-10)


def test_pfs_improves_with_users(closed_params):
    vals = [an.zsrp_from_params(closed_params(n_users=n), False).value
            for n in (1, 2, 4)]
    assert vals[0] > vals[1] > vals[2]


def test_value_decreases_with_radius(closed_params):
    vals = [an.zsrp_from_params(closed_params(n_users=1, r_eve_m=r), True).value
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
                out = an.zsrp_from_params(p, round_robin)
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
    log_g = specfun.meijer_g_m0_log(mu, nu, x)
    # a real log: G is positive
    assert type(log_g) is float and math.isfinite(log_g)
    assert abs(log_g - TAIL_LOG_G) <= 1e-12


@pytest.mark.parametrize("mu, nu, x", [(1e9, 0.0, 1.0),
                                       ([28.0, 1e9], [32.0, 0.0], [1.0, 1.0])])
def test_tail_integral_that_keeps_rising_refuses(mu, nu, x):
    # u^1e9 K_0(u) still rises at u = 1e8, where the scan gives up; one
    # such seed refuses a batched call
    with pytest.raises(AccuracyError, match="fails to decay"):
        specfun.meijer_g_m0_log(*(np.array(v) for v in (mu, nu, x)))


@pytest.mark.parametrize("x", [1e3, 1e5, 2.5e5])
def test_seed_up_to_the_range_limit_holds_1e12(x):
    # up to 2 sqrt(x) = 1000 a seed stays within 1e-12 in ln G of scipy
    got = specfun.meijer_g_m0_log(28.0, 32.0, x)
    assert abs(got - meijer_g_m0_log_quad(28.0, 32.0, x)) <= 1e-12


@pytest.mark.parametrize("x", [1e8, 1e10, 1e11])
def test_seed_past_the_range_limit_refuses(x, monkeypatch):
    with warnings.catch_warnings():
        # at 1e11 quad reports rounding above its 1e-13 request; here the
        # reference only has to be tens of nats right
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        ref = meijer_g_m0_log_quad(28.0, 32.0, x)
    assert math.isfinite(ref)
    with pytest.raises(AccuracyError, match="past 1000"):
        specfun.meijer_g_m0_log(28.0, 32.0, x)
    # one such seed refuses a batched call
    with pytest.raises(AccuracyError, match="past 1000"):
        specfun.meijer_g_m0_log(np.array([28.0, 28.0]), np.array([32.0, 32.0]),
                                np.array([1e3, x]))
    # unchecked, the scan's bracket misses the integrand's e^-u edge layer:
    # ln G comes out tens of nats off, or its log meets a 0.0 integral
    monkeypatch.setattr(specfun, "_SEED_U_LO_MAX", math.inf)
    if x < 1e11:
        assert abs(specfun.meijer_g_m0_log(28.0, 32.0, x) - ref) > 10.0
    else:
        with pytest.raises(ValueError, match="math domain error"):
            specfun.meijer_g_m0_log(28.0, 32.0, x)


@pytest.mark.parametrize("h_br_m", [150.0, 1000.0])
def test_composite_recurrence_matches_tail_integral(h_br_m, air, closed_params,
                                                    monkeypatch):
    from zsrpsim.propagation import ScenarioGeometry, bs_ris_gain, ris_user_gain

    geom = ScenarioGeometry(h_br_m=h_br_m)
    big_x = closed_params(sigma1_sq=bs_ris_gain(geom, air),
                          sigma2_sq=ris_user_gain(geom, air, 0)).big_x
    m_2, m_1 = 32, 32
    sizes = [j * (m_1 - 1) + 1 for j in (1, 2, 3, 4)]
    calls = _count_seeds(monkeypatch)
    rows = an._log_composite_rows(m_2, big_x, sizes)
    # the three seeds of every row in one call
    assert [len(c) for c in calls] == [12]
    monkeypatch.undo()
    assert [len(row) for row in rows] == sizes
    # every term's own tail integral, in one (bit for bit scalar) call
    terms = [(m_2 + b - 4, m_2 - b, j * big_x)
             for j, n_b in enumerate(sizes, start=1) for b in range(n_b)]
    want = specfun.meijer_g_m0_log(*(np.array(v) for v in zip(*terms)))
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
                sigma1_sq=ris_user_gain(geom, air, 0),
                sigma2_sq=bs_ris_gain(geom, air), ref_gain=air.ref_gain,
                r_eve_m=geom.r_eve_m, n_users=n_users)
            assert an._closed_form(p) is not None, (h, n_users)
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
    log_gs = specfun.meijer_g_m0_log(*(np.array(v) for v in zip(*seeds)))
    for (mu, nu, x), log_g in zip(seeds, log_gs.tolist()):
        want, sign = meijer_g_m0_log_contour(
            [0.5 * (1.0 - mu)], [0.5 * nu, -0.5 * nu, -0.5 * (mu + 1.0)], x)
        assert sign == 1.0
        assert abs(log_g - want) <= 1e-12, (mu, nu, x, log_g - want)


def test_seed_array_matches_scalar_calls(air, fading, monkeypatch):
    # one mixed-order call of the 120 fig4 seeds and three far seeds (a
    # peak far past the lower end, B > M, a high order) gives each seed
    # the bits of its scalar call
    seeds = sum(_fig4_seed_calls(air, fading, monkeypatch), [])
    seeds += [(120.0, 4.0, 0.01), (28.0, 32.0, 102.4), (60.0, 64.0, 5.0)]
    got = specfun.meijer_g_m0_log(*(np.array(v) for v in zip(*seeds)))
    want = [specfun.meijer_g_m0_log(*seed) for seed in seeds]
    assert all(type(w) is float for w in want)
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
            out = an.zsrp_for_scheme(dataclasses.replace(cfg, scheme=scheme))
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
    out = an.zsrp_from_params(p, False)
    assert [len(c) for c in calls] == [n_seeds]
    assert 1e-3 < out.value < 0.5
    assert out.closed_form is not None
    assert abs(out.closed_form - out.value) <= 1e-9 * out.value


def test_many_users_fall_back_to_quadrature(closed_params):
    # 24 users: the order-statistic sum's rounding bound is 1.1e-5 of it
    out = an.zsrp_from_params(closed_params(n_users=24), False)
    assert out.closed_form is None
    assert 0.0 < out.value < 1.0


def test_rounding_bound_admits_13_users_and_refuses_24(closed_params, caplog,
                                                       monkeypatch):
    # the bound, not a user count, decides: 3.0e-9 at N = 13, 1.1e-5 at 24
    out = an.zsrp_from_params(closed_params(n_users=13), False)
    assert out.closed_form is not None
    assert abs(out.closed_form - out.value) <= 1e-9 * out.value
    calls = _count_seeds(monkeypatch)
    with caplog.at_level("INFO", logger="zsrpsim.analytic"):
        assert an._closed_form(closed_params(n_users=24)) is None
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
                    sigma1_sq=ris_user_gain(geom, air, 0),
                    sigma2_sq=bs_ris_gain(geom, air), ref_gain=air.ref_gain,
                    r_eve_m=geom.r_eve_m, n_users=n_users)
                assert an._closed_form(p) is not None, (geom, n_elements, n_users)
    assert "unavailable" not in caplog.text


def test_both_rules_fall_back_past_the_rounding_bound(closed_params, monkeypatch):
    p = closed_params(n_users=4)
    want = {rr: an.zsrp_from_params(p, rr).value for rr in (True, False)}
    # a resolution below either composite's rounding bound (7.7e-14 and
    # 1.9e-12 of the result): the quadrature value stands alone
    monkeypatch.setattr(an, "REL_GAP_WARN", 1e-15)
    for round_robin, value in want.items():
        out = an.zsrp_from_params(p, round_robin)
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
    want = an.zsrp_for_scheme(cfg, closed_form=False).value
    seed = specfun.meijer_g_m0_log
    monkeypatch.setattr(specfun, "meijer_g_m0_log",
                        lambda *args: seed(*args) + 1e-9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = an.zsrp_for_scheme(cfg)
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


def test_scheme_dispatch_heterogeneous_users(air, fading):
    from zsrpsim.propagation import ScenarioGeometry

    geom = ScenarioGeometry(d_rn_m=(30.0, 50.0, 80.0, 120.0))
    cfg = ScenarioConfig(geometry=geom, air=air, fading=fading, scheme=SchemeId.FCR_RS)
    # rotation averages the per-user marginals
    out = an.zsrp_for_scheme(cfg)
    assert 0.0 < out.value < 1.0
    # greedy selection across unequal users has no expansion here
    with pytest.raises(AnalyticUnavailableError):
        an.zsrp_for_scheme(dataclasses.replace(cfg, scheme=SchemeId.FCR_GCSI_PFS))


def test_offset_fixed_centre_refused(geometry, air, fading):
    from zsrpsim.propagation import ScenarioGeometry

    high = ScenarioGeometry(h_br_m=600.0)
    offset = ScenarioConfig(geometry=high, air=air, fading=fading, scheme=SchemeId.FCR_RS,
                            eve_center="fixed", eve_center_h_m=150.0)
    for scheme in (SchemeId.FCR_RS, SchemeId.FCR_GCSI_PFS):
        with pytest.raises(AnalyticUnavailableError, match="centred on the BS"):
            an.zsrp_for_scheme(dataclasses.replace(offset, scheme=scheme))
    # a fixed centre at the BS altitude (or defaulting to it) is the BS ball
    bs = dataclasses.replace(offset, eve_center="bs", eve_center_h_m=None)
    want = an.zsrp_for_scheme(bs).value
    for h0 in (600.0, None):
        at_bs = dataclasses.replace(offset, eve_center_h_m=h0)
        assert an.zsrp_for_scheme(at_bs).value == want


def test_integral_float_shapes_accepted(geometry, air):
    from zsrpsim.fading import FadingParams

    cfg = ScenarioConfig(geometry=geometry, air=air, fading=FadingParams(m1=2.0, m2=2.0),
                         scheme=SchemeId.FCR_RS)
    out = an.zsrp_for_scheme(cfg)
    assert math.isclose(out.value, RS_DEFAULT, rel_tol=1e-10)
