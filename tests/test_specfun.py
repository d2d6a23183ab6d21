"""Special-function kernels against independent oracles.

Linear-space Bessel K values are the package's log-space values
exponentiated (``oracles.bessel_k``).  Groups 1 and 4 check the
Mellin-Barnes contour oracle (``oracles.meijer_g_m0_log_contour``), the
independent reference against which the package's tail-integral Meijer-G
seeds are checked in ``test_analytic`` and acceptance criterion 4.

Proves:
 Group 1 — complex log-gamma (the Lanczos kernel of the contour oracle)
   frozen values ln 24 and ln sqrt(pi); agreement with math.lgamma on a
   wide real grid and with scipy.special.loggamma off the real axis (modulo
   2 pi i); recurrence lnG(x+1) = lnG(x) + ln x (property); Re z < 0.5
   refused.

 Group 2 — regularized upper incomplete gamma Q(a, x)
   frozen Q(4,2) against the finite Poisson sum and Q(1,1) = 1/e; agreement
   with scipy.special.gammaincc including the x > 700 continued-path, in
   scalar and vector form alike (bit-equal to each other); below x = 700
   the vector form equals the term-by-term loop bit for bit; bounds
   0 <= Q <= 1 and monotone decay in x (property); Q(a, 0) = 1.

 Group 3 — modified Bessel K
   K0(1), K1(1) against quadrature of the integral representation
   int_0^inf exp(-x cosh t) cosh(nu t) dt at 1e-10 relative; grid agreement
   with scipy.special.kv; three-term recurrence at 1e-9; large-argument
   asymptotic sqrt(pi/2x) e^{-x} within 1% at x = 50; log_bessel_k
   against log(kve) - x and, for order 200, against a shifted log-space
   quadrature of the same integral representation.  exp(x) K0(x) and
   exp(x) K1(x) at 16 points from 1e-300 to 1e9 against frozen 40-digit
   mpmath values: 1e-15 relative above x = 2 (the trapezoid rule), 4e-15
   at or below (the series).  log_bessel_k is the one Bessel-K
   function: with the row of orders 0 .. nu_max at one argument, every
   entry equals the per-order recurrence oracle bit for
   bit (orders 0 and 1, both K0/K1 branches, across the 1e280 rescale),
   a scalar order gives the row's last entry, integral float orders
   equal integer ones, and a row holding a negative, fractional, NaN or
   infinite order, or an argument <= 0 or NaN, is refused.  The array
   forms run each argument as its own lane: K0/K1 on both branches and
   across x = 2, and every row of a row of orders against a column of
   arguments (across the rescale too), equal the scalar float oracles
   bit for bit, as does a row of orders out of sequence, repeated and
   not starting at 0 (the series CDF's |m2 L - t|); one bad argument
   refuses the array.  One order per lane (orders 0..64 on both branches
   and past the rescale) gives each lane the last entry of its own
   scalar recurrence bit for bit, and one bad order refuses the array.

 Group 4 — Mellin-Barnes Meijer G oracle, all-poles-left kind
   G^{1,0}_{0,1}(x | -; 0) = e^{-x}; G^{2,0}_{0,2}(z | -; nu/2, -nu/2)
   = 2 K_nu(2 sqrt z) at 1e-6 relative, including large z where the saddle
   contour matters; argument validation.

 Group 5 — signed log-sum-exp
   agreement with direct summation, exact cancellation, empty input; a
   (rows x terms) input gives each row's 1-D result bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from zsrpsim import specfun

from oracles import (bessel_k, bessel_k01_scaled_scalar, log_bessel_k_loop,
                     ln_gamma_complex, log_bessel_k_upto_scalar,
                     meijer_g_m0, meijer_g_m0_log_contour,
                     upper_gamma_poisson_loop)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


# Frozen from the quadrature oracle below (scipy agrees to the same digits).
K0_AT_1 = 0.42102443824070834
K1_AT_1 = 0.6019072301972346


def bessel_k_integral(nu: float, x: float) -> float:
    """Independent route: quadrature of the integral representation."""
    val, err = integrate.quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t),
        0.0,
        60.0,
        limit=400,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    assert err < 1e-11 * max(val, 1e-300)
    return val


# --- Group 1: complex log-gamma ---


def ln_gamma(x: float) -> float:
    """Real part of the contour oracle's complex log-gamma at a real argument."""
    return float(ln_gamma_complex(np.array([x], dtype=complex))[0].real)


def test_ln_gamma_frozen_values():
    assert math.isclose(ln_gamma(5.0), math.log(24.0), rel_tol=1e-12)
    assert math.isclose(ln_gamma(0.5), 0.5 * math.log(math.pi), rel_tol=1e-12)


def test_ln_gamma_matches_lgamma_grid():
    for x in (0.5, 1.0, 1.5, 3.7, 10.0, 50.0, 171.0, 1e4):
        assert math.isclose(ln_gamma(x), math.lgamma(x), rel_tol=1e-13, abs_tol=1e-13)


def test_ln_gamma_complex_vs_scipy_loggamma():
    # the contour puts s on vertical lines, so check off the real axis too;
    # only exp(lnG) is used, so the imaginary part counts modulo 2 pi
    z = np.array([complex(a, b) for a in (0.5, 1.0, 3.3, 20.0, 120.0)
                  for b in (0.7, 5.0, 40.0, 300.0)])
    got = ln_gamma_complex(z)
    ref = special.loggamma(z)
    assert np.all(np.abs(got.real - ref.real) <= 1e-13 * np.maximum(1.0, np.abs(ref.real)))
    turn = np.angle(np.exp(1j * (got.imag - ref.imag)))
    assert np.all(np.abs(turn) <= 1e-13 * np.maximum(1.0, np.abs(ref.imag)))


@given(st.floats(min_value=0.5, max_value=80.0))
@settings(max_examples=50, deadline=None)
def test_ln_gamma_recurrence(x):
    lhs = ln_gamma(x + 1.0)
    rhs = ln_gamma(x) + math.log(x)
    assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10)


def test_ln_gamma_domain():
    # the contours keep every argument at Re z >= 0.5, so no reflection
    with pytest.raises(ValueError):
        ln_gamma(0.0)
    with pytest.raises(ValueError):
        ln_gamma(-2.5)


# --- Group 2: regularized upper incomplete gamma ---


def test_upper_gamma_frozen():
    # integer a: Q(4,2) = e^{-2} (1 + 2 + 2 + 4/3), the finite Poisson sum
    exact = math.exp(-2.0) * (1.0 + 2.0 + 2.0 + 4.0 / 3.0)
    assert math.isclose(specfun.regularized_upper_gamma(4.0, 2.0), exact, rel_tol=1e-12)
    assert math.isclose(specfun.regularized_upper_gamma(1.0, 1.0), math.exp(-1.0), rel_tol=1e-12)


def test_upper_gamma_vs_scipy_grid():
    for a in (1, 2, 4, 10, 64, 200):
        for x in (1e-3, 0.1, 1.0, 5.0, 40.0, 300.0):
            got = specfun.regularized_upper_gamma(a, x)
            ref = float(special.gammaincc(a, x))
            assert math.isclose(got, ref, rel_tol=1e-10, abs_tol=1e-300), (a, x)


def test_upper_gamma_large_x_path():
    # past x ~ 700 the plain Poisson sum would overflow e^{-x} scaling
    for a, x in ((4.0, 800.0), (32.0, 750.0), (120.0, 900.0)):
        got = specfun.regularized_upper_gamma(a, x)
        ref = float(special.gammaincc(a, x))
        if ref == 0.0:
            assert got == 0.0
        else:
            assert math.isclose(got, ref, rel_tol=1e-8), (a, x)
    # hopeless underflow collapses to exactly zero
    assert specfun.regularized_upper_gamma(1.0, 800.0) == 0.0
    # the vector form takes the same path element by element, mixed with
    # points below the switch, and matches the scalar form bit for bit
    for a in (4, 32, 120, 800):
        x = np.array([0.0, 5.0, 650.0, 699.9, 700.0, 750.0, 900.0, 1e5])
        got = specfun.regularized_upper_gamma_vec(a, x)
        ref = special.gammaincc(a, x)
        assert np.allclose(got, ref, rtol=1e-8, atol=1e-300), a
        assert [specfun.regularized_upper_gamma(a, xi) for xi in x] == list(got)


def test_upper_gamma_matches_poisson_loop():
    # the accumulated array form keeps the loop's operation order exactly
    grid = np.concatenate([[0.0, 1e-300], np.geomspace(1e-3, 699.99, 400)])
    for a in (1, 2, 7, 32, 64, 200):
        got = specfun.regularized_upper_gamma_vec(a, grid)
        assert np.array_equal(got, upper_gamma_poisson_loop(a, grid)), a


def test_upper_gamma_at_zero_and_domain():
    assert specfun.regularized_upper_gamma(3, 0.0) == 1.0
    with pytest.raises(ValueError):
        specfun.regularized_upper_gamma(0, 1.0)
    with pytest.raises(ValueError):
        specfun.regularized_upper_gamma(2.5, 1.0)
    with pytest.raises(ValueError):
        specfun.regularized_upper_gamma(2, -1.0)


@given(
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=0.0, max_value=80.0),
    st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=50, deadline=None)
def test_upper_gamma_bounded_and_decreasing(a, x, dx):
    q0 = specfun.regularized_upper_gamma(a, x)
    q1 = specfun.regularized_upper_gamma(a, x + dx)
    assert 0.0 <= q0 <= 1.0 and 0.0 <= q1 <= 1.0
    # monotone in x up to rounding: both values may sit within an ulp of 1
    assert q1 <= q0 + 5e-16


# --- Group 3: modified Bessel K ---


def test_bessel_k_integral_representation():
    # the stated oracle: direct quadrature of the integral representation
    assert math.isclose(bessel_k(0.0, 1.0), bessel_k_integral(0.0, 1.0), rel_tol=1e-10)
    assert math.isclose(bessel_k(1.0, 1.0), bessel_k_integral(1.0, 1.0), rel_tol=1e-10)
    # and the frozen digits stay put
    assert math.isclose(bessel_k(0.0, 1.0), K0_AT_1, rel_tol=1e-12)
    assert math.isclose(bessel_k(1.0, 1.0), K1_AT_1, rel_tol=1e-12)


def test_bessel_k_vs_scipy_grid():
    for nu in (0, 1, 2, 3, 7, 15):
        for x in (0.05, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 600.0):
            got = bessel_k(nu, x)
            ref = float(special.kv(nu, x))
            assert math.isclose(got, ref, rel_tol=5e-12, abs_tol=1e-300), (nu, x)


def test_bessel_k_recurrence():
    # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
    for nu in (1, 2, 5):
        for x in (0.3, 1.0, 3.0, 12.0):
            lhs = bessel_k(nu + 1, x)
            rhs = bessel_k(nu - 1, x) + (2.0 * nu / x) * bessel_k(nu, x)
            assert math.isclose(lhs, rhs, rel_tol=1e-9), (nu, x)


@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.2, max_value=40.0),
)
@settings(max_examples=40, deadline=None)
def test_bessel_k_recurrence_property(nu, x):
    lhs = bessel_k(nu + 1, x)
    rhs = bessel_k(nu - 1, x) + (2.0 * nu / x) * bessel_k(nu, x)
    assert math.isclose(lhs, rhs, rel_tol=1e-9)


def test_bessel_k_asymptotic():
    x = 50.0
    approx = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
    assert abs(bessel_k(0.0, x) - approx) / approx < 0.01


def test_bessel_k_domain():
    with pytest.raises(ValueError):
        bessel_k(1, 0.0)
    with pytest.raises(ValueError):
        bessel_k(1, -3.0)
    with pytest.raises(ValueError):
        bessel_k(1.5, 1.0)
    with pytest.raises(ValueError):
        bessel_k(-1, 1.0)


def test_log_bessel_k_vs_scaled_scipy():
    # log K_nu(x) = log kve(nu, x) - x, valid wherever kve is finite
    for nu in (0.0, 1.0, 3.0, 10.0):
        for x in (0.5, 5.0, 50.0, 800.0, 5000.0):
            got = specfun.log_bessel_k(nu, x)
            ref = math.log(float(special.kve(nu, x))) - x
            assert math.isclose(got, ref, rel_tol=1e-10, abs_tol=1e-8), (nu, x)


def test_log_bessel_k_huge_order():
    # scipy overflows at this order, so compare against shifted log-space
    # quadrature of the integral representation
    nu, x = 200.0, 1.0

    def log_integrand(t: float) -> float:
        # log cosh(nu t) without overflow
        a = nu * t
        lc = a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0) if a > 0 else 0.0
        return -x * math.cosh(t) + lc

    t_peak = math.asinh(nu / x)
    shift = log_integrand(t_peak)
    val, err = integrate.quad(
        lambda t: math.exp(log_integrand(t) - shift), 0.0, t_peak + 50.0, limit=400
    )
    ref = shift + math.log(val)
    assert math.isclose(specfun.log_bessel_k(nu, x), ref, rel_tol=1e-8)


# x <= 2 takes the ascending K0/K1 series, x > 2 the trapezoid rule
UPTO_ARGS = (1e-3, 0.5, 2.0, 2.5, 30.0, 700.0)


@pytest.mark.parametrize("x", UPTO_ARGS)
@pytest.mark.parametrize("nu_max", [0, 1, 2, 32, 300])
def test_log_bessel_k_upto_equals_per_order_loop(nu_max, x):
    # the row of orders 0 .. nu_max at one argument
    got = specfun.log_bessel_k(np.arange(nu_max + 1), x).tolist()
    assert len(got) == nu_max + 1
    for n, log_k in enumerate(got):
        assert log_k == log_bessel_k_loop(n, x), (n, x)
    assert specfun.log_bessel_k(nu_max, x) == got[nu_max]


def test_log_bessel_k_upto_crosses_rescale():
    # ln K_300(1e-3) is several 1e280 rescales above the double range, so
    # the grid above exercises the exponent carry
    got = specfun.log_bessel_k(np.arange(301), 1e-3).tolist()
    assert got[-1] > 3.0 * 280.0 * math.log(10.0)
    assert all(math.isfinite(v) for v in got)


@pytest.mark.parametrize("nu_max, x", [(-1, 1.0), (1.5, 1.0), (3, 0.0),
                                       (3, -2.0), (3, math.nan),
                                       (math.nan, 1.0), (math.inf, 1.0)])
def test_log_bessel_k_upto_domain(nu_max, x):
    with pytest.raises(ValueError):
        specfun.log_bessel_k(np.array([0, nu_max]), x)


def test_log_bessel_k_upto_integral_float_order():
    assert (hexes(specfun.log_bessel_k(np.arange(4.0), 1.0))
            == hexes(specfun.log_bessel_k(np.arange(4), 1.0)))
    assert specfun.log_bessel_k(3.0, 1.0) == specfun.log_bessel_k(3, 1.0)


# both K0/K1 branches, the lanes on either side of x = 2 and large x
K01_ARGS = np.concatenate([np.geomspace(1e-3, 2.0, 40),
                           [np.nextafter(2.0, 3.0), 2.0065],
                           np.geomspace(2.001, 800.0, 40)])


def test_bessel_k01_array_matches_scalar_oracle():
    k0, k1 = specfun._bessel_k01_scaled(K01_ARGS)
    want = [bessel_k01_scaled_scalar(x) for x in K01_ARGS.tolist()]
    assert hexes(k0) == hexes([w[0] for w in want])
    assert hexes(k1) == hexes([w[1] for w in want])


#: (x, exp(x) K0(x), exp(x) K1(x)), from mpmath.besselk at 40 digits
K01_MPMATH = [
    (1e-300, 690.89145941387211763, 9.9999999999999997494e+299),
    (1e-30, 69.193484305479782886, 9.9999999999999991666e+29),
    (1e-06, 13.931456005075458808, 1.0000009999932843172e+6),
    (0.01, 4.7686940285444618845, 100.97864845824004908),
    (0.5, 1.52410938577390953, 2.7310097082117857054),
    (1.0, 1.1444630798068950147, 1.6361534862632582465),
    (1.82, 0.8784277681028787201, 1.0970461442425369003),
    (2.0, 0.84156821507077141792, 1.0334768470686885732),
    (2.0000000001, 0.84156821505158055313, 1.0334768470362055913),
    (2.37, 0.77852443294021985412, 0.93006138711563585387),
    (5.0, 0.54780756431351898687, 0.60027385878831258294),
    (20.0, 0.27854487665718222393, 0.28542549694072644517),
    (150.0, 0.10224771116019105277, 0.10258797256926120957),
    (3000.0, 0.022881327571932436828, 0.022885140808837419562),
    (1e6, 0.0012533139806513212103, 0.0012533146073081548719),
    (1e9, 3.9633272971105951014e-5, 3.9633272990922587495e-5),
]


def test_bessel_k01_matches_mpmath():
    xs, want0, want1 = (np.array(c) for c in zip(*K01_MPMATH))
    k0, k1 = specfun._bessel_k01_scaled(xs)
    # the trapezoid rule above x = 2; the series errs by 3.6e-15 at 1.82
    tol = np.where(xs > 2.0, 1e-15, 4e-15)
    assert np.all(np.abs(k0 - want0) <= tol * want0)
    assert np.all(np.abs(k1 - want1) <= tol * want1)


@pytest.mark.parametrize("nu_max", [0, 1, 2, 32, 300])
def test_log_bessel_k_upto_rows_match_scalar_oracle(nu_max):
    # shuffled so that lanes of both branches and of every rescale count mix
    xs = np.random.default_rng(5).permutation(np.concatenate([UPTO_ARGS, K01_ARGS]))
    got = specfun.log_bessel_k(np.arange(nu_max + 1), xs[:, None])
    assert got.shape == (xs.size, nu_max + 1)
    for row, x in zip(got, xs.tolist()):
        assert hexes(row) == hexes(log_bessel_k_upto_scalar(nu_max, x)), x
    assert hexes(specfun.log_bessel_k(nu_max, xs)) == hexes(got[:, -1])


def test_log_bessel_k_one_order_per_lane():
    # orders 0..64 spread over series lanes (x <= 2), continued-fraction
    # lanes and, at x = 1e-3 and order 64, a lane past a 1e280 rescale
    xs = np.random.default_rng(7).permutation(
        np.concatenate([UPTO_ARGS, K01_ARGS]))
    orders = np.arange(xs.size) % 65
    xs, orders = np.append(xs, 1e-3), np.append(orders, 64)
    got = specfun.log_bessel_k(orders, xs)
    assert got.shape == xs.shape
    assert got[-1] > 280.0 * math.log(10.0)
    want = [log_bessel_k_upto_scalar(n, x)[-1]
            for n, x in zip(orders.tolist(), xs.tolist())]
    assert hexes(got) == hexes(want)
    for bad in ([3, -1], [3, 1.5]):
        with pytest.raises(ValueError):
            specfun.log_bessel_k(np.array(bad), np.array([1.0, 2.0]))


def test_log_bessel_k_upto_array_domain():
    with pytest.raises(ValueError):
        specfun.log_bessel_k(np.arange(4), np.array([1.0, 0.0, 2.0])[:, None])
    with pytest.raises(ValueError):
        specfun.log_bessel_k(np.arange(4), np.array([math.nan, 2.0])[:, None])


def test_log_bessel_k_order_row_reads_its_orders():
    # the series CDF's row |m2 L - t|: orders out of sequence, repeated,
    # not starting at 0, against a column of arguments of both branches
    # and past the rescale; a scalar argument gives the row alone
    xs = np.concatenate([UPTO_ARGS, K01_ARGS])
    row = np.abs(40 - np.arange(70))
    got = specfun.log_bessel_k(row, xs[:, None])
    assert got.shape == (xs.size, row.size)
    for values, x in zip(got, xs.tolist()):
        want = log_bessel_k_upto_scalar(int(row.max()), x)
        assert hexes(values) == hexes([want[n] for n in row.tolist()]), x
    assert hexes(specfun.log_bessel_k(row, 1e-3)) == hexes(got[0])


# --- Group 4: Meijer G ---


def test_meijer_exponential_identity():
    # G^{1,0}_{0,1}(x | -; 0) = e^{-x}
    for x in (0.5, 2.0):
        log_g, sign = meijer_g_m0_log_contour([], [0.0], x)
        assert sign == 1.0
        assert math.isclose(math.exp(log_g), math.exp(-x), rel_tol=1e-8)


def test_meijer_bessel_identity():
    # G^{2,0}_{0,2}(z | -; nu/2, -nu/2) = 2 K_nu(2 sqrt z)
    for z in (0.25, 1.0, 4.0):
        for nu in (0.0, 1.0, 3.0):
            got = meijer_g_m0([], [0.5 * nu, -0.5 * nu], z)
            ref = 2.0 * float(special.kv(nu, 2.0 * math.sqrt(z)))
            assert math.isclose(got, ref, rel_tol=1e-6), (z, nu)


def test_meijer_bessel_identity_large_argument():
    # the saddle-point contour shift keeps the integrand decaying out here;
    # compare in log space against the exponentially scaled kve
    for z in (1.0e3, 5.0e4):
        log_g, sign = meijer_g_m0_log_contour([], [0.5, -0.5], z)
        rt = 2.0 * math.sqrt(z)
        ref = math.log(2.0 * float(special.kve(1.0, rt))) - rt
        assert sign == 1.0
        assert math.isclose(log_g, ref, rel_tol=1e-6), z


def test_meijer_three_denominator_case():
    # with a1 equal to one of the b's, Gamma(b3+s)/Gamma(a1+s) = 1 and the
    # (1,3) kind collapses onto the (0,2) kind: an exact cross-check of the
    # p = 1, q = 3 contour path
    z = 2.0
    nu = 1.0
    got = meijer_g_m0([0.7], [0.5 * nu, -0.5 * nu, 0.7], z)
    ref = 2.0 * float(special.kv(nu, 2.0 * math.sqrt(z)))
    assert math.isclose(got, ref, rel_tol=1e-6)


def test_meijer_argument_validation():
    with pytest.raises(ValueError):
        meijer_g_m0_log_contour([], [], 1.0)
    with pytest.raises(ValueError):
        meijer_g_m0_log_contour([], [0.5], -1.0)
    with pytest.raises(ValueError):
        meijer_g_m0_log_contour([], [0.5], 0.0)


# --- Group 5: signed log-sum-exp ---


def test_log_sum_exp_matches_direct():
    logs = [math.log(v) for v in (3.0, 2.0, 0.25)]
    signs = [1.0, -1.0, 1.0]
    log_abs, sign = specfun.log_sum_exp(logs, signs)
    assert sign == 1.0
    assert math.isclose(math.exp(log_abs), 1.25, rel_tol=1e-12)


def test_log_sum_exp_negative_total():
    log_abs, sign = specfun.log_sum_exp([math.log(2.0), math.log(5.0)], [1.0, -1.0])
    assert sign == -1.0
    assert math.isclose(math.exp(log_abs), 3.0, rel_tol=1e-12)


def test_log_sum_exp_cancellation_and_empty():
    log_abs, sign = specfun.log_sum_exp([math.log(3.0), math.log(3.0)], [1.0, -1.0])
    assert log_abs == -math.inf and sign == 0.0
    log_abs, sign = specfun.log_sum_exp([], [])
    assert log_abs == -math.inf and sign == 0.0


@given(
    st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=1, max_size=8),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_log_sum_exp_property(logs, data):
    signs = [data.draw(st.sampled_from([1.0, -1.0])) for _ in logs]
    total_mag = sum(math.exp(v) for v in logs)
    direct = sum(s * math.exp(v) for v, s in zip(logs, signs))
    log_abs, sign = specfun.log_sum_exp(logs, signs)
    if abs(direct) < 1e-12 * total_mag:
        return  # fully cancelled; a float comparison is meaningless here
    assert sign == math.copysign(1.0, direct)
    # Achievable accuracy degrades with the conditioning of the signed sum,
    # so the tolerance must scale with sum(|terms|) / |result|.
    kappa = total_mag / abs(direct)
    tol = max(1e-12, 64.0 * math.ulp(1.0) * kappa)
    assert math.isclose(math.exp(log_abs), abs(direct), rel_tol=tol)


def test_log_sum_exp_rows_match_each_row():
    rng = np.random.default_rng(11)
    logs = rng.normal(scale=20.0, size=(7, 33))
    signs = rng.choice([-1.0, 1.0], size=logs.shape)
    logs[2] = -math.inf                      # empty sum
    logs[4], signs[4] = 1.5, np.resize([1.0, -1.0], 33)
    logs[4, -1] = -math.inf                  # exactly cancelled
    log_abs, sign = specfun.log_sum_exp(logs, signs)
    want = [specfun.log_sum_exp(row, row_signs) for row, row_signs in zip(logs, signs)]
    assert hexes(log_abs) == hexes([w[0] for w in want])
    assert hexes(sign) == hexes([w[1] for w in want])
    assert (log_abs[2], sign[2]) == (log_abs[4], sign[4]) == (-math.inf, 0.0)
