"""Self-contained special functions for the closed-form secrecy expressions.

Everything here is implemented from first principles on top of the Python
math module and numpy arrays: no scipy, and no complex arithmetic.
Arrays in, arrays out; ``regularized_upper_gamma`` alone is scalar.
Provided primitives:

* ``regularized_upper_gamma`` / ``regularized_upper_gamma_vec`` -- Q(a, x)
  for integer shape a, scalar and array forms of one implementation
* ``regularized_lower_gamma_tail`` -- P(a, x) = 1 - Q(a, x) by its
  positive series, for the lower tail where 1 - Q is rounding noise
* ``log_bessel_k``    -- ln K_nu(x), modified Bessel K of integer orders
  broadcast against the arguments, one upward recurrence per argument
* ``log_sum_exp``     -- signed sum of exponentials in log space, one
  per row of a (rows x terms) array
* ``apply_math``      -- a math-module function mapped over an array
* ``adaptive_gl``     -- breadth-first adaptive Gauss-Legendre integrals
  of many integrands at once, over one bracket and tolerance or one
  each, bit for bit the depth-first recursion's or NaN where it fails
* ``meijer_g_m0_log`` -- ln G^{3,0}_{1,3}(x | (1-mu)/2; nu/2, -nu/2,
  -(mu+1)/2), the seed of the closed form, by the positive Bessel tail
  integral x^(-(mu+1)/2) 2^(1-mu) int_{2 sqrt x}^inf u^mu K_nu(u) du,
  at every seed of an array in one batched quadrature, NaN with its
  reason where a seed refuses

The array forms give every element bit for bit the value of the same
arithmetic on Python floats: numpy's elementwise + - * / and sqrt round
as Python does, and every log, exp and expm1 that the float arithmetic
takes from the math module is that math function mapped over the
elements (``apply_math``), because numpy's SIMD versions round
differently from the C library on some arguments.  K0/K1 take a fixed
count of the same steps in every lane: 16 series terms at x <= 2, a
21-node trapezoid rule above.  So every element of a batch gets the
bits of its own one-element call.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable

import numpy as np

EULER_GAMMA = 0.5772156649015328606

def regularized_upper_gamma_vec(a: int, x: np.ndarray) -> np.ndarray:
    """Regularized upper incomplete gamma Q(a, x), integer a >= 1, x >= 0.

    Uses the finite Poisson sum Q(a, x) = exp(-x) * sum_{t<a} x^t / t!.
    The terms follow the multiplicative recurrence term_t = term_{t-1} *
    (x / t) along a trailing axis of length a, and products and sums
    accumulate sequentially, so each term carries a single rounding beyond
    its predecessor.  Where exp(-x) underflows (x >= 700) the terms are
    summed in log space by :func:`log_sum_exp` instead; a value below the
    double range comes back as 0.0.
    """
    if a < 1 or int(a) != a:
        raise ValueError(f"shape must be a positive integer, got {a!r}")
    a = int(a)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("x must be >= 0")
    terms = np.empty(x.shape + (a,))
    terms[..., 0] = np.exp(-x)
    np.divide(x[..., None], np.arange(1, a), out=terms[..., 1:])
    np.multiply.accumulate(terms, axis=-1, out=terms)
    np.add.accumulate(terms, axis=-1, out=terms)
    out = np.minimum(terms[..., -1], 1.0)
    big = x >= 700.0
    if np.any(big):
        xb = x[big]
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, a)))))
        log_terms = np.arange(a) * np.log(xb)[:, None] - log_fact - xb[:, None]
        out[big] = np.minimum(np.exp(log_sum_exp(log_terms)[0]), 1.0)
    return out


def regularized_lower_gamma_tail(a: int, x: np.ndarray,
                                 x_max: float) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, x), integer a >= 1, for
    0 < x <= ``x_max`` < a + 1.

    Sums the positive series (DLMF 8.7.1)

        P(a, x) = exp(-x) x^a / a! * sum_k x^k / ((a+1) ... (a+k)),

    so a P far below the rounding of 1 - Q(a, x) keeps its relative
    accuracy.  The terms come from one multiplicative accumulate along a
    trailing axis; the term count takes the geometric remainder of the
    ratio ``x_max`` / (a+1) below the double precision epsilon, so each
    element of ``x`` gets the bits it gets alone.
    """
    x = np.asarray(x, dtype=float)
    eps = np.finfo(float).eps
    r = max(x_max / (a + 1), eps)
    n = math.ceil(math.log(eps * (1.0 - r)) / math.log(r))
    terms = np.empty(x.shape + (n,))
    terms[..., 0] = np.exp(a * np.log(x) - x - math.lgamma(a + 1))
    np.divide(x[..., None], np.arange(a + 1, a + n), out=terms[..., 1:])
    np.multiply.accumulate(terms, axis=-1, out=terms)
    return terms.sum(axis=-1)


def regularized_upper_gamma(a: int, x: float) -> float:
    """Scalar form of :func:`regularized_upper_gamma_vec`."""
    return float(regularized_upper_gamma_vec(a, np.array([x], dtype=float))[0])


#: Most elements :func:`apply_math` holds as Python floats at once
_MATH_CHUNK = 1024


def apply_math(fn: Callable[[float], float], a: np.ndarray) -> np.ndarray:
    """The math-module function ``fn`` applied to each element of ``a``.

    numpy's SIMD log, exp and expm1 round differently from the C library
    on some arguments, so array code that must equal a scalar
    ``math.log`` / ``math.exp`` / ``math.expm1`` expression bit for bit
    maps the math function instead.  The elements become Python floats
    ``_MATH_CHUNK`` at a time, so a large array never has all of its
    elements as Python floats at once.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    values = chain.from_iterable(flat[i:i + _MATH_CHUNK].tolist()
                                 for i in range(0, flat.size, _MATH_CHUNK))
    return np.fromiter(map(fn, values), float, a.size).reshape(a.shape)


def _bessel_k01_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending series for K0(x), K1(x) at each entry of a 1-D array.

    Intended for 0 < x <= 2, where q = x^2 / 4 <= 1: the 16th term is
    below 1e-26 of each sum, so a fixed 16 terms serve every lane.
    """
    q = 0.25 * x * x
    lh = apply_math(math.log, 0.5 * x)
    # I0, I1 and the companion sums share the q^k / (k!)^2-type terms
    i0 = np.ones(x.size)
    i1 = 0.5 * x
    s0 = np.zeros(x.size)                       # sum H_k q^k / (k!)^2
    s1 = np.full(x.size, 1.0 - 2.0 * EULER_GAMMA)
    # s1: sum (H_k + H_{k+1} - 2 gamma) q^k / (k!(k+1)!)
    term0 = np.ones(x.size)
    term1 = np.ones(x.size)
    hk = 0.0
    for k in range(1, 17):
        term0 = term0 * (q / (k * k))
        term1 = term1 * (q / (k * (k + 1)))
        hk += 1.0 / k
        i0 = i0 + term0
        i1 = i1 + 0.5 * x * term1
        s0 = s0 + term0 * hk
        s1 = s1 + term1 * (2.0 * hk + 1.0 / (k + 1) - 2.0 * EULER_GAMMA)
    k0 = -(lh + EULER_GAMMA) * i0 + s0
    k1 = 1.0 / x + lh * i1 - 0.25 * x * s1
    return k0, k1


#: Trapezoid nodes v_k = 0.3 k squared, and weights 0.3 exp(-v_k^2) with
#: the first halved, of :func:`_bessel_k01_trapezoid`
_K01_V2 = np.array([(0.3 * k) ** 2 for k in range(21)])
_K01_W = np.array([0.3 * math.exp(-v2) for v2 in _K01_V2.tolist()])
_K01_W[0] *= 0.5


def _bessel_k01_trapezoid(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(x)*K0(x), exp(x)*K1(x) at each entry of a 1-D array, x > 2.

    With sinh(t/2) = v / sqrt(2x), K_nu(x) = int_0^inf exp(-x cosh t)
    cosh(nu t) dt (DLMF 10.32.9) becomes, for nu = 0 and 1,

        exp(x) K_nu(x) = sqrt(2/x) int_0^inf exp(-v^2)
                         (1 + nu v^2 / x) / sqrt(1 + v^2 / (2x)) dv,

    an even integrand analytic in the strip |Im v| < sqrt(2x), whose
    branch points +-i sqrt(2x) sit at least 2 off the real axis for
    x >= 2.  On the strip of half-width a = 2 the trapezoid rule with
    step h = 0.3 errs by about exp(a^2 - 2 pi a / h) < 4e-17 of the
    integral (Trefethen and Weideman, SIAM Review 56, 2014), and the
    first node left out, v = 6.3, weighs below 2e-18.  The weights are
    fixed, so each lane takes the same 21 terms of + * / and sqrt,
    summed as one row of a (lanes, 21) array: bit for bit its value
    alone.
    """
    xc = x[:, None]
    t0 = _K01_W / np.sqrt(1.0 + _K01_V2 / (2.0 * xc))
    t1 = t0 * (1.0 + _K01_V2 / xc)
    scale = np.sqrt(2.0 / x)
    return scale * t0.sum(axis=1), scale * t1.sum(axis=1)


def _bessel_k01_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(x)*K0(x), exp(x)*K1(x) at each entry x > 0 of a 1-D array."""
    k0, k1 = np.empty(x.size), np.empty(x.size)
    series = x <= 2.0
    if series.any():
        xs = x[series]
        k0s, k1s = _bessel_k01_series(xs)
        ex = apply_math(math.exp, xs)
        k0[series], k1[series] = k0s * ex, k1s * ex
    if not series.all():
        k0[~series], k1[~series] = _bessel_k01_trapezoid(x[~series])
    return k0, k1


_LOG_1E280 = 280.0 * math.log(10.0)


def _scaled_k_table(nu_max: int, flat: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """exp(x) K_n(x) / carry factor and ln carry factor, n = 0 .. nu_max.

    Two tables with one row per order (at least orders 0 and 1) and one
    column per argument of ``flat``, from one upward recurrence over
    every lane with an explicit exponent carry per lane.  Each step
    writes one contiguous row, recorded after its rescale check, so row
    n holds exactly what a recurrence stopped at order n holds.  The
    carry table is allocated once some lane first rescales past 1e280;
    until then every carry is 0, and ``None`` stands for a table of
    zeros.
    """
    km, kc = _bessel_k01_scaled(flat)
    scaled = np.empty((max(nu_max, 1) + 1, flat.size))
    scaled[0], scaled[1] = km, kc
    carry = None
    lane_carry = np.zeros(flat.size)
    # below x ~ 1e-28 one step from a rescaled 1e280 can pass the double
    # range; that lane goes to inf silently, as the float recurrence does
    with np.errstate(over="ignore"):
        for n in range(1, nu_max):
            # K_(n+1) = K_(n-1) + (2n / x) K_n, formed in its own row
            row = scaled[n + 1]
            np.divide(2.0 * n, flat, out=row)
            row *= kc
            row += km
            km, kc = kc, row
            if not kc.max() <= 1e280:  # NaN-safe: then test each lane
                big = kc > 1e280
                # km is the previous row as recorded: rescale a copy
                km = km.copy()
                km[big] *= 1e-280
                kc[big] *= 1e-280
                lane_carry[big] += _LOG_1E280
                if carry is None:
                    carry = np.zeros(scaled.shape)
            if carry is not None:
                carry[n + 1] = lane_carry
    return scaled, carry


def log_bessel_k(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ln K_nu(x), integer orders nu >= 0 broadcast against arguments x > 0.

    One order per argument, or a row of orders against a column of
    arguments (``x[:, None]``), one row of values per argument.  Each
    argument runs one upward recurrence on exp(x)-scaled values with an
    explicit exponent carry, safe for huge orders and arguments, and each
    value takes one log: bit for bit what a recurrence at its argument
    alone, stopped at its order, gives.
    """
    orders = np.asarray(nu)
    if not np.all(np.isfinite(orders) & (orders >= 0)
                  & (orders == np.floor(orders))):
        raise ValueError(f"order must be a nonnegative integer, got {nu!r}")
    orders = orders.astype(int)
    flat = np.asarray(x, dtype=float).ravel()
    if not np.all(flat > 0.0):
        bad = float(flat[~(flat > 0.0)][0])
        raise ValueError(f"argument must be > 0, got {bad!r}")
    scaled, carry = _scaled_k_table(int(orders.max(initial=0)), flat)
    lane = np.arange(flat.size).reshape(np.shape(x))
    log_k = apply_math(math.log, scaled[orders, lane])
    if carry is not None:
        log_k += carry[orders, lane]
    log_k -= flat[lane]
    return log_k


def log_sum_exp(log_terms: np.ndarray, signs: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """(log|sum|, sign) of sum_i signs_i * exp(log_terms_i) along the last axis.

    A (rows x terms) input gives two arrays with one entry per row.  An
    empty or exactly cancelled sum gives (-inf, 0.0).
    """
    logs = np.asarray(log_terms, dtype=float)
    log_abs = np.full(logs.shape[:-1], -math.inf)
    sign = np.zeros(logs.shape[:-1])
    if logs.shape[-1]:
        m = np.max(logs, axis=-1)
        shift = np.where(m == -math.inf, 0.0, m)
        terms = np.exp(logs - shift[..., None])
        if signs is not None:
            terms = np.asarray(signs, dtype=float) * terms
        # a row sums exactly as a lone 1-D np.sum of that row does
        total = np.sum(terms, axis=-1)
        ok = (m != -math.inf) & (total != 0.0)
        log_abs[ok] = m[ok] + apply_math(math.log, np.abs(total[ok]))
        sign[ok] = np.copysign(1.0, total[ok])
    return log_abs, sign


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL_MAX_DEPTH = 16  # panel halvings before the quadrature gives up
#: Most panels (of 24 points each) that one integrand call evaluates; a
#: wider refinement level is split into several calls, which bounds the
#: arrays a call allocates without costing speed.
_GL_PANELS_PER_CALL = 16


def _panel_sums(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                lo: np.ndarray, hi: np.ndarray, rows: np.ndarray
                ) -> np.ndarray:
    """24-point Gauss-Legendre sum over each panel [lo_i, hi_i] of integral rows_i."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    sums = np.empty(lo.size)
    for start in range(0, lo.size, _GL_PANELS_PER_CALL):
        part = slice(start, start + _GL_PANELS_PER_CALL)
        x = mid[part, None] + half[part, None] * _GL_NODES
        fx = f(x.ravel(), np.repeat(rows[part], _GL_NODES.size)).reshape(x.shape)
        # one dot per panel, as a lone panel takes it: a matrix-vector
        # product may sum in another order
        sums[part] = [h * float(np.dot(_GL_WEIGHTS, row))
                      for h, row in zip(half[part], fx)]
    return sums


def adaptive_gl(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                lo, hi, abs_tol, count: int) -> np.ndarray:
    """Adaptive Gauss-Legendre integrals over [lo, hi] of ``count`` integrands.

    ``f(x, rows)`` returns integrand ``rows[i]`` at ``x[i]``, elementwise.
    ``lo``, ``hi`` and ``abs_tol`` are one value for every integral or
    one per integral.  A panel whose halves differ from it by more than
    its tolerance, or whose sum is not finite, is split, each half taking
    half the tolerance, up to ``_GL_MAX_DEPTH`` halvings, past which an
    integral still open comes back NaN in place.  The refinement runs
    breadth first: one level's left and right halves of every open panel
    of every integral go to ``f`` together, at most
    ``_GL_PANELS_PER_CALL`` panels per call.  Each panel sum, convergence
    test and left + right fold is the one a depth-first recursion makes,
    so each integral comes out bit for bit as if integrated alone.
    """
    rows = np.arange(count)
    a = np.broadcast_to(np.asarray(lo, dtype=float), (count,))
    b = np.broadcast_to(np.asarray(hi, dtype=float), (count,))
    tol = np.broadcast_to(np.asarray(abs_tol, dtype=float), (count,))
    whole = _panel_sums(f, a, b, rows)
    levels: list[tuple[np.ndarray, np.ndarray]] = []
    for depth in range(_GL_MAX_DEPTH + 1):
        mid = 0.5 * (a + b)
        halves = _panel_sums(f, np.concatenate((a, mid)),
                             np.concatenate((mid, b)), np.tile(rows, 2))
        left, right = halves[:a.size], halves[a.size:]
        total = left + right
        with np.errstate(invalid="ignore"):  # inf - inf: the panel splits
            done = np.abs(total - whole) <= tol
        levels.append((total, done))
        if done.all():
            break
        if depth >= _GL_MAX_DEPTH:
            total[~done] = math.nan
            break
        split = ~done
        a = np.concatenate((a[split], mid[split]))
        b = np.concatenate((mid[split], b[split]))
        whole = np.concatenate((left[split], right[split]))
        tol = np.tile(0.5 * tol[split], 2)
        rows = np.tile(rows[split], 2)
    # fold back up the tree: a split panel is its left plus its right half
    value = levels[-1][0]
    for total, done in reversed(levels[:-1]):
        n_split = value.size // 2
        total[~done] = value[:n_split] + value[n_split:]
        value = total
    return value


#: Largest lower limit 2 sqrt(x) of a seed's tail integral.  ln G is
#: about -2 sqrt(x), so past it the rounding of ln G alone exceeds 1e-12
#: (1.1e-12 at x = 5e5 against a 40-digit reference), and from x ~ 5e7 on
#: the grid's bracket misses the e^-u edge layer of the integrand, of
#: width 1/u in t = ln u, and ln G comes out tens of nats off.
_SEED_U_LO_MAX = 1e3


def meijer_g_m0_log(mu, nu, x) -> tuple[np.ndarray, list[str]]:
    """ln G^{3,0}_{1,3}(x | (1-mu)/2; nu/2, -nu/2, -(mu+1)/2), integer nu,
    and the reason each seed refuses.

    Uses the tail-integral identity

        G(x) = x^{-(mu+1)/2} * 2^{1-mu} * int_{2 sqrt(x)}^inf u^mu K_nu(u) du,

    whose integrand is positive, so the evaluation is cancellation-free
    for any parameter size and G is positive.  The Bessel factor runs
    through the log-scaled recurrence, keeping huge orders finite.

    Equal-length 1-D arrays give one value per seed, each bit for bit
    its one-seed call's: one Bessel-K call over a fixed (seeds x n) grid
    brackets every seed, then one :func:`adaptive_gl` integrates each over
    its own bracket and tolerance.  A seed refuses in place, with ln G
    NaN, its reason ("" where it holds) naming a lower limit 2 sqrt(x)
    past ``_SEED_U_LO_MAX``, an integrand whose log is not finite on the
    bracketing grid or that does not decay, or a quadrature that does not
    reach its tolerance; it goes no further.  A non-finite mu, a
    non-finite or non-integer nu, or an x <= 0 raises ``ValueError``.
    """
    mus, nus, xs = (np.asarray(v, dtype=float) for v in (mu, nu, x))
    if not np.all((xs > 0.0) & np.isfinite(mus + nus)):
        raise ValueError(f"need finite mu, nu and x > 0, got {mu}, {nu}, {x}")
    fractional = nus != np.floor(nus)
    if np.any(fractional):
        i = int(fractional.argmax())
        raise ValueError(f"order must be a nonnegative integer, got "
                         f"nu = {float(nus[i])!r} at seed {i}")
    u_lo = 2.0 * np.sqrt(xs)
    reasons = np.array([f"Bessel tail integral from 2 sqrt(x) = {u:.4g} is past "
                        f"{_SEED_U_LO_MAX:g}, beyond which its ln G misses 1e-12"
                        if u > _SEED_U_LO_MAX else "" for u in u_lo.tolist()], object)
    seeds = np.flatnonzero(u_lo <= _SEED_U_LO_MAX)
    mu1, orders, u_lo = mus[seeds] + 1.0, np.abs(nus[seeds]), u_lo[seeds]

    # integrate in t = ln u so the bracket width stays a few nats wide;
    # du = u dt folds into the exponent.  The tolerance is absolute on the
    # peak-normalized integral, whose value falls to about 1 / (2 sqrt x)
    # once the peak sits at the lower end, so it is not a relative one:
    # tolerance / value is 1.3e-11 at x = 1, 4.1e-10 at 2.39e4 (the largest
    # default fig2/fig4 seed) and 1.4e-9 at 2.5e5, at (mu, nu) = (28, 32).  The
    # 24-point rule over-delivers, so the seeds stay at rounding level
    # against 40-digit references.  Every array of points, each of its seed
    # ``rows[i]``, takes one Bessel-K recurrence, each value bit for bit
    # what that point alone gives.
    def log_g(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return (mu1[rows] * apply_math(math.log, u)
                + log_bessel_k(orders[rows], u))

    # one geometric grid u_lo, 1.2 u_lo, ... per seed; its cutoff is the
    # first point past the tail floor 60 nats below the running peak, which
    # sits near sqrt(mu^2 - nu^2) when that exceeds u_lo.  K_{nu+1} / K_nu >
    # (nu + sqrt(nu^2 + u^2)) / u (Segura, JMAA 374, 2011) bounds the slope
    # of log_g by (mu + 1 - sqrt(nu^2 + u^2)) / u <= -1/2 from u_ok >= 50 on,
    # so each x1.2 step there drops over 5 nats and the cutoff comes at most
    # 12 points past u_ok; n keeps one point more for the rounded products.
    tail_floor = np.maximum(np.maximum(u_lo * 4.0, orders * 3.0), 50.0)
    u_ok = np.maximum(tail_floor, 2.0 * mu1)
    n = 14 + int(np.ceil(np.log(u_ok / u_lo) / math.log(1.2)).max(initial=0))
    us = np.multiply.accumulate(
        np.column_stack((u_lo, np.full((seeds.size, n - 1), 1.2))), axis=1)
    lanes = np.arange(seeds.size)
    # in calls of at most _GL_PANELS_PER_CALL panels' worth of points, as
    # the quadrature takes them: each call's Bessel table stays small.
    # Where the recurrence passes the double range (a radius past ~1e40
    # m puts 2 sqrt(x) near 1e-40) the grid cannot bracket the seed
    points, rows = us.ravel(), np.repeat(lanes, n)
    gs = np.empty(points.size)
    chunk = _GL_PANELS_PER_CALL * _GL_NODES.size
    for start in range(0, points.size, chunk):
        part = slice(start, start + chunk)
        gs[part] = log_g(points[part], rows[part])
    gs = gs.reshape(us.shape)
    peaks = np.maximum.accumulate(gs, axis=1)
    stop = ((gs < peaks - 60.0) & (us > tail_floor[:, None])).argmax(axis=1)
    u_hi, g_max = us[lanes, stop], peaks[lanes, stop]
    finite = np.isfinite(gs).all(axis=1)
    decays = us[lanes, stop - 1] <= 1e8
    reasons[seeds[~finite]] = ("ln of the Bessel tail integrand is not finite "
                               "on the bracketing grid")
    reasons[seeds[finite & ~decays]] = "Bessel tail integral fails to decay"
    ok = np.flatnonzero(finite & decays)

    def shifted(ts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return apply_math(math.exp, log_g(apply_math(math.exp, ts), ok[rows])
                          - g_max[ok[rows]])

    t_lo, t_hi = (apply_math(math.log, u[ok]) for u in (u_lo, u_hi))
    vals = adaptive_gl(shifted, t_lo, t_hi, 1e-12 * (t_hi - t_lo), ok.size)
    reasons[seeds[ok][np.isnan(vals)]] = "quadrature failed to converge"
    log_gs = np.full(xs.size, math.nan)
    log_gs[seeds[ok]] = (-0.5 * mu1[ok] * apply_math(math.log, xs[seeds[ok]])
                         + (1.0 - mus[seeds[ok]]) * math.log(2.0)
                         + (g_max[ok] + apply_math(math.log, vals)))
    return log_gs, reasons.tolist()
