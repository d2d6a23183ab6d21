"""Self-contained special functions for the closed-form secrecy expressions.

Everything here is implemented from first principles on top of the Python
math module and numpy arrays: no scipy, and no complex arithmetic.
Provided primitives:

* ``regularized_upper_gamma`` / ``regularized_upper_gamma_vec`` -- Q(a, x)
  for integer shape a, scalar and array forms of one implementation
* ``regularized_lower_gamma_tail`` -- P(a, x) = 1 - Q(a, x) by its
  positive series, for the lower tail where 1 - Q is rounding noise
* ``log_bessel_k_upto`` -- ln K_0(x) .. ln K_nu(x), modified Bessel K of
  every integer order up to nu, from one upward recurrence, at one x or
  at every x of an array (one lane per argument)
* ``log_bessel_k``    -- ln K_nu(x) alone, the last of those values
* ``log_sum_exp``     -- signed sum of exponentials in log space, one
  per row of a (rows x terms) array
* ``apply_math``      -- a math-module function mapped over an array
* ``adaptive_gl``     -- breadth-first adaptive Gauss-Legendre integrals
  of many integrands at once, each bit for bit the depth-first
  recursion's
* ``meijer_g_m0_log`` -- ln G^{3,0}_{1,3}(x | (1-mu)/2; nu/2, -nu/2,
  -(mu+1)/2), the seed of the closed form, by the positive Bessel tail
  integral x^(-(mu+1)/2) 2^(1-mu) int_{2 sqrt x}^inf u^mu K_nu(u) du

The array forms give every element bit for bit the value of the same
arithmetic on Python floats: numpy's elementwise + - * / and sqrt round
as Python does, and every log, exp and expm1 that the float arithmetic
takes from the math module is that math function mapped over the
elements (``apply_math``), because numpy's SIMD versions round
differently from the C library on some arguments.  The K0/K1 loops keep
each lane's values from its own convergence step.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError

EULER_GAMMA = 0.5772156649015328606

def regularized_upper_gamma_vec(a: int, x: np.ndarray) -> np.ndarray:
    """Regularized upper incomplete gamma Q(a, x), integer a >= 1, x >= 0.

    Uses the finite Poisson sum Q(a, x) = exp(-x) * sum_{t<a} x^t / t!.
    The terms follow the multiplicative recurrence term_t = term_{t-1} *
    (x / t) along a trailing axis of length a, and products and sums
    accumulate sequentially, so each term carries a single rounding beyond
    its predecessor.  Where exp(-x) underflows (x >= 700) the terms are
    summed in log space relative to the largest one instead; a value below
    the double range comes back as 0.0.
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
    out[x == 0.0] = 1.0
    big = x >= 700.0
    if np.any(big):
        xb = x[big]
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, a)))))
        log_terms = np.arange(a) * np.log(xb)[:, None] - log_fact - xb[:, None]
        top = log_terms.max(axis=1)
        total = np.exp(top) * np.exp(log_terms - top[:, None]).sum(axis=1)
        out[big] = np.minimum(total, 1.0)
    return out


def regularized_lower_gamma_tail(a: int, x: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, x), integer a >= 1, 0 < x < a + 1.

    Sums the positive series (DLMF 8.7.1)

        P(a, x) = exp(-x) x^a / a! * sum_k x^k / ((a+1) ... (a+k)),

    so a P far below the rounding of 1 - Q(a, x) keeps its relative
    accuracy.  The terms come from one multiplicative accumulate along a
    trailing axis; the term count takes the geometric remainder of the
    largest ratio x / (a+1) of ``x`` below the double precision epsilon.
    """
    x = np.asarray(x, dtype=float)
    eps = np.finfo(float).eps
    r = max(float(np.max(x)) / (a + 1), eps)
    n = math.ceil(math.log(eps * (1.0 - r)) / math.log(r))
    terms = np.empty(x.shape + (n,))
    terms[..., 0] = np.exp(a * np.log(x) - x - math.lgamma(a + 1))
    np.divide(x[..., None], np.arange(a + 1, a + n), out=terms[..., 1:])
    np.multiply.accumulate(terms, axis=-1, out=terms)
    return terms.sum(axis=-1)


def regularized_upper_gamma(a: int, x: float) -> float:
    """Scalar form of :func:`regularized_upper_gamma_vec`."""
    return float(regularized_upper_gamma_vec(a, np.array([x], dtype=float))[0])


def apply_math(fn: Callable[[float], float], a: np.ndarray) -> np.ndarray:
    """The math-module function ``fn`` applied to each element of ``a``.

    numpy's SIMD log, exp and expm1 round differently from the C library
    on some arguments, so array code that must equal a scalar
    ``math.log`` / ``math.exp`` / ``math.expm1`` expression bit for bit
    maps the math function instead.
    """
    a = np.asarray(a, dtype=float)
    return np.fromiter(map(fn, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _bessel_k01_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending series for K0(x), K1(x) at each entry of a 1-D array.

    Intended for 0 < x <= 2.  Each lane keeps the sums of its own
    convergence step; the arrays keep their width, so a finished lane
    runs on with the rest, unused.
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
    live = np.ones(x.size, dtype=bool)
    sums = np.empty((4, x.size))  # i0, i1, s0, s1 at each lane's last step
    hk = 0.0
    k = 1
    while True:
        term0 = term0 * (q / (k * k))
        term1 = term1 * (q / (k * (k + 1)))
        hk += 1.0 / k
        i0 = i0 + term0
        i1 = i1 + 0.5 * x * term1
        s0 = s0 + term0 * hk
        s1 = s1 + term1 * (2.0 * hk + 1.0 / (k + 1) - 2.0 * EULER_GAMMA)
        if k > 3:
            done = live & (term0 < 1e-18 * i0)
            if done.any():
                sums[:, done] = i0[done], i1[done], s0[done], s1[done]
                live &= ~done
                if not live.any():
                    break
        k += 1
        if k > 200:  # q <= 1 converges in ~15 terms; this is unreachable
            raise AccuracyError("K0/K1 series failed to converge")
    i0, i1, s0, s1 = sums
    k0 = -(lh + EULER_GAMMA) * i0 + s0
    k1 = 1.0 / x + lh * i1 - 0.25 * x * s1
    return k0, k1


def _bessel_k01_cf2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steed/Thompson-Barnett continued fraction for exp(x)*K0, exp(x)*K1.

    Valid for x >= 2 where CF2 converges quickly; returns the scaled values
    so callers control the exp(-x) factor (avoids premature underflow).
    Takes a 1-D array; each lane keeps h and s of its own convergence
    step, as the series does, and the coefficients a and c, which do not
    depend on x, stay scalars.
    """
    eps = 1e-16
    maxit = 10000
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1 = np.zeros(x.size)
    q2 = np.ones(x.size)
    a1 = 0.25
    c = a1
    q = np.full(x.size, a1)
    a = -a1
    s = 1.0 + q * delh
    live = np.ones(x.size, dtype=bool)
    h_end, s_end = np.empty(x.size), np.empty(x.size)
    # a finished lane may overflow as it runs on; its values go unused
    with np.errstate(all="ignore"):
        for i in range(2, maxit + 1):
            a -= 2.0 * (i - 1)
            c = -a * c / i
            qnew = (q1 - b * q2) / a
            q1, q2 = q2, qnew
            q = q + c * qnew
            b = b + 2.0
            d = 1.0 / (b + a * d)
            delh = (b * d - 1.0) * delh
            h = h + delh
            dels = q * delh
            s = s + dels
            done = live & (np.abs(dels / s) < eps)
            if done.any():
                h_end[done] = h[done]
                s_end[done] = s[done]
                live &= ~done
                if not live.any():
                    break
        else:
            raise AccuracyError(f"Bessel CF2 did not converge for x={x[live]}")
    h = a1 * h_end
    k0_scaled = np.sqrt(math.pi / (2.0 * x)) / s_end
    k1_scaled = k0_scaled * (x + 0.5 - h) / x
    return k0_scaled, k1_scaled


def _bessel_k01_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(x)*K0(x), exp(x)*K1(x) for each x > 0 of an array (or a scalar).

    Both results have the shape of ``x``.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    k0, k1 = np.empty(flat.size), np.empty(flat.size)
    series = flat <= 2.0
    if series.any():
        xs = flat[series]
        k0s, k1s = _bessel_k01_series(xs)
        ex = apply_math(math.exp, xs)
        k0[series], k1[series] = k0s * ex, k1s * ex
    if not series.all():
        k0[~series], k1[~series] = _bessel_k01_cf2(flat[~series])
    return k0.reshape(x.shape), k1.reshape(x.shape)


_LOG_1E280 = 280.0 * math.log(10.0)


def log_bessel_k_upto(nu_max: int, x):
    """[ln K_0(x), ..., ln K_nu_max(x)] from one upward recurrence.

    ``x`` is a scalar, which gives a list, or an array, which gives an
    (x.size, nu_max + 1) array with one row per argument.  The recurrence
    runs on exp(x)-scaled values with an explicit exponent carry per
    argument, so very large orders and very large arguments are both
    safe.  Each order is recorded after its rescale check, so entry n is
    exactly what a recurrence stopped at order n returns, and each row is
    bit for bit the list of its argument alone.
    """
    if nu_max < 0 or int(nu_max) != nu_max:
        raise ValueError(f"order must be a nonnegative integer, got {nu_max!r}")
    nu_max = int(nu_max)
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    if not np.all(flat > 0.0):
        bad = float(flat[~(flat > 0.0)][0])
        raise ValueError(f"argument must be > 0, got {bad!r}")
    scaled = np.empty((flat.size, nu_max + 1))
    carry = np.zeros((flat.size, nu_max + 1))
    km, kc = _bessel_k01_scaled(flat)
    scaled[:, 0] = km
    if nu_max >= 1:
        scaled[:, 1] = kc
    lane_carry = np.zeros(flat.size)
    # below x ~ 1e-28 one step from a rescaled 1e280 can pass the double
    # range; that lane goes to inf silently, as the float recurrence does
    with np.errstate(over="ignore"):
        for n in range(1, nu_max):
            km, kc = kc, km + (2.0 * n / flat) * kc
            big = kc > 1e280
            if big.any():
                km[big] *= 1e-280
                kc[big] *= 1e-280
                lane_carry[big] += _LOG_1E280
            scaled[:, n + 1] = kc
            carry[:, n + 1] = lane_carry
    out = apply_math(math.log, scaled) + carry - flat[:, None]
    return out[0].tolist() if xs.ndim == 0 else out


def log_bessel_k(nu: int, x):
    """ln K_nu(x), integer nu >= 0: the last order of :func:`log_bessel_k_upto`.

    A float for a scalar ``x``, one value per argument for an array.
    """
    out = log_bessel_k_upto(nu, x)
    return out[-1] if np.ndim(x) == 0 else out[:, -1]


def log_sum_exp(log_terms: np.ndarray | Sequence[float],
                signs: np.ndarray | Sequence[float] | None = None):
    """(log|sum|, sign) of sum_i signs_i * exp(log_terms_i) along the last axis.

    A 1-D input is one sum and gives two floats; a (rows x terms) input
    gives two arrays with one entry per row.  An empty or exactly
    cancelled sum gives (-inf, 0.0).
    """
    logs = np.asarray(log_terms, dtype=float)
    sg = (np.ones_like(logs) if signs is None
          else np.broadcast_to(np.asarray(signs, dtype=float), logs.shape))
    log_abs = np.full(logs.shape[:-1], -math.inf)
    sign = np.zeros(logs.shape[:-1])
    if logs.shape[-1]:
        m = np.max(logs, axis=-1)
        shift = np.where(m == -math.inf, 0.0, m)
        # a row sums exactly as a lone 1-D np.sum of that row does
        total = np.sum(sg * np.exp(logs - shift[..., None]), axis=-1)
        ok = (m != -math.inf) & (total != 0.0)
        log_abs[ok] = m[ok] + apply_math(math.log, np.abs(total[ok]))
        sign[ok] = np.copysign(1.0, total[ok])
    if logs.ndim == 1:
        return float(log_abs), float(sign)
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
                lo: float, hi: float, abs_tol: float, count: int
                ) -> np.ndarray:
    """Adaptive Gauss-Legendre integrals over [lo, hi] of ``count`` integrands.

    ``f(x, rows)`` returns integrand ``rows[i]`` at ``x[i]``, elementwise.
    A panel whose halves differ from it by more than its tolerance is
    split, each half taking half the tolerance, up to ``_GL_MAX_DEPTH``
    halvings.  The refinement runs breadth first: one level's left and
    right halves of every open panel of every integral go to ``f``
    together, at most ``_GL_PANELS_PER_CALL`` panels per call.  Each
    panel sum, convergence test and left + right fold is the one a
    depth-first recursion makes, so each integral comes out bit for bit
    as if integrated alone.
    """
    rows = np.arange(count)
    a = np.full(count, lo, dtype=float)
    b = np.full(count, hi, dtype=float)
    tol = np.full(count, abs_tol, dtype=float)
    whole = _panel_sums(f, a, b, rows)
    levels: list[tuple[np.ndarray, np.ndarray]] = []
    for depth in range(_GL_MAX_DEPTH + 1):
        mid = 0.5 * (a + b)
        halves = _panel_sums(f, np.concatenate((a, mid)),
                             np.concatenate((mid, b)), np.tile(rows, 2))
        left, right = halves[:a.size], halves[a.size:]
        total = left + right
        done = np.abs(total - whole) <= tol
        levels.append((total, done))
        if done.all():
            break
        if depth >= _GL_MAX_DEPTH:
            raise AccuracyError("quadrature failed to converge")
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


def meijer_g_m0_log(mu: float, nu: float, x: float) -> float:
    """ln G^{3,0}_{1,3}(x | (1-mu)/2; nu/2, -nu/2, -(mu+1)/2), integer nu.

    Uses the tail-integral identity

        G(x) = x^{-(mu+1)/2} * 2^{1-mu} * int_{2 sqrt(x)}^inf u^mu K_nu(u) du,

    whose integrand is positive, so the evaluation is cancellation-free
    for any parameter size and G is positive.  The Bessel factor runs
    through the log-scaled recurrence, keeping huge orders finite.  An
    integrand that does not decay, or a quadrature that does not reach
    its tolerance, raises :class:`AccuracyError`.
    """
    order = abs(int(round(nu)))
    u_lo = 2.0 * math.sqrt(x)

    # integrate in t = ln u so the bracket width stays a few nats wide and
    # the peak-normalized integrand makes the quadrature tolerance an
    # effectively relative one; du = u dt folds into the exponent.  Every
    # array of points takes one Bessel-K recurrence, each value bit for
    # bit what that point alone gives.
    def log_g(u: np.ndarray) -> np.ndarray:
        return (mu + 1.0) * apply_math(math.log, u) + log_bessel_k(order, u)

    def scan():
        # u_lo, 1.2 u_lo, ... evaluated 32 points per call
        u = u_lo
        while True:
            us = []
            for _ in range(32):
                us.append(u)
                u *= 1.2
            yield from zip(us, log_g(np.array(us)).tolist())

    # coarse geometric scan for the integrand peak and a -60 nats cutoff;
    # the peak sits near sqrt(mu^2 - nu^2) when that exceeds the lower end
    points = scan()
    u_hi, g_max = next(points)
    tail_floor = max(u_lo * 4.0, float(order) * 3.0, 50.0)
    for u, g_u in points:
        if g_u > g_max:
            g_max = g_u
        u_hi = u
        if g_u < g_max - 60.0 and u > tail_floor:
            break
        if u > 1e8:
            raise AccuracyError("Bessel tail integral fails to decay")

    def shifted(ts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return apply_math(math.exp, log_g(apply_math(math.exp, ts)) - g_max)

    t_lo, t_hi = math.log(u_lo), math.log(u_hi)
    (val,) = adaptive_gl(shifted, t_lo, t_hi, 1e-12 * (t_hi - t_lo), 1)
    log_j = g_max + math.log(val)
    return -0.5 * (mu + 1.0) * math.log(x) + (1.0 - mu) * math.log(2.0) + log_j
