"""Self-contained special functions for the closed-form secrecy expressions.

Everything here is implemented from first principles on top of the Python
math module and numpy arrays: no scipy.  Provided primitives:

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
* ``meijer_g_m0_log`` -- (log|G|, sign) of Meijer G^{m,0}_{p,q} for q > p
  via Mellin-Barnes contour quadrature (complex Lanczos log-gamma inside;
  real log-gamma values elsewhere come from ``math.lgamma``)

The Meijer evaluator uses the convention

    G(x) = (1/2*pi*i) * integral  prod_j Gamma(b_j + s) / prod_i Gamma(a_i + s)
                                  * x^(-s) ds

over a vertical line Re s = c placed right of every pole of the numerator
gammas.  For q > p the integrand decays like exp(-(q-p)*pi*|Im s|/2), so a
trapezoid rule on the line converges geometrically.  All magnitude-sensitive
work is done in log space so that the huge Gamma products appearing for
large parameter sets neither overflow nor underflow.

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

# Lanczos approximation, g = 7, 9 coefficients.  Classic public-domain set;
# good to ~15 significant digits for Re(z) >= 0.5.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_2PI = 0.9189385332046727418

# Relative accuracy of every Meijer G contour quadrature.
_MEIJER_REL_TOL = 1e-8


def _ln_gamma_complex(z: np.ndarray) -> np.ndarray:
    """Vectorized log-gamma for complex arrays with Re(z) >= 0.5.

    The Mellin-Barnes contours used below keep every gamma argument in this
    half-plane, so no reflection formula is needed.  Branch choices are
    irrelevant to callers because results are only ever exponentiated after
    summation.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real < 0.5):
        raise ValueError("_ln_gamma_complex requires Re(z) >= 0.5")
    w = z - 1.0
    acc = np.full(z.shape, _LANCZOS_COEF[0], dtype=complex)
    for k in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (w + 0.5) * np.log(t) - t + np.log(acc)


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


def _mb_log_integrand(a: tuple[float, ...], b: tuple[float, ...], lnx: float,
                      c: float, tau: np.ndarray) -> np.ndarray:
    """Complex log of the Mellin-Barnes integrand on the line s = c + i*tau."""
    s = c + 1j * tau
    g = np.zeros(tau.shape, dtype=complex)
    for bj in b:
        g = g + _ln_gamma_complex(bj + s)
    for ai in a:
        g = g - _ln_gamma_complex(ai + s)
    return g - s * lnx


def meijer_g_m0_log(a: Sequence[float], b: Sequence[float],
                    x: float) -> tuple[float, float]:
    """(log|G|, sign) for G^{m,0}_{p,q}(x) with lower parameters b (len q = m)
    and upper parameters a (len p < q), evaluated by vertical-line
    Mellin-Barnes quadrature.

    The contour sits at Re s = max(0.5, 1 - min(b), x^(1/(q-p))): at least
    one unit right of the rightmost numerator pole, and for large x pushed
    out to the steepest-descent saddle so the on-line peak matches the scale
    of the integral itself (a fixed contour loses all significant digits to
    cancellation once x is large, since the result decays like
    exp(-(q-p) x^(1/(q-p))) while the integrand magnitude does not).
    Trapezoid step starts at h = 0.05 and halves until successive
    refinements agree to 1e-8 relative (``_MEIJER_REL_TOL``, fixed); the
    tail is truncated where the integrand falls 1e-16 below its on-line
    peak.  Non-convergence or cancellation past 1e-8 raises AccuracyError.
    """
    a = tuple(float(v) for v in a)
    b = tuple(float(v) for v in b)
    if len(b) == 0:
        raise ValueError("need at least one lower parameter")
    if len(a) >= len(b):
        raise ValueError("contour integral requires fewer upper than lower parameters")
    if not x > 0.0:
        raise ValueError(f"argument must be > 0, got {x!r}")
    c = max(0.5, 1.0 - min(b), x ** (1.0 / (len(b) - len(a))))
    lnx = math.log(x)

    # Locate the integrand peak and a truncation point on tau >= 0.  The
    # decay rate is (q - p) * pi / 2 per unit tau once past the gamma bumps,
    # so scanning in modest strides is cheap and safe.
    stride = 2.0
    tau_probe = np.arange(0.0, 64.0 + stride, stride)
    logmag = _mb_log_integrand(a, b, lnx, c, tau_probe).real
    peak = float(np.max(logmag))
    cutoff = peak - 40.0  # exp(-40) ~ 4e-18 of peak
    t_max = float(tau_probe[-1])
    while logmag[-1] > cutoff:
        nxt = np.arange(t_max + stride, t_max * 2.0 + stride, stride)
        logmag = _mb_log_integrand(a, b, lnx, c, nxt).real
        peak = max(peak, float(np.max(logmag)))
        cutoff = peak - 40.0
        t_max = float(nxt[-1])
        if t_max > 1e5:
            raise AccuracyError("Mellin-Barnes integrand fails to decay")

    def line_sum(h: float) -> tuple[float, float]:
        # conjugate symmetry: integral over the full line equals
        # f(0) + 2 * sum_{k>=1} Re f(k h), all times h / (2 pi)
        n = int(t_max / h) + 1
        acc = 0.0
        m_ref = peak
        chunk = 200000
        k0 = 0
        while k0 < n:
            k1 = min(n, k0 + chunk)
            tau = h * np.arange(k0, k1, dtype=float)
            lg = _mb_log_integrand(a, b, lnx, c, tau)
            vals = np.exp(lg.real - m_ref) * np.cos(lg.imag)
            if k0 == 0:
                acc += vals[0] + 2.0 * float(np.sum(vals[1:]))
            else:
                acc += 2.0 * float(np.sum(vals))
            k0 = k1
        return acc, m_ref

    h = 0.05
    acc, m_ref = line_sum(h)
    prev = acc * h
    for _ in range(6):
        h *= 0.5
        acc, _ = line_sum(h)
        cur = acc * h
        if abs(cur - prev) <= _MEIJER_REL_TOL * abs(cur):
            prev = cur
            break
        prev = cur
    else:
        raise AccuracyError(
            f"Meijer G contour quadrature did not converge (a={a}, b={b}, x={x:g})")
    scaled = prev / (2.0 * math.pi)
    if scaled == 0.0:
        return -math.inf, 0.0
    # Cancellation guard.  The summed samples have unit scale after the
    # m_ref shift, so their roundoff noise is ~eps*sqrt(n); if the surviving
    # integral is not comfortably above that floor the refinement loop can
    # "self-converge" onto noise (both step sizes share the same systematic
    # cancellation error).  Refuse rather than return garbage.
    n_samples = int(t_max / h) + 1
    achievable = 1e-15 * math.sqrt(float(n_samples)) / abs(scaled)
    if achievable > _MEIJER_REL_TOL:
        raise AccuracyError(
            f"Meijer G contour cancellation leaves ~{achievable:.1e} relative "
            f"accuracy, worse than the required {_MEIJER_REL_TOL:g} "
            f"(a={a}, b={b}, x={x:g})")
    return m_ref + math.log(abs(scaled)), math.copysign(1.0, scaled)

