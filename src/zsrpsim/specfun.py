"""Self-contained special functions for the closed-form secrecy expressions.

Everything here is implemented from first principles on top of the Python
math module and numpy arrays: no scipy.  Provided primitives:

* ``regularized_upper_gamma`` / ``regularized_upper_gamma_vec`` -- Q(a, x)
  for integer shape a, scalar and array forms of one implementation
* ``log_bessel_k_upto`` -- ln K_0(x) .. ln K_nu(x), modified Bessel K of
  every integer order up to nu, from one upward recurrence
* ``log_bessel_k``    -- ln K_nu(x) alone, the last of those values
* ``log_sum_exp``     -- signed sum of exponentials in log space
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
"""

from __future__ import annotations

import math
from typing import Sequence

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


def regularized_upper_gamma(a: int, x: float) -> float:
    """Scalar form of :func:`regularized_upper_gamma_vec`."""
    return float(regularized_upper_gamma_vec(a, np.array([x], dtype=float))[0])


def _bessel_k01_series(x: float) -> tuple[float, float]:
    """Ascending series for K0(x), K1(x); intended for 0 < x <= 2."""
    q = 0.25 * x * x
    lh = math.log(0.5 * x)
    # I0, I1 and the companion sums share the q^k / (k!)^2-type terms
    i0 = 1.0
    i1 = 0.5 * x
    s0 = 0.0                      # sum H_k q^k / (k!)^2
    s1 = 1.0 - 2.0 * EULER_GAMMA  # sum (H_k + H_{k+1} - 2 gamma) q^k / (k!(k+1)!)
    term0 = 1.0
    term1 = 1.0
    hk = 0.0
    k = 1
    while True:
        term0 *= q / (k * k)
        term1 *= q / (k * (k + 1))
        hk += 1.0 / k
        i0 += term0
        i1 += 0.5 * x * term1
        s0 += term0 * hk
        s1 += term1 * (2.0 * hk + 1.0 / (k + 1) - 2.0 * EULER_GAMMA)
        if term0 < 1e-18 * i0 and k > 3:
            break
        k += 1
        if k > 200:  # q <= 1 converges in ~15 terms; this is unreachable
            raise AccuracyError("K0/K1 series failed to converge")
    k0 = -(lh + EULER_GAMMA) * i0 + s0
    k1 = 1.0 / x + lh * i1 - 0.25 * x * s1
    return k0, k1


def _bessel_k01_cf2(x: float) -> tuple[float, float]:
    """Steed/Thompson-Barnett continued fraction for exp(x)*K0, exp(x)*K1.

    Valid for x >= 2 where CF2 converges quickly; returns the scaled values
    so callers control the exp(-x) factor (avoids premature underflow).
    """
    eps = 1e-16
    maxit = 10000
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1 = 0.0
    q2 = 1.0
    a1 = 0.25
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, maxit + 1):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < eps:
            break
    else:
        raise AccuracyError(f"Bessel CF2 did not converge for x={x}")
    h = a1 * h
    k0_scaled = math.sqrt(math.pi / (2.0 * x)) / s
    k1_scaled = k0_scaled * (x + 0.5 - h) / x
    return k0_scaled, k1_scaled


def _bessel_k01_scaled(x: float) -> tuple[float, float]:
    """exp(x)*K0(x), exp(x)*K1(x) for any x > 0."""
    if x <= 2.0:
        k0, k1 = _bessel_k01_series(x)
        ex = math.exp(x)
        return k0 * ex, k1 * ex
    return _bessel_k01_cf2(x)


def log_bessel_k_upto(nu_max: int, x: float) -> list[float]:
    """[ln K_0(x), ..., ln K_nu_max(x)] from one upward recurrence.

    The recurrence runs on exp(x)-scaled values with an explicit exponent
    carry, so very large orders and very large arguments are both safe.
    Each order is recorded after its rescale check, so entry n is exactly
    what a recurrence stopped at order n returns.
    """
    if nu_max < 0 or int(nu_max) != nu_max:
        raise ValueError(f"order must be a nonnegative integer, got {nu_max!r}")
    if not x > 0.0:
        raise ValueError(f"argument must be > 0, got {x!r}")
    k0s, k1s = _bessel_k01_scaled(x)
    out = [math.log(k0s) - x]
    if nu_max == 0:
        return out
    out.append(math.log(k1s) - x)
    carry = 0.0
    km, kc = k0s, k1s
    for n in range(1, int(nu_max)):
        km, kc = kc, km + (2.0 * n / x) * kc
        if kc > 1e280:
            km *= 1e-280
            kc *= 1e-280
            carry += 280.0 * math.log(10.0)
        out.append(math.log(kc) + carry - x)
    return out


def log_bessel_k(nu: int, x: float) -> float:
    """ln K_nu(x), integer nu >= 0: the last entry of :func:`log_bessel_k_upto`."""
    return log_bessel_k_upto(nu, x)[-1]


def log_sum_exp(log_terms: Sequence[float], signs: Sequence[float] | None = None) -> tuple[float, float]:
    """(log|sum|, sign) of sum_i signs_i * exp(log_terms_i).

    Empty input or an exactly cancelled sum returns (-inf, 0.0).
    """
    logs = np.asarray(log_terms, dtype=float)
    if logs.size == 0:
        return -math.inf, 0.0
    sg = np.ones_like(logs) if signs is None else np.asarray(signs, dtype=float)
    m = float(np.max(logs))
    if m == -math.inf:
        return -math.inf, 0.0
    total = float(np.sum(sg * np.exp(logs - m)))
    if total == 0.0:
        return -math.inf, 0.0
    return m + math.log(abs(total)), math.copysign(1.0, total)


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

