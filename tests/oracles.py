"""Validation-only oracles, kept out of the package.

The subset-term enumeration below expands the proportional-fair order
statistic F_S(s)^N over every non-empty user subset and every weak
composition of its size, term by term.  The package sums the same
expansion through collapsed coefficients, which
:func:`ordered_sum_coefficients` computes exactly; this explicit form
exists only to check that collapse (acceptance criterion 3 and
``test_analytic``).

The package uses the fully connected cascade gain ||h_br||^2 ||h_rn||^2
as a formula.  The scattering-matrix construction at the end of this
file builds the matrix that attains it, and ``fc_cascaded_gain_via_theta``
evaluates the gain through that matrix, so the formula can be checked
against it (acceptance criterion 5 and ``test_bdris``).

``bessel_k`` gives the package's log-space Bessel K as a plain float,
for comparison with linear-space references.

``meijer_g_m0_log_contour`` is an independent Meijer-G engine: the
Mellin-Barnes contour integral of G^{m,0}_{p,q} (q > p) by the
trapezoid rule on a vertical line, with a complex Lanczos log-gamma
(``ln_gamma_complex``).  It shares no code with the package's seed
evaluator ``specfun.meijer_g_m0_log``, the positive Bessel tail
integral, and checks it; ``meijer_g_m0`` gives its value as a plain
float.

``upper_gamma_poisson_loop`` is the plain term-by-term loop for
Q(a, x); the package's array form must match it bit for bit wherever
exp(-x) does not underflow.

``log_bessel_k_loop`` is the per-order upward recurrence for ln K_nu(x)
that restarts from K_0, K_1 for every order; the package's
``log_bessel_k`` at a row of orders 0 .. nu must match each entry of it
bit for bit.

``cdf_Z_single_scalar`` is the round-robin series CDF at one z, every
step on Python floats: the K_0/K_1 series, run to convergence, or
the 21-node trapezoid rule (``bessel_k01_scaled_scalar``), the upward
recurrence (``log_bessel_k_upto_scalar``) and the log-space term sum.  The
package's array ``cdf_Z_single``, ``_bessel_k01_scaled`` and
``log_bessel_k`` must match them bit for bit at every element.

``meijer_g_m0_log_quad`` is the package's seed integral by
``scipy.integrate.quad`` over ``scipy.special.kve``, the reference of
acceptance criterion 4 and of the seed range limit.

``seed_bracket_scan`` is the lockstep scan that bracketed the package's
seeds, 32 points of each live seed per round, before they read their
cutoff off one fixed grid; ``meijer_g_m0_log_scan`` is the package's
seed evaluator over the scan's brackets and must match it bit for bit.
The scan raises where the package refuses a seed in place.

``eve_within`` is the law of the BS-eavesdropper distance for a ball
whose centre is offset from the BS, the sphere-sphere lens volume over
the ball volume; ``zsrp_offset_ball`` integrates it over the served user
power sum and the BS-side sum by fixed Gauss-Legendre rules, an oracle
for the fixed-centre Monte-Carlo rows that shares no code with them.

``adaptive_gl_recursive`` is the depth-first adaptive Gauss-Legendre
recursion, one integral at a time; every integral of the package's
breadth-first ``specfun.adaptive_gl`` must match it bit for bit, or come
back NaN where the recursion raises at its depth cap.
``adaptive_gl_each`` puts it in ``adaptive_gl``'s place, with one
bracket and tolerance per integral where those are given.

``cdf_Z_quadrature_recursive`` is the CDF F_Z of the served cascade by
direct integration of F_S(z~ / w)^N over the density of W, one
recursion for one z: the adjudicating oracle of the round-robin series
CDF.  ``cdf_Z_quadrature_batched`` takes the same integrals of an array
of z in one breadth-first ``adaptive_gl`` call and must match it bit for
bit.  ``zsrp_pfs_value_recursive`` is the proportional-fair ZSRP as the
distance average of that F_Z, one recursion per distance node, nested in
a recursion over the distance.  ``zsrp_pfs_1d_recursive`` is the
package's one 1-D integral over the served user-side power sum
(``analytic.cdf_Z_quadrature``), restated node by node and taken depth
first; the package must match it bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate, special

from zsrpsim.analytic import ClosedFormParams
from zsrpsim.errors import AccuracyError
from zsrpsim.fading import cdf_S, pdf_W, tail_cutoff
from zsrpsim.specfun import (_GL_MAX_DEPTH, _GL_NODES, _GL_WEIGHTS,
                             EULER_GAMMA, _bessel_k01_scaled, adaptive_gl,
                             apply_math, log_bessel_k)


def ordered_sum_coefficients(j: int, m1_elements: int) -> np.ndarray:
    """Coefficients gamma_{j,B} of x^B in (sum_{t<m1 L} x^t / t!)^j.

    These collapse the multinomial expansion of the j-fold truncated
    exponential product; B runs from 0 to j (m1 L - 1).  The j-fold
    product runs on exact fractions, and each coefficient is rounded to
    a float once, so entries below the double-precision floor come back
    as zero; the package's log-space rows share no code with this.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    base = [Fraction(1, math.factorial(t)) for t in range(m1_elements)]
    row = [Fraction(1)]
    for _ in range(j):
        nxt = [Fraction(0)] * (len(row) + m1_elements - 1)
        for b, c in enumerate(row):
            for t, d in enumerate(base):
                nxt[b + t] += c * d
        row = nxt
    return np.array([float(c) for c in row])


#: Cap on explicitly enumerated subset terms (memory guard).
MAX_SUBSET_TERMS = 2_000_000

#: Largest user count the subset enumeration accepts (2^N - 1 subsets).
MAX_SUBSET_USERS = 12


@dataclass(frozen=True)
class SubsetTerm:
    """One subset x composition entry of the expanded N-fold product.

    F_S^N expands over the 2^N - 1 non-empty user subsets; a subset of
    ``cardinality`` j contributes e^{-j m1 s} times the j-fold truncated
    sum, which the generalized multinomial theorem splits into weak
    compositions ``composition`` (n_t = how many factors contributed
    power t).  ``a1`` is the composite coefficient

        a1 = prod_t (1/t!)^{n_t} / (B1! prod_t n_t!),

    ``b1`` the aggregate power sum t n_t, and the actual polynomial
    weight of (m1 s)^{b1} is a1 * Gamma(b1 + 1) * Gamma(j + 1).
    """

    cardinality: int
    composition: tuple[int, ...]
    a1: float
    b1: int

    @property
    def weight(self) -> float:
        return (self.a1 * math.gamma(self.b1 + 1)
                * math.gamma(self.cardinality + 1))


def _make_subset_term(j: int, composition: tuple[int, ...]) -> SubsetTerm:
    b1 = sum(t * n for t, n in enumerate(composition))
    log_a1 = -math.lgamma(b1 + 1)
    for t, n in enumerate(composition):
        log_a1 -= math.lgamma(n + 1) + n * math.lgamma(t + 1)
    return SubsetTerm(cardinality=j, composition=composition,
                      a1=math.exp(log_a1), b1=b1)


def _compositions(j: int, parts: int):
    """Weak compositions of j into ``parts`` nonnegative slots."""
    if parts == 1:
        yield (j,)
        return
    for first in range(j + 1):
        for rest in _compositions(j - first, parts - 1):
            yield (first,) + rest


def enumerate_subset_terms(n_users: int, m1_elements: int) -> list[SubsetTerm]:
    """All subset x composition terms of the N-user order-statistic CDF.

    Emits one entry per non-empty user subset (2^N - 1 of them, entered
    through their cardinality multiplicity) crossed with every weak
    composition of the subset size into m1 L parts.  Past the user or
    term cap it raises ValueError.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if n_users > MAX_SUBSET_USERS:
        raise ValueError(
            f"subset enumeration supports at most {MAX_SUBSET_USERS} "
            f"users, got {n_users}")
    if m1_elements < 1:
        raise ValueError("m1_elements must be >= 1")
    total = sum(math.comb(n_users, j) * math.comb(j + m1_elements - 1, j)
                for j in range(1, n_users + 1))
    if total > MAX_SUBSET_TERMS:
        raise ValueError(
            f"subset enumeration would need {total} terms; "
            f"reduce the user count or element count")
    terms: list[SubsetTerm] = []
    for j in range(1, n_users + 1):
        base = [_make_subset_term(j, comp)
                for comp in _compositions(j, m1_elements)]
        terms.extend(base * math.comb(n_users, j))
    return terms


def cdf_power_sum_order_stat(s: float, m1: int, n_elements: int,
                             n_users: int) -> float:
    """F_S(s)^N rebuilt from the explicit subset-term expansion.

    Exists to validate the expansion; production paths use the collapsed
    coefficients that :func:`ordered_sum_coefficients` computes exactly.
    """
    if s <= 0.0:
        return 0.0
    m1s = m1 * s
    total = 1.0  # empty subset
    for term in enumerate_subset_terms(n_users, m1 * n_elements):
        j = term.cardinality
        total += ((-1.0) ** j * term.weight * m1s ** term.b1
                  * math.exp(-j * m1s))
    return total


def bessel_k(nu: int, x: float) -> float:
    """K_nu(x), integer nu >= 0, from a one-element :func:`log_bessel_k` call."""
    return math.exp(log_bessel_k(np.array([nu]), np.array([x]))[0])


def log_bessel_k_loop(nu: int, x: float) -> float:
    """ln K_nu(x) by its own upward recurrence from K_0(x), K_1(x).

    The start K_0, K_1 is a one-element ``_bessel_k01_scaled`` call.
    """
    k0s, k1s = (float(k[0]) for k in _bessel_k01_scaled(np.array([x])))
    if nu == 0:
        return math.log(k0s) - x
    carry = 0.0
    km, kc = k0s, k1s
    for n in range(1, nu):
        km, kc = kc, km + (2.0 * n / x) * kc
        if kc > 1e280:
            km *= 1e-280
            kc *= 1e-280
            carry += 280.0 * math.log(10.0)
    return math.log(kc) + carry - x


def _k01_series_scalar(x: float) -> tuple[float, float]:
    """Ascending series for K0(x), K1(x); intended for 0 < x <= 2."""
    q = 0.25 * x * x
    lh = math.log(0.5 * x)
    i0 = 1.0
    i1 = 0.5 * x
    s0 = 0.0
    s1 = 1.0 - 2.0 * EULER_GAMMA
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
    k0 = -(lh + EULER_GAMMA) * i0 + s0
    k1 = 1.0 / x + lh * i1 - 0.25 * x * s1
    return k0, k1


def _k01_trapezoid_scalar(x: float) -> tuple[float, float]:
    """21-node trapezoid rule for exp(x) K0(x), exp(x) K1(x), x > 2."""
    t0, t1 = [], []
    for k in range(21):
        v2 = (0.3 * k) ** 2
        w = 0.3 * math.exp(-v2)
        if k == 0:
            w *= 0.5
        t0.append(w / math.sqrt(1.0 + v2 / (2.0 * x)))
        t1.append(t0[-1] * (1.0 + v2 / x))
    scale = math.sqrt(2.0 / x)
    # one 1-D np.sum, as the package sums each lane's row
    return scale * float(np.sum(t0)), scale * float(np.sum(t1))


def bessel_k01_scaled_scalar(x: float) -> tuple[float, float]:
    """exp(x) K0(x), exp(x) K1(x) for one x > 0."""
    if x <= 2.0:
        k0, k1 = _k01_series_scalar(x)
        ex = math.exp(x)
        return k0 * ex, k1 * ex
    return _k01_trapezoid_scalar(x)


def log_bessel_k_upto_scalar(nu_max: int, x: float) -> list[float]:
    """[ln K_0(x), ..., ln K_nu_max(x)] from one upward recurrence at one x."""
    k0s, k1s = bessel_k01_scaled_scalar(x)
    out = [math.log(k0s) - x]
    if nu_max == 0:
        return out
    out.append(math.log(k1s) - x)
    carry = 0.0
    km, kc = k0s, k1s
    for n in range(1, nu_max):
        km, kc = kc, km + (2.0 * n / x) * kc
        if kc > 1e280:
            km *= 1e-280
            kc *= 1e-280
            carry += 280.0 * math.log(10.0)
        out.append(math.log(kc) + carry - x)
    return out


def cdf_Z_single_scalar(z: float, p: ClosedFormParams) -> float:
    """The round-robin series CDF F_Z(z) term by term on Python floats."""
    if z <= 0.0:
        return 0.0
    m_2 = p.m2 * p.n_elements
    m_1 = p.m1 * p.n_elements
    xi = p.m1 * p.m2 * z / p.scale
    log_k = log_bessel_k_upto_scalar(max(m_2, abs(m_2 - m_1 + 1)),
                                     2.0 * math.sqrt(xi))
    log_arg = math.log(xi)
    # ln C(1, 1) = 0 and the row-1 coefficients ln(1 / b!)
    log_lead = math.log(2.0) - math.lgamma(m_2) + 0.0
    logs = np.array([log_lead + -math.lgamma(b + 1)
                     + 0.5 * (m_2 + b) * (math.log(1) + log_arg) - b * math.log(1)
                     + log_k[abs(m_2 - b)]
                     for b in range(m_1)])
    # signed log-sum-exp of the terms, every sign -1
    m = float(np.max(logs))
    total = float(np.sum(np.full(logs.size, -1.0) * np.exp(logs - m)))
    if total == 0.0:
        return 1.0
    total_log = m + math.log(abs(total))
    val = -math.expm1(total_log) if total_log < 0.0 else 0.0
    return min(1.0, max(0.0, val))


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


def ln_gamma_complex(z: np.ndarray) -> np.ndarray:
    """Vectorized log-gamma for complex arrays with Re(z) >= 0.5.

    The Mellin-Barnes contours used below keep every gamma argument in this
    half-plane, so no reflection formula is needed.  Branch choices are
    irrelevant to callers because results are only ever exponentiated after
    summation.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real < 0.5):
        raise ValueError("ln_gamma_complex requires Re(z) >= 0.5")
    w = z - 1.0
    acc = np.full(z.shape, _LANCZOS_COEF[0], dtype=complex)
    for k in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (w + 0.5) * np.log(t) - t + np.log(acc)


def _mb_log_integrand(a: tuple[float, ...], b: tuple[float, ...], lnx: float,
                      c: float, tau: np.ndarray) -> np.ndarray:
    """Complex log of the Mellin-Barnes integrand on the line s = c + i*tau."""
    s = c + 1j * tau
    g = np.zeros(tau.shape, dtype=complex)
    for bj in b:
        g = g + ln_gamma_complex(bj + s)
    for ai in a:
        g = g - ln_gamma_complex(ai + s)
    return g - s * lnx


def meijer_g_m0_log_contour(a, b, x: float) -> tuple[float, float]:
    """(log|G|, sign) for G^{m,0}_{p,q}(x) with lower parameters b (len q = m)
    and upper parameters a (len p < q), evaluated by vertical-line
    Mellin-Barnes quadrature.

    The convention is

        G(x) = (1/2 pi i) int prod_j Gamma(b_j + s) / prod_i Gamma(a_i + s)
                              x^(-s) ds

    over a vertical line Re s = c right of every pole of the numerator
    gammas.  For q > p the integrand decays like exp(-(q-p) pi |Im s| / 2),
    so a trapezoid rule on the line converges geometrically; all
    magnitude-sensitive work is done in log space.

    The contour sits at Re s = max(0.5, 1 - min(b), x^(1/(q-p))): at least
    one unit right of the rightmost numerator pole, and for large x pushed
    out to the steepest-descent saddle so the on-line peak matches the scale
    of the integral itself (a fixed contour loses all significant digits to
    cancellation once x is large, since the result decays like
    exp(-(q-p) x^(1/(q-p))) while the integrand magnitude does not).
    Trapezoid step starts at h = 0.05 and halves until successive
    refinements agree to 1e-8 relative (``_MEIJER_REL_TOL``); the tail is
    truncated where the integrand falls 1e-16 below its on-line peak.
    Non-convergence or cancellation past 1e-8 raises AccuracyError.
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

    def line_sum(h: float) -> float:
        # conjugate symmetry: integral over the full line equals
        # f(0) + 2 * sum_{k>=1} Re f(k h), all times h / (2 pi)
        n = int(t_max / h) + 1
        acc = 0.0
        chunk = 200000
        k0 = 0
        while k0 < n:
            k1 = min(n, k0 + chunk)
            tau = h * np.arange(k0, k1, dtype=float)
            lg = _mb_log_integrand(a, b, lnx, c, tau)
            vals = np.exp(lg.real - peak) * np.cos(lg.imag)
            if k0 == 0:
                acc += vals[0] + 2.0 * float(np.sum(vals[1:]))
            else:
                acc += 2.0 * float(np.sum(vals))
            k0 = k1
        return acc

    h = 0.05
    prev = line_sum(h) * h
    for _ in range(6):
        h *= 0.5
        cur = line_sum(h) * h
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
    # peak shift, so their roundoff noise is ~eps*sqrt(n); if the surviving
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
    return peak + math.log(abs(scaled)), math.copysign(1.0, scaled)


def meijer_g_m0(a, b, x: float) -> float:
    """G^{m,0}_{p,q}(x) from the signed log of :func:`meijer_g_m0_log_contour`."""
    log_abs, sign = meijer_g_m0_log_contour(a, b, x)
    return sign * math.exp(log_abs)


def meijer_g_m0_log_quad(mu: float, nu: float, x: float) -> float:
    """ln of x^-(mu+1)/2 2^(1-mu) int_{2 sqrt x}^inf u^mu K_nu(u) du by scipy.

    The package's seed integral, with ``scipy.special.kve`` for the Bessel
    factor and ``scipy.integrate.quad`` for the integral; the integrand is
    scaled by its peak, located on a geometric grid, and split there.
    """
    u_lo = 2.0 * math.sqrt(x)

    def log_f(u: float) -> float:
        return mu * math.log(u) + math.log(special.kve(nu, u)) - u

    peak_u = max(u_lo * np.geomspace(1.0, 1e3, 4001), key=log_f)
    peak = log_f(peak_u)
    total = sum(
        integrate.quad(lambda u: math.exp(log_f(u) - peak), lo, hi,
                       epsabs=0.0, epsrel=1e-13, limit=400)[0]
        for lo, hi in ((u_lo, peak_u), (peak_u, math.inf)) if hi > lo)
    return (-0.5 * (mu + 1.0) * math.log(x) + (1.0 - mu) * math.log(2.0)
            + peak + math.log(total))


def _seed_log_g(mu: np.ndarray, nu: np.ndarray):
    """(mu + 1) ln u + ln K_|nu|(u) at points ``u`` of seeds ``rows``."""

    def log_g(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return ((mu[rows] + 1.0) * apply_math(math.log, u)
                + log_bessel_k(np.abs(nu[rows]), u))

    return log_g


def seed_bracket_scan(mu, nu, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(stop index, u_hi, g_max) of each seed by the lockstep scan.

    Each seed scans u_lo, 1.2 u_lo, ... 32 points at a time until the
    first point past its tail floor that lies 60 nats below the running
    peak; the seeds still scanning share each Bessel-K call.  A point
    past 1e8 before the cutoff raises :class:`AccuracyError`.  This is
    how ``specfun.meijer_g_m0_log`` bracketed its seeds before it read
    the cutoff off one fixed grid, which must find the same points.
    """
    mu, nu, x = (np.asarray(v, dtype=float) for v in (mu, nu, x))
    log_g = _seed_log_g(mu, nu)
    u_lo = 2.0 * np.sqrt(x)
    tail_floor = np.maximum(np.maximum(u_lo * 4.0, np.abs(nu) * 3.0), 50.0)
    u_next, u_hi = u_lo.copy(), np.empty(x.size)
    g_max = np.full(x.size, -math.inf)
    k_hi = np.zeros(x.size, dtype=int)
    live, base = np.arange(x.size), 0
    while live.size:
        steps = np.full((live.size, 32), 1.2)
        steps[:, 0] = u_next[live]
        us = np.multiply.accumulate(steps, axis=1)
        gs = log_g(us.ravel(), np.repeat(live, 32)).reshape(us.shape)
        peaks = np.maximum.accumulate(
            np.column_stack((g_max[live], gs)), axis=1)[:, 1:]
        stop = (gs < peaks - 60.0) & (us > tail_floor[live, None])
        end = np.where(stop.any(axis=1), stop.argmax(axis=1), 32)
        if np.any((us > 1e8) & (np.arange(32) < end[:, None])):
            raise AccuracyError("Bessel tail integral fails to decay")
        last = np.minimum(end, 31)
        lanes = np.arange(live.size)
        u_hi[live], g_max[live] = us[lanes, last], peaks[lanes, last]
        k_hi[live] = base + last
        u_next[live] = us[:, -1] * 1.2
        live, base = live[end == 32], base + 32
    return k_hi, u_hi, g_max


def meijer_g_m0_log_scan(mu, nu, x) -> np.ndarray:
    """``specfun.meijer_g_m0_log`` over the brackets of :func:`seed_bracket_scan`.

    The quadrature, its tolerance and the closing arithmetic are the
    package's, so the two must agree bit for bit.
    """
    mu, nu, x = (np.asarray(v, dtype=float) for v in (mu, nu, x))
    _, u_hi, g_max = seed_bracket_scan(mu, nu, x)
    log_g = _seed_log_g(mu, nu)

    def shifted(ts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return apply_math(math.exp, log_g(apply_math(math.exp, ts), rows)
                          - g_max[rows])

    t_lo = apply_math(math.log, 2.0 * np.sqrt(x))
    t_hi = apply_math(math.log, u_hi)
    vals = adaptive_gl(shifted, t_lo, t_hi, 1e-12 * (t_hi - t_lo), x.size)
    return (-0.5 * (mu + 1.0) * apply_math(math.log, x)
            + (1.0 - mu) * math.log(2.0)
            + (g_max + apply_math(math.log, vals)))


def upper_gamma_poisson_loop(a: int, x: np.ndarray) -> np.ndarray:
    """Q(a, x) = exp(-x) sum_{t<a} x^t / t!, one recurrence step per loop pass."""
    x = np.asarray(x, dtype=float)
    term = np.exp(-x)
    total = term.copy()
    for t in range(1, a):
        term = term * (x / t)
        total += term
    return np.minimum(total, 1.0)


def adaptive_gl_recursive(f, lo: float, hi: float, abs_tol: float) -> float:
    """Adaptive Gauss-Legendre integral of ``f(x)``, depth first.

    A panel whose halves differ from it by more than its tolerance
    recurses into both halves with half the tolerance each, up to
    ``_GL_MAX_DEPTH`` halvings, and returns left + right.
    """

    def panel(a: float, b: float) -> float:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        return half * float(np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))

    def recurse(a: float, b: float, whole: float, tol: float,
                depth: int) -> float:
        mid = 0.5 * (a + b)
        left = panel(a, mid)
        right = panel(mid, b)
        if abs(left + right - whole) <= tol:
            return left + right
        if depth >= _GL_MAX_DEPTH:
            raise AccuracyError("quadrature failed to converge")
        return (recurse(a, mid, left, 0.5 * tol, depth + 1)
                + recurse(mid, b, right, 0.5 * tol, depth + 1))

    return recurse(lo, hi, panel(lo, hi), abs_tol, 0)


def adaptive_gl_each(f, lo, hi, abs_tol, count: int) -> np.ndarray:
    """``specfun.adaptive_gl`` as ``count`` separate recursions.

    ``lo``, ``hi`` and ``abs_tol`` are one value for every integral or
    one per integral, as the package takes them.
    """
    lo, hi, abs_tol = (np.broadcast_to(np.asarray(v, dtype=float),
                                       (count,)).tolist()
                       for v in (lo, hi, abs_tol))
    return np.array([
        adaptive_gl_recursive(lambda x, i=i: f(x, np.full(x.size, i)),
                              lo[i], hi[i], abs_tol[i])
        for i in range(count)])


#: Absolute tolerance of each integral over W of the direct F_Z
#: quadrature, and the Gamma tail mass of W left past its cutoff.
_QUAD_ABS_TOL = 1e-12
_W_TAIL_LEVEL = 1e-13


def cdf_Z_quadrature_recursive(z: float, p: ClosedFormParams) -> float:
    """F_S(z~ / w)^N against the density of W, one recursion for one z."""
    if z <= 0.0:
        return 0.0
    z_tilde = z / p.scale
    w_hi = tail_cutoff(p.m2 * p.n_elements, _W_TAIL_LEVEL) / p.m2

    def integrand(w: np.ndarray) -> np.ndarray:
        return (cdf_S(z_tilde / w, p.m1, p.n_elements) ** p.n_users
                * pdf_W(w, p.m2, p.n_elements))

    val = adaptive_gl_recursive(integrand, 0.0, w_hi, _QUAD_ABS_TOL)
    return min(1.0, max(0.0, val))


def cdf_Z_quadrature_batched(z: np.ndarray, p: ClosedFormParams) -> np.ndarray:
    """:func:`cdf_Z_quadrature_recursive` at every entry of the array ``z``,
    the integrals in one breadth-first ``adaptive_gl`` call."""
    z_arr = np.asarray(z, dtype=float)
    out = np.zeros(z_arr.shape)
    pos = z_arr > 0.0
    z_tilde = z_arr[pos] / p.scale
    w_hi = tail_cutoff(p.m2 * p.n_elements, _W_TAIL_LEVEL) / p.m2

    def integrand(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return (cdf_S(z_tilde[rows] / w, p.m1, p.n_elements) ** p.n_users
                * pdf_W(w, p.m2, p.n_elements))

    val = adaptive_gl(integrand, 0.0, w_hi, _QUAD_ABS_TOL, z_tilde.size)
    out[pos] = np.minimum(1.0, np.maximum(0.0, val))
    return out


def zsrp_pfs_value_recursive(p: ClosedFormParams) -> float:
    """Proportional-fair ZSRP value: one inner recursion per distance node.

    The node's gain threshold is the scalar ``ref_gain / r ** 2``.
    """
    r_eve = p.r_eve_m

    def integrand(r: np.ndarray) -> np.ndarray:
        return (np.array([cdf_Z_quadrature_recursive(p.ref_gain / ri ** 2, p)
                          for ri in r])
                * 3.0 * r ** 2 / r_eve ** 3)

    val = adaptive_gl_recursive(integrand, 0.0, r_eve, 1e-10)
    return min(1.0, max(0.0, val))


def _cdf_u_nodes(b: np.ndarray, a_2: int) -> np.ndarray:
    """F_U(b) = P(a_2, b) + b^(3/2) Gamma(a_2 - 3/2, b) / Gamma(a_2) at each
    node, U = (psi/R)^2 G with G ~ Gamma(a_2, 1); the finite sum of the
    half-integer upper Gamma function is taken node by node."""
    root = np.sqrt(b)
    erfc = np.array([math.erfc(v) for v in root.tolist()])
    if a_2 == 1:
        # Gamma(-1/2, b) = 2 (e^-b / sqrt b - sqrt(pi) erfc(sqrt b))
        gamma_ratio = 2.0 * (np.exp(-b) / root - math.sqrt(math.pi) * erfc)
    else:
        # Gamma(n + 1/2, b) / Gamma(n + 1/2)
        #   = erfc(sqrt b) + sum_{k<n} e^-b b^(k+1/2) / Gamma(k + 3/2)
        n = a_2 - 2
        k = np.arange(n)
        lgam = np.array([math.lgamma(v + 1.5) for v in range(n)])
        sums = np.array([np.exp((k + 0.5) * log_b - bi - lgam).sum()
                         for bi, log_b in zip(b, np.log(b))])
        # Gamma(n + 1/2) / Gamma(n + 2) as a product of ratios
        ratio = math.sqrt(math.pi) * math.prod(
            (v + 0.5) / (v + 1) for v in range(n)) / (a_2 - 1)
        gamma_ratio = ratio * (erfc + sums)
    return cdf_S(b, 1, a_2) + b * root * gamma_ratio


def zsrp_pfs_1d_recursive(p: ClosedFormParams) -> float:
    """ZSRP as one integral over the served user-side power sum, depth first.

    Integrates F_U(X / (m1 s)) N F_S(s)^(N-1) f_S(s) over
    [0, tail_cutoff(m1 L, 1e-17) / m1], first to 1e-8 absolute, then to
    1e-13 of that result (at least 1e-300), and clamps to [0, 1].
    """
    a_2 = p.m2 * p.n_elements

    def integrand(s: np.ndarray) -> np.ndarray:
        return (_cdf_u_nodes(p.big_x / (p.m1 * s), a_2) * p.n_users
                * cdf_S(s, p.m1, p.n_elements) ** (p.n_users - 1)
                * pdf_W(s, p.m1, p.n_elements))

    s_hi = tail_cutoff(p.m1 * p.n_elements, 1e-17) / p.m1
    coarse = adaptive_gl_recursive(integrand, 0.0, s_hi, 1e-8)
    val = adaptive_gl_recursive(integrand, 0.0, s_hi,
                                max(1e-13 * coarse, 1e-300))
    return min(1.0, max(0.0, val))


def eve_within(t, big_r: float, offset: float) -> np.ndarray:
    """P(eavesdropper within ``t`` of the BS), ball centre ``offset`` away.

    The eavesdropper is uniform in a ball of radius ``big_r``: the
    probability is the volume of that ball's intersection with the ball
    of radius t around the BS over its own volume, the sphere-sphere lens
    V = pi (R + t - d)^2 (d^2 + 2dt - 3t^2 + 2dR + 6tR - 3R^2) / (12 d)
    (Weisstein, "Sphere-Sphere Intersection", MathWorld) where the
    surfaces cross, else 0 or the smaller ball.  At d = 0 it is
    min(1, t/R)^3.
    """
    t = np.asarray(t, dtype=float)
    r, d = big_r, offset
    nested = (np.minimum(t, r) / r) ** 3
    with np.errstate(divide="ignore", invalid="ignore"):
        lens = ((r + t - d) ** 2
                * (d * d + 2 * d * t - 3 * t * t + 2 * d * r + 6 * t * r
                   - 3 * r * r) / (16.0 * d * r ** 3))
    return np.where(t + r <= d, 0.0, np.where(np.abs(r - t) >= d, nested, lens))


def _gl_panels(lo, hi, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [lo, hi] along the last
    axis, for arrays of brackets ``lo``, ``hi``."""
    x, w = np.polynomial.legendre.leggauss(order)
    lo = np.asarray(lo, dtype=float)[..., None, None]
    width = (np.asarray(hi, dtype=float)[..., None, None] - lo) / panels
    left = lo + width * np.arange(panels)[:, None]
    shape = left.shape[:-2] + (panels * order,)
    nodes = (left + 0.5 * width * (x + 1.0)).reshape(shape)
    weights = np.broadcast_to(0.5 * width * w, left.shape[:-1] + (order,))
    return nodes, weights.reshape(shape)


def zsrp_offset_ball(p: ClosedFormParams, offset: float) -> float:
    """ZSRP around an eavesdropper ball whose centre lies ``offset`` from
    the BS, free-space wiretap: E[eve_within(t, R, offset)] with
    t = sqrt(G0 / (sigma1^2 sigma2^2 S W)), S the largest of ``p.n_users``
    user power sums (one for round robin) and W the BS-side sum.

    Fixed composite Gauss-Legendre rules, 12 panels of 20 nodes (the rules
    the 1e-10 zero-offset check was measured with), over W and, at each W
    node, over S between the kinks of eve_within (t = R + d and
    t = |R - d|).  Where t > R + d the integrand is 1, and its mass F_S^N
    is taken exactly.  F_S is scipy's ``gammainc``.
    """
    a1, a2 = p.m1 * p.n_elements, p.m2 * p.n_elements
    r, d, n = p.r_eve_m, offset, p.n_users
    c = p.ref_gain / p.scale
    s_top = special.gammainccinv(a1, 1e-18) / p.m1
    w_top = special.gammainccinv(a2, 1e-18) / p.m2

    def log_gamma_pdf(x, a, rate):
        return a * math.log(rate) + (a - 1) * np.log(x) - rate * x - math.lgamma(a)

    w, w_wt = _gl_panels(0.0, w_top, 12, 20)
    # S below which t > R + d, and above which t < |R - d|
    s_far = np.minimum(c / (w * (r + d) ** 2), s_top)
    s_near = (np.full_like(w, s_top) if d == r
              else np.minimum(c / (w * (r - d) ** 2), s_top))
    inner = special.gammainc(a1, p.m1 * s_far) ** n
    for lo, hi in ((s_far, s_near), (s_near, np.full_like(w, s_top))):
        s, s_wt = _gl_panels(lo, hi, 12, 20)
        dens = n * special.gammainc(a1, p.m1 * s) ** (n - 1) * np.exp(
            log_gamma_pdf(s, a1, p.m1))
        t = np.sqrt(c / (w[:, None] * s))
        inner = inner + (s_wt * dens * eve_within(t, r, d)).sum(axis=1)
    return float((w_wt * np.exp(log_gamma_pdf(w, a2, p.m2)) * inner).sum())


# ---------------------------------------------------------------------------
# Fully connected scattering matrices
# ---------------------------------------------------------------------------
#
# A fully-connected (FC) RIS applies an L x L complex symmetric unitary
# scattering matrix Theta, realized through the Takagi-style factorization
# Theta = V diag(exp(-j phi)) V^T with V unitary.  Choosing V so that the
# transformed vectors V^T conj(h_rn) and V^T h_br both have flat magnitude
# profiles makes the Cauchy-Schwarz bound on |h_rn^H Theta h_br|^2 tight
# once the per-branch phases phi are aligned, giving the cascaded gain
# ||h_br||^2 ||h_rn||^2.  A conventional single-connected (SC) RIS only
# co-phases element-by-element products and reaches
# (sum_l |h_br,l| |h_rn,l|)^2 <= the FC gain.


@dataclass(frozen=True)
class PhaseDecomposition:
    """Takagi factors (V, phi) with Theta = V diag(exp(-j phi)) V^T."""

    v: np.ndarray
    phi: np.ndarray


def _orthonormal_frame(cols: np.ndarray) -> np.ndarray:
    """Square unitary whose leading columns Gram-Schmidt the inputs.

    QR with the diagonal of R rotated to the positive real axis, so column
    k of the result equals the k-th Gram-Schmidt vector of ``cols``.
    """
    n, k = cols.shape
    full = np.concatenate([cols, np.eye(n, dtype=complex)], axis=1)
    q, r = np.linalg.qr(full, mode="reduced")
    d = np.diagonal(r)[:n].copy()
    mag = np.abs(d)
    d = np.where(mag == 0.0, 1.0, d) / np.where(mag == 0.0, 1.0, mag)
    return q[:, :n] * d[None, :]


def _flat_profile_with_overlap(c: complex, n: int) -> np.ndarray:
    """Unit vector with |y_l| = 1/sqrt(n) and <flat, y> = c, |c| <= 1.

    Built from two phase groups at +/-delta around arg(c); odd sizes keep
    one element on the bisector and widen the group angle accordingly.
    """
    mag = min(abs(c), 1.0)
    ph = cmath.phase(c)
    if n == 1:
        return np.array([np.exp(1j * ph)])
    psis = np.empty(n)
    if n % 2 == 0:
        delta = math.acos(mag)
        half = n // 2
        psis[:half] = ph + delta
        psis[half:] = ph - delta
    else:
        pairs = (n - 1) // 2
        cosd = (n * mag - 1.0) / (n - 1.0)
        delta = math.acos(max(-1.0, min(1.0, cosd)))
        psis[0] = ph
        psis[1:1 + pairs] = ph + delta
        psis[1 + pairs:] = ph - delta
    return np.exp(1j * psis) / math.sqrt(n)


def construct_aligning_unitary(h_br: np.ndarray, h_rn: np.ndarray) -> np.ndarray:
    """Unitary V flattening both transformed channel magnitude profiles.

    Returns V such that p = V^T conj(h_rn) and q = V^T h_br satisfy
    |p_l| / ||p|| = |q_l| / ||q|| = 1/sqrt(L) for every branch l.  The map
    sends the normalized pair (conj(h_rn), h_br) onto a pair of flat-
    magnitude vectors with the same inner product (so a two-frame isometry
    exists) and acts as the identity on the orthogonal complement.
    """
    h_br = np.asarray(h_br, dtype=complex)
    h_rn = np.asarray(h_rn, dtype=complex)
    if h_br.ndim != 1 or h_br.shape != h_rn.shape:
        raise ValueError("channel vectors must be 1-D with equal length")
    nb = np.linalg.norm(h_br)
    nr = np.linalg.norm(h_rn)
    if nb == 0.0 or nr == 0.0:
        raise ValueError("channel vectors must be nonzero")
    n = h_br.shape[0]
    a = np.conj(h_rn) / nr
    b = h_br / nb
    c = complex(np.vdot(a, b))  # <a, b>
    x = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
    y = _flat_profile_with_overlap(c, n)
    if n == 1:
        w = np.array([[np.conj(a[0])]])  # maps a -> 1 = x
        return w.T
    # Work inside U = span{a, b, x, y} so the map is the identity on U^perp;
    # a two-frame isometry a,b -> x,y exists there because <a,b> = <x,y>.
    if n <= 4:
        w = _orthonormal_frame(np.stack([x, y], axis=1)) \
            @ _orthonormal_frame(np.stack([a, b], axis=1)).conj().T
        return w.T
    qu = _orthonormal_frame(np.stack([a, b, x, y], axis=1))[:, :4]
    eh = qu.conj().T @ np.stack([a, b], axis=1)   # coordinates of a, b in U
    fh = qu.conj().T @ np.stack([x, y], axis=1)   # coordinates of x, y in U
    w_core = _orthonormal_frame(fh) @ _orthonormal_frame(eh).conj().T
    w = np.eye(n, dtype=complex) + qu @ (w_core - np.eye(4, dtype=complex)) @ qu.conj().T
    return w.T


def optimal_phases(v: np.ndarray, h_br: np.ndarray, h_rn: np.ndarray) -> np.ndarray:
    """Branch phases aligning every summand of h_rn^H Theta h_br.

    With p = V^T conj(h_rn) and q = V^T h_br, the bilinear form is
    sum_l p_l exp(-j phi_l) q_l, so phi_l = arg(p_l) + arg(q_l) (mod 2 pi)
    makes each summand real and nonnegative.
    """
    p = v.T @ np.conj(h_rn)
    q = v.T @ h_br
    return np.mod(np.angle(p) + np.angle(q), 2.0 * math.pi)


def assemble_theta(decomp: PhaseDecomposition) -> np.ndarray:
    """Scattering matrix V diag(exp(-j phi)) V^T (symmetric unitary)."""
    v, phi = decomp.v, decomp.phi
    return (v * np.exp(-1j * phi)[None, :]) @ v.T


def fc_cascaded_gain(h_br: np.ndarray, h_rn: np.ndarray) -> float:
    """Optimal FC-RIS cascaded gain ||h_br||^2 ||h_rn||^2 (fast path)."""
    nb = np.linalg.norm(h_br)
    nr = np.linalg.norm(h_rn)
    return float((nb * nr) ** 2)


def sc_cascaded_gain(h_br: np.ndarray, h_rn: np.ndarray) -> float:
    """Single-connected benchmark gain (sum_l |h_br,l| |h_rn,l|)^2."""
    return float(np.sum(np.abs(h_br) * np.abs(h_rn)) ** 2)


def fc_cascaded_gain_via_theta(h_br: np.ndarray, h_rn: np.ndarray) -> float:
    """Same gain evaluated through the explicit scattering matrix."""
    v = construct_aligning_unitary(h_br, h_rn)
    phi = optimal_phases(v, h_br, h_rn)
    theta = assemble_theta(PhaseDecomposition(v=v, phi=phi))
    amp = np.conj(h_rn) @ theta @ h_br
    return float(np.abs(amp) ** 2)
