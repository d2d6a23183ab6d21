"""Analytic zero secrecy rate probability (ZSRP) for the FC-RIS downlink.

The cascaded main-link gain of the scheduled user factors as

    Z = sigma1^2 sigma2^2 S W,

where S (user-side element power sum) and W (BS-side element power sum)
are independent Gamma variates with shapes m1 L and m2 L and unit-mean
elements, and sigma1^2, sigma2^2 carry the large-scale gains of the two
hops.  The wiretap link of an eavesdropper uniformly distributed in a
ball of radius R around the BS has gain G0 / psi^2 with distance density
3 r^2 / R^3, and the transmit power cancels from the secrecy-rate
comparison, so

    ZSRP = E_psi[ F_Z(G0 / psi^2) ].

Evaluation routes, cross-checked against each other:

* ``cdf_Z_single``: finite Bessel-K series for F_Z (exact up to
  rounding), the fast route for the single-user cascade;
* ``cdf_Z_quadrature``: independent direct integration over the BS-side
  power sum, the adjudicating oracle; the proportional-fair variant
  replaces F_S by F_S^N (CDF of the served maximum);
* a closed-form composite reducing the psi-average to Meijer G
  functions, reported as ``closed_form`` next to the quadrature
  ``value`` with their relative gap.

Proportional-fair order statistics are expanded two ways: collapsed
polynomial coefficients (production) and an explicit subset-term
enumeration (validation), tied together by an exact identity.
Single-connected architectures have no tractable cascaded distribution
here and raise :class:`AnalyticUnavailableError`.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import specfun
from .errors import AccuracyError, AnalyticUnavailableError, CapacityError
from .fading import cdf_S, pdf_W
from .propagation import bs_ris_gain, ris_user_gain
from .scheduling import SchemeId

logger = logging.getLogger(__name__)

#: Largest user count accepted by the series/enumeration expansions; the
#: quadrature path has no such cap and stays authoritative beyond it.
MAX_ORDER_STAT_USERS = 12

#: Cap on the number of Meijer-G composite terms in one closed-form call.
MAX_COMPOSITE_TERMS = 5000

#: Cap on explicitly enumerated subset terms (memory guard).
MAX_SUBSET_TERMS = 2_000_000


@dataclass(frozen=True)
class ClosedFormParams:
    """Reduced parameter set feeding the analytic ZSRP routes."""

    m1: int
    m2: int
    n_elements: int
    sigma1_sq: float
    sigma2_sq: float
    ref_gain: float
    r_eve_m: float
    n_users: int = 1

    def __post_init__(self) -> None:
        for name in ("m1", "m2", "n_elements", "n_users"):
            val = getattr(self, name)
            if not isinstance(val, (int, np.integer)) or val < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        for name in ("sigma1_sq", "sigma2_sq", "ref_gain", "r_eve_m"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def big_x(self) -> float:
        """Composite argument m1 m2 G0 / (sigma1^2 sigma2^2 R^2)."""
        return (self.m1 * self.m2 * self.ref_gain
                / (self.sigma1_sq * self.sigma2_sq * self.r_eve_m ** 2))


@dataclass(frozen=True)
class AnalyticZsrp:
    """Quadrature value, Meijer-composite value (when available), gap."""

    value: float
    closed_form: Optional[float]
    rel_gap: Optional[float]


# ---------------------------------------------------------------------------
# CDF of the (scheduled) cascaded gain
# ---------------------------------------------------------------------------

def _log_binom(n: int, k: int) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))


@lru_cache(maxsize=None)
def _log_ordered_sum_coefficients(j: int, m1_elements: int) -> tuple[float, ...]:
    """log gamma_{j,B} via repeated log-space convolution.

    The coefficients span hundreds of orders of magnitude once j (m1 L)
    gets large; a linear-space polynomial power silently flushes the
    deep-tail entries to zero (or subnormals with a handful of
    significant bits), which feeds visible error into the composite sum
    because those entries multiply astronomically large power factors.
    All terms are positive so logaddexp is exact to rounding.
    """
    base = np.array([-math.lgamma(t + 1) for t in range(m1_elements)])
    cur = base.copy()
    for _ in range(j - 1):
        nxt = np.full(cur.size + m1_elements - 1, -np.inf)
        for t in range(m1_elements):
            nxt[t:t + cur.size] = np.logaddexp(nxt[t:t + cur.size],
                                               cur + base[t])
        cur = nxt
    return tuple(cur)


def ordered_sum_coefficients(j: int, m1_elements: int) -> np.ndarray:
    """Coefficients gamma_{j,B} of x^B in (sum_{t<m1 L} x^t / t!)^j.

    These collapse the multinomial expansion of the j-fold truncated
    exponential product; B runs from 0 to j (m1 L - 1).  Entries below
    the double-precision floor come back as zero; the internal series
    routes consume the log-space representation instead.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    if j == 0:
        return np.array([1.0])
    return np.exp(np.array(_log_ordered_sum_coefficients(j, m1_elements)))


def _cdf_cascade_series(z: float, m1: int, m2: int, n_elements: int,
                        sigma1_sq: float, sigma2_sq: float,
                        n_users: int) -> float:
    """Bessel-K series CDF of Z = sigma1^2 sigma2^2 S_(N) W (log-space)."""
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if n_users > MAX_ORDER_STAT_USERS:
        raise CapacityError(
            f"order-statistics series supports at most "
            f"{MAX_ORDER_STAT_USERS} users, got {n_users}")
    if z <= 0.0:
        return 0.0
    m_2 = m2 * n_elements
    xi = m1 * m2 * z / (sigma1_sq * sigma2_sq)
    log_xi = math.log(xi)
    ln_gamma_m2 = specfun.ln_gamma(m_2)
    logs: list[float] = []
    signs: list[float] = []
    for j in range(1, n_users + 1):
        log_row = _log_ordered_sum_coefficients(j, m1 * n_elements)
        log_j = math.log(j)
        arg = 2.0 * math.sqrt(j * xi)
        sign_j = -1.0 if j % 2 else 1.0
        log_lead = math.log(2.0) - ln_gamma_m2 + _log_binom(n_users, j)
        for b, log_coef in enumerate(log_row):
            log_term = (log_lead + log_coef
                        + 0.5 * (m_2 + b) * (log_j + log_xi) - b * log_j
                        + specfun.log_bessel_k(abs(m_2 - b), arg))
            logs.append(log_term)
            signs.append(sign_j)
    total_log, total_sign = specfun.log_sum_exp(
        np.array(logs), np.array(signs))
    if total_log == -math.inf:
        return 1.0
    if total_sign < 0.0:
        # F = 1 - |sum|; expm1 keeps precision when the sum is close to 1
        val = -math.expm1(total_log) if total_log < 0.0 else 0.0
    else:
        val = 1.0 + math.exp(total_log)
    return min(1.0, max(0.0, val))


def cdf_Z_single(z: float, p: ClosedFormParams) -> float:
    """Series CDF of the single-user cascade Z = sigma1^2 sigma2^2 S W.

    F(z) = 1 - (2/Gamma(m2 L)) sum_{t<m1 L} (1/t!) xi^((m2 L + t)/2)
           K_{m2 L - t}(2 sqrt(xi)),   xi = m1 m2 z / (sigma1^2 sigma2^2).

    Validated against :func:`cdf_Z_quadrature`; returns 0 for z <= 0.
    """
    return _cdf_cascade_series(z, p.m1, p.m2, p.n_elements,
                               p.sigma1_sq, p.sigma2_sq, n_users=1)


def _tail_cutoff(shape: float, rate: float, abs_tol: float) -> float:
    """Upper limit w_hi with Gamma(shape, rate) tail mass below abs_tol."""
    w_hi = max(1.0, 2.0 * shape / rate)
    for _ in range(200):
        if specfun.regularized_upper_gamma(shape, rate * w_hi) < abs_tol:
            return w_hi
        w_hi *= 1.5
    raise AccuracyError("could not bracket the Gamma tail")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _adaptive_gl(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                 abs_tol: float, max_depth: int = 16) -> float:
    """Adaptive Gauss-Legendre integral of a vectorized integrand."""

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
        if depth >= max_depth:
            raise AccuracyError("quadrature failed to converge")
        return (recurse(a, mid, left, 0.5 * tol, depth + 1)
                + recurse(mid, b, right, 0.5 * tol, depth + 1))

    return recurse(lo, hi, panel(lo, hi), abs_tol, 0)


def cdf_Z_quadrature(z: float, p: ClosedFormParams, pfs: bool = False,
                     abs_tol: float = 1e-10) -> float:
    """Cascade CDF by direct integration over the BS-side power sum.

    Independent of the Bessel route: integrates F_S(z~ / w) (raised to
    the N-th power when ``pfs``, the CDF of the served maximum) against
    the Gamma density of W by adaptive quadrature; the truncated tail is
    bounded through the regularized upper gamma function.  Works for any
    user count.
    """
    if z <= 0.0:
        return 0.0
    n_users = p.n_users if pfs else 1
    z_tilde = z / (p.sigma1_sq * p.sigma2_sq)
    w_hi = _tail_cutoff(p.m2 * p.n_elements, p.m2, 0.1 * abs_tol)

    def integrand(w: np.ndarray) -> np.ndarray:
        w = np.maximum(w, 1e-300)
        return (cdf_S(z_tilde / w, p.m1, p.n_elements) ** n_users
                * pdf_W(w, p.m2, p.n_elements))

    val = _adaptive_gl(integrand, 0.0, w_hi, abs_tol)
    return min(1.0, max(0.0, val))


# ---------------------------------------------------------------------------
# Subset-term expansion of the order-statistics CDF
# ---------------------------------------------------------------------------

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
    composition of the subset size into m1 L parts.  Guarded by
    :class:`CapacityError`; callers beyond the cap must use the
    quadrature path.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if n_users > MAX_ORDER_STAT_USERS:
        raise CapacityError(
            f"subset enumeration supports at most {MAX_ORDER_STAT_USERS} "
            f"users, got {n_users}; use the quadrature path")
    if m1_elements < 1:
        raise ValueError("m1_elements must be >= 1")
    total = sum(math.comb(n_users, j) * math.comb(j + m1_elements - 1, j)
                for j in range(1, n_users + 1))
    if total > MAX_SUBSET_TERMS:
        raise CapacityError(
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
    coefficients from :func:`ordered_sum_coefficients`.
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


# ---------------------------------------------------------------------------
# Closed-form psi-averaged ZSRP (Meijer G composites)
# ---------------------------------------------------------------------------

def _log_g31_tail(mu: float, nu: float, x: float) -> float:
    """log of G^{3,0}_{1,3}(x | (1-mu)/2; nu/2, -nu/2, -(mu+1)/2).

    Uses the tail-integral identity

        G(x) = x^{-(mu+1)/2} * 2^{1-mu} * int_{2 sqrt(x)}^inf u^mu K_nu(u) du,

    whose integrand is positive, so the evaluation is cancellation-free
    for any parameter size (the contour engine loses all significance
    once the lower parameters are pole-pinned far from its saddle).
    The Bessel factor runs through the log-scaled recurrence, keeping
    huge orders finite.
    """
    order = abs(int(round(nu)))
    u_lo = 2.0 * math.sqrt(x)

    # integrate in t = ln u so the bracket width stays a few nats wide and
    # the peak-normalized integrand makes the quadrature tolerance an
    # effectively relative one; du = u dt folds into the exponent
    def log_g(u: float) -> float:
        return (mu + 1.0) * math.log(u) + specfun.log_bessel_k(order, u)

    # coarse geometric scan for the integrand peak and a -60 nats cutoff;
    # the peak sits near sqrt(mu^2 - nu^2) when that exceeds the lower end
    u, g_max, u_hi = u_lo, log_g(u_lo), u_lo
    tail_floor = max(u_lo * 4.0, float(order) * 3.0, 50.0)
    while True:
        u *= 1.2
        g_u = log_g(u)
        if g_u > g_max:
            g_max = g_u
        u_hi = u
        if g_u < g_max - 60.0 and u > tail_floor:
            break
        if u > 1e8:
            raise AccuracyError("Bessel tail integral fails to decay")

    def shifted(ts: np.ndarray) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.array([math.exp(log_g(math.exp(ti)) - g_max) for ti in ts])

    t_lo, t_hi = math.log(u_lo), math.log(u_hi)
    val = _adaptive_gl(shifted, t_lo, t_hi, 1e-12 * (t_hi - t_lo))
    log_j = g_max + math.log(val)
    return -0.5 * (mu + 1.0) * math.log(x) + (1.0 - mu) * math.log(2.0) + log_j


def _log_meijer_composite(mu: float, nu: float, x: float) -> tuple[float, float]:
    """(log|G|, sign) of the distance-averaged composite, robustly.

    The Mellin-Barnes engine is exact while its cancellation guard
    holds; beyond that (large m2*L pushes the lower parameters far from
    the contour saddle) the positive tail-integral identity takes over.
    """
    try:
        return specfun.meijer_g_m0_log(
            a=[0.5 * (1.0 - mu)],
            b=[0.5 * nu, -0.5 * nu, -0.5 * (mu + 1.0)],
            x=x)
    except AccuracyError:
        return _log_g31_tail(mu, nu, x), 1.0


def _closed_form(params: ClosedFormParams) -> float:
    """Meijer-G composite for the psi-averaged ZSRP.

    Each Bessel term of the cascade CDF integrates in closed form over
    the eavesdropper distance:

        int_0^R (3 r^2 / R^3) (c / r^2)^(k/2) K_nu(theta R / r) dr
            = (3/4) X^(k/2) G^{3,0}_{1,3}(X | (1-mu)/2;
                                          nu/2, -nu/2, -(mu+1)/2),

    with X = theta^2 / 4 the composite argument at r = R and
    mu = k - 4 for the k-th power weight.
    """
    if params.n_users > MAX_ORDER_STAT_USERS:
        raise CapacityError(
            f"closed-form composite supports at most "
            f"{MAX_ORDER_STAT_USERS} users, got {params.n_users}")
    m_2 = params.m2 * params.n_elements
    big_x = params.big_x
    log_x = math.log(big_x)
    ln_gamma_m2 = specfun.ln_gamma(m_2)
    n_terms = sum(
        j * (params.m1 * params.n_elements - 1) + 1
        for j in range(1, params.n_users + 1))
    if n_terms > MAX_COMPOSITE_TERMS:
        raise CapacityError(
            f"closed-form composite needs {n_terms} Meijer terms "
            f"(cap {MAX_COMPOSITE_TERMS}); reduce users or elements")
    logs: list[float] = []
    signs: list[float] = []
    for j in range(1, params.n_users + 1):
        log_row = _log_ordered_sum_coefficients(
            j, params.m1 * params.n_elements)
        log_j = math.log(j)
        sign_j = -1.0 if j % 2 else 1.0
        log_lead = (math.log(1.5) - ln_gamma_m2
                    + _log_binom(params.n_users, j))
        for b, log_coef in enumerate(log_row):
            mu = m_2 + b - 4
            nu = m_2 - b
            log_g, sign_g = _log_meijer_composite(mu, nu, j * big_x)
            log_term = (log_lead + log_coef
                        + 0.5 * (m_2 + b) * (log_j + log_x) - b * log_j
                        + log_g)
            logs.append(log_term)
            signs.append(sign_j * sign_g)
    total_log, total_sign = specfun.log_sum_exp(
        np.array(logs), np.array(signs))
    if total_log == -math.inf:
        return 1.0
    if total_sign < 0.0:
        val = -math.expm1(total_log) if total_log < 0.0 else 0.0
    else:
        val = 1.0 + math.exp(total_log)
    return min(1.0, max(0.0, val))


def psi_average(cdf_at_distance: Callable[[float], float], r_eve_m: float,
                abs_tol: float = 1e-10) -> float:
    """E_psi[cdf(psi)] for psi uniform-in-ball: density 3 r^2 / R^3."""
    if r_eve_m <= 0.0:
        raise ValueError("r_eve_m must be positive")

    def integrand(r: np.ndarray) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        return (np.array([cdf_at_distance(ri) for ri in r])
                * 3.0 * r ** 2 / r_eve_m ** 3)

    val = _adaptive_gl(integrand, 0.0, r_eve_m, abs_tol)
    return min(1.0, max(0.0, val))


def _with_users(p: ClosedFormParams, n_users: int) -> ClosedFormParams:
    if p.n_users == n_users:
        return p
    return ClosedFormParams(
        m1=p.m1, m2=p.m2, n_elements=p.n_elements,
        sigma1_sq=p.sigma1_sq, sigma2_sq=p.sigma2_sq,
        ref_gain=p.ref_gain, r_eve_m=p.r_eve_m, n_users=n_users)


def _report(value: float, closed: Optional[float],
            rel_warn: float) -> AnalyticZsrp:
    if closed is None:
        return AnalyticZsrp(value=value, closed_form=None, rel_gap=None)
    rel_gap = abs(closed - value) / max(value, 1e-300)
    logger.debug("closed-form composite vs quadrature: value=%.12e "
                 "closed=%.12e rel_gap=%.3e", value, closed, rel_gap)
    if rel_gap > rel_warn:
        warnings.warn(
            f"closed-form composite deviates from quadrature by "
            f"{rel_gap:.2e} (value={value:.6e}, closed={closed:.6e})",
            RuntimeWarning, stacklevel=3)
    return AnalyticZsrp(value=value, closed_form=closed, rel_gap=rel_gap)


def zsrp_rs(p: ClosedFormParams, rel_warn: float = 1e-6) -> AnalyticZsrp:
    """Round-robin ZSRP: psi-average of the single-user cascade CDF.

    ``value`` comes from 1-D quadrature of the series CDF over the
    eavesdropper distance; ``closed_form`` from the Meijer composite.
    """
    single = _with_users(p, 1)
    value = psi_average(
        lambda r: cdf_Z_single(single.ref_gain / r ** 2, single),
        single.r_eve_m)
    try:
        closed = _closed_form(single)
    except AccuracyError as exc:
        logger.info("closed-form composite unavailable here (%s); "
                    "quadrature value returned alone", exc)
        closed = None
    return _report(value, closed, rel_warn)


def zsrp_pfs(p: ClosedFormParams, rel_warn: float = 1e-6) -> AnalyticZsrp:
    """Proportional-fair ZSRP: the served cascade is the N-user maximum.

    ``value`` comes from the F_S^N quadrature path (authoritative for
    any N); the series/Meijer ``closed_form`` is attached when the user
    count is within the expansion cap, otherwise omitted.
    """
    value = psi_average(
        lambda r: cdf_Z_quadrature(p.ref_gain / r ** 2, p, pfs=True,
                                   abs_tol=1e-12),
        p.r_eve_m, abs_tol=1e-10)
    try:
        closed = _closed_form(p)
    except CapacityError:
        logger.info("closed-form composite omitted for N=%d users "
                    "(series cap); quadrature value returned alone",
                    p.n_users)
        closed = None
    except AccuracyError as exc:
        logger.info("closed-form composite unavailable here (%s); "
                    "quadrature value returned alone", exc)
        closed = None
    return _report(value, closed, rel_warn)


def zsrp_for_scheme(scheme: SchemeId, config) -> AnalyticZsrp:
    """Analytic ZSRP for one scheme on a concrete scenario.

    ``config`` is a :class:`~zsrpsim.secrecy.ScenarioConfig`.  Only the
    fully-connected architecture is tractable here; single-connected
    schemes raise :class:`AnalyticUnavailableError`.  Mixed RIS-user
    distances are supported for round-robin (slot average of per-user
    results); proportional fairness requires identical users.  The
    formulas also require the free-space wiretap exponent and an
    eavesdropper ball centred on the BS: a ``fixed`` centre offset from
    the current BS altitude is refused.
    """
    if not scheme.fully_connected:
        raise AnalyticUnavailableError(
            f"no closed-form ZSRP for scheme {scheme.value!r}; "
            f"use the Monte-Carlo evaluator")
    if abs(config.alpha_eve - 2.0) > 1e-12:
        raise AnalyticUnavailableError(
            "analytic ZSRP requires the free-space wiretap exponent 2; "
            f"got alpha_eve={config.alpha_eve}")
    geometry = config.geometry
    if (config.eve_center == "fixed" and config.eve_center_h_m is not None
            and config.eve_center_h_m != geometry.h_br_m):
        raise AnalyticUnavailableError(
            "analytic ZSRP requires the eavesdropper ball centred on the BS; "
            f"its fixed centre at {config.eve_center_h_m:g} m is offset from "
            f"the BS altitude {geometry.h_br_m:g} m; use the Monte-Carlo "
            "evaluator")
    environment = config.air
    fading = config.fading
    sigma2_sq = bs_ris_gain(geometry, environment)
    n_users = geometry.n_users
    sigma1 = [ris_user_gain(geometry, environment, u)
              for u in range(n_users)]
    homogeneous = all(abs(s - sigma1[0]) <= 1e-12 * sigma1[0]
                      for s in sigma1)

    def make(sig1: float, users: int) -> ClosedFormParams:
        return ClosedFormParams(
            m1=fading.m1, m2=fading.m2, n_elements=fading.n_elements,
            sigma1_sq=sig1, sigma2_sq=sigma2_sq,
            ref_gain=environment.ref_gain, r_eve_m=geometry.r_eve_m,
            n_users=users)

    if scheme.rule == "rs":
        if homogeneous:
            return zsrp_rs(make(sigma1[0], 1))
        parts = [zsrp_rs(make(s, 1)) for s in sigma1]
        value = sum(part.value for part in parts) / n_users
        if any(part.closed_form is None for part in parts):
            return AnalyticZsrp(value=value, closed_form=None, rel_gap=None)
        closed = sum(part.closed_form for part in parts) / n_users
        return AnalyticZsrp(value=value, closed_form=closed,
                            rel_gap=abs(closed - value) / max(value, 1e-300))
    if not homogeneous:
        raise AnalyticUnavailableError(
            "proportional-fair closed form requires a common RIS-user "
            "distance; mixed distances need the Monte-Carlo evaluator")
    return zsrp_pfs(make(sigma1[0], n_users))
