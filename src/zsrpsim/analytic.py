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
  rounding), the fast route for the single-user cascade; its terms
  share one argument, so one Bessel-K recurrence gives every order.  It
  takes an array of z: one array Bessel-K recurrence and one
  (nodes x terms) order-statistic sum serve all distance nodes of an
  integrand call, each node bit for bit as alone;
* ``cdf_Z_quadrature``: independent direct integration over the BS-side
  power sum, the adjudicating oracle; it raises F_S to the user count N
  (CDF of the served maximum), so proportional fairness needs no
  separate route;
* a closed-form composite reducing the psi-average to Meijer G
  functions, reported as ``closed_form`` (where the rounding bound of its
  sum admits it) next to the quadrature ``value`` with their gap.

Every quadrature here (the inner integrals over W, the distance average
and the tail integral of a composite seed) is the one adaptive
Gauss-Legendre rule :func:`~zsrpsim.specfun.adaptive_gl`, which refines
breadth first: each level evaluates the halves of every open panel of
every integral together, in integrand calls of at most
``specfun._GL_PANELS_PER_CALL`` panels.  So the proportional-fair
``value`` integrates the inner integrals of all distance nodes of an
outer call at once.  Each panel sum, convergence test and fold is the
one a depth-first recursion makes, so every value is bit for bit the
recursion's.  Where F_S is exactly 1.0 in double precision,
:func:`~zsrpsim.fading.cdf_S` writes it without the Poisson sum.

Proportional-fair order statistics enter through collapsed polynomial
coefficients of the N-fold truncated exponential product; one series
routine sums them, row by row of a (rows x terms) array, for the
Meijer-G composite (one row) and, at N = 1, for the Bessel-K CDF (one
row per node).  Along one order-statistic row the Meijer-G terms are
Bessel tail integrals tied by a contiguous recurrence (DLMF 10.29.1 and
10.29.4), so a row costs three seed integrals (the positive tail
integral of :func:`~zsrpsim.specfun.meijer_g_m0_log`) plus one Bessel-K
recurrence at the row's argument, one step per term.
Single-connected architectures have no tractable cascaded distribution
here and raise :class:`AnalyticUnavailableError`.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import specfun
from .errors import AccuracyError, AnalyticUnavailableError
from .fading import cdf_S, pdf_W
from .propagation import bs_ris_gain, ris_user_gain
from .scheduling import SchemeId

logger = logging.getLogger(__name__)

#: Resolution of the closed-form cross-check: a larger closed-form vs
#: quadrature gap warns, and a larger relative rounding bound refuses.
REL_GAP_WARN = 1e-6


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
    """log gamma_{j,B}: one log-space convolution of the cached row j - 1.

    The coefficients span hundreds of orders of magnitude once j (m1 L)
    gets large; a linear-space polynomial power silently flushes the
    deep-tail entries to zero (or subnormals with a handful of
    significant bits), which feeds visible error into the composite sum
    because those entries multiply astronomically large power factors.
    All terms are positive so logaddexp is exact to rounding.
    """
    base = np.array([-math.lgamma(t + 1) for t in range(m1_elements)])
    if j == 1:
        return tuple(base)
    cur = np.array(_log_ordered_sum_coefficients(j - 1, m1_elements))
    nxt = np.full(cur.size + m1_elements - 1, -np.inf)
    for t in range(m1_elements):
        nxt[t:t + cur.size] = np.logaddexp(nxt[t:t + cur.size], cur + base[t])
    return tuple(nxt)


def _order_stat_series(m1_elements: int, m_2: int, lead: float,
                       log_arg: np.ndarray,
                       log_kernels: list[np.ndarray]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """1 + sum over (j, B) of the collapsed order-statistic expansion, per row.

    Term (j, B) is (-1)^j C(N, j) gamma_{j,B} j^{(m2 L - B)/2}
    arg^{(m2 L + B)/2} lead / Gamma(m2 L) times the kernel, which is
    positive.  ``log_arg`` holds ln arg for each row, and
    ``log_kernels[j - 1]`` is the log kernel of B = 0, 1, ... of
    order-statistic index j, an array that broadcasts to (rows x terms).
    Each row is summed in log space and clamped to [0, 1].  Shared by
    the Bessel-K series CDF (one row per node) and the Meijer-G composite
    (one row), which differ only in ``lead``, the argument and the
    kernels; N is the kernel count.  Each row also gets the rounding
    bound eps max(1, max|ln t|) (1 + sum|t|) of its signed sum (Higham
    2002, sec. 4.2, with each term's exp rounding).
    """
    ln_gamma_m2 = math.lgamma(m_2)
    logs: list[np.ndarray] = []
    signs: list[np.ndarray] = []
    for j, log_k in enumerate(log_kernels, start=1):
        log_coef = np.array(_log_ordered_sum_coefficients(j, m1_elements))
        b = np.arange(log_coef.size)
        log_j = math.log(j)
        sign_j = -1.0 if j % 2 else 1.0
        log_lead = math.log(lead) - ln_gamma_m2 + _log_binom(len(log_kernels), j)
        logs.append(log_lead + log_coef
                    + 0.5 * (m_2 + b) * (log_j + log_arg[:, None]) - b * log_j
                    + log_k)
        signs.append(np.broadcast_to(sign_j, logs[-1].shape))
    all_logs = np.concatenate(logs, axis=1)
    total_log, total_sign = specfun.log_sum_exp(
        all_logs, np.concatenate(signs, axis=1))
    # an empty or cancelled sum (sign 0) leaves F = 1
    val = np.ones(total_log.shape)
    neg = total_sign < 0.0
    # F = 1 - |sum|; expm1 keeps precision when the sum is close to 1
    below = neg & (total_log < 0.0)
    val[below] = -specfun.apply_math(math.expm1, total_log[below])
    val[neg & ~below] = 0.0
    pos = total_sign > 0.0
    val[pos] = 1.0 + specfun.apply_math(math.exp, total_log[pos])
    with np.errstate(over="ignore"):  # a term past the double range refuses
        bound = (np.finfo(float).eps * (1.0 + np.exp(all_logs).sum(axis=1))
                 * np.maximum(1.0, np.abs(all_logs).max(axis=1)))
    # fmax, as Python's max(0.0, v) does, maps a NaN to 0.0
    return np.minimum(1.0, np.fmax(0.0, val)), bound


def cdf_Z_single(z, p: ClosedFormParams):
    """Series CDF of the single-user cascade Z = sigma1^2 sigma2^2 S W.

    F(z) = 1 - (2/Gamma(m2 L)) sum_{t<m1 L} (1/t!) xi^((m2 L + t)/2)
           K_{m2 L - t}(2 sqrt(xi)),   xi = m1 m2 z / (sigma1^2 sigma2^2),

    summed in log space.  ``z`` is a scalar or an array; every order at
    every z comes from one array Bessel-K recurrence at 2 sqrt(xi), and
    the terms of all z are summed as rows of one array, each bit for bit
    as alone.  Validated against :func:`cdf_Z_quadrature`; returns 0 for
    z <= 0.
    """
    z_arr = np.asarray(z, dtype=float)
    out = np.zeros(z_arr.shape)
    pos = ~(z_arr <= 0.0)
    if np.any(pos):
        m_2 = p.m2 * p.n_elements
        m_1 = p.m1 * p.n_elements
        xi = p.m1 * p.m2 * z_arr[pos] / (p.sigma1_sq * p.sigma2_sq)
        log_k = specfun.log_bessel_k_upto(max(m_2, abs(m_2 - m_1 + 1)),
                                          2.0 * np.sqrt(xi))
        log_terms = log_k[:, np.abs(m_2 - np.arange(m_1))]
        # the recurrence passes the double range below xi ~ 1e-70: F = 0.0
        ok = np.isfinite(log_terms).all(axis=1)
        vals = np.zeros(ok.size)
        vals[ok], _ = _order_stat_series(
            m_1, m_2, 2.0, specfun.apply_math(math.log, xi[ok]),
            [log_terms[ok]])
        out[pos] = vals
    if np.ndim(z) == 0:
        return float(out)
    return out


@lru_cache(maxsize=None)
def _tail_cutoff(shape: float, rate: float, abs_tol: float) -> float:
    """Upper limit w_hi with Gamma(shape, rate) tail mass below abs_tol.

    Cached: it depends on its arguments only, and every call of the outer
    distance average asks for the same cutoff.
    """
    w_hi = max(1.0, 2.0 * shape / rate)
    for _ in range(200):
        if specfun.regularized_upper_gamma(shape, rate * w_hi) < abs_tol:
            return w_hi
        w_hi *= 1.5
    raise AccuracyError("could not bracket the Gamma tail")


def cdf_Z_quadrature(z, p: ClosedFormParams, abs_tol: float = 1e-10):
    """CDF of the N-user maximum cascade by direct integration over W.

    Independent of the Bessel route: integrates F_S(z~ / w)^N (the CDF
    of the served maximum, the single-user cascade when N = 1) against
    the Gamma density of W by adaptive quadrature; the truncated tail is
    bounded through the regularized upper gamma function.  Works for any
    user count.  ``z`` is a scalar or an array; the integrals of an array
    run together in one batched quadrature, each bit for bit as alone.
    """
    z_arr = np.asarray(z, dtype=float)
    out = np.zeros(z_arr.shape)
    pos = z_arr > 0.0
    if np.any(pos):
        z_tilde = z_arr[pos] / (p.sigma1_sq * p.sigma2_sq)
        w_hi = _tail_cutoff(p.m2 * p.n_elements, p.m2, 0.1 * abs_tol)

        def integrand(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
            w = np.maximum(w, 1e-300)
            return (cdf_S(z_tilde[rows] / w, p.m1, p.n_elements) ** p.n_users
                    * pdf_W(w, p.m2, p.n_elements))

        val = specfun.adaptive_gl(integrand, 0.0, w_hi, abs_tol, z_tilde.size)
        out[pos] = np.minimum(1.0, np.maximum(0.0, val))
    if np.ndim(z) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Closed-form psi-averaged ZSRP (Meijer G composites)
# ---------------------------------------------------------------------------

def _log_composite_row(m_2: int, jx: float, n_b: int) -> list[float]:
    """ln G of the composite at argument jx for B = 0 .. n_b - 1.

    With M = m_2, y = 2 sqrt(jx) and the tail integral
    I(B) = int_y^inf u^(M+B-4) K_(M-B)(u) du of
    :func:`~zsrpsim.specfun.meijer_g_m0_log`,
    G = jx^(-(M+B-3)/2) 2^(5-M-B) I(B).  The seeds B < 3 come from that
    evaluator; every further I(B) from

        I(B+1) = y^(M+B-3) K_(M-B)(y) + (2B-3) I(B),

    adding only positive terms from B = 2 on.  The Bessel factors of the
    row come from one Bessel-K recurrence at y, one step per term.  I(B)
    is carried in linear space under a running log scale.
    """
    row = [specfun.meijer_g_m0_log(m_2 + b - 4, m_2 - b, jx)
           for b in range(min(3, n_b))]
    if n_b <= 3:
        return row
    log_jx, ln2 = math.log(jx), math.log(2.0)
    y = 2.0 * math.sqrt(jx)
    log_y = math.log(y)
    log_k = specfun.log_bessel_k_upto(max(abs(m_2 - 2), abs(m_2 - n_b + 2)),
                                      y)

    def log_g_over_i(b: int) -> float:
        return -0.5 * (m_2 + b - 3) * log_jx - (m_2 + b - 5) * ln2

    scale, mant = row[2] - log_g_over_i(2), 1.0
    for b in range(3, n_b):
        log_step = (m_2 + b - 4) * log_y + log_k[abs(m_2 - b + 1)]
        mant = math.exp(log_step - scale) + (2 * b - 5) * mant
        if mant > 1e200:
            scale += math.log(mant)
            mant = 1.0
        row.append(scale + math.log(mant) + log_g_over_i(b))
    return row


def _closed_form(params: ClosedFormParams) -> Optional[float]:
    """Meijer-G composite for the psi-averaged ZSRP, or None where it refuses.

    Each Bessel term of the cascade CDF integrates in closed form over
    the eavesdropper distance:

        int_0^R (3 r^2 / R^3) (c / r^2)^(k/2) K_nu(theta R / r) dr
            = (3/4) X^(k/2) G^{3,0}_{1,3}(X | (1-mu)/2;
                                          nu/2, -nu/2, -(mu+1)/2),

    with X = theta^2 / 4 the composite argument at r = R and
    mu = k - 4 for the k-th power weight.  Along one order-statistic row
    (argument jX, M = m2 L, mu = M + B - 4, nu = M - B) the composite is a
    Bessel tail integral I(B), and DLMF 10.29.1 with
    d/du[u^-nu K_nu(u)] = -u^-nu K_(nu+1)(u) (DLMF 10.29.4) give

        I(B+1) = y^(M+B-3) K_(M-B)(y) + (2B-3) I(B),   y = 2 sqrt(jX),

    so a row takes three seed integrals (B = 0, 1, 2) and one Bessel-K
    recurrence at y, one step per further term
    (:func:`_log_composite_row`).  Logs the seed and term counts at
    DEBUG.  Where the rounding bound of the order-statistic sum
    (:func:`_order_stat_series`) exceeds ``REL_GAP_WARN`` of its value, or
    where no seed reaches its tolerance, it logs why at INFO and returns
    None, leaving the quadrature value alone.
    """
    m_1, m_2 = params.m1 * params.n_elements, params.m2 * params.n_elements
    big_x = params.big_x
    row_sizes = [j * (m_1 - 1) + 1 for j in range(1, params.n_users + 1)]
    closed = None
    try:
        log_kernels = [np.array(_log_composite_row(m_2, j * big_x, n_b))
                       for j, n_b in enumerate(row_sizes, start=1)]
        (value,), (bound,) = _order_stat_series(
            m_1, m_2, 1.5, np.array([math.log(big_x)]), log_kernels)
        if bound <= REL_GAP_WARN * value:
            closed = float(value)
        else:
            reason = (f"order-statistic sum {value:.3e} has rounding bound "
                      f"{bound:.1e}, past {REL_GAP_WARN:g} of it")
    except AccuracyError as exc:
        reason = str(exc)
    logger.debug("closed-form composite: %d seed integrals, %d terms",
                 sum(min(3, n_b) for n_b in row_sizes), sum(row_sizes))
    if closed is None:
        logger.info("closed-form composite unavailable here (%s); "
                    "quadrature value returned alone", reason)
    return closed


def psi_average(cdf_at_distance: Callable[[np.ndarray], np.ndarray],
                r_eve_m: float) -> float:
    """E_psi[cdf(psi)] for psi uniform-in-ball: density 3 r^2 / R^3, to 1e-10.

    ``cdf_at_distance`` takes an array of distances (the nodes of up to
    ``specfun._GL_PANELS_PER_CALL`` panels) and returns the CDF at each.
    """
    if r_eve_m <= 0.0:
        raise ValueError("r_eve_m must be positive")

    def integrand(r: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return cdf_at_distance(r) * 3.0 * r ** 2 / r_eve_m ** 3

    (val,) = specfun.adaptive_gl(integrand, 0.0, r_eve_m, 1e-10, 1)
    return min(1.0, max(0.0, float(val)))


def _report(value: float, closed: Optional[float]) -> AnalyticZsrp:
    if closed is None:
        return AnalyticZsrp(value=value, closed_form=None, rel_gap=None)
    rel_gap = abs(closed - value) / max(value, 1e-300)
    logger.debug("closed-form composite vs quadrature: value=%.12e "
                 "closed=%.12e rel_gap=%.3e", value, closed, rel_gap)
    if rel_gap > REL_GAP_WARN:
        warnings.warn(
            f"closed-form composite deviates from quadrature by "
            f"{rel_gap:.2e} (value={value:.6e}, closed={closed:.6e})",
            RuntimeWarning, stacklevel=3)
    return AnalyticZsrp(value=value, closed_form=closed, rel_gap=rel_gap)


def zsrp_rs(p: ClosedFormParams, closed_form: bool = True) -> AnalyticZsrp:
    """Round-robin ZSRP: psi-average of the single-user cascade CDF.

    ``value`` comes from 1-D quadrature of the series CDF over the
    eavesdropper distance; ``closed_form`` from the Meijer composite,
    omitted where it refuses or when ``closed_form`` is False.
    """
    single = dataclasses.replace(p, n_users=1)
    # float_power, not ``r ** 2``: see zsrp_pfs
    value = psi_average(
        lambda r: cdf_Z_single(single.ref_gain / np.float_power(r, 2), single),
        single.r_eve_m)
    return _report(value, _closed_form(single) if closed_form else None)


def zsrp_pfs(p: ClosedFormParams, closed_form: bool = True) -> AnalyticZsrp:
    """Proportional-fair ZSRP: the served cascade is the N-user maximum.

    ``value`` comes from the F_S^N quadrature path (authoritative for
    any N), the inner integrals of all distance nodes of an outer call
    batched into one quadrature; the series/Meijer ``closed_form`` is
    attached when ``closed_form`` is True and the rounding bound of its
    order-statistic sum admits it, otherwise omitted.
    """
    # float_power squares by pow, as the scalar ``r ** 2`` of one node
    # does; ``r ** 2`` of an array multiplies, which rounds differently
    value = psi_average(
        lambda r: cdf_Z_quadrature(p.ref_gain / np.float_power(r, 2), p,
                                   abs_tol=1e-12),
        p.r_eve_m)
    return _report(value, _closed_form(p) if closed_form else None)


def zsrp_for_scheme(scheme: SchemeId, config,
                    closed_form: bool = True) -> AnalyticZsrp:
    """Analytic ZSRP for one scheme on a concrete scenario.

    ``config`` is a :class:`~zsrpsim.secrecy.ScenarioConfig`.  Only the
    fully-connected architecture is tractable here; single-connected
    schemes raise :class:`AnalyticUnavailableError`.  Mixed RIS-user
    distances are supported for round-robin (slot average of per-user
    results); proportional fairness requires identical users.  The
    formulas also require the free-space wiretap exponent and an
    eavesdropper ball centred on the BS: a ``fixed`` centre offset from
    the current BS altitude is refused.  With ``closed_form`` False only
    the quadrature ``value`` is computed (the altitude search uses no
    more), and ``closed_form`` and ``rel_gap`` come back None.
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
    if (config.eve_center == "fixed"
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
            return zsrp_rs(make(sigma1[0], 1), closed_form)
        parts = [zsrp_rs(make(s, 1), closed_form) for s in sigma1]
        value = sum(part.value for part in parts) / n_users
        closed = (None if any(part.closed_form is None for part in parts)
                  else sum(part.closed_form for part in parts) / n_users)
        return _report(value, closed)
    if not homogeneous:
        raise AnalyticUnavailableError(
            "proportional-fair closed form requires a common RIS-user "
            "distance; mixed distances need the Monte-Carlo evaluator")
    return zsrp_pfs(make(sigma1[0], n_users), closed_form)
