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

Evaluation routes, cross-checked against each other, arrays in and out:

* ``cdf_Z_single``: finite Bessel-K series for F_Z (exact up to
  rounding), the fast route for the single-user cascade: a sum of
  positive terms that share one argument.  One array Bessel-K
  recurrence and one (nodes x terms) log-sum serve all distance nodes
  of an integrand call, each node bit for bit as alone.  Round robin
  psi-averages it with :func:`psi_average`;
* ``cdf_Z_quadrature``: the proportional-fair value as one positive 1-D
  integral over the served user-side power sum, no nested distance
  average;
* a closed-form composite reducing the psi-average to Meijer G
  functions, reported as ``closed_form`` (where the rounding bound of its
  sum admits it) next to the quadrature ``value`` with their gap.

Every quadrature here (the distance average, the proportional-fair
integral and the tail integrals of the composite seeds) is the one
adaptive Gauss-Legendre rule :func:`~zsrpsim.specfun.adaptive_gl`, which
refines breadth first: each level evaluates the halves of every open
panel of every integral together, in integrand calls of at most
``specfun._GL_PANELS_PER_CALL`` panels.  Each panel sum, convergence
test and fold is the one a depth-first recursion makes, so every value
is bit for bit the recursion's.  Where F_S is exactly 1.0 in double
precision, :func:`~zsrpsim.fading.cdf_S` writes it without the Poisson
sum.

Proportional-fair order statistics enter the closed form through
collapsed polynomial coefficients of the N-fold truncated exponential
product, in one alternating sum with a rounding bound.  Along one
order-statistic row the Meijer-G terms are
Bessel tail integrals tied by a contiguous recurrence (DLMF 10.29.1 and
10.29.4), so a row costs three seed integrals (the positive tail
integral of :func:`~zsrpsim.specfun.meijer_g_m0_log`) plus one step of a
Bessel-K recurrence at the row's argument per further term.
Users at different RIS-user distances share W, and GCSI-PFS serves the
largest unscaled power sum S_n, whose index is uniform and independent
of its value.  So with z~_n = G0 / (psi^2 sigma1n^2 sigma2^2) its ZSRP
is (1/N) sum_n E[F_S(z~_n / W)^N]: as for round robin, the user average
of the common-distance value at each user's own distance, each distinct
distance evaluated once.  Single-connected architectures have no
tractable cascaded distribution here and are refused with
:class:`AnalyticUnavailableError`.

:func:`zsrp_many` evaluates many scenarios in one batch, and
:func:`zsrp_for_scheme` is its one-row call without the closed form.
Rows that share (m1, m2, L, N, rule) share each integral call: one
psi-average of the series CDF for round robin, one pair of tolerance
passes of the 1-D integral for GCSI-PFS.  The distinct seeds of all
closed forms go to one :func:`~zsrpsim.specfun.meijer_g_m0_log` call and
their Bessel factors to one array recurrence.  Each row comes out bit
for bit as it does alone, and a row refused, or whose closed form is
refused, leaves its neighbours alone.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional, Sequence

import numpy as np

from . import specfun
from .errors import AccuracyError, AnalyticUnavailableError
from .fading import cdf_S, pdf_W, tail_cutoff
from .propagation import bs_ris_gain, ris_user_gain

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

def _order_stat_series(m1_elements: int, m_2: int, log_x: float,
                       log_kernels: list[list[float]]) -> tuple[float, float]:
    """1 + sum over (j, B) of the collapsed order-statistic expansion.

    Term (j, B) is (-1)^j C(N, j) gamma_{j,B} j^{(m2 L - B)/2}
    X^{(m2 L + B)/2} (3/2) / Gamma(m2 L) times the kernel, which is
    positive; ``log_x`` is ln X and ``log_kernels[j - 1]`` holds the log
    kernels of B = 0, 1, ... of index j, so N is the kernel count.
    gamma_{j,B}, the coefficient of x^B in (sum_{t<m1 L} x^t / t!)^j,
    spans hundreds of orders of magnitude; a linear-space power flushes
    its deep tail, which meets astronomically large power factors, to
    zero, so row j is one log-space convolution of row j - 1 (positive
    terms: exact to rounding).  Returns the sum, clamped to [0, 1], and
    its rounding bound eps max(1, max|ln t|) (1 + sum|t|) (Higham 2002,
    sec. 4.2, with each term's exp rounding).
    """
    n_users = len(log_kernels)
    log_lead = math.log(1.5) - math.lgamma(m_2)
    log_coef = base = np.array([-math.lgamma(t + 1)
                                for t in range(m1_elements)])
    logs: list[np.ndarray] = []
    signs: list[np.ndarray] = []
    for j, log_k in enumerate(log_kernels, start=1):
        if j > 1:
            nxt = np.full(log_coef.size + m1_elements - 1, -np.inf)
            for t in range(m1_elements):
                nxt[t:t + log_coef.size] = np.logaddexp(
                    nxt[t:t + log_coef.size], log_coef + base[t])
            log_coef = nxt
        b = np.arange(log_coef.size)
        log_j = math.log(j)
        log_binom = (math.lgamma(n_users + 1) - math.lgamma(j + 1)
                     - math.lgamma(n_users - j + 1))
        logs.append(log_lead + log_binom + log_coef
                    + 0.5 * (m_2 + b) * (log_j + log_x) - b * log_j + log_k)
        signs.append(np.full(b.size, -1.0 if j % 2 else 1.0))
    all_logs = np.concatenate(logs)
    (total_log,), (total_sign,) = specfun.log_sum_exp(
        all_logs[None], np.concatenate(signs)[None])
    # an empty or cancelled sum (sign 0) leaves F = 1
    val = 1.0
    if total_sign < 0.0:
        # F = 1 - |sum|; expm1 keeps precision when the sum is close to 1
        val = -math.expm1(total_log) if total_log < 0.0 else 0.0
    elif total_sign > 0.0:
        val = 1.0 + math.exp(total_log)
    with np.errstate(over="ignore"):  # a term past the double range refuses
        bound = (np.finfo(float).eps * (1.0 + np.exp(all_logs).sum())
                 * np.maximum(1.0, np.abs(all_logs).max()))
    # max(0.0, v) maps a NaN to 0.0
    return min(1.0, max(0.0, val)), float(bound)


def cdf_Z_single(z: np.ndarray, p: ClosedFormParams,
                 scale: float | np.ndarray) -> np.ndarray:
    """Series CDF of the single-user cascade Z = sigma1^2 sigma2^2 S W.

    F(z) = 1 - (2/Gamma(m2 L)) sum_{t<m1 L} (1/t!) xi^((m2 L + t)/2)
           K_{m2 L - t}(2 sqrt(xi)),   xi = m1 m2 z / (sigma1^2 sigma2^2),

    summed in log space, at each entry of the array ``z``.  ``scale``
    holds sigma1^2 sigma2^2, one value or one per entry, so that entries
    of rows at different distances share a call; ``p`` gives m1, m2 and
    L.  Every order at every z comes from one array Bessel-K recurrence
    at 2 sqrt(xi), and the positive terms of all z are summed as rows of
    one array, each bit for bit as alone.  Checked in the tests against
    direct integration over W; returns 0 for z <= 0.
    """
    z_arr = np.asarray(z, dtype=float)
    out = np.zeros(z_arr.shape)
    pos = ~(z_arr <= 0.0)
    if np.any(pos):
        m_2 = p.m2 * p.n_elements
        m_1 = p.m1 * p.n_elements
        scales = np.broadcast_to(scale, z_arr.shape)
        xi = p.m1 * p.m2 * z_arr[pos] / scales[pos]
        t = np.arange(m_1)
        log_terms = specfun.log_bessel_k(np.abs(m_2 - t),
                                         2.0 * np.sqrt(xi)[:, None])
        # the recurrence passes the double range below xi ~ 1e-70: F = 0.0
        ok = np.isfinite(log_terms).all(axis=1)
        log_sum, _ = specfun.log_sum_exp(
            math.log(2.0) - math.lgamma(m_2)
            - np.array([math.lgamma(v + 1) for v in range(m_1)])
            + 0.5 * (m_2 + t) * specfun.apply_math(math.log, xi[ok])[:, None]
            + log_terms[ok])
        vals = np.zeros(ok.size)
        # F = 1 - sum, or 0 where the sum reaches 1; expm1 keeps
        # precision when the sum is close to 1
        below = log_sum < 0.0
        vals[np.flatnonzero(ok)[below]] = -specfun.apply_math(
            math.expm1, log_sum[below])
        out[pos] = np.minimum(1.0, np.fmax(0.0, vals))
    return out


def _cdf_u(b: np.ndarray, a_2: int) -> np.ndarray:
    """CDF of U = (psi/R)^2 G, G ~ Gamma(a_2, 1), at each entry of ``b`` > 0.

    (psi/R)^2 has CDF v^(3/2) on [0, 1] for psi uniform in the ball, so

        F_U(b) = P(a_2, b) + b^(3/2) Gamma(a_2 - 3/2, b) / Gamma(a_2).

    For a_2 = n + 2, Gamma(n + 1/2, b) / Gamma(n + 1/2) = erfc(sqrt b)
    + sum_{k<n} e^-b b^(k+1/2) / Gamma(k + 3/2) (DLMF 8.4.6 and 8.8.2),
    positive terms, each formed in log space so that none overflows
    where e^-b underflows; Gamma(n + 1/2) / Gamma(n + 2) is a product of
    ratios, which rounds less than a difference of lgammas.  At a_2 = 1,
    Gamma(-1/2, b) = 2 (e^-b / sqrt b - sqrt(pi) erfc(sqrt b)).
    """
    root = np.sqrt(b)
    erfc = specfun.apply_math(math.erfc, root)
    if a_2 == 1:
        gamma_ratio = 2.0 * (np.exp(-b) / root - math.sqrt(math.pi) * erfc)
    else:
        n = a_2 - 2
        log_terms = ((np.arange(n) + 0.5) * np.log(b)[:, None] - b[:, None]
                     - np.array([math.lgamma(k + 1.5) for k in range(n)]))
        gamma_ratio = (math.sqrt(math.pi)
                       * math.prod((k + 0.5) / (k + 1) for k in range(n))
                       / (a_2 - 1) * (erfc + np.exp(log_terms).sum(axis=1)))
    return cdf_S(b, 1, a_2) + b * root * gamma_ratio


def cdf_Z_quadrature(ps: Sequence[ClosedFormParams]) -> list[float]:
    """psi-averaged CDF of the served cascade of each row, by one quadrature
    over the served user-side power sum.

    The rows share m1, m2, L and N.  The ZSR event sigma1^2 sigma2^2 S W
    < G0 / psi^2 reads U < X / (m1 S) with U = m2 W psi^2 / R^2
    (:func:`_cdf_u`) and X = ``p.big_x`` of the row.  The served S is the
    largest of N independent Gamma(m1 L, 1/m1) sums (one sum when N = 1),
    so

        ZSRP = int_0^inf F_U(X / (m1 s)) N F_S(s)^(N-1) f_S(s) ds,

    a positive integrand, taken by :func:`~zsrpsim.specfun.adaptive_gl`
    up to the point past which one sum holds less than 1e-17 of its mass
    (:func:`~zsrpsim.fading.tail_cutoff`).  A first pass to 1e-8 absolute
    sizes the second, to 1e-13 of the first's result but at least 1e-300,
    so that a result at the bottom of the double range still converges.
    Each pass integrates every row at once, each row bit for bit as
    alone.  Returns the values clamped to [0, 1].
    """
    p = ps[0]
    a_2 = p.m2 * p.n_elements
    big_x = np.array([q.big_x for q in ps])

    # Gauss-Legendre nodes are interior, so every s is positive
    def integrand(s: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return (_cdf_u(big_x[rows] / (p.m1 * s), a_2) * p.n_users
                * cdf_S(s, p.m1, p.n_elements) ** (p.n_users - 1)
                * pdf_W(s, p.m1, p.n_elements))

    s_hi = tail_cutoff(p.m1 * p.n_elements, 1e-17) / p.m1
    coarse = specfun.adaptive_gl(integrand, 0.0, s_hi, 1e-8, len(ps))
    vals = specfun.adaptive_gl(integrand, 0.0, s_hi,
                               np.maximum(1e-13 * coarse, 1e-300), len(ps))
    return [min(1.0, max(0.0, v)) for v in vals.tolist()]


# ---------------------------------------------------------------------------
# Closed-form psi-averaged ZSRP (Meijer G composites)
# ---------------------------------------------------------------------------

#: One composite: M = m2 L, the argument X and the term count of each
#: order-statistic row
_Composite = tuple[int, float, list[int]]


def _seed_log_gs(composites: Sequence[_Composite]
                 ) -> list[dict | AccuracyError]:
    """ln G of the seeds B < 3 of every row of each composite, by seed.

    Row j (from 1) of a composite (M, X, sizes) has seeds (mu, nu, x) =
    (M + B - 4, M - B, jX).  The distinct seeds of all composites go to
    one :func:`~zsrpsim.specfun.meijer_g_m0_log` call, each bit for bit
    its own, so a seed shared by two composites is integrated once.
    Where that call refuses, each composite's seeds go to a call of their
    own, so that only a composite whose own seeds refuse gets the
    :class:`AccuracyError` in place of its values.
    """
    seeds = [[(m_2 + b - 4, m_2 - b, j * big_x)
              for j, n_b in enumerate(sizes, start=1) for b in range(min(3, n_b))]
             for m_2, big_x, sizes in composites]

    def evaluate(batch: list) -> dict:
        unique = list(dict.fromkeys(batch))
        return dict(zip(unique, specfun.meijer_g_m0_log(
            *(np.array(v) for v in zip(*unique))).tolist()))

    try:
        shared = evaluate(sum(seeds, []))
        return [shared] * len(composites)
    except AccuracyError:
        pass
    out: list[dict | AccuracyError] = []
    for own in seeds:
        try:
            out.append(evaluate(own))
        except AccuracyError as exc:
            out.append(exc)
    return out


def _log_composite_rows(composites: Sequence[_Composite]
                        ) -> list[list[list[float]] | AccuracyError]:
    """ln G of the composite for B = 0 .. n_b - 1 of each order-statistic
    row of each composite, or the :class:`AccuracyError` its seeds raise.

    Row j (from 1) of a composite (M, X, sizes) has ``sizes[j - 1]``
    terms at argument jX.  With y = 2 sqrt(jX) and the tail integral
    I(B) = int_y^inf u^(M+B-4) K_(M-B)(u) du of
    :func:`~zsrpsim.specfun.meijer_g_m0_log`,
    G = jX^(-(M+B-3)/2) 2^(5-M-B) I(B).  The seeds B < 3 come from
    :func:`_seed_log_gs`; every further I(B) from

        I(B+1) = y^(M+B-3) K_(M-B)(y) + (2B-3) I(B),

    adding only positive terms from B = 2 on.  The Bessel factors of the
    rows of all composites come from one array Bessel-K recurrence over
    their y, one step per term.  I(B) is carried in linear space under a
    running log scale.
    """
    out: list[list[list[float]] | AccuracyError] = []
    lanes: list[tuple[int, float, int]] = []   # (M, y, n_b) of longer rows
    for (m_2, big_x, sizes), seed_log_g in zip(composites,
                                                _seed_log_gs(composites)):
        if isinstance(seed_log_g, AccuracyError):
            out.append(seed_log_g)
            continue
        out.append([[seed_log_g[(m_2 + b - 4, m_2 - b, j * big_x)]
                     for b in range(min(3, n_b))]
                    for j, n_b in enumerate(sizes, start=1)])
        lanes += [(m_2, 2.0 * math.sqrt(j * big_x), n_b)
                  for j, n_b in enumerate(sizes, start=1) if n_b > 3]
    if not lanes:
        return out
    # K_(M-b+1)(y) for b = 3 .. n_b - 1 of each longer row; a shorter
    # row's unused orders are padded with 0
    orders = np.zeros((len(lanes), max(n_b for *_, n_b in lanes) - 3), int)
    for lane, (m_2, _, n_b) in enumerate(lanes):
        orders[lane, :n_b - 3] = np.abs(m_2 - np.arange(3, n_b) + 1)
    log_ks = iter(specfun.log_bessel_k(
        orders, np.array([y for _, y, _ in lanes])[:, None]))
    ln2 = math.log(2.0)
    for (m_2, big_x, sizes), rows in zip(composites, out):
        if isinstance(rows, AccuracyError):
            continue
        for j, (row, n_b) in enumerate(zip(rows, sizes), start=1):
            if n_b <= 3:
                continue
            log_k = next(log_ks).tolist()
            jx = j * big_x
            log_jx, log_y = math.log(jx), math.log(2.0 * math.sqrt(jx))

            def log_g_over_i(b: int) -> float:
                return -0.5 * (m_2 + b - 3) * log_jx - (m_2 + b - 5) * ln2

            scale, mant = row[2] - log_g_over_i(2), 1.0
            for b in range(3, n_b):
                log_step = (m_2 + b - 4) * log_y + log_k[b - 3]
                mant = math.exp(log_step - scale) + (2 * b - 5) * mant
                if mant > 1e200:
                    scale += math.log(mant)
                    mant = 1.0
                row.append(scale + math.log(mant) + log_g_over_i(b))
    return out


def _closed_forms(ps: Sequence[ClosedFormParams]) -> list[Optional[float]]:
    """Meijer-G composite for the psi-averaged ZSRP of each row, or None
    where it refuses.

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
    recurrence step at y per further term (:func:`_log_composite_rows`).
    The distinct seeds of all rows of all composites go to one call of
    :func:`~zsrpsim.specfun.meijer_g_m0_log`, one batched tail-integral
    quadrature, and the recurrences to one array Bessel-K call, each
    value bit for bit its own.  Logs the seed and term counts of each
    composite at DEBUG.  Where the rounding bound of the order-statistic
    sum (:func:`_order_stat_series`) exceeds ``REL_GAP_WARN`` of its
    value, or where a seed of the composite does not reach its
    tolerance, it logs why at INFO and gives None for that row alone,
    leaving its quadrature value alone.
    """
    composites = [(p.m2 * p.n_elements, p.big_x,
                   [j * (p.m1 * p.n_elements - 1) + 1
                    for j in range(1, p.n_users + 1)]) for p in ps]
    out: list[Optional[float]] = []
    for p, (m_2, big_x, sizes), rows in zip(ps, composites,
                                            _log_composite_rows(composites)):
        closed = None
        if isinstance(rows, AccuracyError):
            reason = str(rows)
        else:
            value, bound = _order_stat_series(
                p.m1 * p.n_elements, m_2, math.log(big_x), rows)
            if bound <= REL_GAP_WARN * value:
                closed = value
            else:
                reason = (f"order-statistic sum {value:.3e} has rounding "
                          f"bound {bound:.1e}, past {REL_GAP_WARN:g} of it")
        logger.debug("closed-form composite: %d seed integrals in one batched "
                     "quadrature, %d terms",
                     sum(min(3, n_b) for n_b in sizes), sum(sizes))
        if closed is None:
            logger.info("closed-form composite unavailable here (%s); "
                        "quadrature value returned alone", reason)
        out.append(closed)
    return out


def psi_average(cdf_at_distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
                r_eve_m: Sequence[float]) -> list[float]:
    """E_psi[cdf_i(psi)] of each row i for psi uniform in the ball of
    radius ``r_eve_m[i]``: density 3 r^2 / R^3, to 1e-10.

    ``cdf_at_distance(r, rows)`` takes an array of distances (the nodes
    of up to ``specfun._GL_PANELS_PER_CALL`` panels of any rows) and the
    row of each, and returns the CDF of that row at each distance.  The
    rows are integrated at once, each bit for bit as alone.
    """
    if not all(r > 0.0 for r in r_eve_m):
        raise ValueError("r_eve_m must be positive")
    # the cube of each radius as a float, as one row alone takes it
    cubes = np.array([r ** 3 for r in r_eve_m], dtype=float)

    def integrand(r: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return cdf_at_distance(r, rows) * 3.0 * r ** 2 / cubes[rows]

    vals = specfun.adaptive_gl(integrand, 0.0, np.array(r_eve_m, dtype=float),
                               1e-10, len(cubes))
    return [min(1.0, max(0.0, v)) for v in vals.tolist()]


def _round_robin_values(ps: Sequence[ClosedFormParams]) -> list[float]:
    """psi-averaged series CDF of each row; the rows share m1, m2 and L."""
    gains = np.array([p.ref_gain for p in ps], dtype=float)
    scales = np.array([p.sigma1_sq * p.sigma2_sq for p in ps])
    # float_power squares by pow, as the scalar ``r ** 2`` of one node
    # does; ``r ** 2`` of an array multiplies, which rounds differently
    return psi_average(
        lambda r, rows: cdf_Z_single(gains[rows] / np.float_power(r, 2),
                                     ps[0], scales[rows]),
        [p.r_eve_m for p in ps])


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


def zsrp_from_params(rows: Sequence[tuple[ClosedFormParams, bool]],
                     closed_form: bool) -> list[AnalyticZsrp]:
    """ZSRP of each (parameters, round robin) row.

    The rule, never N, picks the route: round robin sets N = 1 and
    psi-averages the series CDF :func:`cdf_Z_single`; proportional
    fairness takes the one 1-D integral of :func:`cdf_Z_quadrature`.
    Rows that share (m1, m2, L, N, rule) share one integral call, each
    row bit for bit as alone.  ``closed_form`` comes from the Meijer
    composite (:func:`_closed_forms`, all rows at once), omitted where it
    refuses or when ``closed_form`` is False.
    """
    params = [dataclasses.replace(p, n_users=1) if round_robin else p
              for p, round_robin in rows]
    groups: dict[tuple, list[int]] = {}
    for i, (p, (_, round_robin)) in enumerate(zip(params, rows)):
        groups.setdefault((p.m1, p.m2, p.n_elements, p.n_users, round_robin),
                          []).append(i)
    values = [0.0] * len(rows)
    for (*_, round_robin), members in groups.items():
        group = [params[i] for i in members]
        for i, value in zip(members, _round_robin_values(group) if round_robin
                            else cdf_Z_quadrature(group)):
            values[i] = value
    closed = (_closed_forms(params) if closed_form and params
              else [None] * len(params))
    return [_report(v, c) for v, c in zip(values, closed)]


def _cascade_params(config) -> tuple[ClosedFormParams, Counter]:
    """Cascade parameters of ``config`` and the count of each RIS-user gain.

    Raises :class:`AnalyticUnavailableError` where the analytic route
    does not apply (see :func:`zsrp_many`).
    """
    scheme = config.scheme
    if not scheme.fully_connected:
        raise AnalyticUnavailableError(
            f"no closed-form ZSRP for scheme {scheme.value!r}; "
            f"use the Monte-Carlo evaluator")
    if abs(config.alpha_eve - 2.0) > 1e-12:
        raise AnalyticUnavailableError(
            "analytic ZSRP requires the free-space wiretap exponent 2; "
            f"got alpha_eve={config.alpha_eve}")
    geometry = config.geometry
    if config.eve_offset_m:
        raise AnalyticUnavailableError(
            "analytic ZSRP requires the eavesdropper ball centred on the BS; "
            f"its fixed centre at {config.eve_center_h_m:g} m is offset from "
            f"the BS altitude {geometry.h_br_m:g} m; use the Monte-Carlo "
            "evaluator")
    try:
        # big_x squares the radius and psi_average cubes it, as floats
        geometry.r_eve_m ** (3 if scheme.rule == "rs" else 2)
    except OverflowError:
        raise AnalyticUnavailableError(
            f"eavesdropper radius {geometry.r_eve_m:g} m is too large for the "
            "analytic route; use the Monte-Carlo evaluator") from None
    air, fading, n_users = config.air, config.fading, geometry.n_users
    counts = Counter(ris_user_gain(geometry, air, u) for u in range(n_users))
    p = ClosedFormParams(
        m1=fading.m1, m2=fading.m2, n_elements=fading.n_elements,
        sigma1_sq=next(iter(counts)), sigma2_sq=bs_ris_gain(geometry, air),
        ref_gain=air.ref_gain, r_eve_m=geometry.r_eve_m, n_users=n_users)
    return p, counts


def zsrp_many(configs: Sequence, closed_form: bool
              ) -> list[AnalyticZsrp | AnalyticUnavailableError]:
    """Analytic ZSRP of each scenario under its configured scheme.

    Each config is a :class:`~zsrpsim.secrecy.ScenarioConfig`; its outcome
    is an :class:`AnalyticZsrp`, or the :class:`AnalyticUnavailableError`
    that refuses it, in place.  Only the fully-connected architecture is
    tractable here: single-connected schemes are refused.  Both rules
    take any RIS-user distances: each distinct sigma1^2 is evaluated once
    and the values are averaged over users (see the module docstring).
    The formulas also require the free-space wiretap exponent and an
    eavesdropper ball centred on the BS: a centre offset from the current
    BS altitude is refused, and so is a radius whose square (cube for
    round robin) overflows a double.  All rows of all configs go to one
    :func:`zsrp_from_params` call, and each outcome is bit for bit the
    one its config gets alone.  With ``closed_form`` False only the
    quadrature ``value`` is computed (the altitude search uses no more),
    and ``closed_form`` and ``rel_gap`` come back None.
    """
    plans: list[Counter | AnalyticUnavailableError] = []
    rows: list[tuple[ClosedFormParams, bool]] = []
    for config in configs:
        try:
            p, counts = _cascade_params(config)
        except AnalyticUnavailableError as exc:
            plans.append(exc)
            continue
        plans.append(counts)
        rows += [(dataclasses.replace(p, sigma1_sq=s), config.scheme.rule == "rs")
                 for s in counts]
    results = iter(zsrp_from_params(rows, closed_form))
    out: list[AnalyticZsrp | AnalyticUnavailableError] = []
    for config, counts in zip(configs, plans):
        if isinstance(counts, AnalyticUnavailableError):
            out.append(counts)
            continue
        parts = list(islice(results, len(counts)))
        if len(parts) == 1:
            out.append(parts[0])
            continue
        n_users, weights = config.geometry.n_users, counts.values()
        closed = [part.closed_form for part in parts]
        out.append(_report(
            sum(k * part.value for k, part in zip(weights, parts)) / n_users,
            None if None in closed
            else sum(k * c for k, c in zip(weights, closed)) / n_users))
    return out


def zsrp_for_scheme(config) -> AnalyticZsrp:
    """Quadrature value of one scenario: its row of :func:`zsrp_many`
    without the closed form, its refusal raised.

    The altitude search takes its golden-section steps, one altitude at
    a time, through here.
    """
    (out,) = zsrp_many([config], closed_form=False)
    if isinstance(out, AnalyticUnavailableError):
        raise out
    return out
