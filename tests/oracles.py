"""Validation-only oracles, kept out of the package.

The subset-term enumeration below expands the proportional-fair order
statistic F_S(s)^N over every non-empty user subset and every weak
composition of its size, term by term.  The package sums the same
expansion through collapsed coefficients, whose linear-space form is
:func:`ordered_sum_coefficients`; this explicit form exists only to
check that collapse (acceptance criterion 3 and ``test_analytic``).

``fc_cascaded_gain_via_theta`` evaluates the fully connected gain
through the explicit scattering matrix; the package's norm-product gain
must match it (``test_bdris``).

``upper_gamma_poisson_loop`` is the plain term-by-term loop for
Q(a, x); the package's array form must match it bit for bit wherever
exp(-x) does not underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from zsrpsim.analytic import (MAX_ORDER_STAT_USERS,
                              _log_ordered_sum_coefficients)
from zsrpsim.bdris import (PhaseDecomposition, assemble_theta,
                           construct_aligning_unitary, optimal_phases)
from zsrpsim.errors import CapacityError


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


#: Cap on explicitly enumerated subset terms (memory guard).
MAX_SUBSET_TERMS = 2_000_000


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
    coefficients of :func:`ordered_sum_coefficients`.
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


def upper_gamma_poisson_loop(a: int, x: np.ndarray) -> np.ndarray:
    """Q(a, x) = exp(-x) sum_{t<a} x^t / t!, one recurrence step per loop pass."""
    x = np.asarray(x, dtype=float)
    term = np.exp(-x)
    total = term.copy()
    for t in range(1, a):
        term = term * (x / t)
        total += term
    return np.minimum(total, 1.0)


def fc_cascaded_gain_via_theta(h_br: np.ndarray, h_rn: np.ndarray) -> float:
    """Same gain evaluated through the explicit scattering matrix."""
    v = construct_aligning_unitary(h_br, h_rn)
    phi = optimal_phases(v, h_br, h_rn)
    theta = assemble_theta(PhaseDecomposition(v=v, phi=phi))
    amp = np.conj(h_rn) @ theta @ h_br
    return float(np.abs(amp) ** 2)
