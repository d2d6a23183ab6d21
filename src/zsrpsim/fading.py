"""Small-scale fading: Nakagami-m element gains and their sum statistics.

Element power gains are Gamma(m, 1/m) (unit mean), so a squared channel
norm over L independent elements is

    S = ||g||^2 ~ Gamma(m*L, 1/m),

whose CDF has the finite Poisson-sum form used throughout the closed-form
work.  Phases are i.i.d. uniform and independent of the magnitudes.
The CDF and density take arrays and return arrays of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .errors import AccuracyError


@dataclass(frozen=True)
class FadingParams:
    """Nakagami shapes of the two hops and the RIS element count."""

    m1: int = 2
    m2: int = 2
    n_elements: int = 16

    def __post_init__(self) -> None:
        for name in ("m1", "m2", "n_elements"):
            v = getattr(self, name)
            if not float(v).is_integer() or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            # integral floats (m1 = 2.0) are stored as int for the closed forms
            object.__setattr__(self, name, int(v))


@lru_cache(maxsize=None)
def tail_cutoff(a: int, level: float) -> float:
    """An x with Q(a, x) < ``level`` <= Q(a, x (1 - 2^-30)): the lower-tail
    and exact-one switches of :func:`cdf_S` and the W cutoff of the
    cascade quadrature.

    Q decreases in x.  From x = a, x doubles while Q(a, x) >= ``level``
    and halves while Q(a, x/2) < ``level``; 200 steps that do not bracket
    the level raise :class:`AccuracyError`.  Then 30 bisections on [x/2, x].
    """
    def past(x: float) -> bool:
        return specfun.regularized_upper_gamma(a, x) < level

    hi = float(a)
    for _ in range(200):
        if not past(hi):
            hi *= 2.0
        elif past(0.5 * hi):
            hi *= 0.5
        else:
            break
    else:
        raise AccuracyError("could not bracket the Gamma tail")
    lo = 0.5 * hi
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if past(mid):
            hi = mid
        else:
            lo = mid
    return hi


def cdf_S(s: np.ndarray, m1: int, n_elements: int) -> np.ndarray:
    """CDF of S ~ Gamma(m1*L, 1/m1): 1 - exp(-m1 s) sum_{t<m1 L} (m1 s)^t/t!.

    At each entry of the array ``s``; arguments <= 0 map to 0.  From m1 s
    = ``tail_cutoff(a, 2^-60)`` on, 1 - Q rounds to exactly 1.0 (any Q below
    2^-54 does; 2^6 covers Q's rounding), written without the sum.  Below
    ``tail_cutoff(a, 1 - 2^-20)``, where 1 - Q crosses 2^-20 and has lost
    most of its digits to rounding, the positive lower-tail series gives
    the value, so a small CDF keeps its relative accuracy.
    """
    a = int(m1) * int(n_elements)
    arr = np.asarray(s, dtype=float)
    out = np.zeros(arr.shape)
    pos = arr > 0.0
    x = m1 * arr[pos]
    x_lo = tail_cutoff(a, 1.0 - 2.0 ** -20)
    tail = x < x_lo
    head = ~tail & (x < tail_cutoff(a, 2.0 ** -60))
    vals = np.ones(x.shape)
    if np.any(head):
        vals[head] = 1.0 - specfun.regularized_upper_gamma_vec(a, x[head])
    if np.any(tail):
        vals[tail] = specfun.regularized_lower_gamma_tail(a, x[tail], x_lo)
    out[pos] = vals
    return out


def pdf_W(w: np.ndarray, m2: int, n_elements: int) -> np.ndarray:
    """Density of W ~ Gamma(m2*L, 1/m2) at each entry of w; zero for w <= 0."""
    a = int(m2) * int(n_elements)
    arr = np.asarray(w, dtype=float)
    out = np.zeros(arr.shape)
    pos = arr > 0.0
    wp = arr[pos]
    out[pos] = np.exp((a - 1) * np.log(wp) + a * math.log(m2) - m2 * wp
                      - math.lgamma(a))
    return out
