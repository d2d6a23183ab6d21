"""Small-scale fading: Nakagami-m element gains and their sum statistics.

Element power gains are Gamma(m, 1/m) (unit mean), so a squared channel
norm over L independent elements is

    S = ||g||^2 ~ Gamma(m*L, 1/m),

whose CDF has the finite Poisson-sum form used throughout the closed-form
work.  Phases are i.i.d. uniform and independent of the magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun


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


def sample_gamma(rng: np.random.Generator, shape: float, scale: float,
                 size=None) -> np.ndarray:
    """Gamma draws with explicit validation (thin wrapper over the generator)."""
    if shape <= 0.0 or scale <= 0.0:
        raise ValueError("shape and scale must be positive")
    return rng.gamma(shape, scale, size)


def sample_element_powers(rng: np.random.Generator, m: int, n_elements: int,
                          size=None) -> np.ndarray:
    """Per-element power gains ~ Gamma(m, 1/m); trailing axis is the element."""
    if size is None:
        shape = (n_elements,)
    elif isinstance(size, int):
        shape = (size, n_elements)
    else:
        shape = tuple(size) + (n_elements,)
    return sample_gamma(rng, float(m), 1.0 / m, shape)


def sample_power_sum(rng: np.random.Generator, m: int, n_elements: int,
                     size=None) -> np.ndarray:
    """Squared-norm draws S ~ Gamma(m*L, 1/m) taken in one shot."""
    return sample_gamma(rng, float(m) * n_elements, 1.0 / m, size)


def sample_S(rng: np.random.Generator, m1: int, n_elements: int,
             size=None) -> np.ndarray:
    """User-side power sum S ~ Gamma(m1*L, 1/m1); matches cdf_S."""
    return sample_power_sum(rng, m1, n_elements, size)


def sample_W(rng: np.random.Generator, m2: int, n_elements: int,
             size=None) -> np.ndarray:
    """BS-side power sum W ~ Gamma(m2*L, 1/m2); matches pdf_W."""
    return sample_power_sum(rng, m2, n_elements, size)


def sample_channel_vector(rng: np.random.Generator, m: int, sigma_sq: float,
                          n_elements: int) -> np.ndarray:
    """One complex channel vector: sqrt(sigma^2 * power) with uniform phases."""
    if sigma_sq <= 0.0:
        raise ValueError("large-scale gain must be positive")
    p = sample_element_powers(rng, m, n_elements)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_elements)
    return np.sqrt(sigma_sq * p) * np.exp(1j * phases)


def cdf_S(s, m1: int, n_elements: int):
    """CDF of S ~ Gamma(m1*L, 1/m1): 1 - exp(-m1 s) sum_{t<m1 L} (m1 s)^t/t!.

    Accepts scalars or arrays; negative arguments map to 0.
    """
    a = int(m1) * int(n_elements)
    arr = np.asarray(s, dtype=float)
    out = np.zeros(arr.shape)
    pos = arr > 0.0
    if np.any(pos):
        out[pos] = 1.0 - specfun.regularized_upper_gamma_vec(a, m1 * arr[pos])
    if np.ndim(s) == 0:
        return float(out)
    return out


def pdf_W(w, m2: int, n_elements: int):
    """Density of W ~ Gamma(m2*L, 1/m2); zero for w <= 0 (and at 0 unless
    the shape is 1, where the density limit is m2)."""
    a = int(m2) * int(n_elements)
    arr = np.asarray(w, dtype=float)
    out = np.zeros(arr.shape)
    pos = arr > 0.0
    if np.any(pos):
        wp = arr[pos]
        out[pos] = np.exp((a - 1) * np.log(wp) + a * math.log(m2) - m2 * wp
                          - specfun.ln_gamma(float(a)))
    if a == 1:
        out[arr == 0.0] = float(m2)
    if np.ndim(w) == 0:
        return float(out)
    return out
