"""User scheduling rules for the RIS-aided multiuser downlink.

Two families are covered for both RIS architectures:

* round-robin (RS): slot ``t`` serves user ``t mod N`` independently of any
  channel state, the fairness baseline; its ZSRP is the average over users,
  so the estimator counts every user's event in every trial;
* proportional-fair (PFS): serve the user whose scheduling metric, an
  instantaneous channel quantity normalized by its own statistical mean, is
  largest.  With global CSI (GCSI) the metric is the per-user element power
  sum; with full CSI (FCSI) it is the realized cascaded gain.  For a
  fully-connected RIS the cascaded gain factors as a common BS-side norm
  times the user power sum, so the two selections coincide; they differ
  only for the single-connected architecture.
"""

from __future__ import annotations

import enum
import math

import numpy as np


class SchemeId(enum.Enum):
    """RIS architecture x scheduling rule combinations exposed on the CLI."""

    FCR_RS = "fcr-rs"
    FCR_GCSI_PFS = "fcr-gcsi-pfs"
    SCR_RS = "scr-rs"
    SCR_GCSI_PFS = "scr-gcsi-pfs"
    SCR_FCSI_PFS = "scr-fcsi-pfs"

    @property
    def fully_connected(self) -> bool:
        return self.value.startswith("fcr")

    @property
    def rule(self) -> str:
        """Scheduling rule tag: ``rs``, ``gcsi`` or ``fcsi``."""
        if self.value.endswith("-rs"):
            return "rs"
        return "fcsi" if "fcsi" in self.value else "gcsi"

    @classmethod
    def from_string(cls, text: str) -> "SchemeId":
        try:
            return cls(text)
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown scheme {text!r}; expected one of {valid}") from None


def sc_amplitude_correlation(m1: int, m2: int) -> float:
    """(E|g_b| E|g_r|)^2 for unit-power Nakagami envelopes.

    E|g| = Gamma(m + 1/2) / (Gamma(m) sqrt(m)); the square of the product
    is the cross term driving the mean of the single-connected gain.
    """
    rho1 = math.gamma(m1 + 0.5) / (math.gamma(m1) * math.sqrt(m1))
    rho2 = math.gamma(m2 + 0.5) / (math.gamma(m2) * math.sqrt(m2))
    return (rho1 * rho2) ** 2


def sc_cascade_mean(m1: int, m2: int, n_elements: int) -> float:
    """E[(sum_l |g_b,l| |g_r,l|)^2] = L (1 + (L - 1) rho), unit-power terms."""
    rho = sc_amplitude_correlation(m1, m2)
    return n_elements * (1.0 + (n_elements - 1) * rho)


def select_gcsi_pfs(power_sums: np.ndarray, n_elements: int) -> np.ndarray:
    """PFS pick from per-user element power sums, shape (..., N) -> (...,).

    Metric is S_n / E[S_n]; ties resolve to the lowest user index.
    """
    metric = np.asarray(power_sums, dtype=float) / float(n_elements)
    return np.argmax(metric, axis=-1)


def select_fcsi_pfs(sc_gains: np.ndarray, m1: int, m2: int,
                    n_elements: int) -> np.ndarray:
    """PFS pick from realized single-connected gains, shape (..., N) -> (...,)."""
    mean = sc_cascade_mean(m1, m2, n_elements)
    metric = np.asarray(sc_gains, dtype=float) / mean
    return np.argmax(metric, axis=-1)
