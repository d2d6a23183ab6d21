"""User scheduling rules for the RIS-aided multiuser downlink.

Two families are covered for both RIS architectures:

* round-robin (RS): slot ``t`` serves user ``t mod N`` independently of any
  channel state, the fairness baseline; its ZSRP is the average over users,
  so the estimator counts every user's event in every trial;
* proportional-fair (PFS): serve the user whose scheduling metric, an
  instantaneous channel quantity normalized by its own statistical mean, is
  largest.  With global CSI (GCSI) the metric is the per-user element power
  sum; with full CSI (FCSI) it is the realized cascaded gain.  All users
  share the same fading statistics, so every mean is the same constant
  and the pick is the argmax of the raw quantity.  For a fully-connected
  RIS the cascaded gain factors as a common BS-side norm times the user
  power sum, so the two selections coincide; they differ only for the
  single-connected architecture.
"""

from __future__ import annotations

import enum

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


def select_gcsi_pfs(power_sums: np.ndarray) -> np.ndarray:
    """PFS pick from per-user element power sums, shape (..., N) -> (...,).

    Ties resolve to the lowest user index.
    """
    return np.argmax(power_sums, axis=-1)


def select_fcsi_pfs(sc_gains: np.ndarray) -> np.ndarray:
    """PFS pick from realized single-connected gains, shape (..., N) -> (...,)."""
    return np.argmax(sc_gains, axis=-1)
