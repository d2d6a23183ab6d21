"""Air-to-ground propagation geometry and large-scale gains.

The BS is an aerial platform at altitude ``h_br_m`` whose horizontal
distance to the RIS is ``r_br_m``; its path-loss exponent interpolates
between a ground value alpha(0) and a zenith value alpha(pi/2) through the
elevation-dependent LoS probability

    P_los(theta) = 1 / (1 + a2 * exp(-b2 * (theta_deg - a2)))

with theta in degrees.  RIS-to-user links are terrestrial and use alpha(0);
the eavesdropper overhears the BS directly over a leg whose exponent is
the scenario's ``alpha_eve`` config key (default 2, free space).  All
large-scale gains follow G = G0 * d^(-alpha) with G0 the linear reference
gain at 1 m.

The eavesdropper location is uniform inside a radius-R sphere centered on
the BS, so its BS distance has pdf 3 psi^2 / R^3 on [0, R].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class AirGroundParams:
    """Environment constants of the air-to-ground exponent model."""

    # Desk-scale default environment.  a2/b2 are the usual dense-urban
    # logistic constants; the reference gain is calibrated so that the
    # cascaded RIS link and the eavesdropper's direct leg compete over the
    # default geometry (a physical ~1e-3 at 1 m makes the double path loss
    # of the cascade unwinnable and every secrecy probability saturates at 1).
    a2: float = 9.61
    b2: float = 0.16
    alpha_zenith: float = 2.0
    alpha_ground: float = 3.5
    ref_gain: float = 5.0e5

    def __post_init__(self) -> None:
        # 0 < v < inf is False for NaN, so non-finite values are refused too
        if not (0.0 < self.a2 < math.inf and 0.0 < self.b2 < math.inf):
            raise ValueError("a2 and b2 must be positive and finite")
        if not (0.0 < self.alpha_zenith < math.inf
                and 0.0 < self.alpha_ground < math.inf):
            raise ValueError("path-loss exponents must be positive and finite")
        if self.alpha_zenith > self.alpha_ground:
            raise ValueError("alpha_zenith must not exceed alpha_ground")
        if not 0.0 < self.ref_gain < math.inf:
            raise ValueError("ref_gain must be positive and finite")

    @property
    def alpha_user(self) -> float:
        """RIS-to-user exponent; pinned to the ground value alpha(0)."""
        return self.alpha_ground


@dataclass(frozen=True)
class ScenarioGeometry:
    """Static layout: aerial BS, RIS, users, and the eavesdropper sphere."""

    r_br_m: float = 300.0
    h_br_m: float = 150.0
    d_rn_m: tuple[float, ...] = (50.0, 50.0, 50.0, 50.0)
    r_eve_m: float = 500.0

    def __post_init__(self) -> None:
        if not (0.0 < self.r_br_m < math.inf and 0.0 < self.h_br_m < math.inf):
            raise ValueError("BS horizontal distance and altitude must be "
                             "positive and finite")
        if (len(self.d_rn_m) == 0
                or not all(0.0 < d < math.inf for d in self.d_rn_m)):
            raise ValueError("need at least one user, each with a positive, "
                             "finite RIS distance")
        if not 0.0 < self.r_eve_m < math.inf:
            raise ValueError("eavesdropper sphere radius must be positive "
                             "and finite")

    @property
    def n_users(self) -> int:
        return len(self.d_rn_m)

    @property
    def d_br_3d_m(self) -> float:
        """Slant BS-RIS distance."""
        return math.hypot(self.r_br_m, self.h_br_m)


def elevation_angle(h_m: float, r_m: float) -> float:
    """Elevation of the aerial BS seen from the RIS, in radians."""
    if r_m <= 0.0:
        raise ValueError("horizontal distance must be positive")
    if h_m < 0.0:
        raise ValueError("altitude must be nonnegative")
    return math.atan2(h_m, r_m)


def los_probability(theta_deg: float, params: AirGroundParams) -> float:
    """Logistic LoS probability; theta is the elevation in degrees."""
    if theta_deg < 0.0 or theta_deg > 90.0:
        raise ValueError("elevation must lie in [0, 90] degrees")
    return 1.0 / (1.0 + params.a2 * math.exp(-params.b2 * (theta_deg - params.a2)))


def fit_exponent_coefficients(params: AirGroundParams) -> tuple[float, float]:
    """(a1, b1) of alpha(theta) = a1 * P_los(theta) + b1.

    Anchored exactly at theta = 0 and, through the customary P_los(90) ~ 1
    approximation, at the zenith:

        a1 = (alpha_zenith - alpha_ground) * (1 + a2 e^{a2 b2}) / (a2 e^{a2 b2})
        b1 = alpha_ground - a1 / (1 + a2 e^{a2 b2})
    """
    w = params.a2 * math.exp(params.a2 * params.b2)
    a1 = (params.alpha_zenith - params.alpha_ground) * (1.0 + w) / w
    b1 = params.alpha_ground - a1 / (1.0 + w)
    return a1, b1


def pathloss_exponent_air(theta_deg: float, params: AirGroundParams) -> float:
    """Elevation-dependent BS-RIS exponent alpha(theta)."""
    a1, b1 = fit_exponent_coefficients(params)
    return a1 * los_probability(theta_deg, params) + b1


def large_scale_gain(ref_gain: float, d_m, alpha: float):
    """Power-law gain G0 * d^(-alpha); scalar or array distances."""
    if ref_gain <= 0.0:
        raise ValueError("reference gain must be positive")
    if np.any(np.asarray(d_m) <= 0.0):
        raise ValueError("distance must be positive")
    return ref_gain * d_m ** (-alpha)


def bs_ris_gain(geom: ScenarioGeometry, params: AirGroundParams) -> float:
    """Per-element large-scale power gain sigma_2^2 of the BS-RIS hop."""
    theta_deg = math.degrees(elevation_angle(geom.h_br_m, geom.r_br_m))
    alpha = pathloss_exponent_air(theta_deg, params)
    return large_scale_gain(params.ref_gain, geom.d_br_3d_m, alpha)


def ris_user_gain(geom: ScenarioGeometry, params: AirGroundParams, user: int) -> float:
    """Per-element large-scale power gain sigma_1^2 of the RIS-user hop."""
    return large_scale_gain(params.ref_gain, geom.d_rn_m[user], params.alpha_user)


def sample_eve_distance(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` unit-ball radii u^{1/3}, density 3 rho^2.

    The BS-eve distance of a ball of radius R is R times the draw.
    """
    return np.cbrt(rng.random(size))
