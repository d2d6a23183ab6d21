"""Air-to-ground link model: angles, LoS logistic, exponents, gains, eavesdropper distance.

Proves:
 Group 1 — elevation geometry
   45 deg at equal height and range, 60 deg at h = sqrt(3) r, zero height
   gives zero angle, nonpositive range rejected.

 Group 2 — LoS probability and the altitude-dependent exponent
   logistic endpoint values at 0 and 90 deg; monotone growth in angle;
   fitted (a1, b1) against an independent 2x2 linear solve; boundary
   conditions alpha(0) = alpha_ground and alpha(90) = alpha_zenith to
   1e-12; degenerate equal-exponent environment collapses to (0, alpha);
   exponent stays inside [alpha_zenith, alpha_ground] and decreases with
   angle.

 Group 3 — power-law gains
   reference arithmetic 1e-3 * 100^-2 = 1e-7; homogeneity
   gain(c d) = c^-alpha gain(d); array broadcast; frozen default link
   variances recomputed from first principles.

 Group 4 — random eavesdropper placement
   inverse-cube-root sampling: mean 3R/4 within 1 m at 1e6 draws, an
   eighth of the mass below R/2, KS distance to (r/R)^3 below 0.002;
   the estimator's eavesdropper gains read distances in range: the
   sampled radius for a BS-centred ball, within |rho -+ |dz|| of it for a
   ball centred |dz| away from the BS.

 Group 5 — containers
   user count, 3-D mast distance, validation; NaN and infinite lengths,
   distances and environment constants are refused.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from zsrpsim import propagation as pr
from zsrpsim.fading import FadingParams
from zsrpsim.scheduling import SchemeId
from zsrpsim.secrecy import ScenarioConfig, _Block, _eve_gain, _eve_key

# frozen default link variances, recomputed from scratch in Group 3
BS_RIS_VARIANCE = 0.1379736692021992
RIS_USER_VARIANCE = 0.565685424949238


# --- Group 1: elevation geometry ---


def test_elevation_angle_values():
    assert math.isclose(pr.elevation_angle(300.0, 300.0), math.pi / 4.0, rel_tol=1e-12)
    assert math.isclose(
        pr.elevation_angle(300.0 * math.sqrt(3.0), 300.0), math.pi / 3.0, rel_tol=1e-12
    )
    assert pr.elevation_angle(0.0, 250.0) == 0.0


def test_elevation_angle_domain():
    with pytest.raises(ValueError):
        pr.elevation_angle(100.0, 0.0)
    with pytest.raises(ValueError):
        pr.elevation_angle(100.0, -5.0)
    with pytest.raises(ValueError):
        pr.elevation_angle(-1.0, 100.0)


# --- Group 2: LoS probability and exponent fit ---


def logistic_reference(theta_deg: float, a2: float = 9.61, b2: float = 0.16) -> float:
    return 1.0 / (1.0 + a2 * math.exp(-b2 * (theta_deg - a2)))


def test_los_probability_endpoints(air):
    p0 = pr.los_probability(0.0, air)
    p90 = pr.los_probability(90.0, air)
    assert math.isclose(p0, logistic_reference(0.0), rel_tol=1e-12)
    assert math.isclose(p90, logistic_reference(90.0), rel_tol=1e-12)
    # coarse magnitudes for the default urban parameters
    assert abs(p0 - 0.02187) < 1e-4
    assert abs(p90 - 0.999975) < 1e-6


def test_los_probability_domain(air):
    with pytest.raises(ValueError):
        pr.los_probability(-0.1, air)
    with pytest.raises(ValueError):
        pr.los_probability(90.1, air)


@given(st.floats(min_value=0.0, max_value=89.0), st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_los_probability_monotone(theta, dtheta):
    air = pr.AirGroundParams()
    assert pr.los_probability(theta + dtheta, air) > pr.los_probability(theta, air)


def test_fit_coefficients_against_linear_solve(air):
    # independent route: solve the two anchor equations directly.  The fit
    # anchors the zenith end at the logistic asymptote P -> 1 (not the value
    # at 90 deg), and the ground end at the exact P(0).
    p_ground = logistic_reference(0.0)
    mat = np.array([[1.0, 1.0], [p_ground, 1.0]])
    ref = np.linalg.solve(mat, np.array([air.alpha_zenith, air.alpha_ground]))
    a1, b1 = pr.fit_exponent_coefficients(air)
    assert math.isclose(a1, ref[0], rel_tol=1e-10)
    assert math.isclose(b1, ref[1], rel_tol=1e-10)
    # magnitudes for the default environment
    assert abs(a1 - (-1.5336)) < 1e-3
    assert abs(b1 - 3.5335) < 1e-3


def test_exponent_boundary_conditions(air):
    a1, b1 = pr.fit_exponent_coefficients(air)
    # ground anchor uses the exact P(0), so the 0-degree boundary is sharp
    assert abs(pr.pathloss_exponent_air(0.0, air) - air.alpha_ground) < 1e-12
    # zenith anchor is the asymptote: a1 + b1 recovers alpha_zenith sharply,
    # while the value at the true P(90) carries the ~4e-5 endpoint residual
    assert abs((a1 + b1) - air.alpha_zenith) < 1e-12
    assert abs(pr.pathloss_exponent_air(90.0, air) - air.alpha_zenith) < 1e-4


def test_exponent_degenerate_environment():
    flat = pr.AirGroundParams(alpha_zenith=2.0, alpha_ground=2.0)
    assert pr.fit_exponent_coefficients(flat) == (0.0, 2.0)
    for theta in (0.0, 17.0, 55.0, 90.0):
        assert pr.pathloss_exponent_air(theta, flat) == 2.0


@given(st.floats(min_value=0.0, max_value=89.5), st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=50, deadline=None)
def test_exponent_bracketed_and_decreasing(theta, dtheta):
    air = pr.AirGroundParams()
    lo = pr.pathloss_exponent_air(theta + dtheta, air)
    hi = pr.pathloss_exponent_air(theta, air)
    assert air.alpha_zenith - 1e-12 <= lo < hi <= air.alpha_ground + 1e-12


# --- Group 3: power-law gains ---


def test_large_scale_gain_reference_point():
    assert math.isclose(pr.large_scale_gain(1e-3, 100.0, 2.0), 1e-7, rel_tol=1e-12)


def test_large_scale_gain_array():
    d = np.array([10.0, 100.0, 1000.0])
    g = pr.large_scale_gain(1e-3, d, 2.0)
    assert np.allclose(g, 1e-3 / d**2, rtol=1e-12)


def test_large_scale_gain_domain():
    with pytest.raises(ValueError):
        pr.large_scale_gain(1e-3, 0.0, 2.0)
    with pytest.raises(ValueError):
        pr.large_scale_gain(1e-3, -10.0, 2.0)


@given(
    st.floats(min_value=1.0, max_value=1e3),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=2.0, max_value=4.0),
)
@settings(max_examples=50, deadline=None)
def test_large_scale_gain_homogeneity(d, c, alpha):
    lhs = pr.large_scale_gain(1.0, c * d, alpha)
    rhs = c ** (-alpha) * pr.large_scale_gain(1.0, d, alpha)
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_default_link_variances(geometry, air):
    # recompute both from first principles: mast elevation 26.565 deg sets
    # the air exponent, users sit on the ground at the ground exponent
    theta = math.degrees(math.atan2(geometry.h_br_m, geometry.r_br_m))
    alpha_air = pr.pathloss_exponent_air(theta, air)
    d3 = math.hypot(geometry.r_br_m, geometry.h_br_m)
    ref1 = air.ref_gain * d3 ** (-alpha_air)
    ref2 = air.ref_gain * geometry.d_rn_m[0] ** (-air.alpha_ground)
    assert math.isclose(pr.bs_ris_gain(geometry, air), ref1, rel_tol=1e-12)
    assert math.isclose(pr.ris_user_gain(geometry, air, 0), ref2, rel_tol=1e-12)
    assert math.isclose(pr.bs_ris_gain(geometry, air), BS_RIS_VARIANCE, rel_tol=1e-12)
    assert math.isclose(pr.ris_user_gain(geometry, air, 0), RIS_USER_VARIANCE, rel_tol=1e-12)


# --- Group 4: random eavesdropper placement ---


def test_eve_distance_statistics(rng):
    r_max = 500.0
    d = r_max * pr.sample_eve_distance(rng, size=1_000_000)
    assert d.shape == (1_000_000,)
    assert np.all(d > 0.0) and np.all(d <= r_max)
    # volume-uniform ball: mean 3R/4, CDF(R/2) = 1/8
    assert abs(d.mean() - 0.75 * r_max) < 1.0
    frac_below_half = np.mean(d <= 0.5 * r_max)
    sigma = math.sqrt(0.125 * 0.875 / d.size)
    assert abs(frac_below_half - 0.125) < 3.0 * sigma
    ks = stats.kstest(d, lambda r: np.clip((r / r_max) ** 3, 0.0, 1.0))
    assert ks.statistic < 0.002


def test_eve_placement_ranges(rng, air):
    # the estimator's placement: a unit-radius draw scaled per row and the
    # polar direction cosine fixing the offset leg of a fixed centre
    r_max, n = 350.0, 2000
    block = _Block(pr.sample_eve_distance(rng, size=n), 1.0 - 2.0 * rng.random(n), {})
    rho = r_max * block.cbrt_u
    geometry = pr.ScenarioGeometry(h_br_m=400.0, r_eve_m=r_max)
    centred = ScenarioConfig(geometry=geometry, air=air, fading=FadingParams(),
                             scheme=SchemeId.FCR_RS)
    assert np.array_equal(_eve_gain(block, _eve_key(centred)),
                          pr.large_scale_gain(air.ref_gain, rho, 2.0))
    offset = dataclasses.replace(centred, eve_center_h_m=150.0)

    def distance(block: _Block) -> np.ndarray:
        # at alpha_e = 1 and G0 = 1 the gain is the inverse distance
        return 1.0 / _eve_gain(block, (r_max, offset.eve_offset_m, 1.0, 1.0))

    d = distance(block)
    dz = 400.0 - 150.0
    assert np.all(d >= np.abs(rho - dz) - 1e-9)
    assert np.all(d <= rho + dz + 1e-9)
    # straight above and below the centre the legs add and subtract exactly
    ends = distance(_Block(np.full(2, 0.5), np.array([1.0, -1.0]), {}))
    assert np.allclose(ends, [dz - 0.5 * r_max, dz + 0.5 * r_max], rtol=1e-12)


# --- Group 5: containers ---


def test_geometry_defaults_and_derived(geometry):
    assert geometry.n_users == 4
    assert math.isclose(geometry.d_br_3d_m, math.hypot(300.0, 150.0), rel_tol=1e-15)


def test_geometry_validation():
    with pytest.raises(ValueError):
        pr.ScenarioGeometry(r_br_m=-1.0)
    with pytest.raises(ValueError):
        pr.ScenarioGeometry(h_br_m=0.0)
    with pytest.raises(ValueError):
        pr.ScenarioGeometry(d_rn_m=())
    with pytest.raises(ValueError):
        pr.ScenarioGeometry(d_rn_m=(50.0, -2.0))
    with pytest.raises(ValueError):
        pr.ScenarioGeometry(r_eve_m=0.0)


def test_air_params_validation():
    with pytest.raises(ValueError):
        pr.AirGroundParams(a2=0.0)
    with pytest.raises(ValueError):
        pr.AirGroundParams(b2=-0.1)
    with pytest.raises(ValueError):
        pr.AirGroundParams(alpha_zenith=3.6, alpha_ground=3.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_containers_refuse_non_finite(bad):
    for kw in (dict(r_br_m=bad), dict(h_br_m=bad), dict(d_rn_m=(50.0, bad)),
               dict(r_eve_m=bad)):
        with pytest.raises(ValueError, match="finite"):
            pr.ScenarioGeometry(**kw)
    for kw in (dict(a2=bad), dict(b2=bad), dict(alpha_zenith=bad),
               dict(alpha_ground=bad), dict(ref_gain=bad)):
        with pytest.raises(ValueError, match="finite"):
            pr.AirGroundParams(**kw)
