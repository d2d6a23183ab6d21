"""Shared fixtures: default geometry, environment, fading, and a seeded RNG."""

from __future__ import annotations

import numpy as np
import pytest

from zsrpsim.analytic import ClosedFormParams
from zsrpsim.fading import FadingParams
from zsrpsim.propagation import (
    AirGroundParams,
    ScenarioGeometry,
    bs_ris_gain,
    ris_user_gain,
)


@pytest.fixture
def geometry() -> ScenarioGeometry:
    return ScenarioGeometry()


@pytest.fixture
def air() -> AirGroundParams:
    return AirGroundParams()


@pytest.fixture
def fading() -> FadingParams:
    return FadingParams()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)


@pytest.fixture
def closed_params(geometry, air):
    """Factory for cascade parameters bound to the default scenario.

    Keyword overrides fall through to ClosedFormParams; link gains are
    recomputed from the default geometry unless given explicitly.
    """

    def make(n_users: int = 1, **kw) -> ClosedFormParams:
        base = dict(
            m1=2,
            m2=2,
            n_elements=16,
            scale=ris_user_gain(geometry, air, 0) * bs_ris_gain(geometry, air),
            ref_gain=air.ref_gain,
            r_eve_m=geometry.r_eve_m,
            n_users=n_users,
        )
        base.update(kw)
        return ClosedFormParams(**base)

    return make
