"""Fully connected scattering matrices: unitarity, symmetry, and gain alignment.

Proves:
 Group 1 — constructed matrix contracts
   for random complex channel pairs across element counts (including the
   small-L special constructions and the scalar case) the assembled matrix
   satisfies Theta^H Theta = I and Theta = Theta^T to 1e-10 Frobenius.

 Group 2 — gain alignment
   the matrix route |conj(h_rn) Theta h_br|^2 reproduces the norm-product
   upper bound ||h_br||^2 ||h_rn||^2 to 1e-9 relative; invariance under a
   global phase rotation of either channel.

 Group 3 — single connected vs fully connected
   phase-only surfaces never beat the norm product (Cauchy-Schwarz) and
   meet it exactly for proportional amplitude profiles.

 Group 4 — input validation
   mismatched lengths, non-vector input, and zero channels are rejected.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (PhaseDecomposition, assemble_theta,
                     construct_aligning_unitary, fc_cascaded_gain,
                     fc_cascaded_gain_via_theta, optimal_phases,
                     sc_cascaded_gain)


def draw_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    shape = (2, n)
    re, im = rng.normal(size=shape), rng.normal(size=shape)
    h = (re + 1j * im) / np.sqrt(2.0)
    return h[0], h[1]


def build_theta(h_br: np.ndarray, h_rn: np.ndarray) -> np.ndarray:
    v = construct_aligning_unitary(h_br, h_rn)
    phi = optimal_phases(v, h_br, h_rn)
    return assemble_theta(PhaseDecomposition(v, phi))


# --- Group 1: matrix contracts ---


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16])
def test_theta_unitary_and_symmetric(n, rng):
    eye = np.eye(n)
    for _ in range(100):
        h_br, h_rn = draw_pair(rng, n)
        theta = build_theta(h_br, h_rn)
        assert np.linalg.norm(theta.conj().T @ theta - eye) < 1e-10
        assert np.linalg.norm(theta - theta.T) < 1e-10


def test_phases_in_principal_range(rng):
    for n in (2, 4, 9):
        h_br, h_rn = draw_pair(rng, n)
        v = construct_aligning_unitary(h_br, h_rn)
        phi = optimal_phases(v, h_br, h_rn)
        assert phi.shape == (n,)
        assert np.all(phi >= 0.0) and np.all(phi < 2.0 * np.pi)


# --- Group 2: gain alignment ---


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16])
def test_matrix_route_attains_norm_product(n, rng):
    for _ in range(50):
        h_br, h_rn = draw_pair(rng, n)
        fast = fc_cascaded_gain(h_br, h_rn)
        via = fc_cascaded_gain_via_theta(h_br, h_rn)
        assert abs(via - fast) <= 1e-9 * fast


def test_fast_path_is_norm_product(rng):
    h_br, h_rn = draw_pair(rng, 6)
    expect = float(np.vdot(h_br, h_br).real * np.vdot(h_rn, h_rn).real)
    assert np.isclose(fc_cascaded_gain(h_br, h_rn), expect, rtol=1e-12)


def test_global_phase_invariance(rng):
    h_br, h_rn = draw_pair(rng, 8)
    base = fc_cascaded_gain_via_theta(h_br, h_rn)
    for c in (0.7, 2.4):
        rotated = fc_cascaded_gain_via_theta(h_br * np.exp(1j * c), h_rn)
        assert abs(rotated - base) <= 1e-9 * base
        rotated = fc_cascaded_gain_via_theta(h_br, h_rn * np.exp(1j * c))
        assert abs(rotated - base) <= 1e-9 * base


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_matrix_route_property(seed, n):
    rng = np.random.default_rng(seed)
    h_br, h_rn = draw_pair(rng, n)
    fast = fc_cascaded_gain(h_br, h_rn)
    via = fc_cascaded_gain_via_theta(h_br, h_rn)
    assert abs(via - fast) <= 1e-9 * fast


# --- Group 3: single connected vs fully connected ---


def test_sc_formula(rng):
    h_br, h_rn = draw_pair(rng, 5)
    expect = float(np.sum(np.abs(h_br) * np.abs(h_rn)) ** 2)
    assert np.isclose(sc_cascaded_gain(h_br, h_rn), expect, rtol=1e-12)


def test_sc_never_exceeds_fc(rng):
    for n in (1, 2, 4, 8, 16):
        for _ in range(200):
            h_br, h_rn = draw_pair(rng, n)
            sc = sc_cascaded_gain(h_br, h_rn)
            fc = fc_cascaded_gain(h_br, h_rn)
            assert sc <= fc * (1.0 + 1e-12)


def test_sc_meets_fc_for_proportional_profiles(rng):
    # |h_rn| proportional to |h_br| is the Cauchy-Schwarz equality case
    h_br, _ = draw_pair(rng, 6)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=6))
    h_rn = 2.5 * np.abs(h_br) * phases
    sc = sc_cascaded_gain(h_br, h_rn)
    fc = fc_cascaded_gain(h_br, h_rn)
    assert np.isclose(sc, fc, rtol=1e-12)


def test_scalar_case_equality(rng):
    # with one element both architectures reduce to a bare phase shift
    h_br, h_rn = draw_pair(rng, 1)
    assert np.isclose(
        sc_cascaded_gain(h_br, h_rn), fc_cascaded_gain(h_br, h_rn), rtol=1e-12
    )


# --- Group 4: validation ---


def test_input_validation(rng):
    h_br, h_rn = draw_pair(rng, 4)
    with pytest.raises(ValueError):
        construct_aligning_unitary(h_br[:3], h_rn)
    with pytest.raises(ValueError):
        construct_aligning_unitary(h_br.reshape(2, 2), h_rn.reshape(2, 2))
    with pytest.raises(ValueError):
        construct_aligning_unitary(np.zeros(4, dtype=complex), h_rn)
