"""Nakagami-m element powers, gamma power sums, and channel-vector draws.

Proves:
 Group 1 — parameter container
   integer >= 1 validation for both shapes and the element count.

 Group 2 — gamma CDF / PDF kernels against scipy.stats.gamma
   frozen one-element value 1 - 1/e; frozen (m1=2, L=2) value; grid
   agreement at 1e-10; zero below the support; array broadcast; density
   peaks at the analytic mode (m2 L - 1)/m2 and integrates to one;
   monotone CDF bounded in [0, 1] (property).

 Group 3 — sampler statistics
   element powers have unit mean and variance 1/m; power sums match the
   CDF kernel in distribution (KS < 0.005 at 1e5 draws); draw-shape
   conventions put elements on the trailing axis.

 Group 4 — channel vectors
   norm-square of a unit-variance 16-element draw averages to L within
   0.05 at 1e5 draws and matches the power-sum law in distribution;
   entries are zero-mean complex.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from zsrpsim import fading as fd

# frozen: P[Gamma(4, 1/2) <= 1]
CDF_S_M2_L2_AT_1 = 0.14287653950145296


# --- Group 1: parameter container ---


def test_fading_params_defaults(fading):
    assert (fading.m1, fading.m2, fading.n_elements) == (2, 2, 16)


def test_fading_params_validation():
    with pytest.raises(ValueError):
        fd.FadingParams(m1=0)
    with pytest.raises(ValueError):
        fd.FadingParams(m2=-1)
    with pytest.raises(ValueError):
        fd.FadingParams(n_elements=0)
    with pytest.raises(ValueError):
        fd.FadingParams(m1=1.5)
    with pytest.raises(ValueError):
        fd.FadingParams(m2=2.5)
    with pytest.raises(ValueError):
        fd.FadingParams(n_elements=float("inf"))


def test_fading_params_store_integral_floats_as_int():
    p = fd.FadingParams(m1=2.0, m2=3.0, n_elements=16.0)
    assert (p.m1, p.m2, p.n_elements) == (2, 3, 16)
    assert all(type(v) is int for v in (p.m1, p.m2, p.n_elements))
    assert p == fd.FadingParams(m1=2, m2=3, n_elements=16)


# --- Group 2: CDF / PDF kernels ---


def test_cdf_S_frozen_values():
    assert math.isclose(fd.cdf_S(1.0, 1, 1), 1.0 - math.exp(-1.0), rel_tol=1e-12)
    assert math.isclose(fd.cdf_S(1.0, 2, 2), CDF_S_M2_L2_AT_1, rel_tol=1e-10)


def test_cdf_S_vs_scipy_grid():
    for m1, n_elements in ((1, 4), (2, 16), (3, 2)):
        s = np.geomspace(0.05, 5.0 * n_elements, 25)
        ref = stats.gamma.cdf(s, a=m1 * n_elements, scale=1.0 / m1)
        got = fd.cdf_S(s, m1, n_elements)
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-14), (m1, n_elements)


def test_cdf_S_below_support():
    assert fd.cdf_S(0.0, 2, 4) == 0.0
    assert fd.cdf_S(-3.0, 2, 4) == 0.0
    out = fd.cdf_S(np.array([-1.0, 0.0, 1.0]), 1, 1)
    assert out[0] == 0.0 and out[1] == 0.0 and out[2] > 0.0


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=32),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.01, max_value=20.0),
)
@settings(max_examples=50, deadline=None)
def test_cdf_S_monotone_bounded(m1, n_elements, s, ds):
    lo = fd.cdf_S(s, m1, n_elements)
    hi = fd.cdf_S(s + ds, m1, n_elements)
    assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
    # monotone up to rounding in the saturated tail
    assert hi >= lo - 5e-16


def test_pdf_W_vs_scipy_grid():
    for m2, n_elements in ((1, 2), (2, 16), (4, 4)):
        w = np.geomspace(0.05, 4.0 * n_elements, 25)
        ref = stats.gamma.pdf(w, a=m2 * n_elements, scale=1.0 / m2)
        got = fd.pdf_W(w, m2, n_elements)
        assert np.allclose(got, ref, rtol=1e-10), (m2, n_elements)


def test_pdf_W_mode_and_mass():
    m2, n_elements = 2, 16
    mode = (m2 * n_elements - 1) / m2
    at_mode = fd.pdf_W(mode, m2, n_elements)
    assert at_mode > fd.pdf_W(mode * 0.9, m2, n_elements)
    assert at_mode > fd.pdf_W(mode * 1.1, m2, n_elements)
    mass, err = integrate.quad(lambda w: fd.pdf_W(w, m2, n_elements), 0.0, np.inf)
    assert math.isclose(mass, 1.0, rel_tol=1e-9)


def test_pdf_W_origin_limit():
    # overall shape m2 L = 1 is the exponential case: finite density m2 = 1
    # at the origin; any larger shape vanishes there
    assert fd.pdf_W(0.0, 1, 1) == 1.0
    assert fd.pdf_W(0.0, 3, 1) == 0.0
    assert fd.pdf_W(0.0, 2, 16) == 0.0


# --- Group 3: sampler statistics ---


def test_sample_gamma_validation(rng):
    with pytest.raises(ValueError):
        fd.sample_gamma(rng, 0.0, 1.0)
    with pytest.raises(ValueError):
        fd.sample_gamma(rng, 2.0, -1.0)


def test_element_powers_moments(rng):
    m = 3
    p = fd.sample_element_powers(rng, m, 8, size=50_000)
    assert p.shape == (50_000, 8)
    # Gamma(m, 1/m): mean 1, variance 1/m
    n = p.size
    se_mean = math.sqrt(1.0 / m / n)
    assert abs(p.mean() - 1.0) < 4.0 * se_mean
    assert abs(p.var() - 1.0 / m) < 0.01


def test_power_sum_distribution(rng):
    m1, n_elements = 2, 16
    s = fd.sample_S(rng, m1, n_elements, size=100_000)
    assert s.shape == (100_000,)
    ks = stats.kstest(s, lambda x: fd.cdf_S(x, m1, n_elements))
    assert ks.statistic < 0.005
    se = math.sqrt(n_elements / m1 / s.size)
    assert abs(s.mean() - n_elements) < 4.0 * se


def test_sample_W_mean(rng):
    w = fd.sample_W(rng, 2, 16, size=50_000)
    se = math.sqrt(16 / 2 / w.size)
    assert abs(w.mean() - 16.0) < 4.0 * se


# --- Group 4: channel vectors ---


def test_channel_vector_shape_and_dtype(rng):
    v = fd.sample_channel_vector(rng, 2, 1.0, 16)
    assert v.shape == (16,)
    assert np.iscomplexobj(v)


def test_channel_vector_norm_law(rng):
    # ||v||^2 with unit variance is the power sum S; check the mean to
    # 0.05 and the full distribution by KS against the gamma-sum CDF
    m, n_elements, draws = 2, 16, 100_000
    norms = np.empty(draws)
    for i in range(draws):
        v = fd.sample_channel_vector(rng, m, 1.0, n_elements)
        norms[i] = np.vdot(v, v).real
    assert abs(norms.mean() - n_elements) < 0.05
    ks = stats.kstest(norms, lambda x: fd.cdf_S(x, m, n_elements))
    assert ks.statistic < 0.005


def test_channel_vector_zero_mean(rng):
    acc = np.zeros(4, dtype=complex)
    draws = 20_000
    for _ in range(draws):
        acc += fd.sample_channel_vector(rng, 2, 1.0, 4)
    mean = acc / draws
    # each entry has unit second moment, so the mean shrinks like 1/sqrt(n)
    assert np.all(np.abs(mean) < 4.0 / math.sqrt(draws))


def test_channel_vector_variance_scaling(rng):
    sigma_sq = 0.25
    m, n_elements, draws = 1, 8, 40_000
    total = 0.0
    for _ in range(draws):
        v = fd.sample_channel_vector(rng, m, sigma_sq, n_elements)
        total += np.vdot(v, v).real
    mean = total / draws
    se = sigma_sq * math.sqrt(n_elements / m / draws)
    assert abs(mean - sigma_sq * n_elements) < 4.0 * se
