"""Nakagami-m fading parameters and the gamma power-sum CDF / PDF kernels.

Proves:
 Group 1 — parameter container
   integer >= 1 validation for both shapes and the element count.

 Group 2 — gamma CDF / PDF kernels against scipy.stats.gamma
   frozen one-element value 1 - 1/e; frozen (m1=2, L=2) value; grid
   agreement at 1e-10, also past the exp(-x) underflow at shape 800; zero
   below the support, for the CDF and for the density at w <= 0 (shape 1
   included); array broadcast; density
   peaks at the analytic mode (m2 L - 1)/m2 and integrates to one;
   monotone CDF bounded in [0, 1] (property, with the pair where 1 - Q
   read rounding noise); below the lower-tail switch x_lo =
   tail_cutoff(a, 1 - 2^-20), where the CDF crosses 2^-20, it keeps 1e-12
   relative accuracy against scipy's gammainc down to 1e-300, and at x_lo
   the lower-tail series and 1 - Q agree within 2^-46; every element of
   a batch is float.hex-equal to its one-element call, below and across
   the switch, for shapes 1 to 800 (property); past the exact-one
   switch x_a = tail_cutoff(a, 2^-60) (shapes 1, 4, 32, 64, 96) the CDF is
   written as 1.0 without the Poisson sum, bit for bit equal to 1 - Q on a
   dense grid across x_a, and Q(a, x) < 2^-60 from x_a on.  The one
   search serves both switches and the W cutoff of the cascade quadrature
   (shapes 1 to 800): Q(a, x) < level <= Q(a, x (1 - 2^-29)) at all three
   levels; a level it cannot bracket, by doubling or by halving, raises
   AccuracyError.

 Group 3 — the estimator's power sums
   sums of L Gamma(m, 1/m) element powers, drawn as the Monte-Carlo block
   draws them, match the CDF kernel in distribution (KS < 0.005 at 1e5
   draws) and average to L.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from zsrpsim import fading as fd
from zsrpsim import specfun
from zsrpsim.errors import AccuracyError

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


def cdf_S_at(s: float, m1: int, n_elements: int) -> float:
    """The CDF at one point, by a one-element array call."""
    return float(fd.cdf_S(np.array([s]), m1, n_elements)[0])


def test_cdf_S_frozen_values():
    assert math.isclose(cdf_S_at(1.0, 1, 1), 1.0 - math.exp(-1.0), rel_tol=1e-12)
    assert math.isclose(cdf_S_at(1.0, 2, 2), CDF_S_M2_L2_AT_1, rel_tol=1e-10)


def test_cdf_S_vs_scipy_grid():
    for m1, n_elements in ((1, 4), (2, 16), (3, 2)):
        s = np.geomspace(0.05, 5.0 * n_elements, 25)
        ref = stats.gamma.cdf(s, a=m1 * n_elements, scale=1.0 / m1)
        got = fd.cdf_S(s, m1, n_elements)
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-14), (m1, n_elements)


def test_cdf_S_past_exp_underflow():
    # with m1 L = 800 the mass sits at m1 s ~ 800, where exp(-m1 s) has
    # underflowed: the kernel must not read 1 there
    s = np.array([300.0, 375.0, 420.0, 500.0])
    ref = stats.gamma.cdf(s, a=800, scale=0.5)
    assert np.allclose(fd.cdf_S(s, 2, 400), ref, rtol=1e-9, atol=1e-12)
    assert math.isclose(cdf_S_at(375.0, 2, 400), ref[1], rel_tol=1e-9)


def test_cdf_S_below_support():
    assert cdf_S_at(0.0, 2, 4) == 0.0
    assert cdf_S_at(-3.0, 2, 4) == 0.0
    out = fd.cdf_S(np.array([-1.0, 0.0, 1.0]), 1, 1)
    assert out[0] == 0.0 and out[1] == 0.0 and out[2] > 0.0


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=32),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.01, max_value=20.0),
)
@settings(max_examples=50, deadline=None)
# 1 - Q read 6.66e-16 here against a true 7.05e-21, and 1.11e-16 at s + 1
@example(m1=3, n_elements=23, s=5.778634264018569, ds=1.0)
@example(m1=1, n_elements=1, s=5e-324, ds=1.0)  # x / (a+1) underflows to 0
def test_cdf_S_monotone_bounded(m1, n_elements, s, ds):
    lo = cdf_S_at(s, m1, n_elements)
    hi = cdf_S_at(s + ds, m1, n_elements)
    assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
    # monotone up to rounding in the saturated tail
    assert hi >= lo - 5e-16


@pytest.mark.parametrize("m1,n_elements", [(1, 1), (2, 1), (1, 4), (3, 23),
                                            (2, 16), (4, 32)])
def test_cdf_S_lower_tail_relative_accuracy(m1, n_elements):
    # the threshold sits where the CDF crosses 2^-20; below it the positive
    # lower-tail series replaces 1 - Q, whose rounding leaves few digits
    a = m1 * n_elements
    x_lo = fd.tail_cutoff(a, 1.0 - 2.0 ** -20)
    below, above = special.gammainc(a, x_lo * np.array([1.0 - 1e-6, 1.0 + 1e-6]))
    assert below < 2.0 ** -20 < above
    s = np.geomspace(1e-300, 2.0 * a + 50.0, 40001) / m1
    ref = special.gammainc(a, m1 * s)
    tail = (ref > 1e-300) & (ref < 2.0 ** -20)
    assert tail.sum() > 100
    got = fd.cdf_S(s[tail], m1, n_elements)
    assert np.max(np.abs(got - ref[tail]) / ref[tail]) <= 1e-12


@pytest.mark.parametrize("a", [1, 4, 32, 64, 96])
def test_cdf_S_exact_one_skip_keeps_the_bits(a, monkeypatch):
    x_a = fd.tail_cutoff(a, 2.0 ** -60)
    assert specfun.regularized_upper_gamma(a, x_a) < 2.0 ** -60
    assert specfun.regularized_upper_gamma(a, 0.9 * x_a) >= 2.0 ** -60
    # from above the lower-tail switch (0.25 x_a up to a = 64), where the
    # CDF is 1 - Q, to past x_a
    x_lo = max(0.25 * x_a, fd.tail_cutoff(a, 1.0 - 2.0 ** -20))
    x = np.concatenate((np.linspace(x_lo, 4.0 * x_a, 40001),
                        np.geomspace(4.0 * x_a, 1e6, 2001), [x_a]))
    want = 1.0 - specfun.regularized_upper_gamma_vec(a, x)
    assert np.all(want[x >= x_a] == 1.0)
    seen = []
    poisson_sum = specfun.regularized_upper_gamma_vec

    def recording(shape, arg):
        seen.append(np.max(arg))
        return poisson_sum(shape, arg)

    monkeypatch.setattr(specfun, "regularized_upper_gamma_vec", recording)
    for m1 in (1, 2):
        if a % m1:
            continue
        got = fd.cdf_S(x / m1, m1, a // m1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), m1
        assert cdf_S_at(float(x_a / m1), m1, a // m1) == 1.0
    # only the points below the threshold reached the Poisson sum
    assert seen and max(seen) < x_a


_CUTOFF_SHAPES = [1, 4, 32, 64, 96, 256, 800]


@pytest.mark.parametrize("a", _CUTOFF_SHAPES)
def test_tail_cutoff_w_level(a):
    # every level the search serves (the lower-tail switch, the W cutoff
    # of the direct F_Z oracle, the cutoff of the proportional-fair
    # integral over S, the exact-one switch): less than the level lies
    # past the cutoff, and Q crosses the level within 2^-29 relative below it
    for level in (1.0 - 2.0 ** -20, 1e-13, 1e-17, 2.0 ** -60):
        x = fd.tail_cutoff(a, level)
        assert specfun.regularized_upper_gamma(a, x) < level, level
        assert specfun.regularized_upper_gamma(a, x * (1.0 - 2.0 ** -29)) >= level, level


def test_tail_cutoff_bracket_failure():
    # no x has Q(a, x) < 0, so the 200 doublings end in a typed refusal
    with pytest.raises(AccuracyError, match="could not bracket"):
        fd.tail_cutoff(4, 0.0)
    # nor Q(a, x) >= 1.5, so the 200 halvings end in the same refusal
    with pytest.raises(AccuracyError, match="could not bracket"):
        fd.tail_cutoff(4, 1.5)


@pytest.mark.parametrize("a", _CUTOFF_SHAPES)
def test_cdf_S_has_no_jump_at_the_lower_tail_switch(a):
    # at the switch the lower-tail series and 1 - Q, the two sides of
    # cdf_S, give the same value to rounding
    x = fd.tail_cutoff(a, 1.0 - 2.0 ** -20)
    series = specfun.regularized_lower_gamma_tail(a, np.array([x]), x)[0]
    poisson = 1.0 - specfun.regularized_upper_gamma(a, x)
    assert abs(series - poisson) <= 2.0 ** -46


@given(
    st.sampled_from([(1, 1), (2, 8), (2, 16), (1, 32), (2, 32), (4, 16), (1, 800)]),
    st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
             min_size=2, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_cdf_S_batch_equals_each_element_alone(shape, fractions):
    # each element keeps the bits it gets alone, whatever else shares its
    # array; the fractions place s below and across the lower-tail switch
    m1, n_elements = shape
    x_lo = fd.tail_cutoff(m1 * n_elements, 1.0 - 2.0 ** -20)
    s = np.array(fractions) * 1.2 * x_lo / m1
    batch = fd.cdf_S(s, m1, n_elements)
    alone = [fd.cdf_S(np.array([v]), m1, n_elements)[0] for v in s]
    assert [v.hex() for v in batch.tolist()] == [v.hex() for v in alone]


def test_pdf_W_vs_scipy_grid():
    for m2, n_elements in ((1, 2), (2, 16), (4, 4)):
        w = np.geomspace(0.05, 4.0 * n_elements, 25)
        ref = stats.gamma.pdf(w, a=m2 * n_elements, scale=1.0 / m2)
        got = fd.pdf_W(w, m2, n_elements)
        assert np.allclose(got, ref, rtol=1e-10), (m2, n_elements)
    # zero off the support, shape 1 (the exponential) included
    for m2, n_elements in ((1, 1), (3, 1), (2, 16)):
        assert np.all(fd.pdf_W(np.array([-1.0, 0.0]), m2, n_elements) == 0.0)


def test_pdf_W_mode_and_mass():
    m2, n_elements = 2, 16
    mode = (m2 * n_elements - 1) / m2
    below, at_mode, above = fd.pdf_W(mode * np.array([0.9, 1.0, 1.1]), m2, n_elements)
    assert at_mode > below and at_mode > above
    mass, err = integrate.quad(
        lambda w: fd.pdf_W(np.array([w]), m2, n_elements)[0], 0.0, np.inf)
    assert math.isclose(mass, 1.0, rel_tol=1e-9)


# --- Group 3: the estimator's power sums ---


def test_power_sum_distribution(rng):
    m1, n_elements = 2, 16
    s = rng.gamma(float(m1), 1.0 / m1, (100_000, n_elements)).sum(axis=1)
    ks = stats.kstest(s, lambda x: fd.cdf_S(x, m1, n_elements))
    assert ks.statistic < 0.005
    se = math.sqrt(n_elements / m1 / s.size)
    assert abs(s.mean() - n_elements) < 4.0 * se
