"""User selection rules: power-sum and full-gain greedy picks.

Proves:
 Group 1 — scheme identifiers
   string round-trip for every scheme, architecture/rule predicates,
   unknown ids rejected with the valid list in the message.

 Group 2 — greedy selectors
   first-index argmax semantics incl. ties; batch shape conventions;
   exact invariance under power-of-two rescaling (binary-float exact);
   with a shared second hop, power-sum selection and full-gain selection
   pick identical users on every draw.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsrpsim import scheduling as sch


# --- Group 1: scheme identifiers ---


def test_scheme_round_trip():
    ids = ["fcr-rs", "fcr-gcsi-pfs", "scr-rs", "scr-gcsi-pfs", "scr-fcsi-pfs"]
    for s in ids:
        assert sch.SchemeId.from_string(s).value == s


def test_scheme_predicates():
    assert sch.SchemeId.FCR_RS.fully_connected
    assert sch.SchemeId.FCR_GCSI_PFS.fully_connected
    assert not sch.SchemeId.SCR_FCSI_PFS.fully_connected
    assert sch.SchemeId.FCR_RS.rule == "rs"
    assert sch.SchemeId.FCR_GCSI_PFS.rule == "gcsi"
    assert sch.SchemeId.SCR_FCSI_PFS.rule == "fcsi"


def test_scheme_unknown_id():
    with pytest.raises(ValueError, match="fcr-rs"):
        sch.SchemeId.from_string("fc-random")


# --- Group 2: greedy selectors ---


def test_gcsi_argmax_semantics():
    assert sch.select_gcsi_pfs(np.array([0.2, 0.9, 0.5])) == 1
    assert sch.select_gcsi_pfs(np.array([0.4, 0.4])) == 0


def test_gcsi_batch_shape(rng):
    ps = rng.gamma(2.0, 0.5, size=(32, 4))
    idx = sch.select_gcsi_pfs(ps)
    assert idx.shape == (32,)
    assert np.array_equal(idx, np.argmax(ps, axis=-1))


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=-40, max_value=40),
)
@settings(max_examples=50, deadline=None)
def test_gcsi_scale_invariance(seed, k):
    # power-of-two rescaling is exact in binary floats, so the winner
    # cannot move
    rng = np.random.default_rng(seed)
    ps = rng.gamma(2.0, 0.5, size=6)
    assert sch.select_gcsi_pfs(ps * 2.0**k) == sch.select_gcsi_pfs(ps)


def test_fcsi_matches_gcsi_under_shared_second_hop(rng):
    # with a common second-hop factor the full gain is a positive multiple
    # of the power sum, so both selectors agree draw by draw
    m1, m2, n_elements, draws, users = 2, 2, 16, 2_000, 4
    s = rng.gamma(m1 * n_elements, 1.0 / m1, size=(draws, users))
    w = rng.gamma(m2 * n_elements, 1.0 / m2, size=draws)
    gains = s * w[:, None]
    got = sch.select_fcsi_pfs(gains)
    expect = sch.select_gcsi_pfs(s)
    assert np.array_equal(got, expect)
