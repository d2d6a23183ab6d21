"""Zero-secrecy-rate event and the Monte-Carlo ZSRP estimator.

The secrecy rate of the served user is [C_main - C_eve]+ with
C = log2(1 + gamma_B * gain) on both links, so the zero-secrecy-rate
event {C_main < C_eve} reduces to the gain comparison
{main_gain < eve_gain}: the transmit SNR gamma_B cancels exactly and
never enters the estimator.  The comparison is strict, so ties (a null
event) count as secure.

Trials are simulated in fixed-size blocks, each with its own SFC64
stream seeded by ``SeedSequence((seed, block index))``.  A block draws,
in this order, the BS-side and then the user-side Gamma(m, 1/m) element
powers, each the mean of m unit exponentials and stored element axis
first, then the eavesdropper's unit-ball distance and polar direction.
Workers only ever merge integer event counts, so the estimate is
bit-identical for any thread count and any partitioning of blocks.

Shared draws: a config's draws depend only on its draw layout (the
fading shapes and element count and the user count) besides (seed,
trials).  Configs that share a layout differ only in scalars (scheme,
altitude, radii, eavesdropper centre, RIS-user distances, wiretap
exponent, environment), so :func:`run_monte_carlo_many` draws each block
once for all of them and evaluates every row on the same samples.  Each
row's estimate is bit-identical to running it alone, which is how
sweeps become common-random-number comparisons at the cost of one draw
per block instead of one per row.  It streams: each block is drawn,
counted for every row and dropped.

Memoized blocks: a block is drawn by :func:`_draw_block` into reduced
samples (the users each scheme counts and their cascades, the unit
distance and the polar direction) and counted per row by
:func:`_count_block`.  :func:`run_monte_carlo` keeps the
reduced blocks of its last miss, read-only, in a one-entry memo keyed by
(draw layout, scheme, seed, trials); the thread count is not in the key,
since the draws do not depend on it.  A PFS scheme keeps its (1, n) pick
and served cascade, round robin the (N, n) cascade, so the entry holds
at most 8 (N + 2) bytes per trial.  Calls that differ only in the
row's scalars, such as the altitudes of one search, draw once and then
only compare, with the values separate runs would give.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .fading import FadingParams
from .propagation import (AirGroundParams, ScenarioGeometry, bs_ris_gain,
                          large_scale_gain, ris_user_gain,
                          sample_eve_distance)
from .scheduling import SchemeId, select_fcsi_pfs, select_gcsi_pfs

#: Trials per independent random block.  Fixed: changing it changes the
#: draw partitioning and therefore the sampled values for a given seed.
BLOCK_TRIALS = 4096


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one simulated downlink.

    The eavesdropper ball moves with the BS when ``eve_center_h_m`` is
    None; otherwise its centre stays at that altitude on the BS's
    vertical while sweeps and searches move the BS.
    """

    geometry: ScenarioGeometry
    air: AirGroundParams
    fading: FadingParams
    scheme: SchemeId
    gamma_b_db: float = 20.0
    alpha_eve: float = 2.0
    eve_center_h_m: Optional[float] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma_b_db):
            raise ValueError("gamma_b_db must be finite")
        if not 0.0 < self.alpha_eve < math.inf:
            raise ValueError("alpha_eve must be positive and finite")
        if (self.eve_center_h_m is not None
                and not 0.0 < self.eve_center_h_m < math.inf):
            raise ValueError("eve_center_h_m must be positive and finite")

    @property
    def n_users(self) -> int:
        return self.geometry.n_users

    @property
    def user_scales(self) -> np.ndarray:
        """Large-scale gain sigma2^2 sigma1n^2 of each user's cascade."""
        geom, air = self.geometry, self.air
        return bs_ris_gain(geom, air) * np.array(
            [ris_user_gain(geom, air, u) for u in range(self.n_users)])

    @property
    def eve_offset_m(self) -> float:
        """BS altitude above the eavesdropper ball's centre; 0 if centred."""
        return (0.0 if self.eve_center_h_m is None
                else self.geometry.h_br_m - self.eve_center_h_m)


@dataclass(frozen=True)
class ZsrpEstimate:
    """Monte-Carlo ZSRP with its standard error.

    The error is that of the mean of the per-trial shares of counted
    users in the event (all N for round robin, the served one for PFS).
    """

    p_hat: float
    std_err: float
    trials: int
    seed: int


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Independent substream for one block, partition-invariant."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence((seed, block_index))))


def _layout(config: ScenarioConfig) -> tuple:
    """What fixes a config's draws for a given (seed, trials)."""
    return config.fading, config.n_users


#: Round robin's index into the user gains: each gain as a column.
_ALL_USERS = np.s_[:, None]


class _Block(NamedTuple):
    """One block's reduced draws: what counting its rows needs.

    ``rows`` maps (fully connected?, rule) to the users a trial counts,
    as an index into the user gains, and their cascades, user axis first:
    :data:`_ALL_USERS` and the (N, n) cascade for round robin, the (1, n)
    pick and served cascade for PFS.  ``cbrt_u`` and ``dir_z`` place the
    eavesdropper for every centre (see :func:`_eve_gain`).
    """

    cbrt_u: np.ndarray
    dir_z: np.ndarray
    rows: dict[tuple[bool, str], tuple[object, np.ndarray]]


def _element_powers(rng: np.random.Generator, m: int,
                    shape: tuple[int, ...]) -> np.ndarray:
    """Gamma(m, 1/m) element powers of ``shape``, element axis first.

    Each power is the mean of m unit exponentials from numpy's ziggurat
    sampler, exact for the integer m that :class:`FadingParams` admits
    (Devroye 1986, ch. IX.3).  The first exponential fills the array, then
    each element row adds its m - 1 further ones through one row buffer,
    so no second full-size array is live.  Not -log of a product of
    uniforms: numpy's SIMD log rounds differently on different CPUs.  At
    (16, 4096, 4) it took 2.6 / 5.1 / 7.2 / 9.8 / 12.5 ms for m = 1 ... 5
    against 3.4 / 9.7 / 9.2 / 9.3 / 9.5 ms for ``rng.gamma`` (median of
    41, 2-core Xeon, numpy 2.4.6): it breaks even at about m = 4.
    """
    powers = rng.standard_exponential(shape)
    row = np.empty(shape[1:])
    for element in powers:
        for _ in range(m - 1):
            element += rng.standard_exponential(out=row)
    powers /= m
    return powers


def _draw_block(configs: list[ScenarioConfig], seed: int, block_index: int,
                n: int) -> _Block:
    """Reduced samples of one block for configs sharing one draw layout.

    Draw order: BS-side powers (L, n), user-side powers (L, n, N), both by
    :func:`_element_powers`, then the unit-ball distance and the polar
    direction cosine (n each); with the element axis first, every sum
    over elements adds whole rows.  The
    draws, each needed cascade type and each needed PFS pick are computed
    once for all configs (see :func:`_layout`); only what their schemes
    count is kept, user axis first and read-only, so no array with an
    element axis outlives the call and a memoized block cannot change.
    """
    rng = _block_rng(seed, block_index)
    fad, n_users = configs[0].fading, configs[0].n_users
    n_el = fad.n_elements
    gb_pow = _element_powers(rng, fad.m2, (n_el, n))
    gr_pow = _element_powers(rng, fad.m1, (n_el, n, n_users))
    cbrt_u = sample_eve_distance(rng, size=n)
    dir_z = 1.0 - 2.0 * rng.random(n)

    needs = sorted({(c.scheme.fully_connected, c.scheme.rule) for c in configs})
    user_sums = gr_pow.sum(axis=0)
    small: dict[bool, np.ndarray] = {}  # fully connected? -> cascade
    if any(fc for fc, _ in needs):
        small[True] = gb_pow.sum(axis=0)[:, None] * user_sums
    if not all(fc for fc, _ in needs):
        # amplitudes overwrite the powers, which the power sums above were
        # the last to read
        amplitude = np.sqrt(gr_pow, out=gr_pow)
        amplitude *= np.sqrt(gb_pow, out=gb_pow)[:, :, None]
        small[False] = amplitude.sum(axis=0) ** 2
    del gb_pow, gr_pow
    # GCSI ranks user power sums, so both architectures share its pick
    gcsi = (select_gcsi_pfs(user_sums)[None]
            if any(rule == "gcsi" for _, rule in needs) else None)
    rows = {}
    for fc, rule in needs:
        if rule == "rs":
            rows[fc, rule] = (_ALL_USERS, np.ascontiguousarray(small[fc].T))
        else:
            pick = gcsi if rule == "gcsi" else select_fcsi_pfs(small[fc])[None]
            rows[fc, rule] = (pick, small[fc][np.arange(n), pick])
    for array in (cbrt_u, dir_z, *(a for row in rows.values() for a in row)):
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return _Block(cbrt_u, dir_z, rows)


def _eve_key(config: ScenarioConfig) -> tuple:
    """Every input of a row's eavesdropper gains on one block's draws:
    (radius, offset of the BS from the ball's centre, alpha_e, G0)."""
    return (config.geometry.r_eve_m, config.eve_offset_m, config.alpha_eve,
            config.air.ref_gain)


def _eve_gain(block: _Block, key: tuple) -> np.ndarray:
    """Large-scale gain of each trial's eavesdropper for one :func:`_eve_key`.

    The eavesdropper sits rho = R ``cbrt_u`` from the ball's centre (bit
    for bit a draw at radius R), the BS ``offset`` above it; the law of
    cosines along ``dir_z`` gives their distance, which at offset 0 is
    rho to the bit (IEEE sqrt(rho^2) = rho), so rho is used directly.
    """
    r_eve, offset, alpha_eve, ref_gain = key
    d_be = r_eve * block.cbrt_u
    if offset:
        d_be = np.sqrt(np.maximum(d_be ** 2 - 2.0 * d_be * block.dir_z * offset
                                  + offset ** 2, 0.0))
    return large_scale_gain(ref_gain, np.maximum(d_be, 1e-9), alpha_eve)


def _count_block(block: _Block, config: ScenarioConfig, user_gains: np.ndarray,
                 eve_gain: np.ndarray) -> tuple[int, int, int]:
    """Event, opportunity and squared per-trial event counts of one row.

    A trial counts K users (N for round robin, the served one for PFS)
    and k of them lose to the eavesdropper; the triple is (sum k, K n,
    sum k^2) over the block's n trials.  The row applies its large-scale
    gains, ``user_gains`` (:attr:`ScenarioConfig.user_scales`) and
    ``eve_gain`` (:func:`_eve_gain`), to the block's small-scale samples.
    """
    users, cascade = block.rows[config.scheme.fully_connected, config.scheme.rule]
    main_gain = user_gains[users] * cascade
    per_trial = (main_gain < eve_gain).sum(axis=0)
    return (int(per_trial.sum()), main_gain.size,
            int(np.dot(per_trial, per_trial)))


def _estimate(counts: Sequence[tuple[int, int, int]], trials: int,
              seed: int) -> ZsrpEstimate:
    """One row's estimate from its per-block count triples.

    p_hat averages T per-trial means k / K; its variance is their plug-in
    variance over T, formed exactly in integers (binomial at K = 1).
    """
    h, o, sq = map(sum, zip(*counts))
    var = (sq * trials - h * h) / (o * o * trials)
    return ZsrpEstimate(p_hat=h / o, std_err=math.sqrt(var), trials=trials,
                        seed=seed)


def _blocks(trials: int, threads: int, seed: int) -> list[tuple[int, int]]:
    """(index, size) of every block, once the arguments are checked."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return [(i, min(BLOCK_TRIALS, trials - i * BLOCK_TRIALS))
            for i in range((trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS)]


def _map(fn: Callable, tasks: list, threads: int) -> list:
    """``fn`` over ``tasks`` in order, on ``threads`` workers."""
    if threads == 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))


def run_monte_carlo_many(configs: Sequence[ScenarioConfig], trials: int,
                         seed: int, threads: int = 1) -> list[ZsrpEstimate]:
    """ZSRP estimates of several configs over common random numbers.

    Configs are grouped by draw layout; each (group, block) pair is one
    task, mapped over ``threads`` workers, that draws the block, counts
    every row of the group and drops it, so only integer counts are
    merged.  Rows of a group that share an eavesdropper key (see
    :func:`_eve_key`) share one eavesdropper gain array per block.  Every
    estimate equals :func:`run_monte_carlo` on its config alone, for any
    thread count.
    """
    blocks = _blocks(trials, threads, seed)
    configs = list(configs)
    gains = [config.user_scales for config in configs]
    eve_keys = [_eve_key(config) for config in configs]
    groups: dict[tuple, list[int]] = {}
    for k, config in enumerate(configs):
        groups.setdefault(_layout(config), []).append(k)
    tasks = [(members, i, n) for members in groups.values()
             for i, n in blocks]

    def simulate(task: tuple[list[int], int, int]) -> list[tuple[int, int, int]]:
        members, i, n = task
        block = _draw_block([configs[k] for k in members], seed, i, n)
        eve: dict[tuple, np.ndarray] = {}
        for k in members:
            if eve_keys[k] not in eve:
                eve[eve_keys[k]] = _eve_gain(block, eve_keys[k])
        return [_count_block(block, configs[k], gains[k], eve[eve_keys[k]])
                for k in members]

    counts: list[list[tuple[int, int, int]]] = [[] for _ in configs]
    for (members, _, _), task_counts in zip(tasks, _map(simulate, tasks, threads)):
        for k, block_counts in zip(members, task_counts):
            counts[k].append(block_counts)
    return [_estimate(row_counts, trials, seed) for row_counts in counts]


#: The blocks of the last :func:`run_monte_carlo` miss, keyed by
#: (draw layout, scheme, seed, trials); one entry at most.
_memo: dict[tuple, list[_Block]] = {}
_memo_lock = threading.Lock()


def run_monte_carlo(config: ScenarioConfig, trials: int, seed: int,
                    threads: int = 1) -> ZsrpEstimate:
    """Estimate the ZSRP over ``trials`` independent channel draws.

    The result depends only on (config, trials, seed): blocks own
    streams keyed by (seed, block) and merging sums integers, so any thread
    count produces bit-identical output.  The reduced blocks are kept
    read-only in a one-entry memo (see the module docstring), so a call
    that differs from the previous one only in the row's scalars, such as
    the altitude, counts the kept samples without drawing again.
    """
    blocks = _blocks(trials, threads, seed)
    key = (_layout(config), config.scheme, seed, trials)
    with _memo_lock:
        drawn = _memo.get(key)
        if drawn is None:
            _memo.clear()
            drawn = _memo[key] = _map(
                lambda b: _draw_block([config], seed, *b), blocks, threads)
    gains, eve_key = config.user_scales, _eve_key(config)
    return _estimate([_count_block(b, config, gains, _eve_gain(b, eve_key))
                      for b in drawn], trials, seed)
