"""Zero-secrecy-rate event and the Monte-Carlo ZSRP estimator.

The secrecy rate of the served user is [C_main - C_eve]+ with
C = log2(1 + gamma_B * gain) on both links, so the zero-secrecy-rate
event {C_main < C_eve} reduces to the gain comparison
{main_gain < eve_gain}: the transmit SNR gamma_B cancels exactly and
never enters the estimator.

Trials are simulated in fixed-size blocks, each with its own
counter-derived random stream keyed by (seed, block index).  Workers
only ever merge integer event counts, so the estimate is bit-identical
for any thread count and any partitioning of blocks across workers.

Shared draws: a config's draws depend only on its draw layout (the
fading shapes and element count, the user count and the eavesdropper
centre mode) besides (seed, trials).  Configs that share a layout differ
only in scalars (scheme, altitude, radii, RIS-user distances, wiretap
exponent, environment), so :func:`run_monte_carlo_many` draws each block
once for all of them and evaluates every row on the same samples.  Each
row's estimate is bit-identical to running it alone, which is how
sweeps become common-random-number comparisons at the cost of one draw
per block instead of one per row.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

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
    """Full parameterization of one simulated downlink."""

    geometry: ScenarioGeometry
    air: AirGroundParams
    fading: FadingParams
    scheme: SchemeId
    gamma_b_db: float = 20.0
    alpha_eve: float = 2.0
    eve_center: str = "bs"
    eve_center_h_m: Optional[float] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma_b_db):
            raise ValueError("gamma_b_db must be finite")
        if self.alpha_eve <= 0.0:
            raise ValueError("alpha_eve must be positive")
        if self.eve_center not in ("bs", "fixed"):
            raise ValueError("eve_center must be 'bs' or 'fixed'")
        if self.eve_center_h_m is not None and self.eve_center_h_m <= 0.0:
            raise ValueError("eve_center_h_m must be positive")

    @property
    def n_users(self) -> int:
        return self.geometry.n_users

    @property
    def gamma_b_linear(self) -> float:
        return 10.0 ** (self.gamma_b_db / 10.0)


@dataclass(frozen=True)
class ChannelDraw:
    """One full realization: BS-RIS vector, per-user vectors, eve distance."""

    h_br: np.ndarray
    h_rn: np.ndarray
    d_be: float


@dataclass(frozen=True)
class ZsrpEstimate:
    """Monte-Carlo ZSRP with its binomial standard error."""

    p_hat: float
    std_err: float
    trials: int
    seed: int


def capacity_main(gamma_b: float, cascaded_gain: float) -> float:
    """Main-link capacity log2(1 + gamma_B * gain) in bits/s/Hz."""
    if cascaded_gain < 0.0:
        raise ValueError("gain must be nonnegative")
    return math.log2(1.0 + gamma_b * cascaded_gain)


def capacity_eve(gamma_b: float, wiretap_gain: float) -> float:
    """Wiretap-link capacity; identical formula to the main link."""
    return capacity_main(gamma_b, wiretap_gain)


def zsr_indicator(main_gain: float, eve_gain: float) -> bool:
    """Zero-secrecy-rate event: strict gain comparison.

    Equivalent to C_main < C_eve for every positive transmit SNR by
    monotonicity of log2(1 + gamma x); ties (measure zero) are secure.
    """
    return main_gain < eve_gain


def sample_channel_draw(rng: np.random.Generator,
                        config: ScenarioConfig) -> ChannelDraw:
    """One explicit realization with large-scale gains folded in.

    Convenience for inspection and tests; the estimator itself draws in
    vectorized blocks (same distributions, different draw layout).
    """
    from .fading import sample_channel_vector
    geom, air, fad = config.geometry, config.air, config.fading
    sigma2_sq = bs_ris_gain(geom, air)
    h_br = sample_channel_vector(rng, fad.m2, sigma2_sq, fad.n_elements)
    h_rn = np.stack([
        sample_channel_vector(rng, fad.m1, ris_user_gain(geom, air, u),
                              fad.n_elements)
        for u in range(geom.n_users)])
    d_be = float(sample_eve_distance(rng, geom.r_eve_m))
    return ChannelDraw(h_br=h_br, h_rn=h_rn, d_be=d_be)


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Independent substream for one block, partition-invariant."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, block_index))))


def _layout(config: ScenarioConfig) -> tuple:
    """What fixes a config's draws for a given (seed, trials)."""
    return config.fading, config.n_users, config.eve_center


def _eve_distance(config: ScenarioConfig, cbrt_u: np.ndarray,
                  dir_z: Optional[np.ndarray]) -> np.ndarray:
    """BS-eavesdropper distances of one row from its block's shared draws.

    ``cbrt_u`` is the unit-radius distance draw: scaling it by the row's
    radius is bit-equal to drawing at that radius.  'bs' keeps the
    uniform ball centered on the BS, so the distance is the sampled
    radius.  'fixed' pins the ball's center at the reference altitude
    (eve_center_h_m, defaulting to the configured altitude) and measures
    distance to the possibly different current BS altitude along the
    polar direction ``dir_z``.
    """
    rho = config.geometry.r_eve_m * cbrt_u
    if dir_z is None:
        return rho
    h0 = (config.eve_center_h_m if config.eve_center_h_m is not None
          else config.geometry.h_br_m)
    dz = config.geometry.h_br_m - h0
    return np.sqrt(np.maximum(rho ** 2 - 2.0 * rho * dir_z * dz + dz ** 2,
                              0.0))


def _simulate_block(configs: list[ScenarioConfig], seed: int,
                    block_index: int, n: int) -> list[tuple[int, int]]:
    """Event and opportunity counts of one block for every config.

    All configs share one draw layout (see :func:`_layout`); the draws,
    both cascade types and the PFS selections are computed once and each
    row then applies its own large-scale gains.
    """
    rng = _block_rng(seed, block_index)
    fad, n_users = configs[0].fading, configs[0].n_users
    n_el = fad.n_elements
    # fixed draw order: BS-side powers, user-side powers, eve placement
    gb_pow = rng.gamma(float(fad.m2), 1.0 / fad.m2, (n, n_el))
    gr_pow = rng.gamma(float(fad.m1), 1.0 / fad.m1, (n, n_users, n_el))
    cbrt_u = sample_eve_distance(rng, 1.0, size=n)
    dir_z = None
    if configs[0].eve_center == "fixed":
        dir_z = 1.0 - 2.0 * rng.random(n)
        rng.random(n)  # azimuth: drawn for placement, no effect on distance

    user_sums = gr_pow.sum(axis=2)
    small: dict[bool, np.ndarray] = {}  # fully connected? -> cascade
    if any(c.scheme.fully_connected for c in configs):
        small[True] = gb_pow.sum(axis=1)[:, None] * user_sums
    if not all(c.scheme.fully_connected for c in configs):
        amplitude = np.sqrt(gb_pow)[:, None, :] * np.sqrt(gr_pow)
        small[False] = amplitude.sum(axis=2) ** 2
        del amplitude
    del gb_pow, gr_pow
    # GCSI ranks user power sums, so both architectures share its pick
    picks: dict[tuple[str, bool], np.ndarray] = {}

    counts = []
    for config in configs:
        geom, air, scheme = config.geometry, config.air, config.scheme
        d_be = _eve_distance(config, cbrt_u, dir_z)
        eve_gain = large_scale_gain(air.ref_gain, np.maximum(d_be, 1e-9),
                                    config.alpha_eve)
        sigma2_sq = bs_ris_gain(geom, air)
        sigma1_sq = np.array([ris_user_gain(geom, air, u)
                              for u in range(n_users)])
        cascade = small[scheme.fully_connected]
        main_gain = sigma2_sq * sigma1_sq[None, :] * cascade

        rule = scheme.rule
        if rule == "rs":
            # slot average over all users: every user contributes an indicator
            hits = int(np.count_nonzero(main_gain < eve_gain[:, None]))
            counts.append((hits, n * n_users))
            continue
        key = (rule, rule == "fcsi" and scheme.fully_connected)
        if key not in picks:
            picks[key] = (select_gcsi_pfs(user_sums, n_el) if rule == "gcsi"
                          else select_fcsi_pfs(cascade, fad.m1, fad.m2, n_el))
        served = main_gain[np.arange(n), picks[key]]
        counts.append((int(np.count_nonzero(served < eve_gain)), n))
    return counts


def run_monte_carlo_many(configs: Sequence[ScenarioConfig], trials: int,
                         seed: int, threads: int = 1) -> list[ZsrpEstimate]:
    """ZSRP estimates of several configs over common random numbers.

    Configs are grouped by draw layout; each (group, block) pair is one
    task, mapped over ``threads`` workers, and only integer counts are
    merged.  Every estimate equals :func:`run_monte_carlo` on its config
    alone, for any thread count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    configs = list(configs)
    groups: dict[tuple, list[int]] = {}
    for k, config in enumerate(configs):
        groups.setdefault(_layout(config), []).append(k)
    blocks = [(i, min(BLOCK_TRIALS, trials - i * BLOCK_TRIALS))
              for i in range((trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS)]
    tasks = [(members, i, n) for members in groups.values()
             for i, n in blocks]

    def simulate(task: tuple[list[int], int, int]) -> list[tuple[int, int]]:
        members, i, n = task
        return _simulate_block([configs[k] for k in members], seed, i, n)

    if threads == 1 or len(tasks) <= 1:
        results = [simulate(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(simulate, tasks))
    hits = [0] * len(configs)
    opportunities = [0] * len(configs)
    for (members, _, _), counts in zip(tasks, results):
        for k, (h, o) in zip(members, counts):
            hits[k] += h
            opportunities[k] += o
    estimates = []
    for h, o in zip(hits, opportunities):
        p_hat = h / o
        std_err = math.sqrt(p_hat * (1.0 - p_hat) / trials)
        estimates.append(ZsrpEstimate(p_hat=p_hat, std_err=std_err,
                                      trials=trials, seed=seed))
    return estimates


def run_monte_carlo(config: ScenarioConfig, trials: int, seed: int,
                    threads: int = 1) -> ZsrpEstimate:
    """Estimate the ZSRP over ``trials`` independent channel draws.

    The result depends only on (config, trials, seed): blocks own
    counter-derived streams and merging sums integers, so any thread
    count produces bit-identical output.
    """
    return run_monte_carlo_many([config], trials, seed, threads=threads)[0]
