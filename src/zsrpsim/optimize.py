"""Hovering-altitude optimization of the UAV-BS minimizing the ZSRP.

The BS-RIS hop trades path-loss exponent against 3-D distance as the
altitude changes, producing a single-dip ZSRP curve; a golden-section
search refines a coarse pre-scan bracket.  With the Monte-Carlo
evaluator every altitude reuses the same seed (common random numbers),
so the objective is a deterministic function of altitude and the argmin
is repeatable.  The Monte-Carlo pre-scan altitudes share one draw layout,
so they are estimated in one :func:`~zsrpsim.secrecy.run_monte_carlo_many`
call that draws each block once; the golden-section steps depend on the
previous values and run one :func:`~zsrpsim.secrecy.run_monte_carlo` each.
Both give the values that separate runs would.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .analytic import zsrp_for_scheme
from .secrecy import ScenarioConfig, run_monte_carlo, run_monte_carlo_many

logger = logging.getLogger(__name__)

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Pre-scan resolution ahead of golden-section refinement.
PRESCAN_POINTS = 16


def golden_section_min(f: Callable[[float], float], lo: float, hi: float,
                       tol: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal scalar function.

    Shrinks [lo, hi] by the inverse golden ratio per iteration until the
    bracket is within ``tol``; returns the final bracket midpoint and
    its objective value.  Unimodality is assumed, not verified; a
    monotone objective converges to the appropriate endpoint.
    """
    if lo >= hi:
        raise ValueError("lo must be strictly below hi")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLDEN * (hi - lo)
            fd = f(d)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


@dataclass(frozen=True)
class AltitudeSearchSpec:
    """Search bounds, tolerance, and objective binding for the altitude."""

    config: ScenarioConfig
    h_lo_m: float = 40.0
    h_hi_m: float = 1500.0
    tol_m: float = 1.0
    evaluator: str = "analytic"
    trials: int = 100_000
    seed: int = 12345
    threads: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.h_lo_m < self.h_hi_m:
            raise ValueError("need 0 < h_lo_m < h_hi_m")
        if self.tol_m <= 0.0:
            raise ValueError("tol_m must be positive")
        if self.evaluator not in ("analytic", "mc"):
            raise ValueError("evaluator must be 'analytic' or 'mc'")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class AltitudeResult:
    """Optimal altitude, its ZSRP, and the number of objective calls."""

    h_m: float
    zsrp: float
    n_evaluations: int


def _bind_objective(spec: AltitudeSearchSpec) -> tuple[
        Callable[[float], float], Callable[[list[float]], list[float]],
        Callable[[], int]]:
    """(objective, batch objective, evaluation count) of one search.

    Both objectives fill one cache, so the count is the number of
    distinct altitudes evaluated.
    """
    base = spec.config
    if base.eve_center == "fixed" and base.eve_center_h_m is None:
        # pin the eavesdropper ball at the configured altitude so the
        # sweep moves the BS relative to a fixed region
        base = dataclasses.replace(base,
                                   eve_center_h_m=base.geometry.h_br_m)
    cache: dict[float, float] = {}

    def at(h: float) -> ScenarioConfig:
        geometry = dataclasses.replace(base.geometry, h_br_m=h)
        return dataclasses.replace(base, geometry=geometry)

    def objective(h: float) -> float:
        if h not in cache:
            cfg = at(h)
            if spec.evaluator == "analytic":
                cache[h] = zsrp_for_scheme(cfg.scheme, cfg).value
            else:
                cache[h] = run_monte_carlo(cfg, spec.trials, spec.seed,
                                           threads=spec.threads).p_hat
        return cache[h]

    def objective_many(hs: list[float]) -> list[float]:
        if spec.evaluator == "mc":
            estimates = run_monte_carlo_many([at(h) for h in hs], spec.trials,
                                             spec.seed, threads=spec.threads)
            cache.update((h, est.p_hat) for h, est in zip(hs, estimates))
        return [objective(h) for h in hs]

    return objective, objective_many, (lambda: len(cache))


def optimal_altitude(spec: AltitudeSearchSpec) -> AltitudeResult:
    """Altitude minimizing the ZSRP within the search tolerance.

    A 16-point pre-scan locates the best coarse point (insurance against
    a vanished dip), then golden-section refines the bracket formed by
    its neighbors.  The MC evaluator holds the seed fixed across
    altitudes, so repeated searches return the same argmin.
    """
    objective, objective_many, n_calls = _bind_objective(spec)
    step = (spec.h_hi_m - spec.h_lo_m) / (PRESCAN_POINTS - 1)
    scan = [spec.h_lo_m + i * step for i in range(PRESCAN_POINTS)]
    scan_vals = objective_many(scan)
    best = min(range(PRESCAN_POINTS), key=lambda i: scan_vals[i])
    lo = scan[max(best - 1, 0)]
    hi = scan[min(best + 1, PRESCAN_POINTS - 1)]
    if hi - lo <= spec.tol_m:
        h_star, val = scan[best], scan_vals[best]
    else:
        h_star, val = golden_section_min(objective, lo, hi, spec.tol_m)
    logger.info("altitude search: h*=%.3f m zsrp=%.6g after %d "
                "objective evaluations", h_star, val, n_calls())
    return AltitudeResult(h_m=h_star, zsrp=val, n_evaluations=n_calls())
