"""Hovering-altitude optimization of the UAV-BS minimizing the ZSRP.

The BS-RIS hop trades path-loss exponent against 3-D distance as the
altitude changes, producing a single-dip ZSRP curve; a golden-section
search refines a coarse pre-scan bracket.  With the Monte-Carlo
evaluator every altitude reuses the same seed (common random numbers),
so the objective is a deterministic function of altitude and the argmin
is repeatable.  Every Monte-Carlo evaluation, pre-scan and golden-section
step alike, is one :func:`~zsrpsim.secrecy.run_monte_carlo` call.  The
altitudes of one search share its memo key (draw layout, scheme, seed,
trials), so the first call draws each block once and every later call
only compares the kept samples at its altitude, with the values that
separate runs would give.  The analytic pre-scan takes its altitudes in
one :func:`~zsrpsim.analytic.zsrp_many` call, which shares each integral
among them, and each golden-section step one
:func:`~zsrpsim.analytic.zsrp_for_scheme` call; every value is the one
the altitude gets alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

from .analytic import zsrp_for_scheme, zsrp_many
from .errors import AnalyticUnavailableError
from .experiments import (DEFAULT_SEED, DEFAULT_TRIALS, EVALUATORS,
                          _at_grid_point)
from .secrecy import ScenarioConfig, run_monte_carlo

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
    if not lo < hi:
        raise ValueError("lo must be strictly below hi")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
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
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    threads: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.h_lo_m < self.h_hi_m < math.inf:
            raise ValueError("need 0 < h_lo_m < h_hi_m < inf")
        if not 0.0 < self.tol_m < math.inf:
            raise ValueError("tol_m must be positive and finite")
        if self.evaluator not in EVALUATORS:
            raise ValueError("evaluator must be 'analytic' or 'mc'")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class AltitudeResult:
    """Optimal altitude, its ZSRP, and the number of objective calls."""

    h_m: float
    zsrp: float
    n_evaluations: int


def optimal_altitude(spec: AltitudeSearchSpec) -> AltitudeResult:
    """Altitude minimizing the ZSRP within the search tolerance.

    A 16-point pre-scan locates the best coarse point (insurance against
    a vanished dip), then golden-section refines the bracket formed by
    its neighbors.  The analytic pre-scan evaluates its 16 altitudes in
    one batch, each value bit for bit its own; the golden-section steps,
    each depending on the last, take one altitude at a time.  The MC
    evaluator holds the seed fixed across altitudes, so repeated
    searches return the same argmin.  The objective caches its values,
    so the evaluation count is the number of distinct altitudes
    evaluated.
    """
    cache: dict[float, float] = {}

    def objective(h: float) -> float:
        if h not in cache:
            config = _at_grid_point(spec.config, "h_br_m", h)
            if spec.evaluator == "analytic":
                cache[h] = zsrp_for_scheme(config).value
            else:
                cache[h] = run_monte_carlo(config, spec.trials, spec.seed,
                                           threads=spec.threads).p_hat
        return cache[h]

    step = (spec.h_hi_m - spec.h_lo_m) / (PRESCAN_POINTS - 1)
    scan = [spec.h_lo_m + i * step for i in range(PRESCAN_POINTS)]
    if spec.evaluator == "analytic":
        configs = [_at_grid_point(spec.config, "h_br_m", h) for h in scan]
        for h, res in zip(scan, zsrp_many(configs, closed_form=False)):
            if isinstance(res, AnalyticUnavailableError):
                raise res
            cache[h] = res.value
    scan_vals = [objective(h) for h in scan]
    best = min(range(PRESCAN_POINTS), key=lambda i: scan_vals[i])
    lo = scan[max(best - 1, 0)]
    hi = scan[min(best + 1, PRESCAN_POINTS - 1)]
    if hi - lo <= spec.tol_m:
        h_star, val = scan[best], scan_vals[best]
    else:
        h_star, val = golden_section_min(objective, lo, hi, spec.tol_m)
    logger.info("altitude search: h*=%.3f m zsrp=%.6g after %d "
                "objective evaluations", h_star, val, len(cache))
    return AltitudeResult(h_m=h_star, zsrp=val, n_evaluations=len(cache))
