"""Experiment orchestration: config files, sweep grids, CSV emission.

A run is a cross product of (grid point x scheme x evaluator).  The three
canned sweeps cover the quantities the study varies: eavesdropper radius
(``fig2``), RIS element count (``fig3``) and hovering altitude (``fig4``);
``single`` evaluates the configured operating point only.  Every Monte-Carlo
row reuses the same seed, so sweeps are common-random-number comparisons and
the emitted CSV is byte-stable for a fixed (config, seed) regardless of the
thread count.  All Monte-Carlo rows of a run go to one
:func:`~zsrpsim.secrecy.run_monte_carlo_many` call, which draws each block
once per draw layout (one layout per element count on ``fig3``, one for the
whole run otherwise) and returns the same values as separate runs would.
"""

from __future__ import annotations

import configparser
import dataclasses
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from .analytic import zsrp_for_scheme
from .errors import AnalyticUnavailableError, ConfigError
from .fading import FadingParams
from .propagation import DEFAULT_REF_GAIN, AirGroundParams, ScenarioGeometry
from .scheduling import SchemeId
from .secrecy import ScenarioConfig, run_monte_carlo_many
# kept importable here: perfbench/tracer.py wraps it by module name
from .secrecy import run_monte_carlo  # noqa: F401

logger = logging.getLogger(__name__)

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 12345

#: Sweep grids for the canned experiments.
DEFAULT_R_GRID_M = (100.0, 200.0, 300.0, 400.0, 500.0)
DEFAULT_L_GRID = (4, 8, 16, 32)
DEFAULT_H_GRID_M = (60.0, 100.0, 150.0, 220.0, 310.0, 450.0, 700.0, 1000.0)

CSV_COLUMNS = ("sweep_var", "sweep_value", "scheme", "evaluator", "zsrp",
               "std_err", "trials", "seed", "wall_ms")

_EXPERIMENT_KINDS = ("single", "fig2", "fig3", "fig4")
_EVALUATORS = ("mc", "analytic")

ALL_SCHEMES = tuple(SchemeId)


@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep grid, scheme roster, evaluator set, and budget of one run."""

    kind: str = "single"
    schemes: tuple[SchemeId, ...] = ALL_SCHEMES
    evaluators: tuple[str, ...] = _EVALUATORS
    r_grid_m: tuple[float, ...] = DEFAULT_R_GRID_M
    l_grid: tuple[int, ...] = DEFAULT_L_GRID
    h_grid_m: tuple[float, ...] = DEFAULT_H_GRID_M
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    threads: int = 1
    output: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; "
                              f"expected one of {', '.join(_EXPERIMENT_KINDS)}")
        if not self.schemes:
            raise ConfigError("scheme list must be non-empty")
        if not self.evaluators:
            raise ConfigError("evaluator list must be non-empty")
        for ev in self.evaluators:
            if ev not in _EVALUATORS:
                raise ConfigError(f"unknown evaluator {ev!r}; expected mc or analytic")
        for grid, name in ((self.r_grid_m, "r_grid_m"), (self.l_grid, "l_grid"),
                           (self.h_grid_m, "h_grid_m")):
            if len(grid) == 0:
                raise ConfigError(f"{name} must be non-empty")
            if any(v <= 0 for v in grid):
                raise ConfigError(f"{name} values must be positive")
        if self.trials < 1000:
            raise ConfigError("trials must be >= 1000")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")

    def grid(self) -> tuple[str, tuple]:
        """(sweep variable name, grid values) for this experiment kind."""
        if self.kind == "fig2":
            return "r_eve_m", self.r_grid_m
        if self.kind == "fig3":
            return "elements", self.l_grid
        if self.kind == "fig4":
            return "h_br_m", self.h_grid_m
        return "none", (None,)


# --------------------------------------------------------------------------
# config file


_SCHEMA: dict[str, tuple[str, ...]] = {
    "geometry": ("r_br_m", "h_br_m", "d_rn_m", "users", "r_eve_m"),
    "environment": ("a2", "b2", "alpha_zenith", "alpha_ground", "ref_gain",
                    "gamma_b_db", "alpha_eve", "eve_center", "eve_center_h_m"),
    "fading": ("m1", "m2", "elements"),
    "experiment": ("kind", "schemes", "evaluators", "r_grid_m", "l_grid",
                   "h_grid_m", "trials", "seed", "threads", "output"),
}


def _check_schema(cp: configparser.ConfigParser) -> None:
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]; "
                              f"expected one of {', '.join(_SCHEMA)}")
        for key in cp.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")


def _get(cp: configparser.ConfigParser, section: str, key: str,
         default, cast):
    raw = cp.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        return cast(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _float_list(raw: str) -> tuple[float, ...]:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def _int_list(raw: str) -> tuple[int, ...]:
    values = _float_list(raw)
    for v in values:
        if not v.is_integer():
            raise ValueError(f"{v:g} is not an integer")
    return tuple(int(v) for v in values)


def _scheme_list(raw: str) -> tuple[SchemeId, ...]:
    raw = raw.strip()
    if raw == "all":
        return ALL_SCHEMES
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("empty scheme list")
    return tuple(SchemeId.from_string(p) for p in parts)


def _str_list(raw: str) -> tuple[str, ...]:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("empty list")
    return tuple(parts)


def load_config(path: Union[str, Path, None]) -> tuple[ScenarioConfig, ExperimentSpec]:
    """Scenario and experiment spec from an INI-style file.

    Sections ``geometry``, ``environment``, ``fading`` and ``experiment``
    are all optional, as is every key; a missing or empty file resolves to
    the default desk-scale scenario.  Unknown sections or keys are rejected
    rather than ignored, so typos fail loudly.
    """
    cp = configparser.ConfigParser(interpolation=None)
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            cp.read_string(p.read_text(encoding="utf-8"))
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {p}: {exc}") from None
    _check_schema(cp)

    users = _get(cp, "geometry", "users", 4, int)
    d_rn = _get(cp, "geometry", "d_rn_m", (50.0,), _float_list)
    if len(d_rn) == 1:
        d_rn = d_rn * users
    elif len(d_rn) != users:
        raise ConfigError(f"d_rn_m lists {len(d_rn)} distances for {users} users")

    try:
        geometry = ScenarioGeometry(
            r_br_m=_get(cp, "geometry", "r_br_m", 300.0, float),
            h_br_m=_get(cp, "geometry", "h_br_m", 150.0, float),
            d_rn_m=d_rn,
            r_eve_m=_get(cp, "geometry", "r_eve_m", 500.0, float),
        )
        air = AirGroundParams(
            a2=_get(cp, "environment", "a2", 9.61, float),
            b2=_get(cp, "environment", "b2", 0.16, float),
            alpha_zenith=_get(cp, "environment", "alpha_zenith", 2.0, float),
            alpha_ground=_get(cp, "environment", "alpha_ground", 3.5, float),
            ref_gain=_get(cp, "environment", "ref_gain", DEFAULT_REF_GAIN, float),
        )
        fading = FadingParams(
            m1=_get(cp, "fading", "m1", 2, int),
            m2=_get(cp, "fading", "m2", 2, int),
            n_elements=_get(cp, "fading", "elements", 16, int),
        )
        spec = ExperimentSpec(
            kind=_get(cp, "experiment", "kind", "single", str),
            schemes=_get(cp, "experiment", "schemes", ALL_SCHEMES, _scheme_list),
            evaluators=_get(cp, "experiment", "evaluators", _EVALUATORS, _str_list),
            r_grid_m=_get(cp, "experiment", "r_grid_m", DEFAULT_R_GRID_M, _float_list),
            l_grid=_get(cp, "experiment", "l_grid", DEFAULT_L_GRID, _int_list),
            h_grid_m=_get(cp, "experiment", "h_grid_m", DEFAULT_H_GRID_M, _float_list),
            trials=_get(cp, "experiment", "trials", DEFAULT_TRIALS, int),
            seed=_get(cp, "experiment", "seed", DEFAULT_SEED, int),
            threads=_get(cp, "experiment", "threads", 1, int),
            output=_get(cp, "experiment", "output", "", str),
        )
        scenario = ScenarioConfig(
            geometry=geometry,
            air=air,
            fading=fading,
            scheme=spec.schemes[0],
            gamma_b_db=_get(cp, "environment", "gamma_b_db", 20.0, float),
            alpha_eve=_get(cp, "environment", "alpha_eve", 2.0, float),
            eve_center=_get(cp, "environment", "eve_center", "bs", str),
            eve_center_h_m=_get(cp, "environment", "eve_center_h_m", None, float),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return scenario, spec


# --------------------------------------------------------------------------
# sweep execution


def _at_grid_point(scenario: ScenarioConfig, sweep_var: str, value) -> ScenarioConfig:
    if sweep_var == "r_eve_m":
        geometry = dataclasses.replace(scenario.geometry, r_eve_m=float(value))
        return dataclasses.replace(scenario, geometry=geometry)
    if sweep_var == "elements":
        fading = dataclasses.replace(scenario.fading, n_elements=int(value))
        return dataclasses.replace(scenario, fading=fading)
    if sweep_var == "h_br_m":
        geometry = dataclasses.replace(scenario.geometry, h_br_m=float(value))
        return dataclasses.replace(scenario, geometry=geometry)
    return scenario


def run_experiment(scenario: ScenarioConfig, spec: ExperimentSpec,
                   timing: bool = False) -> list[dict]:
    """Row dicts for the cross product (grid point x scheme x evaluator).

    Monte-Carlo rows carry a binomial standard error; analytic rows leave
    it blank.  Schemes without an analytic route (the SC-RIS family) skip
    their analytic rows with a stderr note instead of failing the sweep.
    Wall-clock stamps are collected only when ``timing`` is set, keeping
    the default output byte-reproducible; the Monte-Carlo rows share one
    batch, so each gets an even share of its wall time.
    """
    sweep_var, values = spec.grid()
    base = scenario
    if (spec.kind == "fig4" and base.eve_center == "fixed"
            and base.eve_center_h_m is None):
        # pin the wiretap region before the sweep moves the BS
        base = dataclasses.replace(base, eve_center_h_m=base.geometry.h_br_m)
    points = [(value, _at_grid_point(base, sweep_var, value))
              for value in values]
    mc_configs = [dataclasses.replace(at_point, scheme=scheme)
                  for _, at_point in points for scheme in spec.schemes
                  if "mc" in spec.evaluators]
    t0 = time.perf_counter()
    estimates = iter(run_monte_carlo_many(mc_configs, spec.trials, spec.seed,
                                          threads=spec.threads))
    mc_ms = (time.perf_counter() - t0) * 1e3 / max(len(mc_configs), 1)
    rows: list[dict] = []
    skipped: set[SchemeId] = set()
    for value, at_point in points:
        for scheme in spec.schemes:
            cfg = dataclasses.replace(at_point, scheme=scheme)
            for evaluator in spec.evaluators:
                if evaluator == "mc":
                    est = next(estimates)
                    zsrp, std_err, wall_ms = est.p_hat, est.std_err, mc_ms
                else:
                    t0 = time.perf_counter()
                    try:
                        zsrp = zsrp_for_scheme(scheme, cfg).value
                    except AnalyticUnavailableError as exc:
                        if scheme not in skipped:
                            skipped.add(scheme)
                            logger.warning("omitting analytic rows for %s: %s",
                                           scheme.value, exc)
                        continue
                    std_err = None
                    wall_ms = (time.perf_counter() - t0) * 1e3
                rows.append({
                    "sweep_var": sweep_var,
                    "sweep_value": value,
                    "scheme": scheme.value,
                    "evaluator": evaluator,
                    "zsrp": zsrp,
                    "std_err": std_err,
                    "trials": spec.trials,
                    "seed": spec.seed,
                    "wall_ms": wall_ms if timing else None,
                })
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int,)):
        return str(value)
    return format(float(value), ".10g")


def format_csv(rows: Iterable[dict]) -> str:
    """CSV text (UTF-8-safe, LF line endings, fixed column order)."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows: Iterable[dict], path: Union[str, Path]) -> None:
    text = format_csv(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
