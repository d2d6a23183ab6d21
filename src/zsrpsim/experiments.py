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
All analytic rows go to one :func:`~zsrpsim.analytic.zsrp_many` call,
which shares each integral among the rows that share a route and returns
each row bit for bit as alone.
"""

from __future__ import annotations

import configparser
import dataclasses
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Union

from .analytic import zsrp_many
from .errors import AnalyticUnavailableError, ConfigError
from .fading import FadingParams
from .propagation import AirGroundParams, ScenarioGeometry
from .scheduling import SchemeId
from .secrecy import ScenarioConfig, run_monte_carlo_many
# kept importable here: perfbench/tracer.py wraps them by module name
from .analytic import zsrp_for_scheme  # noqa: F401
from .secrecy import run_monte_carlo  # noqa: F401

logger = logging.getLogger(__name__)

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 12345

CSV_COLUMNS = ("sweep_var", "sweep_value", "scheme", "evaluator", "zsrp",
               "std_err", "trials", "seed", "wall_ms")

EXPERIMENT_KINDS = ("single", "fig2", "fig3", "fig4")
EVALUATORS = ("mc", "analytic")

ALL_SCHEMES = tuple(SchemeId)


@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep grid, scheme roster, evaluator set, and budget of one run."""

    kind: str = "single"
    schemes: tuple[SchemeId, ...] = ALL_SCHEMES
    evaluators: tuple[str, ...] = EVALUATORS
    #: sweep grids of the canned experiments
    r_grid_m: tuple[float, ...] = (100.0, 200.0, 300.0, 400.0, 500.0)
    l_grid: tuple[int, ...] = (4, 8, 16, 32)
    h_grid_m: tuple[float, ...] = (60.0, 100.0, 150.0, 220.0, 310.0, 450.0,
                                   700.0, 1000.0)
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    threads: int = 1
    output: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; "
                              f"expected one of {', '.join(EXPERIMENT_KINDS)}")
        if not self.schemes:
            raise ConfigError("scheme list must be non-empty")
        if not self.evaluators:
            raise ConfigError("evaluator list must be non-empty")
        for ev in self.evaluators:
            if ev not in EVALUATORS:
                raise ConfigError(f"unknown evaluator {ev!r}; expected mc or analytic")
        for grid, name in ((self.r_grid_m, "r_grid_m"), (self.l_grid, "l_grid"),
                           (self.h_grid_m, "h_grid_m")):
            if len(grid) == 0:
                raise ConfigError(f"{name} must be non-empty")
            if not all(0 < v < math.inf for v in grid):
                raise ConfigError(f"{name} values must be positive and finite")
        # a repeated entry would silently evaluate (and print) a row twice
        for what, items in (("scheme", tuple(s.value for s in self.schemes)),
                            ("evaluator", self.evaluators),
                            ("r_grid_m value", self.r_grid_m),
                            ("l_grid value", self.l_grid),
                            ("h_grid_m value", self.h_grid_m)):
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ConfigError(f"{what} {item!r} is listed more than once")
        if self.trials < 1000:
            raise ConfigError("trials must be >= 1000")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
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


def _str_list(raw: str) -> tuple[str, ...]:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("empty list")
    return tuple(parts)


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in _str_list(raw))


def integer(raw: str) -> int:
    """Integer text as is (a 20-digit seed stays exact), else an integral
    float of magnitude <= 2^53 such as ``16.0`` or ``1e5``."""
    try:
        return int(raw)
    except ValueError:
        v = float(raw)
    if not (v.is_integer() and abs(v) <= 2.0 ** 53):
        raise ValueError(f"{raw} is not an integer of magnitude <= 2^53")
    return int(v)


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(integer(p) for p in _str_list(raw))


def _scheme_list(raw: str) -> tuple[SchemeId, ...]:
    if raw == "all":
        return ALL_SCHEMES
    return tuple(SchemeId.from_string(p) for p in _str_list(raw))


#: Config keys by section, each with the parser of its raw text.  A key
#: names its dataclass field, except ``users`` and ``elements``.
CONFIG_KEYS: dict[str, dict[str, Callable[[str], object]]] = {
    "geometry": {"r_br_m": float, "h_br_m": float, "users": integer,
                 "d_rn_m": _float_list, "r_eve_m": float},
    "environment": {"a2": float, "b2": float, "alpha_zenith": float,
                    "alpha_ground": float, "ref_gain": float,
                    "gamma_b_db": float, "alpha_eve": float,
                    "eve_center": str, "eve_center_h_m": float},
    "fading": {"m1": integer, "m2": integer, "elements": integer},
    "experiment": {"kind": str, "schemes": _scheme_list,
                   "evaluators": _str_list, "r_grid_m": _float_list,
                   "l_grid": _int_list, "h_grid_m": _float_list,
                   "trials": integer, "seed": integer, "threads": integer,
                   "output": str},
}


def _parsed(cp: configparser.ConfigParser) -> dict[str, dict[str, object]]:
    """Parsed value of every key present, by section."""
    values: dict[str, dict[str, object]] = {name: {} for name in CONFIG_KEYS}
    for section in cp.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]; "
                              f"expected one of {', '.join(CONFIG_KEYS)}")
        for key, raw in cp.items(section):
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                values[section][key] = CONFIG_KEYS[section][key](raw.strip())
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    return values


def load_config(path: Union[str, Path, None],
                defaults: ExperimentSpec = ExperimentSpec()
                ) -> tuple[ScenarioConfig, ExperimentSpec]:
    """Scenario and experiment spec from an INI-style file.

    Sections ``geometry``, ``environment``, ``fading`` and ``experiment``
    are all optional, as is every key; a missing key keeps its
    dataclass default (an ``[experiment]`` key its value in
    ``defaults``), so a missing or empty file resolves to the default
    desk-scale scenario.  Unknown sections or keys are rejected
    rather than ignored, so typos fail loudly.  ``eve_center = fixed``
    without ``eve_center_h_m`` pins the ball at the configured altitude.
    """
    cp = configparser.ConfigParser(interpolation=None)
    if path is not None:
        p = Path(path)
        try:
            cp.read_string(p.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {p}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {p}: {exc}") from None
    values = _parsed(cp)

    geometry_keys = values["geometry"]
    default = ScenarioGeometry()
    users = geometry_keys.pop("users", default.n_users)
    d_rn = geometry_keys.pop("d_rn_m", default.d_rn_m[:1])
    if len(d_rn) == 1:
        d_rn = d_rn * users
    elif len(d_rn) != users:
        raise ConfigError(f"d_rn_m lists {len(d_rn)} distances for {users} users")
    fading_keys = values["fading"]
    if "elements" in fading_keys:
        fading_keys["n_elements"] = fading_keys.pop("elements")
    air_fields = {f.name for f in dataclasses.fields(AirGroundParams)}
    environment = values["environment"]
    centre = environment.pop("eve_center", "bs")
    if centre not in ("bs", "fixed"):
        raise ConfigError("eve_center must be 'bs' or 'fixed'")
    if centre == "bs" and "eve_center_h_m" in environment:
        raise ConfigError("eve_center_h_m applies only to eve_center = fixed")

    try:
        geometry = ScenarioGeometry(d_rn_m=d_rn, **geometry_keys)
        if centre == "fixed":  # pinned once: sweeps move the BS, not the ball
            environment.setdefault("eve_center_h_m", geometry.h_br_m)
        air = AirGroundParams(**{key: value for key, value in environment.items()
                                 if key in air_fields})
        fading = FadingParams(**fading_keys)
        spec = dataclasses.replace(defaults, **values["experiment"])
        scenario = ScenarioConfig(
            geometry=geometry, air=air, fading=fading, scheme=spec.schemes[0],
            **{key: value for key, value in environment.items()
               if key not in air_fields})
        # a hop gain past the double range is inf or raises
        if not math.isfinite(scenario.user_scales.max()):
            raise OverflowError
    except OverflowError:
        raise ConfigError("[geometry] a hop is too short: the cascade gain "
                          "sigma2^2 sigma1^2 of a user overflows a double") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return scenario, spec


# --------------------------------------------------------------------------
# sweep execution


def _at_grid_point(scenario: ScenarioConfig, sweep_var: str, value) -> ScenarioConfig:
    if sweep_var in ("r_eve_m", "h_br_m"):
        geometry = dataclasses.replace(scenario.geometry, **{sweep_var: float(value)})
        return dataclasses.replace(scenario, geometry=geometry)
    if sweep_var == "elements":
        fading = dataclasses.replace(scenario.fading, n_elements=int(value))
        return dataclasses.replace(scenario, fading=fading)
    return scenario


def run_experiment(scenario: ScenarioConfig, spec: ExperimentSpec,
                   timing: bool = False) -> list[dict]:
    """Row dicts for the cross product (grid point x scheme x evaluator).

    Monte-Carlo rows carry their estimate's standard error (that of the
    per-trial share of counted users in the event); analytic rows leave it
    blank.  Schemes without an analytic route (the SC-RIS family)
    skip their analytic rows with a stderr note instead of failing the
    sweep; every analytic row with a closed form logs its gap to the
    quadrature value at INFO.
    Wall-clock stamps are collected only when ``timing`` is set, keeping
    the default output byte-reproducible; the Monte-Carlo rows share one
    batch and the analytic rows another, so each row gets an even share
    of its batch's wall time.
    """
    sweep_var, values = spec.grid()
    points = [(value, _at_grid_point(scenario, sweep_var, value))
              for value in values]
    configs = [dataclasses.replace(at_point, scheme=scheme)
               for _, at_point in points for scheme in spec.schemes]
    mc_configs = configs if "mc" in spec.evaluators else []
    t0 = time.perf_counter()
    estimates = iter(run_monte_carlo_many(mc_configs, spec.trials, spec.seed,
                                          threads=spec.threads))
    mc_ms = (time.perf_counter() - t0) * 1e3 / max(len(mc_configs), 1)
    analytic_configs = configs if "analytic" in spec.evaluators else []
    t0 = time.perf_counter()
    outcomes = iter(zsrp_many(analytic_configs, closed_form=True))
    analytic_ms = ((time.perf_counter() - t0) * 1e3
                   / max(len(analytic_configs), 1))
    rows: list[dict] = []
    skipped: set[SchemeId] = set()
    for value, at_point in points:
        for scheme in spec.schemes:
            for evaluator in spec.evaluators:
                if evaluator == "mc":
                    est = next(estimates)
                    zsrp, std_err, wall_ms = est.p_hat, est.std_err, mc_ms
                else:
                    res = next(outcomes)
                    if isinstance(res, AnalyticUnavailableError):
                        if scheme not in skipped:
                            skipped.add(scheme)
                            logger.warning("omitting analytic rows for %s: %s",
                                           scheme.value, res)
                        continue
                    zsrp, std_err, wall_ms = res.value, None, analytic_ms
                    if res.rel_gap is not None:
                        logger.info("%s%s: closed form %.10g agrees with "
                                    "quadrature to %.2e relative", scheme.value,
                                    "" if value is None
                                    else f" at {sweep_var} = {value:g}",
                                    res.closed_form, res.rel_gap)
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


def format_csv(rows: Iterable[dict],
               columns: tuple[str, ...] = CSV_COLUMNS) -> str:
    """CSV text (UTF-8-safe, LF line endings, fixed column order)."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"

