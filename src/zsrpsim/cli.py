"""Command-line front end: sweeps, single points, altitude search.

Subcommands
    run                full sweep experiment, CSV out
    zsrp               one operating point, MC and/or closed form
    optimize-altitude  golden-section altitude search

Exit codes: 0 success, 2 configuration problem, 3 numerical-accuracy
failure.  Diagnostics go to stderr; results go to stdout or ``--out``.
Numerical validation lives in the test suite; at run time every analytic
row checks its closed form against its quadrature value (see
:func:`~zsrpsim.experiments.run_experiment`).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from typing import Optional, Sequence

from .errors import AccuracyError, AnalyticUnavailableError, ConfigError
from .experiments import (EVALUATORS, EXPERIMENT_KINDS, ExperimentSpec, _int,
                          format_csv, load_config, run_experiment)
from .optimize import AltitudeSearchSpec, optimal_altitude
from .scheduling import SchemeId
from .secrecy import ScenarioConfig

logger = logging.getLogger(__name__)

ENV_SEED = "ZSRPSIM_SEED"

SEARCH_COLUMNS = ("h_star_m", "zsrp", "scheme", "evaluator", "n_evaluations")


# --------------------------------------------------------------------------
# argument plumbing


def _shared_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", metavar="FILE",
                   help="INI-style config file (sections: geometry, "
                        "environment, fading, experiment)")
    p.add_argument("--seed", type=_int,
                   help="RNG seed; overrides config file and " + ENV_SEED)
    p.add_argument("--trials", type=_int, help="Monte-Carlo trials per point")
    p.add_argument("--threads", type=_int, help="worker threads for MC blocks")
    p.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    return p


def build_parser() -> argparse.ArgumentParser:
    shared = _shared_flags()
    scheme = argparse.ArgumentParser(add_help=False)
    scheme.add_argument("--scheme",
                        help="scheme id (default: the config file's schemes, "
                             "else fcr-rs); see README for the roster")
    ap = argparse.ArgumentParser(
        prog="zsrpsim",
        description="Zero secrecy rate probability of RIS- and UAV-aided "
                    "downlinks with a randomly placed aerial eavesdropper.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[shared],
                           help="run a sweep experiment and emit CSV")
    p_run.add_argument("--experiment", choices=EXPERIMENT_KINDS,
                       help="override the configured sweep kind")
    p_run.add_argument("--timing", action="store_true",
                       help="fill the wall_ms column (makes output "
                            "non-reproducible byte-for-byte)")

    p_z = sub.add_parser("zsrp", parents=[shared, scheme],
                         help="evaluate the ZSRP at one operating point")
    p_z.add_argument("--evaluator", choices=EVALUATORS + ("both",),
                     help="default: the config file's evaluators, else both")
    # a query is ``run --experiment single``
    p_z.set_defaults(experiment="single", timing=False)

    p_o = sub.add_parser("optimize-altitude", parents=[shared, scheme],
                         help="search the ZSRP-minimizing hovering altitude")
    p_o.add_argument("--h-lo", type=float, default=AltitudeSearchSpec.h_lo_m,
                     help="lower bound, m")
    p_o.add_argument("--h-hi", type=float, default=AltitudeSearchSpec.h_hi_m,
                     help="upper bound, m")
    p_o.add_argument("--tol", type=float, default=AltitudeSearchSpec.tol_m,
                     help="bracket tolerance, m")
    p_o.add_argument("--evaluator", choices=EVALUATORS,
                     help="default: the config file's evaluator, else "
                          f"{AltitudeSearchSpec.evaluator}")
    return ap


#: Scheme and evaluator lists of each subcommand where neither a flag nor
#: the config file's ``[experiment]`` section sets them.
_DEFAULT_SPECS = {
    "run": ExperimentSpec(),
    "zsrp": ExperimentSpec(schemes=(SchemeId.FCR_RS,)),
    "optimize-altitude": ExperimentSpec(
        schemes=(SchemeId.FCR_RS,), evaluators=(AltitudeSearchSpec.evaluator,)),
}


def _resolved(args: argparse.Namespace) -> tuple[ScenarioConfig, ExperimentSpec]:
    """Config file plus CLI/environment overrides, validated.

    A ``--scheme`` or ``--evaluator`` flag replaces the config file's
    scheme or evaluator list; a list that neither sets is the
    subcommand's default.  An unwritable output path is refused before
    anything is evaluated.
    """
    scenario, spec = load_config(args.config, _DEFAULT_SPECS[args.command])
    seed = spec.seed
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            seed = _int(env_seed)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, "
                              f"got {env_seed!r}") from None
    if args.seed is not None:
        seed = args.seed
    updates: dict = {"seed": seed}
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.threads is not None:
        updates["threads"] = args.threads
    if args.out:
        updates["output"] = args.out
    if getattr(args, "scheme", None) is not None:
        try:
            updates["schemes"] = (SchemeId.from_string(args.scheme),)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if getattr(args, "evaluator", None) is not None:
        updates["evaluators"] = (EVALUATORS if args.evaluator == "both"
                                 else (args.evaluator,))
    spec = dataclasses.replace(spec, **updates)
    out, parent = spec.output, os.path.dirname(os.path.abspath(spec.output))
    if out and (os.path.isdir(out) or not os.path.isdir(parent)
                or not os.access(parent, os.W_OK)):
        raise ConfigError(f"cannot write {out}: not a file in an existing, "
                          "writable directory")
    return scenario, spec


def _emit(text: str, path: str) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
        logger.info("wrote %s", path)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# subcommands


def cmd_run(args: argparse.Namespace) -> int:
    scenario, spec = _resolved(args)
    if args.experiment is not None:
        spec = dataclasses.replace(spec, kind=args.experiment)
    rows = run_experiment(scenario, spec, timing=args.timing)
    if not rows:
        # run_experiment has logged why the closed form is unavailable
        raise ConfigError("no analytic value for scheme "
                          + ", ".join(repr(s.value) for s in spec.schemes))
    logger.info("experiment %s: %d rows", spec.kind, len(rows))
    _emit(format_csv(rows), spec.output)
    return 0


def cmd_optimize_altitude(args: argparse.Namespace) -> int:
    scenario, spec = _resolved(args)
    if len(spec.schemes) > 1 or len(spec.evaluators) > 1:
        raise ConfigError("optimize-altitude searches one scheme with one "
                          "evaluator; the config file lists more: choose "
                          "with --scheme and --evaluator")
    (scheme,), (evaluator,) = spec.schemes, spec.evaluators
    try:
        search = AltitudeSearchSpec(
            config=dataclasses.replace(scenario, scheme=scheme),
            h_lo_m=args.h_lo, h_hi_m=args.h_hi, tol_m=args.tol,
            evaluator=evaluator, trials=spec.trials, seed=spec.seed,
            threads=spec.threads)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    res = optimal_altitude(search)
    row = {"h_star_m": res.h_m, "zsrp": res.zsrp, "scheme": scheme.value,
           "evaluator": evaluator, "n_evaluations": res.n_evaluations}
    _emit(format_csv([row], SEARCH_COLUMNS), spec.output)
    return 0


# --------------------------------------------------------------------------


_DISPATCH = {
    "run": cmd_run,
    "zsrp": cmd_run,
    "optimize-altitude": cmd_optimize_altitude,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, AnalyticUnavailableError) as exc:
        # a closed form the scenario has none of is a configuration problem
        logger.error("config error: %s", exc)
        return 2
    except AccuracyError as exc:
        logger.error("accuracy failure: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
