"""Command-line front end: sweeps, single points, altitude search, selftest.

Subcommands
    run                full sweep experiment, CSV out
    zsrp               one operating point, MC and/or closed form
    optimize-altitude  golden-section altitude search
    selftest           built-in oracle-agreement suite

Exit codes: 0 success, 2 configuration problem, 3 numerical-accuracy
failure (including a failing selftest), 4 capacity guard tripped.
Diagnostics go to stderr; results go to stdout or ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
from typing import Optional, Sequence

from . import analytic, bdris, specfun
from .errors import (AccuracyError, AnalyticUnavailableError, CapacityError,
                     ConfigError)
from .experiments import (ExperimentSpec, format_csv, load_config,
                          run_experiment)
from .fading import FadingParams, cdf_S, sample_power_sum
from .optimize import AltitudeSearchSpec, golden_section_min, optimal_altitude
from .propagation import AirGroundParams, ScenarioGeometry, bs_ris_gain, ris_user_gain
from .scheduling import SchemeId, select_fcsi_pfs, select_gcsi_pfs
from .secrecy import ScenarioConfig, run_monte_carlo

logger = logging.getLogger(__name__)

ENV_SEED = "ZSRPSIM_SEED"


# --------------------------------------------------------------------------
# argument plumbing


def _shared_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", metavar="FILE",
                   help="INI-style config file (sections: geometry, "
                        "environment, fading, experiment)")
    p.add_argument("--seed", type=int,
                   help="RNG seed; overrides config file and " + ENV_SEED)
    p.add_argument("--trials", type=int, help="Monte-Carlo trials per point")
    p.add_argument("--threads", type=int, help="worker threads for MC blocks")
    p.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    return p


def build_parser() -> argparse.ArgumentParser:
    shared = _shared_flags()
    ap = argparse.ArgumentParser(
        prog="zsrpsim",
        description="Zero secrecy rate probability of RIS- and UAV-aided "
                    "downlinks with a randomly placed aerial eavesdropper.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[shared],
                           help="run a sweep experiment and emit CSV")
    p_run.add_argument("--experiment", choices=("single", "fig2", "fig3", "fig4"),
                       help="override the configured sweep kind")
    p_run.add_argument("--timing", action="store_true",
                       help="fill the wall_ms column (makes output "
                            "non-reproducible byte-for-byte)")

    p_z = sub.add_parser("zsrp", parents=[shared],
                         help="evaluate the ZSRP at one operating point")
    p_z.add_argument("--scheme", default="fcr-rs",
                     help="scheme id (default fcr-rs); see README for the roster")
    p_z.add_argument("--evaluator", choices=("mc", "analytic", "both"),
                     default="both")

    p_o = sub.add_parser("optimize-altitude", parents=[shared],
                         help="search the ZSRP-minimizing hovering altitude")
    p_o.add_argument("--scheme", default="fcr-rs")
    p_o.add_argument("--h-lo", type=float, default=40.0, help="lower bound, m")
    p_o.add_argument("--h-hi", type=float, default=1500.0, help="upper bound, m")
    p_o.add_argument("--tol", type=float, default=1.0, help="bracket tolerance, m")
    p_o.add_argument("--evaluator", choices=("analytic", "mc"), default="analytic")

    sub.add_parser("selftest", parents=[shared],
                   help="run the built-in oracle-agreement suite")
    return ap


def _resolved(args: argparse.Namespace) -> tuple[ScenarioConfig, ExperimentSpec]:
    """Config file plus CLI/environment overrides, validated."""
    scenario, spec = load_config(args.config)
    seed = spec.seed
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            seed = int(env_seed)
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
    return scenario, dataclasses.replace(spec, **updates)


def _emit(text: str, path: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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
    logger.info("experiment %s: %d rows", spec.kind, len(rows))
    _emit(format_csv(rows), spec.output)
    return 0


def cmd_zsrp(args: argparse.Namespace) -> int:
    scenario, spec = _resolved(args)
    try:
        scheme = SchemeId.from_string(args.scheme)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg = dataclasses.replace(scenario, scheme=scheme)
    rows = []
    if args.evaluator in ("mc", "both"):
        est = run_monte_carlo(cfg, spec.trials, spec.seed, threads=spec.threads)
        rows.append({"sweep_var": "none", "scheme": scheme.value,
                     "evaluator": "mc", "zsrp": est.p_hat,
                     "std_err": est.std_err, "trials": spec.trials,
                     "seed": spec.seed})
    if args.evaluator in ("analytic", "both"):
        try:
            res = analytic.zsrp_for_scheme(scheme, cfg)
        except AnalyticUnavailableError as exc:
            if args.evaluator == "analytic":
                raise ConfigError(str(exc)) from None
            logger.warning("no analytic value: %s", exc)
        else:
            rows.append({"sweep_var": "none", "scheme": scheme.value,
                         "evaluator": "analytic", "zsrp": res.value,
                         "trials": spec.trials, "seed": spec.seed})
            if res.rel_gap is not None:
                logger.info("closed form %.10g agrees with quadrature to "
                            "%.2e relative", res.closed_form, res.rel_gap)
    _emit(format_csv(rows), spec.output)
    return 0


def cmd_optimize_altitude(args: argparse.Namespace) -> int:
    scenario, spec = _resolved(args)
    try:
        scheme = SchemeId.from_string(args.scheme)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        search = AltitudeSearchSpec(
            config=dataclasses.replace(scenario, scheme=scheme),
            h_lo_m=args.h_lo, h_hi_m=args.h_hi, tol_m=args.tol,
            evaluator=args.evaluator, trials=spec.trials, seed=spec.seed,
            threads=spec.threads)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        res = optimal_altitude(search)
    except AnalyticUnavailableError as exc:
        raise ConfigError(str(exc)) from None
    text = ("h_star_m,zsrp,scheme,evaluator,n_evaluations\n"
            f"{res.h_m:.10g},{res.zsrp:.10g},{scheme.value},"
            f"{args.evaluator},{res.n_evaluations}\n")
    _emit(text, spec.output)
    return 0


# --------------------------------------------------------------------------
# selftest: fast oracle-agreement checks, no third-party test deps


def _selftest_checks() -> list[tuple[str, bool, str]]:
    import numpy as np

    results: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append((name, bool(ok), detail))

    # frozen modified-Bessel reference values (independent integral oracle)
    k0, k1 = specfun.bessel_k(0, 1.0), specfun.bessel_k(1, 1.0)
    check("bessel-k0-frozen", abs(k0 - 0.42102443824070834) < 1e-12 * k0,
          f"K0(1)={k0!r}")
    check("bessel-k1-frozen", abs(k1 - 0.6019072301972346) < 1e-12 * k1,
          f"K1(1)={k1!r}")

    # Meijer-G contour engine vs the same Bessel family
    worst = 0.0
    for nu in (0, 1, 3):
        for z in (0.25, 1.0, 4.0):
            g = specfun.meijer_g_m0([], [nu / 2.0, -nu / 2.0], z)
            ref = 2.0 * specfun.bessel_k(nu, 2.0 * math.sqrt(z))
            worst = max(worst, abs(g - ref) / ref)
    check("meijer-vs-bessel", worst < 1e-6, f"worst rel {worst:.2e}")

    # cascade CDF: frozen unit-parameter point 1 - 2 K_1(2)
    p_unit = analytic.ClosedFormParams(m1=1, m2=1, n_elements=1,
                                       sigma1_sq=1.0, sigma2_sq=1.0,
                                       ref_gain=1.0, r_eve_m=1.0)
    f_unit = analytic.cdf_Z_single(1.0, p_unit)
    check("cascade-cdf-frozen", abs(f_unit - 0.7202682363669551) < 1e-9,
          f"F(1)={f_unit!r}")

    # series CDF vs independent 2-D quadrature
    p_2 = analytic.ClosedFormParams(m1=2, m2=2, n_elements=2, sigma1_sq=1.0,
                                    sigma2_sq=1.0, ref_gain=1.0, r_eve_m=1.0)
    worst = max(abs(analytic.cdf_Z_single(z, p_2)
                    - analytic.cdf_Z_quadrature(z, p_2))
                for z in (0.5, 2.0, 8.0))
    check("series-vs-quadrature", worst < 1e-8, f"worst abs {worst:.2e}")

    # order-statistic subset expansion vs direct power F_S^N
    worst = 0.0
    for n_users in (2, 3):
        for s in (1.0, 2.0, 4.0):
            direct = analytic.cdf_power_sum_order_stat(s, m1=2, n_elements=2,
                                                       n_users=n_users)
            ref = float(cdf_S(s, 2, 2)) ** n_users
            if ref > 1e-12:
                worst = max(worst, abs(direct - ref) / ref)
    check("order-stat-identity", worst < 1e-9, f"worst rel {worst:.2e}")

    # closed form vs quadrature at the default operating point
    geo, air = ScenarioGeometry(), AirGroundParams()
    p_def = analytic.ClosedFormParams(
        m1=2, m2=2, n_elements=16,
        sigma1_sq=ris_user_gain(geo, air, 0), sigma2_sq=bs_ris_gain(geo, air),
        ref_gain=air.ref_gain, r_eve_m=geo.r_eve_m, n_users=4)
    rs = analytic.zsrp_rs(p_def)
    pfs = analytic.zsrp_pfs(p_def)
    check("closed-form-rs", rs.rel_gap is not None and rs.rel_gap < 1e-6,
          f"gap {rs.rel_gap:.2e}")
    check("closed-form-pfs", pfs.rel_gap is not None and pfs.rel_gap < 1e-6,
          f"gap {pfs.rel_gap:.2e}")

    # FC scattering matrix contract on random draws
    rng = np.random.default_rng(20260823)
    worst_u = worst_s = worst_g = 0.0
    sc_le_fc = True
    for n_elem in (2, 8):
        for _ in range(50):
            h_br = rng.standard_normal(n_elem) + 1j * rng.standard_normal(n_elem)
            h_rn = rng.standard_normal(n_elem) + 1j * rng.standard_normal(n_elem)
            v = bdris.construct_aligning_unitary(h_br, h_rn)
            phi = bdris.optimal_phases(v, h_br, h_rn)
            theta = bdris.assemble_theta(bdris.PhaseDecomposition(v=v, phi=phi))
            eye = np.eye(n_elem)
            worst_u = max(worst_u, float(np.linalg.norm(
                theta.conj().T @ theta - eye)))
            worst_s = max(worst_s, float(np.linalg.norm(theta - theta.T)))
            got = abs(np.vdot(h_rn, theta @ h_br)) ** 2
            want = bdris.fc_cascaded_gain(h_br, h_rn)
            worst_g = max(worst_g, abs(got - want) / want)
            sc_le_fc &= bdris.sc_cascaded_gain(h_br, h_rn) <= want * (1 + 1e-12)
    check("theta-unitary", worst_u < 1e-10, f"worst {worst_u:.2e}")
    check("theta-symmetric", worst_s < 1e-10, f"worst {worst_s:.2e}")
    check("fc-gain-equality", worst_g < 1e-9, f"worst rel {worst_g:.2e}")
    check("sc-below-fc", sc_le_fc)

    # scheduling: GCSI and normalized-FCSI agree under a common BS factor
    fp = FadingParams(m1=2, m2=2, n_elements=16)
    s_draws = sample_power_sum(rng, fp.m1, fp.n_elements, size=(2000, 4))
    w_draws = sample_power_sum(rng, fp.m2, fp.n_elements, size=(2000, 1))
    gcsi = select_gcsi_pfs(s_draws, fp.n_elements)
    fcsi = select_fcsi_pfs(s_draws * w_draws, fp.m1, fp.m2, fp.n_elements)
    check("pfs-equivalence", bool(np.all(gcsi == fcsi)))

    # golden-section on a known quadratic
    x_star, _ = golden_section_min(lambda x: (x - 2.0) ** 2, 0.0, 5.0, 1e-6)
    check("golden-section", abs(x_star - 2.0) <= 1e-6, f"argmin {x_star!r}")

    # short MC run vs the analytic value (deterministic seed)
    cfg = ScenarioConfig(geometry=geo, air=air, fading=fp,
                         scheme=SchemeId.FCR_RS)
    est = run_monte_carlo(cfg, trials=20_000, seed=20260823, threads=2)
    dev = abs(est.p_hat - rs.value) / est.std_err
    check("mc-vs-analytic", dev < 4.0, f"{dev:.2f} std errs")
    return results


def cmd_selftest(args: argparse.Namespace) -> int:
    del args
    failures = 0
    for name, ok, detail in _selftest_checks():
        line = f"{'ok  ' if ok else 'FAIL'} - {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        failures += 0 if ok else 1
    if failures:
        raise AccuracyError(f"{failures} selftest check(s) failed")
    print("selftest: all checks passed")
    return 0


# --------------------------------------------------------------------------


_DISPATCH = {
    "run": cmd_run,
    "zsrp": cmd_zsrp,
    "optimize-altitude": cmd_optimize_altitude,
    "selftest": cmd_selftest,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return 2
    except AccuracyError as exc:
        logger.error("accuracy failure: %s", exc)
        return 3
    except CapacityError as exc:
        logger.error("capacity guard: %s", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
