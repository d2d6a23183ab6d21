"""One workload invocation: a fresh process that runs its CLI commands.

Usage (started by ``run.py``, not by hand)::

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR SPAWN_NS TRACE SETUP_ONLY

``SPAWN_NS`` is the parent's ``time.monotonic_ns()`` just before the spawn;
the set-up time runs from there until the first command's config is
resolved.  Each command writes its CSV to ``OUT_DIR/cmd<k>.csv``; the
timings go to ``OUT_DIR/result.json``.  With ``TRACE`` = 1 the layer
spans are recorded (see ``tracer.py``) and written to
``OUT_DIR/spans.tsv`` when the process ends.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


class _SetupDone(Exception):
    """Stops a set-up-only process once the config is resolved."""


def main(argv: list[str]) -> int:
    workload, seed, out_dir, spawn_ns, trace, setup_only = argv
    out_dir = Path(out_dir)
    import numpy
    from zsrpsim import cli, optimize

    resolved_ns: list[int] = []
    resolve = cli._resolved

    def resolved(args):
        out = resolve(args)
        resolved_ns.append(time.monotonic_ns())
        if setup_only == "1":
            raise _SetupDone
        return out

    cli._resolved = resolved
    # optimize-altitude prints no standard error; keep the estimate of each
    # objective call so the MC search's precision can be read at h*
    estimates: dict[float, tuple[float, float, int]] = {}
    run_mc = optimize.run_monte_carlo

    def run_monte_carlo(cfg, trials, seed, threads=1):
        est = run_mc(cfg, trials, seed, threads=threads)
        estimates[cfg.geometry.h_br_m] = (est.p_hat, est.std_err, est.trials)
        return est

    optimize.run_monte_carlo = run_monte_carlo
    tracer = None
    if trace == "1":
        import tracer as tracing
        tracer = tracing.Tracer(invocation=int(spawn_ns))
        tracing.install(tracer)

    commands = []
    for k, cmd in enumerate(WORKLOADS[workload]):
        estimates.clear()
        before, start_ns = len(resolved_ns), time.monotonic_ns()
        try:
            code = cli.main(cmd.cli_args(int(seed), out_dir / f"cmd{k}.csv"))
        except _SetupDone:
            break
        if len(resolved_ns) > before:
            start_ns = resolved_ns[before]
        commands.append({"exit": code, "start_ns": start_ns,
                         "end_ns": time.monotonic_ns(),
                         "estimates": sorted(estimates.items())})
    result = {
        "setup_s": (resolved_ns[0] - int(spawn_ns)) * 1e-9 if resolved_ns else None,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    if tracer is not None and commands:
        result["layers"] = tracing.layer_metrics(
            tracer.spans, commands[0]["start_ns"], commands[-1]["end_ns"])
        tracer.write(out_dir / "spans.tsv")
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
