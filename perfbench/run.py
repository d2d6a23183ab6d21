"""zsrpsim benchmark: time the CLI paths users run, check every output.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-mc --seed 12345 --seconds 26 --trace 0

Workloads are listed in ``workloads.py``.  One run spawns
``SETUP_SPAWNS`` processes that stop once the config is resolved (set-up
time only), half before and half after the measured loop.  The loop runs
the workload as a closed loop with one caller: a fresh process per
invocation, the next started only after the previous has ended, and only
if it should still finish within ``--seconds``.  At least one invocation
always runs.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The line before it
records the context (source size, versions, cores, seed, trials, threads).
Working files go to ``.perfbench/<workload>/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import Outcome, check_invocation, load_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Metric names and units come from the benchmark's definition.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Set-up-only processes per run, half before the loop and half after it,
#: so that the set-up median does not rest on one moment of a shared machine.
SETUP_SPAWNS = 8
#: The CLI gets the benchmark's seed modulo this, so any integer is
#: accepted and the reference runs' seeds (at or above it) are never used.
MAX_SEED = 10 ** 9
#: A hung invocation is stopped after this long and counted as failed.
INVOCATION_TIMEOUT_S = 150.0
#: Relative standard error the time-to-precision metric asks for.
TARGET_REL_SE = 0.05


def spawn(workload: str, seed: int, out_dir: Path, trace: bool,
          setup_only: bool) -> dict:
    """One fresh process; returns its result record (``None`` fields on a crash)."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("ZSRPSIM_SEED", None)
    spawn_ns = time.monotonic_ns()
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed),
            str(out_dir), str(spawn_ns), str(int(trace)), str(int(setup_only))]
    with open(out_dir / "stderr.txt", "wb") as err:
        try:
            proc = subprocess.run(argv, stdout=err, stderr=err, env=env,
                                  cwd=ROOT, timeout=INVOCATION_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = None
    elapsed = (time.monotonic_ns() - spawn_ns) * 1e-9
    result_path = out_dir / "result.json"
    if code != 0 or not result_path.is_file():
        return {"elapsed_s": elapsed, "setup_s": None, "commands": []}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["elapsed_s"] = elapsed
    return result


def precision_factor(mc_rows: list) -> float:
    """Mean over rows of (standard error / (5 % of the reference))^2.

    The row's variance is taken at the reference value: its reported
    variance times p_ref(1 - p_ref) / (p_hat(1 - p_hat)).  For the plain
    estimator that ratio is exactly the binomial variance at p_ref, so the
    factor does not move with the seed; an estimator that reports a lower
    variance than binomial at the same p_hat lowers it in proportion.
    """
    terms = []
    for r in mc_rows:
        reduction = r.std_err ** 2 * r.trials / (r.p_hat * (1.0 - r.p_hat))
        var_ref = reduction * r.p_ref * (1.0 - r.p_ref) / r.trials
        terms.append(var_ref / (TARGET_REL_SE * r.p_ref) ** 2)
    return statistics.fmean(terms)


def source_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "zsrpsim").glob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = args.seed % MAX_SEED
    if not (ROOT / "src" / "zsrpsim" / "cli.py").is_file():
        print(f"no zsrpsim sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    commands = WORKLOADS[args.workload]
    reference = load_reference()
    work = ROOT / ".perfbench" / args.workload
    trace = bool(args.trace)

    def setup_only() -> list:
        return [spawn(args.workload, seed, work / "setup", False, True)["setup_s"]
                for _ in range(SETUP_SPAWNS // 2)]

    setups = setup_only()
    invocations = []
    outcome = Outcome()
    start = time.monotonic()
    while True:
        inv_dir = work / "invocation"
        res = spawn(args.workload, seed, inv_dir, trace, False)
        res["mc"] = check_invocation(commands, res, inv_dir, seed,
                                     reference, outcome)
        invocations.append(res)
        setups.append(res["setup_s"])
        if time.monotonic() - start + res["elapsed_s"] > args.seconds:
            break
    setups += setup_only()
    good = [r for r in invocations if r["commands"]]
    for p in outcome.problems:
        print(f"check failed: {p}", file=sys.stderr)

    context = {
        "workload": args.workload, "seed": args.seed, "cli_seed": seed,
        "trace": args.trace,
        "commands": [" ".join(c.argv) for c in commands],
        "trials": [c.trials for c in commands],
        "threads": [c.threads for c in commands],
        "invocations": len(invocations),
        "src_loc": source_loc(),
        "python": platform.python_version(),
        "numpy": good[0]["numpy"] if good else None,
        "nproc": os.cpu_count(),
    }
    metrics = {}
    if good:
        values = (per_layer(good) if trace else
                  end_to_end(good, [s for s in setups if s is not None]))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    (work / "last.json").write_text(json.dumps(
        {"context": context, "metrics": metrics, "problems": outcome.problems},
        indent=1),
        encoding="utf-8")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not outcome.problems and bool(metrics),
        "attempted": outcome.attempted,
        "failed": len(outcome.problems),
        "metrics": metrics,
    }))
    return 0


def end_to_end(invocations: list, setups: list) -> dict:
    walls, precision, rss = [], [], []
    for inv in invocations:
        ran = inv["commands"]
        walls.append((ran[-1]["end_ns"] - ran[0]["start_ns"]) * 1e-9)
        rss.append(inv["peak_rss_mb"])
        mc = [(wall, rows) for wall, rows in inv["mc"] if rows]
        if mc:
            precision.append(sum(wall * precision_factor(rows) for wall, rows in mc))
        else:
            # analytic rows are far more accurate than 5 %: their time to
            # that precision is their wall time
            precision.append(walls[-1])
    return {"setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "mc_s_to_5pct_se": statistics.median(precision),
            "peak_rss_mb": statistics.median(rss)}


def per_layer(invocations: list) -> dict:
    """Medians over invocations; counts must repeat exactly."""
    counts = {m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"}
    out = {}
    for name in invocations[0]["layers"]:
        values = [inv["layers"][name] for inv in invocations]
        if name in counts:
            if len(set(values)) > 1:
                print(f"warning: {name} differs between invocations: {values}",
                      file=sys.stderr)
            out[name] = int(values[0])
        else:
            out[name] = statistics.median(values)
    return out


if __name__ == "__main__":
    sys.exit(main())
