"""Regenerate ``reference.json``, the values the benchmark checks against.

Run from the repository root (takes a few minutes on 2 cores)::

    python3 perfbench/make_reference.py

It runs the ``zsrpsim`` CLI from ``src/`` and records:

* ``analytic``: the closed-form ZSRP of both fully connected schemes on the
  ``fig4`` altitude grid (the single-point workload's altitude, 150 m, is
  one of its points), as the CSV prints it;
* ``mc``: high-trial MC values of the three single connected schemes on the
  same grid, on a seed the benchmark never passes (it passes the CLI its
  own seed modulo 1e9);
* ``search``: the analytic optimum of ``fcr-rs`` and a high-trial MC search
  of ``scr-gcsi-pfs`` on another such seed.

Each section carries its provenance: commit, seed and trials.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import REFERENCE_PATH, point_key  # noqa: E402
from workloads import CONFIG_DIR  # noqa: E402

SC_SCHEMES = "scr-rs, scr-gcsi-pfs, scr-fcsi-pfs"
MC_SEED = 4_000_000_001
MC_TRIALS = 2_000_000
SEARCH_SEED = 4_000_000_002
SEARCH_TRIALS = 400_000
#: Allowed distance of a benchmark MC search's h* from the reference h*.
#: The MC objective is flat near its minimum; at 25,000 trials h* moves by
#: ~30 m between seeds.  90 m is still below one pre-scan step (97.3 m), so
#: a search that refines the wrong bracket fails.
MC_SEARCH_DISTANCE_M = 90.0
THREADS = 2


def zsrpsim(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ZSRPSIM_SEED", None)
    return subprocess.run([sys.executable, "-m", "zsrpsim.cli", *args],
                          check=True, capture_output=True, text=True,
                          env=env, cwd=ROOT).stdout


def rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, cwd=ROOT).stdout.strip() or "unknown"
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    sc_config = scratch / "reference-sc.ini"
    sc_config.write_text("[environment]\neve_center = bs\n\n[experiment]\n"
                         f"schemes = {SC_SCHEMES}\nevaluators = mc\n",
                         encoding="utf-8")

    analytic = rows(zsrpsim("run", "--experiment", "fig4", "--config",
                            str(CONFIG_DIR / "analytic-fc.ini")))
    mc = rows(zsrpsim("run", "--experiment", "fig4", "--config", str(sc_config),
                      "--trials", str(MC_TRIALS), "--seed", str(MC_SEED),
                      "--threads", str(THREADS)))
    search = str(CONFIG_DIR / "search.ini")
    h_an = rows(zsrpsim("optimize-altitude", "--config", search,
                        "--evaluator", "analytic", "--scheme", "fcr-rs"))[0]
    h_mc = rows(zsrpsim("optimize-altitude", "--config", search,
                        "--evaluator", "mc", "--scheme", "scr-gcsi-pfs",
                        "--trials", str(SEARCH_TRIALS), "--seed", str(SEARCH_SEED),
                        "--threads", str(THREADS)))[0]

    reference = {
        "provenance": {
            "analytic": {"commit": commit, "command": "run --experiment fig4",
                         "seed": None, "trials": None},
            "mc": {"commit": commit, "command": "run --experiment fig4",
                   "seed": MC_SEED, "trials": MC_TRIALS},
            "search": {"commit": commit, "command": "optimize-altitude",
                       "analytic": {"seed": None, "trials": None},
                       "mc": {"seed": SEARCH_SEED, "trials": SEARCH_TRIALS}},
        },
        "analytic": {point_key(float(r["sweep_value"]), r["scheme"]): r["zsrp"]
                     for r in analytic},
        "mc": {point_key(float(r["sweep_value"]), r["scheme"]):
               {"zsrp": float(r["zsrp"]), "std_err": float(r["std_err"])}
               for r in mc},
        "search": {
            "analytic|fcr-rs": {"h_star_m": float(h_an["h_star_m"]),
                                "zsrp": float(h_an["zsrp"]),
                                "n_evaluations": int(h_an["n_evaluations"]),
                                "max_distance_m": 1.0},
            "mc|scr-gcsi-pfs": {"h_star_m": float(h_mc["h_star_m"]),
                                "zsrp": float(h_mc["zsrp"]),
                                "n_evaluations": int(h_mc["n_evaluations"]),
                                "max_distance_m": MC_SEARCH_DISTANCE_M},
        },
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n",
                              encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
