"""Self-test of the tracer: traced and untraced runs print the same bytes.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

For each workload (all by default) one invocation runs untraced and one
traced on the same seed; every CSV the CLI writes must be byte-identical.
Exits with 1 if any differs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, spawn  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=12345)
    args = ap.parse_args()
    failures = 0
    for name in args.workloads:
        base = ROOT / ".perfbench" / "selftest" / name
        outputs = []
        for trace in (False, True):
            out_dir = base / ("traced" if trace else "untraced")
            res = spawn(name, args.seed, out_dir, trace, False)
            outputs.append([(out_dir / f"cmd{k}.csv").read_bytes()
                            if (out_dir / f"cmd{k}.csv").is_file() else None
                            for k in range(len(WORKLOADS[name]))])
            print(f"{name}: {'traced' if trace else 'untraced'} "
                  f"{res['elapsed_s']:.2f} s", flush=True)
        same = None not in outputs[0] and outputs[0] == outputs[1]
        failures += not same
        print(f"{name}: CSV bytes {'identical' if same else 'DIFFER'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
