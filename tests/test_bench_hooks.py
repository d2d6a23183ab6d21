"""The benchmark's hooks still resolve against the package.

``perfbench/tracer.py`` wraps module attributes by name (for example
``secrecy.sample_eve_distance`` or ``specfun.regularized_upper_gamma``) and
``perfbench/child.py`` patches ``cli._resolved`` and
``optimize.run_monte_carlo``.  A package change that drops or renames one of
those names would otherwise surface only in a traced benchmark run.

Proves: in a fresh interpreter with ``perfbench/`` and ``src/`` on the path,
``tracer.install`` succeeds, the two patched names exist, and a short traced
MC ``zsrp`` command records spans through the wrapped names, its one-point
``run_experiment`` among them.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from zsrpsim import cli, optimize
assert callable(cli._resolved)
assert callable(optimize.run_monte_carlo)
t = tracer.Tracer(0)
tracer.install(t)
code = cli.main(["zsrp", "--evaluator", "mc", "--trials", "1000",
                 "--out", sys.argv[3]])
assert code == 0, code
print(" ".join(sorted({s.name for s in t.spans})))
"""


def test_tracer_installs_and_records(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "perfbench"),
         str(ROOT / "src"), str(tmp_path / "zsrp.csv")],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    names = set(out.stdout.split())
    assert {"cli.main", "experiments.run_experiment", "propagation.eve_draw",
            "propagation.gain"} <= names
