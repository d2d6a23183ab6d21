"""The benchmark's hooks still resolve against the package.

``perfbench/tracer.py`` wraps module attributes by name (for example
``secrecy.sample_eve_distance`` or ``specfun.regularized_upper_gamma``) and
``perfbench/child.py`` patches ``cli._resolved`` and
``optimize.run_monte_carlo``.  A package change that drops or renames one of
those names would otherwise surface only in a traced benchmark run.

Proves: in a fresh interpreter with ``perfbench/`` and ``src/`` on the path,
``tracer.install`` succeeds, the two patched names exist, and a short traced
MC ``zsrp`` command records spans through the wrapped names, its one-point
``run_experiment`` among them.  A traced analytic ``fcr-gcsi-pfs``
``zsrp`` records its 12 Meijer-G seeds as exactly one ``specfun.meijer``
span (one batched call), and the Bessel K calls of their tail integrals
as ``specfun.bessel`` spans.  A traced analytic ``fcr-rs`` ``zsrp``
records one ``specfun.bessel`` span inside each ``analytic.cdf`` span:
the series CDF takes its Bessel K values from the wrapped entry point.  A wrapper of ``optimize.run_monte_carlo``
with ``child.py``'s signature sees an estimate, with a nonzero standard
error, at the h* that a short MC ``optimize-altitude`` prints: the search's
time-to-precision metric is read from it.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import json
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from zsrpsim import cli, optimize
assert callable(cli._resolved)
assert callable(optimize.run_monte_carlo)
t = tracer.Tracer(0)
tracer.install(t)
code = cli.main(sys.argv[3:])
assert code == 0, code
names = {s.id: s.name for s in t.spans}
print(json.dumps([[s.name, names.get(s.parent, "")] for s in t.spans]))
"""


def traced_spans(*argv: str) -> list[tuple[str, str]]:
    """(name, parent name) of each span of one traced CLI command, run in
    a fresh interpreter; a root span's parent name is empty."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "perfbench"),
         str(ROOT / "src"), *argv],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return [tuple(pair) for pair in json.loads(out.stdout)]


def traced_span_counts(*argv: str) -> dict[str, int]:
    """Spans per name of one traced CLI command in a fresh interpreter."""
    return Counter(name for name, _ in traced_spans(*argv))


def test_tracer_installs_and_records(tmp_path):
    names = set(traced_span_counts("zsrp", "--evaluator", "mc", "--trials",
                                   "1000", "--out", str(tmp_path / "zsrp.csv")))
    assert {"cli.main", "experiments.run_experiment", "propagation.eve_draw",
            "propagation.gain"} <= names


def test_tracer_sees_the_closed_form_seeds(tmp_path):
    counts = traced_span_counts("zsrp", "--evaluator", "analytic", "--scheme",
                                "fcr-gcsi-pfs", "--out", str(tmp_path / "zsrp.csv"))
    # 4 order-statistic rows of 3 seeds, all in one batched tail-integral
    # call whose Bessel K values go through the wrapped
    # ``specfun.log_bessel_k``
    assert counts["specfun.meijer"] == 1
    assert counts.get("specfun.bessel", 0) >= 1


def test_series_cdf_calls_the_wrapped_bessel_k(tmp_path):
    spans = traced_spans("zsrp", "--evaluator", "analytic", "--scheme",
                         "fcr-rs", "--out", str(tmp_path / "zsrp.csv"))
    # the round-robin series CDF reaches Bessel K through the one wrapped
    # entry point, ``specfun.log_bessel_k``, inside each ``analytic.cdf``
    under_cdf = spans.count(("specfun.bessel", "analytic.cdf"))
    assert under_cdf >= 1
    assert under_cdf == sum(name == "analytic.cdf" for name, _ in spans)


def test_search_estimate_seen_at_printed_optimum(tmp_path, monkeypatch):
    from zsrpsim import cli, optimize

    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    estimates = {}
    run_mc = optimize.run_monte_carlo

    def run_monte_carlo(cfg, trials, seed, threads=1):
        est = run_mc(cfg, trials, seed, threads=threads)
        estimates[cfg.geometry.h_br_m] = (est.p_hat, est.std_err, est.trials)
        return est

    monkeypatch.setattr(optimize, "run_monte_carlo", run_monte_carlo)
    out = tmp_path / "search.csv"
    code = cli.main(["optimize-altitude", "--evaluator", "mc", "--scheme",
                     "scr-gcsi-pfs", "--trials", "9000", "--seed", "7",
                     "--out", str(out)])
    assert code == 0
    (row,) = csv.DictReader(out.read_text().splitlines())
    h_star = float(row["h_star_m"])
    nearest = min(estimates, key=lambda h: abs(h - h_star))
    assert abs(nearest - h_star) <= 1e-9 * h_star
    p_hat, std_err, trials = estimates[nearest]
    assert f"{p_hat:.10g}" == row["zsrp"]
    assert std_err > 0.0 and trials == 9000
    assert len(estimates) == int(row["n_evaluations"])
