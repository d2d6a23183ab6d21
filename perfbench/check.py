"""Correctness checks of one invocation's outputs against ``reference.json``.

* Analytic rows equal their reference to the CSV's 10 significant digits.
* MC rows lie within ``Z_MAX`` combined standard errors of their reference:
  the analytic value for fully connected schemes, a high-trial MC run on a
  seed the benchmark never passes for single connected ones.  A row that
  reports ``std_err = 0`` (p_hat of 0 or 1) must equal its reference.
* The analytic h* lies within the search tolerance of the stored optimum;
  the MC h* lies within ``max_distance_m`` of a high-trial reference search.
* Every command exits with 0 and prints the expected header and row count.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import RUN_HEADER, SEARCH_HEADER, Command

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Combined standard errors an MC row may sit from its reference.  The
#: standard error is the binomial one at the reference value, not the
#: row's own: with ~10 expected hits a low draw shrinks the row's own
#: error enough to flag a correct estimate.  Six rather than four: over 22
#: runs each of the two MC sweeps, the Poisson tails of their rows give a
#: ~10 % chance of some false failure at 4, and ~5e-5 at 6.
Z_MAX = 6.0

#: Relative tolerance of analytic rows: the CSV prints 10 significant digits.
ANALYTIC_RTOL = 1e-9


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def point_key(h_m: float, scheme: str) -> str:
    return f"{h_m:g}|{scheme}"


def reference_zsrp(ref: dict, h_m: float, scheme: str) -> tuple[float, float]:
    """(value, standard error) of the reference at one operating point."""
    key = point_key(h_m, scheme)
    if key in ref["analytic"]:
        return float(ref["analytic"][key]), 0.0
    mc = ref["mc"][key]
    return mc["zsrp"], mc["std_err"]


@dataclass
class McRow:
    """What the time-to-precision metric needs from one MC row."""

    p_hat: float
    std_err: float
    trials: int
    p_ref: float


@dataclass
class Outcome:
    """Checks attempted and the description of each one that failed."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(what)


def _mc_row_ok(p_hat: float, std_err: float, trials: int, p_ref: float,
               ref_err: float) -> bool:
    if std_err == 0.0:
        return p_hat == p_ref
    combined = math.sqrt(p_ref * (1.0 - p_ref) / trials + ref_err ** 2)
    if combined == 0.0:
        return p_hat == p_ref
    return abs(p_hat - p_ref) <= Z_MAX * combined


def check_run(cmd: Command, csv_path: Path, seed: int, ref: dict,
              out: Outcome) -> list[McRow]:
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    out.record(bool(lines) and lines[0] == RUN_HEADER, f"{csv_path}: header")
    rows = list(csv.DictReader(lines))
    out.record(len(rows) == cmd.expected_rows(),
               f"{csv_path}: {len(rows)} rows, want {cmd.expected_rows()}")
    expected = [(h, s) for h in cmd.grid for s in cmd.schemes]
    mc_rows = []
    for row, (h_m, scheme) in zip(rows, expected):
        what = f"{csv_path}: h={h_m:g} {scheme} {cmd.evaluator} zsrp={row['zsrp']}"
        same_point = (row["scheme"] == scheme and row["evaluator"] == cmd.evaluator
                      and row["seed"] == str(seed)
                      and (row["sweep_value"] == "" or float(row["sweep_value"]) == h_m))
        p_ref, ref_err = reference_zsrp(ref, h_m, scheme)
        p_hat = float(row["zsrp"])
        if cmd.evaluator == "analytic":
            ok = abs(p_hat - p_ref) <= ANALYTIC_RTOL * abs(p_ref)
        else:
            std_err, trials = float(row["std_err"]), int(row["trials"])
            ok = trials == cmd.trials and _mc_row_ok(p_hat, std_err, trials,
                                                     p_ref, ref_err)
            if std_err > 0.0:
                mc_rows.append(McRow(p_hat, std_err, trials, p_ref))
        out.record(same_point and ok, what)
    return mc_rows


def check_search(cmd: Command, csv_path: Path, estimates: list, ref: dict,
                 out: Outcome) -> list[McRow]:
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    out.record(bool(lines) and lines[0] == SEARCH_HEADER, f"{csv_path}: header")
    rows = list(csv.DictReader(lines))
    scheme = cmd.schemes[0]
    want = ref["search"][f"{cmd.evaluator}|{scheme}"]
    if len(rows) != 1:
        out.record(False, f"{csv_path}: {len(rows)} rows, want 1")
        return []
    row = rows[0]
    h_star = float(row["h_star_m"])
    ok = (row["scheme"] == scheme and row["evaluator"] == cmd.evaluator
          and int(row["n_evaluations"]) == want["n_evaluations"]
          and abs(h_star - want["h_star_m"]) <= want["max_distance_m"])
    if cmd.evaluator == "analytic":
        ok = ok and abs(float(row["zsrp"]) - want["zsrp"]) <= ANALYTIC_RTOL * want["zsrp"]
    out.record(ok, f"{csv_path}: h*={h_star:g} zsrp={row['zsrp']}")
    if cmd.evaluator != "mc" or not estimates:
        return []
    # the estimate the search reported: the objective call nearest h*
    _, (p_hat, std_err, trials) = min(estimates, key=lambda e: abs(e[0] - h_star))
    if std_err == 0.0:
        return []
    return [McRow(p_hat, std_err, trials, want["zsrp"])]


def check_invocation(commands: tuple[Command, ...], result: dict, out_dir: Path,
                     seed: int, ref: dict, out: Outcome) -> list:
    """Check one invocation; returns (MC seconds, MC rows) per MC command."""
    ran = result["commands"]
    out.record(len(ran) == len(commands) and all(c["exit"] == 0 for c in ran),
               f"{out_dir}: exit codes {[c['exit'] for c in ran]}")
    mc = []
    for k, cmd in enumerate(commands):
        csv_path = out_dir / f"cmd{k}.csv"
        if k >= len(ran) or not csv_path.is_file():
            out.record(False, f"{csv_path}: missing")
            continue
        if cmd.kind == "run":
            rows = check_run(cmd, csv_path, seed, ref, out)
        else:
            rows = check_search(cmd, csv_path, ran[k]["estimates"], ref, out)
        if cmd.evaluator == "mc":
            mc.append(((ran[k]["end_ns"] - ran[k]["start_ns"]) * 1e-9, rows))
    return mc
