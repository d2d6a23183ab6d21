"""The benchmark's workloads: which ``zsrpsim`` commands one invocation runs.

Every workload is a closed loop with one caller: the benchmark starts a
fresh process, waits for it, and starts the next.  The process runs the
commands below one after another through ``zsrpsim.cli.main``.  The seed
is the benchmark's ``--seed``, passed to the CLI only as ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

RUN_HEADER = "sweep_var,sweep_value,scheme,evaluator,zsrp,std_err,trials,seed,wall_ms"
SEARCH_HEADER = "h_star_m,zsrp,scheme,evaluator,n_evaluations"

FIG4_GRID_M = (60.0, 100.0, 150.0, 220.0, 310.0, 450.0, 700.0, 1000.0)
ALL_SCHEMES = ("fcr-rs", "fcr-gcsi-pfs", "scr-rs", "scr-gcsi-pfs",
               "scr-fcsi-pfs")
FC_SCHEMES = ("fcr-rs", "fcr-gcsi-pfs")


@dataclass(frozen=True)
class Command:
    """One ``zsrpsim`` command line and what its output must hold."""

    argv: tuple[str, ...]
    evaluator: str                 # "mc" or "analytic"
    trials: int
    threads: int
    kind: str                      # "run" or "search"
    grid: tuple[float, ...] = ()   # sweep values, in CSV order ("run")
    schemes: tuple[str, ...] = ()  # schemes per sweep value, in CSV order

    def expected_rows(self) -> int:
        return len(self.grid) * len(self.schemes) if self.kind == "run" else 1

    def cli_args(self, seed: int, out: Path) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--out", str(out)]


def _run(experiment: str, config: str, evaluator: str, trials: int,
         threads: int, grid: tuple, schemes: tuple) -> Command:
    argv = ("run", "--experiment", experiment,
            "--config", str(CONFIG_DIR / config),
            "--trials", str(trials), "--threads", str(threads))
    return Command(argv, evaluator, trials, threads, "run", grid, schemes)


def _search(evaluator: str, scheme: str, trials: int) -> Command:
    argv = ("optimize-altitude", "--config", str(CONFIG_DIR / "search.ini"),
            "--evaluator", evaluator, "--scheme", scheme,
            "--trials", str(trials), "--threads", "1")
    return Command(argv, evaluator, trials, 1, "search", (), (scheme,))


# Trial counts are sized so that one invocation takes a few seconds and the
# rarest fig4 event (p ~ 4.6e-4) still expects > 10 hits, so no MC row
# reads zero by chance.  The analytic rows ignore ``--trials``.
WORKLOADS: dict[str, tuple[Command, ...]] = {
    # The paper's altitude figure by simulation: all time in MC blocks, and
    # all 8 grid points reuse one seed, so sharing draws across grid points
    # shows here.
    "sweep-mc": (
        _run("fig4", "mc-all.ini", "mc", 25_000, 1, FIG4_GRID_M, ALL_SCHEMES),
    ),
    # The same MC layer at one point with the thread pool on: no grid to
    # share across, so sweep-level reuse predicts no change here.
    "point-mc": (
        _run("single", "mc-all.ini", "mc", 400_000, 2, (150.0,), ALL_SCHEMES),
    ),
    # Only the closed-form route: series CDF, nested quadrature and the
    # Meijer-G cross-check.  MC changes predict no change here.
    "sweep-analytic": (
        _run("fig4", "analytic-fc.ini", "analytic", 100_000, 1, FIG4_GRID_M,
             FC_SCHEMES),
    ),
    # The only path through ``optimize``: 30 sequential, data-dependent
    # evaluations, so batching across a grid cannot help here.
    "altitude": (
        _search("analytic", "fcr-rs", 100_000),
        _search("mc", "scr-gcsi-pfs", 25_000),
    ),
}
