"""Committed fixtures: CSVs reproduced byte for byte, analytic values to 1e-12.

Proves:
 Group 1 — golden fixtures
   fig4 and fig2 sweeps over all five schemes, a three-thread single point
   and a fig4 sweep around a fixed eavesdropper centre print the same bytes
   as the fixtures under ``tests/data`` (see its README for the generating
   commit and commands).

 Group 2 — one-point queries
   ``zsrp`` with both evaluators for greedy fully connected serving, and by
   simulation around a fixed eavesdropper centre, prints the fixture bytes;
   so do the analytic altitude search for round-robin serving and two
   simulated searches over 2 x 4096 + 808 trials (a partial last block):
   single connected GCSI serving around a BS-centred ball on two threads,
   and round robin around a fixed centre.  The regeneration block of
   ``tests/data/README.md`` writes exactly the Monte-Carlo fixtures
   compared here, each by a command that resolves to the same scenario,
   spec and subcommand flags as the test's own.  A Monte-Carlo fixture
   that differs names the running numpy next to the one that made it.

 Group 3 — analytic precision
   the quadrature value and the closed form of both fully connected rules
   stay within 1e-12 relative of the fixture at three altitudes and two
   more element counts; at the same points the quadrature value lies
   within 1e-12 and the closed form within 5e-12 relative of a 40-digit
   mpmath evaluation of the Meijer-G series.  The proportional-fair
   value also lies within 1e-12 of a 60-digit evaluation of that series
   at L = 32 (h = 220, 310 and 450 m, and 12 users at 310 m) and at
   m1 = m2 = L = 1 (310 m), where the series cancels or the integral
   takes its a = m2 L = 1 branch.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from zsrpsim import cli
from zsrpsim.analytic import zsrp_for_scheme
from zsrpsim.experiments import load_config
from zsrpsim.scheduling import SchemeId

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def _assert_mc_fixture(out: Path, name: str) -> None:
    if out.read_bytes() == (DATA / f"{name}.csv").read_bytes():
        return
    # NEP 19 lets Generator streams change between numpy versions, so a
    # mismatch names the numpy the fixtures record next to the running one
    made = re.search(r"made with numpy (\S+) ", (DATA / "README.md").read_text())
    pytest.fail(f"{name}.csv differs: fixtures made with numpy "
                f"{made.group(1) if made else 'unknown'}, "
                f"running numpy {np.__version__}")


CASES = {
    "fig4-mc": ("fig4", "mc-all.ini", "5000", "1"),
    "fig2-mc": ("fig2", "mc-all.ini", "5000", "1"),
    "single-mc-t3": ("single", "mc-all.ini", "20000", "3"),
    "fig4-mc-fixed": ("fig4", "mc-fixed.ini", "5000", "1"),
}


# --- Group 1: golden fixtures ---


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_reproduces_fixture(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    out = tmp_path / f"{name}.csv"
    rc = cli.main([*_mc_argv(name), "--out", str(out)])
    assert rc == 0
    _assert_mc_fixture(out, name)


# --- Group 2: one-point queries ---

ZSRP_CASES = {
    "zsrp-fcr-gcsi-pfs-both": ("--scheme", "fcr-gcsi-pfs", "--evaluator", "both"),
    "zsrp-scr-fcsi-pfs-fixed": ("--config", str(DATA / "mc-fixed.ini"),
                                "--scheme", "scr-fcsi-pfs", "--evaluator", "mc"),
}


@pytest.mark.parametrize("name", sorted(ZSRP_CASES))
def test_zsrp_reproduces_fixture(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    out = tmp_path / f"{name}.csv"
    rc = cli.main([*_mc_argv(name), "--out", str(out)])
    assert rc == 0
    _assert_mc_fixture(out, name)


def test_analytic_altitude_search_reproduces_fixture(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    name = "altitude-fcr-rs-analytic"
    out = tmp_path / f"{name}.csv"
    rc = cli.main(["optimize-altitude", "--evaluator", "analytic",
                   "--scheme", "fcr-rs", "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


MC_SEARCH_CASES = {
    "altitude-scr-gcsi-pfs-mc": ("--scheme", "scr-gcsi-pfs", "--threads", "2"),
    "altitude-fcr-rs-mc-fixed": ("--config", str(DATA / "mc-fixed.ini"),
                                 "--scheme", "fcr-rs", "--h-hi", "400"),
}


@pytest.mark.parametrize("name", sorted(MC_SEARCH_CASES))
def test_mc_altitude_search_reproduces_fixture(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    out = tmp_path / f"{name}.csv"
    rc = cli.main([*_mc_argv(name), "--out", str(out)])
    assert rc == 0
    _assert_mc_fixture(out, name)


def _mc_argv(name: str) -> list[str]:
    """CLI arguments, less ``--out``, of the test of MC fixture ``name``."""
    if name in CASES:
        experiment, config, trials, threads = CASES[name]
        return ["run", "--experiment", experiment, "--config", str(DATA / config),
                "--trials", trials, "--seed", "7", "--threads", threads]
    if name in ZSRP_CASES:
        return ["zsrp", *ZSRP_CASES[name], "--trials", "5000", "--seed", "7"]
    return ["optimize-altitude", *MC_SEARCH_CASES[name], "--evaluator", "mc",
            "--trials", "9000", "--seed", "7"]


def _regeneration_commands() -> dict[str, list[str]]:
    """Fixture name -> CLI arguments, less ``--out``, of every command in
    the README's block that regenerates the seed-pinned MC fixtures."""
    section = (DATA / "README.md").read_text().split(
        "## Seed-pinned Monte-Carlo fixtures", 1)[1]
    commands = {}
    for line in section.split("```")[1].splitlines():
        if line.startswith("python -m zsrpsim.cli "):
            argv = shlex.split(line)[3:]
            k = argv.index("--out")
            out = Path(argv.pop(k + 1))
            del argv[k]
            assert out.parent == Path("tests/data") and out.suffix == ".csv", line
            assert out.stem not in commands, line
            # README paths are relative to the repository root
            commands[out.stem] = [str(ROOT / a) if a.startswith("tests/") else a
                                  for a in argv]
    return commands


def _resolved_command(argv: list[str]) -> tuple:
    """What a CLI command computes: its resolved scenario and spec, less
    the output path, and its subcommand's own flags."""
    args = cli.build_parser().parse_args(argv)
    scenario, spec = cli._resolved(args)
    shared = {"config", "seed", "trials", "threads", "out", "scheme", "evaluator"}
    flags = {k: v for k, v in vars(args).items() if k not in shared}
    return scenario, dataclasses.replace(spec, output=""), flags


def test_regeneration_block_matches_the_mc_fixtures(monkeypatch):
    # a draw-layout change regenerates the fixtures by that block, so it
    # must write every compared MC fixture, nothing else, by the test's command
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    commands = _regeneration_commands()
    assert sorted(commands) == sorted({*CASES, *ZSRP_CASES, *MC_SEARCH_CASES})
    for name, argv in commands.items():
        assert _resolved_command(argv) == _resolved_command(_mc_argv(name)), name


# --- Group 3: analytic precision ---

ANALYTIC_CASES = json.loads((DATA / "analytic-fc.json").read_text())
MP_CASES = json.loads((DATA / "analytic-fc-mp.json").read_text())


def _case_id(case: dict) -> str:
    return f"{case['scheme']}-h{case['h_br_m']:g}-L{case['elements']}"


@functools.lru_cache(maxsize=None)
def _analytic(scheme: str, h_br_m: float, elements: int):
    scenario, _ = load_config(None)
    cfg = dataclasses.replace(
        scenario, geometry=dataclasses.replace(scenario.geometry, h_br_m=h_br_m),
        fading=dataclasses.replace(scenario.fading, n_elements=elements),
        scheme=SchemeId.from_string(scheme))
    return zsrp_for_scheme(cfg)


@pytest.mark.parametrize("case", ANALYTIC_CASES, ids=[_case_id(c) for c in ANALYTIC_CASES])
def test_analytic_matches_fixture(case):
    res = _analytic(case["scheme"], case["h_br_m"], case["elements"])
    for key in ("value", "closed_form"):
        want = float.fromhex(case[key])
        assert abs(getattr(res, key) - want) <= 1e-12 * want, key


@pytest.mark.parametrize("case", MP_CASES, ids=[_case_id(c) for c in MP_CASES])
def test_analytic_near_mpmath_truth(case):
    res = _analytic(case["scheme"], case["h_br_m"], case["elements"])
    truth = float(case["zsrp"])
    assert abs(res.value - truth) <= 1e-12 * truth
    assert abs(res.closed_form - truth) <= 5e-12 * truth


PFS_MP_CASES = json.loads((DATA / "analytic-pfs-mp.json").read_text())


@pytest.mark.parametrize(
    "case", PFS_MP_CASES,
    ids=[f"h{c['h_br_m']:g}-L{c['elements']}-N{c['users']}-m{c['m1']}{c['m2']}"
         for c in PFS_MP_CASES])
def test_pfs_value_near_mpmath_truth(case):
    # value only: the closed form is about 2e-9 off at L = 32
    scenario, _ = load_config(None)
    geometry = scenario.geometry
    cfg = dataclasses.replace(
        scenario, scheme=SchemeId.from_string(case["scheme"]),
        geometry=dataclasses.replace(
            geometry, h_br_m=case["h_br_m"],
            d_rn_m=geometry.d_rn_m[:1] * case["users"]),
        fading=dataclasses.replace(scenario.fading, m1=case["m1"],
                                   m2=case["m2"], n_elements=case["elements"]))
    truth = float(case["zsrp"])
    value = zsrp_for_scheme(cfg, closed_form=False).value
    assert abs(value - truth) <= 1e-12 * truth
