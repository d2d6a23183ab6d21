"""Seed → bytes contract: committed CSVs are reproduced exactly.

Proves:
 Group 1 — golden fixtures
   fig4 and fig2 sweeps over all five schemes, a three-thread single point
   and a fig4 sweep around a fixed eavesdropper centre print the same bytes
   as the fixtures under ``tests/data`` (see its README for the generating
   commit and commands).

 Group 2 — one-point queries
   ``zsrp`` with both evaluators for greedy fully connected serving, and by
   simulation around a fixed eavesdropper centre, prints the fixture bytes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from zsrpsim import cli

DATA = Path(__file__).resolve().parent / "data"

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
    experiment, config, trials, threads = CASES[name]
    out = tmp_path / f"{name}.csv"
    rc = cli.main(["run", "--experiment", experiment,
                   "--config", str(DATA / config), "--trials", trials,
                   "--seed", "7", "--threads", threads, "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


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
    rc = cli.main(["zsrp", *ZSRP_CASES[name], "--trials", "5000", "--seed", "7",
                   "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()
