"""Seed → bytes contract: committed Monte-Carlo CSVs are reproduced exactly.

Proves:
 Group 1 — golden fixtures
   fig4 and fig2 sweeps over all five schemes, a three-thread single point
   and a fig4 sweep around a fixed eavesdropper centre print the same bytes
   as the fixtures under ``tests/data`` (see its README for the generating
   commit and commands).
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
