"""Command-line interface: subcommands, seed precedence, and exit codes.

Proves:
 Group 1 — parser surface
   all four subcommands exist; the installed console script answers.

 Group 2 — probability queries
   default query prints both evaluator rows in the CSV contract; scheme
   and evaluator selection; requesting a closed form that does not exist
   exits with the configuration code; the configured SNR does not move
   the estimate.

 Group 3 — sweep runs
   a config-driven sweep writes the CSV to a file or stdout; the seed
   resolution order is flag over environment over file; a bad
   environment seed exits with the configuration code.

 Group 4 — altitude search
   a short closed-form search emits the result row; inverted bounds exit
   with the configuration code; phase-only schemes and an eavesdropper
   centre offset from the BS cannot use the closed-form objective.

 Group 5 — diagnostics and exit codes
   the self-check suite passes and prints one line per check; accuracy
   and capacity failures map to their documented exit codes.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from zsrpsim import cli
from zsrpsim.errors import AccuracyError, CapacityError


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- Group 1: parser surface ---


def test_subcommands_present():
    parser = cli.build_parser()
    sub = {a.dest: a for a in parser._actions}.get("command")
    assert set(cli._DISPATCH) == {"run", "zsrp", "optimize-altitude", "selftest"}
    assert sub is not None


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "zsrpsim.cli", "zsrp", "--trials", "2048", "--seed", "3"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.startswith("sweep_var,")


# --- Group 2: probability queries ---


def test_zsrp_default_both_evaluators(capsys):
    rc, out, _ = run_cli(capsys, "zsrp", "--trials", "4096", "--seed", "11")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("sweep_var,")
    assert len(lines) == 3
    assert ",fcr-rs,mc," in lines[1]
    assert ",fcr-rs,analytic," in lines[2]


def test_zsrp_scheme_and_evaluator_selection(capsys):
    rc, out, _ = run_cli(
        capsys, "zsrp", "--scheme", "scr-gcsi-pfs", "--evaluator", "mc",
        "--trials", "2048", "--seed", "5",
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert ",scr-gcsi-pfs,mc," in lines[1]


def test_zsrp_analytic_unavailable_is_config_error(capsys, caplog):
    rc, _, _ = run_cli(
        capsys, "zsrp", "--scheme", "scr-rs", "--evaluator", "analytic", "--trials", "2048"
    )
    assert rc == 2
    assert "config error" in caplog.text


def test_zsrp_unknown_scheme_is_config_error(capsys):
    rc, _, _ = run_cli(capsys, "zsrp", "--scheme", "fc-random", "--trials", "2048")
    assert rc == 2


def test_snr_does_not_move_estimate(tmp_path, capsys):
    outs = []
    for db in ("0", "40"):
        cfg = tmp_path / f"g{db}.ini"
        cfg.write_text(f"[environment]\ngamma_b_db = {db}\n")
        rc, out, _ = run_cli(
            capsys, "zsrp", "--config", str(cfg), "--evaluator", "mc",
            "--trials", "4096", "--seed", "8",
        )
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]


# --- Group 3: sweep runs ---


@pytest.fixture
def sweep_config(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[experiment]\nkind = fig3\nschemes = fcr-rs\nevaluators = mc\n"
        "l_grid = 4, 8\ntrials = 1000\nseed = 4\n"
    )
    return cfg


def test_run_to_file(sweep_config, tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    rc, out, _ = run_cli(capsys, "run", "--config", str(sweep_config), "--out", str(out_file))
    assert rc == 0
    assert out == ""
    text = out_file.read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("sweep_var,")
    assert len(lines) == 3  # two surface sizes, one scheme, one evaluator
    assert all(",elements," not in ln or False for ln in lines[:1])
    assert lines[1].split(",")[0] == "elements"


def test_run_to_stdout_matches_file(sweep_config, tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    rc, stdout_text, _ = run_cli(capsys, "run", "--config", str(sweep_config))
    assert rc == 0
    rc2, _, _ = run_cli(capsys, "run", "--config", str(sweep_config), "--out", str(out_file))
    assert rc2 == 0
    assert stdout_text == out_file.read_text()


def test_seed_precedence(sweep_config, tmp_path, capsys, monkeypatch):
    # file seed 4 is the baseline; the environment overrides the file; the
    # flag overrides both
    rc, base, _ = run_cli(capsys, "run", "--config", str(sweep_config))
    monkeypatch.setenv(cli.ENV_SEED, "4")
    rc, env_same, _ = run_cli(capsys, "run", "--config", str(sweep_config))
    monkeypatch.setenv(cli.ENV_SEED, "999")
    rc, env_diff, _ = run_cli(capsys, "run", "--config", str(sweep_config))
    rc, flag_back, _ = run_cli(capsys, "run", "--config", str(sweep_config), "--seed", "4")
    assert base == env_same == flag_back
    assert env_diff != base
    assert ",999," in env_diff


def test_bad_env_seed_is_config_error(sweep_config, capsys, caplog, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "twelve")
    rc, _, _ = run_cli(capsys, "run", "--config", str(sweep_config))
    assert rc == 2
    assert "must be an integer" in caplog.text


# --- Group 4: altitude search ---


def test_altitude_search_emits_result(capsys):
    rc, out, _ = run_cli(
        capsys, "optimize-altitude", "--h-lo", "150", "--h-hi", "600", "--tol", "10"
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "h_star_m,zsrp,scheme,evaluator,n_evaluations"
    cells = lines[1].split(",")
    assert 150.0 <= float(cells[0]) <= 600.0
    assert cells[2] == "fcr-rs" and cells[3] == "analytic"


def test_altitude_bounds_validated(capsys, caplog):
    rc, _, _ = run_cli(capsys, "optimize-altitude", "--h-lo", "600", "--h-hi", "100")
    assert rc == 2
    assert "config error" in caplog.text


def test_altitude_analytic_needs_closed_form(capsys):
    rc, _, _ = run_cli(
        capsys, "optimize-altitude", "--scheme", "scr-rs", "--evaluator", "analytic"
    )
    assert rc == 2


def test_offset_fixed_centre_refuses_closed_form(capsys, caplog, tmp_path):
    ini = tmp_path / "offset.ini"
    ini.write_text("[geometry]\nh_br_m = 600\n"
                   "[environment]\neve_center = fixed\neve_center_h_m = 150\n")
    rc, out, _ = run_cli(capsys, "optimize-altitude", "--config", str(ini))
    assert rc == 2 and out == ""
    assert "centred on the BS" in caplog.text
    rc, _, _ = run_cli(capsys, "zsrp", "--config", str(ini), "--evaluator", "analytic")
    assert rc == 2
    # the simulation still answers at the same point
    rc, out, _ = run_cli(capsys, "zsrp", "--config", str(ini), "--evaluator", "both",
                         "--trials", "2048", "--seed", "3")
    assert rc == 0
    assert [ln.split(",")[3] for ln in out.strip().split("\n")[1:]] == ["mc"]


# --- Group 5: diagnostics and exit codes ---


def test_selftest_passes(capsys):
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 0
    lines = [ln for ln in out.strip().split("\n") if ln]
    assert len(lines) >= 10
    assert all(ln.startswith("ok") for ln in lines[:-1])
    assert lines[-1] == "selftest: all checks passed"


def test_accuracy_exit_code(capsys, caplog, monkeypatch):
    def boom(args):
        raise AccuracyError("forced")

    monkeypatch.setitem(cli._DISPATCH, "zsrp", boom)
    rc, _, _ = run_cli(capsys, "zsrp")
    assert rc == 3
    assert "accuracy failure" in caplog.text


def test_capacity_exit_code(capsys, monkeypatch):
    def boom(args):
        raise CapacityError("forced")

    monkeypatch.setitem(cli._DISPATCH, "zsrp", boom)
    rc, _, _ = run_cli(capsys, "zsrp")
    assert rc == 4
