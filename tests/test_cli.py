"""Command-line interface: subcommands, seed precedence, and exit codes.

Proves:
 Group 1 — parser surface
   the three subcommands exist; the ``[project.scripts]`` entry of
   ``pyproject.toml`` resolves to ``cli.main`` and the module answers; a
   query, an analytic altitude search, an analytic greedy query and a
   16-row analytic fig4 sweep (``tests/data/analytic-fc.ini``) run with
   scipy and hypothesis unimportable (the runtime needs numpy only).

 Group 2 — probability queries
   default query prints both evaluator rows in the CSV contract; scheme
   and evaluator selection; a query prints the same bytes as a one-point
   ``run``; without flags the config file's schemes and evaluators
   decide, a flag wins over the file, and with neither the defaults
   (fcr-rs, both evaluators) print the same bytes as those flags;
   requesting a closed form that does not exist exits with the
   configuration code, while one whose Meijer composite is refused for its
   rounding bound, or for seeds past the tail integral's range (users 3
   km from the RIS, a 10 m eavesdropper ball), still answers from
   quadrature with exit 0; an eavesdropper radius whose square overflows
   a double refuses the closed form with the configuration code for both
   rules and leaves the simulation to answer; greedy serving with mixed
   RIS-user distances answers analytically; the configured SNR does not
   move the estimate.

 Group 3 — sweep runs
   a config-driven sweep writes the CSV to a file or stdout; the seed
   resolution order is flag over environment over file; ``--trials``,
   ``--seed``, ``--threads`` and the environment seed take an integral
   float such as 1e3 or 5.0 as the config file does, giving the same
   CSV, and ``--trials 1.5`` exits 2 with "invalid integer value" in
   ``run`` and ``zsrp``; a bad or
   negative seed (flag, environment or file) and NaN or infinite config
   values exit with the configuration code.

 Group 4 — altitude search
   a short closed-form search emits the result row; the config file's
   scheme and evaluator decide without flags, flags win over the file,
   and a file listing more than one scheme or evaluator exits with the
   configuration code unless flags choose; inverted, infinite or
   NaN bounds and tolerances exit with the configuration code; phase-only schemes and an eavesdropper
   centre offset from the BS cannot use the closed-form objective.

 Group 5 — exit codes
   a repeated evaluator, scheme or grid value exits with the
   configuration code, and so do a config file that is not UTF-8, an
   ``--out`` path in a missing directory or naming a directory (refused
   by every subcommand before anything is evaluated) and a ``run`` whose
   analytic rows are all skipped; an empty scheme list and an ``--out``
   write that fails after evaluation (a name past the file system's
   limit) exit with the configuration code; an accuracy failure maps to
   its documented exit code.  A geometry key past the double range (a
   hop gain that under- or overflows, a tiny eavesdropper ball, a huge
   altitude) gives each evaluator a probability or the configuration
   code with a message naming what is out of range, never a traceback.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from zsrpsim import cli
from zsrpsim.errors import AccuracyError


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- Group 1: parser surface ---


def test_subcommands_present():
    parser = cli.build_parser()
    sub = {a.dest: a for a in parser._actions}.get("command")
    assert set(cli._DISPATCH) == {"run", "zsrp", "optimize-altitude"}
    assert sub is not None


def test_runs_on_numpy_alone():
    # neither scipy nor hypothesis is importable: the runtime needs numpy only
    code = ("import sys\n"
            "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
            f"sys.path.insert(0, {os.path.dirname(os.path.dirname(cli.__file__))!r})\n"
            "from zsrpsim import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    analytic_fc = Path(__file__).resolve().parent / "data" / "analytic-fc.ini"
    for argv, n_rows in ((["zsrp", "--trials", "2048", "--seed", "1"], 2),
                         (["optimize-altitude"], 1),
                         (["zsrp", "--evaluator", "analytic",
                           "--scheme", "fcr-gcsi-pfs"], 1),
                         # one batched analytic evaluation of 16 rows
                         (["run", "--experiment", "fig4",
                           "--config", str(analytic_fc)], 16)):
        out = subprocess.run([sys.executable, "-c", code, *argv],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert len(out.stdout.strip().split("\n")) == 1 + n_rows


def test_console_script_installed():
    # the [project.scripts] entry names cli.main; pyproject.toml is read
    # with a regex because Python 3.10 has no tomllib
    pyproject = (Path(cli.__file__).resolve().parents[2] / "pyproject.toml").read_text()
    (target,) = re.findall(r'^zsrpsim\s*=\s*"([\w.]+):(\w+)"\s*$', pyproject,
                           re.MULTILINE)
    module, attr = target
    assert getattr(importlib.import_module(module), attr) is cli.main
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


def test_zsrp_is_a_one_point_run(tmp_path, capsys):
    cfg = tmp_path / "one.ini"
    cfg.write_text("[experiment]\nschemes = scr-gcsi-pfs\nevaluators = mc\n")
    flags = ("--config", str(cfg), "--trials", "2048", "--seed", "5")
    rc_z, out_z, _ = run_cli(capsys, "zsrp", "--scheme", "scr-gcsi-pfs",
                             "--evaluator", "mc", *flags)
    rc_r, out_r, _ = run_cli(capsys, "run", "--experiment", "single", *flags)
    assert rc_z == rc_r == 0
    assert out_z == out_r


def test_zsrp_round_robin_past_rounding_bound(capsys, monkeypatch):
    # a resolution below the composite's rounding bound (7.7e-14 of it):
    # the composite refuses; the quadrature value is still the answer
    from zsrpsim import analytic

    monkeypatch.setattr(analytic, "REL_GAP_WARN", 1e-15)
    rc, out, _ = run_cli(capsys, "zsrp", "--evaluator", "analytic", "--trials", "2048")
    assert rc == 0
    assert ",fcr-rs,analytic," in out


def test_zsrp_takes_schemes_and_evaluators_from_the_file(tmp_path, capsys):
    cfg = tmp_path / "pick.ini"
    cfg.write_text("[experiment]\nschemes = fcr-gcsi-pfs\nevaluators = analytic\n")
    rc, out, _ = run_cli(capsys, "zsrp", "--config", str(cfg))
    assert rc == 0
    assert [ln.split(",")[2:4] for ln in out.strip().split("\n")[1:]] == [
        ["fcr-gcsi-pfs", "analytic"]]


def test_zsrp_flags_win_over_the_file(tmp_path, capsys):
    cfg = tmp_path / "pick.ini"
    cfg.write_text("[experiment]\nschemes = fcr-gcsi-pfs, scr-rs\n"
                   "evaluators = analytic\n")
    rc, out, _ = run_cli(capsys, "zsrp", "--config", str(cfg), "--scheme",
                         "scr-rs", "--evaluator", "mc", "--trials", "2048")
    assert rc == 0
    assert [ln.split(",")[2:4] for ln in out.strip().split("\n")[1:]] == [
        ["scr-rs", "mc"]]
    # one key from the file, the other the subcommand's default (fcr-rs)
    cfg.write_text("[experiment]\nevaluators = analytic\n")
    rc, out, _ = run_cli(capsys, "zsrp", "--config", str(cfg))
    assert rc == 0
    assert [ln.split(",")[2:4] for ln in out.strip().split("\n")[1:]] == [
        ["fcr-rs", "analytic"]]


def test_zsrp_without_flag_or_key_keeps_its_defaults(tmp_path, capsys):
    cfg = tmp_path / "plain.ini"
    cfg.write_text("[experiment]\ntrials = 2048\nseed = 5\n")
    rc, plain, _ = run_cli(capsys, "zsrp", "--config", str(cfg))
    rc_f, flagged, _ = run_cli(capsys, "zsrp", "--config", str(cfg),
                               "--scheme", "fcr-rs", "--evaluator", "both")
    assert rc == rc_f == 0
    assert plain == flagged
    assert [ln.split(",")[2:4] for ln in plain.strip().split("\n")[1:]] == [
        ["fcr-rs", "mc"], ["fcr-rs", "analytic"]]


def test_zsrp_far_seed_refuses_the_closed_form_only(tmp_path, capsys, caplog):
    # users 3 km from the RIS and a 10 m eavesdropper ball put the seed
    # arguments past 1e12, beyond the tail integral's range: the closed form
    # is refused at INFO and the quadrature value still answers
    cfg = tmp_path / "far.ini"
    cfg.write_text("[geometry]\nd_rn_m = 3000\nr_eve_m = 10\n")
    with caplog.at_level("INFO"):
        rc, out, _ = run_cli(capsys, "zsrp", "--evaluator", "analytic",
                             "--scheme", "fcr-gcsi-pfs", "--config", str(cfg))
    assert rc == 0
    (row,) = out.strip().split("\n")[1:]
    assert row.split(",")[2:4] == ["fcr-gcsi-pfs", "analytic"]
    assert "closed-form composite unavailable" in caplog.text
    assert "past 1000" in caplog.text


def test_zsrp_greedy_serving_takes_mixed_distances(tmp_path, capsys):
    cfg = tmp_path / "mixed.ini"
    cfg.write_text("[geometry]\nh_br_m = 150\nd_rn_m = 30, 50, 70, 90\n")
    rc, out, _ = run_cli(capsys, "zsrp", "--config", str(cfg), "--evaluator",
                         "analytic", "--scheme", "fcr-gcsi-pfs")
    assert rc == 0
    (row,) = out.strip().split("\n")[1:]
    assert row.split(",")[2:5] == ["fcr-gcsi-pfs", "analytic", "0.190719292"]


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


def test_integer_flags_and_env_seed_read_as_the_file_does(sweep_config, capsys,
                                                         monkeypatch):
    # the config file takes trials = 1e3 and seed = 5.0 as integers, and so
    # do --trials, --seed, --threads and the environment seed
    monkeypatch.setenv(cli.ENV_SEED, "5")
    rc, plain, _ = run_cli(capsys, "run", "--config", str(sweep_config),
                           "--trials", "1000", "--threads", "2")
    monkeypatch.setenv(cli.ENV_SEED, "5.0")
    rc_env, env_floats, _ = run_cli(capsys, "run", "--config", str(sweep_config),
                                    "--trials", "1e3", "--threads", "2.0")
    monkeypatch.delenv(cli.ENV_SEED)
    rc_flag, flag_floats, _ = run_cli(capsys, "run", "--config", str(sweep_config),
                                      "--seed", "5.0", "--trials", "1e3")
    assert rc == rc_env == rc_flag == 0
    assert ",1000,5," in plain
    assert env_floats == flag_floats == plain
    # a fractional count is no integer: argparse exits with the usage code
    # and names the flag's parser
    for argv in (["run", "--config", str(sweep_config)], ["zsrp"]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--trials", "1.5"])
        assert exc.value.code == 2
        assert "argument --trials: invalid integer value: '1.5'" in capsys.readouterr().err


@pytest.mark.parametrize("ini,flags,env_seed", [
    ("", ("--seed", "-1"), None),
    ("", (), "-1"),
    ("[experiment]\nseed = -1\n", (), None),
    ("[geometry]\nr_eve_m = nan\n", (), None),
    ("[geometry]\nh_br_m = inf\n", (), None),
    ("[environment]\nalpha_eve = nan\n", (), None),
    ("[experiment]\nr_grid_m = 100, nan\n", (), None),
], ids=["seed-flag", "seed-env", "seed-file", "r_eve_m-nan", "h_br_m-inf",
        "alpha_eve-nan", "r_grid_m-nan"])
def test_negative_seed_and_non_finite_values_are_config_errors(
        tmp_path, capsys, caplog, monkeypatch, ini, flags, env_seed):
    if env_seed is None:
        monkeypatch.delenv(cli.ENV_SEED, raising=False)
    else:
        monkeypatch.setenv(cli.ENV_SEED, env_seed)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ini)
    rc, out, _ = run_cli(capsys, "zsrp", "--config", str(cfg), "--evaluator", "mc",
                         "--trials", "2048", *flags)
    assert rc == 2 and out == ""
    assert "config error" in caplog.text


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


def test_altitude_search_takes_scheme_and_evaluator_from_the_file(tmp_path,
                                                                 capsys):
    cfg = tmp_path / "pick.ini"
    cfg.write_text("[experiment]\nschemes = scr-rs\nevaluators = mc\n")
    flags = ("--trials", "2048", "--h-lo", "150", "--h-hi", "600", "--tol", "50")
    rc, out, _ = run_cli(capsys, "optimize-altitude", "--config", str(cfg), *flags)
    assert rc == 0
    assert out.strip().split("\n")[1].split(",")[2:4] == ["scr-rs", "mc"]
    # flags win over the file
    rc, out, _ = run_cli(capsys, "optimize-altitude", "--config", str(cfg),
                         "--scheme", "fcr-rs", "--evaluator", "analytic", *flags)
    assert rc == 0
    assert out.strip().split("\n")[1].split(",")[2:4] == ["fcr-rs", "analytic"]


@pytest.mark.parametrize("lines", ["schemes = fcr-rs, scr-rs",
                                   "evaluators = mc, analytic", "schemes = all"])
def test_altitude_search_refuses_a_file_list(lines, tmp_path, capsys, caplog):
    cfg = tmp_path / "many.ini"
    cfg.write_text(f"[experiment]\n{lines}\n")
    rc, out, _ = run_cli(capsys, "optimize-altitude", "--config", str(cfg))
    assert rc == 2 and out == ""
    assert "searches one scheme with one evaluator" in caplog.text
    # a flag for each list settles it
    rc, out, _ = run_cli(capsys, "optimize-altitude", "--config", str(cfg),
                         "--scheme", "fcr-rs", "--evaluator", "analytic",
                         "--h-lo", "150", "--h-hi", "600", "--tol", "50")
    assert rc == 0
    assert out.strip().split("\n")[1].split(",")[2:4] == ["fcr-rs", "analytic"]


def test_altitude_bounds_validated(capsys, caplog):
    rc, _, _ = run_cli(capsys, "optimize-altitude", "--h-lo", "600", "--h-hi", "100")
    assert rc == 2
    assert "config error" in caplog.text


@pytest.mark.parametrize("flags", [("--h-hi", "inf"), ("--h-lo", "nan"), ("--tol", "nan"),
                                   ("--tol", "inf")])
def test_altitude_non_finite_bounds_are_config_errors(capsys, caplog, flags):
    rc, out, _ = run_cli(capsys, "optimize-altitude", *flags)
    assert rc == 2 and out == ""
    assert "config error" in caplog.text


def test_altitude_analytic_needs_closed_form(capsys):
    rc, _, _ = run_cli(
        capsys, "optimize-altitude", "--scheme", "scr-rs", "--evaluator", "analytic"
    )
    assert rc == 2


def test_radius_past_the_double_range_refuses_closed_form(capsys, caplog, tmp_path):
    ini = tmp_path / "huge.ini"
    ini.write_text("[geometry]\nr_eve_m = 1e160\n")
    for scheme in ("fcr-rs", "fcr-gcsi-pfs"):
        rc, out, _ = run_cli(capsys, "zsrp", "--config", str(ini), "--scheme", scheme,
                             "--evaluator", "analytic")
        assert rc == 2 and out == ""
    assert "too large for the analytic route" in caplog.text
    rc, out, _ = run_cli(capsys, "zsrp", "--config", str(ini), "--evaluator", "both",
                         "--trials", "2048", "--seed", "3")
    assert rc == 0
    assert [ln.split(",")[3] for ln in out.strip().split("\n")[1:]] == ["mc"]


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


# --- Group 5: exit codes ---


def test_repeated_evaluator_is_config_error(tmp_path, capsys, caplog):
    cfg = tmp_path / "twice.ini"
    cfg.write_text("[experiment]\nevaluators = mc, mc\nschemes = fcr-rs\n")
    rc, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--trials", "2048")
    assert rc == 2 and out == ""
    assert "listed more than once" in caplog.text


@pytest.mark.parametrize("lines", [
    "schemes = fcr-rs, fcr-rs",
    "schemes = fcr-rs\nkind = fig4\nh_grid_m = 100, 100",
    "schemes = fcr-rs\nkind = fig2\nr_grid_m = 200, 300, 200",
    "schemes = fcr-rs\nkind = fig3\nl_grid = 8, 8",
])
def test_repeated_scheme_or_grid_value_is_config_error(lines, tmp_path, capsys,
                                                       caplog):
    cfg = tmp_path / "twice.ini"
    cfg.write_text(f"[experiment]\nevaluators = mc\n{lines}\n")
    rc, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--trials", "2048")
    assert rc == 2 and out == ""
    assert "listed more than once" in caplog.text


def test_undecodable_config_file_is_config_error(tmp_path, capsys, caplog):
    cfg = tmp_path / "latin1.ini"
    cfg.write_bytes(b"[experiment]\nseed = 4\n; caf\xe9\n")
    rc, out, _ = run_cli(capsys, "zsrp", "--config", str(cfg), "--evaluator", "mc",
                         "--trials", "2048")
    assert rc == 2 and out == ""
    assert f"cannot read config file {cfg}" in caplog.text


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_path_is_config_error(where, tmp_path, capsys, caplog,
                                            monkeypatch):
    # the path is refused before anything is evaluated
    def never(*args, **kwargs):
        raise AssertionError("evaluated before the output path was checked")

    monkeypatch.setattr(cli, "run_experiment", never)
    monkeypatch.setattr(cli, "optimal_altitude", never)
    path = tmp_path / "absent" / "rows.csv" if where == "missing-directory" else tmp_path
    for command in ("zsrp", "run", "optimize-altitude"):
        caplog.clear()
        rc, out, _ = run_cli(capsys, command, "--out", str(path))
        assert rc == 2 and out == ""
        assert f"cannot write {path}" in caplog.text
    assert not (tmp_path / "absent").exists()


def test_run_without_rows_is_config_error(tmp_path, capsys, caplog):
    # analytic rows of single-connected schemes only: nothing to write
    cfg = tmp_path / "sc.ini"
    cfg.write_text("[experiment]\nkind = single\nschemes = scr-rs, scr-gcsi-pfs\n"
                   "evaluators = analytic\n")
    out_csv = tmp_path / "rows.csv"
    rc, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out_csv))
    assert rc == 2 and out == ""
    assert "no analytic value for scheme 'scr-rs', 'scr-gcsi-pfs'" in caplog.text
    assert not out_csv.exists()


def test_accuracy_exit_code(capsys, caplog, monkeypatch):
    def boom(args):
        raise AccuracyError("forced")

    monkeypatch.setitem(cli._DISPATCH, "zsrp", boom)
    rc, _, _ = run_cli(capsys, "zsrp")
    assert rc == 3
    assert "accuracy failure" in caplog.text


def test_empty_scheme_list_is_config_error(tmp_path, capsys, caplog):
    cfg = tmp_path / "empty.ini"
    cfg.write_text("[experiment]\nschemes = ,\n")
    rc, out, _ = run_cli(capsys, "zsrp", "--config", str(cfg), "--evaluator", "mc",
                         "--trials", "2048")
    assert rc == 2 and out == ""
    assert "[experiment] schemes: empty list" in caplog.text


def test_write_failing_after_evaluation_is_config_error(tmp_path, capsys, caplog):
    # the directory is writable, so the path passes the early check; the
    # name is past the file system's limit, so the write itself fails
    path = tmp_path / ("z" * 300 + ".csv")
    rc, out, _ = run_cli(capsys, "zsrp", "--evaluator", "analytic", "--out", str(path))
    assert rc == 2 and out == ""
    assert f"cannot write {path}" in caplog.text
    assert "wrote" not in caplog.text


#: One [geometry] key past the double range: for each scheme under the
#: analytic evaluator, then under MC, the value printed or a fragment of
#: the exit-2 message that names what is out of range.
_GAIN_UNDERFLOW = "cascade gain is out of range for the analytic route"
_X_PAST_RANGE = "X = m1 m2 G0 / (scale R^2) leaves the double range"
_OUT_OF_RANGE = {
    "d_rn_m = 1e100": (_GAIN_UNDERFLOW, _GAIN_UNDERFLOW, "1", "1"),
    "r_br_m = 1e200": (_GAIN_UNDERFLOW, _GAIN_UNDERFLOW, "1", "1"),
    "h_br_m = 1e160": (_X_PAST_RANGE, _X_PAST_RANGE, "1", "1"),
    "d_rn_m = 1e-100": ("a hop is too short",) * 4,
    "r_eve_m = 1e-145": ("1e-145 m is too small", "1", "1", "1"),
    "r_eve_m = 1e-160": ("1e-160 m is too small", _X_PAST_RANGE, "1", "1"),
    "r_eve_m = 1e-170": ("1e-170 m is too small",) * 2 + ("1", "1"),
}


@pytest.mark.parametrize("line", list(_OUT_OF_RANGE))
def test_geometry_past_the_double_range_is_typed(line, tmp_path, capsys, caplog):
    # each evaluator prints a probability or exits 2 saying what is out of
    # range: no traceback, no exit 1 and no RuntimeWarning (an error here)
    cfg = tmp_path / "far.ini"
    cfg.write_text(f"[geometry]\n{line}\n")
    runs = [(scheme, evaluator) for evaluator in ("analytic", "mc")
            for scheme in ("fcr-rs", "fcr-gcsi-pfs")]
    for (scheme, evaluator), want in zip(runs, _OUT_OF_RANGE[line]):
        caplog.clear()
        rc, out, _ = run_cli(capsys, "zsrp", "--config", str(cfg), "--scheme", scheme,
                             "--evaluator", evaluator, "--trials", "2048")
        if want == "1":
            assert rc == 0 and out.splitlines()[1].split(",")[4] == "1", (scheme, out)
        else:
            assert rc == 2 and out == "" and want in caplog.text, (scheme, evaluator)
