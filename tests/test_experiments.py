"""Experiment configuration, sweep execution, and the CSV contract.

Proves:
 Group 1 — configuration loading
   absent and empty files give the documented defaults; missing files,
   malformed INI, unknown sections/keys, and bad values raise the
   configuration error; a scalar user distance is replicated across users
   while a mismatched list is rejected; integer lists reject fractional
   entries instead of truncating them.

 Group 2 — experiment specification
   kind/scheme/evaluator/grid/trials/threads validation; each sweep kind
   exposes the right sweep variable and grid.

 Group 3 — sweep execution
   the radius sweep yields one simulation row per scheme-radius pair plus
   closed-form rows only where the expression exists (phase-only schemes
   are skipped); wall-clock stamps appear only when timing is requested;
   reruns are bit-identical and worker-count independent; a fig4 sweep
   around a fixed eavesdropper centre keeps its closed-form row only at
   the centre's altitude.

 Group 4 — CSV contract
   fixed header order, LF line endings, trailing newline, 10-significant-
   digit floats, empty cells for absent values; the file writer emits the
   same bytes as the formatter.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from zsrpsim import experiments as ex
from zsrpsim.errors import ConfigError
from zsrpsim.scheduling import SchemeId


def write_ini(tmp_path: Path, text: str) -> Path:
    p = tmp_path / "run.ini"
    p.write_text(text)
    return p


# --- Group 1: configuration loading ---


def test_defaults_without_file():
    scenario, spec = ex.load_config(None)
    assert scenario.n_users == 4
    assert scenario.geometry.r_eve_m == 500.0
    assert scenario.gamma_b_db == 20.0
    assert spec.kind == "single"
    assert spec.trials == 100_000 and spec.seed == 12_345 and spec.threads == 1
    assert spec.evaluators == ("mc", "analytic")
    assert len(spec.schemes) == 5


def test_empty_file_gives_defaults(tmp_path):
    path = write_ini(tmp_path, "")
    scenario, spec = ex.load_config(path)
    ref_scenario, ref_spec = ex.load_config(None)
    assert scenario == ref_scenario
    assert spec == ref_spec


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        ex.load_config(tmp_path / "nope.ini")


def test_malformed_ini_rejected(tmp_path):
    path = write_ini(tmp_path, "geometry]\nr_br_m = 10\n")
    with pytest.raises(ConfigError):
        ex.load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write_ini(tmp_path, "[universe]\nanswer = 42\n")
    with pytest.raises(ConfigError):
        ex.load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write_ini(tmp_path, "[geometry]\nr_br_km = 10\n")
    with pytest.raises(ConfigError):
        ex.load_config(path)


def test_bad_value_rejected(tmp_path):
    path = write_ini(tmp_path, "[geometry]\nusers = many\n")
    with pytest.raises(ConfigError):
        ex.load_config(path)
    path = write_ini(tmp_path, "[fading]\nm1 = 0\n")
    with pytest.raises(ConfigError):
        ex.load_config(path)


def test_scalar_distance_replicated(tmp_path):
    path = write_ini(tmp_path, "[geometry]\nusers = 3\nd_rn_m = 42\n")
    scenario, _ = ex.load_config(path)
    assert scenario.geometry.d_rn_m == (42.0, 42.0, 42.0)


def test_distance_list_must_match_users(tmp_path):
    path = write_ini(tmp_path, "[geometry]\nusers = 3\nd_rn_m = 40, 50\n")
    with pytest.raises(ConfigError):
        ex.load_config(path)
    path = write_ini(tmp_path, "[geometry]\nusers = 2\nd_rn_m = 40, 60\n")
    scenario, _ = ex.load_config(path)
    assert scenario.geometry.d_rn_m == (40.0, 60.0)


def test_experiment_section_parsed(tmp_path):
    path = write_ini(
        tmp_path,
        "[experiment]\nkind = fig3\nschemes = fcr-rs, scr-rs\n"
        "evaluators = mc\nl_grid = 4, 8\ntrials = 2000\nseed = 9\nthreads = 2\n",
    )
    _, spec = ex.load_config(path)
    assert spec.kind == "fig3"
    assert spec.schemes == (SchemeId.FCR_RS, SchemeId.SCR_RS)
    assert spec.evaluators == ("mc",)
    assert spec.grid() == ("elements", (4, 8))
    assert spec.trials == 2000 and spec.seed == 9 and spec.threads == 2


def test_int_list_rejects_fractions(tmp_path):
    path = write_ini(tmp_path, "[experiment]\nl_grid = 4.7, 8.2\n")
    with pytest.raises(ConfigError, match="l_grid"):
        ex.load_config(path)
    path = write_ini(tmp_path, "[experiment]\nl_grid = 4.0, 8\n")
    _, spec = ex.load_config(path)
    assert spec.l_grid == (4, 8)


# --- Group 2: experiment specification ---


def test_spec_validation():
    _, base = ex.load_config(None)
    with pytest.raises(ConfigError):
        ex.ExperimentSpec(**{**base.__dict__, "kind": "fig9"})
    with pytest.raises(ConfigError):
        ex.ExperimentSpec(**{**base.__dict__, "schemes": ()})
    with pytest.raises(ConfigError):
        ex.ExperimentSpec(**{**base.__dict__, "evaluators": ("exact",)})
    with pytest.raises(ConfigError):
        ex.ExperimentSpec(**{**base.__dict__, "trials": 999})
    with pytest.raises(ConfigError):
        ex.ExperimentSpec(**{**base.__dict__, "threads": 0})
    with pytest.raises(ConfigError):
        ex.ExperimentSpec(**{**base.__dict__, "kind": "fig2", "r_grid_m": (100.0, -5.0)})


def test_sweep_grids():
    _, base = ex.load_config(None)
    fig2 = ex.ExperimentSpec(**{**base.__dict__, "kind": "fig2"})
    assert fig2.grid() == ("r_eve_m", (100.0, 200.0, 300.0, 400.0, 500.0))
    fig3 = ex.ExperimentSpec(**{**base.__dict__, "kind": "fig3"})
    assert fig3.grid() == ("elements", (4, 8, 16, 32))
    fig4 = ex.ExperimentSpec(**{**base.__dict__, "kind": "fig4"})
    assert fig4.grid()[0] == "h_br_m"
    assert base.grid() == ("none", (None,))


# --- Group 3: sweep execution ---


@pytest.fixture
def small_fig2_spec():
    _, base = ex.load_config(None)
    return ex.ExperimentSpec(**{**base.__dict__, "kind": "fig2", "trials": 1000})


def test_fig2_row_accounting(small_fig2_spec):
    scenario, _ = ex.load_config(None)
    rows = ex.run_experiment(scenario, small_fig2_spec)
    mc = [r for r in rows if r["evaluator"] == "mc"]
    closed = [r for r in rows if r["evaluator"] == "analytic"]
    # every scheme simulates at every radius; closed forms exist only for
    # the fully connected schemes
    assert len(mc) == 5 * 5
    assert len(closed) == 2 * 5
    assert {r["scheme"] for r in closed} == {"fcr-rs", "fcr-gcsi-pfs"}
    for r in rows:
        assert r["sweep_var"] == "r_eve_m"
        assert 0.0 <= r["zsrp"] <= 1.0
        assert r["wall_ms"] is None


def test_timing_stamps(small_fig2_spec):
    scenario, _ = ex.load_config(None)
    spec = ex.ExperimentSpec(
        **{**small_fig2_spec.__dict__, "schemes": (SchemeId.FCR_RS,), "evaluators": ("mc",)}
    )
    rows = ex.run_experiment(scenario, spec, timing=True)
    assert all(isinstance(r["wall_ms"], float) and r["wall_ms"] >= 0.0 for r in rows)


def test_rerun_and_worker_invariance():
    scenario, base = ex.load_config(None)
    def spec_with(threads: int) -> ex.ExperimentSpec:
        return ex.ExperimentSpec(**{
            **base.__dict__, "kind": "fig2", "trials": 5000, "threads": threads,
            "schemes": (SchemeId.FCR_RS, SchemeId.SCR_GCSI_PFS), "evaluators": ("mc",),
        })
    a = ex.format_csv(ex.run_experiment(scenario, spec_with(1)))
    b = ex.format_csv(ex.run_experiment(scenario, spec_with(1)))
    c = ex.format_csv(ex.run_experiment(scenario, spec_with(2)))
    assert a == b == c


def test_fixed_centre_sweep_keeps_only_centred_closed_form():
    import dataclasses

    scenario, base = ex.load_config(None)
    scenario = dataclasses.replace(scenario, eve_center="fixed")
    spec = ex.ExperimentSpec(**{
        **base.__dict__, "kind": "fig4", "h_grid_m": (100.0, 150.0, 600.0),
        "trials": 1000, "schemes": (SchemeId.FCR_RS,), "evaluators": ("analytic",),
    })
    rows = ex.run_experiment(scenario, spec)
    # the ball stays centred at the configured 150 m while the BS moves
    assert [r["sweep_value"] for r in rows] == [150.0]


# --- Group 4: CSV contract ---


def test_csv_layout(small_fig2_spec):
    scenario, _ = ex.load_config(None)
    spec = ex.ExperimentSpec(
        **{**small_fig2_spec.__dict__, "schemes": (SchemeId.FCR_RS,), "evaluators": ("mc",)}
    )
    text = ex.format_csv(ex.run_experiment(scenario, spec))
    lines = text.split("\n")
    assert lines[0] == ",".join(ex.CSV_COLUMNS)
    assert text.endswith("\n") and lines[-1] == ""
    assert "\r" not in text
    assert len(lines) == 1 + 5 + 1  # header + rows + trailing newline
    first = lines[1].split(",")
    assert first[0] == "r_eve_m" and first[2] == "fcr-rs" and first[3] == "mc"
    # floats carry 10 significant digits, absent stamps are empty cells
    assert first[-1] == ""
    zsrp_cell = first[4]
    assert zsrp_cell == format(float(zsrp_cell), ".10g")


def test_writer_matches_formatter(tmp_path, small_fig2_spec):
    scenario, _ = ex.load_config(None)
    spec = ex.ExperimentSpec(
        **{**small_fig2_spec.__dict__, "schemes": (SchemeId.SCR_RS,), "evaluators": ("mc",)}
    )
    rows = ex.run_experiment(scenario, spec)
    out = tmp_path / "rows.csv"
    ex.write_csv(rows, out)
    assert out.read_bytes() == ex.format_csv(rows).encode()
