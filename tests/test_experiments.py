"""Experiment configuration, sweep execution, and the CSV contract.

Proves:
 Group 1 — configuration loading
   absent and empty files give the documented defaults; missing files,
   malformed INI, unknown sections/keys, and bad values raise the
   configuration error; a scalar user distance is replicated across users
   while a mismatched list is rejected; the eavesdropper centre mode is
   ``bs`` or ``fixed``, a centre altitude is accepted only with ``fixed``,
   which otherwise pins the configured altitude, and ``bs`` leaves no
   altitude on the scenario; integer keys, lists and scalars alike, take integral floats
   (16.0, 1e5) and reject fractional or out-of-range ones (2.5, 1e300)
   instead of truncating them, while integer text stays exact; NaN or
   infinite values and a negative seed are configuration errors; every
   key, set to a non-default value, lands in its dataclass field; the
   README config block lists exactly the loader's keys and loads to the
   defaults.

 Group 2 — experiment specification
   kind/scheme/evaluator/grid/trials/seed/threads validation, NaN and
   infinite grid values included; a repeated evaluator, scheme or grid
   value is refused; each sweep kind exposes the right sweep variable and
   grid.

 Group 3 — sweep execution
   the radius sweep yields one simulation row per scheme-radius pair plus
   closed-form rows only where the expression exists (phase-only schemes
   are skipped); wall-clock stamps appear only when timing is requested;
   reruns are bit-identical and worker-count independent; a fig4 sweep
   around a fixed eavesdropper centre keeps its closed-form row only at
   the centre's altitude; every analytic row logs its closed-form gap.

 Group 4 — CSV contract
   fixed header order, LF line endings, trailing newline, 10-significant-
   digit floats, empty cells for absent values; the CLI's file writer
   emits the same bytes as the formatter.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import pytest

from zsrpsim import cli
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


def test_centre_altitude_needs_fixed_centre(tmp_path):
    cfg = tmp_path / "c.ini"
    # a centre altitude means nothing for a BS-centred ball, the default
    for mode in ("eve_center = bs\n", ""):
        cfg.write_text(f"[environment]\n{mode}eve_center_h_m = 150\n")
        with pytest.raises(ConfigError, match="eve_center_h_m applies only"):
            ex.load_config(cfg)
    cfg.write_text("[environment]\neve_center = moon\n")
    with pytest.raises(ConfigError, match="eve_center must be 'bs' or 'fixed'"):
        ex.load_config(cfg)
    for bad in ("-5", "nan", "inf"):
        cfg.write_text(f"[environment]\neve_center = fixed\neve_center_h_m = {bad}\n")
        with pytest.raises(ConfigError, match="eve_center_h_m must be positive"):
            ex.load_config(cfg)
    # a fixed centre is pinned at the configured altitude when none is given
    cfg.write_text("[environment]\neve_center = fixed\n[geometry]\nh_br_m = 220\n")
    scenario, _ = ex.load_config(cfg)
    assert scenario.eve_center_h_m == 220.0 and scenario.eve_offset_m == 0.0
    cfg.write_text("[environment]\neve_center = bs\n")
    assert ex.load_config(cfg)[0].eve_center_h_m is None


def test_int_list_rejects_fractions(tmp_path):
    path = write_ini(tmp_path, "[experiment]\nl_grid = 4.7, 8.2\n")
    with pytest.raises(ConfigError, match="l_grid"):
        ex.load_config(path)
    path = write_ini(tmp_path, "[experiment]\nl_grid = 4.0, 8\n")
    _, spec = ex.load_config(path)
    assert spec.l_grid == (4, 8)
    # scalar integer keys follow the same rule; integer text stays exact
    path = write_ini(tmp_path, "[fading]\nm1 = 2.0\nelements = 16.0\n"
                               "[geometry]\nusers = 2.0\n"
                               "[experiment]\ntrials = 1e5\n"
                               "seed = 12345678901234567891\n")
    scenario, spec = ex.load_config(path)
    assert (scenario.fading.m1, scenario.fading.n_elements) == (2, 16)
    assert scenario.geometry.n_users == 2
    assert spec.trials == 100000 and spec.seed == 12345678901234567891
    for section, key, raw in (("fading", "m1", "2.5"), ("experiment", "seed", "1e300")):
        path = write_ini(tmp_path, f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: {raw} is not an integer"):
            ex.load_config(path)


@pytest.mark.parametrize("section,key,raw", [
    ("geometry", "r_eve_m", "nan"),
    ("geometry", "h_br_m", "inf"),
    ("geometry", "d_rn_m", "50, nan"),
    ("environment", "alpha_eve", "nan"),
    ("environment", "ref_gain", "inf"),
    ("experiment", "r_grid_m", "100, nan"),
    ("experiment", "h_grid_m", "60, inf"),
    ("experiment", "seed", "-1"),
])
def test_non_finite_values_and_negative_seed_rejected(tmp_path, section, key, raw):
    users = "users = 2\n" if key == "d_rn_m" else ""
    path = write_ini(tmp_path, f"[{section}]\n{users}{key} = {raw}\n")
    with pytest.raises(ConfigError):
        ex.load_config(path)


def test_every_key_reaches_its_field(tmp_path):
    path = write_ini(tmp_path, (
        "[geometry]\nr_br_m = 250\nh_br_m = 220\nusers = 2\nd_rn_m = 40, 60\n"
        "r_eve_m = 400\n"
        "[environment]\na2 = 12.08\nb2 = 0.11\nalpha_zenith = 1.8\n"
        "alpha_ground = 3.2\nref_gain = 1e6\ngamma_b_db = 10\nalpha_eve = 2.5\n"
        "eve_center = fixed\neve_center_h_m = 300\n"
        "[fading]\nm1 = 3\nm2 = 1\nelements = 8\n"
        "[experiment]\nkind = fig4\nschemes = scr-rs, fcr-rs\nevaluators = analytic\n"
        "r_grid_m = 150, 250\nl_grid = 2, 6\nh_grid_m = 80, 120\ntrials = 2000\n"
        "seed = 7\nthreads = 3\noutput = out.csv\n"))
    scenario, spec = ex.load_config(path)
    expected = [
        (scenario.geometry, {"r_br_m": 250.0, "h_br_m": 220.0,
                             "d_rn_m": (40.0, 60.0), "r_eve_m": 400.0}),
        (scenario.air, {"a2": 12.08, "b2": 0.11, "alpha_zenith": 1.8,
                        "alpha_ground": 3.2, "ref_gain": 1e6}),
        (scenario.fading, {"m1": 3, "m2": 1, "n_elements": 8}),
        (scenario, {"gamma_b_db": 10.0, "alpha_eve": 2.5, "eve_center_h_m": 300.0}),
        (spec, {"kind": "fig4", "schemes": (SchemeId.SCR_RS, SchemeId.FCR_RS),
                "evaluators": ("analytic",), "r_grid_m": (150.0, 250.0),
                "l_grid": (2, 6), "h_grid_m": (80.0, 120.0), "trials": 2000,
                "seed": 7, "threads": 3, "output": "out.csv"}),
    ]
    for obj, values in expected:
        # every field with a default is a config key, set here to a new value
        defaulted = {f.name: f.default for f in dataclasses.fields(obj)
                     if f.default is not dataclasses.MISSING}
        assert set(defaulted) == set(values), type(obj).__name__
        for name, value in values.items():
            assert getattr(obj, name) == value, name
            assert value != defaulted[name], name
    assert scenario.n_users == 2
    assert scenario.scheme is SchemeId.SCR_RS


def _readme_config_block() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme[readme.index("### Config file"):]
    return section[section.index("```ini\n") + 7:section.index("```\n", 7)]


def test_readme_config_block_matches_loader(tmp_path):
    # the README block is the documented copy of the defaults: it lists
    # exactly the loader's keys, and loading it changes nothing
    keys: dict[str, list[str]] = {}
    kept = []
    for line in _readme_config_block().splitlines():
        line = line.split(";")[0].strip()
        if line.startswith("["):
            section = keys.setdefault(line.strip("[]"), [])
            kept.append(line)
        elif line:
            key, value = (part.strip() for part in line.split("=", 1))
            section.append(key)
            if value:
                kept.append(f"{key} = {value}")
    assert keys == {name: list(parsers) for name, parsers in ex.CONFIG_KEYS.items()}
    assert ex.load_config(write_ini(tmp_path, "\n".join(kept) + "\n")) == ex.load_config(None)


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


def test_spec_refuses_repeated_evaluator():
    # one estimate exists per (point, scheme); a second "mc" row has none
    _, base = ex.load_config(None)
    for evaluators in (("mc", "mc"), ("analytic", "mc", "analytic")):
        with pytest.raises(ConfigError, match="listed more than once"):
            ex.ExperimentSpec(**{**base.__dict__, "evaluators": evaluators})


@pytest.mark.parametrize("field, items", [
    ("schemes", (SchemeId.FCR_RS, SchemeId.SCR_RS, SchemeId.FCR_RS)),
    ("h_grid_m", (100.0, 150.0, 100.0)),
    ("r_grid_m", (200.0, 200.0)),
    ("l_grid", (8, 16, 16)),
])
def test_spec_refuses_repeated_scheme_and_grid_value(field, items):
    # a repeated entry would evaluate its rows twice and print them twice
    _, base = ex.load_config(None)
    with pytest.raises(ConfigError, match="listed more than once"):
        ex.ExperimentSpec(**{**base.__dict__, field: items})
    ex.ExperimentSpec(**{**base.__dict__, field: tuple(dict.fromkeys(items))})


def test_spec_refuses_non_finite_grids_and_negative_seed():
    _, base = ex.load_config(None)
    for name in ("r_grid_m", "h_grid_m"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match=f"{name} values must be positive and finite"):
                ex.ExperimentSpec(**{**base.__dict__, name: (100.0, bad)})
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        ex.ExperimentSpec(**{**base.__dict__, "seed": -1})


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
    scenario = dataclasses.replace(scenario, eve_center_h_m=scenario.geometry.h_br_m)
    spec = ex.ExperimentSpec(**{
        **base.__dict__, "kind": "fig4", "h_grid_m": (100.0, 150.0, 600.0),
        "trials": 1000, "schemes": (SchemeId.FCR_RS,), "evaluators": ("analytic",),
    })
    rows = ex.run_experiment(scenario, spec)
    # the ball stays centred at the configured 150 m while the BS moves
    assert [r["sweep_value"] for r in rows] == [150.0]


def test_every_analytic_row_logs_its_gap(caplog):
    import logging

    scenario, base = ex.load_config(None)
    spec = ex.ExperimentSpec(**{
        **base.__dict__, "kind": "fig2", "r_grid_m": (200.0, 500.0),
        "schemes": (SchemeId.FCR_RS, SchemeId.SCR_RS), "evaluators": ("analytic",),
    })
    with caplog.at_level(logging.INFO, logger="zsrpsim.experiments"):
        rows = ex.run_experiment(scenario, spec)
    gaps = [r.getMessage() for r in caplog.records
            if "agrees with quadrature" in r.getMessage()]
    assert len(rows) == len(gaps) == 2
    assert gaps[0].startswith("fcr-rs at r_eve_m = 200: closed form ")


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
    # the CLI's file writer is the one writer: same bytes as the formatter,
    # no newline translation
    scenario, _ = ex.load_config(None)
    spec = ex.ExperimentSpec(
        **{**small_fig2_spec.__dict__, "schemes": (SchemeId.SCR_RS,), "evaluators": ("mc",)}
    )
    rows = ex.run_experiment(scenario, spec)
    out = tmp_path / "rows.csv"
    cli._emit(ex.format_csv(rows), str(out))
    assert out.read_bytes() == ex.format_csv(rows).encode()
