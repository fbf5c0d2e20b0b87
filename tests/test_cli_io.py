import contextlib
import copy
import json
import math
import re
import tempfile
import tracemalloc
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import islmsim.cli
from islmsim.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, RUN_SECTIONS, main,
                         run_command)
from islmsim.config import (
    _CONFIG,
    _REQUIRED,
    MAX_DENSITY,
    ConfigError,
    _Choice,
    _List,
    _Number,
    _Range,
    _Record,
    _Stride,
    _Tagged,
    parse_config,
    parse_config_dict,
    serialize_config,
)
from islmsim.dynamics import JumpEvent, Trajectory
from islmsim.model import ModelDomainError, start_condition, validate_properties
from islmsim.output import (
    TABLE_BLOCK_ROWS,
    RunLockError,
    acquire_run_lock,
    isocline_document,
    isocline_from_document,
    read_trajectory,
    trajectory_table,
    write_json_document,
    write_trajectory,
)


def shipped_config(name: str) -> dict:
    text = resources.files("islmsim").joinpath(f"configs/{name}.json").read_text()
    return json.loads(text)


def write_config(tmp_path: Path, raw: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# configuration parsing

@pytest.mark.parametrize("name", ["reference", "no_trap", "two_window",
                                  "three_window", "steep_is", "fiscal_ramp"])
def test_shipped_configs_parse_and_round_trip(name, tmp_path):
    raw = shipped_config(name)
    path = write_config(tmp_path, raw)
    config = parse_config(path)
    text = serialize_config(config)
    config2 = parse_config_dict(json.loads(text))
    assert config == config2
    assert serialize_config(config2) == text


def test_shipped_reference_matches_builder():
    from islmsim.reference import reference_spec
    raw = shipped_config("reference")
    config = parse_config_dict(raw)
    assert config.model == reference_spec()


def test_negative_epsilon_is_rejected_with_field_name(tmp_path):
    raw = shipped_config("reference")
    raw["model"]["params"]["epsilon"] = -1.0
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config(write_config(tmp_path, raw))


def test_unknown_keys_are_rejected(tmp_path):
    for mutate, where in [
        (lambda r: r.update(extra=1), "extra"),
        (lambda r: r["domain"].update(tollerance=1e-6), "tollerance"),
        (lambda r: r["model"]["params"].update(alpha_speed=2.0), "alpha_speed"),
        (lambda r: r["simulate"].update(rtoll=1e-9), "rtoll"),
    ]:
        raw = shipped_config("reference")
        mutate(raw)
        with pytest.raises(ConfigError, match=where):
            parse_config(write_config(tmp_path, raw))


def test_syntax_error_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "model": [,]\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match=r"line 2"):
        parse_config(path)


def test_degenerate_range_is_rejected(tmp_path):
    raw = shipped_config("reference")
    raw["domain"]["y_range"] = [2.0, 2.0]
    with pytest.raises(ConfigError, match="y_range"):
        parse_config(write_config(tmp_path, raw))


@pytest.mark.parametrize("section, key, value", [
    ("domain", "y_range", [0.0, math.nan]),
    ("domain", "r_range", [-0.1, math.inf]),
    ("domain", "grid_n", math.nan),
    ("domain", "y_steps", math.inf),
    ("simulate", "r0", -math.inf),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, section, key, value):
    # json writes NaN and Infinity, and reads them back, unless told not to
    raw = shipped_config("reference")
    raw[section][key] = value
    cfg = write_config(tmp_path, raw)
    with pytest.raises(ConfigError, match=f"'{key}' must be finite"):
        parse_config(cfg)
    assert run_command(["validate", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "islmsim: config error:" in err and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "validation.json").exists()


def test_an_integer_too_large_for_a_float_is_a_config_error(tmp_path):
    raw = shipped_config("reference")
    raw["model"]["params"]["m_stock"] = 10 ** 400
    with pytest.raises(ConfigError, match="'m_stock' must be finite"):
        parse_config(write_config(tmp_path, raw))


@pytest.mark.parametrize("key, value", [("scan_n", 499.99), ("grid_n", 150.5),
                                        ("y_steps", 700.5)])
def test_a_density_that_is_not_a_whole_number_is_a_config_error(tmp_path, key, value):
    raw = shipped_config("reference")
    raw["domain"][key] = value
    with pytest.raises(ConfigError, match=rf"domain: '{key}' must be a whole number"):
        parse_config(write_config(tmp_path, raw))
    raw["domain"][key] = 700.0
    assert getattr(parse_config(write_config(tmp_path, raw)).domain, key) == 700


def test_cli_scenario_validates_at_the_configured_grid(tmp_path, monkeypatch):
    import islmsim.policy
    seen = []

    def spy(spec, y_range, r_range, grid_n=200):
        seen.append(grid_n)
        return validate_properties(spec, y_range, r_range, grid_n)
    monkeypatch.setattr(islmsim.policy, "validate_properties", spy)
    raw = shipped_config("fiscal_ramp")
    raw["domain"]["grid_n"] = 150
    cfg = write_config(tmp_path, raw)
    # each subcommand that runs a scenario, the controller's two included
    for cmd in ("scenario", "portrait", "stabilize"):
        seen.clear()
        assert run_command([cmd, "--config", str(cfg),
                            "--out", str(tmp_path / cmd), "--quiet"]) == 0
        assert seen and set(seen) == {150}, cmd


@pytest.mark.parametrize("mode", [[], {}])
def test_a_mode_that_is_not_a_string_is_a_config_error(tmp_path, capsys, mode):
    raw = shipped_config("fiscal_ramp")
    raw["stabilize"]["mode"] = mode
    cfg = write_config(tmp_path, raw)
    with pytest.raises(ConfigError, match=r"\.stabilize: 'mode' must be one of"):
        parse_config(cfg)
    assert run_command(["validate", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "islmsim: config error:" in err and "stabilize" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# documents and tables

def test_trajectory_table_has_header_plus_one_line_per_sample():
    traj = Trajectory(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.1, 1.2]),
                      np.array([0.01, 0.02, 0.03]), "full-epsilon", "abc")
    text = trajectory_table(traj)
    lines = text.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "t,Y,R,regime"
    assert lines[1].endswith(",slow")


def test_trajectory_round_trip(tmp_path):
    traj = Trajectory(np.array([0.0, 0.5, 1.5]), np.array([1.0, 1.25, 1.5]),
                      np.array([0.01, 0.015, 0.025]), "full-epsilon", "abc")
    path = tmp_path / "traj.csv"
    path.write_text(trajectory_table(traj), encoding="utf-8")
    back = read_trajectory(path)
    assert np.array_equal(back.t, traj.t)
    assert np.array_equal(back.y, traj.y)
    assert np.array_equal(back.r, traj.r)


def _jumping_trajectory(n: int) -> Trajectory:
    """n samples and two jumps, the first across a block boundary of the table."""
    t = np.arange(n) * 0.01
    b = TABLE_BLOCK_ROWS
    jumps = (JumpEvent(t[b - 3], t[b + 3], 1.0, 0.02, 0.12, "up"),
             JumpEvent(t[n // 2], t[n // 2 + 5], 2.0, 0.12, 0.02, "down"))
    return Trajectory(t, 1.0 + np.sin(t), 0.05 + 0.01 * np.cos(t),
                      "full-epsilon", "abc", jumps)


def test_written_trajectory_equals_its_table_row_by_row(tmp_path):
    traj = _jumping_trajectory(3 * TABLE_BLOCK_ROWS + 7)
    path = tmp_path / "traj.csv"
    write_trajectory(path, traj)
    text = trajectory_table(traj)
    assert path.read_bytes() == text.encode("utf-8")
    # one row at a time, the regime from the jump intervals directly
    rows = ["t,Y,R,regime\n"]
    for t, y, r in zip(traj.t.tolist(), traj.y.tolist(), traj.r.tolist()):
        jump = any(j.t_start - 1e-12 <= t <= j.t_end + 1e-12 for j in traj.jumps)
        rows.append(f"{t!r},{y!r},{r!r},{'jump' if jump else 'slow'}\n")
    assert text == "".join(rows)
    assert text.count(",jump\n") == 7 + 6


def test_writing_a_trajectory_holds_no_whole_table(tmp_path):
    # the table of 200k rows is about 10 MB; the writer holds a block of rows
    traj = _jumping_trajectory(200_000)
    path = tmp_path / "traj.csv"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_trajectory(path, traj)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 10_000_000
    assert peak < 1_000_000


def test_reading_a_trajectory_holds_no_whole_table(tmp_path):
    # reading the 10 MB table holds its three sample arrays, 4.8 MB, and a
    # line at a time; reading the text whole peaked near 48 MB
    path = tmp_path / "traj.csv"
    write_trajectory(path, _jumping_trajectory(200_000))
    read_trajectory(path)  # a first, untraced call fills the free lists
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        back = read_trajectory(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(back) == 200_000
    assert peak <= 2 * (back.t.nbytes + back.y.nbytes + back.r.nbytes)


def test_written_trajectory_reads_back_bit_for_bit(tmp_path):
    # samples across magnitudes and signs, subnormal and negative zero included
    rng = np.random.default_rng(7)
    n = 3 * TABLE_BLOCK_ROWS + 7
    values = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-300, 300, (2, n))
    values[:, :3] = [[-0.0, 5e-324, 1.0 / 3.0], [2.0 ** -1074, -1.7976931348623157e308, 0.1]]
    traj = _jumping_trajectory(n)
    traj = Trajectory(traj.t, values[0], values[1], "full-epsilon", "abc", traj.jumps)
    path = tmp_path / "traj.csv"
    write_trajectory(path, traj)
    back = read_trajectory(path)
    for a, b in ((back.t, traj.t), (back.y, traj.y), (back.r, traj.r)):
        assert a.tobytes() == b.tobytes()


def test_isocline_document_round_trip(ref_isocline):
    doc = isocline_document(ref_isocline)
    assert doc["schema_version"] == "1"
    back = isocline_from_document(doc)
    assert len(back.branches) == len(ref_isocline.branches)
    assert len(back.folds) == len(ref_isocline.folds)
    for a, b in zip(back.branches, ref_isocline.branches):
        assert np.array_equal(a.ys, b.ys)
        assert np.array_equal(a.rs, b.rs)
        assert a.stability == b.stability
        assert a.lo_end == b.lo_end and a.hi_end == b.hi_end
    for a, b in zip(back.folds, ref_isocline.folds):
        assert (a.y, a.r, a.kind) == (b.y, b.r, b.kind)
    # byte-level determinism of the serialized form
    assert json.dumps(doc, sort_keys=True) == \
        json.dumps(isocline_document(ref_isocline), sort_keys=True)


def test_run_lock_excludes_concurrent_runs(tmp_path):
    lock = acquire_run_lock(tmp_path)
    with pytest.raises(RunLockError):
        acquire_run_lock(tmp_path)
    lock.unlink()
    acquire_run_lock(tmp_path).unlink()


# ---------------------------------------------------------------------------
# CLI commands

def test_cli_validate_reference(tmp_path):
    cfg = write_config(tmp_path, shipped_config("reference"))
    assert run_command(["validate", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--quiet"]) == 0
    doc = json.loads((tmp_path / "o" / "validation.json").read_text())
    assert doc["passed"] is True
    assert doc["schema_version"] == "1"


def test_cli_validate_broken_spec_exits_1(tmp_path):
    raw = shipped_config("reference")
    raw["model"]["is_block"]["i_y"] = 1.2
    cfg = write_config(tmp_path, raw)
    assert run_command(["validate", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--quiet"]) == 1
    doc = json.loads((tmp_path / "o" / "validation.json").read_text())
    assert doc["passed"] is False


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_cli_validate_writes_strict_json_for_a_nan_worst_value(tmp_path):
    # no LM root at the low-income edge leaves the check without a worst value
    raw = shipped_config("reference")
    raw["model"]["params"]["m_stock"] = 60
    cfg = write_config(tmp_path, raw)
    assert run_command(["validate", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--quiet"]) == 1
    doc = _strict_json((tmp_path / "o" / "validation.json").read_text())
    failed = [c for c in doc["conditions"] if not c["passed"]]
    assert failed and all(c["worst_value"] is None for c in failed)


def test_json_documents_write_non_finite_numbers_as_null(tmp_path):
    path = tmp_path / "doc.json"
    write_json_document(path, {"residual": math.inf, "v": [-math.inf, math.nan, 0.5],
                               "pair": (1.0, float("nan"))})
    assert _strict_json(path.read_text()) == {"residual": None, "v": [None, None, 0.5],
                                              "pair": [1.0, None]}


def test_cli_isocline_reference_structure(tmp_path):
    cfg = write_config(tmp_path, shipped_config("reference"))
    assert run_command(["isocline", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--quiet"]) == 0
    doc = json.loads((tmp_path / "o" / "isocline.json").read_text())
    assert len(doc["branches"]) == 3
    assert len(doc["folds"]) == 2
    stabilities = {b["stability"] for b in doc["branches"]}
    assert stabilities == {"stable", "unstable"}


def test_cli_simulate_zero_horizon_writes_empty_trajectory(tmp_path):
    raw = shipped_config("reference")
    raw["simulate"]["t_end"] = 0.0
    cfg = write_config(tmp_path, raw)
    assert run_command(["simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--quiet"]) == 0
    lines = (tmp_path / "o" / "trajectory.csv").read_text().strip().splitlines()
    assert lines == ["t,Y,R,regime"]
    doc = json.loads((tmp_path / "o" / "simulation.json").read_text())
    assert doc["samples"] == 0


def test_cli_simulate_zero_horizon_validates_before_it_returns(tmp_path, capsys):
    raw = shipped_config("no_trap")
    raw["simulate"]["t_end"] = 0.0
    raw["model"]["money"]["l_slope"] = 1e300
    cfg = write_config(tmp_path, raw)
    assert run_command(["simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "initial model fails validation: ['dM_dY < dL_dY']" in capsys.readouterr().err
    assert not (tmp_path / "o" / "trajectory.csv").exists()


def test_cli_portrait_contains_one_jump_segment(tmp_path):
    cfg = write_config(tmp_path, shipped_config("fiscal_ramp"))
    assert run_command(["portrait", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--quiet"]) == 0
    svg = (tmp_path / "o" / "portrait.svg").read_text()
    assert svg.count('class="jump"') == 1
    assert svg.count('class="branch') == 3
    assert 'class="is-curve"' in svg


def test_cli_scenario_runs_ramp(tmp_path):
    cfg = write_config(tmp_path, shipped_config("fiscal_ramp"))
    assert run_command(["scenario", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--quiet"]) == 0
    doc = json.loads((tmp_path / "o" / "scenario.json").read_text())
    assert len(doc["jumps"]) == 1
    assert doc["jumps"][0]["direction"] == "up"


def test_cli_locked_output_directory_fails(tmp_path):
    cfg = write_config(tmp_path, shipped_config("reference"))
    out = tmp_path / "o"
    lock = acquire_run_lock(out)
    try:
        assert run_command(["validate", "--config", str(cfg),
                            "--out", str(out), "--quiet"]) == 2
    finally:
        lock.unlink()


def test_cli_missing_section_is_validation_error(tmp_path):
    raw = shipped_config("reference")
    del raw["simulate"]
    cfg = write_config(tmp_path, raw)
    assert run_command(["simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--quiet"]) == 1


def test_cli_mode_and_epsilon_overrides(tmp_path):
    raw = shipped_config("reference")
    raw["simulate"].update(t_end=12.0, mode="reduced", stride=0.05)
    cfg = write_config(tmp_path, raw)
    assert run_command(["simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--quiet",
                        "--epsilon", "0.005"]) == 0
    prov = json.loads((tmp_path / "o" / "provenance.json").read_text())
    assert prov["config"]["model"]["params"]["epsilon"] == 0.005
    doc = json.loads((tmp_path / "o" / "simulation.json").read_text())
    assert doc["mode"] == "singular-limit"


def test_cli_mode_override_reaches_every_section_with_a_mode(tmp_path):
    cfg = write_config(tmp_path, shipped_config("fiscal_ramp"))
    for mode in (None, "full"):
        flags = [] if mode is None else ["--mode", mode]
        assert run_command(["stabilize", "--config", str(cfg), "--out",
                            str(tmp_path / str(mode)), "--quiet", *flags]) == 0
    prov = json.loads((tmp_path / "full" / "provenance.json").read_text())
    assert prov["config"]["stabilize"]["mode"] == prov["config"]["scenario"]["mode"] == "full"
    assert (_data_files(tmp_path / "full")["controlled.csv"]
            != _data_files(tmp_path / "None")["controlled.csv"])


def test_cli_epsilon_override_out_of_range_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, shipped_config("reference"))
    assert run_command(["validate", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--quiet", "--epsilon", "5"]) == 1
    err = capsys.readouterr().err
    assert "islmsim: config error: --epsilon: epsilon must lie in (0, 1]" in err
    assert "Traceback" not in err


def test_cli_isocline_outside_the_model_domain_is_a_validation_failure(tmp_path, capsys):
    raw = shipped_config("reference")
    raw["model"]["money"]["m_y"] = raw["model"]["money"]["l_y"]
    cfg = write_config(tmp_path, raw)
    assert run_command(["isocline", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "islmsim: validation failure: l_y equals m_y" in err
    assert "Traceback" not in err


def test_a_jump_that_leaves_the_rate_range_is_a_validation_failure(tmp_path, capsys):
    # The first window's up jump finds no branch below the top of r_range:
    # validation fails on it, and no run starts.
    raw = shipped_config("fiscal_ramp")
    raw["model"]["money"]["windows"][0]["amp_l"] = 1e300
    cfg = write_config(tmp_path, raw)
    assert run_command(["validate", "--config", str(cfg),
                        "--out", str(tmp_path / "validate"), "--quiet"]) == 1
    assert "islmsim: failed: fold jumps land inside r_range" in capsys.readouterr().err
    for cmd in ("scenario", "stabilize", "portrait"):
        assert run_command([cmd, "--config", str(cfg),
                            "--out", str(tmp_path / cmd), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "islmsim: validation failure: " in err
        assert "the up jump" in err and "leaves the rate range" in err
        assert "Traceback" not in err
        assert not list((tmp_path / cmd).glob("*.csv")), cmd


# ---------------------------------------------------------------------------
# determinism

def _data_files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())
            if p.name != "provenance.json" and p.suffix != ".lock"}


def test_rerun_reproduces_byte_identical_outputs(tmp_path):
    cfg = write_config(tmp_path, shipped_config("fiscal_ramp"))
    for cmd in ("isocline", "scenario", "stabilize"):
        out_a, out_b = tmp_path / f"{cmd}-a", tmp_path / f"{cmd}-b"
        assert run_command([cmd, "--config", str(cfg), "--out", str(out_a),
                            "--quiet"]) == 0
        assert run_command([cmd, "--config", str(cfg), "--out", str(out_b),
                            "--quiet"]) == 0
        a, b = _data_files(out_a), _data_files(out_b)
        assert a.keys() == b.keys() and a, cmd
        for name in a:
            assert a[name] == b[name], f"{cmd}/{name} differs between runs"


def test_a_run_in_between_leaves_stabilize_outputs_unchanged(tmp_path):
    ramp = write_config(tmp_path, shipped_config("fiscal_ramp"), "ramp.json")
    three = write_config(tmp_path, shipped_config("three_window"), "three.json")
    runs = [("stabilize", ramp, "a"), ("isocline", three, "iso"), ("stabilize", ramp, "b")]
    for cmd, cfg, out in runs:
        assert run_command([cmd, "--config", str(cfg), "--out", str(tmp_path / out),
                            "--quiet"]) == 0
    a, b = _data_files(tmp_path / "a"), _data_files(tmp_path / "b")
    assert a.keys() == b.keys() and a
    for name in a:
        assert a[name] == b[name], f"stabilize/{name} differs after another run"


def test_scenario_and_stabilize_read_slow_time_in_both_modes(tmp_path):
    # full mode runs the configured slow-time horizon 1 / epsilon times over
    # in fast time, so the ramp crosses the fold and jumps as in the singular
    # limit
    raw = shipped_config("fiscal_ramp")
    cfg = write_config(tmp_path, raw)
    docs = {}
    for mode in ("reduced", "full"):
        for cmd in ("scenario", "stabilize"):
            out = tmp_path / f"{cmd}-{mode}"
            assert run_command([cmd, "--config", str(cfg), "--mode", mode,
                                "--out", str(out), "--quiet"]) == 0
            docs[cmd, mode] = json.loads((out / f"{cmd}.json").read_text())
    eps = raw["model"]["params"]["epsilon"]
    reduced, full = docs["scenario", "reduced"], docs["scenario", "full"]
    assert full["t_span"][1] == pytest.approx(reduced["t_span"][1] / eps, rel=1e-12)
    assert [j["direction"] for j in full["jumps"]] == \
        [j["direction"] for j in reduced["jumps"]] == ["up"]
    reduced, full = (docs["stabilize", mode]["comparison"] for mode in ("reduced", "full"))
    assert full["jumps_uncontrolled"] == reduced["jumps_uncontrolled"] == 1
    assert full["jumps_controlled"] == reduced["jumps_controlled"] == 0


def test_cli_simulate_reduced_runs_the_horizon_in_slow_time(tmp_path):
    raw = shipped_config("reference")
    cfg = write_config(tmp_path, raw)
    assert run_command(["simulate", "--config", str(cfg), "--mode", "reduced",
                        "--out", str(tmp_path / "o"), "--quiet"]) == 0
    doc = json.loads((tmp_path / "o" / "simulation.json").read_text())
    eps = raw["model"]["params"]["epsilon"]
    assert doc["mode"] == "singular-limit"
    assert doc["t_span"][1] == pytest.approx(eps * raw["simulate"]["t_end"], rel=1e-12)
    assert doc["cycle"] is not None


def test_module_entry_point_raises_no_runtime_warning():
    import os
    import subprocess
    import sys

    import islmsim

    src = str(Path(islmsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "islmsim.cli", "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: islmsim" in proc.stdout


# ---------------------------------------------------------------------------
# config fuzz: no input reaches a traceback

SHIPPED = ("reference", "no_trap", "two_window", "three_window", "steep_is", "fiscal_ramp")
SUBCOMMANDS = ("validate", "isocline", "equilibria", "simulate", "scenario", "stabilize",
               "portrait")
LEAF_VALUES = (math.nan, math.inf, -math.inf, 0, -1.0, 1e300, 10**400, "x", None, [], {},
               True)
# a full-mode simulate runs no further than this (fast time)
SHORT_T_END = 20.0


def _node_paths(node, path=()):
    """Paths to every value of a config below its root: scalars, lists and
    objects."""
    if path:
        yield path
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _node_paths(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _node_paths(item, path + (i,))


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def _section(raw, path):
    """The object at a path of object keys, or None where a mutation has
    replaced the path or an object on it by another value."""
    for key in path:
        raw = raw.get(key) if isinstance(raw, dict) else None
    return raw if isinstance(raw, dict) else None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """A number that float arithmetic takes without overflow."""
    return _is_number(x) and abs(x) <= 1e300


def _number_at(raw, path):
    """The finite number at a path of `raw`, or None where a mutation has
    replaced it or a list or object on the path."""
    for key in path:
        try:
            raw = raw[key]
        except (KeyError, IndexError, TypeError):
            return None
    return raw if _is_finite(raw) else None


@st.composite
def fuzzed_configs(draw):
    """A shipped config with one or two mutations: a value replaced (a scalar,
    or a whole list or object) by a leaf value; its trap windows swapped,
    overlapped or turned inside out; a number scaled by a factor near one (a
    whole number stays whole); one window's p and q shifted together by less
    than any shipped gap between windows; a number field other than a window
    rate scaled by a factor from 1/2 to 2 and held inside its field's bound;
    or one window moved, p and q together, up to 95% of the way to its
    neighbour (or to rate 0, or by its own width above the last window).  All
    but the first two keep each field's kind and bound, so most such configs
    parse and reach validation."""
    shipped = shipped_config(draw(st.sampled_from(SHIPPED)))
    raw = copy.deepcopy(shipped)
    numbers = [(path, kind) for path, _, kind in _slots(_CONFIG, shipped)
               if isinstance(kind, _Number) and path[-1] not in ("p", "q")]
    for _ in range(draw(st.integers(1, 2))):
        money = _section(raw, ("model", "money"))
        windows = None if money is None else money.get("windows")
        if not (isinstance(windows, list) and all(isinstance(w, dict) for w in windows)):
            windows = []
        movable = [w for w in windows if _is_finite(w.get("p")) and _is_finite(w.get("q"))]
        finite = [path for path in _node_paths(raw) if _is_finite(_at(raw, path))]
        bounded = [(path, kind) for path, kind in numbers if _number_at(raw, path) is not None]
        how = draw(st.sampled_from(("leaf", "leaf", "windows", "scale", "shift", "bounded",
                                    "between")))
        if how == "windows" and windows:
            how = draw(st.sampled_from(("swap", "overlap", "inside-out")))
            if how == "swap" and len(windows) > 1:
                windows[0], windows[1] = windows[1], windows[0]
            elif how == "overlap" and len(windows) > 1:
                windows[1]["p"] = windows[0].get("p")
            else:
                windows[-1]["p"], windows[-1]["q"] = windows[-1].get("q"), windows[-1].get("p")
        elif how == "shift" and movable:
            w = draw(st.sampled_from(movable))
            shift = draw(st.floats(-0.01, 0.01))
            w["p"], w["q"] = w["p"] + shift, w["q"] + shift
        elif how == "bounded" and bounded:
            path, kind = draw(st.sampled_from(bounded))
            x = _number_at(raw, path) * draw(st.floats(0.5, 2.0))
            x = min(max(x, -math.inf if kind.least is None else kind.least),
                    math.inf if kind.most is None else kind.most)
            _at(raw, path[:-1])[path[-1]] = round(x) if kind.whole else x
        elif how == "between" and movable:
            i = draw(st.sampled_from([i for i, w in enumerate(windows)
                                      if any(w is m for m in movable)]))
            w = windows[i]
            left = windows[i - 1].get("q") if i else 0.0
            right = windows[i + 1].get("p") if i + 1 < len(windows) else 2 * w["q"] - w["p"]
            if _is_finite(left) and _is_finite(right):
                frac = draw(st.floats(-0.95, 0.95))
                shift = frac * (w["p"] - left if frac < 0 else right - w["q"])
                w["p"], w["q"] = w["p"] + shift, w["q"] + shift
        elif how == "scale" and finite:
            path = draw(st.sampled_from(finite))
            x = _at(raw, path) * draw(st.floats(0.9, 1.1))
            _at(raw, path[:-1])[path[-1]] = round(x) if isinstance(_at(raw, path), int) else x
        else:
            path = draw(st.sampled_from(list(_node_paths(raw))))
            _at(raw, path[:-1])[path[-1]] = copy.deepcopy(draw(st.sampled_from(LEAF_VALUES)))
    # A mutation cannot lengthen a run: a horizon of 1e300 asks for an endless
    # run, not a traceback.  A full-mode simulate stops at SHORT_T_END.  A
    # section that is no longer an object has no horizon to clamp.
    for where, key in ((("simulate",), "t_end"), (("scenario",), "horizon"),
                       (("stabilize", "ramp"), "t_end")):
        part = _section(raw, where)
        if where[0] not in shipped or part is None:
            continue
        limit = _at(shipped, where)[key]
        if where == ("simulate",) and part.get("mode", "full") == "full":
            limit = SHORT_T_END
        value = part.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool) and value > limit:
            part[key] = limit
    return raw


# the run sections whose start each dynamics subcommand runs from, in order
# of preference: a portrait draws the scenario, or else the simulation
RUN_STARTS = {"simulate": ("simulate",), "scenario": ("scenario",),
              "stabilize": ("stabilize",), "portrait": ("scenario", "simulate")}


@contextlib.contextmanager
def _model_domain_errors():
    """The `ModelDomainError`s that end the subcommands run inside, each still
    reported as its exit status."""
    seen = []
    dispatch = islmsim.cli._dispatch

    def recording(*args):
        try:
            return dispatch(*args)
        except ModelDomainError as exc:
            seen.append(exc)
            raise
    with mock.patch.object(islmsim.cli, "_dispatch", recording):
        yield seen


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fuzzed_configs())
def test_fuzzed_configs_end_in_a_documented_exit_status(raw):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = write_config(tmp, raw)
        status, domain_errors = {}, {}
        for cmd in SUBCOMMANDS:
            with _model_domain_errors() as domain_errors[cmd]:
                status[cmd] = main([cmd, "--config", str(cfg), "--out", str(tmp / cmd),
                                    "--quiet"])
            assert status[cmd] in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL), cmd
        try:
            config = parse_config(cfg)
        except ConfigError:
            return
        again = write_config(tmp, json.loads(serialize_config(config)), "again.json")
        assert parse_config(again) == config

        # validation is the pre-flight of every run: a run whose model and
        # start pass ends in no model-domain failure, and one whose model or
        # start fails exits 1 before it writes a table
        dom = config.domain
        model_ok = validate_properties(config.model, dom.y_range, dom.r_range,
                                       dom.grid_n).passed
        start_ok = {name: start_condition(config.model, s.y0, s.r0, dom.y_range,
                                          dom.r_range).passed
                    for name in RUN_SECTIONS if (s := getattr(config, name)) is not None}
        assert (status["validate"] == EXIT_OK) == (model_ok and all(start_ok.values()))
        for cmd, sections in RUN_STARTS.items():
            section = next((name for name in sections if name in start_ok), None)
            if section is None:  # no run: a missing section, or a portrait alone
                continue
            if model_ok and start_ok[section]:
                assert not domain_errors[cmd], (cmd, domain_errors[cmd])
            else:
                assert status[cmd] == EXIT_VALIDATION, cmd
                assert not list((tmp / cmd).glob("*.csv")), cmd


@pytest.mark.parametrize("name, path, value, argv, status, message", [
    # a ramp that ends before it starts, caught while parsing
    ("fiscal_ramp", ("stabilize", "ramp", "t_start"), 1e300, ["validate"], 1,
     "stabilize.ramp: drive interval must have positive length"),
    # a density no array can hold
    ("reference", ("domain", "y_steps"), 1e300, ["isocline"], 1,
     "domain: 'y_steps' must be at least 500 and at most 1000000"),
    # windows shifted far above r_range: the model has no LM root at the
    # low-income edge, and no branch inside r_range catches the start
    ("fiscal_ramp", ("model", "params", "maturity_premium"), 1e300, ["portrait"], 1,
     "validation failure: initial model fails validation: "
     "['R_IS above lowest LM branch at low income"),
    # a start beyond the traced income range
    ("reference", ("simulate", "y0"), 6.0, ["simulate", "--mode", "reduced"], 1,
     "validation failure: the start fails validation: ['run start comes to rest inside "
     "the domain (the start income 6.0 lies outside y_range"),
    # a model that fails validation, whose steps near 1e-299 would never reach
    # the horizon, is refused before it integrates
    ("no_trap", ("model", "money", "l_slope"), 1e300, ["simulate"], 1,
     "validation failure: initial model fails validation: ['dM_dY < dL_dY']"),
    # strides whose sample grids no array can hold, caught while parsing
    ("reference", ("simulate", "stride"), 1e-300, ["simulate"], 1,
     "simulate: 'stride' must put at most 1000000 samples on 't_end'"),
    ("reference", ("simulate", "stride"), 1e-300, ["simulate", "--mode", "reduced"], 1,
     "simulate: 'stride' must put at most 1000000 samples on 't_end'"),
    ("fiscal_ramp", ("scenario", "stride"), 1e-300, ["scenario"], 1,
     "scenario: 'stride' must put at most 1000000 samples on 'horizon'"),
    # scenario steps that are no list: a number, null or true reached a
    # TypeError, an object passed as no steps, a string failed per character
    ("fiscal_ramp", ("scenario", "steps"), 6.0, ["validate"], 1,
     "scenario: 'steps' must be a list"),
    ("fiscal_ramp", ("scenario", "steps"), None, ["scenario"], 1,
     "scenario: 'steps' must be a list"),
    ("fiscal_ramp", ("scenario", "steps"), True, ["portrait"], 1,
     "scenario: 'steps' must be a list"),
    ("fiscal_ramp", ("scenario", "steps"), {}, ["scenario"], 1,
     "scenario: 'steps' must be a list"),
    ("fiscal_ramp", ("scenario", "steps"), "x", ["stabilize"], 1,
     "scenario: 'steps' must be a list"),
    # a relative tolerance below RK45's floor, which RK45 raised to the floor
    # with a warning while the echo kept the value asked for
    ("reference", ("simulate", "rtol"), 1e-300, ["simulate"], 1,
     "simulate: 'rtol' must be at least 2.220446049250313e-14"),
    # a slow-time horizon that a full-mode run, in fast time, cannot hold
    ("fiscal_ramp", ("model", "params", "epsilon"), 5e-324, ["scenario", "--mode", "full"], 1,
     "scenario: epsilon 4.94066e-324 puts the run's times beyond the float range"),
])
def test_fuzz_reproducers_end_in_their_exit_status(tmp_path, capsys, name, path, value, argv,
                                                   status, message):
    raw = shipped_config(name)
    _at(raw, path[:-1])[path[-1]] = value
    cfg = write_config(tmp_path, raw)
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) \
        == status
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the config table: a boundary sweep of every field, and the README's table

KIND_NAMES = {_Range: "range pair", _Choice: "choice", _Stride: "stride", _List: "list",
              _Record: "object", _Tagged: "step"}
ABSENT = object()  # a probe that deletes the field


def _table_rows(record=_CONFIG, prefix=""):
    """(path, kind, default) for every field of the config table, and for
    each kind of scenario step (its default `...`)."""
    for f in record.fields:
        path = prefix + f.key
        yield path, f.kind, f.default
        item = f.kind.item if isinstance(f.kind, _List) else f.kind
        if isinstance(item, _Tagged):
            for name, variant in item.names.items():
                yield f"{path}[{name}]", variant, ...
                yield from _table_rows(variant, f"{path}[{name}].")
        elif isinstance(item, _Record):
            yield from _table_rows(item, f"{path}[]." if item is not f.kind else f"{path}.")


def _readme_row(path, kind, default) -> str:
    if isinstance(kind, _Number):
        name = "whole number" if kind.whole else "number"
    else:
        name = KIND_NAMES[type(kind)]
    if getattr(kind, "clock", ""):
        name += f", {kind.clock} time"
    if default is _REQUIRED:
        shown = "required"
    elif default is ...:
        shown = "—"
    elif isinstance(kind, _Record):
        shown = "optional"
    elif default is None:
        shown = "null" if kind.nullable else "unset"
    else:
        shown = f"`{json.dumps(kind.write(default))}`"
    bound = kind.bound
    if isinstance(kind, _List):  # a list's bound is its items'
        prefix = "'kind' " if isinstance(kind.item, _Tagged) else ""
        bound = f"each {prefix}{kind.item.bound}"
    return f"| `{path}` | {name} | {shown} | {bound or '—'} |"


def test_the_readme_lists_every_config_field_with_its_bound():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [_readme_row(*row) for row in _table_rows()]
    listed = [line for line in readme.splitlines() if line.startswith("| `")]
    assert listed == rows


def _sweep_base() -> dict:
    """fiscal_ramp with every optional field given: reference's simulate, a
    scenario stride, one step of each kind, a ramp start and protect_to_y."""
    raw = shipped_config("fiscal_ramp")
    raw["simulate"] = {**shipped_config("reference")["simulate"], "rtol": 1e-8, "atol": 1e-10}
    raw["scenario"]["stride"] = 0.01
    raw["scenario"]["steps"] += [{"kind": "fiscal-shift", "time": 1.0, "g": 0.1},
                                 {"kind": "monetary-step", "time": 2.0, "d_pi": 0.01,
                                  "d_ms": 0.1}]
    raw["scenario"]["steps"][0]["y_from"] = raw["stabilize"]["ramp"]["y_from"] = 2.8
    raw["stabilize"]["protect_to_y"] = 3.0
    return raw


def _slots(kind, raw, path=(), table_path=""):
    """(path into `raw`, the table path, kind) for every field of the table
    found in `raw`, every list item, and each scenario step's 'kind'."""
    if isinstance(kind, _Record):
        for f in kind.fields:
            if f.key in raw:
                here = f"{table_path}.{f.key}".lstrip(".")
                yield path + (f.key,), here, f.kind
                yield from _slots(f.kind, raw[f.key], path + (f.key,), here)
    elif isinstance(kind, _List):
        item_path = table_path + ("[]" if isinstance(kind.item, _Record) else "")
        for i, item in enumerate(raw):
            yield path + (i,), table_path, kind.item
            yield from _slots(kind.item, item, path + (i,), item_path)
    elif isinstance(kind, _Tagged):
        yield path + ("kind",), table_path, _Choice(kind.names)
        yield from _slots(kind.names[raw["kind"]], raw, path, f"{table_path}[{raw['kind']}]")


def _location(path) -> str:
    return "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def _probes(kind, value, holder) -> list:
    """Values to put in a slot: the wrong kind, a container for a leaf or a
    leaf for a container, null, and each bound with the floats either side
    of it (zero for a number with no bound, where a model rule may lie)."""
    if isinstance(kind, (_Record, _List, _Tagged)):
        return ["x", 1.0, None, True]
    probes = [1.0 if isinstance(kind, _Choice) else "x", [], {}, None, True]
    edges = []
    if isinstance(kind, _Number):
        edges = [0.0 if kind.least is None else kind.least, kind.most]
        if kind.whole:
            probes += [kind.least - 1, kind.most + 1]
    elif isinstance(kind, _Stride):
        edges = [0.0, holder[kind.span] / MAX_DENSITY]
    elif isinstance(kind, _Range):
        lo, hi = value
        probes += [[lo, lo], [hi, lo], [lo], [lo, hi, hi], [lo, math.nextafter(lo, math.inf)]]
    elif isinstance(kind, _Choice):
        probes += sorted(kind.names)
    for edge in edges:
        if edge is not None:
            probes += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    return probes


def boundary_sweep():
    """(config, the probed field's name, the path of the object holding it)
    for every probe of every slot of the sweep's base config, and for every
    field deleted."""
    base = _sweep_base()
    for path, _, kind in _slots(_CONFIG, base):
        holder = _at(base, path[:-1])
        name = path[-1] if isinstance(path[-1], str) else path[-2]
        for probe in [ABSENT, *_probes(kind, holder[path[-1]], holder)]:
            if probe is ABSENT and isinstance(path[-1], int):
                continue
            raw = copy.deepcopy(base)
            if probe is ABSENT:
                del _at(raw, path[:-1])[path[-1]]
            else:
                _at(raw, path[:-1])[path[-1]] = probe
            yield raw, name, _location(path[:-1])


def test_the_boundary_sweep_reaches_every_field_of_the_table():
    rows = {path for path, _, default in _table_rows() if default is not ...}
    assert {table_path for _, table_path, _ in _slots(_CONFIG, _sweep_base())} == rows


def test_every_field_at_its_bounds_parses_or_names_itself():
    """Each config of the boundary sweep parses, and then round-trips through
    its echo, or fails with a config error that names the probed field or
    lies at the object holding it (a rule across that object's fields)."""
    accepted = 0
    for raw, name, holder in boundary_sweep():
        try:
            config = parse_config_dict(raw)
        except ConfigError as exc:
            assert re.search(rf"\b{re.escape(name)}\b", str(exc)) or exc.path == holder, \
                (name, str(exc))
            continue
        accepted += 1
        text = serialize_config(config)
        again = parse_config_dict(json.loads(text))
        assert again == config and serialize_config(again) == text, name
    assert accepted
