import json
import math
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from islmsim.cli import run_command
from islmsim.config import ConfigError, parse_config, parse_config_dict, serialize_config
from islmsim.dynamics import JumpEvent, Trajectory
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
    # The spec passes validation, but the first window's up jump finds no
    # branch below the top of r_range.
    raw = shipped_config("fiscal_ramp")
    raw["model"]["money"]["windows"][0]["amp_l"] = 1e300
    cfg = write_config(tmp_path, raw)
    assert run_command(["validate", "--config", str(cfg),
                        "--out", str(tmp_path / "validate"), "--quiet"]) == 0
    for cmd in ("scenario", "stabilize"):
        assert run_command([cmd, "--config", str(cfg),
                            "--out", str(tmp_path / cmd), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "islmsim: validation failure: the up jump" in err
        assert "leaves the rate range" in err
        assert "Traceback" not in err


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
