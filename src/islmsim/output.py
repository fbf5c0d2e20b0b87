"""Serialization of runs: trajectory tables, structured result documents,
provenance records, and the per-directory run lock.

All data files are written deterministically (sorted keys, shortest
round-trip float representation, strict JSON with non-finite numbers as
null); wall-clock timestamps appear only in the provenance record.
"""

from __future__ import annotations

import json
import math
import os
import time
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .dynamics import FULL_MODE, CycleSummary, Trajectory
from .geometry import Branch, Equilibrium, FoldPoint, LMIsocline
from .model import ValidationReport

__all__ = [
    "SCHEMA_VERSION",
    "RunLockError",
    "acquire_run_lock",
    "release_run_lock",
    "write_json_document",
    "trajectory_table",
    "write_trajectory",
    "read_trajectory",
    "isocline_document",
    "isocline_from_document",
    "equilibria_document",
    "jumps_document",
    "cycle_document",
    "validation_document",
    "simulation_document",
    "provenance_record",
    "write_provenance",
    "emit_outputs",
]

SCHEMA_VERSION = "1"
LOCK_NAME = "islmsim.lock"


class RunLockError(RuntimeError):
    """Another run holds (or left behind) the output directory lock."""


def acquire_run_lock(out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / LOCK_NAME
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise RunLockError(
            f"output directory {out_dir} is locked by another run "
            f"(remove {lock} if that run is dead); concurrent runs must use "
            "distinct output directories") from None
    with os.fdopen(fd, "w") as fh:
        fh.write(f"pid={os.getpid()}\n")
    return lock


def release_run_lock(lock: Path) -> None:
    try:
        Path(lock).unlink()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# trajectory table (columnar text)

# Rows per block: the regime mask is computed, and the table written, one block
# of rows at a time, so writing a table holds no string of the whole of it.
TABLE_BLOCK_ROWS = 1024


def _table_rows(traj: Trajectory):
    """The lines of the trajectory table, header first, each ending in a newline."""
    yield "t,Y,R,regime\n"
    for a in range(0, len(traj), TABLE_BLOCK_ROWS):
        block = slice(a, a + TABLE_BLOCK_ROWS)
        t = traj.t[block]
        in_jump = np.zeros(len(t), dtype=bool)
        for j in traj.jumps:
            in_jump |= (t >= j.t_start - 1e-12) & (t <= j.t_end + 1e-12)
        for ti, yi, ri, jump in zip(t.tolist(), traj.y[block].tolist(),
                                    traj.r[block].tolist(), in_jump.tolist()):
            yield f"{ti!r},{yi!r},{ri!r},{'jump' if jump else 'slow'}\n"


def trajectory_table(traj: Trajectory) -> str:
    """Columnar text with the frozen header t,Y,R,regime."""
    return "".join(_table_rows(traj))


def write_trajectory(path: str | Path, traj: Trajectory) -> None:
    """Write `trajectory_table(traj)` a block of rows at a time."""
    rows = _table_rows(traj)
    with open(path, "w", encoding="utf-8") as fh:
        while block := "".join(islice(rows, TABLE_BLOCK_ROWS)):
            fh.write(block)


def read_trajectory(path: str | Path, mode: str = FULL_MODE,
                    spec_id: str = "") -> Trajectory:
    """Read a `write_trajectory` table back.  A first pass counts the rows, a
    second parses them line by line into arrays of that length, so reading
    holds the arrays and one line, not the whole table."""
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "t,Y,R,regime":
            raise ValueError(f"{path}: not a trajectory table (bad header)")
        n = sum(1 for ln in fh if not ln.isspace())
        fh.seek(0)
        fh.readline()
        t, y, r = np.empty(n), np.empty(n), np.empty(n)
        for k, ln in enumerate(ln for ln in fh if not ln.isspace()):
            a, b, c, _ = ln.split(",")
            t[k], y[k], r[k] = float(a), float(b), float(c)
    return Trajectory(t, y, r, mode, spec_id)


# ---------------------------------------------------------------------------
# structured documents

def _finite_or_null(value):
    """Copy of a document with every non-finite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_json_document(path: str | Path, doc: dict) -> None:
    """Write strict JSON: NaN and infinities are written as null."""
    text = json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _branch_entry(b: Branch) -> dict:
    return {
        "id": b.index,
        "stability": b.stability,
        "y": [float(v) for v in b.ys],
        "r": [float(v) for v in b.rs],
        "lo_end": list(b.lo_end),
        "hi_end": list(b.hi_end),
    }


def isocline_document(iso: LMIsocline,
                      equilibria: list[Equilibrium] | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "isocline",
        "y_range": list(iso.y_range),
        "r_range": list(iso.r_range),
        "branches": [_branch_entry(b) for b in iso.branches],
        "folds": [{"y": f.y, "r": f.r, "kind": f.kind} for f in iso.folds],
    }
    if equilibria is not None:
        doc["equilibria"] = equilibria_document(equilibria)["equilibria"]
    return doc


def isocline_from_document(doc: dict) -> LMIsocline:
    """The isocline of a document, for drawing and counting only: its branches
    have no rate interval (-1), so no fast-flow landing can be looked up on it."""
    if doc.get("kind") != "isocline":
        raise ValueError("not an isocline document")
    branches = []
    for e in doc["branches"]:
        branches.append(Branch(
            ys=np.asarray(e["y"], dtype=float),
            rs=np.asarray(e["r"], dtype=float),
            stability=e["stability"],
            lo_end=tuple(e["lo_end"]),
            hi_end=tuple(e["hi_end"]),
            index=e["id"],
        ))
    folds = tuple(FoldPoint(f["y"], f["r"], f["kind"]) for f in doc["folds"])
    return LMIsocline(tuple(branches), folds, tuple(doc["y_range"]), tuple(doc["r_range"]))


def equilibria_document(equilibria: list[Equilibrium]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "equilibria",
        "equilibria": [{
            "y": e.y,
            "r": e.r,
            "classification": e.classification,
            "eigenvalues": [[ev.real, ev.imag] for ev in e.eigenvalues],
            "trace": e.trace,
            "det": e.det,
            "disc": e.disc,
            "degenerate": e.degenerate,
            "branch": e.branch_index,
        } for e in equilibria],
    }


def jumps_document(jumps) -> list[dict]:
    return [{
        "t_start": j.t_start, "t_end": j.t_end, "y": j.y_at_jump,
        "r_from": j.r_from, "r_to": j.r_to, "direction": j.direction,
    } for j in jumps]


def cycle_document(cycle: CycleSummary | None) -> dict | None:
    if cycle is None:
        return None
    return {
        "period": cycle.period,
        "orientation": cycle.orientation,
        "jumps": jumps_document(cycle.jumps),
        "y_turning": list(cycle.y_turning),
        "r_extent": list(cycle.r_extent),
        "t_start": cycle.t_start,
    }


def validation_document(report: ValidationReport) -> dict:
    doc = report.to_dict()
    doc["schema_version"] = SCHEMA_VERSION
    doc["kind"] = "validation"
    return doc


def simulation_document(traj: Trajectory, cycle: CycleSummary | None,
                        trajectory_file: str | None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "simulation",
        "mode": traj.mode,
        "spec_id": traj.spec_id,
        "samples": len(traj),
        "t_span": [float(traj.t[0]), float(traj.t[-1])] if len(traj) else [],
        "jumps": jumps_document(traj.jumps),
        "cycle": cycle_document(cycle),
        "trajectory_file": trajectory_file,
    }


def provenance_record(config_echo: dict, command: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "provenance",
        "tool": "islmsim",
        "version": _version,
        "command": command,
        "created_unix": time.time(),
        "config": config_echo,
        "seeds": None,  # reserved; nothing is randomized in schema version 1
    }


def write_provenance(out_dir: str | Path, config_echo: dict, command: str) -> Path:
    path = Path(out_dir) / "provenance.json"
    write_json_document(path, provenance_record(config_echo, command))
    return path


def emit_outputs(out_dir: str | Path, documents: dict[str, dict],
                 trajectories: dict[str, Trajectory], svgs: dict[str, str]) -> list[Path]:
    """Write every artifact of a run into its output directory.

    `documents` maps file stems to structured documents, `trajectories` maps
    stems to trajectories (each with its jumps), and `svgs` maps stems to rendered
    markup.  Returns the list of written paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for stem, doc in documents.items():
        path = out_dir / f"{stem}.json"
        write_json_document(path, doc)
        written.append(path)
    for stem, traj in trajectories.items():
        path = out_dir / f"{stem}.csv"
        write_trajectory(path, traj)
        written.append(path)
    for stem, markup in svgs.items():
        path = out_dir / f"{stem}.svg"
        path.write_text(markup, encoding="utf-8")
        written.append(path)
    return written
