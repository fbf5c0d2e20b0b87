"""Outside-in tracer for the traced benchmark run.

The library imports its functions by name (`lm_roots` is bound in
`geometry`, `dynamics` and `policy`), so each listed function is replaced in
every `islmsim` module namespace that binds the original object.  Functions
that do real work get a span (name, start, end, parent, item); the scalar
evaluators, at about 1.5 us a call, are only counted.  `solve_ivp` is
wrapped where the library binds it and its work counters are read from the
result.  Spans stay in memory until the run writes them out; self time is the
span's duration minus the time covered by its child spans.

A listed function that no longer exists is reported as absent, with zero
counts, and is not an error.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (metric prefix, home module, attribute, kind).  "count" wrappers only count
# calls; "span" wrappers record a span and count calls.
TARGETS = (
    ("model.excess_money", "islmsim.model", "excess_money", "count"),
    ("model.excess_goods", "islmsim.model", "excess_goods", "count"),
    ("model.excess_money_many", "islmsim.model", "excess_money_many", "points"),
    ("model.validate_properties", "islmsim.model", "validate_properties", "span"),
    ("geometry.trace_lm_isocline", "islmsim.geometry", "trace_lm_isocline", "span"),
    ("geometry.lm_roots", "islmsim.geometry", "lm_roots", "span"),
    ("geometry.find_equilibria", "islmsim.geometry", "find_equilibria", "span"),
    ("dynamics.integrate", "islmsim.dynamics", "integrate", "span"),
    ("dynamics.solve_ivp", "scipy.integrate", "solve_ivp", "solver"),
    ("dynamics.reduced_simulate", "islmsim.dynamics", "reduced_simulate", "span"),
    ("dynamics.advance_reduced", "islmsim.dynamics", "advance_reduced", "span"),
    ("dynamics.attach_to_branch", "islmsim.dynamics", "attach_to_branch", "span"),
    ("dynamics.detect_jumps", "islmsim.dynamics", "detect_jumps", "span"),
    ("dynamics.detect_cycle", "islmsim.dynamics", "detect_cycle", "span"),
    ("policy.apply_scenario", "islmsim.policy", "apply_scenario", "span"),
    ("policy.plan_stabilization", "islmsim.policy", "plan_stabilization", "span"),
    ("policy.run_with_controller", "islmsim.policy", "run_with_controller", "span"),
    ("policy.negative_rate_probe", "islmsim.policy", "negative_rate_probe", "span"),
    ("config.parse_config", "islmsim.config", "parse_config", "span"),
    ("output.emit_outputs", "islmsim.output", "emit_outputs", "bytes"),
    ("svg.render_portrait", "islmsim.svg", "render_portrait", "span"),
    ("cli.run_command", "islmsim.cli", "run_command", "span"),
)

ITEM = "item"


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, start, end, parent, item]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._item = None
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._item])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run_item(self, item_id: str, fn):
        """Run one benchmark item under a root span that groups its calls."""
        self._item = item_id
        idx = self._open(ITEM)
        try:
            return fn()
        finally:
            self._close(idx)
            self._item = None

    def _wrap(self, metric: str, kind: str, fn):
        counts = self.counts
        calls = metric + ".calls"

        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
            return counted

        if kind == "points":
            points = metric + ".points"

            @functools.wraps(fn)
            def counted_points(*args, **kwargs):
                counts[calls] += 1
                out = fn(*args, **kwargs)
                counts[points] += int(np.size(out))
                return out
            return counted_points

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            counts[calls] += 1
            idx = self._open(metric)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if kind == "solver":
                counts[metric + ".nfev"] += int(out.nfev)
                counts[metric + ".njev"] += int(out.njev)
                counts[metric + ".nlu"] += int(out.nlu)
                counts[metric + ".samples"] += int(np.size(out.t))
            elif kind == "bytes":
                counts["output.bytes_written"] += sum(Path(p).stat().st_size for p in out)
            return out
        return spanned

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "islmsim" or name.startswith("islmsim."))]
        for metric, home, attr, kind in TARGETS:
            original = getattr(importlib.import_module(home), attr, None)
            if original is None:
                self.absent.append(metric)
                continue
            wrapped = self._wrap(metric, kind, original)
            bound = 0
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
                        self._patches.append((module, name, original))
                        bound += 1
            if not bound:
                self.absent.append(metric)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[k]
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(("name", "start", "end", "parent", "item"))
            w.writerows(self.spans)
