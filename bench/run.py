"""islmsim benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload geometry-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from `src/`
and the oracles from `tests/oracles.py`.  Workloads and metrics are listed in
BENCHMARK.json and explained in bench/METRICS.md.

With `--trace 0` the timed phase repeats rounds of the workload's fixed batch
of items, each round on freshly generated inputs, for about `--seconds` of
round time, and reports the end-to-end metrics, with the timings scaled to a
reference host speed sampled while they run (SpeedProbe).  With `--trace 1` it
runs round 0 untraced, under the outside-in tracer, and untraced again, and
reports the per-layer metrics plus the tracing overhead.  Every item is checked against
the oracles after the timed phase.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("geometry-sweep", "full-epsilon", "policy-reduced", "cli")
SETUP_REPEATS = 3
# The speed probe's rate, and each reference kernel's time at the faster of
# the two speed levels of the machine the bounds were set on (Intel Xeon,
# 2 vCPUs): `wall_ref_s` and `setup_s` are times at the speed where the
# kernels take these times.
PROBE_HZ = 40
REF_PYTHON_KERNEL_S = 0.38e-3
REF_NUMPY_KERNEL_S = 0.70e-3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the library, build round 0 and exit (used to time set-up)")
    return ap.parse_args(argv)


def _use_checkout() -> None:
    """Put the checkout's library and oracles first on the import path."""
    missing = [p for p in (ROOT / "src" / "islmsim" / "__init__.py", ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        raise SystemExit(f"bench: not a source checkout, missing {', '.join(map(str, missing))}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def _work_dir(tag: str) -> Path:
    path = OUT_DIR / f"work-{os.getpid()}-{tag}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes that import the library and build
    round 0, as (wall times, the same at reference speed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    walls, at_ref = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
        kernel_mean, spent = (float(x) for x in proc.stdout.split()[-2:])
        walls.append(wall - spent)
        at_ref.append((wall - spent) * REF_PYTHON_KERNEL_S / kernel_mean)
    return walls, at_ref


def _python_kernel() -> None:
    """Fixed work that uses no library code: calls of a scalar Python float
    function, the kind of work the library's scalar evaluators do.  It imports
    nothing, so it can run while a set-up process is still importing."""

    def f(x, y):
        return 0.5 * x * x - math.exp(-y) + math.sqrt(abs(x) + 1.0)

    acc = 0.0
    for k in range(2000):
        acc += f(k * 1e-3, acc * 1e-6)


def _numpy_kernel() -> None:
    """The Python kernel plus operations on two-element numpy arrays, the kind
    of work the vector evaluators and the ODE stepper do.  Only for a process
    that has numpy loaded already."""
    _python_kernel()
    np = sys.modules["numpy"]
    v = np.array([0.1, 0.2])
    for _ in range(80):
        v = v + 0.01 * np.array([v[1], -v[0]])
        float(np.max(np.abs(v)))


class SpeedProbe:
    """Times the reference kernel PROBE_HZ times a second from a SIGALRM
    handler while the timed phase runs.

    The handler runs in the main thread between bytecodes, so its samples
    interleave finely with the items and see the host's speed at the same
    moments.  Its own time is kept in `spent` so the callers can take it out
    of their timings.
    """

    def __init__(self, kernel, ref_s: float):
        self.kernel = kernel
        self.ref_s = ref_s
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        self.sample()
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1.0 / PROBE_HZ, 1.0 / PROBE_HZ)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_round(items, tracer=None, probe=None):
    """Run a batch; returns (round wall, per-item latencies, per-item outcomes,
    mean reference-kernel time over the round or None without a probe).
    Time spent in the probe is not counted in the wall or the latencies."""
    def now() -> float:
        """Wall clock minus the time spent in the probe so far."""
        return time.perf_counter() - (probe.spent if probe else 0.0)

    latencies, outcomes = [], []
    n0 = len(probe.samples) if probe else 0
    t_round = now()
    for item in items:
        t0 = now()
        try:
            result = tracer.run_item(item.id, item.run) if tracer else item.run()
            error = None
        except Exception as exc:  # an item that raises is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(now() - t0)
        outcomes.append((result, error))
    wall = now() - t_round
    ref = statistics.fmean(probe.samples[n0:]) if probe and len(probe.samples) > n0 else None
    return wall, latencies, outcomes, ref


def _check_round(items, outcomes) -> list[tuple[str, str, str]]:
    """Oracle checks after the timer stops; returns (item id, kind, message)
    for each problem, where kind is "raised" or "wrong"."""
    problems = []
    for item, (result, error) in zip(items, outcomes):
        try:
            if error is not None:
                problems.append((item.id, "raised", error))
            else:
                problems += [(item.id, "wrong", p) for p in item.check(result)]
        finally:
            item.cleanup()
    return problems


def _tail(latencies: list[float]):
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        k = int(pct / 100.0 * n)      # samples at or below the percentile
        if n - k - 1 >= 10:
            return pct, ordered[k]
    return None


def _environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _per_layer(tracer, untraced_wall: float, traced_wall: float) -> dict:
    c = tracer.counts
    self_s = tracer.self_times()
    traces = c["geometry.trace_lm_isocline.calls"]
    samples = c["dynamics.solve_ivp.samples"]
    counts = ("model.excess_money.calls", "model.excess_goods.calls",
              "model.excess_money_many.calls", "model.excess_money_many.points",
              "geometry.trace_lm_isocline.calls", "geometry.lm_roots.calls",
              "dynamics.integrate.calls", "dynamics.solve_ivp.calls",
              "dynamics.solve_ivp.nfev", "dynamics.solve_ivp.njev", "dynamics.solve_ivp.nlu",
              "dynamics.attach_to_branch.calls", "policy.apply_scenario.calls",
              "output.bytes_written")
    timed = ("model.validate_properties", "geometry.trace_lm_isocline", "geometry.lm_roots",
             "geometry.find_equilibria", "dynamics.integrate", "dynamics.solve_ivp",
             "dynamics.reduced_simulate", "dynamics.advance_reduced", "dynamics.detect_jumps",
             "dynamics.detect_cycle", "policy.apply_scenario", "policy.plan_stabilization",
             "policy.run_with_controller", "policy.negative_rate_probe", "config.parse_config",
             "output.emit_outputs", "svg.render_portrait", "cli.run_command")
    out = {name: _metric(c[name], "count") for name in counts}
    out.update({f"{name}.self_s": _metric(self_s.get(name, 0.0), "s") for name in timed})
    out["geometry.lm_roots.calls_per_trace"] = _metric(
        tracer.calls_under("geometry.lm_roots", "geometry.trace_lm_isocline") / traces
        if traces else 0.0, "count")
    out["dynamics.solve_ivp.nfev_per_sample"] = _metric(
        c["dynamics.solve_ivp.nfev"] / samples if samples else 0.0, "count")
    out["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    args = _parse_args(argv)
    _use_checkout()
    logging.getLogger("islmsim").setLevel(logging.ERROR)
    sys.path.insert(0, str(BENCH_DIR))

    if args.setup_only:
        work = _work_dir("setup")
        try:
            with SpeedProbe(_python_kernel, REF_PYTHON_KERNEL_S) as probe:
                import workloads
                workloads.WORKLOADS[args.workload](args.seed, 0, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if not probe.samples:
            probe.sample()
        print(f"{statistics.fmean(probe.samples)!r} {probe.spent!r}")
        return 0

    setup, setup_ref = ([], []) if args.trace else _measure_setup(args)
    import workloads
    make_items = workloads.WORKLOADS[args.workload]
    env = _environment()
    print("env: " + json.dumps(env))

    latencies, walls, ref_walls, pending, works = [], [], [], [], []

    def run_round(round_idx: int, tag: str, tracer=None, keep: bool = True,
                  probe=None) -> float:
        work = _work_dir(tag)
        works.append(work)
        items = make_items(args.seed, round_idx, work)
        if tracer:
            tracer.install()
        try:
            wall, lats, outcomes, ref = _run_round(items, tracer, probe)
        finally:
            if tracer:
                tracer.uninstall()
        pending.append((items, outcomes, keep))
        if keep:
            latencies.extend(lats)
        if ref is not None:
            ref_walls.append(wall * probe.ref_s / ref)
        return wall

    try:
        if args.trace:
            # Round 0 untraced, traced, and untraced again: the overhead is
            # the traced wall minus the mean of the two untraced walls, so
            # warm-up in the first pass does not read as negative overhead.
            from tracer import Tracer
            tracer = Tracer()
            plain = run_round(0, "untraced-a", keep=False)
            traced = run_round(0, "traced", tracer)
            plain = 0.5 * (plain + run_round(0, "untraced-b", keep=False))
            spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write_spans(spans_file)
            metrics = _per_layer(tracer, plain, traced)
            print(f"spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
            if tracer.absent:
                print(f"absent (reported as 0): {', '.join(tracer.absent)}")
        else:
            round_idx = 0
            # another round starts only if a round of median length still
            # ends within --seconds, so a run measures about that long
            # whatever the length of its rounds
            with SpeedProbe(_numpy_kernel, REF_NUMPY_KERNEL_S) as probe:
                while round_idx == 0 or sum(walls) + statistics.median(walls) <= args.seconds:
                    walls.append(run_round(round_idx, f"r{round_idx}", probe=probe))
                    round_idx += 1
        # read before the checks, whose oracle scans would set the peak
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, attempted = [], 0
        for items, outcomes, keep in pending:
            found = _check_round(items, outcomes)
            if keep:
                problems += found
                attempted += len(items)
    finally:
        for work in works:
            shutil.rmtree(work, ignore_errors=True)

    failed = len({item_id for item_id, _, _ in problems})
    if not args.trace:
        metrics = {
            "setup_s": _metric(statistics.median(setup_ref), "s"),
            "wall_ref_s": _metric(statistics.median(ref_walls), "s"),
            "ok_frac": _metric((attempted - failed) / attempted, "frac"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        tail = _tail(latencies)
        print(f"rounds: {len(walls)}, round walls: " + ", ".join(f"{w:.3f}" for w in walls))
        print("round walls at reference speed: " + ", ".join(f"{w:.3f}" for w in ref_walls))
        print(f"speed probe: {len(probe.samples)} samples, mean {statistics.fmean(probe.samples) * 1e3:.4f} ms,"
              f" {probe.spent:.3f} s taken out of the timings")
        print("setup samples: " + ", ".join(f"{s:.3f}" for s in setup))
        print("setup samples at reference speed: " + ", ".join(f"{s:.3f}" for s in setup_ref))
        print(f"wall_s: {statistics.median(walls):.4f}")
        print(f"item_p50_s: {statistics.median(latencies):.4f} (n={len(latencies)})")
        print("item_tail_s: " + (f"p{tail[0]:g} {tail[1]:.4f} (n={len(latencies)})" if tail
                                 else f"undefined, {len(latencies)} items are too few"))
    print(f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted} items)")
    for item_id, kind, msg in problems:
        print(f"{kind}: {item_id}: {msg}")
    wrong = any(kind == "wrong" for _, kind, _ in problems)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
