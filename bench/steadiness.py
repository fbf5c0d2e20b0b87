"""Repeat the benchmark over seeds and record how much each metric spreads.

    python3 bench/steadiness.py --workloads geometry-sweep,full-epsilon,policy-reduced,cli --seeds 1-10

Runs `bench/run.py` once per (workload, seed), one run at a time, and merges
into bench/steadiness.json, per workload and end-to-end metric, the values,
their median, quartiles (statistics.quantiles with n=4) and the spread
(q3 - q1) / median.  The bounds in BENCHMARK.json are set from these spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = config["run_seconds"]
    out_path = BENCH_DIR / "steadiness.json"
    record = json.loads(out_path.read_text(encoding="utf-8")) if out_path.exists() else {}
    record["run_seconds"] = seconds
    record.setdefault("workloads", {})

    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            env = next((ln for ln in lines if ln.startswith("env: ")), None)
            if env:
                record["environment"] = json.loads(env[len("env: "):])
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "elapsed_s": elapsed, **result})
            print(workload, seed, json.dumps({k: round(v["value"], 4)
                                              for k, v in result["metrics"].items()}),
                  "correct" if result["correct"] else "WRONG", f"failed {result['failed']}",
                  f"{elapsed:.1f} s", flush=True)
        names = runs[0]["metrics"].keys()
        metrics = {name: _summary([r["metrics"][name]["value"] for r in runs]) for name in names}
        record["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "elapsed_s": [round(r["elapsed_s"], 1) for r in runs],
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"  {workload:15s} {name:12s} median {m['median']:.4f} spread {m['spread']:.4f}")
        out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
