"""Repeat ``run.py`` over several seeds and summarise each metric.

    python3 bench/repeat.py --workload mc30 --seeds 1-10 --trace 0
    python3 bench/repeat.py --workload all --seeds 1-10 --trace 0 --json bench/out/untraced.json

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  Runs are made one
after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def repeat(workload: str, seeds, seconds: int, trace: int):
    runs = []
    for seed in seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"], result["wall_s"] = seed, wall
        runs.append(result)
        print(f"  {workload} seed {seed}: {wall:.1f} s wall, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}", file=sys.stderr)
    metrics = {
        name: summarise([r["metrics"][name]["value"] for r in runs])
        for name in runs[0]["metrics"]
    }
    return {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "seeds": list(seeds),
        "all_correct": all(r["correct"] for r in runs),
        "failed_shares": sorted({r["failed"] / r["attempted"] for r in runs}),
        "wall_s": summarise([r["wall_s"] for r in runs]),
        "metrics": metrics,
        "runs": runs,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="also write the summaries and every run here")
    args = ap.parse_args(argv)

    workloads = names if args.workload == "all" else [args.workload]
    summaries = [repeat(w, parse_seeds(args.seeds), args.seconds, args.trace) for w in workloads]
    for s in summaries:
        print(f"{s['workload']} (trace {s['trace']}, {len(s['seeds'])} seeds, {s['seconds']} s): "
              f"correct={s['all_correct']} failed shares={s['failed_shares']} "
              f"wall median {s['wall_s']['median']:.1f} s")
        for name, m in s["metrics"].items():
            print(f"  {name:34s} median {m['median']:.6g}  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  "
                  f"spread {m['spread']:.4f}")
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(summaries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
