"""Run one lilyseg benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload mc30 --seed 1 --seconds 10 --trace 0

Workloads: mc30, pinned41, window45, crosscheck15 (see bench/README.md);
BENCHMARK.json lists mc30 and window45 only.  With ``--trace 0`` the
metrics printed are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

The workload runs in a child process (``child.py``) on one thread, against
the lilyseg sources in ``src/`` of this checkout; without them the run
fails.  Set-up time runs from starting a child to its ``ready`` line; an
untraced run starts a few extra children that only set up, half before
the measuring child and half after it so that one slow stretch of the
shared host does not cover them all, and reports the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("mc30", "pinned41", "window45", "crosscheck15")
# Set-ups timed per untraced run, the measuring child included; window45
# takes fewer because its warm-up operation alone takes seconds.
SETUP_SAMPLES = {"mc30": 7, "pinned41": 7, "window45": 3, "crosscheck15": 7}
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def run_child(args, role: str, deadline: float):
    """Start a workload child; return (set-up seconds, remaining stdout)."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--role", role,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise ChildFailed(f"{role} child exited with code {code}")
    return setup_s, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    package = ROOT / "src" / "lilyseg" / "__init__.py"
    if not package.is_file():
        print(f"run.py: no lilyseg sources at {package}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = SETUP_SAMPLES[args.workload] - 1 if not args.trace else 0
        setups = [run_child(args, "probe", deadline)[0] for _ in range(probes // 2)]
        setup_s, out = run_child(args, "run", deadline)
        setups += [run_child(args, "probe", deadline)[0] for _ in range(probes - probes // 2)]
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        setups.append(setup_s)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    produced = {name: m["unit"] for name, m in result["metrics"].items()}
    if any(produced.get(name) != unit for name, unit in declared.items()):
        print(f"run.py: metrics {produced} do not match BENCHMARK.json {declared}", file=sys.stderr)
        return 3
    # The chain and greedy layers run only on crosscheck15, which
    # BENCHMARK.json leaves out; their spans stay in the trace file.
    result["metrics"] = {name: result["metrics"][name] for name in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
