"""The process that runs one workload; ``run.py`` starts it and reads its output.

It imports lilyseg, makes the workload's inputs, runs one warm-up
operation and prints ``ready`` (the end of set-up).  A ``probe`` stops
there.  A ``run`` then checks the hand-computed fixtures and the checker's
self-test and makes the workload's ``passes`` timed passes over the same
rounds.  The first pass runs whole rounds until its summed time reaches
``--seconds / passes`` and checks every output outside the timed region;
the later passes repeat those rounds on fresh copies of their inputs and
each output must equal the first pass's.  Each operation is timed as the
best of its passes.  Then the pooled statistical checks run and one JSON
line is printed.  Each workload gets its own process so that its peak
resident memory is its own.

Why the best of several passes: the host is shared, and other tenants slow
stretches of seconds to minutes of a run by up to 1.8x (the same inputs,
re-run in one process, took between 0.052 and 0.10 s per operation).
Passes spread over the run are seldom all slowed, while a change to the
program moves every pass.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class _ResampleCounter(logging.Handler):
    """Counts the package's own resampling log records into the trace."""

    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if "resampl" in record.getMessage():
            self.tracer.value("pointprocess.resamples", 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--role", choices=("probe", "run"), required=True)
    args = ap.parse_args(argv)

    import lilyseg

    source = (ROOT / "src" / "lilyseg").resolve()
    if Path(lilyseg.__file__).resolve().parent != source:
        print(f"child.py: imported lilyseg from {lilyseg.__file__}, not {source}", file=sys.stderr)
        return 2
    from lilyseg import LilysegError
    from tracing import MemoryRecorder, Tracer, layer_metrics
    from workloads import WARMUP_ROUND, WORKLOADS, startup_problems

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        logging.getLogger("lilyseg").addHandler(_ResampleCounter(tracer))

    workload = WORKLOADS[args.workload](args.seed)
    warm_input = workload.round_inputs(WARMUP_ROUND)[0]
    warm_output = workload.run(warm_input)
    print("ready", flush=True)
    if args.role == "probe":
        return 0

    problems = startup_problems() + workload.check_round([(warm_input, warm_output)])[0]
    del warm_output

    def run_op(inp):
        if tracer is None:
            return workload.run(inp)
        with tracer.span("op"):
            return workload.run_traced(inp, tracer)

    # One slot per operation of the first pass: [best seconds, output
    # fingerprint, passed so far].
    slots, attempted, failed, timed, rounds = [], 0, 0, 0.0, 0
    for p in range(workload.passes):
        r = 0
        while r < rounds if p else (r < workload.min_rounds or timed < args.seconds / workload.passes):
            inputs, outcomes = workload.round_inputs(r), []
            for inp in inputs:
                if tracer is not None:
                    tracer.op = attempted
                t0 = time.perf_counter()
                try:
                    out, error = run_op(inp), None
                except LilysegError as exc:
                    out, error = None, f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - t0
                outcomes.append((inp, out, error, seconds))
                attempted += 1
                timed += seconds
            base = r * workload.ops_per_round
            if p == 0:
                checks = iter(workload.check_round([(i, o) for i, o, e, _ in outcomes if e is None]))
            for j, (inp, out, error, seconds) in enumerate(outcomes):
                if p == 0:
                    op_problems = [error] if error else next(checks)
                    slots.append([seconds, None if error else workload.fingerprint(out), not op_problems])
                else:
                    slot = slots[base + j]
                    slot[0] = min(slot[0], seconds)
                    if error:
                        op_problems = [error]
                    elif workload.fingerprint(out) != slot[1]:
                        op_problems = ["output differs from pass 0"]
                    elif not slot[2]:
                        op_problems = ["same output as the failed pass 0"]
                    else:
                        op_problems = []
                if op_problems:
                    slots[base + j][2] = False
                    failed += 1
                    print(f"pass {p} round {r}: operation failed: {'; '.join(op_problems)}", file=sys.stderr)
            inputs = outcomes = out = None
            r += 1
        rounds = rounds or r
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += workload.pooled_problems()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    best = [slot[0] for slot in slots]
    op_p50_s = statistics.median(best)
    if tracer is None:
        metrics = {
            "ops_per_s": {"value": sum(slot[2] for slot in slots) / sum(best), "unit": "op/s"},
            "op_p50_s": {"value": op_p50_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    else:
        # Memory pass over round 0, apart from the timed loop; its values
        # fall outside the count prefix.
        tracer.op = 1 << 30
        memory = MemoryRecorder()
        tracemalloc.start()
        for inp in workload.round_inputs(0):
            workload.run_traced(inp, memory)
        tracemalloc.stop()
        prefix = workload.min_rounds * workload.ops_per_round
        metrics = layer_metrics(tracer, memory, prefix, op_p50_s, len(slots))
        tracer.write(ROOT / "bench" / "out" / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
