"""Run one workload in this (fresh, single-threaded) process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE

Imports swirlgas from the PYTHONPATH that run.py sets, builds the seeded
inputs, runs one warm-up operation, then repeats whole rounds of the
workload's operations until the run length is reached.  Each operation is
timed on its own; the loop time is the sum of those times, so the
benchmark's bookkeeping between operations is not counted.  Outputs of the
first round are checked after the loop.  The result goes to --out as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="write the first round's spans here (traced run)")
    args = ap.parse_args()

    import swirlgas as sg

    wl = workloads.WORKLOADS[args.workload](sg, args.seed)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(sg)

    def call(op):
        if tracer is None:
            return op.run()
        return tracer.span("op", op.run)

    try:
        call(wl.ops[0])           # warm-up: lazy imports and first-call costs
    except Exception:             # a fault case; it is counted in the timed rounds
        pass
    if tracer is not None:
        tracer.reset()

    op_times, first_round, failures = [], [], {}
    attempted = failed = rounds = 0
    loop_s = 0.0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        for op in wl.ops:
            if tracer is not None:
                tracer.op = f"{rounds}:{op.label}"
            t0 = time.perf_counter()
            try:
                out = call(op)
                ok = True
            except Exception as exc:  # an operation the program fails; counted, not fatal
                out, ok = None, False
                failures.setdefault(op.label, f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            loop_s += dt
            attempted += 1
            if ok:
                op_times.append(dt)
            else:
                failed += 1
            if rounds == 0:
                first_round.append(out)
        rounds += 1
        if tracer is not None:
            tracer.keep_spans = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = wl.check(first_round)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed, "rounds": rounds,
        "ops_per_round": len(wl.ops), "failures": failures,
        "loop_s": loop_s,
        "ops_per_s": len(op_times) / loop_s,
        "op_p50_ms": statistics.median(op_times) * 1e3 if op_times else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "op_ms": [round(t * 1e3, 4) for t in op_times],
        "inputs": wl.inputs,
    }
    if tracer is not None:
        result["layers"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in tracer.layer_metrics(rounds).items()}
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, default=str)


if __name__ == "__main__":
    main()
