"""Benchmark of swirlgas: four workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of regime-sweep, trajectory-sampling, residual-lab,
fv-convergence.  The package is imported from ./src of the checkout; it is
measured only from outside, through its public functions, fresh interpreters
and its CLI.

--trace 0 prints the end-to-end metrics (setup_s, ops_per_s, op_p50_ms,
peak_rss_mb).  --trace 1 runs the same loop with spans around the package's
functions and prints the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Details of every run (per-operation times, inputs, failures,
checks) go to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("regime-sweep", "trajectory-sampling", "residual-lab", "fv-convergence")
SETUP_RUNS = 3          # fresh interpreters timed for setup_s before the worker, and again after
LAYER_RUNS = 3          # fresh interpreters for each import / CLI layer metric
CHILD_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

IMPORT_PROBE = "import time, swirlgas; print(repr(time.monotonic()))"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv, env, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion; raises on a non-zero exit."""
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:4])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def import_seconds(env):
    """Wall time from spawning a fresh interpreter to `import swirlgas` done.

    Both clocks are CLOCK_MONOTONIC, which every process on the host shares.
    """
    t0 = time.monotonic()
    proc = run_child([sys.executable, "-c", IMPORT_PROBE], env)
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def setup_samples(env):
    return [import_seconds(env) for _ in range(SETUP_RUNS)]


def importtime_split(env):
    """(scipy, numpy) self-time sums in seconds from `python -X importtime`."""
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import swirlgas"], env)
    sums = {"scipy": 0.0, "numpy": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in sums:
            sums[top] += int(self_us) * 1e-6
    return sums["scipy"], sums["numpy"]


def cli_seconds(env):
    """Fresh-process wall time of `swirlgas classify --preset periodic-demo --certify`."""
    argv = [sys.executable, "-m", "swirlgas.cli", "classify", "--preset", "periodic-demo",
            "--certify"]
    t0 = time.perf_counter()
    proc = run_child(argv, env)
    dt = time.perf_counter() - t0
    report = json.loads(proc.stdout)
    ok = report["kind"] == "time-periodic" and report["certification"]["passed"]
    return dt, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "swirlgas", "__init__.py")):
        print(f"error: no swirlgas package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    # Setup is sampled before and after the worker, so its median spans the run
    # rather than a few seconds of it; the first import only warms the caches.
    setup = []
    if not args.trace:
        import_seconds(env)
        setup = setup_samples(env)
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--out", stem + ".json"]
    if args.trace:
        worker += ["--spans", stem + ".spans.jsonl"]
    run_child(worker, env, timeout=args.seconds + 120.0)
    if not args.trace:
        setup += setup_samples(env)
    with open(stem + ".json") as fh:
        result = json.load(fh)

    correct = result["correct"]
    if args.trace:
        metrics = dict(result["layers"])
        splits = [importtime_split(env) for _ in range(LAYER_RUNS)]
        metrics["import.scipy_s"] = {"value": statistics.median(s for s, _ in splits), "unit": "s"}
        metrics["import.numpy_s"] = {"value": statistics.median(n for _, n in splits), "unit": "s"}
        cli = [cli_seconds(env) for _ in range(LAYER_RUNS)]
        metrics["cli.classify_certify_s"] = {"value": statistics.median(t for t, _ in cli),
                                             "unit": "s"}
        if not all(ok for _, ok in cli):
            correct = False
            result["problems"].append("CLI classify --certify did not certify periodic-demo")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "op/s"},
            "op_p50_ms": {"value": result["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    line = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}
    with open(stem + ".result.json", "w") as fh:
        json.dump(line, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
