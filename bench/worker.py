"""One pass of a workload in a fresh interpreter, so bowcalc's module-level
caches start empty as they do for a command-line user.

    python3 bench/worker.py --workload NAME --seed N [--trace-out PATH] [--setup-only]

The worker imports bowcalc from ``src``, makes the jobs from the seed, prints
``READY`` (the caller times set-up up to that line), then issues the jobs one
after another and prints one JSON line with the job latencies, the failures
and the peak RSS.  With ``--trace-out`` it wraps bowcalc's layers in spans,
adds the per-layer metrics to that line and writes the spans to PATH.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import workloads  # noqa: E402  (needs the path above)
from tracer import Tracer  # noqa: E402


def run_pass(jobs, goldens):
    """Issue the jobs in order; returns (latencies in ms, failed job keys,
    wall seconds)."""
    latencies = []
    failed = []
    clock = time.perf_counter
    start = clock()
    for job in jobs:
        t0 = clock()
        try:
            rc, text = workloads.run_job(job)
        except Exception:
            latencies.append((clock() - t0) * 1e3)
            failed.append(job.key)
            traceback.print_exc()
            continue
        latencies.append((clock() - t0) * 1e3)
        if not workloads.check_job(job, rc, text, goldens):
            failed.append(job.key)
    return latencies, failed, clock() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    goldens = workloads.load_goldens()
    jobs = workloads.make_jobs(args.workload, args.seed)
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    latencies, failed, wall = run_pass(jobs, goldens)
    result = {
        "wall_s": wall,
        "latencies_ms": latencies,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.dump(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
