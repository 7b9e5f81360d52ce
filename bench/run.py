"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload verify-family --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every pass of the workload runs in a fresh
interpreter (``worker.py``) as one closed-loop caller: the next job starts
when the previous one returns.  Passes repeat until ``--seconds`` have gone
by (at least one); every reported time is a median over passes.  Set-up time
is also sampled by interpreters that stop once the jobs are made.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run alternates untraced and traced passes, and reports the per-layer metrics
and the tracing overhead, the median over pairs of traced / untraced wall
time.  Spans go to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same metrics for a reader.  The exit code is 0 when a result was
printed, whether or not every job was correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("verify-family", "stab-tables", "query-stream")
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # every worker is stopped by then


def load_metric_units():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer"))


class BenchError(Exception):
    pass


def run_worker(workload, seed, deadline, trace_out="", setup_only=False):
    """Start one worker; returns (set-up seconds, parsed result or None)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time limit: %s" % " ".join(cmd))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError("worker failed (exit %s): %s" % (proc.returncode, err.strip()[-2000:]))
    if setup_only:
        return setup, None
    if err:
        sys.stderr.write(err)
    return setup, json.loads(out.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, units):
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups = [run_worker(workload, seed, deadline, setup_only=True)[0] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        setup, result = run_worker(workload, seed, deadline)
        setups.append(setup)
        plain.append(result)
        if trace:
            # each traced pass follows an untraced one, so the pair's ratio
            # sees the same state of the host
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, "spans-%s-seed%d-pass%d.tsv.gz" % (workload, seed, len(traced)))
            traced.append(run_worker(workload, seed, deadline, trace_out=path)[1])
        if time.perf_counter() - start >= seconds:
            break
    passes = plain + traced
    attempted = sum(len(p["latencies_ms"]) for p in passes)
    failed = [key for p in passes for key in p["failed"]]
    latencies = [x for p in plain for x in p["latencies_ms"]]
    walls = [p["wall_s"] for p in plain]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "jobs_per_s": statistics.median(len(p["latencies_ms"]) / p["wall_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    # Job latency percentiles are printed, not reported: on verify-family and
    # stab-tables the median job is one particular job, with two or three
    # samples per run, and it spreads more between runs than any bound allows.
    notes = [
        "workload %s, seed %d: %d untraced and %d traced passes, %d jobs per pass"
        % (workload, seed, len(plain), len(traced), len(plain[0]["latencies_ms"])),
        "pass wall_s: %s" % " ".join("%.3f" % w for w in walls),
        "failed_frac %.6f (%d of %d jobs)" % (len(failed) / attempted, len(failed), attempted),
        "job_p50_ms %.4f ms (%d samples)" % (statistics.median(latencies), len(latencies)),
    ]
    if len(latencies) >= 1000:  # at least ten samples beyond the 99th percentile
        p99 = statistics.quantiles(latencies, n=100)[98]
        notes.append("job_p99_ms %.4f ms (%d samples)" % (p99, len(latencies)))
    else:
        notes.append("job_p99_ms not reported: %d samples, fewer than 1000" % len(latencies))
    notes += ["failed job: %s" % key for key in sorted(set(failed))[:10]]
    if not trace:
        values = e2e
    else:
        values = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
        values["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        values["trace.overhead_ratio"] = statistics.median(t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced))
    metrics = {name: (values[name], unit) for name, unit in units[trace].items()}
    return attempted, failed, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description="bowcalc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bowcalc", "__init__.py")):
        print("error: no bowcalc sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        attempted, failed, metrics, notes = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), load_metric_units()
        )
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print("%-42s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
