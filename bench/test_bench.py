"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They check that a wrong output is counted as a failed job, that each workload
stays on the layers it was chosen for, and that BENCHMARK.json names exactly
the metrics the benchmark reports.
"""

import gzip
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_VERIFY = workloads.verify_argv(workloads.VERIFY_DIAGRAMS[0], workloads.VERIFY_SEEDS[0])


def traced_pass(workload, seed, tmp_path):
    """One traced pass; returns (its result line, its spans as
    (name, start, end) tuples)."""
    out = subprocess.run(
        [sys.executable, worker.__file__, "--workload", workload, "--seed", str(seed),
         "--trace-out", str(tmp_path / "spans.tsv.gz")],
        capture_output=True, text=True, check=True, timeout=170,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["failed"] == []
    with gzip.open(tmp_path / "spans.tsv.gz", "rt") as f:
        next(f)
        spans = [(name, float(start), float(end)) for _, _, name, start, end in (line.split("\t") for line in f)]
    assert len(spans) == result["layers"]["trace.spans"]
    return result, spans


def inclusive_share(spans, name, wall_s):
    """Time inside spans called ``name``, children included and nested calls
    counted once, as a share of the pass wall time."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted((s, e) for n, s, e in spans if n == name):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total / wall_s


def test_same_seed_same_jobs_and_every_job_has_a_golden():
    goldens = workloads.load_goldens()
    for name in workloads.WORKLOADS:
        for seed in (0, 5):
            keys = [job.key for job in workloads.make_jobs(name, seed)]
            assert keys == [job.key for job in workloads.make_jobs(name, seed)]
            assert all(key in goldens for key in keys)


def test_corrupted_library_output_counts_as_failed(monkeypatch):
    jobs = workloads.make_jobs("query-stream", 3)[:40]
    goldens = workloads.load_goldens()
    bad = jobs[17]
    real = workloads.run_job

    def corrupt_one(job):
        rc, text = real(job)
        return (rc, text + " ") if job is bad else (rc, text)

    monkeypatch.setattr(workloads, "run_job", corrupt_one)
    latencies, failed, _ = worker.run_pass(jobs, goldens)
    assert len(latencies) == 40
    assert failed == [bad.key]


def test_cli_output_checked_byte_for_byte_and_verify_must_report_ok():
    goldens = workloads.load_goldens()
    job = workloads.cli_job(SMALL_VERIFY)
    rc, text = workloads.run_job(job)
    assert workloads.check_job(job, rc, text, goldens)
    assert not workloads.check_job(job, rc, text.replace('"ok":true', '"ok":false', 1), goldens)
    assert not workloads.check_job(job, 2, text, goldens)
    # a report that is not ok fails even where its bytes are the recorded ones
    not_ok = text.replace('"ok":true', '"ok":false')
    assert not workloads.check_job(job, rc, not_ok, {job.key: workloads.digest(not_ok)})


def test_pairing_runs_on_verify_family():
    tracer = Tracer()
    tracer.install()
    try:
        workloads.run_cli(SMALL_VERIFY)
    finally:
        tracer.uninstall()
    assert tracer.metrics()["chevalley.pairing_terms.calls"] > 0


def test_stab_tables_is_grid_bound_builds_three_grids_and_never_pairs(tmp_path):
    result, spans = traced_pass("stab-tables", 11, tmp_path)
    layers = result["layers"]
    assert layers["chevalley.pairing_terms.calls"] == 0
    assert layers["stabloc.stab_tilde_grid.builds"] == workloads.STAB_BUILDS == 3
    assert layers["cli.main.calls"] == 6
    assert inclusive_share(spans, "stabloc.stab_tilde_grid", result["wall_s"]) > 0.5


def test_query_stream_is_not_grid_bound_and_never_pairs(tmp_path):
    result, spans = traced_pass("query-stream", 11, tmp_path)
    layers = result["layers"]
    assert layers["chevalley.pairing_terms.calls"] == 0
    assert inclusive_share(spans, "stabloc.stab_tilde_grid", result["wall_s"]) < 0.15
    assert layers["stabloc.stab_grid.repeat_ratio"] > 0.9


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    e2e, per_layer = run.load_metric_units()
    assert set(e2e) == {"setup_s", "wall_s", "jobs_per_s", "peak_rss_mb"}
    reported = set(Tracer().metrics()) | {"trace.wall_s", "trace.overhead_ratio"}
    assert set(per_layer) == reported
