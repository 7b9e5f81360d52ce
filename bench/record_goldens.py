"""Record the expected output of every job any seed can draw.

    python3 bench/record_goldens.py

Writes ``bench/goldens.json``: job key -> SHA-256 of the job's output text
(the canonical ``--json`` bytes of a CLI job, the ``str()`` of a library
query).  Run it only on a commit whose outputs are trusted; the benchmark
counts every later difference as a failed job.
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import workloads  # noqa: E402  (needs the path above)


def all_jobs():
    for d in workloads.VERIFY_DIAGRAMS:
        for vseed in workloads.VERIFY_SEEDS:
            yield workloads.cli_job(workloads.verify_argv(d, vseed))
    for group in workloads.stab_chamber_groups():
        for chamber in group:
            yield workloads.cli_job(workloads.stab_argv(chamber))
    queries = [q for by_kind in workloads.query_space().values() for qs in by_kind.values() for q in qs]
    yield from workloads.lib_jobs(queries)


def main():
    goldens = {}
    for job in all_jobs():
        rc, text = workloads.run_job(job)
        if rc != 0:
            raise SystemExit("job %r exited %d" % (job.key, rc))
        if job.kind == "cli" and job.argv[0] == "verify":
            if not json.loads(text)["result"]["report"]["ok"]:
                raise SystemExit("verify job %r does not report ok" % job.key)
        goldens[job.key] = workloads.digest(text)
    with open(workloads.GOLDENS_PATH, "w") as f:
        json.dump(goldens, f, indent=0, sort_keys=True)
        f.write("\n")
    print("%d goldens written to %s" % (len(goldens), workloads.GOLDENS_PATH))


if __name__ == "__main__":
    main()
