"""Record the expected exit code and ``results`` digest of every pool job.

    python3 perfbench/record.py

Run from the root of a source checkout at the commit the benchmark is defined
on, and again only when jobs.py changes what the workloads run.  A program
change that alters a report must fail the gate, not be recorded over.
"""

from __future__ import annotations

import json
import sys

import jobs
import run


def main():
    expected = {}
    for workload in jobs.WORKLOADS:
        pool = jobs.pool(workload)
        paths = run.write_inputs(pool, run.WORK / "record" / workload / "inputs")
        runs = run.reference_runs(pool, paths, run.WORK / "record" / workload)
        for job, (code, digest) in zip(pool, runs):
            expected[job.id] = [code, digest]
            print(f"{job.id:<55} exit {code}")
    rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(expected.items())]
    run.EXPECTED.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
