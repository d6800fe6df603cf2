"""Record the golden digest of every op any seed can draw.

    python3 perfbench/golden.py

Runs each op of each workload's candidate pool once, insists that it
passes its own agreement check, and writes the digest of its exact
rendered output to perfbench/golden.json, with the commit it was taken
at.  Run it only at a commit whose outputs are known good: afterwards
any change to an exact value counts as a failed op in the benchmark.
Takes about three minutes.
"""

from __future__ import annotations

import json
import sys
import time

import run
import worker
import workloads


def record(workload, modules):
    runner = workloads.Runner(modules, golden={})
    digests = {}
    t0 = time.perf_counter()
    for op in workloads.pool(workload):
        result = runner.call(op)
        reason = runner.intrinsic(op, result)
        if reason is not None:
            raise SystemExit("%s: %s" % (workloads.op_key(op), reason))
        digests[workloads.op_key(op)] = workloads.digest(runner.render(op, result))
    print("%s: %d ops in %.1f s" % (workload, len(digests), time.perf_counter() - t0),
          file=sys.stderr)
    return digests


def main():
    modules = worker.import_combstat()
    digests = {}
    for workload in workloads.WORKLOADS:
        digests.update(record(workload, modules))
    doc = {"commit": run.git_sha(), "pool_seed": workloads.POOL_SEED,
           "digests": dict(sorted(digests.items()))}
    with open(worker.GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
