"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --mode M --started T

Modes: ``setup`` (import, op generation and golden load, then exit),
``untraced`` (run the op list) and ``traced`` (run it with spans; write
them to ``perfbench/out/spans-<workload>.tsv``).  ``--started`` is the
caller's ``time.monotonic()`` just before it started this interpreter,
so setup time counts interpreter start.  The last stdout line is one
JSON object with the pass's results.

Every op is bracketed by a speed probe: a fixed pure-Python loop over
the three kinds of work the workloads do (Fraction sums, big binomials,
building trees).  On the shared two-core host the benchmark was defined
on, speed swings by up to 40% within minutes and neighbouring
measurements share the swing, so each op's latency is also reported
scaled to the probe's reference time: ``latency * REFERENCE_S / probe``,
with the probe taken as the mean of the ones just before and after the
op.  Setup time is scaled by the probes run right after it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
OUT_DIR = os.path.join(HERE, "out")


# the probe's median time on the host the benchmark was defined on
# (Python 3.11.7, 2 cores); it only sets the scale of the scaled times
REFERENCE_S = 0.012
SETUP_PROBES = 3


def speed_probe():
    """Seconds one fixed loop takes now; uses nothing of combstat."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 2500):
        s += Fraction(i % 89 + 1, i % 97 + 1)
    x = 0
    for i in range(60):
        x += math.comb(1200 + i, 400 + i) % 1000003
    _binary_trees(7)
    return time.perf_counter() - t0


def _binary_trees(n):
    if n == 0:
        return [None]
    return [(left, right) for i in range(n)
            for left in _binary_trees(i) for right in _binary_trees(n - 1 - i)]


def import_combstat():
    """The seven layer modules, imported from this checkout's src/."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import combstat
    from combstat import cli, closed, exact, gfcat, maps, objects, series

    if not os.path.abspath(combstat.__file__).startswith(src + os.sep):
        raise ImportError("combstat imported from %s, not from %s"
                          % (combstat.__file__, src))
    return {"exact": exact, "series": series, "gfcat": gfcat, "closed": closed,
            "objects": objects, "maps": maps, "cli": cli}


def oplist_digest(ops):
    return hashlib.sha256("\n".join(map(workloads.op_key, ops)).encode()).hexdigest()[:16]


def run_pass(ops, traced, golden):
    """Run an op list once, checking every output; in a fresh
    interpreter, so no earlier pass has warmed combstat's caches."""
    modules = import_combstat()
    runner = workloads.Runner(modules, golden)
    tracer = tracing.Tracer(modules) if traced else None
    first_op = time.monotonic()
    probes = [speed_probe()]
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = runner.call(op)
            reason = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, reason = None, "raised %s: %s" % (type(exc).__name__, exc)
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        if reason is None:
            try:
                reason = runner.check(op, result)
            except Exception as exc:
                reason = "check raised %s: %s" % (type(exc).__name__, exc)
        probes.append(speed_probe())
        scaled = latency * REFERENCE_S / ((probes[-2] + probes[-1]) / 2)
        records.append([workloads.op_key(op), latency, reason, scaled])
    out = {
        "first_op": first_op,
        "ops": records,
        "oplist": oplist_digest(ops),
        "probe_s": statistics.median(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"], bases = tracer.layer_metrics()
        out["bases"] = {k: list(v) for k, v in bases.items()}
        out["tracer"] = tracer
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "untraced", "traced"))
    p.add_argument("--started", type=float, required=True)
    args = p.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: it strips combstat's asserts "
              "and changes results", file=sys.stderr)
        return 2

    golden = workloads.load_golden(GOLDEN)
    if args.mode == "setup":
        import_combstat()
        workloads.ops_for(args.workload, args.seed)
        result = {"first_op": time.monotonic()}
        result["probe_s"] = statistics.median(speed_probe() for _ in range(SETUP_PROBES))
    else:
        ops = workloads.ops_for(args.workload, args.seed)
        result = run_pass(ops, args.mode == "traced", golden)
        tracer = result.pop("tracer", None)
        if tracer is not None:
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write_spans(os.path.join(OUT_DIR, "spans-%s.tsv" % args.workload))
    result["setup_s"] = result.pop("first_op") - args.started
    result["setup_scaled_s"] = result["setup_s"] * REFERENCE_S / result["probe_s"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
