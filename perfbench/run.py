"""The combstat benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the op lists):

* ``gf-systems``   gf_closed, gf_solve and gf_residual for the nine
  generating-function systems at T(12)-T(13); checks closed == solved and
  a zero residual.  Time goes to ``series`` and the ``exact`` y-polynomial
  kernels; ``closed``, ``objects`` and ``maps`` are not used.
* ``columns``      ``distribution ... --source both`` over every position,
  for all 13 (family, statistic) pairs near the enumeration budgets, plus
  ``verify --suite bijections``; checks a match on every line and PASS on
  every row.  Time goes to enumeration in ``objects`` and to ``maps``.
* ``closed-forms`` ``average``, ``average --uniform``, ``limit``, ``limit
  --mean`` and ``table2``; time goes to ``closed`` and its int/Quad2
  scalars, with no GF builds and no enumeration.

Every op's output is also compared with its golden digest, taken at the
commit recorded in golden.json.  An op fails if it raises, exits
non-zero, or disagrees with its independent route or its digest.

Each pass runs the seed's op list once in a fresh single-threaded
interpreter, one op after the other (a closed loop with one client).
Passes repeat until ``--seconds`` is used up (at least one).  With
``--trace 0`` the run also starts nine interpreters that only set up,
and prints the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes of the same op list and prints the
per-layer metrics.  The last stdout line is one JSON object; the full
result, with run metadata, goes to perfbench/out/.

The end-to-end times (and ops_per_s, and trace.overhead_frac) are
scaled by the speed probe that brackets every op (see worker.py), so
that the host's own speed swings cancel; the unscaled wall-clock values
are printed beside them and kept in the result file.  Per-layer self
times are unscaled.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

SETUP_RUNS = 9
# a run must end within 180 s; each interpreter gets what is left of this
HARD_LIMIT_S = 170.0
TAIL_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
# per-layer metrics and their units; the *.self_s are medians over the
# traced passes, everything else is a count that repeats exactly
PER_LAYER = {
    "exact.self_s": "s",
    "exact.yp_mul.calls": "count",
    "exact.yp_add.calls": "count",
    "exact.fraction_share": "ratio",
    "series.self_s": "s",
    "series.ps_mul.calls": "count",
    "series.ps_mul.self_s": "s",
    "series.ps_mul.kept_ratio": "ratio",
    "series.ps_linear_solve.self_s": "s",
    "series.ps_inv.calls": "count",
    "series.ps_sqrt.self_s": "s",
    "series.ps_exp.self_s": "s",
    "series.solve_fixed_point.calls": "count",
    "series.solve_fixed_point.self_s": "s",
    "gfcat.self_s": "s",
    "gfcat.gf_closed.calls": "count",
    "gfcat.gf_solve.self_s": "s",
    "gfcat.gf_residual.self_s": "s",
    "gfcat.distribution_via_gf.self_s": "s",
    "gfcat.builds_per_column": "ratio",
    "closed.self_s": "s",
    "closed.exact_average.calls": "count",
    "closed.exact_average.self_s": "s",
    "closed.limit_distribution.self_s": "s",
    "closed.limit_mean_series.self_s": "s",
    "objects.self_s": "s",
    "objects.distribution.self_s": "s",
    "objects.statistic_vector.calls": "count",
    "objects.walks_per_object": "ratio",
    "maps.self_s": "s",
    "maps.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload, seed, mode, t_start):
    """Run one worker interpreter to completion; its parsed result plus
    the wall time the caller saw."""
    left = HARD_LIMIT_S - (time.monotonic() - t_start)
    if left <= 1:
        raise BenchError("no time left for a %s pass" % mode)
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--started", repr(started)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError("%s pass did not finish within %.0f s" % (mode, left)) from None
    wall = time.monotonic() - started
    if proc.returncode != 0:
        raise BenchError("%s pass exited %d:\n%s"
                         % (mode, proc.returncode, proc.stderr.strip()[-2000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s pass printed no result" % mode)
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def tail(values):
    """(value, percentile, samples): the highest percentile that has at
    least TAIL_BEYOND samples above it (the maximum if there are fewer)."""
    ordered = sorted(values)
    i = len(ordered) - TAIL_BEYOND - 1
    if i < 0:
        i = len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered)


# fields of a worker's op record
KEY, WALL, REASON, SCALED = range(4)


def op_latencies(passes, field):
    """Per op, the median latency over the passes; a failed op counts as
    slower than any limit."""
    per_op = []
    for j in range(len(passes[0]["ops"])):
        if any(p["ops"][j][REASON] is not None for p in passes):
            per_op.append(math.inf)
        else:
            per_op.append(statistics.median(p["ops"][j][field] for p in passes))
    return per_op


def op_seconds(p, field):
    return sum(rec[field] for rec in p["ops"])


def ops_per_s(p, field):
    return sum(1 for rec in p["ops"] if rec[REASON] is None) / op_seconds(p, field)


def finite(x):
    """JSON has no infinity; a metric that is infinite reads as 1e9."""
    return x if math.isfinite(x) else 1e9


def end_to_end(workload, seed, seconds, t_start):
    setups = [spawn(workload, seed, "setup", t_start) for _ in range(SETUP_RUNS)]
    passes = []
    while True:
        passes.append(spawn(workload, seed, "untraced", t_start))
        longest = max(p["wall_s"] for p in passes)
        if time.monotonic() - t_start + longest > seconds:
            break

    def metrics_from(field, setup_field):
        per_op = op_latencies(passes, field)
        return {
            "ops_per_s": statistics.median(ops_per_s(p, field) for p in passes),
            "op_p50_s": statistics.median(per_op),
            "op_tail_s": tail(per_op)[0],
            "setup_s": statistics.median(r[setup_field] for r in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }

    _, tail_pct, tail_n = tail(op_latencies(passes, SCALED))
    details = {
        "op_tail_percentile": tail_pct, "op_latency_samples": tail_n,
        "setup_runs": len(setups), "passes": len(passes),
        "ops_per_pass": len(passes[0]["ops"]),
        "probe_s": statistics.median(p["probe_s"] for p in passes + setups),
        "wall_clock": {k: v for k, v in metrics_from(WALL, "setup_s").items()
                       if k != "peak_rss_mb"},
    }
    return metrics_from(SCALED, "setup_scaled_s"), END_TO_END, passes, details


def per_layer(workload, seed, seconds, t_start):
    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        plain.append(spawn(workload, seed, "untraced", t_start))
        traced.append(spawn(workload, seed, "traced", t_start))
        if time.monotonic() - t_start + (time.monotonic() - t0) > seconds:
            break
    first = traced[0]

    def counts(p):
        return {k: v for k, v in p["layers"].items() if not k.endswith(".self_s")}

    if any(counts(p) != counts(first) for p in traced[1:]):
        raise BenchError("trace counts differ between traced passes of one op list")
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_frac":
            metrics[name] = (statistics.median(op_seconds(p, SCALED) for p in traced)
                             / statistics.median(op_seconds(p, SCALED) for p in plain) - 1)
        elif name.endswith(".self_s"):
            metrics[name] = statistics.median(p["layers"][name] for p in traced)
        else:
            metrics[name] = first["layers"][name]
    details = {
        "passes": len(plain) + len(traced), "ops_per_pass": len(first["ops"]),
        "ratio_bases": first["bases"],
        "layer_spans": {layer: first["layers"][layer + ".spans"] for layer in LAYERS},
        "layer_self_s": {layer: metrics[layer + ".self_s"] for layer in LAYERS},
    }
    return metrics, PER_LAYER, plain + traced, details


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: it strips combstat's asserts "
              "and changes results", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "combstat", "__init__.py")):
        print("no combstat sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    t_start = time.monotonic()
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, units, passes, details = measure(
            args.workload, args.seed, args.seconds, t_start)
        if len({p["oplist"] for p in passes}) != 1:
            raise BenchError("passes ran different op lists")
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1

    attempted = sum(len(p["ops"]) for p in passes)
    failures = [(rec[KEY], rec[REASON]) for p in passes for rec in p["ops"]
                if rec[REASON] is not None]
    meta = {
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "seed": args.seed,
        "optimize": sys.flags.optimize, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": time.monotonic() - t_start, **details,
    }
    for key, reason in failures[:10]:
        print("FAILED %s: %s" % (key, reason), file=sys.stderr)
    wall_clock = details.get("wall_clock", {})
    for name, value in metrics.items():
        line = "%-34s %14.6g %s" % (name, value, units[name])
        if name in wall_clock:
            line += "  (wall clock, unscaled: %.6g)" % wall_clock[name]
        print(line)
    print("%-34s %14.6g %s  (%d failed of %d attempted)" % (
        "error_rate", len(failures) / attempted, "ratio", len(failures), attempted))
    print("meta %s" % json.dumps(meta, sort_keys=True))

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "result-%s-trace%d.json"
                           % (args.workload, args.trace)), "w") as fh:
        json.dump({"meta": meta, "metrics": metrics,
                   "error_rate": len(failures) / attempted, "failures": failures,
                   "passes": [{"wall_s": p["wall_s"], "probe_s": p["probe_s"],
                               "latencies": [rec[WALL] for rec in p["ops"]],
                               "scaled": [rec[SCALED] for rec in p["ops"]]}
                              for p in passes]},
                  fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": finite(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
