"""Operation lists for the benchmark workloads, how each op runs, and
how its output is checked.

An op is one public call into combstat: a ``combstat.cli.main(argv)``
command with its stdout captured, or one of ``gfcat.gf_closed``,
``gf_solve`` or ``gf_residual``.  An op is a tuple of strings; joined by
spaces it is the op's key in the golden-digest table.

Each workload is a list of *slots*.  A slot holds a few candidate ops
(or, for gf-systems, candidate closed/solve/residual triples) of nearly
the same cost.  The candidates come from a fixed pool (``POOL_SEED``),
so every op any seed can draw has a digest in ``golden.json``; the run
seed picks one candidate per slot and the order of the slots.  A pass
therefore does comparable work for every seed, and holds no duplicate
op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

WORKLOADS = ("gf-systems", "columns", "closed-forms")

# fixes the candidate pool; changing it invalidates golden.json
POOL_SEED = 2302_05252

# ------------------------------------------------------------ gf-systems

GF_SYSTEMS = ("B", "Babs", "D", "U", "P", "A", "G", "I", "J")
# one triple per system at each z-order: all nine systems take about
# 4 s at T(12) and 7 s at T(13) (Python 3.11, 2 cores), so a pass is
# ~11 s and a 40 s run holds three
GF_LEVELS = (12, 13)


def _gf_trunc(system, nz, nx, ny):
    nv = nz + 1 if system == "P" else 0
    u_range = nz if system == "Babs" else 0
    return "%d,%d,%d,%d,%d" % (nz, nx, ny, nv, u_range)


def _gf_slots(pool):
    slots = []
    for system in GF_SYSTEMS:
        for nz in GF_LEVELS:
            # the y-order moves the cost by a few percent, the x-order by
            # a tenth per step, so only ny is drawn
            slots.append([[(kind, system, _gf_trunc(system, nz, nz, ny))
                           for kind in ("gf_closed", "gf_solve", "gf_residual")]
                          for ny in (nz - 2, nz - 1, nz)])
    return slots


# --------------------------------------------------------------- columns

# (family, statistic) -> the two sizes swept; each is within three of the
# family's enumeration budget and costs 0.1-1.2 s (Python 3.11, 2 cores)
COLUMN_SIZES = {
    ("binary", "leaf-depth"): (8, 9),
    ("binary", "leaf-abscissa"): (8, 9),
    ("plane", "leaf-depth"): (8, 9),
    ("plane", "node-depth"): (8, 9),
    ("schroeder", "leaf-depth"): (7, 8),
    ("dyck", "vertex-height"): (8, 9),
    ("dyck", "upstep-height"): (8, 9),
    ("dyck", "downstep-height"): (8, 9),
    ("noncrossing", "node-depth"): (6, 7),
    ("increasing", "leaf-depth"): (6, 7),
    ("increasing", "internal-depth"): (6, 7),
    ("triangulation", "separating-diagonals"): (8, 9),
    ("dissection", "separating-diagonals"): (6, 7),
}
BIJECTION_MAX_N = 7


def _column_slots(pool):
    slots = []
    for (family, statistic), sizes in COLUMN_SIZES.items():
        for n in sizes:
            argv = ("cli", "distribution", family, statistic, "--n", str(n),
                    "--source", "both")
            if (family, statistic) == ("plane", "leaf-depth"):
                # the leaf count with the most trees; a draw of k would
                # change the sweep's cost by half
                argv += ("--k", str(n // 2 + 1))
            slots.append([[argv + ("--format", fmt)] for fmt in ("text", "json")])
    slots.append([[("cli", "verify", "--suite", "bijections",
                    "--max-n", str(BIJECTION_MAX_N), "--format", fmt)]
                  for fmt in ("text", "json")])
    return slots


# ---------------------------------------------------------- closed-forms

# average ids whose exact_average costs ~n^3, and those that cost a few
# milliseconds at any n
CUBIC_PAIRS = (
    ("binary", "leaf-depth"), ("dyck", "vertex-height"),
    ("dyck", "upstep-height"), ("dyck", "downstep-height"),
    ("noncrossing", "node-depth"),
)
LIGHT_PAIRS = (
    ("binary", "leaf-abscissa"), ("schroeder", "leaf-depth"),
    ("increasing", "leaf-depth"), ("increasing", "internal-depth"),
)
UNIFORM_PAIRS = (
    ("binary", "leaf-depth"), ("dyck", "vertex-height"),
    ("dyck", "upstep-height"), ("noncrossing", "node-depth"),
    ("increasing", "leaf-depth"),
)
LIMIT_PAIRS = (
    ("binary", "leaf-depth"), ("dyck", "vertex-height"),
    ("dyck", "upstep-height"), ("dyck", "downstep-height"),
    ("schroeder", "leaf-depth"), ("noncrossing", "node-depth"),
)
# The cubic ids take 2.4-2.9 s at n=2000, so their sizes sit on fixed
# rungs with a small jitter and positions in the middle fifth; a draw
# across all of 200-2000 would let one seed do several times the work of
# another.  The rungs from 800 up hold five ops each (0.2-0.6 s) and the
# top rung three (~0.8 s), so the tail latency, the eleventh slowest op,
# is the middle of the 950 rung rather than the edge of a rung.  The
# light ids cover 200-2000 and, with the other small commands, put the
# median among some seventy ops of 2-20 ms.
CUBIC_RUNGS = (200, 800, 950, 1100)
TOP_RUNG = 1250
LIGHT_RUNGS = tuple(range(200, 2001, 200))
UNIFORM_RUNGS = (300, 700)
LIMIT_R_RUNGS = ((1, 2, 3), (4, 5))
LIMIT_DMAX = range(20, 29)
CANDIDATES = 6


def _closed_slots(pool):
    slots = []
    averages = [(pair, rung) for pair in CUBIC_PAIRS for rung in CUBIC_RUNGS]
    averages += [(pair, TOP_RUNG) for pair in CUBIC_PAIRS[:3]]
    averages += [(pair, rung) for pair in LIGHT_PAIRS for rung in LIGHT_RUNGS]
    for (family, statistic), rung in averages:
        cands = []
        for _ in range(CANDIDATES):
            n = rung + pool.randrange(24)
            r = pool.randrange(2 * n // 5, 3 * n // 5 + 1)
            cands.append([("cli", "average", family, statistic,
                           "--n", str(n), "--r", str(r))])
        slots.append(cands)
    for family, statistic in UNIFORM_PAIRS:
        for rung in UNIFORM_RUNGS:
            slots.append([[("cli", "average", family, statistic, "--uniform",
                             "--n", str(rung + pool.randrange(24)))]
                          for _ in range(CANDIDATES)])
    for family, statistic in LIMIT_PAIRS:
        for rs in LIMIT_R_RUNGS:
            slots.append([[("cli", "limit", family, statistic,
                             "--r", str(pool.choice(rs)),
                             "--dmax", str(pool.choice(LIMIT_DMAX)))]
                          for _ in range(CANDIDATES)])
        slots.append([[("cli", "limit", family, statistic, "--mean",
                        "--rmax", str(rmax))] for rmax in range(5, 11)])
    # the printed r = 0 Schroeder law, in Q(sqrt 2)
    slots.append([[("cli", "limit", "schroeder", "leaf-depth", "--r", "0",
                    "--dmax", str(dmax))] for dmax in range(20, 41, 4)])
    slots.append([[("cli", "table2")], [("cli", "table2", "--decimal")]])
    return slots


_SLOTS = {
    "gf-systems": _gf_slots,
    "columns": _column_slots,
    "closed-forms": _closed_slots,
}


def slots(workload):
    """Every slot of the workload: a list of candidate op groups."""
    if workload not in _SLOTS:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(WORKLOADS)))
    out = []
    for cands in _SLOTS[workload](random.Random(POOL_SEED)):
        # dedupe while keeping order: a small pool can repeat a draw
        seen = []
        for group in cands:
            group = [tuple(op) for op in group]
            if group not in seen:
                seen.append(group)
        out.append(seen)
    return out


def pool(workload):
    """Every op that some seed can draw, in a fixed order."""
    return [op for cands in slots(workload) for group in cands for op in group]


def ops_for(workload, seed):
    """The op list of one pass: one candidate per slot, slots in a
    seeded order.  The same seed gives the same list."""
    rng = random.Random("%s:%d" % (workload, seed))
    groups = [rng.choice(cands) for cands in slots(workload)]
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def op_key(op):
    return " ".join(op)


# ------------------------------------------------------------- execution

def _truncation(series_mod, text):
    nz, nx, ny, nv, u_range = (int(v) for v in text.split(","))
    return series_mod.Truncation(nz, nx, ny, nv=nv, u_range=u_range)


class Runner:
    """Runs ops against an imported combstat and checks each output.

    ``call(op)`` is the timed part; ``check(op, result)`` compares the
    output with the op's independent route and with its golden digest,
    and returns None or the reason it failed.
    """

    def __init__(self, combstat_modules, golden):
        self.cli = combstat_modules["cli"]
        self.gfcat = combstat_modules["gfcat"]
        self.series = combstat_modules["series"]
        self.golden = golden
        self.closed_series = {}  # (system, truncation) -> gf_closed output

    def call(self, op):
        kind = op[0]
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(op[1:]))
            return rc, out.getvalue()
        t = _truncation(self.series, op[2])
        if kind == "gf_closed":
            return self.gfcat.gf_closed(op[1], t)
        if kind == "gf_solve":
            return self.gfcat.gf_solve(op[1], t)
        if kind == "gf_residual":
            s = self.closed_series.get((op[1], op[2]))
            if s is None:
                raise LookupError("no gf_closed output to take the residual of")
            return self.gfcat.gf_residual(op[1], s)
        raise ValueError("unknown op kind %r" % (kind,))

    def check(self, op, result):
        reason = self.intrinsic(op, result)
        if reason is None:
            want = self.golden.get(op_key(op))
            if want is None:
                reason = "no golden digest"
            elif digest(self.render(op, result)) != want:
                reason = "golden digest differs"
        return reason

    def intrinsic(self, op, result):
        """The op's agreement with its independent route."""
        if op[0] == "cli":
            rc, text = result
            if rc != 0:
                return "exit status %s" % (rc,)
            return _check_cli_text(op, text)
        return self._check_gf(op, result)

    def render(self, op, result):
        """The op's exact output as text: what the digest is taken of."""
        if op[0] == "cli":
            return result[1]
        return json.dumps(self.series.ps_to_json(result), sort_keys=True,
                          separators=(",", ":"))

    def _check_gf(self, op, s):
        kind, system, t = op
        if kind == "gf_closed":
            self.closed_series[(system, t)] = s
            return None
        if kind == "gf_solve":
            if s != self.closed_series.get((system, t)):
                return "gf_solve differs from gf_closed"
            return None
        # the triple is done; holding its series would add the benchmark's
        # own memory to the pass's peak RSS
        self.closed_series.pop((system, t), None)
        if not self.series.ps_is_zero(s):
            return "nonzero residual"
        return None


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _check_cli_text(op, text):
    """The workload's own agreement checks on a command's output."""
    command = op[1]
    fmt = op[op.index("--format") + 1] if "--format" in op else "text"
    if not text.strip():
        return "empty output"
    if command == "distribution":
        if fmt == "json":
            cols = json.loads(text)["columns"]
            ok = bool(cols) and all(c.get("match") is True for c in cols)
        else:
            lines = text.splitlines()
            ok = bool(lines) and all(line.endswith("  match") for line in lines)
        return None if ok else "enumeration and generating function disagree"
    if command == "verify":
        if fmt == "json":
            rows = json.loads(text)["rows"]
        else:
            rows = [{"status": line.split()[0]} for line in text.splitlines()[:-1]]
        ok = bool(rows) and all(r["status"] == "PASS" for r in rows)
        return None if ok else "a verify row did not PASS"
    return None


def load_golden(path):
    with open(path) as fh:
        return json.load(fh)["digests"]
