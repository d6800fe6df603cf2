"""Command-line front end.

Subcommands mirror the library layers: ``count``/``enumerate``/
``distribution`` sit on the exhaustive enumerators, ``average``/
``limit``/``table2`` on the closed forms, ``expand`` on the generating
functions, ``convert`` on the bijections, and ``verify`` runs the
cross-checking suites.  Exit status: 0 on success (WARNs included),
1 when a verification fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import closed, gfcat, maps, objects, series
from .exact import Quad2, render_decimal, render_scalar
from .series import Truncation, ps_inv, ps_is_zero, ps_monomial, ps_one, ps_shift, ps_to_json


def _scalar_str(value, decimal=False, digits=10):
    if decimal:
        return render_decimal(value, digits)
    return render_scalar(value)


def _load_config(path):
    if path is None:
        path = os.environ.get("COMBSTAT_CONFIG")
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def _budget(args, cfg, family):
    """The enumeration budget: --budget, else the config's entry for the
    family, else None (the library default)."""
    if args.budget is not None:
        return args.budget
    return cfg.get("budgets", {}).get(family)


# ----------------------------------------------------------- subcommands

def cmd_count(args, cfg, out):
    fam = args.family
    want = closed.family_count(fam, args.n)
    if args.source in ("enum", "both"):
        got = objects.count_family(fam, args.n, budget=_budget(args, cfg, fam))
        if args.source == "both" and got != want:
            print("MISMATCH: closed=%d enumerated=%d" % (want, got), file=sys.stderr)
            return 1
        want = got
    print(want, file=out)
    return 0


def cmd_enumerate(args, cfg, out):
    budget = _budget(args, cfg, args.family)
    for obj in objects.enumerate_family(args.family, args.n, budget=budget):
        print(objects.FAMILIES[args.family].to_text(obj), file=out)
    return 0


def cmd_distribution(args, cfg, out):
    family, statistic, n, k = args.family, args.statistic, args.n, args.k
    rs = [args.r] if args.r is not None else list(
        objects.positions(family, statistic, n, k))
    if args.source in ("enum", "both"):
        enum = objects.distribution_columns(family, statistic, n, rs, k,
                                            _budget(args, cfg, family))
    if args.source in ("gf", "both"):
        gf = gfcat.columns_via_gf(family, statistic, n, rs, k)
    served = gf if args.source == "gf" else enum
    columns = []
    for r in rs:
        counts, total = served[r]
        agree = None
        if args.source == "both":
            agree = dict(counts) == dict(gf[r][0]) and total == gf[r][1]
        columns.append((r, counts, total, agree))
    status = 1 if any(col[3] is False for col in columns) else 0

    fmt = args.format or cfg.get("format", "text")
    if fmt == "json":
        doc = {
            "family": args.family, "statistic": args.statistic,
            "n": args.n, "source": args.source,
            "columns": [
                {"r": r, "total": total,
                 "counts": {str(d): c for d, c in sorted(counts.items())},
                 **({"match": agree} if agree is not None else {})}
                for r, counts, total, agree in columns
            ],
        }
        if args.k is not None:
            doc["k"] = args.k
        json.dump(doc, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        print("family,statistic,n,k,r,d,count,total", file=out)
        for r, counts, total, _ in columns:
            for d, c in sorted(counts.items()):
                print("%s,%s,%d,%s,%d,%d,%d,%d" % (
                    args.family, args.statistic, args.n,
                    "" if args.k is None else args.k, r, d, c, total), file=out)
    elif fmt == "plotdata":
        print("# %s %s n=%d  columns: r d probability" % (
            args.family, args.statistic, args.n), file=out)
        for r, counts, total, _ in columns:
            for d, c in sorted(counts.items()):
                print("%d %d %.12g" % (r, d, c / total), file=out)
    else:
        for r, counts, total, agree in columns:
            body = " ".join("%d:%d" % (d, c) for d, c in sorted(counts.items()))
            line = "n=%d r=%d total=%d  %s" % (args.n, r, total, body)
            if agree is not None:
                line += "  %s" % ("match" if agree else "MISMATCH")
            print(line, file=out)
    return status


def cmd_average(args, cfg, out):
    digits = cfg.get("digits", 10)
    pair = (args.family, args.statistic)
    st = objects.statistic_entry(*pair)
    if args.k is not None and st.leaf_counts is None:
        raise ValueError("%s %s takes no --k" % pair)
    if args.uniform:
        if st.uniform_id is None:
            raise ValueError("no uniform average for %s %s" % pair)
        if args.n is None:
            raise ValueError("--uniform needs --n")
        value = closed.uniform_average(st.uniform_id, args.n)
        print(_scalar_str(value, args.decimal, digits), file=out)
        return 0

    if args.method == "asymptotic-fixed-r":
        if st.avg_id is None:
            raise ValueError("no fixed-r limit for %s %s" % pair)
        if args.r is None:
            raise ValueError("--r is required")
        value = closed.fixed_r_limit_average(st.avg_id, args.r)
        print(_scalar_str(value, args.decimal, digits), file=out)
        return 0

    if args.n is None or args.r is None:
        raise ValueError("--n and --r are required for --method %s" % args.method)

    if args.method == "asymptotic":
        if st.avg_id is None:
            raise ValueError("no asymptotic form for %s %s" % pair)
        print("%.*g" % (digits, closed.asymptotic_average(st.avg_id, args.n, args.r)),
              file=out)
        return 0

    if args.method == "exact":
        value = objects.average(args.family, args.statistic, args.n, args.r,
                                k=args.k, budget=_budget(args, cfg, args.family))
    elif st.leaf_counts is not None:
        if args.k is None:
            raise ValueError("%s %s needs --k" % pair)
        value = closed.plane_leaf_average(args.n, args.k, args.r)
    elif st.avg_id is not None:
        value = closed.exact_average(st.avg_id, args.n, args.r)
    else:
        raise ValueError("no closed form for %s %s; use --method exact" % pair)
    print(_scalar_str(value, args.decimal, digits), file=out)
    return 0


def cmd_limit(args, cfg, out):
    digits = cfg.get("digits", 10)
    pair = (args.family, args.statistic)
    fid = objects.statistic_entry(*pair).avg_id
    if fid is None:
        raise ValueError("no limit law for %s %s" % pair)

    if args.mean:
        rmax = args.rmax if args.rmax is not None else 7
        series = closed.limit_mean_series(fid, rmax)
        from .series import ps_coeff
        for r in range(rmax + 1):
            cell = ps_coeff(series, r)
            value = cell[0] if cell else Fraction(0)
            print("r=%d %s" % (r, _scalar_str(value, args.decimal, digits)), file=out)
        return 0

    if args.r is None:
        raise ValueError("--r is required (or use --mean)")
    law = closed.limit_distribution(fid, args.r, args.dmax, variant=args.variant)
    fmt = args.format or cfg.get("format", "text")
    if fmt == "json":
        json.dump({
            "formula": fid, "r": args.r, "variant": args.variant,
            "law": [{"d": d, "p": render_scalar(p),
                     "decimal": render_decimal(p, digits)} for d, p in law],
        }, out, indent=2)
        out.write("\n")
    elif fmt == "plotdata":
        print("# %s r=%d  columns: d probability" % (fid, args.r), file=out)
        for d, p in law:
            print("%d %.12g" % (d, float(p)), file=out)
    else:
        for d, p in law:
            print("d=%d %s" % (d, _scalar_str(p, args.decimal, digits)), file=out)
    return 0


def cmd_expand(args, cfg, out):
    t = Truncation(args.trunc_z, args.trunc_x, args.trunc_y,
                   nv=args.trunc_v, u_range=args.u_range)
    build = gfcat.gf_solve if args.form == "solve" else gfcat.gf_closed
    series = build(args.id, t)
    json.dump(ps_to_json(series), out, indent=2)
    out.write("\n")
    return 0


def cmd_convert(args, cfg, out):
    if args.map not in maps.BIJECTIONS:
        raise ValueError("unknown map %r (choose from %s)" % (
            args.map, ", ".join(sorted(maps.BIJECTIONS))))
    src, dst, fwd, inv = maps.BIJECTIONS[args.map]
    if args.inverse:
        src, dst, fwd = dst, src, inv
    obj = objects.FAMILIES[src].from_text(args.text, args.n)
    print(objects.FAMILIES[dst].to_text(fwd(obj)), file=out)
    return 0


TABLE2_ORDER = ("binary-leaf", "dyck-vertex", "dyck-upstep", "dyck-downstep",
                "schroeder-leaf", "noncrossing-node")


def cmd_table2(args, cfg, out):
    digits = cfg.get("digits", 10)
    for fid in TABLE2_ORDER:
        cells = []
        for r in range(8):
            try:
                value = closed.fixed_r_limit_average(fid, r)
            except ValueError:
                cells.append("-")
                continue
            cells.append(_scalar_str(value, args.decimal, digits))
        print("%-17s %s" % (fid, " ".join(cells)), file=out)
    return 0


# -------------------------------------------------------------- verify

def _row(check_id, family, n_or_r, status, counterexample=None):
    row = {"check_id": check_id, "family": family,
           "n_or_r": n_or_r, "status": status}
    if counterexample is not None:
        row["counterexample"] = counterexample
    return row


def _suite_identities(max_n):
    rows = []
    n_cap = min(max_n, 25)
    for n in range(n_cap + 1):
        ok = closed.catalan_number(n + 1) == sum(
            closed.catalan_number(i) * closed.catalan_number(n - i)
            for i in range(n + 1))
        rows.append(_row("catalan-convolution", "binary", n, "PASS" if ok else "FAIL"))
        ok = 2 * sum(closed.little_schroeder(i) * closed.little_schroeder(n - i)
                     for i in range(n + 1)) == \
            closed.little_schroeder(n + 1) + closed.little_schroeder(n)
        rows.append(_row("schroeder-convolution", "schroeder", n,
                         "PASS" if ok else "FAIL"))
        ok = sum(closed.ternary_edge(i - 1) * closed.ternary_edge(n - i)
                 for i in range(1, n + 1)) == \
            closed.ternary_edge(n) - closed.ternary_count(n)
        rows.append(_row("ternary-edge-convolution", "noncrossing", n,
                         "PASS" if ok else "FAIL"))

    # the served closed forms compute one printed form each; cross_check
    # evaluates every other form (and special value) against it
    for fid in sorted(closed.AVG_IDS):
        family, statistic = closed.AVG_IDS[fid]
        bad = None
        for n in range(1, n_cap + 1):
            for r in objects.positions(family, statistic, n):
                try:
                    closed.cross_check(fid, n, r)
                except closed.ClosedFormMismatch:
                    bad = {"n": n, "r": r}
                    break
            if bad:
                break
        rows.append(_row("closed-form-multiform", fid, n_cap,
                         "FAIL" if bad else "PASS", bad))

    for r in range(1, 13):
        ok = closed.fixed_r_limit_average("dyck-downstep", r + 1) \
            - closed.fixed_r_limit_average("dyck-upstep", r) == 3
        rows.append(_row("downstep-upstep-offset", "dyck", r,
                         "PASS" if ok else "FAIL"))
    return rows


def _suite_limits():
    rows = []
    for fid, start in (("binary-leaf", 0), ("dyck-vertex", 0), ("dyck-upstep", 1),
                       ("dyck-downstep", 1), ("noncrossing-node", 0)):
        mean = closed.limit_mean_series(fid, 7)
        from .series import ps_coeff
        bad = None
        for r in range(start, 8):
            cell = ps_coeff(mean, r)
            got = cell[0] if cell else Fraction(0)
            if got != closed.fixed_r_limit_average(fid, r):
                bad = {"r": r, "series": render_scalar(got)}
                break
        rows.append(_row("limit-gf-mean-vs-closed", fid, 7,
                         "FAIL" if bad else "PASS", bad))

    col = dict(closed.limit_distribution("binary-leaf", 0, 20))
    ok = all(col[d] == Fraction(d, 2 ** (d + 1)) for d in range(1, 21))
    rows.append(_row("binary-r0-column", "binary-leaf", 0, "PASS" if ok else "FAIL"))

    ok = closed.limit_distribution("dyck-upstep", 2, 4) == [
        (1, Fraction(1, 4)), (2, Fraction(3, 4))]
    rows.append(_row("upstep-r2-column", "dyck-upstep", 2, "PASS" if ok else "FAIL"))

    col = dict(closed.limit_distribution("noncrossing-node", 1, 12))
    ok = all(col[d] == Fraction(4 * d, 3 ** (d + 1)) for d in range(1, 13))
    rows.append(_row("noncrossing-r1-column", "noncrossing-node", 1,
                     "PASS" if ok else "FAIL"))

    law = closed.limit_distribution("schroeder-leaf", 0, 50)
    mean = sum(d * float(p) for d, p in law)
    ok = abs(mean - float(Quad2(1, 1))) < 1e-9
    rows.append(_row("schroeder-r0-law-mean", "schroeder-leaf", 0,
                     "PASS" if ok else "FAIL"))

    # the bivariate schroeder form and the printed r = 0 law agree at
    # d = 1 but then split, and the bivariate column keeps only 4/9 of
    # the mass: a real discrepancy between the two stated laws, so it
    # is reported as a WARN rather than silently picking a side
    verb = dict(closed.limit_distribution("schroeder-leaf", 0, 30, variant="verbatim"))
    law = dict(closed.limit_distribution("schroeder-leaf", 0, 30))
    mass = sum(float(p) for p in verb.values())
    deviates = verb[1] == law[1] and verb[2] != law[2] and mass < 0.5
    rows.append(_row(
        "schroeder-bivariate-vs-r0-law", "schroeder-leaf", 0,
        "WARN" if deviates else "FAIL",
        {"d": 2, "bivariate": render_scalar(verb[2]),
         "r0_law": render_scalar(law[2]), "bivariate_mass": "%.6f" % mass},
    ))
    return rows


def _suite_bijections(max_n):
    """One enumeration per bijection and size: each object's image feeds
    the round trip, the count of distinct images and the transport law."""
    rows = []
    for name in sorted(maps.BIJECTIONS):
        src, dst, fwd, inv = maps.BIJECTIONS[name]
        lo = objects.FAMILIES[src].min_n
        cap = min(max_n, objects.BUDGETS.get(src, max_n))
        # the depth <-> separating-diagonals law needs a genuine polygon:
        # a single leaf maps to the degenerate 2-gon, where root and leaf
        # side coincide and the offset of one does not apply
        start = 2 if name == "schroeder-to-dissection" else max(lo, 1)
        moved = None  # the first object the transport law fails on
        for n in range(lo, cap + 1):
            seen, bad, count = set(), None, 0
            for obj in objects.enumerate_family(src, n, budget=cap):
                image = fwd(obj)
                count += 1
                if bad is None and inv(image) != obj:
                    bad = {"object": objects.FAMILIES[src].to_text(obj)}
                seen.add(objects.FAMILIES[dst].to_text(image))
                if moved is None and n >= start:
                    want, got = _TRANSPORT_LAWS[name](obj, image)
                    if want != got:
                        moved = {"n": n, "object": objects.FAMILIES[src].to_text(obj),
                                 "want": want, "got": got}
                if bad and (moved or n < start):
                    break
            if bad is None and len(seen) != count:
                bad = {"distinct_images": len(seen), "objects": count}
            rows.append(_row("roundtrip-" + name, src, n,
                             "FAIL" if bad else "PASS", bad))
        rows.append(_row("transport-" + name, src, cap,
                         "FAIL" if moved else "PASS", moved))
    return rows


# (want, got): the statistic each bijection carries, read off an object and its image
_TRANSPORT_LAWS = {
    "plane-to-dyck": lambda obj, image: (
        objects.plane_node_depths_preorder(obj)[1:], objects.dyck_upstep_heights(image)),
    "binary-to-dyck-fl": lambda obj, image: (
        [objects.binary_leaf_depths(obj)[0]], [maps.dyck_initial_run(image)]),
    "binary-to-dyck-fr": lambda obj, image: (
        [objects.binary_leaf_depths(obj)[0]], [maps.dyck_returns(image)]),
    "binary-to-triangulation": lambda obj, image: (
        objects.binary_leaf_depths(obj),
        [c + 1 for c in objects.separating_diagonal_counts(image)]),
    "schroeder-to-dissection": lambda obj, image: (
        objects.plane_leaf_depths(obj),
        [c + 1 for c in objects.separating_diagonal_counts(image)]),
    "increasing-to-permutation": lambda obj, image: (list(image), _inorder_labels(obj)),
}


def _inorder_labels(t):
    if t is None:
        return []
    return _inorder_labels(t[1]) + [t[0]] + _inorder_labels(t[2])


def _fixed_point_residual(eq_id, t):
    """The solved base minus the right side of its printed equation (the
    solver works with the denominators cleared)."""
    s = series.solve_fixed_point(eq_id, t)
    one, z = ps_one(t), ps_monomial(t, (1, 0, 0, 0), [1])
    if eq_id == "catalan":  # C = 1 + zC^2
        return s - (one + z * s * s)
    if eq_id == "ternary":  # T = 1 + zT^3
        return s - (one + z * s * s * s)
    if eq_id == "schroeder":  # St = z + St^2/(1 - St), St = zS
        st = ps_shift(s, 1)
        return st - (z + st * st * ps_inv(one - st))
    # N = 1/(1 - zN) - 1 + v
    return s - (ps_inv(one - z * s) - one + ps_monomial(t, (0, 0, 1, 0), [1]))


def _suite_gf(max_n):
    rows = []
    for eq_id in ("catalan", "ternary", "schroeder", "narayana"):
        ok = ps_is_zero(_fixed_point_residual(eq_id, Truncation(8, 0, 0, nv=8)))
        rows.append(_row("fixed-point", eq_id, 8, "PASS" if ok else "FAIL"))
    t = Truncation(8, 8, 8)
    special = {"P": Truncation(8, 8, 8, nv=8), "Babs": Truncation(8, 8, 8, u_range=8)}
    for fam in gfcat.FAMILY_IDS:
        tt = special.get(fam, t)
        s = gfcat.gf_closed(fam, tt)
        ok = ps_is_zero(gfcat.gf_residual(fam, s))
        rows.append(_row("gf-residual", fam, 8, "PASS" if ok else "FAIL"))
        ok = s == gfcat.gf_solve(fam, tt)
        rows.append(_row("gf-closed-vs-solve", fam, 8, "PASS" if ok else "FAIL"))

    # every column of each pair at one size, from both routes; the
    # families that enumerate slowest stop at size 5
    n = min(max_n, 6)
    for (family, statistic), st in objects.STATISTICS.items():
        nn = min(n, 5) if family in ("noncrossing", "increasing", "dissection") else n
        k = 3 if st.leaf_counts else None
        rs = objects.positions(family, statistic, nn, k)
        got = gfcat.columns_via_gf(family, statistic, nn, rs, k)
        want = objects.distribution_columns(family, statistic, nn, rs, k)
        ok = all(dict(got[r][0]) == dict(want[r][0]) and got[r][1] == want[r][1]
                 for r in rs)
        rows.append(_row("gf-vs-enumeration", "%s/%s" % (family, statistic), nn,
                         "PASS" if ok else "FAIL"))
    return rows


def cmd_verify(args, cfg, out):
    suites = {
        "identities": lambda: _suite_identities(args.max_n),
        "limits": _suite_limits,
        "bijections": lambda: _suite_bijections(args.max_n),
        "gf": lambda: _suite_gf(args.max_n),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    rows = []
    for name in names:
        rows.extend(suites[name]())

    failed = sum(1 for r in rows if r["status"] == "FAIL")
    warned = sum(1 for r in rows if r["status"] == "WARN")
    if (args.format or cfg.get("format", "text")) == "json":
        json.dump({"rows": rows, "passed": len(rows) - failed - warned,
                   "warned": warned, "failed": failed}, out, indent=2)
        out.write("\n")
    else:
        for row in rows:
            line = "%-4s %-28s %-20s n_or_r=%s" % (
                row["status"], row["check_id"], row["family"], row["n_or_r"])
            if "counterexample" in row:
                line += "  %s" % (row["counterexample"],)
            print(line, file=out)
        print("passed=%d warned=%d failed=%d"
              % (len(rows) - failed - warned, warned, failed), file=out)
    return 1 if failed else 0


# ---------------------------------------------------------------- parser

# as costly as a small command to build, and never changed once built
@functools.cache
def build_parser():
    p = argparse.ArgumentParser(
        prog="combstat",
        description="Exact per-position statistics on Catalan-like families.",
    )
    p.add_argument("--config", help="JSON config file (or $COMBSTAT_CONFIG)")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("count", cmd_count, help="count a family at one size")
    sp.add_argument("family")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--source", choices=("closed", "enum", "both"), default="closed")
    sp.add_argument("--budget", type=int)

    sp = add("enumerate", cmd_enumerate, help="list every object at one size")
    sp.add_argument("family")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--budget", type=int)

    sp = add("distribution", cmd_distribution,
             help="distribution of a statistic at position r (all r if omitted)")
    sp.add_argument("family")
    sp.add_argument("statistic")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int)
    sp.add_argument("--k", type=int, help="leaf count (plane leaf-depth only)")
    sp.add_argument("--source", choices=("enum", "gf", "both"), default="enum")
    sp.add_argument("--format", choices=("text", "csv", "json", "plotdata"))
    sp.add_argument("--budget", type=int)

    sp = add("average", cmd_average, help="average of a statistic at position r")
    sp.add_argument("family")
    sp.add_argument("statistic")
    sp.add_argument("--n", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--method",
                    choices=("closed", "exact", "asymptotic", "asymptotic-fixed-r"),
                    default="closed")
    sp.add_argument("--uniform", action="store_true",
                    help="uniform-position average instead of one r")
    sp.add_argument("--decimal", action="store_true")
    sp.add_argument("--budget", type=int)

    sp = add("limit", cmd_limit, help="fixed-r limit law (or its mean series)")
    sp.add_argument("family")
    sp.add_argument("statistic")
    sp.add_argument("--r", type=int)
    sp.add_argument("--dmax", type=int, default=20)
    sp.add_argument("--variant", choices=("auto", "verbatim", "r0-law"),
                    default="auto")
    sp.add_argument("--mean", action="store_true",
                    help="print the limit means for r = 0..rmax instead")
    sp.add_argument("--rmax", type=int)
    sp.add_argument("--format", choices=("text", "json", "plotdata"))
    sp.add_argument("--decimal", action="store_true")

    sp = add("expand", cmd_expand, help="dump a generating function as JSON")
    sp.add_argument("id", choices=gfcat.FAMILY_IDS)
    sp.add_argument("--trunc-z", type=int, required=True)
    sp.add_argument("--trunc-x", type=int, required=True)
    sp.add_argument("--trunc-y", type=int, required=True)
    sp.add_argument("--trunc-v", type=int, default=0)
    sp.add_argument("--u-range", type=int, default=0)
    sp.add_argument("--form", choices=("closed", "solve"), default="closed")

    sp = add("convert", cmd_convert, help="apply a bijection to one object")
    sp.add_argument("map")
    sp.add_argument("text")
    sp.add_argument("--inverse", action="store_true")
    sp.add_argument("--n", type=int,
                    help="size, needed when parsing a polygon subdivision")

    sp = add("table2", cmd_table2, help="fixed-r limit averages, r = 0..7")
    sp.add_argument("--decimal", action="store_true")

    sp = add("verify", cmd_verify, help="run a cross-checking suite")
    sp.add_argument("--suite", choices=("all", "identities", "limits",
                                        "bijections", "gf"), default="all")
    sp.add_argument("--max-n", type=int, default=8, dest="max_n")
    sp.add_argument("--format", choices=("text", "json"))
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.fn(args, cfg, sys.stdout)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
