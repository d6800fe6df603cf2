"""Command-line front end.

Subcommands mirror the library layers: ``count``/``enumerate``/
``distribution`` sit on the exhaustive enumerators, ``average``/
``limit``/``table2`` on the closed forms, ``expand`` on the generating
functions, ``convert`` on the bijections, and ``verify`` prints the
cross-checking rows of ``combstat.verify.run``.  Exit status: 0 on
success (WARNs included), 1 when a verification fails, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import closed, gfcat, maps, objects, verify
from .exact import render_decimal, render_scalar
from .series import ps_to_json


def _scalar_str(value, decimal, digits):
    if decimal:
        return render_decimal(value, digits)
    return render_scalar(value)


def _load_config(path):
    """The JSON config (--config, else $COMBSTAT_CONFIG) with its defaults
    filled in; a bad value is a usage error that names its key."""
    if path is None:
        path = os.environ.get("COMBSTAT_CONFIG")
    cfg = {}
    if path:
        with open(path) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
    cfg = {"digits": 10, "budgets": {}, **cfg}
    if type(cfg["digits"]) is not int or cfg["digits"] < 1:
        raise ValueError('config key "digits" must be a positive integer, got %r'
                         % (cfg["digits"],))
    budgets = cfg["budgets"]
    if not (isinstance(budgets, dict) and all(type(b) is int for b in budgets.values())):
        raise ValueError('config key "budgets" must map family names to integers, got %r'
                         % (budgets,))
    enumerable = [f for f, fam in objects.FAMILIES.items() if fam.budget is not None]
    for family in budgets:
        if family not in enumerable:
            raise ValueError('config key "budgets" names %r, not one of the enumerable '
                             'families %s' % (family, ", ".join(enumerable)))
    return cfg


def _budget(args, cfg, family):
    """The enumeration budget: --budget, else the config's entry for the
    family, else None (the library default)."""
    if args.budget is not None:
        return args.budget
    return cfg["budgets"].get(family)


def _format(args, cfg):
    """--format, else the config's "format", else text.  The config's
    value must be one of the command's own --format choices."""
    if args.format is not None:
        return args.format
    fmt = cfg.get("format", "text")
    if fmt not in args.formats:
        raise ValueError('config key "format" must be one of %s for %s, got %r'
                         % (", ".join(args.formats), args.command, fmt))
    return fmt


# ----------------------------------------------------------- subcommands

def cmd_count(args, cfg, out):
    fam = args.family
    if args.budget is not None and args.source == "closed":
        raise ValueError("only --source enum or both enumerates; it alone takes --budget")
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
    if args.budget is not None and args.source == "gf":
        raise ValueError("only --source enum or both enumerates; it alone takes --budget")
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

    fmt = _format(args, cfg)
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
    digits = cfg["digits"]
    pair = (args.family, args.statistic)
    st = objects.statistic_entry(*pair)
    if args.k is not None and st.leaf_counts is None:
        raise ValueError("%s %s takes no --k" % pair)
    if args.budget is not None and args.method != "exact":
        raise ValueError("only --method exact enumerates; it alone takes --budget")
    if args.uniform:
        if st.uniform_id is None:
            raise ValueError("no uniform average for %s %s" % pair)
        if args.n is None:
            raise ValueError("--uniform needs --n")
        if args.r is not None:
            raise ValueError("--uniform averages over every r; it takes no --r")
        if args.method != "closed":
            raise ValueError("--uniform has a closed form only; it takes no --method %s"
                             % args.method)
        value = closed.uniform_average(st.uniform_id, args.n)
        print(_scalar_str(value, args.decimal, digits), file=out)
        return 0

    if args.method == "asymptotic-fixed-r":
        if st.avg_id is None:
            raise ValueError("no fixed-r limit for %s %s" % pair)
        if args.r is None or args.n is not None:
            raise ValueError("--method asymptotic-fixed-r takes --r and no --n")
        value = closed.fixed_r_limit_average(st.avg_id, args.r)
        print(_scalar_str(value, args.decimal, digits), file=out)
        return 0

    if args.n is None or args.r is None:
        raise ValueError("--n and --r are required for --method %s" % args.method)

    if args.method == "asymptotic":
        if st.avg_id is None:
            raise ValueError("no asymptotic form for %s %s" % pair)
        if args.decimal:
            raise ValueError("--method asymptotic prints a float; it takes no --decimal")
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
    digits = cfg["digits"]
    pair = (args.family, args.statistic)
    fid = objects.statistic_entry(*pair).avg_id
    if fid is None:
        raise ValueError("no limit law for %s %s" % pair)

    fmt = _format(args, cfg)
    if args.mean:
        if args.variant != "auto":
            raise ValueError("variants exist only for schroeder-leaf"
                             if fid != "schroeder-leaf" else
                             "--mean expands the stored law at every r; it takes no --variant")
        if fmt != "text":
            raise ValueError("--mean prints text only, not %s" % fmt)
        if args.dmax is not None:
            raise ValueError("--mean prints means, not a law; it takes no --dmax")
        if args.r is not None:
            raise ValueError("--mean prints every r up to --rmax; it takes no --r")
        rmax = 7 if args.rmax is None else args.rmax
        for r, value in enumerate(closed.limit_mean_series(fid, rmax)):
            print("r=%d %s" % (r, _scalar_str(value, args.decimal, digits)), file=out)
        return 0

    if args.r is None:
        raise ValueError("--r is required (or use --mean)")
    if args.rmax is not None:
        raise ValueError("--rmax bounds the --mean series only")
    if args.decimal and fmt != "text":
        raise ValueError("--decimal renders text only, not %s" % fmt)
    dmax = 20 if args.dmax is None else args.dmax
    law = closed.limit_distribution(fid, args.r, dmax, variant=args.variant)
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
    if args.trunc_v is not None and args.id != "P":
        raise ValueError("only P marks a leaf count in v; %s takes no --trunc-v" % args.id)
    box = gfcat.gf_box(args.id, args.trunc_z, args.trunc_x, args.trunc_v or 0)
    t = dataclasses.replace(box, ny=args.trunc_y)
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
    if args.n is not None and src not in ("triangulation", "dissection"):
        raise ValueError("only a polygon's text needs its size; %s takes no --n" % src)
    obj = objects.FAMILIES[src].from_text(args.text, args.n)
    print(objects.FAMILIES[dst].to_text(fwd(obj)), file=out)
    return 0


def cmd_table2(args, cfg, out):
    digits = cfg["digits"]
    for fid, first in closed.LIMIT_LAWS.items():
        cells = ["-"] * first + [
            _scalar_str(closed.fixed_r_limit_average(fid, r), args.decimal, digits)
            for r in range(first, 8)]
        print("%-17s %s" % (fid, " ".join(cells)), file=out)
    return 0


# -------------------------------------------------------------- verify

def cmd_verify(args, cfg, out):
    rows = verify.run(args.suite, args.max_n)
    passed, warned, failed = (sum(row.status == s for row in rows) for s in verify.STATUSES)
    if _format(args, cfg) == "json":
        json.dump({"rows": [{key: value for key, value in vars(row).items()
                             if value is not None} for row in rows],
                   "passed": passed, "warned": warned, "failed": failed}, out, indent=2)
        out.write("\n")
    else:
        width = max([20] + [len(row.family) for row in rows])
        for row in rows:
            line = "%-4s %-28s %-*s n_or_r=%s" % (
                row.status, row.check_id, width, row.family, row.n_or_r)
            if row.counterexample is not None:
                line += "  %s" % (row.counterexample,)
            print(line, file=out)
        print("passed=%d warned=%d failed=%d" % (passed, warned, failed), file=out)
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

    def add_format(sp, *choices):
        sp.add_argument("--format", choices=choices)
        sp.set_defaults(formats=choices)

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
    add_format(sp, "text", "csv", "json", "plotdata")
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
    sp.add_argument("--dmax", type=int, help="largest d of the law (default 20)")
    sp.add_argument("--variant", choices=closed.LIMIT_VARIANTS, default="auto")
    sp.add_argument("--mean", action="store_true",
                    help="print the limit means for r = 0..rmax instead")
    sp.add_argument("--rmax", type=int, help="largest r of --mean (default 7)")
    add_format(sp, "text", "json", "plotdata")
    sp.add_argument("--decimal", action="store_true")

    sp = add("expand", cmd_expand, help="dump a generating function as JSON")
    sp.add_argument("id", choices=gfcat.FAMILY_IDS)
    sp.add_argument("--trunc-z", type=int, required=True)
    sp.add_argument("--trunc-x", type=int, required=True)
    sp.add_argument("--trunc-y", type=int, required=True)
    sp.add_argument("--trunc-v", type=int, help="v-order, P only")
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
    sp.add_argument("--suite", choices=("all", *verify.SUITES), default="all")
    sp.add_argument("--max-n", type=int, default=8, dest="max_n")
    add_format(sp, "text", "json")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    # exact values print in full: no int-to-str digit limit in this call
    limit = getattr(sys, "get_int_max_str_digits", int)()
    try:
        cfg = _load_config(args.config)
        if limit:
            sys.set_int_max_str_digits(0)
        return args.fn(args, cfg, sys.stdout)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the input nests too deeply", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
