import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from combstat import closed, gfcat, maps, objects, series, verify
from combstat.cli import main
from combstat.exact import render_scalar


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.rstrip("\n")


def test_average_examples(capsys):
    code, out = run(capsys, "average", "binary", "leaf-depth",
                    "--n", "20", "--r", "0", "--method", "closed")
    assert (code, out) == (0, "30/11")
    code, out = run(capsys, "average", "schroeder", "leaf-depth",
                    "--r", "0", "--method", "asymptotic-fixed-r")
    assert (code, out) == (0, "1+1*rt2")
    code, out = run(capsys, "average", "increasing", "internal-depth",
                    "--n", "1", "--r", "0", "--method", "closed")
    assert (code, out) == (0, "0")


def test_average_asymptotic(capsys):
    assert run(capsys, "average", "binary", "leaf-depth", "--n", "10", "--r", "3",
               "--method", "asymptotic") == (0, "6.540707049")


def test_average_plane_leaf_depth_closed(capsys):
    # the closed route needs the leaf count k; size 3 has 3 trees with 2 leaves
    assert run(capsys, "average", "plane", "leaf-depth",
               "--n", "3", "--k", "2", "--r", "1") == (0, "5/3")


def test_average_plane_refuses_a_negative_size(capsys):
    # no tree of size -1: a usage error, not a division by its count 0
    assert main(["average", "plane", "leaf-depth", "--n", "-1", "--r", "0",
                 "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "size -1 out of range" in captured.err


def test_average_methods_agree(capsys):
    _, closed_out = run(capsys, "average", "dyck", "upstep-height",
                        "--n", "6", "--r", "3", "--method", "closed")
    _, exact_out = run(capsys, "average", "dyck", "upstep-height",
                       "--n", "6", "--r", "3", "--method", "exact")
    assert closed_out == exact_out


def test_distribution_both_matches(capsys):
    code, out = run(capsys, "distribution", "binary", "leaf-depth",
                    "--n", "3", "--source", "both")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 4
    assert all(line.endswith("match") for line in lines)


def test_distribution_csv(capsys):
    code, out = run(capsys, "distribution", "plane", "leaf-depth",
                    "--n", "3", "--k", "2", "--r", "0", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "family,statistic,n,k,r,d,count,total"
    assert "plane,leaf-depth,3,2,0,1,1,3" in lines


def test_distribution_plotdata(capsys):
    code, out = run(capsys, "distribution", "binary", "leaf-depth",
                    "--n", "3", "--r", "1", "--format", "plotdata")
    assert (code, out.splitlines()) == (0, [
        "# binary leaf-depth n=3  columns: r d probability", "1 2 0.4", "1 3 0.6"])


def test_distribution_json(capsys):
    code, out = run(capsys, "distribution", "binary", "leaf-abscissa",
                    "--n", "2", "--source", "both", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["columns"][0]["counts"] == {"-2": 1, "-1": 1}
    assert doc["columns"][1]["counts"] == {"0": 2}
    assert all(col["match"] for col in doc["columns"])


def test_count(capsys):
    assert run(capsys, "count", "schroeder", "--n", "6", "--source", "both") == (0, "197")
    assert run(capsys, "count", "binary", "--n", "4") == (0, "14")
    assert run(capsys, "count", "increasing", "--n", "5") == (0, "120")


def test_enumerate(capsys):
    code, out = run(capsys, "enumerate", "binary", "--n", "2")
    assert sorted(out.splitlines()) == ["((..).)", "(.(..))"]


def test_convert(capsys):
    code, out = run(capsys, "convert", "binary-to-triangulation", "((..)(..))")
    assert (code, out) == (0, "0-2,2-4")
    code, out = run(capsys, "convert", "binary-to-triangulation", "0-2,2-4",
                    "--inverse", "--n", "3")
    assert (code, out) == (0, "((..)(..))")
    code, out = run(capsys, "convert", "binary-to-dyck-fl", "((..).)")
    assert (code, out) == (0, "UUDD")
    code, out = run(capsys, "convert", "increasing-to-permutation", "231")
    assert (code, out) == (0, "231")


def test_convert_reads_a_schroeder_tree_with_children(capsys):
    # the root's second child has children of its own: one diagonal
    assert run(capsys, "convert", "schroeder-to-dissection", "(()(()()))") == (0, "1-3")


def test_convert_refuses_a_repeated_pair(capsys):
    # a diagonal listed twice is refused, not read once
    assert main(["convert", "binary-to-triangulation", "--inverse", "0-2,0-2",
                 "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "lists a pair twice" in captured.err


def test_convert_refuses_input_that_nests_too_deeply(capsys):
    # deeper than the interpreter's recursion limit: an input error, not a crash
    deep = 1200
    for argv in (["plane-to-dyck", "(" * deep + ")" * deep],
                 ["binary-to-dyck-fl", "(" * deep + "." + ".)" * deep]):
        assert main(["convert", *argv]) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == "" and "nests too deeply" in captured.err


def test_convert_reads_a_permutation_too_deep_to_recurse(capsys):
    # the sorted permutation is a right comb and its reverse a left comb,
    # each deeper than the interpreter's recursion limit
    deep = 1200
    for perm in (range(1, deep + 1), range(deep, 0, -1)):
        text = ",".join(map(str, perm))
        for flag in ((), ("--inverse",)):
            assert run(capsys, "convert", "increasing-to-permutation", text,
                       *flag) == (0, text), (perm, flag)


def test_convert_refuses_a_negative_polygon_size(capsys):
    for name in ("binary-to-triangulation", "schroeder-to-dissection"):
        assert main(["convert", name, "--inverse", "", "--n", "-1"]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "" and "size -1 out of range" in captured.err


def test_table2(capsys):
    code, out = run(capsys, "table2")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 6
    assert lines[0].split()[1:] == ["3", "5", "13/2", "31/4", "283/32",
                                    "629/64", "2747/256", "5923/512"]
    assert lines[2].split()[1] == "-"  # no 0th up-step
    assert lines[4].split()[1] == "1+1*rt2"


def test_limit(capsys):
    code, out = run(capsys, "limit", "dyck", "upstep-height",
                    "--r", "2", "--dmax", "4")
    assert out.splitlines() == ["d=1 1/4", "d=2 3/4"]
    code, out = run(capsys, "limit", "binary", "leaf-depth", "--mean", "--rmax", "3")
    assert out.splitlines()[-1] == "r=3 31/4"


def test_limit_plotdata(capsys):
    code, out = run(capsys, "limit", "binary", "leaf-depth", "--r", "1", "--dmax", "3",
                    "--format", "plotdata")
    assert (code, out.splitlines()) == (0, [
        "# binary-leaf r=1  columns: d probability", "2 0.125", "3 0.1875"])


def test_expand(capsys):
    code, out = run(capsys, "expand", "B", "--trunc-z", "2",
                    "--trunc-x", "2", "--trunc-y", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["truncation"]["nz"] == 2
    cell = next(e for e in doc["entries"] if e["z"] == 2 and e["x"] == 0)
    assert cell["ypoly"] == ["0", "1", "1"]


def test_verify_limits_has_one_warn(capsys):
    code, out = run(capsys, "verify", "--suite", "limits")
    assert code == 0
    assert out.splitlines()[-1].endswith("warned=1 failed=0")
    warns = [l for l in out.splitlines() if l.startswith("WARN")]
    assert len(warns) == 1 and "schroeder-bivariate-vs-r0-law" in warns[0]


def test_verify_bijections(capsys):
    code, out = run(capsys, "verify", "--suite", "bijections", "--max-n", "6")
    assert code == 0
    assert out.splitlines()[-1].endswith("warned=0 failed=0")


def test_verify_bijections_names_what_a_broken_inverse_misses(capsys, monkeypatch):
    src, dst, fwd, inv = maps.BIJECTIONS["plane-to-dyck"]
    monkeypatch.setitem(maps.BIJECTIONS, "plane-to-dyck",
                        (src, dst, fwd, lambda w: inv(w) if len(w) < 4 else ()))
    # and a transport fault on the object after the first round-trip failure
    heights = objects.dyck_upstep_heights
    monkeypatch.setattr(objects, "dyck_upstep_heights",
                        lambda w: [0, 0] if w == "UUDD" else heights(w))
    code, out = run(capsys, "verify", "--suite", "bijections", "--max-n", "3",
                    "--format", "json")
    rows = {(r["check_id"], r["n_or_r"]): r for r in json.loads(out)["rows"]}
    assert code == 1
    assert [rows["roundtrip-plane-to-dyck", n]["status"] for n in range(4)] == \
        ["PASS", "PASS", "FAIL", "FAIL"]
    assert rows["roundtrip-plane-to-dyck", 2]["counterexample"] == {"object": "(()())"}
    assert rows["transport-plane-to-dyck", 3]["counterexample"] == {
        "n": 2, "object": "((()))", "want": [1, 2], "got": [0, 0]}


def test_verify_bijections_reports_a_broken_transport_law(capsys, monkeypatch):
    counts = objects.separating_diagonal_counts
    monkeypatch.setattr(objects, "separating_diagonal_counts",
                        lambda sub: [c + 1 for c in counts(sub)])
    code, out = run(capsys, "verify", "--suite", "bijections", "--max-n", "4",
                    "--format", "json")
    rows = {(r["check_id"], r["n_or_r"]): r for r in json.loads(out)["rows"]}
    assert code == 1
    row = rows["transport-binary-to-triangulation", 4]
    assert row["status"] == "FAIL"
    assert row["counterexample"] == {"n": 1, "object": "(..)", "want": [1, 1],
                                     "got": [2, 2]}
    assert all(rows["roundtrip-binary-to-triangulation", n]["status"] == "PASS"
               for n in range(5))


def test_verify_bijections_reports_an_increasing_tree_depth_fault(capsys, monkeypatch):
    # the permutation side reads each depth off the image alone, so an
    # off-by-one in the tree's depth walker cannot agree with it
    depths = objects.increasing_internal_depths_inorder
    monkeypatch.setattr(objects, "increasing_internal_depths_inorder",
                        lambda t: [d + 1 for d in depths(t)])
    code, out = run(capsys, "verify", "--suite", "bijections", "--max-n", "3",
                    "--format", "json")
    rows = {(r["check_id"], r["n_or_r"]): r for r in json.loads(out)["rows"]}
    assert code == 1
    row = rows["transport-increasing-to-permutation", 3]
    assert row["status"] == "FAIL"
    assert row["counterexample"] == {"n": 1, "object": "1", "want": [1], "got": [0]}
    assert all(r["status"] == "PASS" for key, r in rows.items()
               if key[0] != "transport-increasing-to-permutation")


# sha256 of `verify --suite all --max-n 8` in each format, as printed
# before the suites moved into combstat.verify, plus the gf-residual and
# gf-closed-vs-solve rows of the down-step system W, the four
# gf-vs-lagrange rows of B, D, U and W, the ten gf-total-vs-closed rows,
# and the passes they add to the summary line; the text pads the family
# column to its longest name, at least 20 characters
VERIFY_ALL_DIGESTS = {
    "text": "8fed7b00797ec49225da3127e821ffc13fa4e09f4692dc7cc34fda7fd46fc2d0",
    "json": "0deaf7f71d8c6d9da5375191d592ce3ec122fa7e3efd3d6b2e4438eaddbf568f",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_ALL_DIGESTS))
def test_verify_all_output_is_pinned(capsys, fmt):
    code = main(["verify", "--suite", "all", "--max-n", "8", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGESTS[fmt]


# sha256 of `enumerate` at every size from the family's smallest to the
# cap below, in that order, as printed before binary trees, plane trees
# and Dyck paths shared one Catalan decomposition (noncrossing and
# dissection at 7: before the enumerators streamed)
ENUMERATE_DIGESTS = {
    ("binary", 9): "55fb5ec956949cc53b74c4b539ad94dea21068fc0c9f1f78f98b5d4670b2b63f",
    ("plane", 9): "a81d0b01608ab9316f5e3dfcca59953fdc21721c29548c4450aed3439f254053",
    ("dyck", 9): "85874496c744390aca751590256183393c881859ca78884b9a246a4ffb57d95b",
    ("triangulation", 9): "358f229ca9ba1c224f46e0b1e5ffe75458f97bc87224778d305ba4bffb032e01",
    ("schroeder", 8): "ec9cba9f4f4466df37a317c78a727dfcf44aa0d3a15fe87abaee721221bd2855",
    ("noncrossing", 6): "973a10853d7de7e6c58514fcf675a45a5a0e6162176e357b80f8014ff3065aa7",
    ("noncrossing", 7): "12299035752d7014d3abaac8f2bca586000cceaf3bfde78590f20302fe94c4b4",
    ("increasing", 6): "d63851cfb21489c194140149378c714588f4dce5960ee86ec817ab3cb30add46",
    ("dissection", 6): "e3fbc243a852c40a3d867936942656e36af7868b6b30f16ebbd82c9701c1e367",
    ("dissection", 7): "90724cf6426fb312fdc9041d2906820e1b2c58e6efd2a54c0caaa6f0e85a4874",
}


@pytest.mark.parametrize("family,cap", sorted(ENUMERATE_DIGESTS))
def test_enumerate_output_is_pinned(capsys, family, cap):
    digest = hashlib.sha256()
    for n in range(objects.FAMILIES[family].min_n, cap + 1):
        assert main(["enumerate", family, "--n", str(n)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == ENUMERATE_DIGESTS[family, cap]


# each limit-law pair and the first r of its law
LIMIT_LAW_PAIRS = (("binary", "leaf-depth", 0), ("dyck", "vertex-height", 0),
                   ("dyck", "upstep-height", 1), ("dyck", "downstep-height", 1),
                   ("schroeder", "leaf-depth", 0), ("noncrossing", "node-depth", 0))

# sha256 of the limit layer's output: every law column at dmax 30 from
# its first r to 7, one JSON law, the mean series to r = 9 and table2,
# as printed before every law went through one column division
LIMIT_LAYER_DIGEST = "89a81d31d95e13a5a633461bb1a6ca3937d6c555a8480c05b5ddc26356a18860"


def test_limit_layer_output_is_pinned(capsys):
    argvs = [["limit", family, statistic, "--r", str(r), "--dmax", "30"]
             for family, statistic, first in LIMIT_LAW_PAIRS for r in range(first, 8)]
    argvs.append(["limit", "noncrossing", "node-depth", "--r", "3", "--dmax", "30",
                  "--format", "json"])
    argvs += [["limit", family, statistic, "--mean", "--rmax", "9"]
              for family, statistic, _ in LIMIT_LAW_PAIRS]
    argvs.append(["table2"])
    digest = hashlib.sha256()
    for argv in argvs:
        assert main(argv) == 0, argv
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == LIMIT_LAYER_DIGEST


# sha256 of `limit <pair> --mean --rmax R` for each limit-law pair and
# R = 0..12, plain then --decimal, as printed when the means came from a
# quotient-rule series of their own
LIMIT_MEAN_DIGEST = "39e4321dc657aaa17ba4b4185e8b526e5cb2e22e07390f3136711d34c640fcd1"


def test_limit_means_are_pinned(capsys):
    digest = hashlib.sha256()
    for family, statistic, _ in LIMIT_LAW_PAIRS:
        for rmax in range(13):
            for extra in ([], ["--decimal"]):
                argv = ["limit", family, statistic, "--mean", "--rmax", str(rmax), *extra]
                assert main(argv) == 0, argv
                digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == LIMIT_MEAN_DIGEST


def test_verify_row_status():
    assert verify.Row.check("c", "f", 1).status == "PASS"
    assert verify.Row.check("c", "f", 1, ok=False).status == "FAIL"
    assert verify.Row.check("c", "f", 1, counterexample={"n": 1}).status == "FAIL"
    with pytest.raises(ValueError):
        verify.Row("c", "f", 1, "OK")


def test_verify_json(capsys):
    code, out = run(capsys, "verify", "--suite", "gf", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["failed"] == 0
    assert {"check_id", "family", "n_or_r", "status"} <= set(doc["rows"][0])


@pytest.mark.parametrize("max_n", ["0", "1"])
def test_verify_gf_at_the_smallest_sizes(capsys, max_n):
    # each pair's size is raised to its family's smallest and the plane
    # leaf count capped by the size, so no check asks for an empty class
    code, out = run(capsys, "verify", "--suite", "gf", "--max-n", max_n)
    assert code == 0
    assert out.splitlines()[-1] == "passed=51 warned=0 failed=0"


@pytest.fixture
def digit_limit():
    """Python's default int-to-str digit limit, restored after the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


# exact values with more digits than the default limit prints
BIG_VALUES = {
    ("count", "binary", "--n", "8000"): lambda: closed.family_count("binary", 8000),
    ("average", "binary", "leaf-depth", "--n", "20000", "--r", "10000"):
        lambda: closed.exact_average("binary-leaf", 20000, 10000),
    ("average", "dyck", "vertex-height", "--n", "9000", "--r", "9000"):
        lambda: closed.exact_average("dyck-vertex", 9000, 9000),
}


@pytest.mark.parametrize("argv", sorted(BIG_VALUES), ids=" ".join)
def test_exact_values_of_any_size_print(capsys, digit_limit, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert sys.get_int_max_str_digits() == digit_limit
    sys.set_int_max_str_digits(0)
    assert len(out) > digit_limit and out == render_scalar(BIG_VALUES[argv]())


def test_main_keeps_the_digit_limit_on_errors(capsys, digit_limit):
    assert run(capsys, "average", "binary", "leaf-depth", "--n", "3")[0] == 2
    assert sys.get_int_max_str_digits() == digit_limit


def test_usage_errors(capsys, tmp_path):
    assert main(["count", "widgets", "--n", "3"]) == 2
    assert main(["average", "binary", "leaf-depth", "--n", "3"]) == 2
    assert main(["distribution", "plane", "leaf-depth", "--n", "3"]) == 2
    assert main(["convert", "binary-to-triangulation", "0-2", "--inverse"]) == 2
    # a permutation text must list 1..n once each
    assert main(["convert", "increasing-to-permutation", "--inverse", "1123"]) == 2
    assert main(["convert", "increasing-to-permutation", "--inverse", "305"]) == 2
    # Schroeder trees start at one leaf
    assert main(["count", "schroeder", "--n", "0"]) == 2
    assert main(["count", "schroeder", "--n", "-1"]) == 2
    assert main(["distribution", "schroeder", "leaf-depth", "--n", "0"]) == 2
    # only plane leaf-depth takes a leaf count
    assert main(["distribution", "binary", "leaf-depth", "--n", "3", "--k", "2"]) == 2
    assert main(["average", "dyck", "upstep-height", "--n", "3", "--r", "1",
                 "--k", "2"]) == 2
    # a unary node would map to a side of the polygon, not a diagonal
    assert main(["convert", "schroeder-to-dissection", "((()))"]) == 2
    # the growing-r asymptotics divide by the size (leaves-1 for Schroeder)
    for family, statistic, n in (("binary", "leaf-depth", "0"),
                                 ("dyck", "vertex-height", "0"),
                                 ("noncrossing", "node-depth", "0"),
                                 ("increasing", "leaf-depth", "0"),
                                 ("schroeder", "leaf-depth", "1")):
        assert main(["average", family, statistic, "--n", n, "--r", "0",
                     "--method", "asymptotic"]) == 2
    # no plane tree has more leaves than nodes: nothing to average over
    assert main(["average", "plane", "leaf-depth", "--n", "3", "--k", "4", "--r", "0",
                 "--method", "exact"]) == 2
    assert main(["distribution", "plane", "leaf-depth", "--n", "3", "--k", "4"]) == 2
    capsys.readouterr()
    assert main(["expand", "B", "--trunc-z", "-1", "--trunc-x", "2",
                 "--trunc-y", "2"]) == 2
    assert "truncation bound nz" in capsys.readouterr().err
    # a negative mean-series bound is refused by name
    assert main(["limit", "binary", "leaf-depth", "--mean", "--rmax", "-1"]) == 2
    assert "rmax must be nonnegative" in capsys.readouterr().err
    # the abscissa's fixed-r limit is -3 at every position, and only there
    assert main(["average", "binary", "leaf-abscissa", "--r", "-1",
                 "--method", "asymptotic-fixed-r"]) == 2
    # a negative size is refused before any suite runs
    for suite, max_n in (("bijections", "-1"), ("identities", "-3"), ("gf", "-1")):
        assert main(["verify", "--suite", suite, "--max-n", max_n]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "max_n must be at least 0" in captured.err
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # a flag the command would ignore is refused: the uniform average is a
    # closed form over every r, and only schroeder-leaf has limit variants
    for argv, message in (
        (["average", "binary", "leaf-depth", "--uniform", "--n", "5", "--method", "exact"],
         "takes no --method exact"),
        (["average", "binary", "leaf-depth", "--uniform", "--n", "5", "--r", "3"],
         "takes no --r"),
        (["limit", "binary", "leaf-depth", "--mean", "--variant", "verbatim"],
         "variants exist only for schroeder-leaf"),
        # the mean series has one form per law, whatever the variant
        (["limit", "schroeder", "leaf-depth", "--mean", "--variant", "verbatim",
          "--rmax", "2"], "--variant"),
        # the fixed-r limit has no size; only enumeration reads a budget;
        # --dmax bounds a law and --rmax the mean series
        (["average", "binary", "leaf-depth", "--method", "asymptotic-fixed-r",
          "--r", "1", "--n", "5"], "no --n"),
        (["average", "binary", "leaf-depth", "--n", "5", "--r", "2", "--budget", "3"],
         "--budget"),
        (["average", "binary", "leaf-depth", "--uniform", "--n", "5", "--budget", "3"],
         "--budget"),
        (["limit", "binary", "leaf-depth", "--mean", "--dmax", "3"], "--dmax"),
        (["limit", "binary", "leaf-depth", "--mean", "--r", "3", "--rmax", "1"],
         "it takes no --r"),
        (["limit", "binary", "leaf-depth", "--r", "1", "--rmax", "3"], "--rmax"),
        # a count by closed form and a column by GF enumerate nothing
        (["count", "binary", "--n", "3", "--source", "closed", "--budget", "1"],
         "--budget"),
        (["distribution", "binary", "leaf-depth", "--n", "3", "--source", "gf",
          "--budget", "1"], "--budget"),
        # only a polygon's text leaves its size to --n; an asymptotic
        # average is a float, and JSON and plot data print every form
        (["convert", "binary-to-triangulation", "(.(..))", "--n", "9"], "takes no --n"),
        (["convert", "plane-to-dyck", "UD", "--inverse", "--n", "1"], "takes no --n"),
        (["average", "binary", "leaf-depth", "--n", "10", "--r", "3",
          "--method", "asymptotic", "--decimal"], "--decimal"),
        (["limit", "binary", "leaf-depth", "--r", "1", "--format", "json", "--decimal"],
         "--decimal"),
        (["limit", "binary", "leaf-depth", "--r", "1", "--format", "plotdata",
          "--decimal"], "--decimal"),
        # only P has a v, the leaf count
        (["expand", "B", "--trunc-z", "1", "--trunc-x", "0", "--trunc-y", "1",
          "--trunc-v", "3"], "takes no --trunc-v"),
        (["expand", "Babs", "--trunc-z", "1", "--trunc-x", "0", "--trunc-y", "1",
          "--trunc-v", "0"], "takes no --trunc-v"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, argv
    # a limit variant is auto or verbatim; r0-law is what auto serves at r = 0
    for variant in ("bogus", "r0-law"):
        with pytest.raises(SystemExit) as exc:
            main(["limit", "schroeder", "leaf-depth", "--r", "0", "--variant", variant])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    # a bad config value exits 2 with a message that names its key; a
    # format must be one of the command's own choices
    cfg = tmp_path / "cfg.json"
    for text, argv, key in (
        ('{"digits": "x"}', ["average", "binary", "leaf-depth", "--n", "5", "--r", "1",
                             "--decimal"], "digits"),
        ('{"digits": -3}', ["table2", "--decimal"], "digits"),
        ('{"digits": 0}', ["limit", "binary", "leaf-depth", "--mean", "--decimal"], "digits"),
        ('{"budgets": [1]}', ["distribution", "binary", "leaf-depth", "--n", "3"], "budgets"),
        ('{"budgets": {"binary": "9"}}', ["count", "binary", "--n", "3", "--source", "enum"],
         "budgets"),
        ('{"format": "xml"}', ["limit", "binary", "leaf-depth", "--r", "1"], "format"),
        ('{"format": "csv"}', ["verify", "--suite", "bijections", "--max-n", "1"], "format"),
        ('{"format": "plotdata"}', ["verify", "--suite", "bijections", "--max-n", "1"],
         "format"),
    ):
        cfg.write_text(text)
        assert main(["--config", str(cfg), *argv]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == "" and 'config key "%s"' % key in captured.err, text
    # a budget for a family that does not enumerate is named, not ignored
    for family in ("binari", "permutation"):
        cfg.write_text('{"budgets": {"%s": 2}}' % family)
        assert main(["--config", str(cfg), "count", "binary", "--n", "3",
                     "--source", "enum"]) == 2, family
        captured = capsys.readouterr()
        assert captured.out == "" and 'config key "budgets" names %r' % family in captured.err
    # the limit means print text only, whether the format comes from
    # --format or from the config
    for argv in (["--format", "json"], ["--format", "plotdata"]):
        assert main(["limit", "binary", "leaf-depth", "--mean", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "--mean prints text only" in captured.err
    for text, message in (('{"format": "json"}', "--mean prints text only"),
                          ('{"format": "xml"}', 'config key "format"')):
        cfg.write_text(text)
        assert main(["--config", str(cfg), "limit", "binary", "leaf-depth", "--mean"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, text
    # a form, law or flag the pair or the command lacks, a size or bound
    # out of range, and text that does not parse each exit 2 with a message
    cfg.write_text("[1]")
    for argv, message in (
        # the one-vertex tree has no non-root vertex to average over
        (["average", "noncrossing", "node-depth", "--uniform", "--n", "0"],
         "no non-root vertices"),
        (["average", "binary", "leaf-abscissa", "--uniform", "--n", "3"], "no uniform average"),
        (["average", "binary", "leaf-depth", "--uniform"], "--uniform needs --n"),
        (["average", "plane", "node-depth", "--method", "asymptotic-fixed-r", "--r", "1"],
         "no fixed-r limit"),
        (["average", "plane", "node-depth", "--n", "3", "--r", "1", "--method", "asymptotic"],
         "no asymptotic form"),
        (["average", "plane", "leaf-depth", "--n", "3", "--r", "0"], "needs --k"),
        (["average", "plane", "node-depth", "--n", "3", "--r", "1"], "no closed form"),
        (["limit", "plane", "node-depth", "--r", "1"], "no limit law"),
        (["limit", "binary", "leaf-depth"], "--r is required"),
        (["limit", "binary", "leaf-depth", "--r", "0", "--dmax", "-1"],
         "dmax must be nonnegative"),
        (["average", "increasing", "leaf-depth", "--n", "5", "--r", "0", "--method",
          "asymptotic"], "0 < r < n"),
        (["average", "binary", "leaf-depth", "--uniform", "--n", "-1"],
         "n must be a non-negative integer"),
        (["convert", "nope", "x"], "unknown map"),
        (["--config", str(cfg), "count", "binary", "--n", "3"], "config must be a JSON object"),
        (["convert", "binary-to-triangulation", "(."], "truncated binary-tree text"),
        (["convert", "binary-to-triangulation", "(.x)"], "bad character 'x'"),
        (["convert", "binary-to-triangulation", "(..."], "unbalanced binary-tree text"),
        (["convert", "binary-to-triangulation", "(..)."], "trailing junk in binary-tree text"),
        (["convert", "plane-to-dyck", "x"], "bad plane-tree text"),
        (["convert", "plane-to-dyck", "(()"], "unbalanced plane-tree text"),
        (["convert", "plane-to-dyck", "()()"], "trailing junk in plane-tree text"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, argv


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"digits": 4}')
    code, out = run(capsys, "--config", str(cfg), "average", "binary",
                    "leaf-depth", "--n", "20", "--r", "0", "--decimal")
    assert (code, out) == (0, "2.727")


def test_budget_flag_beats_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"budgets": {"binary": 3}}')
    assert main(["--config", str(cfg), "count", "binary", "--n", "5",
                 "--source", "enum"]) == 2
    assert "larger budget" in capsys.readouterr().err
    code, out = run(capsys, "--config", str(cfg), "count", "binary", "--n", "5",
                    "--source", "enum", "--budget", "9")
    assert (code, out) == (0, "42")


def test_config_env(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"digits": 3}')
    monkeypatch.setenv("COMBSTAT_CONFIG", str(cfg))
    code, out = run(capsys, "average", "binary", "leaf-depth",
                    "--n", "20", "--r", "0", "--decimal")
    assert (code, out) == (0, "2.73")


def test_verify_fails_on_a_disagreeing_form(capsys, monkeypatch):
    # the binomial forms go through _as_int; off by one, they disagree
    # with the other printed forms
    as_int = closed._as_int
    monkeypatch.setattr(closed, "_as_int", lambda x: as_int(x) + 1)
    code, out = run(capsys, "verify", "--suite", "identities", "--max-n", "4")
    assert code == 1
    row = next(l for l in out.splitlines()
               if "closed-form-multiform" in l and "binary-leaf" in l)
    assert row.startswith("FAIL")


def test_verify_fails_on_a_perturbed_base(capsys, monkeypatch):
    # one more z^3 cell in a solved base breaks its printed equation
    solve = series.solve_fixed_point

    def perturbed(eq_id, t):
        key = (3, 0, 1, 0) if eq_id == "narayana" else (3, 0, 0, 0)
        return solve(eq_id, t) + series.ps_monomial(t, key, [1])

    code, out = run(capsys, "verify", "--suite", "gf")
    assert code == 0
    monkeypatch.setattr(series, "solve_fixed_point", perturbed)
    code, out = run(capsys, "verify", "--suite", "gf")
    assert code == 1
    rows = [l for l in out.splitlines() if "fixed-point" in l]
    assert len(rows) == 4 and all(l.startswith("FAIL") for l in rows)


def test_one_equation_feeds_the_solve_and_the_limit_law(capsys, monkeypatch):
    # B's equation, with one coefficient changed, moves both gf_solve
    # (against B's Lagrange coefficients) and the limit law derived from it
    def rows(suite):
        out = run(capsys, "verify", "--suite", suite, "--max-n", "4")[1]
        return {tuple(line.split()[1:3]): line.split()[0] for line in out.splitlines()[:-1]}

    before = {**rows("gf"), **rows("limits")}
    base, _ = gfcat.EQUATIONS["B"]
    monkeypatch.setitem(gfcat.EQUATIONS, "B", (
        base, lambda one, y, z, x, c, cx, cxx: (one, y * z * (c + 2 * x * cx))))
    after = {**rows("gf"), **rows("limits")}
    for key in (("gf-vs-lagrange", "B"), ("limit-gf-mean-vs-closed", "binary-leaf")):
        assert (before[key], after[key]) == ("PASS", "FAIL"), key
    assert after[("limit-gf-mean-vs-closed", "dyck-vertex")] == "PASS"


@pytest.mark.parametrize("pair", sorted(verify._LAGRANGE), ids="/".join)
def test_an_off_lagrange_coefficient_fails_its_row_alone(capsys, monkeypatch, pair):
    coeff = verify._LAGRANGE[pair]
    monkeypatch.setitem(verify._LAGRANGE, pair,
                        lambda n, r, d: coeff(n, r, d) + ((n, d) == (7, 3)))
    code, out = run(capsys, "verify", "--suite", "gf", "--max-n", "2", "--format", "json")
    failed = [(row["check_id"], row["family"], row["counterexample"])
              for row in json.loads(out)["rows"] if row["status"] != "PASS"]
    fam = objects.STATISTICS[pair].gf
    r = objects.positions(*pair, 7)[0]  # the first cell the change moves
    assert code == 1 and failed == [("gf-vs-lagrange", fam, {"n": 7, "r": r, "d": 3})]


def test_a_wrong_series_or_total_fails_its_totals_row_alone(capsys, monkeypatch):
    def failed():
        out = run(capsys, "verify", "--suite", "gf", "--max-n", "2", "--format", "json")[1]
        return [(row["check_id"], row["family"], row.get("counterexample"))
                for row in json.loads(out)["rows"] if row["status"] != "PASS"]

    # W's equation with its y moved off one term: the down-step series is
    # wrong, which its Lagrange row sees too, and every total but its own holds
    with monkeypatch.context() as m:
        base, _ = gfcat.EQUATIONS["W"]
        m.setitem(gfcat.EQUATIONS, "W", (
            base, lambda one, y, z, x, c, cx, cxx: (x * y * z * cx * cx, z * (y * cx + cx))))
        got = failed()
    assert [row[:2] for row in got if row[0] == "gf-total-vs-closed"] == [
        ("gf-total-vs-closed", "dyck/downstep-height")]
    assert [row[:2] for row in got] == [("gf-vs-lagrange", "W"),
                                        ("gf-total-vs-closed", "dyck/downstep-height")]

    # one closed total off by one, past every enumeration budget
    total = closed._total
    monkeypatch.setattr(closed, "_total", lambda fid, n, r, c: total(fid, n, r, c) + (
        (fid, n, r) == ("noncrossing-node", 9, 4)))
    assert failed() == [("gf-total-vs-closed", "noncrossing/node-depth", {"n": 9, "r": 4})]


def test_serving_path_runs_no_cross_check(capsys, monkeypatch):
    commands = []
    for pair in sorted(closed.AVG_IDS.values()):
        rs = objects.positions(*pair, 30)
        commands.append(("average", *pair, "--n", "30", "--r", str(rs[len(rs) // 2])))
    commands.append(("average", "schroeder", "leaf-depth", "--r", "3",
                     "--method", "asymptotic-fixed-r"))
    served = [run(capsys, *argv) for argv in commands]
    assert all(code == 0 for code, _ in served)

    def refuse(*args):
        raise AssertionError("a cross-check ran on the serving path")

    for name in ("cross_check", "_printed_forms", "_schroeder_limit_alt"):
        monkeypatch.setattr(closed, name, refuse)
    assert [run(capsys, *argv) for argv in commands] == served


def test_expand_clips_a_small_box(capsys):
    code, out = run(capsys, "expand", "D", "--trunc-z", "2", "--trunc-x", "1",
                    "--trunc-y", "2")
    assert code == 0
    assert json.loads(out)["truncation"]["nx"] == 1


def test_same_output_under_optimize():
    # python -O strips assert statements; no result may depend on them
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (["limit", "binary", "leaf-depth", "--r", "0", "--dmax", "5"],
                 ["verify", "--suite", "identities", "--max-n", "4"],
                 ["verify", "--suite", "gf", "--max-n", "4"],
                 ["verify", "--suite", "limits"],
                 ["verify", "--suite", "bijections", "--max-n", "4"],
                 ["limit", "noncrossing", "node-depth", "--r", "3", "--dmax", "12"],
                 ["limit", "schroeder", "leaf-depth", "--r", "3", "--dmax", "20"],
                 ["limit", "binary", "leaf-depth", "--r", "5", "--dmax", "24"],
                 ["limit", "noncrossing", "node-depth", "--r", "0", "--dmax", "5"],
                 ["limit", "dyck", "upstep-height", "--mean", "--rmax", "3"],
                 ["limit", "dyck", "downstep-height", "--r", "5", "--dmax", "24"],
                 ["limit", "dyck", "downstep-height", "--mean", "--rmax", "9"],
                 ["limit", "schroeder", "leaf-depth", "--r", "0", "--dmax", "40"],
                 ["limit", "noncrossing", "node-depth", "--mean", "--rmax", "12"],
                 ["expand", "W", "--trunc-z", "6", "--trunc-x", "6", "--trunc-y", "6"],
                 ["table2"]):
        argv = ["-m", "combstat", *argv]
        plain = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                               env=env)
        optimized = subprocess.run([sys.executable, "-O", *argv], capture_output=True,
                                   text=True, env=env)
        assert plain.returncode == 0, plain.stderr
        assert optimized.returncode == 0, optimized.stderr
        assert optimized.stdout == plain.stdout
