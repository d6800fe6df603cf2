"""Self-tests of the benchmark.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

GOLDEN = workloads.load_golden(worker.GOLDEN)


def cheap_ops():
    """A gf triple, a limit law and table2: under a second in all."""
    gf = [op for op in workloads.pool("gf-systems") if op[1:] == ("B", "12,12,10,0,0")]
    closed = [op for op in workloads.pool("closed-forms")
              if op[1] in ("table2", "limit") and "--mean" in op][:2]
    return gf + closed + [("cli", "table2")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_fixed_by_the_seed(workload):
    ops = workloads.ops_for(workload, 7)
    assert ops == workloads.ops_for(workload, 7)
    assert ops != workloads.ops_for(workload, 8)
    assert len(set(ops)) == len(ops)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_a_seed_can_draw_has_a_golden_digest(workload):
    missing = [op for op in workloads.pool(workload) if workloads.op_key(op) not in GOLDEN]
    assert missing == []


def test_corrupted_golden_digest_is_a_failed_op():
    ops = cheap_ops()
    bad_key = workloads.op_key(ops[1])
    golden = dict(GOLDEN, **{bad_key: "0" * 24})
    records = worker.run_pass(ops, traced=False, golden=golden)["ops"]
    failed = [(rec[0], rec[2]) for rec in records if rec[2] is not None]
    assert failed == [(bad_key, "golden digest differs")]


def test_traced_and_untraced_passes_run_the_same_op_list():
    ops = cheap_ops()
    plain = worker.run_pass(ops, traced=False, golden=GOLDEN)
    traced = worker.run_pass(ops, traced=True, golden=GOLDEN)
    assert [r[0] for r in traced["ops"]] == [r[0] for r in plain["ops"]]
    assert traced["oplist"] == plain["oplist"]
    # tracing changes no output, and is off again once the pass is done
    assert all(r[2] is None for r in plain["ops"] + traced["ops"])
    modules = worker.import_combstat()
    assert not hasattr(modules["gfcat"].ps_mul, "__wrapped__")
    assert not hasattr(modules["maps"].BIJECTIONS["plane-to-dyck"][2], "__wrapped__")
    layers = traced["layers"]
    assert layers["gfcat.gf_closed.calls"] == 1
    assert layers["exact.yp_mul.calls"] > 0 and layers["cli.spans"] > 0
    assert layers["objects.spans"] == 0


def test_trace_counts_repeat_exactly():
    ops = cheap_ops()
    a = worker.run_pass(ops, traced=True, golden=GOLDEN)
    b = worker.run_pass(ops, traced=True, golden=GOLDEN)
    assert a["bases"] == b["bases"]
    counts = [k for k in a["layers"] if k.endswith(".calls")]
    assert {k: a["layers"][k] for k in counts} == {k: b["layers"][k] for k in counts}


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(os.path.dirname(worker.HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_refuses_to_run_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", run.__file__, "--workload", "columns", "--seed", "1",
         "--seconds", "1"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
