"""Every exact value the benchmark can draw, bit for bit.

Runs each op of the three benchmark pools (``perfbench/workloads.py``)
once, in this process, and checks it against its own agreement route
and against its digest in ``perfbench/golden.json``.  It only reads
``perfbench/``.
"""

import importlib.util
from pathlib import Path

import pytest

from combstat import cli, gfcat, series

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

GOLDEN = workloads.load_golden(PERFBENCH / "golden.json")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pool_op_matches_its_golden_digest(workload):
    runner = workloads.Runner({"cli": cli, "gfcat": gfcat, "series": series}, GOLDEN)
    ops = workloads.pool(workload)
    failed = [(workloads.op_key(op), reason) for op in ops
              if (reason := runner.check(op, runner.call(op))) is not None]
    assert ops and failed == []
