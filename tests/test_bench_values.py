"""The correctness gate of the count-ladder benchmark, run as a test.

One cycle of the workload (every instance in ladder.INSTANCES) runs
in-process and each result goes through the workload's own check_op,
so a kernel change that moves a value frozen in perfbench/expected.json
or in verify.FIXTURES fails here, not only in a benchmark run.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import ladder  # noqa: E402
from common import load_expected  # noqa: E402


def test_one_count_ladder_cycle_passes_the_benchmark_checks():
    w = ladder.Workload(seed=0, expected=load_expected()[ladder.NAME])
    insts = w.cycle(0)
    assert sorted(insts) == sorted(ladder.INSTANCES)
    state = {}
    failures = [(w.label(inst), reason)
                for inst in insts for reason in w.check_op(inst, w.op(inst), state)]
    assert failures == []
