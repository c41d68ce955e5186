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
from test_hypergraph import nodes_needed  # noqa: E402

from ffhyper import build_hypergraph, omega_clique  # noqa: E402

# The smallest node budget at which omega_clique is exact on each
# instance, in ladder.INSTANCES order.  A binding budget prints the lower
# bound reached, so the search's node sequence is part of its output.
LADDER_CLIQUE_NODES = [1433, 3002, 4501, 7629, 20073, 32509, 36, 65, 150, 231, 542]


def test_one_count_ladder_cycle_passes_the_benchmark_checks():
    w = ladder.Workload(seed=0, expected=load_expected()[ladder.NAME])
    insts = w.cycle(0)
    assert sorted(insts) == sorted(ladder.INSTANCES)
    state = {}
    failures = [(w.label(inst), reason)
                for inst in insts for reason in w.check_op(inst, w.op(inst), state)]
    assert failures == []


def test_count_ladder_clique_searches_need_the_pinned_node_budgets():
    w = ladder.Workload(seed=0, expected=load_expected()[ladder.NAME])
    needed = [nodes_needed(omega_clique, build_hypergraph(w.fields[inst[1]], w.polys[inst]))
              for inst in ladder.INSTANCES]
    assert needed == LADDER_CLIQUE_NODES
