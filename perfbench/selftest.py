"""Quick self-test of the harness: python3 perfbench/run.py --self-test

Runs each workload's small instance set (quick=True) untraced and
traced, checks that every metric of
BENCHMARK.json comes out under its name and unit, and checks that the
output checks catch deliberately wrong expected values.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import tempfile

import run
from common import HERE


def caught(w, inst, res, what, problems):
    reasons = list(w.check_op(inst, res, {}))
    print("  %-58s %s" % (what, "caught: " + "; ".join(reasons) if reasons else "NOT CAUGHT"))
    if not reasons:
        problems.append("%s was not caught" % what)


def wrong_values(workdir, problems):
    """Each workload's checks must reject a wrong expected or returned value."""
    expected = run.EXPECTED
    lw = run.ladder.Workload(seed=0, expected=expected["count-ladder"])
    inst = (3, 9, "paley")
    res = lw.op(inst)
    caught(lw, inst, (res[0] + 2,) + res[1:], "count-ladder: EPO count off by 2 (FIXTURES)", problems)
    key = run.ladder.instance_key(3, 9, lw.texts[inst])
    lw.frozen = copy.deepcopy(lw.frozen)
    lw.frozen[key]["omega"] += 1
    caught(lw, inst, res, "count-ladder: frozen omega off by 1", problems)
    caught(lw, (2, 49, "prod"), (0,) + lw.op((2, 49, "prod"))[1:],
           "count-ladder: EPO count far from the charsum estimate", problems)

    cw = run.classify.Workload(seed=0, expected=expected["classify"])
    i = len(cw.instances) - 1  # a FailsPrimitive instance with an F_{q^2} witness
    status, witness, X, _stepwise = cw.op(i)
    moved = type(witness)(witness.ext_degree, (witness.point[0] + 1,) + witness.point[1:],
                          witness.field)
    caught(cw, i, (status, moved, X, None), "classify: witness moved off the common zero",
           problems)
    H = cw.polys[i].expand_in_var(0)
    if not run.classify.is_common_zero(H, witness) or run.classify.is_common_zero(H, moved):
        problems.append("classify: the common-zero check does not tell the witness from a moved one")
    caught(cw, i, ("Admissible", None, X, None), "classify: wrong verdict", problems)
    caught(cw, i, (status, witness, X, ("Admissible", None)),
           "classify: stepwise verdict differs from is_admissible", problems)

    mw = run.climix.Workload(seed=0, expected=expected["cli-mix"], root=run.ROOT,
                             workdir=tempfile.mkdtemp(dir=workdir))
    weil = run.climix.POOL.index(["weil", "--field", "13", "--poly", "x1^2+1"])
    res = mw.op((0, weil))
    caught(mw, (0, weil), (res[0], res[1] + b" ") + res[2:], "cli-mix: output bytes changed",
           problems)
    state = {}
    list(mw.check_op((0, weil), res, state))
    replay = list(mw.check_op((0, weil), (1,) + res[1:], state))
    print("  %-58s %s" % ("cli-mix: replay with another exit code",
                          "caught: " + replay[0] if replay else "NOT CAUGHT"))
    if not replay:
        problems.append("cli-mix: a replay with another exit code was not caught")
    reproduced, detail = mw.probe_clique_cache_key()
    print("  cli-mix: clique cache key without --budget-tuples: %s (%s)"
          % ("reproduced" if reproduced else "not reproduced", detail))


def names_and_units(kind, spec_metrics, values, problems):
    want = [(m["name"], m["unit"]) for m in spec_metrics]
    try:
        line = run.result_line(spec_metrics, values, 1, 0)
    except (KeyError, ValueError) as exc:
        problems.append("%s: %r" % (kind, exc))
        return
    got = [(n, m["unit"]) for n, m in line["metrics"].items()]
    extra = sorted(set(values) - {n for n, _u in want})
    if got != want or extra:
        problems.append("%s: metrics %r differ from BENCHMARK.json (extra %r)" % (kind, got, extra))
    print("  %-58s %d present" % (kind + " metrics", len(got)))


def main(spec):
    problems = []
    os.makedirs(os.path.join(run.ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(run.ROOT, ".perfbench"))
    try:
        with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
            layer_map = json.load(fh)
        if sorted(layer_map) != sorted(m["name"] for m in spec["per_layer"]):
            problems.append("layer_map.json does not list exactly the per-layer metrics")
        for mod in run.WORKLOADS.values():
            metrics, _notes, ops, failures = run.run_untraced(mod, 0, 0, workdir, quick=True)
            print("%s: %d operations" % (mod.NAME, len(ops)))
            names_and_units(mod.NAME + " end-to-end", spec["end_to_end"], metrics, problems)
            problems += ["%s op %s [%s]: %s" % ((mod.NAME,) + f) for f in failures]
        layers, _notes, ops, failures, _spans = run.run_traced(
            list(run.WORKLOADS.values()), 0, 0, workdir, quick=True)
        print("traced pass: %d operations" % len(ops))
        names_and_units("per-layer", spec["per_layer"], layers, problems)
        problems += ["traced op %s [%s]: %s" % f for f in failures]
        print("deliberately wrong values:")
        wrong_values(workdir, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("PROBLEM: %s" % p)
    print("self-test: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1
