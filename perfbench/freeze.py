"""Regenerate expected.json, the frozen outputs the benchmark checks against.

    python3 perfbench/freeze.py [workload ...]

Values come from the library at the current commit.  Where the
brute-force oracle in tests/oracles.py reaches (x1*...*xk+1 and the
Paley sum over the fields it knows), they are cross-checked against it,
and the script stops on any disagreement before it writes the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import run  # puts the checkout's src on sys.path
from ffhyper import (
    Field,
    build_hypergraph,
    count_epo_direct,
    count_m_subsets,
    enumerate_X,
    epo_charsum,
    is_admissible,
    omega_clique,
    parse_poly,
)

import classify
import climix
import ladder
from common import EXPECTED_PATH

# oracle cost grows as q^(2k); beyond these sizes its EPO count takes minutes
ORACLE_EPO_MAX_TUPLES = 15_000_000

sys.path.insert(0, os.path.join(run.ROOT, "tests"))
import oracles  # noqa: E402


def freeze_ladder():
    w = ladder.Workload(seed=0, expected={"instances": {}})
    out = {}
    for (k, q, kind), f in sorted(w.polys.items()):
        key = ladder.instance_key(k, q, w.texts[(k, q, kind)])
        Y = build_hypergraph(w.fields[q], f)
        omega, exact = omega_clique(Y)
        if not exact:
            raise SystemExit("omega of %s is not exact" % key)
        out[key] = {"epo": count_epo_direct(Y).observed, "S": epo_charsum(Y),
                    "msub": count_m_subsets(Y, ladder.M[k]).observed, "omega": omega}
        if kind in ("prod", "paley"):
            oracle_crosscheck(k, q, kind, out[key])
        print("count-ladder %s: %r" % (key, out[key]), flush=True)
    return {"universe_seed": ladder.UNIVERSE_SEED, "instances": out}


def oracle_crosscheck(k, q, kind, got):
    if Field.from_order(q).n > 1 and q not in oracles.MODULI:
        return  # the oracle has no modulus for this extension field
    want = {"msub": oracles.msubset_count(q, kind, k, ladder.M[k]),
            "omega": oracles.omega_graph(q, kind) if k == 2 else oracles.omega_hypergraph(q, kind)}
    if q ** (2 * k) <= ORACLE_EPO_MAX_TUPLES:
        want["epo"] = oracles.epo_count(q, kind, k)
    for name, value in want.items():
        if got[name] != value:
            raise SystemExit("k=%d q=%d %s: %s = %d, oracle says %d"
                             % (k, q, kind, name, got[name], value))
    print("  oracle agrees on k=%d q=%d %s: %s" % (k, q, kind, sorted(want)), flush=True)


def freeze_classify():
    fields = {q: Field.from_order(q) for q in classify.QS}
    out = {}
    for q, k, text in classify.universe(fields):
        f = parse_poly(fields[q], k, text)
        t0 = time.perf_counter()
        v = is_admissible(f)
        X = enumerate_X(fields[q], f) if v.admissible else None
        if v.witness is not None and not classify.is_common_zero(f.expand_in_var(0), v.witness):
            raise SystemExit("witness of %s is not a common zero" % text)
        out[classify.instance_key(q, k, text)] = {
            "status": v.status, "witness": classify.witness_json(v.witness),
            "x_members": None if X is None else len(X.members)}
        print("classify q=%d k=%d %s: %s (%.3f s)" % (q, k, text, v.status,
                                                     time.perf_counter() - t0), flush=True)
    return {"universe_seed": classify.UNIVERSE_SEED, "instances": out}


def freeze_cli():
    env = dict(os.environ, PYTHONPATH=run.SRC)
    env.pop("FFHYPER_CACHE_DIR", None)
    out = {}
    for args in climix.POOL:
        p = subprocess.run([sys.executable, "-c", climix.CLI] + args, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if p.stderr:
            raise SystemExit("%s wrote to stderr: %s" % (args, p.stderr.decode()))
        out[climix.entry_key(args)] = {"exit": p.returncode,
                                       "sha256": hashlib.sha256(p.stdout).hexdigest()}
    return {"outputs": out}


def main(argv):
    """Refresh the named workloads (all by default), keeping the others."""
    freezers = {"cli-mix": freeze_cli, "classify": freeze_classify, "count-ladder": freeze_ladder}
    expected = {}
    if os.path.isfile(EXPECTED_PATH):
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            expected = json.load(fh)
    for name in argv or sorted(freezers):
        expected[name] = freezers[name]()
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", EXPECTED_PATH)


if __name__ == "__main__":
    main(sys.argv[1:])
