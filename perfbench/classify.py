"""classify: decide admissibility of one symmetric polynomial per operation.

Why: pure-Python ``poly``, ``groebner``, ``admissible`` and ``bounds`` do
all the work and ``hypergraph`` does none.  FailsPrimitive verdicts whose
witness lies in F_{q^2} set the tail; a faster witness search must move it.

The instance set is fixed: random symmetric polynomials drawn once from
UNIVERSE_SEED for every (q, k, d) cell, plus the FailsPrimitive
instances of WITNESS_SEARCH and NAMED.  Random draws per run would make
the witness-search tail a lottery (a draw at k=4, d=3 can cost from
milliseconds to minutes), so the run seed only sets the order of each
cycle.  Every instance has a frozen verdict in expected.json.

This workload is not listed in BENCHMARK.json: on a 2-vCPU x86-64
machine its run-to-run spread reached 0.39 of the median when the host
slowed down for minutes, so it runs only as part of the traced pass
(its per-layer metrics) and by hand with --workload classify.

Left out: k=4 with d=4, and k=4 with d=3 for q >= 9.  There the
witness search (or, at d=4, the square-free test) has no bound: on a
2-vCPU x86-64 machine single instances took 12 s at q=9 and did not
finish in 20 s at q=11, 13 and 25.  That is a defect of the library,
named here.
"""

from __future__ import annotations

import random

from ffhyper import (
    Field,
    MultiPoly,
    common_zero_search,
    enumerate_X,
    ideal_contains_one,
    is_admissible,
    is_const_square,
    parse_poly,
    poly_to_text,
    random_symmetric_poly,
)
from ffhyper.groebner import embed_field

from common import per_cycle, self_rss_mb
from spans import NULL

NAME = "classify"
QS = (5, 7, 9, 11, 13, 25)
UNIVERSE_SEED = 20250325
PER_CELL = 2
# FailsPrimitive instances whose witness search scans F_{q^2}: random
# polynomials (q, k, d, seed) picked because the search costs 0.1-0.8 s
# each on a 2-vCPU x86-64 machine, and three hand-written ones.  They set
# op_tail_s.
WITNESS_SEARCH = [(5, 4, 3, 1874536691), (5, 4, 3, 1518024042), (5, 4, 3, 1560167078),
                  (7, 4, 3, 736784717), (7, 4, 3, 1560213844),
                  (11, 3, 2, 1113145426), (11, 3, 2, 544947680)]
NAMED = [(5, 3, "x1*x2+x1*x3+x2*x3"), (11, 3, "x1*x2+x1*x3+x2*x3+x1+x2+x3"),
         (25, 3, "x1*x2+x1*x3+x2*x3+g")]
SETUP_CODE = ("import ffhyper\nfrom ffhyper import Field\n"
              "for q in %r:\n    Field.from_order(q)\n" % (QS,))


def cells():
    for q in QS:
        for k in (2, 3, 4):
            for d in (2, 3, 4):
                if k == 4 and (d == 4 or (d == 3 and q >= 9)):
                    continue
                yield q, k, d


def universe(fields):
    """[(q, k, text)] in a fixed order."""
    rng = random.Random(UNIVERSE_SEED)
    out = []
    for q, k, d in cells():
        for _ in range(PER_CELL):
            f = random_symmetric_poly(fields[q], k, d, seed=rng.randrange(2 ** 31))
            out.append((q, k, poly_to_text(f)))
    for q, k, d, seed in WITNESS_SEARCH:
        out.append((q, k, poly_to_text(random_symmetric_poly(fields[q], k, d, seed=seed))))
    return out + NAMED


def instance_key(q, k, text):
    return "%d|%d|%s" % (q, k, text)


def witness_json(w):
    return None if w is None else [w.ext_degree, list(w.point)]


def is_common_zero(H, witness):
    """Independent check: every x1-coefficient vanishes at the witness."""
    F = H[0].field
    G, phi = embed_field(F, witness.ext_degree)
    for h in H:
        mapped = MultiPoly(G, h.nvars, {e: phi(c) for e, c in h.terms.items()})
        if mapped.eval(witness.point) != 0:
            return False
    return True


class Workload:
    def __init__(self, seed, expected, quick=False, **_):
        self.frozen = expected["instances"]
        self.instances = universe({q: Field.from_order(q) for q in QS})
        if quick:  # one Admissible instance and the FailsPrimitive ones of NAMED
            self.instances = self.instances[:1] + NAMED
        self.begin_cycle(NULL)
        self.rng = random.Random(seed)
        self._cycles = []

    def begin_cycle(self, tracer):
        """Fresh fields and polynomials; the traced pass calls this before every cycle."""
        self.fields = {}
        for q in QS:
            with tracer.span("field.from_order"):
                self.fields[q] = Field.from_order(q)
        self.polys = [parse_poly(self.fields[q], k, text) for q, k, text in self.instances]
        return []

    def cycle(self, c):
        while len(self._cycles) <= c:
            order = list(range(len(self.instances)))
            self.rng.shuffle(order)
            self._cycles.append(order)
        return self._cycles[c]

    def warmup(self):
        return list(range(0, len(self.instances), 5))

    def label(self, i):
        q, k, text = self.instances[i]
        return "q=%d k=%d f=%s" % (q, k, text)

    def op(self, i, tracer=NULL):
        """(status, witness, X, stepwise) for instance ``i``.

        When tracing, the steps of is_admissible run first one by one, so
        that each layer is charged to itself; ``stepwise`` is their
        (status, witness) for check_op to compare, and None untraced.
        """
        f = self.polys[i]
        stepwise = self.stepwise(f, tracer) if tracer.enabled else None
        with tracer.span("admissible.is_admissible"):
            v = is_admissible(f)
        X = None
        if v.admissible:
            with tracer.span("bounds.enumerate_X"):
                X = enumerate_X(f.field, f)
        return v.status, v.witness, X, stepwise

    @staticmethod
    def stepwise(f, tracer):
        with tracer.span("poly.is_const_square"):
            if is_const_square(f):
                return "FailsSquareCondition", None
        H = f.expand_in_var(0)
        tracer.note("ideal_calls", 1)
        with tracer.span("groebner.ideal_contains_one"):
            if ideal_contains_one(H):
                return "Admissible", None
        tracer.note("search_calls", 1)
        with tracer.span("groebner.common_zero_search"):
            witness = common_zero_search(H, 2)
        return "FailsPrimitive", witness_json(witness)

    @staticmethod
    def layer_metrics(spans, values, cycles):
        busy = lambda name: per_cycle(spans, name, cycles)  # noqa: E731
        return {
            "poly.is_const_square.busy_s": busy("poly.is_const_square"),
            "poly.is_const_square.max_s": max(spans["poly.is_const_square"]),
            "groebner.ideal_contains_one.calls": len(values.get("ideal_calls", ())) / cycles,
            "groebner.ideal_contains_one.busy_s": busy("groebner.ideal_contains_one"),
            "groebner.common_zero_search.calls": len(values.get("search_calls", ())) / cycles,
            "groebner.common_zero_search.busy_s": busy("groebner.common_zero_search"),
            "groebner.common_zero_search.max_s": max(spans["groebner.common_zero_search"]),
            "admissible.is_admissible.busy_s": busy("admissible.is_admissible"),
            "bounds.enumerate_X.busy_s": busy("bounds.enumerate_X"),
        }

    def check_op(self, i, res, state):
        """Yield a reason for each way the output of instance ``i`` is wrong."""
        status, witness, X, stepwise = res
        if stepwise is not None and stepwise != (status, witness_json(witness)):
            yield "stepwise verdict %s %r, is_admissible gives %s %r" % (
                stepwise + (status, witness_json(witness)))
        frozen = self.frozen.get(instance_key(*self.instances[i]))
        if frozen is None:
            yield "no frozen verdict for this instance"
            return
        if status != frozen["status"]:
            yield "verdict %s, frozen verdict is %s" % (status, frozen["status"])
        if witness_json(witness) != frozen["witness"]:
            yield "witness %r, frozen witness is %r" % (witness_json(witness), frozen["witness"])
        if witness is not None and not is_common_zero(self.polys[i].expand_in_var(0), witness):
            yield "witness %r is not a common zero of the x1-expansion" % (witness_json(witness),)
        if X is not None:
            if len(X.members) != frozen["x_members"]:
                yield "|X| = %d, frozen value is %d" % (len(X.members), frozen["x_members"])
            if not X.holds:
                yield "X exceeds its bounds"

    @staticmethod
    def peak_rss_mb():
        return self_rss_mb()
