"""count-ladder: the full quasi-randomness report for one (k, q, f) per operation.

Why: the numpy counting kernels in ``hypergraph`` do nearly all the work,
and the EPO lattice grows from 9^6 (0.5 M cells, inside L2) to 101^4
(104 M cells, about the size of L3; the kernel holds several such
arrays).  The fields 9, 49 and 81 use the extension-field log tables of
``field``; ``groebner`` does no work here.

One cycle visits every rung once, in a seeded order, and every cycle
repeats the same instances.  Rung r uses KINDS[r % 5]: x1*...*xk+1, the
Paley sum, or a random symmetric polynomial of degree 1, 2 or 3 drawn
once from UNIVERSE_SEED.  The random polynomials are fixed because the
cost of omega_clique depends on f: on a 2-vCPU x86-64 machine a per-run
draw moved the k=2, q=81 operation between 0.29 s and 0.61 s.  So the
run seed only sets the order, and every instance has frozen values in
expected.json.
"""

from __future__ import annotations

import random

from ffhyper import (
    Field,
    build_hypergraph,
    count_epo_direct,
    count_m_subsets,
    epo_charsum,
    omega_clique,
    parse_poly,
    poly_to_text,
    predict_envelope,
    random_symmetric_poly,
)
from ffhyper.verify import FIXTURES

from common import per_cycle, self_rss_mb
from spans import NULL

NAME = "count-ladder"
UNIVERSE_SEED = 20250325
RUNGS = [(2, q) for q in (49, 61, 73, 81, 89, 101)] + [(3, q) for q in (9, 11, 13, 17, 19)]
KINDS = ("prod", "paley", "d1", "d2", "d3")
M = {2: 3, 3: 4}
# |direct - (q^(2k)/2 + S/2)| <= C * q^(2k-1): the agreement bound of `ffhyper epo --method both`
AGREE_C = {2: 8, 3: 40}
INSTANCES = [(k, q, KINDS[r % len(KINDS)]) for r, (k, q) in enumerate(RUNGS)]
SMALL = [(2, 49, "prod"), (3, 9, "paley")]  # the warm-up, and the whole cycle with quick=True
FIELD_ORDERS = sorted({q for _k, q in RUNGS})
SETUP_CODE = ("import ffhyper\nfrom ffhyper import Field\n"
              "for q in %r:\n    Field.from_order(q)\n" % (FIELD_ORDERS,))


def poly_text(F, k, kind):
    if kind == "prod":
        return "*".join("x%d" % (i + 1) for i in range(k)) + "+1"
    if kind == "paley":
        return "+".join("x%d" % (i + 1) for i in range(k))
    d = int(kind[1:])
    seed = ((UNIVERSE_SEED * 1000003 + F.q) * 1009 + k) * 17 + d
    return poly_to_text(random_symmetric_poly(F, k, d, seed=seed))


def instance_key(k, q, text):
    return "%d|%d|%s" % (k, q, text)


class Workload:
    def __init__(self, seed, expected, quick=False, **_):
        self.frozen = expected["instances"]
        self.instances = SMALL if quick else INSTANCES
        fields = {q: Field.from_order(q) for q in FIELD_ORDERS}
        self.texts = {(k, q, kind): poly_text(fields[q], k, kind) for k, q, kind in INSTANCES}
        self.begin_cycle(NULL)
        self.rng = random.Random(seed)
        self._cycles = []

    def begin_cycle(self, tracer):
        """Fresh fields and polynomials; the traced pass calls this before every cycle.

        So each traced cycle pays for Field.from_order and for the first
        chi_array call, which builds the character table.
        """
        self.fields = {}
        for q in FIELD_ORDERS:
            with tracer.span("field.from_order"):
                self.fields[q] = Field.from_order(q)
        self.polys = {key: parse_poly(self.fields[key[1]], key[0], text)
                      for key, text in self.texts.items()}
        return []

    def cycle(self, c):
        """Operations of cycle c: the instances in a seeded order."""
        while len(self._cycles) <= c:
            self._cycles.append(self.rng.sample(self.instances, len(self.instances)))
        return self._cycles[c]

    def warmup(self):
        return SMALL

    def label(self, inst):
        k, q, kind = inst
        return "k=%d q=%d %s f=%s" % (k, q, kind, self.texts[inst])

    def op(self, inst, tracer=NULL):
        """The report for one instance, each layer in pipeline order.

        value_grid and chi_array are cached on first use, and
        count_m_subsets with its envelope is the count followed by
        predict_envelope, so the explicit calls add no work untraced.
        """
        k, q, _kind = inst
        F = self.fields[q]
        f = self.polys[inst]
        with tracer.span("hypergraph.build_hypergraph"):
            Y = build_hypergraph(F, f)
        with tracer.span("poly.eval_grid"):
            Y.value_grid()
        tracer.note("cells", q ** k)
        with tracer.span("field.chi_array"):
            F.chi_array("strict")
        with tracer.peak("epo_peak_mb"), tracer.span("hypergraph.count_epo_direct"):
            epo = count_epo_direct(Y)
        tracer.note("tuples", q ** (2 * k))
        with tracer.peak("charsum_peak_mb"), tracer.span("hypergraph.epo_charsum"):
            S = epo_charsum(Y)
        with tracer.span("hypergraph.count_m_subsets"):
            msub = count_m_subsets(Y, M[k], with_envelope=False)
        with tracer.span("bounds.predict_envelope"):
            env = predict_envelope(q, M[k], k, f.total_degree)
        with tracer.span("hypergraph.omega_clique"):
            omega, exact = omega_clique(Y)
        tracer.note("inexact", not exact)
        return epo.observed, S, msub.observed, env.contains(msub.observed), omega, exact

    @staticmethod
    def layer_metrics(spans, values, cycles):
        busy = lambda name: per_cycle(spans, name, cycles)  # noqa: E731
        return {
            "field.chi_array.busy_s": busy("field.chi_array"),
            "poly.eval_grid.busy_s": busy("poly.eval_grid"),
            "poly.eval_grid.cells_per_s": sum(values["cells"]) / sum(spans["poly.eval_grid"]),
            "hypergraph.build_hypergraph.busy_s": busy("hypergraph.build_hypergraph"),
            "hypergraph.count_epo_direct.busy_s": busy("hypergraph.count_epo_direct"),
            "hypergraph.count_epo_direct.tuples_per_s":
                sum(values["tuples"]) / sum(spans["hypergraph.count_epo_direct"]),
            "hypergraph.count_epo_direct.peak_mb": max(values["epo_peak_mb"]),
            "hypergraph.epo_charsum.busy_s": busy("hypergraph.epo_charsum"),
            "hypergraph.epo_charsum.peak_mb": max(values["charsum_peak_mb"]),
            "hypergraph.count_m_subsets.busy_s": busy("hypergraph.count_m_subsets"),
            "hypergraph.omega_clique.busy_s": busy("hypergraph.omega_clique"),
            "hypergraph.omega_clique.inexact": sum(values["inexact"]) / cycles,
            "bounds.predict_envelope.busy_s": busy("bounds.predict_envelope"),
        }

    def check_op(self, inst, res, state):
        """Yield a reason for each way the output of ``inst`` is wrong."""
        k, q, kind = inst
        epo, S, msub, within, omega, _exact = res
        m = M[k]
        got = {"epo": epo, "S": S, "msub": msub, "omega": omega}
        if kind in ("prod", "paley"):
            for table, key, name in (("epo", (k, q, kind), "epo"),
                                     ("msub", (k, q, kind, m), "msub"),
                                     ("omega", (k, q, kind), "omega")):
                want = FIXTURES[table].get(key)
                if want is not None and got[name] != want:
                    yield "%s=%d, verify.FIXTURES has %d" % (name, got[name], want)
        frozen = self.frozen.get(instance_key(k, q, self.texts[inst]))
        if frozen is None:
            yield "no frozen values for this instance"
        else:
            for name in ("epo", "S", "msub", "omega"):
                if got[name] != frozen[name]:
                    yield "%s=%d, frozen value is %d" % (name, got[name], frozen[name])
        gap = abs(2 * epo - q ** (2 * k) - S)
        bound = 2 * AGREE_C[k] * q ** (2 * k - 1)
        if gap > bound:
            yield "direct EPO and charsum estimate differ by %d/2 > %d/2" % (gap, bound)
        if not within:
            yield "m-subset count %d lies outside its envelope" % msub

    @staticmethod
    def peak_rss_mb():
        return self_rss_mb()

    @staticmethod
    def facts():
        """Computed size of the largest EPO lattice on each rung, beside the caches."""
        return [{"k": k, "q": q, "lattice_cells": q ** (2 * k),
                 "lattice_bytes_computed": q ** (2 * k),
                 "note": "computed: q^(2k) cells at one byte each (uint8 parity array)"}
                for k, q in RUNGS]
