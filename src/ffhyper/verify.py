"""Named verification checks over the package's quantitative claims.

Each check emits JSON records {check, instance, observed, bound, pass}
and run_checks aggregates them with per-check timing.  The FIXTURES
table at the bottom was produced once by the standalone brute-force
oracles in the test tree (tests/oracles.py) and is compared exactly;
the counts involved are isomorphism invariants, so the oracle's own
field construction is directly comparable.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import comb

from .admissible import is_admissible, primitive_density_deg2_var3, random_symmetric_poly
from .bounds import (
    enumerate_X,
    predict_envelope,
    remark_magnitude_check,
    slavov_count,
    tuple_count_crosscheck,
    weil_check,
)
from .field import Field
from .hypergraph import (
    build_hypergraph,
    count_epo_direct,
    count_m_subsets,
    epo_charsum,
    omega_clique,
    paley,
)
from .parse import parse_poly
from .poly import UniPoly, univar_is_const_square

_FIELDS = {}


def _field(q):
    if q not in _FIELDS:
        _FIELDS[q] = Field.from_order(q)
    return _FIELDS[q]


def _rec(check, instance, observed, bound, ok):
    return {
        "check": check,
        "instance": instance,
        "observed": observed,
        "bound": bound,
        "pass": bool(ok),
    }


def _hypergraph(q, kind, k):
    F = _field(q)
    if kind == "paley":
        return paley(F, k)
    text = "*".join("x%d" % (i + 1) for i in range(k)) + "+1"
    return build_hypergraph(F, parse_poly(F, k, text))


# ---------------------------------------------------------------------------
# Individual checks.
# ---------------------------------------------------------------------------

def check_density(workers=1):
    expected = {3: (60, 81), 5: (520, 625), 7: (2100, 2401)}
    out = []
    for q, want in expected.items():
        got = primitive_density_deg2_var3(_field(q), workers=workers)
        out.append(_rec("density", "q=%d" % q, "%d/%d" % got, "%d/%d" % want, got == want))
    return out


def check_admissible(workers=1):
    out = []
    F5, F7 = _field(5), _field(7)
    v = is_admissible(parse_poly(F5, 3, "x1*x2+x2*x3+x3*x1"))
    ok = v.status == "FailsPrimitive" and v.witness is not None and v.witness.point == (0, 0)
    out.append(_rec("admissible", "x1*x2+x2*x3+x3*x1 over GF(5)",
                    v.status, "FailsPrimitive at (0, 0)", ok))
    v = is_admissible(parse_poly(F7, 3, "x1*x2*x3+1"))
    out.append(_rec("admissible", "x1*x2*x3+1 over GF(7)",
                    v.status, "Admissible", v.status == "Admissible"))
    return out


def check_epo(workers=1):
    out = []
    reldev = {}
    for (k, q, kind), want in sorted(FIXTURES["epo"].items()):
        Y = _hypergraph(q, kind, k)
        rep = count_epo_direct(Y, workers=workers)
        name = "k=%d q=%d %s" % (k, q, kind)
        out.append(_rec("epo-fixture", name, rep.observed, want, rep.observed == want))
        c = 8 if k == 2 else 40
        dev = abs(rep.observed * 2 - q ** (2 * k))  # 2*|obs - q^2k/2|, integers
        bound = 2 * c * q ** (2 * k - 1)
        out.append(_rec("epo-main-term", name, dev, bound, dev <= bound))
        if k == 2:
            reldev[(q, kind)] = abs(rep.relative_deviation)
    for kind in ("prod", "paley"):
        ok = reldev[(29, kind)] < reldev[(13, kind)]
        out.append(_rec("epo-decay", "k=2 %s q=29 vs q=13" % kind,
                        reldev[(29, kind)], reldev[(13, kind)], ok))
    return out


def _dualpath_instances():
    """24 seed-fixed admissible polynomials with q <= 9, k <= 3."""
    rng = random.Random(1721)
    plan = [(q, k, d) for q in (5, 7, 9) for k in (2, 3) for d in (2, 3)]
    found = []
    for q, k, d in plan:
        F = _field(q)
        picked = 0
        while picked < 2:
            f = random_symmetric_poly(F, k, d, seed=rng.randrange(2 ** 31))
            if is_admissible(f).admissible:
                found.append((q, k, f))
                picked += 1
    return found


def check_dualpath(workers=1):
    out = []
    for q, k, f in _dualpath_instances():
        Y = build_hypergraph(_field(q), f)
        a = epo_charsum(Y, method="factored", workers=workers)
        b = epo_charsum(Y, method="naive", workers=workers)
        name = "q=%d k=%d deg=%d" % (q, k, f.total_degree)
        out.append(_rec("dualpath", name, a, b, a == b))
    return out


def check_tuples(workers=1):
    out = []
    for (k, q, kind, m), want in sorted(FIXTURES["msub"].items()):
        Y = _hypergraph(q, kind, k)
        rep = count_m_subsets(Y, m, workers=workers)
        name = "k=%d q=%d m=%d %s" % (k, q, m, kind)
        out.append(_rec("tuples-fixture", name, rep.observed, want, rep.observed == want))
        env = predict_envelope(q, m, k, Y.poly.total_degree)
        ok = env.contains(rep.observed) and rep.predicted_main == env.main
        out.append(_rec("tuples-envelope", name,
                        str(abs(rep.deviation)), repr(env.err), ok))
    return out


def check_crosscheck(workers=1):
    out = []
    grid = [(q, 2, m) for q in (3, 5, 7, 9, 11, 13) for m in (2, 3)]
    grid += [(q, 3, 3) for q in (3, 5, 7, 9)]
    for q, k, m in grid:
        F = _field(q)
        text = "*".join("x%d" % (i + 1) for i in range(k)) + "+1"
        rep = tuple_count_crosscheck(F, parse_poly(F, k, text), m)
        name = "q=%d k=%d m=%d" % (q, k, m)
        out.append(_rec("crosscheck", name, rep.lhs, rep.rhs, rep.passes))
    return out


def _weil_instances(count=500):
    rng = random.Random(97)
    qs = (9, 13, 25, 49)
    for i in range(count):
        F = _field(qs[i % len(qs)])
        while True:
            deg = rng.randrange(1, 7)
            coeffs = tuple(rng.randrange(F.q) for _ in range(deg)) + (1,)
            g = UniPoly(F, coeffs)
            if not univar_is_const_square(g):
                break
        a = rng.randrange(1, F.q)
        yield F, g, a


def check_weil(workers=1):
    out = []
    failures = 0
    for F, g, a in _weil_instances():
        w = weil_check(F, g, a)
        if not (w.applicable and w.holds):
            failures += 1
    out.append(_rec("weil-random", "500 instances, q in {9,13,25,49}, deg <= 6",
                    failures, 0, failures == 0))
    for q in (13, 17):
        F = _field(q)
        sums = {weil_check(F, UniPoly(F, (c, 0, 1))).sum for c in range(1, q)}
        out.append(_rec("weil-shifted-square", "x^2+c over GF(%d), c != 0" % q,
                        sorted(sums), [-1], sums == {-1}))
    return out


def _xset_instances(count=100):
    rng = random.Random(4242)
    plan = [(q, k, d) for q in (5, 7, 9) for k in (2, 3) for d in (1, 2, 3)]
    found = []
    i = 0
    while len(found) < count:
        q, k, d = plan[i % len(plan)]
        i += 1
        F = _field(q)
        f = random_symmetric_poly(F, k, d, seed=rng.randrange(2 ** 31))
        if is_admissible(f).admissible:
            found.append((q, k, f))
    return found


def check_xset(workers=1):
    out = []
    bad = 0
    for q, k, f in _xset_instances():
        if not enumerate_X(_field(q), f).holds:
            bad += 1
    out.append(_rec("xset-random", "100 admissible f, q in {5,7,9}, k in {2,3}, d <= 3",
                    bad, 0, bad == 0))
    for q, want in ((7, 1), (13, 25)):
        F = _field(q)
        X = enumerate_X(F, parse_poly(F, 3, "x1^2+x2^2+x3^2"))
        out.append(_rec("xset-diagonal", "x1^2+x2^2+x3^2 over GF(%d)" % q,
                        len(X.members), want, len(X.members) == want and X.holds))
        out.append(_rec("xset-magnitude", "diagonal over GF(%d), reported" % q,
                        len(X.members), "q^(k-2) + 6q^(k/2)", remark_magnitude_check(X)))
    return out


def _slavov_gap_ok(observed, q):
    # |observed - q/4| <= 2 sqrt(q) + 4, kept in integers:
    # |4 observed - q| <= 8 sqrt(q) + 16
    gap = abs(4 * observed - q)
    if gap <= 16:
        return True
    return (gap - 16) ** 2 <= 64 * q


def check_slavov(workers=1):
    out = []
    for q in (13, 29, 53):
        F = _field(q)
        fs = [parse_poly(F, 1, "x1"), parse_poly(F, 1, "x1+1")]
        rep = slavov_count(F, fs, check_condition=True)
        want = FIXTURES["slavov"][q]
        name = "(x, x+1) over GF(%d)" % q
        ok = rep.observed == want and rep.notes["condition_ok"] and _slavov_gap_ok(rep.observed, q)
        out.append(_rec("slavov", name, rep.observed, want, ok))
    F = _field(13)
    fs = [parse_poly(F, 1, "x1"), parse_poly(F, 1, "4*x1")]
    rep = slavov_count(F, fs, check_condition=True)
    got = rep.notes["condition_failing_subsets"]
    out.append(_rec("slavov-condition", "(x, 4x) over GF(13)", got, [[1, 2]], got == [[1, 2]]))
    return out


_DICHOTOMY_G = {
    2: ("x1+x2", "x1*x2", "x1+x2+1", "x1^2+x2^2", "x1*x2+x1+x2"),
    3: ("x1+x2+x3", "x1*x2*x3", "x1+x2+x3+1", "x1^2+x2^2+x3^2",
        "x1*x2+x1*x3+x2*x3"),
}


def check_dichotomy(workers=1):
    out = []
    for q in (3, 5, 7, 9):
        F = _field(q)
        nonsquare = next(c for c in range(1, q) if not F.is_square(c))
        for k in (2, 3):
            for text in _DICHOTOMY_G[k]:
                g = parse_poly(F, k, text)
                d = 2 * g.total_degree
                for c, square in ((1, True), (nonsquare, False)):
                    f = (g * g).scale(c)
                    edges = build_hypergraph(F, f).edge_count()
                    name = "q=%d k=%d c=%d g=%s" % (q, k, c, text)
                    if square:
                        want = comb(q, k)
                        out.append(_rec("dichotomy-complete", name,
                                        edges, want, edges == want))
                    else:
                        bound = d * q ** (k - 1)
                        out.append(_rec("dichotomy-sparse", name,
                                        edges, bound, edges <= bound))
    return out


def check_clique(workers=1):
    out = []
    for (k, q, kind), want in sorted(FIXTURES["omega"].items()):
        Y = _hypergraph(q, kind, k)
        om, exact = omega_clique(Y)
        name = "k=%d q=%d %s" % (k, q, kind)
        out.append(_rec("clique", name, om, want, exact and om == want))
    return out


def check_scan(workers=1):
    from .cli import scan_text
    base = scan_text(fields=(5, 7, 9, 11, 13), samples=5, k=2, d=2, m=3, seed=0, workers=1)
    out = []
    for w in (1, 2, 8):
        got = scan_text(fields=(5, 7, 9, 11, 13), samples=5, k=2, d=2, m=3, seed=0, workers=w)
        out.append(_rec("scan-determinism", "workers=%d vs workers=1" % w,
                        len(got), len(base), got == base))
    return out


CHECKS = {
    "density": check_density,
    "admissible": check_admissible,
    "epo": check_epo,
    "dualpath": check_dualpath,
    "tuples": check_tuples,
    "crosscheck": check_crosscheck,
    "weil": check_weil,
    "xset": check_xset,
    "slavov": check_slavov,
    "dichotomy": check_dichotomy,
    "clique": check_clique,
    "scan": check_scan,
}


def run_checks(only=None, workers=1):
    """Run the named checks (all by default) and aggregate a report."""
    names = [n for n in CHECKS if only is None or only in n]
    if not names:
        raise ValueError("no check matches %r" % only)
    suites = []
    all_pass = True
    total = 0.0
    for name in names:
        t0 = time.perf_counter()
        records = CHECKS[name](workers=workers)
        dt = time.perf_counter() - t0
        ok = all(r["pass"] for r in records)
        all_pass &= ok
        total += dt
        suites.append({
            "name": name,
            "passed": ok,
            "seconds": round(dt, 3),
            "records": records,
        })
    return {"passed": all_pass, "total_seconds": round(total, 3), "suites": suites}


# ---------------------------------------------------------------------------
# Frozen oracle fixtures (produced by tests/oracles.py, exact values).
# ---------------------------------------------------------------------------

FIXTURES = {
    "epo": {
        (2, 13, "prod"): 7928, (2, 13, "paley"): 8136,
        (2, 17, "prod"): 27040, (2, 17, "paley"): 27296,
        (2, 25, "prod"): 146096, (2, 25, "paley"): 146736,
        (2, 29, "prod"): 275608, (2, 29, "paley"): 276584,
        (3, 7, "prod"): 2544, (3, 7, "paley"): 2160,
        (3, 9, "prod"): 31296, (3, 9, "paley"): 36288,
        (3, 11, "prod"): 159840, (3, 11, "paley"): 169440,
    },
    "msub": {
        (2, 101, "prod", 3): 22075,
        (2, 151, "prod", 3): 73150,
        (3, 13, "prod", 4): 125,
        (3, 17, "prod", 4): 350,
    },
    "omega": {
        (2, 3, "prod"): 3, (2, 3, "paley"): 2,
        (2, 5, "prod"): 3, (2, 5, "paley"): 3,
        (2, 7, "prod"): 4, (2, 7, "paley"): 3,
        (2, 9, "prod"): 4, (2, 9, "paley"): 4,
        (2, 11, "prod"): 5, (2, 11, "paley"): 3,
        (2, 13, "prod"): 5, (2, 13, "paley"): 4,
        (2, 17, "prod"): 5, (2, 17, "paley"): 4,
        (2, 19, "prod"): 5, (2, 19, "paley"): 4,
        (2, 23, "prod"): 6, (2, 23, "paley"): 4,
        (2, 25, "prod"): 6, (2, 25, "paley"): 5,
        (2, 27, "prod"): 6, (2, 27, "paley"): 4,
        (2, 29, "prod"): 6, (2, 29, "paley"): 5,
        (2, 31, "prod"): 6, (2, 31, "paley"): 5,
        (3, 3, "prod"): 3, (3, 3, "paley"): 3,
        (3, 5, "prod"): 4, (3, 5, "paley"): 3,
        (3, 7, "prod"): 4, (3, 7, "paley"): 4,
        (3, 9, "prod"): 5, (3, 9, "paley"): 4,
        (3, 11, "prod"): 5, (3, 11, "paley"): 4,
        (3, 13, "prod"): 5, (3, 13, "paley"): 4,
    },
    "slavov": {13: 2, 29: 6, 53: 12},
}
