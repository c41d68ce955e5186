"""Independent brute-force oracles for the frozen test fixtures.

Everything here is deliberately written from scratch: its own field
arithmetic (own moduli, own tables), plain nested loops, and third
party clique search.  The counts are isomorphism invariants of the
abstract field, so they are comparable against the package without
sharing any code with it.  Run as a script to print the fixture
tables; the frozen copies live in ffhyper.verify.

The last section is different: it keeps earlier package kernels that
faster ones replaced, as references for property tests.  The clique
search and the tuple scan for m-subsets are verbatim apart from their
names; the scan splits its start vertices with the package's own
worker chunks.  The dense EPO count takes its worker chunk as
arguments.  All three take a package HypergraphView and read its edge
grid.  Pattern and count_labeled_induced, a q!/(q-s)! permutation scan
for labeled induced copies of a small pattern, left the package
verbatim, since neither the command line nor verify called it.
"""

import itertools
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import numpy as np

from ffhyper.errors import ArityMismatch, BudgetExceeded
from ffhyper.hypergraph import DEFAULT_TUPLE_BUDGET, _run_chunks, _worker_chunks
from ffhyper.report import CountReport

# Hardcoded irreducible moduli for the extension sizes the fixtures
# need; coefficient lists are little-endian, leading coefficient 1.
MODULI = {
    9: (3, 2, (1, 0, 1)),
    25: (5, 2, (2, 0, 1)),
    27: (3, 3, (1, 2, 0, 1)),
    49: (7, 2, (1, 0, 1)),
}


class OracleField:
    """Tiny standalone F_q with table-driven arithmetic."""

    def __init__(self, q):
        if q in MODULI:
            p, n, mod = MODULI[q]
            self._check_irreducible(p, mod)
        else:
            p, n, mod = q, 1, None
        self.q, self.p, self.n = q, p, n
        if n == 1:
            self.add = lambda a, b: (a + b) % p
            self.mul = lambda a, b: (a * b) % p
        else:
            elems = [tuple(e) for e in product(range(p), repeat=n)]
            index = {e: i for i, e in enumerate(elems)}
            addt = [[index[tuple((a[i] + b[i]) % p for i in range(n))]
                     for b in elems] for a in elems]
            mult = [[index[self._polymulmod(a, b, p, mod)]
                     for b in elems] for a in elems]
            self.add = lambda a, b: addt[a][b]
            self.mul = lambda a, b: mult[a][b]
        self.squares = {self.mul(x, x) for x in range(q)}
        self.one = 1 if n == 1 else None
        if n > 1:
            # the tuple (1,0,...) sits at index p^0 steps into the
            # lexicographic list only for the chosen ordering; find it
            elems = [tuple(e) for e in product(range(p), repeat=n)]
            self.one = elems.index(tuple([1] + [0] * (n - 1)))

    @staticmethod
    def _polymulmod(a, b, p, mod):
        n = len(mod) - 1
        out = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        for i in range(len(out) - 1, n - 1, -1):
            c = out[i]
            if c:
                out[i] = 0
                for j in range(n):
                    out[i - n + j] = (out[i - n + j] - c * mod[j]) % p
        return tuple(out[:n])

    @staticmethod
    def _check_irreducible(p, mod):
        # degree 2 or 3: irreducible over F_p iff no roots
        n = len(mod) - 1
        assert n in (2, 3)
        for x in range(p):
            acc = 0
            for c in reversed(mod):
                acc = (acc * x + c) % p
            assert acc != 0, "modulus %r has root %d mod %d" % (mod, x, p)

    def chi(self, x):
        if x == 0:
            return 0
        return 1 if x in self.squares else -1


def edge_fn(F, kind, k):
    """Edge predicate on k-tuples: is the polynomial value a square."""
    if kind == "prod":
        def val(t):
            acc = t[0]
            for x in t[1:]:
                acc = F.mul(acc, x)
            return F.add(acc, F.one)
    elif kind == "paley":
        def val(t):
            acc = t[0]
            for x in t[1:]:
                acc = F.add(acc, x)
            return acc
    else:
        raise ValueError(kind)
    return lambda t: val(t) in F.squares


def epo_count(q, kind, k):
    """Even partial octahedra over ordered distinct 2k-tuples."""
    F = OracleField(q)
    edge = edge_fn(F, kind, k)
    if k == 2:
        E = [[edge((a, b)) for b in range(q)] for a in range(q)]
        count = 0
        for a1, b1, a2, b2 in permutations(range(q), 4):
            s = E[a1][a2] + E[a1][b2] + E[b1][a2] + E[b1][b2]
            if s % 2 == 0:
                count += 1
        return count
    assert k == 3
    E = [[[edge((a, b, c)) for c in range(q)] for b in range(q)] for a in range(q)]
    eps = list(product((0, 1), repeat=3))
    count = 0
    for t in permutations(range(q), 6):
        s = 0
        for e1, e2, e3 in eps:
            if E[t[e1]][t[2 + e2]][t[4 + e3]]:
                s += 1
        if s % 2 == 0:
            count += 1
    return count


def msubset_count(q, kind, k, m):
    """m-subsets all of whose k-subsets are edges."""
    F = OracleField(q)
    edge = edge_fn(F, kind, k)
    count = 0
    for sub in combinations(range(q), m):
        if all(edge(e) for e in combinations(sub, k)):
            count += 1
    return count


def omega_graph(q, kind):
    """Clique number for k = 2 via networkx's maximal clique search."""
    import networkx as nx
    F = OracleField(q)
    edge = edge_fn(F, kind, 2)
    G = nx.Graph()
    G.add_nodes_from(range(q))
    G.add_edges_from((a, b) for a, b in combinations(range(q), 2) if edge((a, b)))
    return max((len(c) for c in nx.find_cliques(G)), default=0)


def omega_hypergraph(q, kind):
    """Clique number for k = 3 by breadth-first clique extension."""
    F = OracleField(q)
    edge = edge_fn(F, kind, 3)
    best = 2 if q >= 2 else q
    layer = [frozenset(c) for c in combinations(range(q), 2)]
    while layer:
        nxt = set()
        for cl in layer:
            top = max(cl)
            for v in range(top + 1, q):
                if all(edge(tuple(sorted(pair + (v,)))) for pair in combinations(cl, 2)):
                    nxt.add(cl | {v})
        if not nxt:
            break
        layer = list(nxt)
        best = len(next(iter(nxt)))
    return best


def slavov_pair_count(q):
    """Points where both x and x+1 are nonzero squares."""
    F = OracleField(q)
    return sum(1 for a in range(q)
               if F.chi(a) == 1 and F.chi(F.add(a, F.one)) == 1)


def shifted_square_sums(q):
    """The sums chi(x^2 + c) over x, for every nonzero c."""
    F = OracleField(q)
    out = {}
    for c in range(1, q):
        out[c] = sum(F.chi(F.add(F.mul(x, x), c)) for x in range(q))
    return out


# ---------------------------------------------------------------------------
# Retired package kernels, kept as references
# ---------------------------------------------------------------------------

def _axis_view(arr, lattice_ndim, axis_map):
    shape = [1] * lattice_ndim
    for src, dst in enumerate(axis_map):
        shape[dst] = arr.shape[src]
    return arr.reshape(shape)


def _strictly_increasing_mask(q, k):
    m = np.ones((q,) * k, dtype=bool)
    ax = [np.arange(q).reshape((1,) * i + (q,) + (1,) * (k - 1 - i)) for i in range(k)]
    for i in range(k - 1):
        m &= ax[i] < ax[i + 1]
    return m


def dense_epo_count(Y, lo=0, hi=None):
    """Even partial octahedra by enumerating the q^(2k) lattice in numpy.

    lo and hi restrict the first coordinate, as one worker chunk did.
    """
    k, q = Y.k, Y.q
    hi = q if hi is None else hi
    E = Y.edge_grid().astype(np.uint8)
    ndim = 2 * k
    par = None
    for eps in itertools.product((0, 1), repeat=k):
        axis_map = [2 * i + eps[i] for i in range(k)]
        view = _axis_view(E, ndim, axis_map)
        if axis_map[0] == 0:  # eps_1 = 0: slice the chunked axis
            view = view[lo:hi]
        par = view.copy() if par is None else par ^ view
    dist = None
    coords = []
    for pos in range(ndim):
        base = np.arange(lo, hi) if pos == 0 else np.arange(q)
        coords.append(base.reshape((1,) * pos + (-1,) + (1,) * (ndim - 1 - pos)))
    for i in range(ndim):
        for j in range(i + 1, ndim):
            neq = coords[i] != coords[j]
            dist = neq if dist is None else dist & neq
    return int(((par == 0) & dist).sum(dtype=np.int64))


def m_subsets_tuples(Y, m, workers):
    k, q = Y.k, Y.q
    eg = Y.edge_grid()

    def extensions(chosen, start):
        out = []
        for v in range(start, q):
            ok = True
            if len(chosen) >= k - 1:
                for sub in itertools.combinations(chosen, k - 1):
                    if not eg[tuple(sorted(sub + (v,)))]:
                        ok = False
                        break
            if ok:
                out.append(v)
        return out

    def rec(chosen, start):
        if len(chosen) == m:
            return 1
        total = 0
        for v in extensions(chosen, start):
            total += rec(chosen + (v,), v + 1)
        return total

    def start_count(bounds):
        lo, hi = bounds
        return sum(rec((v,), v + 1) for v in range(lo, hi))

    if m == 0:
        return 1
    parts = _run_chunks(start_count, _worker_chunks(q, workers), workers)
    return sum(parts)


def omega_clique_lists(Y, node_budget=10 ** 7):
    """Largest vertex set all of whose k-subsets are edges.

    Branch and bound over vertices in descending degree-score order;
    returns (omega, exact) where exact=False means the budget ran out
    and the value is only a lower bound.  Sets smaller than k are
    vacuously complete, so omega >= min(q, k-1) always.
    """
    k, q = Y.k, Y.q
    eg = Y.edge_grid()
    mask = _strictly_increasing_mask(q, k)
    hits = eg & mask
    score = [0] * q
    for idx in zip(*np.nonzero(hits)):
        for v in idx:
            score[int(v)] += 1
    order = sorted(range(q), key=lambda v: (-score[v], v))
    rank = {v: i for i, v in enumerate(order)}

    best = min(q, k - 1)
    nodes = 0
    exact = True

    def compatible(chosen, v):
        if len(chosen) < k - 1:
            return True
        for sub in itertools.combinations(chosen, k - 1):
            if not eg[tuple(sorted(sub + (v,)))]:
                return False
        return True

    def rec(chosen, cands):
        nonlocal best, nodes, exact
        nodes += 1
        if nodes > node_budget:
            exact = False
            return
        if len(chosen) > best:
            best = len(chosen)
        if len(chosen) + len(cands) <= best:
            return
        for i, v in enumerate(cands):
            if len(chosen) + (len(cands) - i) <= best:
                return
            if compatible(chosen, v):
                nxt = [w for w in cands[i + 1:] if compatible(chosen + (v,), w)]
                rec(chosen + (v,), nxt)
            if not exact:
                return

    rec(tuple(), order)
    return best, exact


class Pattern:
    """A k-uniform pattern hypergraph on vertices 0..nverts-1."""

    def __init__(self, nverts, k, edges):
        self.nverts = nverts
        self.k = k
        self.edges = frozenset(frozenset(e) for e in edges)
        for e in self.edges:
            if len(e) != k or not all(0 <= v < nverts for v in e):
                raise ArityMismatch("bad pattern edge %r" % (sorted(e),))

    @classmethod
    def single_edge(cls, k):
        return cls(k, k, [range(k)])

    @classmethod
    def empty(cls, nverts, k):
        return cls(nverts, k, [])

    @classmethod
    def complete(cls, nverts, k):
        return cls(nverts, k, itertools.combinations(range(nverts), k))

    @classmethod
    def path3(cls):
        """Two adjacent edges on three vertices, k = 2."""
        return cls(3, 2, [(0, 1), (1, 2)])


def count_labeled_induced(Y, pattern, budget=DEFAULT_TUPLE_BUDGET):
    """Labeled induced copies: injective maps matching edges exactly.

    Predicted main term q^s / 2^C(s,k) for a pattern on s vertices.
    """
    if pattern.k != Y.k:
        raise ArityMismatch("pattern uniformity differs from the hypergraph")
    s = pattern.nverts
    q = Y.q
    total_maps = 1
    for i in range(s):
        total_maps *= q - i
    if total_maps < 0:
        total_maps = 0
    if total_maps > budget:
        raise BudgetExceeded("q!/(q-s)! = %d injective maps exceed the budget" % total_maps)
    subsets = list(itertools.combinations(range(s), Y.k))
    want = [frozenset(sub) in pattern.edges for sub in subsets]
    eg = Y.edge_grid()
    observed = 0
    for image in itertools.permutations(range(q), s):
        ok = True
        for sub, w in zip(subsets, want):
            idx = tuple(image[v] for v in sub)
            if bool(eg[idx]) != w:
                ok = False
                break
        if ok:
            observed += 1
    predicted = Fraction(q ** s, 2 ** comb(s, Y.k))
    return CountReport(observed, predicted)


def main():
    import time

    t0 = time.time()
    epo = {}
    for q in (13, 17, 25, 29):
        for kind in ("prod", "paley"):
            epo[(2, q, kind)] = epo_count(q, kind, 2)
            print("epo k=2 q=%d %s: %d  (%.1fs)" % (q, kind, epo[(2, q, kind)], time.time() - t0))
    for q in (7, 9, 11):
        for kind in ("prod", "paley"):
            epo[(3, q, kind)] = epo_count(q, kind, 3)
            print("epo k=3 q=%d %s: %d  (%.1fs)" % (q, kind, epo[(3, q, kind)], time.time() - t0))

    msub = {}
    for q in (101, 151):
        msub[(2, q, "prod", 3)] = msubset_count(q, "prod", 2, 3)
        print("msub k=2 q=%d m=3: %d  (%.1fs)" % (q, msub[(2, q, "prod", 3)], time.time() - t0))
    for q in (13, 17):
        msub[(3, q, "prod", 4)] = msubset_count(q, "prod", 3, 4)
        print("msub k=3 q=%d m=4: %d" % (q, msub[(3, q, "prod", 4)]))

    omega = {}
    for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31):
        for kind in ("prod", "paley"):
            omega[(2, q, kind)] = omega_graph(q, kind)
    print("omega k=2:", {k: v for k, v in omega.items() if k[0] == 2})
    for q in (3, 5, 7, 9, 11, 13):
        for kind in ("prod", "paley"):
            omega[(3, q, kind)] = omega_hypergraph(q, kind)
    print("omega k=3:", {k: v for k, v in omega.items() if k[0] == 3})

    slavov = {q: slavov_pair_count(q) for q in (13, 29, 53)}
    print("slavov (x, x+1):", slavov)

    for q in (13, 17):
        sums = shifted_square_sums(q)
        assert set(sums.values()) == {-1}, sums
    print("shifted square sums all equal -1 over q in {13, 17}")

    print("\nFIXTURES = {")
    print("    'epo': %r," % epo)
    print("    'msub': %r," % msub)
    print("    'omega': %r," % omega)
    print("    'slavov': %r," % slavov)
    print("}")
    print("total %.1fs" % (time.time() - t0))


if __name__ == "__main__":
    main()
