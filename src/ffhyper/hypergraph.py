"""The k-uniform hypergraph of square values of a symmetric polynomial.

Vertices are the field elements; a k-set is an edge exactly when f
evaluates to a square there (zero counts as a square, so the character
value is nonnegative).  Symmetry of f makes the edge predicate
order-free.  For f = x1 + ... + xk this is the Paley graph/hypergraph.

The EPO kernels work on the full evaluation grid of f (q^k handles)
with numpy.  The m-subset count and the clique search run on link
bitsets: bit j of link[t] says whether the (k-1)-tuple t plus j is an
edge.  Work is partitioned so that a worker count never changes the
exact integer results.

The even-partial-octahedron count runs over labeled 2k-tuples of
distinct vertices (u_1(0), u_1(1), ..., u_k(0), u_k(1)) and asks that an
even number of the 2^k octahedron positions {u_1(e_1), ..., u_k(e_k)}
be edges; quasi-randomness predicts q^(2k)/2 of them.  One kernel folds
the u_1 pair in O(q^(2k-1)) work: with the tilde character (edge parity)
it gives the exact count, with the strict one the character sum S over
all 2k-tuples of prod chi(f(positions)), estimating q^(2k)/2 + S/2.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    DuplicateVertex,
    FieldMismatch,
    NotSymmetric,
    ZeroPolynomial,
)
from .poly import DEFAULT_MEM_BUDGET, MultiPoly

DEFAULT_TUPLE_BUDGET = 1 << 27
SLAB_CELLS = 1 << 18  # rest-lattice cells the EPO fold holds at once


class HypergraphView:
    """Lazy view of Y_{f,q}; edges come from the evaluation grid of f."""

    def __init__(self, field, poly, mem_budget=DEFAULT_MEM_BUDGET):
        self.field = field
        self.poly = poly
        self.k = poly.nvars
        self.mem_budget = mem_budget
        self._grid = None
        self._edge_memo = {}

    @property
    def q(self):
        return self.field.q

    def value_grid(self):
        """Handles of f on F^k; cached. Axis i is variable i."""
        if self._grid is None:
            self._grid = self.poly.eval_grid(self.mem_budget)
        return self._grid

    def edge_grid(self):
        """Boolean grid: True where f evaluates to a square (0 included)."""
        chi = self.field.chi_array("strict")
        return chi[self.value_grid()] >= 0

    def chi_grid(self, variant="strict"):
        return self.field.chi_array(variant)[self.value_grid()]

    def is_edge(self, vertices):
        """Edge predicate on a k-set given as a sequence of vertices."""
        vs = tuple(vertices)
        if len(vs) != self.k:
            raise ArityMismatch("expected %d vertices" % self.k)
        if len(set(vs)) != self.k:
            raise DuplicateVertex("edge query repeats a vertex: %r" % (vs,))
        for v in vs:
            self.field.check(v)
        key = tuple(sorted(vs))
        if self._grid is not None:
            return bool(self.field.chi_array("strict")[self._grid[key]] >= 0)
        hit = self._edge_memo.get(key)
        if hit is None:
            hit = self.field.is_square(self.poly.eval(key))
            self._edge_memo[key] = hit
        return hit

    def edge_count(self):
        """Unlabeled edges: k-subsets with a square value."""
        if self.q ** self.k <= self.mem_budget:
            eg = self.edge_grid()
            mask = _strictly_increasing_mask(self.q, self.k)
            return int((eg & mask).sum())
        return sum(1 for c in itertools.combinations(range(self.q), self.k)
                   if self.is_edge(c))


def build_hypergraph(field, poly, mem_budget=DEFAULT_MEM_BUDGET):
    """Validated construction of the square-value hypergraph."""
    if poly.field != field:
        raise FieldMismatch("polynomial coefficients live in a different field")
    if poly.nvars < 2:
        raise ArityMismatch("hypergraphs need k >= 2")
    if poly.is_zero:
        raise ZeroPolynomial("the zero polynomial does not define a hypergraph")
    if not poly.is_symmetric():
        raise NotSymmetric("edge predicate needs a symmetric polynomial")
    return HypergraphView(field, poly, mem_budget)


def paley(field, k=2, mem_budget=DEFAULT_MEM_BUDGET):
    """Hypergraph of x1 + ... + xk; the k = 2 case is the Paley-type graph."""
    f = MultiPoly(field, k, {tuple(int(i == j) for j in range(k)): 1 for i in range(k)})
    return build_hypergraph(field, f, mem_budget)


def _strictly_increasing_mask(q, k):
    import numpy as np
    m = np.ones((q,) * k, dtype=bool)
    ax = [np.arange(q).reshape((1,) * i + (q,) + (1,) * (k - 1 - i)) for i in range(k)]
    for i in range(k - 1):
        m &= ax[i] < ax[i + 1]
    return m


def _axis_view(arr, lattice_ndim, axis_map):
    """Reshape a k-dim grid so axis i lands on lattice axis axis_map[i].

    axis_map must be strictly increasing, which holds for the embeddings
    used here, so a plain reshape with singleton padding suffices.
    """
    shape = [1] * lattice_ndim
    for src, dst in enumerate(axis_map):
        shape[dst] = arr.shape[src]
    return arr.reshape(shape)


def _worker_chunks(q, workers):
    workers = max(1, min(workers, q))
    bounds = [q * w // workers for w in range(workers + 1)]
    return [(bounds[w], bounds[w + 1]) for w in range(workers)
            if bounds[w] < bounds[w + 1]]


def _run_chunks(fn, chunks, workers):
    if workers <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, chunks))


def _fold(T, k, workers, budget, finish):
    """Sum of finish(lo, hi, inner) over slabs u_2(0) in [lo, hi) of the rest lattice.

    inner[r] = sum_x prod_eps T(x, r_eps) at r = (u_2(0), u_2(1), ..., u_k(0), u_k(1))
    = (c0, c1, r') is sum_x A(x, c0, r') A(x, c1, r'), one Gram product per r'.
    T lies in {-1, 0, 1}, so the float64 sums are exact integers.  The
    q^(2k-1) cells (x, r) are charged to the tuple budget.
    """
    if k < 2:
        raise ArityMismatch("the octahedron fold needs k >= 2")
    q = T.shape[0]
    if q ** (2 * k - 1) > budget:
        raise BudgetExceeded("q^(2k-1) = %d exceeds the tuple budget" % q ** (2 * k - 1))
    import numpy as np
    A = None
    for eps in itertools.product((0, 1), repeat=k - 2):
        axis_map = [0, 1] + [2 + 2 * i + eps[i] for i in range(k - 2)]
        view = _axis_view(T, 2 * k - 2, axis_map)
        A = view.astype(np.float64) if A is None else A * view
    G = np.ascontiguousarray(A.reshape(q, q, -1).transpose(2, 0, 1))  # G[r', x, c]

    def slab(bounds):
        lo, hi = bounds
        inner = np.matmul(G[:, :, lo:hi].transpose(0, 2, 1), G)  # inner[r', c0, c1]
        inner = inner.transpose(1, 2, 0).reshape((hi - lo,) + (q,) * (2 * k - 3))
        return finish(lo, hi, inner.astype(np.int64))

    rows = max(1, min(SLAB_CELLS // q ** (2 * k - 3), -(-q // max(1, workers))))
    slabs = [(lo, min(q, lo + rows)) for lo in range(0, q, rows)]
    return sum(_run_chunks(slab, slabs, workers))


def count_epo_direct(Y, budget=DEFAULT_TUPLE_BUDGET, workers=1):
    """Exact count of even partial octahedra, folding the u_1 pair in q^(2k-1) cells.

    With T the tilde character (+1 on edges), a tuple's parity sign is P_r(u_1(0)) P_r(u_1(1)),
    P_r(x) = prod_eps T(x, r_eps).  If D_r sums P_r over the n = q-2(k-1) values outside
    r, then (n^2 + D_r^2)/2 - n pairs (u_1(0), u_1(1)) have equal sign.
    """
    import numpy as np
    k, q = Y.k, Y.q
    T = Y.chi_grid("tilde")
    n = q - 2 * (k - 1)
    ndim = 2 * k - 2

    def finish(lo, hi, inner):
        coords = [_axis_view(np.arange(lo, hi) if p == 0 else np.arange(q), ndim, [p])
                  for p in range(ndim)]
        D = inner
        for j in range(ndim):  # drop the terms x = r_j
            P = 1
            for eps in itertools.product((0, 1), repeat=k - 1):
                P = P * T[(coords[j],) + tuple(coords[2 * i + eps[i]] for i in range(k - 1))]
            D = D - P
        distinct = np.ones(D.shape, dtype=bool)
        for i, j in itertools.combinations(range(ndim), 2):
            distinct &= coords[i] != coords[j]
        d = D[distinct]
        return (n * n * d.size + int((d * d).sum(dtype=np.int64))) // 2 - n * d.size

    observed = _fold(T, k, workers, budget, finish)
    from .report import CountReport
    return CountReport(observed, Fraction(q ** (2 * k), 2))


def epo_charsum(Y, method="factored", workers=1, budget=DEFAULT_TUPLE_BUDGET):
    """The octahedron character sum S over all q^(2k) labeled tuples.

    S = sum over tuples of prod over the 2^k positions of chi(f(...)).
    The factored form is the sum of inner_r^2 from _fold, at O(q^(2k-1))
    cost; the naive form is the full lattice product, the reference.
    Both are exact integers and agree.
    """
    import numpy as np
    k, q = Y.k, Y.q
    C = Y.chi_grid("strict").astype(np.int8)
    if method == "naive":
        if q ** (2 * k) > budget:
            raise BudgetExceeded("naive character sum needs q^(2k) = %d cells"
                                 % q ** (2 * k))
        ndim = 2 * k
        prod = None
        for eps in itertools.product((0, 1), repeat=k):
            axis_map = [2 * i + eps[i] for i in range(k)]
            view = _axis_view(C, ndim, axis_map)
            prod = view.astype(np.int64) if prod is None else prod * view
        return int(prod.sum(dtype=np.int64))
    if method != "factored":
        raise ValueError("method must be 'factored' or 'naive'")
    return _fold(C, k, workers, budget, lambda lo, hi, inner: int((inner * inner).sum()))


def count_epo_charsum(Y, workers=1, method="factored", budget=DEFAULT_TUPLE_BUDGET):
    """CountReport whose observed value is the character-sum estimate.

    estimate = q^(2k)/2 + S/2, an exact rational, against the predicted
    main term q^(2k)/2, so the deviation is S/2.  The estimate differs
    from the enumerated count by bounded boundary terms (zero values of
    f and repeated coordinates), not by more.
    """
    from .report import CountReport
    main = Fraction(Y.q ** (2 * Y.k), 2)
    S = epo_charsum(Y, method=method, workers=workers, budget=budget)
    return CountReport(main + Fraction(S, 2), main)


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
    from .report import CountReport
    return CountReport(observed, predicted)


def _bitsets(grid):
    """Bit j of out[t] is grid[t + (j,)], t the leading axes flattened in C order."""
    import numpy as np
    packed = np.packbits(grid, axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little")
            for row in packed.reshape(-1, packed.shape[-1])]


def _offsets(chosen, q, k):
    """q times the base-q index of each (k-2)-subset of chosen.

    With link = _bitsets of the edge grid and v a vertex, link[o + v]
    over these o hold the vertices w that complete each (k-2)-subset of
    chosen, plus v, to an edge.
    """
    out = []
    for sub in itertools.combinations(chosen, k - 2):
        t = 0
        for u in sub:
            t = t * q + u
        out.append(t * q)
    return out


def _msubsets(Y, m, workers):
    """Count the m-subsets (k <= m <= q) on link bitsets, in start-vertex chunks.

    A node's candidates are the vertices above its last one that extend
    it to a clique; a node at depth m - 2 adds its children's candidate
    counts instead of visiting them.
    """
    k, q = Y.k, Y.q
    link = _bitsets(Y.edge_grid())
    full = (1 << q) - 1

    def rec(chosen, cands):
        if len(chosen) + 1 == m:
            return cands.bit_count()
        offs = _offsets(chosen, q, k)
        leaf = len(chosen) + 2 == m
        total = 0
        while cands:
            v = (cands & -cands).bit_length() - 1
            cands &= cands - 1
            nxt = cands
            for o in offs:
                nxt &= link[o + v]
            total += nxt.bit_count() if leaf else rec(chosen + (v,), nxt)
        return total

    root = _offsets((), q, k)

    def start_count(bounds):
        lo, hi = bounds
        total = 0
        for v in range(lo, hi):
            nxt = full >> (v + 1) << (v + 1)
            for o in root:
                nxt &= link[o + v]
            total += rec((v,), nxt)
        return total

    return sum(_run_chunks(start_count, _worker_chunks(q, workers), workers))


def count_m_subsets(Y, m, workers=1, budget=DEFAULT_TUPLE_BUDGET, with_envelope=True):
    """m-subsets of vertices all of whose k-subsets are edges.

    Predicted main term q^m / (m! * 2^C(m,k)); the envelope, when
    requested, is the two-term error bound from the tuple-count
    asymptotic with the polynomial's degree.
    """
    if m < Y.k:
        raise ArityMismatch("m must be at least the uniformity k")
    q = Y.q
    if comb(q, m) > budget:
        raise BudgetExceeded("C(q, m) = %d subsets exceed the budget" % comb(q, m))
    observed = 0 if m > q else _msubsets(Y, m, workers)
    predicted = Fraction(q ** m, factorial(m) * 2 ** comb(m, Y.k))
    envelope = None
    if with_envelope:
        from .bounds import predict_envelope
        envelope = predict_envelope(q, m, Y.k, Y.poly.total_degree).err
    from .report import CountReport
    return CountReport(observed, predicted, envelope)


def omega_clique(Y, node_budget=10 ** 7):
    """Largest vertex set all of whose k-subsets are edges.

    Branch and bound over vertices in descending degree-score order;
    returns (omega, exact) where exact=False means the budget ran out
    and the value is only a lower bound.  Sets smaller than k are
    vacuously complete, so omega >= min(q, k-1) always.
    Candidates are bitsets over ranks in that order; link[t] holds the
    ranks completing the (k-1)-tuple t of ranks to an edge.  A node is
    counted against the budget, and raises the best size, where its
    parent creates it; the parent descends only into a child whose own
    loop would take a step.
    """
    import numpy as np
    k, q = Y.k, Y.q
    eg = Y.edge_grid()
    hits = eg & _strictly_increasing_mask(q, k)
    score = sum(hits.sum(axis=tuple(j for j in range(k) if j != i)) for i in range(k))
    order = sorted(range(q), key=lambda v: (-int(score[v]), v))
    link = _bitsets(eg[np.ix_(*[order] * k)])

    best = min(q, k - 1)
    nodes = 1  # the root
    exact = node_budget >= 1

    def rec(chosen, rest):
        # rest is nonempty and len(chosen) + popcount(rest) > best
        nonlocal best, nodes, exact
        offs = _offsets(chosen, q, k)
        depth = len(chosen) + 1  # of each child
        while True:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            nxt = rest
            for o in offs:
                nxt &= link[o + v]
            nodes += 1
            if nodes > node_budget:
                exact = False
                return
            if depth > best:
                best = depth
            if depth + nxt.bit_count() > best:
                rec(chosen + (v,), nxt)
                if not exact:
                    return
            if depth - 1 + rest.bit_count() <= best:
                return

    if exact and q > best:
        rec((), (1 << q) - 1)
    return best, exact
