"""The k-uniform hypergraph of square values of a symmetric polynomial.

Vertices are the field elements; a k-set is an edge exactly when f
evaluates to a square there (zero counts as a square, so the character
value is nonnegative).  Symmetry of f makes the edge predicate
order-free.  For f = x1 + ... + xk this is the Paley graph/hypergraph.

The EPO kernels work on the full evaluation grid of f (q^k handles)
with numpy.  The m-subset count and the clique search run on link
bitsets in a top-bit layout: the first vertex visited is the highest
bit, and bit b of link[t] says whether the (k-1)-tuple of bit positions
t plus b is an edge.  A search visits b = rest.bit_length() - 1 next and
drops it with rest &= below[b] = (1 << b) - 1; for k >= 3 each node
passes its children tables of base-q offsets into link.  Work is
partitioned so that a worker count never changes the exact results.

The even-partial-octahedron count runs over labeled 2k-tuples of
distinct vertices (u_1(0), u_1(1), ..., u_k(0), u_k(1)) and asks that an
even number of the 2^k octahedron positions {u_1(e_1), ..., u_k(e_k)}
be edges; quasi-randomness predicts q^(2k)/2 of them.  One kernel folds
the u_1 pair in O(q^(2k-1)) work: with the tilde character (edge parity)
it gives the exact count, with the strict one the character sum S over
all 2k-tuples of prod chi(f(positions)), estimating q^(2k)/2 + S/2.
Its Gram products run in float32: the character values lie in
{-1, 0, 1}, so every partial sum is an integer of size at most q, which
float32 holds exactly for q < 2^24; the fold refuses larger fields.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, perm

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


def _fold(T, k, workers, budget, finish, distinct=False):
    """Sum of finish(lo, hi, inner) over slabs u_2(0) in [lo, hi) of the rest lattice.

    inner[r] = sum_x prod_eps T(x, r_eps) at r = (u_2(0), u_2(1), ..., u_k(0), u_k(1))
    = (c0, c1, r') is sum_x G[r', x, c0] G[r', x, c1], one Gram product per r',
    run in float32.  T lies in {-1, 0, 1}, so every partial sum of a Gram
    entry is an integer of size at most q; float32 holds each such integer
    exactly while q < 2^24, and larger fields are refused.  finish gets
    inner[r', c0 - lo, c1] as int32.  The q^(2k-1) cells (x, r) are charged
    to the tuple budget.

    With distinct, x runs outside r and inner is zero where r repeats an
    entry: G is zeroed on the rows and columns in r' and on each r' that
    repeats an entry, then each slab subtracts the x = c0 and x = c1 terms
    d[r', c0] G[r', c0, c1] and d[r', c1] G[r', c1, c0] (d the diagonal of
    G) and zeroes the cells c0 = c1.
    """
    if k < 2:
        raise ArityMismatch("the octahedron fold needs k >= 2")
    q = T.shape[0]
    if q ** (2 * k - 1) > budget:
        raise BudgetExceeded("q^(2k-1) = %d exceeds the tuple budget" % q ** (2 * k - 1))
    if q >= 1 << 24:
        raise BudgetExceeded("q = %d: float32 sums are exact only for q < 2^24" % q)
    import numpy as np
    A = None
    for eps in itertools.product((0, 1), repeat=k - 2):
        axis_map = [0, 1] + [2 + 2 * i + eps[i] for i in range(k - 2)]
        view = _axis_view(T, 2 * k - 2, axis_map)
        A = view.astype(np.float32) if A is None else A * view
    G = np.ascontiguousarray(A.reshape(q, q, -1).transpose(2, 0, 1))  # G[r', x, c]
    if distinct:
        coords = np.indices((q,) * (2 * k - 4)).reshape(2 * k - 4, len(G), 1)
        keep = (coords != np.arange(q)).all(axis=0)  # keep[r', v]: v outside r'
        for i, j in itertools.combinations(range(2 * k - 4), 2):
            keep &= coords[i] != coords[j]
        G *= keep[:, :, None] & keep[:, None, :]
        d = np.diagonal(G, axis1=1, axis2=2)  # d[r', c] = G[r', c, c]

    def slab(bounds):
        lo, hi = bounds
        inner = np.matmul(G[:, :, lo:hi].transpose(0, 2, 1), G)  # inner[r', c0, c1]
        if distinct:
            inner -= d[:, lo:hi, None] * G[:, lo:hi, :]
            inner -= d[:, None, :] * G[:, :, lo:hi].transpose(0, 2, 1)
            inner.reshape(len(G), -1)[:, lo::q + 1] = 0
        return finish(lo, hi, inner.astype(np.int32))

    rows = max(1, min(SLAB_CELLS // q ** (2 * k - 3), -(-q // max(1, workers))))
    slabs = [(lo, min(q, lo + rows)) for lo in range(0, q, rows)]
    return sum(_run_chunks(slab, slabs, workers))


def count_epo_direct(Y, budget=DEFAULT_TUPLE_BUDGET, workers=1):
    """Exact count of even partial octahedra, folding the u_1 pair in q^(2k-1) cells.

    With T the tilde character (+1 on edges), a tuple's parity sign is P_r(u_1(0)) P_r(u_1(1)),
    P_r(x) = prod_eps T(x, r_eps).  If D_r sums P_r over the n = q-2(k-1) values outside
    r (the distinct fold's inner), then (n^2 + D_r^2)/2 - n pairs (u_1(0), u_1(1)) have
    equal sign.  A slab holds (hi-lo) (q-1)!/(q-2k+2)! tuples r with distinct entries.
    """
    import numpy as np
    k, q = Y.k, Y.q
    n = q - 2 * (k - 1)

    def finish(lo, hi, inner):
        cells = (hi - lo) * perm(q - 1, 2 * k - 3)
        squares = int(np.square(inner, dtype=np.int64).sum())
        return (n * n * cells + squares) // 2 - n * cells

    observed = _fold(Y.chi_grid("tilde"), k, workers, budget, finish, distinct=True)
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
    return _fold(C, k, workers, budget,
                 lambda lo, hi, inner: int(np.square(inner, dtype=np.int64).sum()))


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


def _bitsets(grid):
    """Link bitsets of a symmetric grid in the top-bit layout.

    Vertex v is bit position q-1-v, so the first vertex visited is the
    highest bit; out[t] holds bit b when the (k-1)-tuple of bit positions
    t (base q, C order) plus b is an edge.  Reversing every axis reverses
    the flat C order, so one reversed 2-d view is packed; np.packbits pads
    with zero bits above bit q-1.
    """
    import numpy as np
    q = grid.shape[-1]
    packed = np.packbits(grid.reshape(-1, q)[::-1, ::-1], axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _extend(tables, b, q):
    """Offset tables of a vertex set plus the vertex at bit b; k = 2 needs none.

    tables[j] holds q times the base-q index of the bit positions of each
    j-subset (j < k-1); link[o + b] over the o in tables[k-2] hold the
    vertices completing each (k-2)-subset plus b to an edge.  The new
    j-subset s + b of an old (j-1)-subset s has entry (s + b) * q (b * q at j = 1).
    """
    out = [tables[0], tables[1] + [b * q]]
    for j in range(2, len(tables)):
        out.append(tables[j] + [(s + b) * q for s in tables[j - 1]])
    return out


def _msubsets(Y, m, workers):
    """Count the m-subsets (k <= m <= q) on link bitsets, in start-vertex chunks.

    A node's candidates are the vertices after its last one that extend
    it to a clique, the bits below it; a node at depth m - 2 adds its
    children's candidate counts instead of visiting them.  Each node
    hands its children their offset tables (see _extend).
    """
    k, q = Y.k, Y.q
    link = _bitsets(Y.edge_grid())
    below = [(1 << b) - 1 for b in range(q)]  # rest &= below[b] drops bit b and above

    def rec(tables, size, cands):
        # size < m - 1 vertices are chosen; cands holds the vertices that extend them
        offs = tables[-1]
        leaf = size + 2 == m
        total = 0
        while cands:
            b = cands.bit_length() - 1
            cands &= below[b]
            nxt = cands
            for o in offs:
                nxt &= link[o + b]
            total += nxt.bit_count() if leaf else rec(_extend(tables, b, q), size + 1, nxt)
        return total

    def rec2(size, cands):
        # rec for k = 2, where the one offset is 0
        if size + 1 == m:
            return cands.bit_count()
        leaf = size + 2 == m
        total = 0
        while cands:
            b = cands.bit_length() - 1
            cands &= below[b]
            nxt = cands & link[b]
            total += nxt.bit_count() if leaf else rec2(size + 1, nxt)
        return total

    root = [[0]] + [[] for _ in range(k - 2)]  # the empty set's tables

    def start_count(bounds):
        lo, hi = bounds
        starts = range(q - 1 - lo, q - 1 - hi, -1)
        if k == 2:
            return sum(rec2(1, below[b] & link[b]) for b in starts)
        return sum(rec(_extend(root, b, q), 1, below[b]) for b in starts)

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
    Candidates are bitsets in the top-bit layout of that order (see
    _bitsets), so the next vertex is the highest bit of rest.  A node is
    counted against the budget, and raises the best size, where its
    parent creates it; the parent descends only into a child whose own
    loop would take a step, handing it its offset tables (see _extend):
    the child's own children's candidates are rest & link[o + b] over the
    o of its last table.  For k = 2 they are rest & link[b], in a second
    loop that skips the tables.
    """
    import numpy as np
    k, q = Y.k, Y.q
    eg = Y.edge_grid()
    hits = eg & _strictly_increasing_mask(q, k)
    score = sum(hits.sum(axis=tuple(j for j in range(k) if j != i)) for i in range(k))
    order = sorted(range(q), key=lambda v: (-int(score[v]), v))
    link = _bitsets(eg[np.ix_(*[order] * k)])
    below = [(1 << b) - 1 for b in range(q)]  # rest &= below[b] drops bit b and above

    best = min(q, k - 1)
    nodes = 1  # the root
    exact = node_budget >= 1

    def rec(tables, depth, rest, reach):
        # depth is each child's; rest is nonempty, and the largest set this
        # loop can still reach, reach = depth - 1 + popcount(rest), exceeds best
        nonlocal best, nodes, exact
        offs = tables[-1]
        while True:
            b = rest.bit_length() - 1
            rest &= below[b]
            reach -= 1
            nxt = rest
            for o in offs:
                nxt &= link[o + b]
            nodes += 1
            if nodes > node_budget:
                exact = False
                return
            if depth > best:
                best = depth
            size = nxt.bit_count()
            if depth + size > best:
                rec(_extend(tables, b, q), depth + 1, nxt, depth + size)
                if not exact:
                    return
            if reach <= best:
                return

    def rec2(depth, rest, reach):
        # rec for k = 2, where the one offset is 0
        nonlocal best, nodes, exact
        while True:
            b = rest.bit_length() - 1
            rest &= below[b]
            reach -= 1
            nxt = rest & link[b]
            nodes += 1
            if nodes > node_budget:
                exact = False
                return
            if depth > best:
                best = depth
            size = nxt.bit_count()
            if depth + size > best:
                rec2(depth + 1, nxt, depth + size)
                if not exact:
                    return
            if reach <= best:
                return

    if exact and q > best:
        if k == 2:
            rec2(1, (1 << q) - 1, q)
        else:
            rec([[0]] + [[] for _ in range(k - 2)], 1, (1 << q) - 1, q)
    return best, exact
