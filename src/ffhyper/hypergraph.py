"""The k-uniform hypergraph of square values of a symmetric polynomial.

Vertices are the field elements; a k-set is an edge exactly when f
evaluates to a square there (zero counts as a square, so the character
value is nonnegative).  Symmetry of f makes the edge predicate
order-free.  For f = x1 + ... + xk this is the Paley graph/hypergraph.

The EPO kernels work on the full evaluation grid of f (q^k handles)
with numpy.  The m-subset count and the clique search run on link
bitsets: bit j of link[t] says whether the (k-1)-tuple t plus j is an
edge; each search node passes its children tables of base-q offsets
into link.  Work is partitioned so that a worker count never changes
the exact integer results.

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


def _fold(T, k, workers, budget, finish):
    """Sum of finish(lo, hi, inner) over slabs u_2(0) in [lo, hi) of the rest lattice.

    inner[r] = sum_x prod_eps T(x, r_eps) at r = (u_2(0), u_2(1), ..., u_k(0), u_k(1))
    = (c0, c1, r') is sum_x A(x, c0, r') A(x, c1, r'), one Gram product per r',
    run in float32.  T lies in {-1, 0, 1}, so every partial sum of a Gram
    entry is an integer of size at most q; float32 holds each such integer
    exactly while q < 2^24, and larger fields are refused.  finish gets
    inner as int32.  The q^(2k-1) cells (x, r) are charged to the tuple budget.
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

    def slab(bounds):
        lo, hi = bounds
        inner = np.matmul(G[:, :, lo:hi].transpose(0, 2, 1), G)  # inner[r', c0, c1]
        inner = inner.transpose(1, 2, 0).reshape((hi - lo,) + (q,) * (2 * k - 3))
        return finish(lo, hi, inner.astype(np.int32))

    rows = max(1, min(SLAB_CELLS // q ** (2 * k - 3), -(-q // max(1, workers))))
    slabs = [(lo, min(q, lo + rows)) for lo in range(0, q, rows)]
    return sum(_run_chunks(slab, slabs, workers))


def _pair_factors(T, k):
    """Per pair p of rest axes (2p, 2p + 1), the factor lists (O_p, R_2p, R_2p+1).

    For r_j in pair p, the term P_r(r_j) of D_r (see count_epo_direct) is
    O_p R_j: O_p holds the factors T(r_j, r_eps) whose eps_p picks the
    pair's other axis, the same for both j, and R_j those that repeat r_j.
    A factor is a view of T, or of its diagonal, on the sorted rest axes
    its arguments land on (T is symmetric); its axis 0 has size q exactly
    when it spans rest axis 0, the slab axis.
    """
    import numpy as np
    ndim = 2 * k - 2

    def view(axes):
        distinct = sorted(set(axes))
        return _axis_view(np.einsum(T, sorted(axes), distinct), ndim, distinct)

    out = []
    for p in range(k - 1):
        picks = list(itertools.product(*[(2 * i, 2 * i + 1) for i in range(k - 1) if i != p]))
        out.append([[view((2 * p + a, 2 * p + b) + pick) for pick in picks]
                    for a, b in ((0, 1), (0, 0), (1, 1))])
    return out


def count_epo_direct(Y, budget=DEFAULT_TUPLE_BUDGET, workers=1):
    """Exact count of even partial octahedra, folding the u_1 pair in q^(2k-1) cells.

    With T the tilde character (+1 on edges), a tuple's parity sign is P_r(u_1(0)) P_r(u_1(1)),
    P_r(x) = prod_eps T(x, r_eps).  If D_r sums P_r over the n = q-2(k-1) values outside
    r, then (n^2 + D_r^2)/2 - n pairs (u_1(0), u_1(1)) have equal sign.  A slab holds
    (hi-lo) (q-1)!/(q-2k+2)! tuples r with distinct entries.
    """
    import numpy as np
    k, q = Y.k, Y.q
    T = Y.chi_grid("tilde")
    n = q - 2 * (k - 1)
    ndim = 2 * k - 2
    pairs = _pair_factors(T, k)

    def finish(lo, hi, inner):
        def product(factors):
            P = 1
            for view in factors:
                P = P * (view[lo:hi] if view.shape[0] == q else view)
            return P

        D = inner
        for off, same0, same1 in pairs:  # drop the terms x = r_j
            D = D - product(off) * (product(same0) + product(same1))
        coords = [_axis_view(np.arange(lo, hi) if p == 0 else np.arange(q), ndim, [p])
                  for p in range(ndim)]
        distinct = True
        for j in range(1, ndim):
            for i in range(j):
                distinct = distinct & (coords[i] != coords[j])
        cells = (hi - lo) * perm(q - 1, ndim - 1)
        squares = int(np.square(D * distinct, dtype=np.int64).sum())
        return (n * n * cells + squares) // 2 - n * cells

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
    """Bit j of out[t] is grid[t + (j,)], t the leading axes flattened in C order."""
    import numpy as np
    packed = np.packbits(grid, axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little")
            for row in packed.reshape(-1, packed.shape[-1])]


def _root_tables(k):
    """Offset tables of the empty vertex set (see _extend)."""
    return [[0]] + [[] for _ in range(k - 2)]


def _extend(tables, v, q):
    """Offset tables of a vertex set plus the vertex v, from those of the set.

    tables[j] holds q times the base-q index of each j-subset, j = 0..k-2,
    so link[o + v] over the o in tables[k-2] hold the vertices that
    complete each (k-2)-subset plus v to an edge.  A new j-subset is an
    old (j-1)-subset s plus v, entry (s + v) * q (v * q at j = 1).  For
    k = 2 the one table [0] is returned as it is.
    """
    if len(tables) == 1:
        return tables
    out = [tables[0], tables[1] + [v * q]]
    for j in range(2, len(tables)):
        out.append(tables[j] + [(s + v) * q for s in tables[j - 1]])
    return out


def _msubsets(Y, m, workers):
    """Count the m-subsets (k <= m <= q) on link bitsets, in start-vertex chunks.

    A node's candidates are the vertices above its last one that extend
    it to a clique; a node at depth m - 2 adds its children's candidate
    counts instead of visiting them.  Each node hands its children
    their offset tables (see _extend).
    """
    k, q = Y.k, Y.q
    link = _bitsets(Y.edge_grid())
    full = (1 << q) - 1

    def rec(tables, size, cands):
        # size vertices are chosen; cands holds the vertices that extend them
        if size + 1 == m:
            return cands.bit_count()
        offs = tables[-1]
        one = offs[0] if len(offs) == 1 else None
        leaf = size + 2 == m
        total = 0
        while cands:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            if one is None:
                nxt = cands
                for o in offs:
                    nxt &= link[o + v]
            else:
                nxt = cands & link[one + v]
            total += nxt.bit_count() if leaf else rec(_extend(tables, v, q), size + 1, nxt)
        return total

    root = _root_tables(k)

    def start_count(bounds):
        lo, hi = bounds
        total = 0
        for v in range(lo, hi):
            nxt = full >> (v + 1) << (v + 1)
            for o in root[-1]:
                nxt &= link[o + v]
            total += rec(_extend(root, v, q), 1, nxt)
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
    loop would take a step.  The parent hands that child its offset
    tables (see _extend), so the child's own children's candidates are
    rest & link[o + v] over the o of its last table.
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

    def rec(tables, depth, rest, left):
        # depth is each child's; rest is nonempty, left = popcount(rest)
        # and depth - 1 + left > best
        nonlocal best, nodes, exact
        offs = tables[-1]
        one = offs[0] if len(offs) == 1 else None
        while True:
            low = rest & -rest
            rest ^= low
            left -= 1
            v = low.bit_length() - 1
            if one is None:
                nxt = rest
                for o in offs:
                    nxt &= link[o + v]
            else:
                nxt = rest & link[one + v]
            nodes += 1
            if nodes > node_budget:
                exact = False
                return
            if depth > best:
                best = depth
            size = nxt.bit_count()
            if depth + size > best:
                rec(_extend(tables, v, q), depth + 1, nxt, size)
                if not exact:
                    return
            if depth - 1 + left <= best:
                return

    if exact and q > best:
        rec(_root_tables(k), 1, (1 << q) - 1, q)
    return best, exact
