import itertools
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracles
from ffhyper.admissible import random_symmetric_poly
from ffhyper.errors import BudgetExceeded, NotSymmetric
from ffhyper.field import Field
from ffhyper.hypergraph import (
    HypergraphView,
    _fold,
    build_hypergraph,
    count_epo_charsum,
    count_epo_direct,
    count_m_subsets,
    epo_charsum,
    omega_clique,
    paley,
)
from ffhyper import poly
from ffhyper.parse import parse_poly

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)
F9 = Field(3, 2)


def prod_graph(F, k=2):
    names = "*".join("x%d" % (i + 1) for i in range(k))
    return build_hypergraph(F, parse_poly(F, k, names + "+1"))


def random_graph(q, k, d, seed):
    F = Field.from_order(q)
    return build_hypergraph(F, random_symmetric_poly(F, k, d, seed=seed))


# Property tests draw a random symmetric f of degree 1..3 over F_q and
# compare a kernel against an oracle; derandomized so every run checks
# the same examples.  No shrinking: a failing draw (q, d, seed) is
# already readable, and shrinking reruns the slow oracles many times.
PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.generate))
DEGREES = st.integers(1, 3)
SEEDS = st.integers(0, 2 ** 32 - 1)


# ---------------------------------------------------------------------------
# Pure-python reference counts
# ---------------------------------------------------------------------------

def brute_epo(Y):
    k, q = Y.k, Y.q
    edge_sets = {c for c in itertools.combinations(range(q), k) if Y.is_edge(c)}
    count = 0
    for tup in itertools.permutations(range(q), 2 * k):
        edges = 0
        for eps in itertools.product((0, 1), repeat=k):
            pick = tuple(sorted(tup[2 * i + eps[i]] for i in range(k)))
            if pick in edge_sets:
                edges += 1
        if edges % 2 == 0:
            count += 1
    return count


def brute_m_subsets(Y, m):
    k, q = Y.k, Y.q
    count = 0
    for sub in itertools.combinations(range(q), m):
        if all(Y.is_edge(e) for e in itertools.combinations(sub, k)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_edge_grid_matches_character_values():
    # a pair is an edge exactly when f lands on a square, zero included
    for F in (F5, F7, F9):
        Y = prod_graph(F)
        f = parse_poly(F, 2, "x1*x2+1")
        for a in range(F.q):
            for b in range(a + 1, F.q):
                assert Y.is_edge((a, b)) == (F.quad_char(f.eval((a, b))) >= 0)


def test_vertex_order_is_irrelevant():
    Y = prod_graph(F7, 3)
    for tri in itertools.combinations(range(7), 3):
        base = Y.is_edge(tri)
        for perm in itertools.permutations(tri):
            assert Y.is_edge(perm) == base


def test_paley_construction():
    # the Paley-type graph uses x1 + x2: squares mod 5 with zero are {0, 1, 4}
    Y = paley(F5)
    for a in range(5):
        for b in range(a + 1, 5):
            assert Y.is_edge((a, b)) == ((a + b) % 5 in (0, 1, 4))
    assert Y.edge_count() == 6


def test_non_symmetric_poly_rejected():
    with pytest.raises(NotSymmetric):
        build_hypergraph(F5, parse_poly(F5, 2, "x1^2+x2"))


def test_pinned_edge_counts():
    assert prod_graph(F5).edge_count() == 7
    # 6 square sum values mod 13, 6 unordered pairs each, plus 6 pairs at sum 0
    assert paley(Field(13)).edge_count() == 42


# ---------------------------------------------------------------------------
# Even partial octahedra
# ---------------------------------------------------------------------------

def test_epo_direct_matches_brute_force_pairs():
    for F in (F3, F5, F7, F9):
        for Y in (prod_graph(F), paley(F)):
            want = brute_epo(Y)
            rep = count_epo_direct(Y)
            assert rep.observed == want
            assert rep.predicted_main == Fraction(F.q ** 4, 2)


def test_epo_direct_matches_brute_force_triples():
    Y = prod_graph(F3, 3)
    assert count_epo_direct(Y).observed == brute_epo(Y)


def test_epo_charsum_routes_compute_the_same_sum():
    for F in (F3, F5, F7, F9):
        for Y in (prod_graph(F), paley(F)):
            assert epo_charsum(Y, method="factored") == epo_charsum(Y, method="naive")


def test_epo_charsum_estimate_tracks_the_direct_count():
    # the estimate q^4/2 + S/2 differs from the enumerated count only by
    # boundary terms, well inside 8*q^3
    for F in (F3, F5, F7, F9):
        for Y in (prod_graph(F), paley(F)):
            d = count_epo_direct(Y).observed
            est = count_epo_charsum(Y).observed
            assert abs(est - d) <= 8 * F.q ** 3


def test_epo_complement_splits_the_tuples():
    # even plus odd partial octahedra exhaust all distinct 2k-tuples
    for F in (F5, F7):
        Y = prod_graph(F)
        q = F.q
        total = q * (q - 1) * (q - 2) * (q - 3)
        even = count_epo_direct(Y).observed
        odd = 0
        for tup in itertools.permutations(range(q), 4):
            edges = sum(
                1
                for eps in itertools.product((0, 1), repeat=2)
                if Y.is_edge((tup[eps[0]], tup[2 + eps[1]]))
            )
            if edges % 2 == 1:
                odd += 1
        assert even + odd == total


def test_epo_worker_count_does_not_change_answer():
    Y = prod_graph(F7)
    base = count_epo_direct(Y, workers=1).observed
    assert count_epo_direct(Y, workers=2).observed == base
    assert count_epo_direct(Y, workers=8).observed == base
    s1 = epo_charsum(Y, workers=1)
    assert epo_charsum(Y, workers=4) == s1


def test_epo_budget_guard():
    Y = prod_graph(F7)
    with pytest.raises(BudgetExceeded):
        count_epo_direct(Y, budget=100)
    # the fold is charged q^(2k-1) cells, not q^(2k), by both of its callers
    assert count_epo_direct(Y, budget=7 ** 3).observed == brute_epo(Y)
    assert epo_charsum(Y, budget=7 ** 3) == epo_charsum(Y, method="naive")
    for count in (count_epo_direct, epo_charsum):
        with pytest.raises(BudgetExceeded):
            count(Y, budget=7 ** 3 - 1)


def test_fold_refuses_fields_where_float32_sums_are_inexact():
    # a zero-stride view: the guard must fire before the fold allocates,
    # under a budget that admits all q^3 cells
    q = 1 << 24
    T = np.broadcast_to(np.int8(1), (q, q))
    with pytest.raises(BudgetExceeded, match="2\\^24"):
        _fold(T, 2, 1, q ** 3, lambda lo, hi, inner: 0)


def test_memory_budget_sets_the_grid_cap(monkeypatch):
    # one cap: a hypergraph's memory budget may lie above the default
    F = Field(11)
    f = parse_poly(F, 3, "x1*x2*x3+1")
    monkeypatch.setattr(poly, "DEFAULT_MEM_BUDGET", 11 ** 3 - 1)
    with pytest.raises(BudgetExceeded):
        f.eval_grid()
    with pytest.raises(BudgetExceeded):
        build_hypergraph(F, f, mem_budget=11 ** 3 - 1).value_grid()
    grid = build_hypergraph(F, f, mem_budget=11 ** 3).value_grid()
    assert (grid == f.eval_grid(11 ** 3)).all()


@settings(PROPERTY, max_examples=30)
@given(q=st.sampled_from((3, 5, 7, 9)), d=DEGREES, seed=SEEDS, workers=st.sampled_from((1, 2)))
def test_epo_fold_matches_brute_force_pairs(q, d, seed, workers):
    Y = random_graph(q, 2, d, seed)
    assert count_epo_direct(Y, workers=workers).observed == brute_epo(Y)


@settings(PROPERTY, max_examples=6)
@given(q=st.sampled_from((7, 9)), d=DEGREES, seed=SEEDS, workers=st.sampled_from((1, 2)))
def test_epo_fold_matches_brute_force_triples(q, d, seed, workers):
    Y = random_graph(q, 3, d, seed)
    assert count_epo_direct(Y, workers=workers).observed == brute_epo(Y)


@settings(PROPERTY, max_examples=30)
@given(kq=st.sampled_from([(2, q) for q in (11, 13, 17, 25, 27, 31)]
                          + [(3, q) for q in (5, 9, 11, 13)] + [(4, q) for q in (3, 5, 7)]),
       d=DEGREES, seed=SEEDS, workers=st.sampled_from((1, 2, 3)))
def test_epo_fold_matches_the_dense_lattice(kq, d, seed, workers):
    k, q = kq
    Y = random_graph(q, k, d, seed)
    assert count_epo_direct(Y, workers=workers).observed == oracles.dense_epo_count(Y)


@settings(PROPERTY, max_examples=30)
@given(kq=st.sampled_from([(2, q) for q in (3, 5, 7, 9, 11, 13)] + [(3, q) for q in (5, 7, 9)]
                          + [(4, q) for q in (3, 5)]),
       d=DEGREES, seed=SEEDS, workers=st.sampled_from((1, 2)))
def test_epo_charsum_fold_matches_naive(kq, d, seed, workers):
    k, q = kq
    Y = random_graph(q, k, d, seed)
    assert epo_charsum(Y, workers=workers) == epo_charsum(Y, method="naive")


# ---------------------------------------------------------------------------
# Fully-adjacent m-subsets
# ---------------------------------------------------------------------------

def test_m_subsets_match_brute_force():
    for F in (F5, F7, F9):
        Y = prod_graph(F)
        for m in (2, 3, 4):
            rep = count_m_subsets(Y, m)
            assert rep.observed == brute_m_subsets(Y, m)
            assert rep.predicted_main == Fraction(
                F.q ** m, factorial(m) * 2 ** comb(m, 2))


def test_m_subsets_triple_uniformity():
    Y = prod_graph(F5, 3)
    rep = count_m_subsets(Y, 4)
    assert rep.observed == brute_m_subsets(Y, 4)


def test_m_subsets_worker_independence():
    Y = prod_graph(Field(11))
    base = count_m_subsets(Y, 3).observed
    for w in (2, 5):
        assert count_m_subsets(Y, 3, workers=w).observed == base


@settings(PROPERTY, max_examples=40)
@given(kq=st.sampled_from([(2, q) for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31,
                                             61, 67, 101)]
                          + [(3, q) for q in (3, 5, 7, 9, 11, 13, 17)]
                          + [(4, q) for q in (3, 5, 7)] + [(5, q) for q in (5, 7)]),
       d=DEGREES, seed=SEEDS, extra=st.integers(0, 2), workers=st.integers(1, 3))
def test_m_subsets_bitsets_match_the_tuple_search(kq, d, seed, extra, workers):
    k, q = kq
    Y = random_graph(q, k, d, seed)
    m = k + extra
    assert count_m_subsets(Y, m, workers=workers).observed == oracles.m_subsets_tuples(Y, m, 1)


# ---------------------------------------------------------------------------
# Labeled induced patterns
# ---------------------------------------------------------------------------

def brute_labeled_induced(Y, pattern):
    s = pattern.nverts
    subsets = list(itertools.combinations(range(s), Y.k))
    count = 0
    for image in itertools.permutations(range(Y.q), s):
        ok = True
        for sub in subsets:
            want = frozenset(sub) in pattern.edges
            if Y.is_edge(tuple(image[v] for v in sub)) != want:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_labeled_induced_matches_brute_force():
    Y = prod_graph(F5)
    for pattern in (oracles.Pattern.path3(), oracles.Pattern.complete(3, 2),
                    oracles.Pattern.empty(3, 2), oracles.Pattern.single_edge(2)):
        rep = oracles.count_labeled_induced(Y, pattern)
        assert rep.observed == brute_labeled_induced(Y, pattern)


def test_labeled_induced_path_on_paley():
    Y = paley(F5)
    rep = oracles.count_labeled_induced(Y, oracles.Pattern.path3())
    assert rep.observed == 12
    assert rep.predicted_main == Fraction(5 ** 3, 8)


def test_complete_pattern_counts_cliques_with_labels():
    Y = prod_graph(F7)
    triangles = oracles.count_labeled_induced(Y, oracles.Pattern.complete(3, 2)).observed
    # every labeled complete triple is one of 3! orderings of a clique
    # that spans no non-edges, so it is divisible by 6
    assert triangles % 6 == 0


# ---------------------------------------------------------------------------
# Clique number
# ---------------------------------------------------------------------------

def test_omega_matches_exhaustive_search():
    for F in (F5, F7, F9):
        for Y in (prod_graph(F), paley(F)):
            best = 1
            for m in range(2, F.q + 1):
                if brute_m_subsets(Y, m) > 0:
                    best = m
            omega, exact = omega_clique(Y)
            assert exact and omega == best


def test_omega_triples():
    Y = prod_graph(F5, 3)
    best = 2
    for m in range(3, 6):
        if brute_m_subsets(Y, m) > 0:
            best = m
    omega, exact = omega_clique(Y)
    assert exact and omega == best


@settings(PROPERTY, max_examples=40)
@given(kq=st.sampled_from([(2, q) for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31,
                                             61, 67, 101)]
                          + [(3, q) for q in (3, 5, 7, 9, 11, 13, 17)] + [(4, q) for q in (5, 7)]),
       d=DEGREES, seed=SEEDS, budget=st.one_of(st.integers(1, 64), st.none()))
def test_omega_bitsets_match_the_list_search(kq, d, seed, budget):
    # same (omega, exact) for every node budget, the binding ones included
    k, q = kq
    Y = random_graph(q, k, d, seed)
    args = () if budget is None else (budget,)
    assert omega_clique(Y, *args) == oracles.omega_clique_lists(Y, *args)


def nodes_needed(search, Y):
    """The smallest node budget at which search(Y, budget) is exact, by bisection."""
    lo, hi = 0, 1  # search(Y, lo) is inexact
    while not search(Y, hi)[1]:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if search(Y, mid)[1] else (mid, hi)
    return hi


@settings(PROPERTY, max_examples=20)
@given(kq=st.sampled_from([(2, q) for q in (3, 5, 7, 11, 13, 17, 19, 23, 25, 29, 31)]
                          + [(3, q) for q in (5, 7, 9, 11)] + [(4, q) for q in (5, 7)]
                          + [(5, q) for q in (5, 7)]),
       d=DEGREES, seed=SEEDS)
def test_omega_needs_the_same_node_budget_as_the_list_search(kq, d, seed):
    # the whole search visits the same number of nodes, not only its first 64
    k, q = kq
    Y = random_graph(q, k, d, seed)
    assert nodes_needed(omega_clique, Y) == nodes_needed(oracles.omega_clique_lists, Y)


def test_omega_budget_gives_a_lower_bound():
    Y = prod_graph(Field(11))
    full, exact = omega_clique(Y)
    assert exact
    capped, capped_exact = omega_clique(Y, node_budget=3)
    assert not capped_exact
    assert capped <= full
