import itertools
import math
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from ffhyper.bounds import (
    CrosscheckReport,
    ErrorEnvelope,
    ExceptionalSetX,
    WeilCheck,
    b_set_bound,
    enumerate_B,
    enumerate_X,
    predict_envelope,
    remark_magnitude_check,
    slavov_condition,
    slavov_count,
    tuple_count_crosscheck,
    weil_check,
)
from ffhyper.errors import (
    BudgetExceeded,
    ConstantPolynomial,
    FieldMismatch,
    NotAdmissible,
    NotMonic,
)
from ffhyper.field import Field
from ffhyper.hypergraph import build_hypergraph, count_m_subsets
from ffhyper.parse import parse_poly
from ffhyper.poly import MultiPoly, UniPoly

F5 = Field(5)
F7 = Field(7)
F9 = Field(3, 2)
F13 = Field(13)


# ---------------------------------------------------------------------------
# Brute-force oracles on tiny fields
# ---------------------------------------------------------------------------

def all_unipolys(F, max_deg):
    for deg in range(max_deg + 1):
        for coeffs in itertools.product(range(F.q), repeat=deg + 1):
            if deg > 0 and coeffs[-1] == 0:
                continue
            yield coeffs


def brute_const_square(F, coeffs):
    """Is the polynomial with these coefficients c*h^2 for nonzero c?"""
    coeffs = tuple(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        raise ValueError("zero polynomial")
    deg = len(coeffs) - 1
    if deg % 2:
        return False
    for h in all_unipolys(F, deg // 2):
        for c in range(1, F.q):
            prod = [0] * (2 * len(h) - 1)
            for i, a in enumerate(h):
                for j, b in enumerate(h):
                    prod[i + j] = F.add(prod[i + j], F.mul(a, b))
            scaled = tuple(F.mul(c, v) for v in prod)
            while scaled and scaled[-1] == 0:
                scaled = scaled[:-1]
            if scaled == coeffs:
                return True
    return False


def section_coeffs(F, f, u):
    """Coefficients of x -> f(x, u) as a plain tuple."""
    g = f
    for pos in range(f.nvars - 1, 0, -1):
        g = g.partial_eval(pos, u[pos - 1])
    out = [0] * (g.degree_in(0) + 1 if not g.is_zero else 1)
    for exps, c in g.terms.items():
        out[exps[0]] = c
    return tuple(out)


def random_symmetric(F, k, d, rng):
    from ffhyper.admissible import random_symmetric_poly
    return random_symmetric_poly(F, k, d, seed=rng.randrange(1 << 30))


# ---------------------------------------------------------------------------
# Weil character sums
# ---------------------------------------------------------------------------

def test_weil_pinned_shifted_parabola():
    w = weil_check(F13, UniPoly(F13, (1, 0, 1)))
    assert (w.sum, w.s, w.applicable) == (-1, 2, True)
    assert w.holds
    # the same -1 shows up for every nonzero shift
    for c in range(1, 13):
        assert weil_check(F13, UniPoly(F13, (c, 0, 1))).sum == -1


def test_weil_sum_matches_direct_evaluation():
    rng = random.Random(61)
    for F in (F13, F9):
        for _ in range(20):
            deg = rng.randrange(1, 4)
            coeffs = [rng.randrange(F.q) for _ in range(deg)] + [1]
            g = UniPoly(F, tuple(coeffs))
            w = weil_check(F, g)
            direct = sum(F.quad_char(g.eval(x)) for x in range(F.q))
            assert w.sum == direct
            if w.applicable:
                assert w.holds


def test_weil_degree_one_is_exactly_zero():
    w = weil_check(F13, UniPoly(F13, (4, 1)))
    assert w.sum == 0 and w.s == 1
    assert w.bound_squared == 0 and w.holds


def test_weil_scalar_multiplier():
    g = UniPoly(F13, (1, 0, 1))
    for a in range(1, 13):
        w = weil_check(F13, g, a=a)
        direct = sum(F13.quad_char(F13.mul(a, g.eval(x))) for x in range(13))
        assert w.sum == direct
    with pytest.raises(ValueError):
        weil_check(F13, g, a=0)


def test_weil_square_polynomials_are_flagged_inapplicable():
    x = UniPoly(F13, (0, 1))
    one = UniPoly(F13, (1,))
    sq = (x + one) * (x + one)
    w = weil_check(F13, sq)
    assert not w.applicable
    # and the sum saturates: chi = 1 except at the double root
    assert w.sum == 12


def test_weil_input_validation():
    with pytest.raises(NotMonic):
        weil_check(F13, UniPoly(F13, (1, 2)))
    with pytest.raises(ConstantPolynomial):
        weil_check(F13, UniPoly(F13, (1,)))
    with pytest.raises(FieldMismatch):
        weil_check(F13, UniPoly(F7, (0, 1)))


# ---------------------------------------------------------------------------
# The exceptional section set X
# ---------------------------------------------------------------------------

def test_xset_product_plus_one():
    x = enumerate_X(F5, parse_poly(F5, 2, "x1*x2+1"))
    assert x.members == [(0,)]
    assert x.constant_members == [(0,)]
    assert x.members_y == [(0,)] and x.members_z == []
    assert x.holds


def test_xset_zero_section_is_rejected():
    with pytest.raises(NotAdmissible):
        enumerate_X(F5, parse_poly(F5, 2, "x1*x2"))


def test_xset_positive_degree_member():
    # sections (u^2+2)*x^2 + u^2 degenerate to 2*x^2 at u = 0
    f = parse_poly(F5, 2, "x1^2*x2^2+2*x1^2+x2^2")
    x = enumerate_X(F5, f)
    assert x.members == [(0,)]
    assert x.constant_members == []
    assert x.members_z == [(0,)]


def test_xset_matches_brute_force():
    rng = random.Random(67)
    checked = 0
    for F in (F5, F7):
        for _ in range(25):
            f = random_symmetric(F, 2, 2, rng)
            try:
                x = enumerate_X(F, f)
            except NotAdmissible:
                continue
            checked += 1
            want = []
            for u in range(F.q):
                coeffs = section_coeffs(F, f, (u,))
                if brute_const_square(F, coeffs):
                    want.append((u,))
            assert x.members == want
            assert x.holds
    assert checked >= 20


def test_xset_partition_and_bounds():
    rng = random.Random(71)
    for _ in range(25):
        f = random_symmetric(F7, 3, 2, rng)
        try:
            x = enumerate_X(F7, f)
        except NotAdmissible:
            continue
        assert sorted(x.members_y + x.members_z) == sorted(x.members)
        assert len(x.members) <= (x.d ** 2 + x.d) * x.q ** (x.k - 2)
        assert len(x.members_y) <= (x.d - x.n) * x.q ** (x.k - 2)
        assert len(x.members_z) <= x.n * x.d * x.q ** (x.k - 2)
        assert x.holds


def test_magnitude_remark_on_the_pinned_example():
    x = enumerate_X(F5, parse_poly(F5, 2, "x1*x2+1"))
    assert remark_magnitude_check(x) is True


# ---------------------------------------------------------------------------
# The paired-section set B
# ---------------------------------------------------------------------------

def test_bset_product_plus_one_is_the_diagonal():
    b = enumerate_B(F5, parse_poly(F5, 2, "x1*x2+1"))
    assert b == {(u, u) for u in range(5)}
    assert len(b) <= b_set_bound(5, 2, 2)


def test_bset_bound_constant():
    assert b_set_bound(5, 2, 2) == ((4 + 2) + 2 * 2 * 3) * 5
    assert b_set_bound(7, 3, 2) == ((4 + 2) + 4 * 2 * 3) * 7 ** 3


def test_bset_matches_brute_force():
    rng = random.Random(73)
    checked = 0
    for _ in range(12):
        f = random_symmetric(F5, 2, 2, rng)
        try:
            b = enumerate_B(F5, f)
        except NotAdmissible:
            continue
        checked += 1
        want = set()
        for u0 in range(5):
            for u1 in range(5):
                c0 = section_coeffs(F5, f, (u0,))
                c1 = section_coeffs(F5, f, (u1,))
                prod = [0] * (len(c0) + len(c1) - 1)
                for i, a in enumerate(c0):
                    for j, bb in enumerate(c1):
                        prod[i + j] = F5.add(prod[i + j], F5.mul(a, bb))
                while prod and prod[-1] == 0:
                    prod.pop()
                if not prod or brute_const_square(F5, tuple(prod)):
                    want.add((u0, u1))
        assert b == want
    assert checked >= 8


def test_bset_budget_guard():
    with pytest.raises(BudgetExceeded):
        enumerate_B(F13, parse_poly(F13, 2, "x1*x2+1"), budget=10)


# ---------------------------------------------------------------------------
# Joint nonzero-square counts
# ---------------------------------------------------------------------------

def test_slavov_single_polynomial_counts_nonzero_squares():
    rep = slavov_count(F13, [parse_poly(F13, 1, "x1")])
    assert rep.observed == 6
    assert rep.predicted_main == Fraction(13, 2)


def test_slavov_pair_matches_brute_force():
    fs = [parse_poly(F13, 1, "x1"), parse_poly(F13, 1, "x1+1")]
    rep = slavov_count(F13, fs, check_condition=True)
    sq = {x for x in range(1, 13) if F13.is_square(x)}
    want = sum(1 for x in range(13) if x in sq and (x + 1) % 13 in sq)
    assert rep.observed == want
    assert rep.predicted_main == Fraction(13, 4)
    assert rep.notes["condition_ok"]


def test_slavov_condition_flags_dependent_products():
    # x * 4x = (2x)^2, so the pair fails on the full subset
    fs = [parse_poly(F13, 1, "x1"), parse_poly(F13, 1, "4*x1")]
    assert slavov_condition(fs) == [(1, 2)]
    rep = slavov_count(F13, fs, check_condition=True)
    assert not rep.notes["condition_ok"]
    assert rep.notes["condition_failing_subsets"] == [[1, 2]]


def test_slavov_condition_accepts_independent_family():
    fs = [parse_poly(F13, 1, "x1"), parse_poly(F13, 1, "x1+1")]
    assert slavov_condition(fs) == []


def test_slavov_multivariate_family():
    fs = [parse_poly(F7, 2, "x1*x2+1"), parse_poly(F7, 2, "x1+x2")]
    rep = slavov_count(F7, fs, check_condition=True)
    sq = {x for x in range(1, 7) if F7.is_square(x)}
    want = 0
    for a in range(7):
        for b in range(7):
            if (a * b + 1) % 7 in sq and (a + b) % 7 in sq:
                want += 1
    assert rep.observed == want
    assert rep.predicted_main == Fraction(49, 4)


def test_slavov_gap_bound_single_linear():
    # | #squares - q/4 | <= 2*sqrt(q) + 4 for x itself, in integer form
    for q in (13, 29, 53):
        F = Field(q)
        rep = slavov_count(F, [parse_poly(F, 1, "x1")])
        # predicted is q/2 here; the quarter-density gap applies to the
        # two-condition count
        fs = [parse_poly(F, 1, "x1"), parse_poly(F, 1, "x1+1")]
        obs = slavov_count(F, fs).observed
        gap = abs(4 * obs - q)
        assert gap <= 16 or (gap - 16) ** 2 <= 64 * q


# ---------------------------------------------------------------------------
# Error envelopes
# ---------------------------------------------------------------------------

def test_envelope_main_term():
    env = predict_envelope(101, 3, 2, 2)
    assert env.main == Fraction(101 ** 3, factorial(3) * 2 ** comb(3, 2))
    env2 = predict_envelope(13, 4, 3, 3)
    assert env2.main == Fraction(13 ** 4, factorial(4) * 2 ** comb(4, 3))


def test_envelope_error_formula():
    q, m, k, d = 101, 3, 2, 2
    C = comb(m, k)
    want = (2 * d) ** (2 * C) * math.sqrt(q ** (2 * m - 1)) \
        + (2 * d) ** (13 * C / 3) * q ** (m - 1)
    env = predict_envelope(q, m, k, d)
    assert want <= env.err <= math.nextafter(want, math.inf)


def test_envelope_beyond_the_float_range_is_infinite():
    # (2d)^(2C) sqrt(q^(2m-1)) overflows a float at C(12, 2) = 66, d = 20
    env = predict_envelope(13, 12, 2, 20)
    assert env.err == math.inf and env.contains(0)


def test_envelope_containment_is_symmetric():
    env = ErrorEnvelope(Fraction(100), 10.0)
    assert env.contains(100) and env.contains(110) and env.contains(90)
    assert not env.contains(111) and not env.contains(89)


def test_envelope_grows_with_degree_and_field():
    assert predict_envelope(101, 3, 2, 3).err > predict_envelope(101, 3, 2, 2).err
    assert predict_envelope(151, 3, 2, 2).err > predict_envelope(101, 3, 2, 2).err


def test_envelope_relative_error_decays():
    # err/main shrinks as q grows: the envelope becomes informative
    def ratio(q):
        env = predict_envelope(q, 3, 2, 2)
        return env.err / float(env.main)
    assert ratio(10 ** 9) < ratio(10 ** 6) < ratio(101)


# ---------------------------------------------------------------------------
# The ordered/unordered crosscheck
# ---------------------------------------------------------------------------

def test_crosscheck_counts_match_brute_force():
    f = parse_poly(F5, 2, "x1*x2+1")
    rep = tuple_count_crosscheck(F5, f, 3)
    Y = build_hypergraph(F5, f)
    assert rep.subset_count == count_m_subsets(Y, 3).observed
    # joint count: ordered triples where every pair value is a nonzero square
    sq = {x for x in range(1, 5) if F5.is_square(x)}
    want = 0
    for t in itertools.product(range(5), repeat=3):
        if all((t[i] * t[j] + 1) % 5 in sq
               for i in range(3) for j in range(i + 1, 3)):
            want += 1
    assert rep.joint_square_count == want
    assert rep.passes


def test_crosscheck_identity_arithmetic():
    rep = tuple_count_crosscheck(F5, parse_poly(F5, 2, "x1*x2+1"), 3)
    assert rep.lhs == abs(rep.subset_count * factorial(3) - rep.joint_square_count)
    assert rep.rhs == factorial(3) * rep.d * comb(3, rep.k) * rep.q ** 2
    assert rep.passes == (rep.lhs <= rep.rhs)


def test_crosscheck_passes_on_a_grid():
    for q in (5, 7, 9):
        F = Field(q) if q != 9 else F9
        f = parse_poly(F, 2, "x1*x2+1")
        for m in (2, 3):
            assert tuple_count_crosscheck(F, f, m).passes
