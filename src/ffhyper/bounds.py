"""Quantitative bound checks: Weil sums, exceptional sets, joint square counts.

Every comparison against a square-root quantity is done on squared
integers, so the pass/fail verdicts never touch floating point.  The
only float in the module is the error envelope, which is a one-sided
upper bound and is rounded up after evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

import numpy as np

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    ConstantPolynomial,
    EmptyGenerators,
    FieldMismatch,
    NotAdmissible,
    NotMonic,
)
from .hypergraph import DEFAULT_TUPLE_BUDGET, build_hypergraph, count_m_subsets
from .poly import UniPoly, is_const_square, uni_squarefree_part, univar_is_const_square
from .report import CountReport


# ---------------------------------------------------------------------------
# Weil's bound for quadratic character sums.
# ---------------------------------------------------------------------------

@dataclass
class WeilCheck:
    """One exhaustive character sum next to its square-root bound.

    ``sum`` is the exact integer sum of chi(a*g(x)) over the field,
    ``s`` the number of distinct roots of g in a splitting field.
    The bound is only claimed when ``applicable`` holds, i.e. g is
    not the square of a polynomial.
    """

    q: int
    sum: int
    s: int
    applicable: bool

    @property
    def bound_squared(self):
        return (self.s - 1) ** 2 * self.q

    @property
    def holds(self):
        return self.sum * self.sum <= self.bound_squared

    def to_json(self):
        return {
            "q": self.q,
            "sum": self.sum,
            "s": self.s,
            "applicable": self.applicable,
            "bound_squared": self.bound_squared,
            "holds": self.holds,
        }


def weil_check(F, g, a=1):
    """Compare sum_x chi(a*g(x)) against (s-1)*sqrt(q), exactly.

    s is read off as the degree of the square-free part of g, which
    equals the number of distinct roots in a splitting field without
    any root finding.  g must be monic of positive degree; a must be
    a nonzero scalar.
    """
    F.check(a)
    if a == 0:
        raise ValueError("the scalar a must be nonzero")
    if g.field != F:
        raise FieldMismatch("g lives in %r, not %r" % (g.field, F))
    if g.is_zero or g.coeffs[-1] != 1:
        raise NotMonic("g must be monic")
    if g.degree < 1:
        raise ConstantPolynomial("g must have positive degree")
    xs = np.arange(F.q, dtype=np.int64)
    vals = F.mul_arr(np.full(F.q, a, dtype=np.int64), g.eval_arr(xs))
    total = int(F.chi_array("strict")[vals].sum())
    s = uni_squarefree_part(g).degree
    applicable = not univar_is_const_square(g)
    return WeilCheck(F.q, total, s, applicable)


# ---------------------------------------------------------------------------
# The exceptional section set X and its leading-coefficient split.
# ---------------------------------------------------------------------------

@dataclass
class ExceptionalSetX:
    """Sections u with f(x_1, u) a constant multiple of a square.

    Nonzero constant sections are members (c times the square of 1)
    and are listed again under ``constant_members`` so callers can
    see when that convention matters.  ``members_y`` collects the
    members where the leading section coefficient p_n vanishes,
    ``members_z`` the rest.
    """

    q: int
    k: int
    d: int
    n: int
    members: list
    constant_members: list
    members_y: list
    members_z: list

    @property
    def bound(self):
        return (self.d * self.d + self.d) * self.q ** (self.k - 2)

    @property
    def y_bound(self):
        return (self.d - self.n) * self.q ** (self.k - 2)

    @property
    def z_bound(self):
        return self.n * self.d * self.q ** (self.k - 2)

    @property
    def holds(self):
        return (
            len(self.members) <= self.bound
            and len(self.members_y) <= self.y_bound
            and len(self.members_z) <= self.z_bound
        )

    def to_json(self):
        return {
            "q": self.q,
            "k": self.k,
            "d": self.d,
            "n": self.n,
            "size": len(self.members),
            "constant_sections": len(self.constant_members),
            "size_y": len(self.members_y),
            "size_z": len(self.members_z),
            "bound": self.bound,
            "y_bound": self.y_bound,
            "z_bound": self.z_bound,
            "holds": self.holds,
        }


def enumerate_X(F, f):
    """All (u_2, ..., u_k) whose x_1-section of f collapses to c*h(x_1)^2.

    The caller is expected to have verified admissibility; a section
    that vanishes identically contradicts the primitive condition and
    raises.  Sections are scanned in lexicographic handle order, so
    the member lists are deterministic.
    """
    k = f.nvars
    if k < 2:
        raise ArityMismatch("need at least two variables")
    if f.field != F:
        raise FieldMismatch("f lives in %r, not %r" % (f.field, F))
    coeffs = f.expand_in_var(0)
    n = len(coeffs) - 1
    if n < 1:
        raise ConstantPolynomial("f has no x1 term")
    grids = [c.eval_grid() for c in coeffs]
    members, consts, ys, zs = [], [], [], []
    for idx in np.ndindex(*grids[0].shape):
        sec = [int(g[idx]) for g in grids]
        top = sec[n]
        while sec and sec[-1] == 0:
            sec.pop()
        if not sec:
            raise NotAdmissible("zero section at %r" % (idx,))
        if univar_is_const_square(UniPoly(F, tuple(sec))):
            u = tuple(int(i) for i in idx)
            members.append(u)
            if len(sec) == 1:
                consts.append(u)
            if top == 0:
                ys.append(u)
            else:
                zs.append(u)
    return ExceptionalSetX(F.q, k, f.total_degree, n, members, consts, ys, zs)


def remark_magnitude_check(xset):
    """Report whether |X| <= q^{k-2} + 6*q^{k/2}, on squared integers.

    The finer magnitude estimate for the diagonal example carries an
    unspecified constant; 6 = d^2 + d at d = 2 is used here and the
    outcome is reported, never asserted.
    """
    size, q, k = len(xset.members), xset.q, xset.k
    base = q ** (k - 2)
    if size <= base:
        return True
    return (size - base) ** 2 <= 36 * q ** k


# ---------------------------------------------------------------------------
# The product-collapse set B.
# ---------------------------------------------------------------------------

def enumerate_B(F, f, budget=DEFAULT_TUPLE_BUDGET):
    """Tuples (u_2(0), u_2(1), ..., u_k(0), u_k(1)) with collapsing products.

    A tuple belongs to B when the product over all eps in {0,1}^{k-1}
    of the sections f(x, u_2(eps_2), ..., u_k(eps_k)) is a constant
    multiple of the square of a polynomial.  The identically zero
    product qualifies (it equals 0 times any square).  Returns the
    member tuples as a set.
    """
    k = f.nvars
    if k < 2:
        raise ArityMismatch("need at least two variables")
    if f.field != F:
        raise FieldMismatch("f lives in %r, not %r" % (f.field, F))
    q = F.q
    if q ** (2 * k - 2) > budget:
        raise BudgetExceeded("q^(2k-2) = %d tuples exceed the budget" % q ** (2 * k - 2))
    coeffs = f.expand_in_var(0)
    if len(coeffs) < 2:
        raise ConstantPolynomial("f has no x1 term")
    grids = [c.eval_grid() for c in coeffs]
    sections = {}
    for idx in np.ndindex(*grids[0].shape):
        sec = [int(g[idx]) for g in grids]
        while sec and sec[-1] == 0:
            sec.pop()
        # None marks the identically zero section
        sections[tuple(int(i) for i in idx)] = UniPoly(F, tuple(sec)) if sec else None
    slots = k - 1
    members = set()
    for t in product(range(q), repeat=2 * slots):
        pairs = [(t[2 * j], t[2 * j + 1]) for j in range(slots)]
        prod_poly = UniPoly(F, (1,))
        vanished = False
        for eps in product((0, 1), repeat=slots):
            sec = sections[tuple(pairs[j][eps[j]] for j in range(slots))]
            if sec is None:
                vanished = True
                break
            prod_poly = prod_poly * sec
        if vanished or univar_is_const_square(prod_poly):
            members.add(t)
    return members


def b_set_bound(q, k, d):
    """Artifact-derived scaling bound C * q^{2k-3} for |B|.

    C combines the section-collapse count with one Schwartz-Zippel
    application per shared root across the 2^{k-1} section factors.
    Checked empirically on the desk instances, never asserted as a
    sharp constant.
    """
    return ((d * d + d) + 2 ** (k - 1) * d * (d + 1)) * q ** (2 * k - 3)


# ---------------------------------------------------------------------------
# Joint nonzero-square counts for polynomial families.
# ---------------------------------------------------------------------------

def slavov_condition(fs):
    """Nonempty index subsets whose product collapses to c*h^2.

    Returns the failing subsets as 1-based index tuples; an empty
    list means the independence hypothesis holds for the family.
    """
    failing = []
    for r in range(1, len(fs) + 1):
        for idx in combinations(range(len(fs)), r):
            g = fs[idx[0]]
            for i in idx[1:]:
                g = g * fs[i]
            if g.is_zero or is_const_square(g):
                failing.append(tuple(i + 1 for i in idx))
    return failing


def slavov_count(F, fs, check_condition=False, budget=DEFAULT_TUPLE_BUDGET):
    """Points where every polynomial in the family is a nonzero square.

    The predicted main term is q^m / 2^n for n polynomials in m
    variables.  With check_condition the subset-product hypothesis is
    verified and any failing subsets are attached to the report notes.
    """
    if not fs:
        raise EmptyGenerators("need at least one polynomial")
    m = fs[0].nvars
    for g in fs:
        if g.field != F:
            raise FieldMismatch("family member lives in %r, not %r" % (g.field, F))
        if g.nvars != m:
            raise ArityMismatch("family members disagree on arity")
    q = F.q
    if q ** m > budget:
        raise BudgetExceeded("q^m = %d points exceed the budget" % q ** m)
    chi = F.chi_array("strict")
    mask = None
    for g in fs:
        ok = chi[g.eval_grid()] == 1
        mask = ok if mask is None else mask & ok
    observed = int(mask.sum())
    predicted = Fraction(q ** m, 2 ** len(fs))
    notes = None
    if check_condition:
        failing = slavov_condition(fs)
        notes = {
            "condition_ok": not failing,
            "condition_failing_subsets": [list(t) for t in failing],
        }
    return CountReport(observed, predicted, notes=notes)


# ---------------------------------------------------------------------------
# The tuple-count error envelope and the ordered-count crosscheck.
# ---------------------------------------------------------------------------

@dataclass
class ErrorEnvelope:
    """Main term with a two-term additive error bound.

    ``main`` is exact; ``err`` is a floating upper bound rounded up
    one ulp after evaluation, so containment verdicts are one-sided.
    """

    main: Fraction
    err: float

    def contains(self, observed):
        return abs(float(Fraction(observed) - self.main)) <= self.err

    def to_json(self):
        return {
            "main": {"num": str(self.main.numerator), "den": str(self.main.denominator)},
            "err": repr(self.err),
        }


def predict_envelope(q, m, k, d):
    """Main term q^m/(m! 2^C(m,k)) with the (2d)-power error bound.

    An error term beyond the float range is math.inf, still an upper bound.
    """
    if not 2 <= k <= m:
        raise ArityMismatch("need m >= k >= 2")
    if d < 1:
        raise ValueError("degree must be positive")
    c = comb(m, k)
    main = Fraction(q ** m, factorial(m) * 2 ** c)
    try:
        err = ((2 * d) ** (2 * c) * math.sqrt(q ** (2 * m - 1))
               + (2 * d) ** (13 * c / 3) * q ** (m - 1))
    except OverflowError:
        err = math.inf
    return ErrorEnvelope(main, math.nextafter(err, math.inf))


@dataclass
class CrosscheckReport:
    """Exact comparison of the subset count with the joint-square count.

    ``subset_count`` is the number of m-subsets inducing complete
    k-graphs; ``joint_square_count`` is the ordered count of points
    where every k-wise evaluation of f is a nonzero square.  The two
    agree up to d*C(m,k)*q^{m-1} after dividing by m!; both sides of
    that comparison are kept as integers.
    """

    q: int
    k: int
    m: int
    d: int
    subset_count: int
    joint_square_count: int

    @property
    def lhs(self):
        return abs(self.subset_count * factorial(self.m) - self.joint_square_count)

    @property
    def rhs(self):
        return factorial(self.m) * self.d * comb(self.m, self.k) * self.q ** (self.m - 1)

    @property
    def passes(self):
        return self.lhs <= self.rhs

    def to_json(self):
        return {
            "q": self.q,
            "k": self.k,
            "m": self.m,
            "d": self.d,
            "subset_count": self.subset_count,
            "joint_square_count": self.joint_square_count,
            "scaled_difference": self.lhs,
            "scaled_bound": self.rhs,
            "passes": self.passes,
        }


def tuple_count_crosscheck(F, f, m, budget=DEFAULT_TUPLE_BUDGET):
    """Compare the m-subset count against the ordered joint-square count.

    The ordered side evaluates f on every k-subset of the m coordinate
    slots, then counts points where all those values are nonzero
    squares; dividing by m! must land within d*C(m,k)*q^{m-1} of the
    subset count.
    """
    k = f.nvars
    if m < k:
        raise ArityMismatch("m must be at least the arity of f")
    if F.q ** m > budget:
        raise BudgetExceeded("q^m = %d points exceed the budget" % F.q ** m)
    Y = build_hypergraph(F, f)
    n_subsets = count_m_subsets(Y, m, budget=budget, with_envelope=False).observed
    family = [f.rename_vars(m, idx) for idx in combinations(range(m), k)]
    s = slavov_count(F, family, budget=budget).observed
    return CrosscheckReport(F.q, k, m, f.total_degree, n_subsets, s)
