"""Sparse multivariate and dense univariate polynomials over a finite field.

A MultiPoly maps exponent tuples to nonzero coefficient handles.  The
canonical term order for printing and normalization is graded lex; the
Groebner machinery in :mod:`ffhyper.groebner` uses graded reverse lex.
The zero polynomial has total degree -1.

The factor-structure operations (gcd, square-free decomposition,
constant-times-square test) all work in characteristic p, where a
polynomial with every exponent divisible by p is the p-th power of the
polynomial obtained by dividing exponents by p and taking inverse
Frobenius images of the coefficients.
"""

from __future__ import annotations

import itertools

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    FieldMismatch,
    ZeroPolynomial,
)

DEFAULT_MEM_BUDGET = 1 << 26  # cap on evaluation-grid entries, at 8 bytes each


def grlex_key(e):
    """Sort key: graded lex, ties by the exponent tuple itself."""
    return (sum(e), e)


def grevlex_key(e):
    """Sort key: graded reverse lex."""
    return (sum(e), tuple(-x for x in reversed(e)))


class MultiPoly:
    """Polynomial in ``nvars`` variables with coefficients in ``field``."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms=None):
        if nvars < 1:
            raise ArityMismatch("need at least one variable")
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ArityMismatch("exponent %r has wrong length" % (e,))
                if c:
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, c):
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(field, nvars, {tuple(e): 1})

    # -- basic structure -----------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def total_degree(self):
        """Largest term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var):
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    @property
    def is_constant(self):
        return self.total_degree <= 0

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self.terms.get((0,) * self.nvars, 0)

    def lead_exp(self, key=grlex_key):
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        return max(self.terms, key=key)

    def lead_coeff(self, key=grlex_key):
        return self.terms[self.lead_exp(key)]

    def __eq__(self, other):
        return (isinstance(other, MultiPoly)
                and self.field == other.field
                and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        items = tuple(sorted(self.terms.items(), key=lambda t: grlex_key(t[0])))
        return hash((self.field, self.nvars, items))

    def __repr__(self):
        from .parse import poly_to_text
        return "<%s over %r>" % (poly_to_text(self), self.field)

    def _require_compatible(self, other):
        if self.field != other.field:
            raise FieldMismatch("operands live in different fields")
        if self.nvars != other.nvars:
            raise ArityMismatch("operands have different arities")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        self._require_compatible(other)
        F = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = F.add(out.get(e, 0), c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(F, self.nvars, out)

    def __neg__(self):
        F = self.field
        return MultiPoly(F, self.nvars, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._require_compatible(other)
        F = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = F.add(out.get(e, 0), F.mul(c1, c2))
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly(F, self.nvars, out)

    def scale(self, c):
        F = self.field
        if c == 0:
            return MultiPoly.zero(F, self.nvars)
        return MultiPoly(F, self.nvars, {e: F.mul(v, c) for e, v in self.terms.items()})

    def shift_mul(self, exp, c):
        """Multiply by c * x^exp in one pass."""
        F = self.field
        if c == 0:
            return MultiPoly.zero(F, self.nvars)
        return MultiPoly(F, self.nvars,
                         {tuple(a + b for a, b in zip(e, exp)): F.mul(v, c)
                          for e, v in self.terms.items()})

    def pow(self, e):
        if e < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(self.field, self.nvars, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def monic(self, key=grlex_key):
        """Scale so the leading coefficient under ``key`` is 1."""
        if self.is_zero:
            return self
        lc = self.lead_coeff(key)
        if lc == 1:
            return self
        return self.scale(self.field.inv(lc))

    # -- evaluation ------------------------------------------------------------

    def eval(self, point):
        if len(point) != self.nvars:
            raise ArityMismatch("point has wrong length")
        F = self.field
        acc = 0
        for e, c in self.terms.items():
            v = c
            for x, ei in zip(point, e):
                if ei:
                    v = F.mul(v, F.pow(x, ei))
            acc = F.add(acc, v)
        return acc

    def partial_eval(self, var, value):
        """Substitute one variable; the result drops that variable slot."""
        if self.nvars < 2:
            raise ArityMismatch("cannot drop the only variable")
        F = self.field
        out = {}
        for e, c in self.terms.items():
            v = F.mul(c, F.pow(value, e[var])) if e[var] else c
            if not v:
                continue
            rest = e[:var] + e[var + 1:]
            s = F.add(out.get(rest, 0), v)
            if s:
                out[rest] = s
            else:
                out.pop(rest, None)
        return MultiPoly(F, self.nvars - 1, out)

    def eval_grid(self, cap=None):
        """Values on the full grid F^nvars as an int64 array of handles.

        Axis i indexes variable i by handle.  Memory is q^nvars entries,
        at most cap (default DEFAULT_MEM_BUDGET).
        """
        F = self.field
        q = F.q
        k = self.nvars
        if q ** k > (DEFAULT_MEM_BUDGET if cap is None else cap):
            raise BudgetExceeded("evaluation grid q^k = %d exceeds the memory budget" % q ** k)
        import numpy as np
        shape = (q,) * k
        acc = np.zeros(shape, dtype=np.int64)
        started = False
        for e, c in sorted(self.terms.items(), key=lambda t: grlex_key(t[0])):
            t = np.full((1,) * k, c, dtype=np.int64)
            for i, ei in enumerate(e):
                if ei:
                    ax = np.arange(q, dtype=np.int64).reshape(
                        (1,) * i + (q,) + (1,) * (k - 1 - i))
                    t = F.mul_arr(t, F.pow_arr(ax, ei))
            acc = F.add_arr(acc, t) if started else np.broadcast_to(t, shape).copy()
            started = True
        if not started:
            return acc
        return np.broadcast_to(acc, shape).copy() if acc.shape != shape else acc

    # -- structural operations ---------------------------------------------------

    def derivative(self, var):
        F = self.field
        out = {}
        for e, c in self.terms.items():
            if e[var] == 0:
                continue
            f = F.mul(c, F.from_int(e[var]))
            if not f:
                continue
            ne = e[:var] + (e[var] - 1,) + e[var + 1:]
            s = F.add(out.get(ne, 0), f)
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
        return MultiPoly(F, self.nvars, out)

    def is_symmetric(self):
        """Invariance under adjacent transpositions (hence all of S_k)."""
        if self.nvars == 1:
            return True
        for i in range(self.nvars - 1):
            swapped = {}
            for e, c in self.terms.items():
                ne = list(e)
                ne[i], ne[i + 1] = ne[i + 1], ne[i]
                swapped[tuple(ne)] = c
            if swapped != self.terms:
                return False
        return True

    def expand_in_var(self, var):
        """Coefficient list [H_0, ..., H_n] of powers of one variable.

        Each H_j lives in the remaining nvars-1 variables (order kept).
        The list has length degree_in(var)+1, so the top entry is nonzero;
        the zero polynomial yields [].  Requires nvars >= 2.
        """
        if self.nvars < 2:
            raise ArityMismatch("expansion needs a variable to keep")
        n = self.degree_in(var)
        if n < 0:
            return []
        buckets = [dict() for _ in range(n + 1)]
        for e, c in self.terms.items():
            rest = e[:var] + e[var + 1:]
            buckets[e[var]][rest] = c
        return [MultiPoly(self.field, self.nvars - 1, b) for b in buckets]

    def coeff_in_var(self, var, j):
        """Single coefficient of x_var^j, in the remaining variables."""
        out = {}
        for e, c in self.terms.items():
            if e[var] == j:
                out[e[:var] + e[var + 1:]] = c
        return MultiPoly(self.field, self.nvars - 1, out)

    def insert_var(self, pos):
        """Embed into one more variable with exponent 0 at ``pos``."""
        out = {e[:pos] + (0,) + e[pos:]: c for e, c in self.terms.items()}
        return MultiPoly(self.field, self.nvars + 1, out)

    def rename_vars(self, nvars, mapping):
        """Place variable i at position mapping[i] in a wider ring."""
        if len(mapping) != self.nvars:
            raise ArityMismatch("mapping has wrong length")
        out = {}
        F = self.field
        for e, c in self.terms.items():
            ne = [0] * nvars
            for i, ei in enumerate(e):
                ne[mapping[i]] += ei
            ne = tuple(ne)
            s = F.add(out.get(ne, 0), c)
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
        return MultiPoly(F, nvars, out)


# ---------------------------------------------------------------------------
# division, gcd, square-free structure
# ---------------------------------------------------------------------------

class _NotDivisible(Exception):
    pass


def exact_div(f, g):
    """Quotient f/g when g divides f exactly; raises otherwise.

    Single-divisor division under graded lex: if f is a multiple of g the
    leading term of every intermediate remainder stays divisible by the
    leading term of g, so the loop terminates with remainder zero.
    """
    f._require_compatible(g)
    if g.is_zero:
        raise ZeroPolynomial("division by the zero polynomial")
    F = f.field
    lt_g = g.lead_exp()
    lc_g_inv = F.inv(g.terms[lt_g])
    quot = {}
    rem = dict(f.terms)
    while rem:
        lt_r = max(rem, key=grlex_key)
        de = tuple(a - b for a, b in zip(lt_r, lt_g))
        if any(x < 0 for x in de):
            raise _NotDivisible
        qc = F.mul(rem[lt_r], lc_g_inv)
        quot[de] = qc
        for e, c in g.terms.items():
            ne = tuple(a + b for a, b in zip(de, e))
            s = F.sub(rem.get(ne, 0), F.mul(qc, c))
            if s:
                rem[ne] = s
            else:
                rem.pop(ne, None)
    return MultiPoly(F, f.nvars, quot)


def try_div(f, g):
    """exact_div, returning None when g does not divide f."""
    try:
        return exact_div(f, g)
    except _NotDivisible:
        return None


def divides(g, f):
    return try_div(f, g) is not None


def _uni_from_multi(f):
    n = f.degree_in(0)
    coeffs = [0] * (n + 1)
    for e, c in f.terms.items():
        coeffs[e[0]] = c
    return coeffs


def _multi_from_uni(field, coeffs):
    return MultiPoly(field, 1, {(i,): c for i, c in enumerate(coeffs) if c})


def _uni_gcd_lists(a, b, F):
    a, b = list(a), list(b)
    while b:
        # a mod b
        inv = F.inv(b[-1])
        da, db = len(a) - 1, len(b) - 1
        while da >= db and a:
            c = F.mul(a[-1], inv)
            shift = da - db
            for j, bj in enumerate(b):
                if bj:
                    a[shift + j] = F.sub(a[shift + j], F.mul(c, bj))
            while a and a[-1] == 0:
                a.pop()
            da = len(a) - 1
        a, b = b, a
    if a:
        inv = F.inv(a[-1])
        a = [F.mul(c, inv) for c in a]
    return a


def _pseudo_rem(f, g, var=0):
    """Pseudo-remainder of f by g, both viewed as univariate in ``var``."""
    F = f.field
    db = g.degree_in(var)
    lc_g = g.coeff_in_var(var, db).insert_var(var)
    r = f
    while not r.is_zero and r.degree_in(var) >= db:
        dr = r.degree_in(var)
        lc_r = r.coeff_in_var(var, dr).insert_var(var)
        shift = [0] * f.nvars
        shift[var] = dr - db
        r = (r * lc_g) - (g * lc_r).shift_mul(tuple(shift), 1)
    return r


def _content_pp(f, var=0):
    """Content (gcd of coefficient polynomials) and primitive part."""
    parts = [h for h in f.expand_in_var(var) if not h.is_zero]
    cont = parts[0]
    for h in parts[1:]:
        if cont.is_constant:
            break
        cont = multivar_gcd(cont, h)
    cont = cont.monic()
    pp = exact_div(f, cont.insert_var(var))
    return cont, pp


def multivar_gcd(f, g):
    """Monic gcd via recursive content/primitive-part reduction.

    Views both inputs as univariate in the first variable with
    coefficients in the remaining ones, runs a primitive pseudo-remainder
    sequence there, and recurses on the contents.  The base case is a
    dense univariate Euclid.  gcd(0, 0) = 0; results are normalized to
    leading coefficient 1 under graded lex.
    """
    f._require_compatible(g)
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    F = f.field
    if f.is_constant or g.is_constant:
        return MultiPoly.constant(F, f.nvars, 1)
    if f.nvars == 1:
        got = _uni_gcd_lists(_uni_from_multi(f), _uni_from_multi(g), F)
        return _multi_from_uni(F, got)
    if f.degree_in(0) == 0 and g.degree_in(0) == 0:
        # neither involves x_0: recurse directly one variable down
        sub = multivar_gcd(f.coeff_in_var(0, 0), g.coeff_in_var(0, 0))
        return sub.insert_var(0).monic()
    cf, pf = _content_pp(f)
    cg, pg = _content_pp(g)
    cont = multivar_gcd(cf, cg)
    a, b = pf, pg
    if a.degree_in(0) < b.degree_in(0):
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b)
        if r.is_zero:
            a, b = b, r
        elif r.degree_in(0) == 0:
            # coprime as univariate polynomials in x_0
            a, b = MultiPoly.constant(F, f.nvars, 1), MultiPoly.zero(F, f.nvars)
        else:
            _, rp = _content_pp(r)
            a, b = b, rp
    if not a.is_constant:
        _, a = _content_pp(a)
    return (a * cont.insert_var(0)).monic()


def _pth_root(f):
    """Inverse of the Frobenius endomorphism on polynomials.

    Valid when every exponent is divisible by p; coefficients map
    through the inverse Frobenius of the field.
    """
    F = f.field
    p = F.p
    out = {}
    for e, c in f.terms.items():
        if any(x % p for x in e):
            raise ValueError("exponent not divisible by the characteristic")
        out[tuple(x // p for x in e)] = F.inv_frobenius(c)
    return MultiPoly(F, f.nvars, out)


def _sqf_multiplicities(f):
    """Map multiplicity -> monic square-free factor, nonconstant only.

    Standard characteristic-p decomposition: strip the gcd with all
    partial derivatives, peel multiplicities coprime to p one at a time,
    and recurse through a p-th root on the part whose multiplicities are
    divisible by p.
    """
    F = f.field
    p = F.p
    if f.is_constant:
        return {}
    if all(all(x % p == 0 for x in e) for e in f.terms):
        return {m * p: s for m, s in _sqf_multiplicities(_pth_root(f)).items()}
    g = f
    for i in range(f.nvars):
        d = f.derivative(i)
        if not d.is_zero:
            g = multivar_gcd(g, d)
            if g.is_constant:
                break
    if g.is_constant:
        return {1: f.monic()}
    w = exact_div(f, g)
    out = {}
    i = 1
    while not w.is_constant:
        y = multivar_gcd(w, g)
        z = exact_div(w, y)
        if not z.is_constant:
            out[i] = z.monic()
        g = exact_div(g, y)
        w = y
        i += 1
    if not g.is_constant:
        for m, s in _sqf_multiplicities(_pth_root(g)).items():
            out[m * p] = s
    return out


def squarefree_decomposition(f):
    """Write f = c * prod(s_i ** i) with monic pairwise-coprime square-free s_i.

    Returns (c, {i: s_i}) with only nonconstant s_i recorded.
    """
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no square-free decomposition")
    parts = _sqf_multiplicities(f)
    total = MultiPoly.constant(f.field, f.nvars, 1)
    for m, s in parts.items():
        total = total * s.pow(m)
    c = exact_div(f, total)
    if not c.is_constant:
        raise ArithmeticError("square-free decomposition failed to verify")
    return c.constant_value(), parts


def squarefree_part(f):
    """Monic product of the distinct irreducible factors of f."""
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no square-free part")
    parts = _sqf_multiplicities(f)
    out = MultiPoly.constant(f.field, f.nvars, 1)
    for s in sorted(parts.values(), key=lambda s: grlex_key(s.lead_exp())):
        out = out * s
    return out.monic()


def is_const_square(f):
    """True when f = c * h^2 for a constant c and polynomial h.

    Equivalent to every multiplicity in the square-free decomposition
    being even; nonzero constants qualify with h = 1.
    """
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial")
    return all(m % 2 == 0 for m in _sqf_multiplicities(f))


def zero_count(f):
    """Number of points of F^nvars where f vanishes, by full enumeration."""
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial vanishes everywhere")
    return int((f.eval_grid() == 0).sum())


def schwartz_zippel_bound(f):
    """d * q^(k-1), an upper bound for zero_count of a nonzero f."""
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial")
    return f.total_degree * f.field.q ** (f.nvars - 1)


# ---------------------------------------------------------------------------
# dense univariate layer
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial; coefficient list runs low to high."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [c])

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_constant(self):
        return len(self.coeffs) <= 1

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return "UniPoly(%r)" % (list(self.coeffs),)

    def __add__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return UniPoly(F, out)

    def __neg__(self):
        F = self.field
        return UniPoly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        if self.is_zero or other.is_zero:
            return UniPoly.zero(F)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = F.add(out[i + j], F.mul(a, b))
        return UniPoly(F, out)

    def scale(self, c):
        F = self.field
        if c == 0:
            return UniPoly.zero(F)
        return UniPoly(F, [F.mul(v, c) for v in self.coeffs])

    def monic(self):
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def eval(self, x):
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def eval_arr(self, xs):
        import numpy as np
        F = self.field
        acc = np.zeros(np.shape(xs), dtype=np.int64)
        for c in reversed(self.coeffs):
            acc = F.add_arr(F.mul_arr(acc, xs), np.int64(c))
        return acc

    def derivative(self):
        F = self.field
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            out.append(F.mul(c, F.from_int(i)))
        return UniPoly(F, out)

    def divmod(self, other):
        if other.is_zero:
            raise ZeroPolynomial("division by zero polynomial")
        F = self.field
        inv = F.inv(other.coeffs[-1])
        db = other.degree
        rem = list(self.coeffs)
        quot = [0] * max(0, len(rem) - db)
        while len(rem) - 1 >= db and rem:
            c = F.mul(rem[-1], inv)
            shift = len(rem) - 1 - db
            quot[shift] = c
            for j, bj in enumerate(other.coeffs):
                if bj:
                    rem[shift + j] = F.sub(rem[shift + j], F.mul(c, bj))
            while rem and rem[-1] == 0:
                rem.pop()
        return UniPoly(F, quot), UniPoly(F, rem)

    def to_multi(self):
        return _multi_from_uni(self.field, self.coeffs)

    @classmethod
    def from_multi(cls, f):
        if f.nvars != 1:
            raise ArityMismatch("expected a univariate polynomial")
        return cls(f.field, _uni_from_multi(f))


def uni_gcd(a, b):
    got = _uni_gcd_lists(list(a.coeffs), list(b.coeffs), a.field)
    return UniPoly(a.field, got)


def _uni_pth_root(f):
    F = f.field
    p = F.p
    out = [0] * (f.degree // p + 1)
    for i, c in enumerate(f.coeffs):
        if c:
            if i % p:
                raise ValueError("exponent not divisible by the characteristic")
            out[i // p] = F.inv_frobenius(c)
    return UniPoly(F, out)


def _uni_sqf_multiplicities(f):
    F = f.field
    p = F.p
    if f.is_constant:
        return {}
    if all(c == 0 or i % p == 0 for i, c in enumerate(f.coeffs)):
        return {m * p: s for m, s in _uni_sqf_multiplicities(_uni_pth_root(f)).items()}
    g = uni_gcd(f, f.derivative())
    if g.is_constant:
        return {1: f.monic()}
    w = f.divmod(g)[0]
    out = {}
    i = 1
    while not w.is_constant:
        y = uni_gcd(w, g)
        z = w.divmod(y)[0]
        if not z.is_constant:
            out[i] = z.monic()
        g = g.divmod(y)[0]
        w = y
        i += 1
    if not g.is_constant:
        for m, s in _uni_sqf_multiplicities(_uni_pth_root(g)).items():
            out[m * p] = s
    return out


def uni_squarefree_decomposition(f):
    """Univariate analogue of :func:`squarefree_decomposition`."""
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no square-free decomposition")
    parts = _uni_sqf_multiplicities(f)
    total = UniPoly.constant(f.field, 1)
    for m, s in parts.items():
        for _ in range(m):
            total = total * s
    q, r = f.divmod(total)
    if not (r.is_zero and q.is_constant):
        raise ArithmeticError("square-free decomposition failed to verify")
    return q.coeffs[0], parts


def uni_squarefree_part(f):
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no square-free part")
    out = UniPoly.constant(f.field, 1)
    for s in sorted(_uni_sqf_multiplicities(f).values(), key=lambda s: s.coeffs):
        out = out * s
    return out.monic()


def univar_is_const_square(f):
    """True when f = c * h(x)^2; nonzero constants qualify."""
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial")
    if f.is_constant:
        return True
    if f.degree % 2:
        return False
    return all(m % 2 == 0 for m in _uni_sqf_multiplicities(f))
