"""Arithmetic in odd-characteristic finite fields F_q, q = p^n.

Elements are integer handles in [0, q).  The element with coefficient
vector (c_0, ..., c_{n-1}), meaning c_0 + c_1*g + ... + c_{n-1}*g^(n-1)
for g the residue class of x modulo the defining polynomial, gets the
handle c_0 + c_1*p + ... + c_{n-1}*p^(n-1).  For prime fields the handle
is simply the residue.  Handles keep the counting kernels plain integer
and numpy work; ``coeffs``/``element`` convert to and from vectors.
The field imports numpy on its first array operation, not on construction.

Extension-field multiplication goes through discrete log/antilog tables
(O(q) memory) built from a primitive element; addition is digitwise
mod p.  The quadratic character is tabulated once per field by squaring
every nonzero element, so exactly (q-1)/2 handles map to +1.
"""

from __future__ import annotations

import itertools

from .errors import (
    DegreeMismatch,
    FieldMismatch,
    NotOddPrime,
    ParseError,
    ReducibleModulus,
)


def _is_prime(v):
    if v < 2:
        return False
    if v % 2 == 0:
        return v == 2
    d = 3
    while d * d <= v:
        if v % d == 0:
            return False
        d += 2
    return True


def _prime_factors(v):
    """Distinct prime factors of v by trial division."""
    out = []
    d = 2
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            while v % d == 0:
                v //= d
        d += 1 if d == 2 else 2
    if v > 1:
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# dense univariate arithmetic over Z/p, used only for modulus handling
# ---------------------------------------------------------------------------

def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmod(a, m, p):
    a = list(a)
    inv_lead = pow(m[-1], p - 2, p)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for j, mj in enumerate(m):
            a[shift + j] = (a[shift + j] - c * mj) % p
        _trim(a)
    return a


def _pmulmod(a, b, m, p):
    return _pmod(_pmul(a, b, p), m, p)


def _ppowmod(a, e, m, p):
    result = [1]
    base = _pmod(a, m, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, m, p)
        base = _pmulmod(base, base, m, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(mod, p):
    """Degree-n modulus has no factor of degree <= n/2.

    Checks gcd(m, x^(p^i) - x) for i = 1..n//2; every irreducible of
    degree i divides x^(p^i) - x, so a trivial gcd at each level rules
    out all proper factors.
    """
    n = len(mod) - 1
    t = [0, 1]
    for _ in range(n // 2):
        t = _ppowmod(t, p, mod, p)
        probe = list(t)
        while len(probe) < 2:
            probe.append(0)
        probe[1] = (probe[1] - 1) % p
        if len(_pgcd(mod, _trim(probe), p)) != 1:
            return False
    return True


def _least_irreducible(p, n):
    """First monic irreducible of degree n, scanning lower coefficients
    as a base-p counter with the constant term least significant."""
    for c in range(p ** n):
        low = []
        v = c
        for _ in range(n):
            low.append(v % p)
            v //= p
        mod = low + [1]
        if _is_irreducible(mod, p):
            return tuple(mod)
    raise ReducibleModulus("no irreducible of degree %d over F_%d" % (n, p))


class Field:
    """A finite field F_{p^n} with odd p, elements as integer handles."""

    def __init__(self, p, n=1, modulus=None):
        if not isinstance(p, int) or not _is_prime(p) or p == 2:
            raise NotOddPrime("characteristic must be an odd prime, got %r" % (p,))
        if not isinstance(n, int) or n < 1:
            raise DegreeMismatch("extension degree must be a positive integer")
        self.p = p
        self.n = n
        self.q = p ** n
        if n == 1:
            if modulus is not None and tuple(modulus) != (0, 1):
                raise DegreeMismatch("prime fields use the placeholder modulus x")
            self.modulus = (0, 1)
        else:
            if modulus is None:
                self.modulus = _least_irreducible(p, n)
            else:
                mod = tuple(int(c) % p for c in modulus)
                if len(mod) != n + 1 or mod[-1] != 1:
                    raise DegreeMismatch(
                        "modulus must be monic of degree %d, coefficients low to high" % n)
                if not _is_irreducible(list(mod), p):
                    raise ReducibleModulus("modulus %r is reducible over F_%d" % (mod, p))
                self.modulus = mod
        self.zero = 0
        self.one = 1
        # residue class of x; only meaningful for extension fields
        self.gen = p if n > 1 else None
        self._exp = None
        self._log = None
        self._exp_np = None
        self._log_np = None
        self._chi = None
        self._chi_tilde = None
        if n > 1:
            self._build_log_tables()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_spec(cls, text):
        """Parse "p", "p^n" or "p^n:c0,c1,...,1" (coefficients low to high)."""
        text = text.strip()
        body, _, modpart = text.partition(":")
        try:
            if "^" in body:
                ps, ns = body.split("^")
                p, n = int(ps), int(ns)
            else:
                p, n = int(body), 1
        except ValueError:
            raise ParseError("bad field spec %r" % text) from None
        modulus = None
        if modpart:
            try:
                modulus = tuple(int(c) for c in modpart.split(","))
            except ValueError:
                raise ParseError("bad modulus in field spec %r" % text) from None
        return cls(p, n, modulus)

    def spec_string(self):
        """Canonical spec text; always includes the modulus for n > 1."""
        if self.n == 1:
            return str(self.p)
        return "%d^%d:%s" % (self.p, self.n, ",".join(str(c) for c in self.modulus))

    @classmethod
    def from_order(cls, q):
        """Field of the given odd prime-power order, default modulus."""
        if q < 3:
            raise NotOddPrime("order must be an odd prime power, got %r" % (q,))
        p = q
        for c in range(3, q + 1, 2):
            if c * c > q:
                break
            if q % c == 0:
                p = c
                break
        n, m = 0, q
        while m % p == 0:
            m //= p
            n += 1
        if m != 1:
            raise NotOddPrime("order %d is not a prime power" % q)
        return cls(p, n)

    def __repr__(self):
        return "GF(%d)" % self.q

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    # -- handle/vector conversions -------------------------------------------

    def is_element(self, x):
        return isinstance(x, int) and 0 <= x < self.q

    def check(self, x):
        if not self.is_element(x):
            raise FieldMismatch("%r is not an element handle of %r" % (x, self))
        return x

    def coeffs(self, x):
        """Coefficient vector (c_0, ..., c_{n-1}) of a handle."""
        self.check(x)
        out = []
        for _ in range(self.n):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def element(self, coeffs):
        """Handle of the element with the given coefficient vector."""
        coeffs = tuple(coeffs)
        if len(coeffs) != self.n:
            raise DegreeMismatch("expected %d coefficients, got %d" % (self.n, len(coeffs)))
        h = 0
        for i, c in enumerate(coeffs):
            if not 0 <= c < self.p:
                raise FieldMismatch("coefficient %r out of range [0, %d)" % (c, self.p))
            h += c * self.p ** i
        return h

    def from_int(self, v):
        """Image of an integer in the prime subfield."""
        return v % self.p

    def elements(self):
        """All handles, coefficient vectors in lexicographic order; first is 0."""
        if self.n == 1:
            return list(range(self.p))
        out = []
        for vec in itertools.product(range(self.p), repeat=self.n):
            out.append(sum(c * self.p ** i for i, c in enumerate(vec)))
        return out

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a, b):
        if self.n == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a):
        if self.n == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mult = 1
        while a:
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.n == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in %r" % self)
        if self.n == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self.n == 1:
            return pow(a, e, self.p)
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def inv_frobenius(self, a):
        """The unique b with b^p = a (Frobenius is a bijection)."""
        return self.pow(a, self.p ** (self.n - 1))

    # -- vectorized arithmetic on int64 numpy arrays of handles ---------------

    def add_arr(self, a, b):
        if self.n == 1:
            return (a + b) % self.p
        import numpy as np
        p = self.p
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        mult = 1
        for _ in range(self.n):
            out += ((a + b) % p) * mult
            a = a // p
            b = b // p
            mult *= p
        return out

    def neg_arr(self, a):
        if self.n == 1:
            return (-a) % self.p
        import numpy as np
        p = self.p
        out = np.zeros(np.shape(a), dtype=np.int64)
        mult = 1
        for _ in range(self.n):
            out += ((-a) % p) * mult
            a = a // p
            mult *= p
        return out

    def mul_arr(self, a, b):
        if self.n == 1:
            return (a * b) % self.p
        import numpy as np
        exp, log = self._log_tables_np()
        res = exp[(log[a] + log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, res)

    def pow_arr(self, a, e):
        """Elementwise a**e for a scalar exponent e >= 0."""
        import numpy as np
        if e == 0:
            return np.ones(np.shape(a), dtype=np.int64)
        if self.n == 1:
            out = np.ones(np.shape(a), dtype=np.int64)
            base = np.asarray(a % self.p, dtype=np.int64)
            k = e
            while k:
                if k & 1:
                    out = (out * base) % self.p
                base = (base * base) % self.p
                k >>= 1
            return out
        exp, log = self._log_tables_np()
        res = exp[(log[a] * e) % (self.q - 1)]
        return np.where(np.asarray(a) == 0, 0, res)

    # -- quadratic character ---------------------------------------------------

    def _char_tables(self):
        if self._chi is None:
            import numpy as np
            chi = np.full(self.q, -1, dtype=np.int8)
            chi[0] = 0
            ys = np.arange(1, self.q, dtype=np.int64)
            squares = self.mul_arr(ys, ys)
            chi[np.unique(squares)] = 1
            tilde = chi.copy()
            tilde[0] = 1
            self._chi = chi
            self._chi_tilde = tilde
        return self._chi, self._chi_tilde

    def chi_array(self, variant="strict"):
        """Character table indexed by handle; treat as read-only."""
        chi, tilde = self._char_tables()
        if variant == "strict":
            return chi
        if variant == "tilde":
            return tilde
        raise ValueError("variant must be 'strict' or 'tilde'")

    def quad_char(self, x, variant="strict"):
        """chi(x) in {-1, 0, +1}; the tilde variant sends 0 to +1."""
        self.check(x)
        return int(self.chi_array(variant)[x])

    def is_square(self, x):
        """True for 0 and for the (q-1)/2 nonzero squares."""
        self.check(x)
        return int(self._char_tables()[0][x]) >= 0

    # -- extension-field internals ----------------------------------------------

    def _mul_vec(self, av, bv):
        """Schoolbook product of coefficient vectors, reduced mod the modulus."""
        p, n = self.p, self.n
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(av):
            if ai:
                for j, bj in enumerate(bv):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                # x^i = x^(i-n) * (x^n mod m), with x^n mod m = -m[:n]
                for j in range(n):
                    if self.modulus[j]:
                        prod[i - n + j] = (prod[i - n + j] - c * self.modulus[j]) % p
        return prod[:n]

    def _handle_mul_slow(self, a, b):
        av = [(a // self.p ** i) % self.p for i in range(self.n)]
        bv = [(b // self.p ** i) % self.p for i in range(self.n)]
        cv = self._mul_vec(av, bv)
        return sum(c * self.p ** i for i, c in enumerate(cv))

    def _build_log_tables(self):
        q = self.q
        factors = _prime_factors(q - 1)

        def order_ok(h):
            for r in factors:
                e = (q - 1) // r
                acc, base = 1, h
                while e:
                    if e & 1:
                        acc = self._handle_mul_slow(acc, base)
                    base = self._handle_mul_slow(base, base)
                    e >>= 1
                if acc == 1:
                    return False
            return True

        prim = None
        for h in range(2, q):
            if order_ok(h):
                prim = h
                break
        exp = [0] * (q - 1)
        log = [0] * q
        cur = 1
        for i in range(q - 1):
            exp[i] = cur
            log[cur] = i
            cur = self._handle_mul_slow(cur, prim)
        self._exp = exp
        self._log = log

    def _log_tables_np(self):
        """(exp, log) as int64 arrays, built on the first array operation."""
        if self._exp_np is None:
            import numpy as np
            self._log_np = np.asarray(self._log, dtype=np.int64)
            # assigned last: a thread that sees it set also sees _log_np
            self._exp_np = np.asarray(self._exp, dtype=np.int64)
        return self._exp_np, self._log_np
