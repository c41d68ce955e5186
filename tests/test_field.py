import numpy as np
import pytest

from ffhyper.errors import NotOddPrime, ParseError, ReducibleModulus
from ffhyper.field import Field

SMALL_FIELDS = [Field(3), Field(5), Field(7), Field(3, 2), Field(5, 2)]


# ---------------------------------------------------------------------------
# Construction and moduli
# ---------------------------------------------------------------------------

def test_rejects_non_odd_prime_characteristic():
    for p in (1, 2, 4, 6, 9, 15):
        with pytest.raises(NotOddPrime):
            Field(p)


def test_rejects_reducible_modulus():
    # x^2 - 1 = (x-1)(x+1) over F_5
    with pytest.raises(ReducibleModulus):
        Field(5, 2, modulus=(4, 0, 1))


def test_default_moduli_are_smallest_in_counter_order():
    """The automatic modulus is the first monic irreducible in base-p order."""
    assert Field(3, 2).modulus == (1, 0, 1)      # x^2 + 1
    assert Field(5, 2).modulus == (2, 0, 1)      # x^2 + 2
    assert Field(7, 2).modulus == (1, 0, 1)      # x^2 + 1
    assert Field(3, 3).modulus == (1, 2, 0, 1)   # x^3 + 2x + 1


def test_from_order_factors_prime_powers():
    for q in (3, 5, 7, 9, 25, 27, 49):
        F = Field.from_order(q)
        assert F.q == q
    with pytest.raises(NotOddPrime):
        Field.from_order(15)
    with pytest.raises(NotOddPrime):
        Field.from_order(8)


def test_spec_string_round_trip():
    for F in SMALL_FIELDS:
        again = Field.from_spec(F.spec_string())
        assert again == F
    assert Field.from_spec("7").q == 7
    assert Field.from_spec("3^2").q == 9
    with pytest.raises(ParseError):
        Field.from_spec("seven")


# ---------------------------------------------------------------------------
# Field axioms, exhaustively on small fields
# ---------------------------------------------------------------------------

def test_additive_group_axioms():
    for F in SMALL_FIELDS:
        for a in F.elements():
            assert F.add(a, 0) == a
            assert F.add(a, F.neg(a)) == 0
            for b in F.elements():
                assert F.add(a, b) == F.add(b, a)


def test_multiplicative_group_axioms():
    for F in SMALL_FIELDS:
        for a in F.elements():
            assert F.mul(a, 1) == a
            assert F.mul(a, 0) == 0
            if a != 0:
                assert F.mul(a, F.inv(a)) == 1
            for b in F.elements():
                assert F.mul(a, b) == F.mul(b, a)


def test_distributivity_exhaustive_f9():
    F = Field(3, 2)
    for a in F.elements():
        for b in F.elements():
            for c in F.elements():
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_pow_agrees_with_repeated_multiplication():
    for F in SMALL_FIELDS:
        for a in F.elements():
            acc = 1
            for e in range(1, 6):
                acc = F.mul(acc, a)
                assert F.pow(a, e) == acc


def test_frobenius_inverse_is_pth_root():
    for F in (Field(3, 2), Field(5, 2), Field(3, 3)):
        for a in F.elements():
            assert F.pow(F.inv_frobenius(a), F.p) == a


def test_prime_subfield_embedding_matches_integer_arithmetic():
    """Handles below p behave like integers mod p in every field."""
    for F in SMALL_FIELDS:
        for a in range(F.p):
            for b in range(F.p):
                assert F.add(a, b) == (a + b) % F.p
                assert F.mul(a, b) == (a * b) % F.p


# ---------------------------------------------------------------------------
# Quadratic character and squares
# ---------------------------------------------------------------------------

def test_quad_char_counts():
    """chi is 0 once and +1/-1 each exactly (q-1)/2 times."""
    for F in SMALL_FIELDS:
        vals = [F.quad_char(a) for a in F.elements()]
        assert vals.count(0) == 1
        assert vals.count(1) == (F.q - 1) // 2
        assert vals.count(-1) == (F.q - 1) // 2


def test_quad_char_is_multiplicative():
    for F in SMALL_FIELDS:
        for a in F.elements():
            for b in F.elements():
                assert F.quad_char(F.mul(a, b)) == F.quad_char(a) * F.quad_char(b)


def test_is_square_matches_explicit_squares():
    for F in SMALL_FIELDS:
        squares = {F.mul(a, a) for a in F.elements()}
        for a in F.elements():
            assert F.is_square(a) == (a in squares)
        assert F.is_square(0)


def test_chi_variants_differ_only_at_zero():
    for F in SMALL_FIELDS:
        strict = F.chi_array("strict")
        tilde = F.chi_array("tilde")
        assert strict[0] == 0 and tilde[0] == 1
        assert (strict[1:] == tilde[1:]).all()


def test_squares_mod_7_pinned():
    F = Field(7)
    assert {a for a in F.elements() if F.is_square(a)} == {0, 1, 2, 4}


# ---------------------------------------------------------------------------
# Vectorized kernels agree with scalar arithmetic
# ---------------------------------------------------------------------------

def test_array_ops_match_scalar_ops():
    rng = np.random.default_rng(11)
    for F in SMALL_FIELDS:
        a = rng.integers(0, F.q, size=200)
        b = rng.integers(0, F.q, size=200)
        add = F.add_arr(a, b)
        mul = F.mul_arr(a, b)
        for i in range(200):
            assert add[i] == F.add(int(a[i]), int(b[i]))
            assert mul[i] == F.mul(int(a[i]), int(b[i]))


def test_pow_arr_matches_scalar_pow():
    for F in (Field(7), Field(3, 2)):
        xs = np.arange(F.q)
        for e in (0, 1, 2, 5):
            out = F.pow_arr(xs, e)
            for x in F.elements():
                assert out[x] == F.pow(x, e)


@pytest.mark.parametrize("q", [9, 25, 27])
def test_array_tables_built_on_first_use_match_scalar_ops(q):
    F = Field.from_order(q)
    assert F._exp_np is None
    xs = np.arange(q)
    mul = F.mul_arr(xs[:, None], xs[None, :])
    assert mul.tolist() == [[F.mul(a, b) for b in range(q)] for a in range(q)]
    for e in range(q):
        assert F.pow_arr(xs, e).tolist() == [F.pow(a, e) for a in range(q)]


def test_element_round_trip_through_coefficients():
    for F in (Field(3, 2), Field(5, 2), Field(3, 3)):
        for a in F.elements():
            assert F.element(F.coeffs(a)) == a
