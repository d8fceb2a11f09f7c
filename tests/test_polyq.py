"""Laurent polynomial arithmetic and quantum integers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbichromate import polyq
from qbichromate.polyq import LaurentPoly, qbinom, qbinomial_theorem_check
from oracles import (constant_value, evaluate, poly_add_reference,
                     poly_mul_reference, qint, substitute)

# Constants, one variable (the product's own loop) and several variables;
# operands from different sets are aligned to merged names, which
# interleave ("t" among "q", "x", "y") or share some ("t", "x").
VARIABLE_SETS = ((), ("t",), ("a", "b"), ("q", "x", "y"), ("t", "x"))

# ints, integral Fractions and non-integral Fractions
COEFFS = st.one_of(st.integers(-4, 4), st.integers(-4, 4).map(Fraction),
                   st.fractions(-4, 4, max_denominator=4))


def _exponents(variables):
    return st.tuples(*[st.integers(-3, 3)] * len(variables))


def poly_strategy():
    def polys(variables):
        terms = st.dictionaries(_exponents(variables), COEFFS, max_size=4)
        return terms.map(lambda t: LaurentPoly(variables, t))
    return st.sampled_from(VARIABLE_SETS).flatmap(polys)


def monomial_strategy():
    def monomials(variables):
        coeff = COEFFS.filter(bool)
        return st.builds(lambda e, c: LaurentPoly(variables, {e: c}),
                         _exponents(variables), coeff)
    return st.sampled_from(VARIABLE_SETS).flatmap(monomials)


def exact(p):
    """p, after checking that integral coefficients are int (not bool)
    and the others Fraction."""
    for coeff in p.terms.values():
        assert type(coeff) in (int, Fraction)
        assert (type(coeff) is int) == (coeff.denominator == 1)
    return p


def canonical(p):
    """p, after checking that rebuilding it through the validating
    constructor changes nothing, hash included."""
    rebuilt = LaurentPoly(p.variables, p.terms)
    assert p.variables == rebuilt.variables
    assert p.terms == rebuilt.terms
    assert hash(p) == hash(rebuilt)
    return exact(p)


def reference_power(p, k):
    out = LaurentPoly.constant(1)
    for _ in range(k):
        out = poly_mul_reference(out, p)
    return out


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(a, b, c):
    exact(a)
    assert exact(a + b) == exact(b + a)
    assert exact(a * b) == exact(b * a)
    assert exact((a + b) + c) == exact(a + (b + c))
    assert exact((a * b) * c) == exact(a * (b * c))
    assert exact(a * (b + c)) == exact(a * b + a * c)
    assert exact(a + LaurentPoly()) == a
    assert exact(a * LaurentPoly.constant(1)) == a
    assert exact(a - a) == LaurentPoly()


@settings(max_examples=200, deadline=None)
@given(poly_strategy(), st.one_of(poly_strategy(), COEFFS), st.integers(0, 3))
def test_arithmetic_matches_constructor_reference(a, b, k):
    assert canonical(a + b) == poly_add_reference(a, b)
    assert canonical(b + a) == poly_add_reference(b, a)
    assert canonical(a * b) == poly_mul_reference(a, b)
    assert canonical(b * a) == poly_mul_reference(b, a)
    assert canonical(-a) == poly_mul_reference(a, -1)
    assert canonical(a - b) == poly_add_reference(a, poly_mul_reference(b, -1))
    assert canonical(b - a) == poly_add_reference(b, poly_mul_reference(a, -1))
    assert canonical(a ** k) == reference_power(a, k)
    zero = canonical(a - a)
    assert zero.variables == () and zero.terms == {}


@settings(max_examples=200, deadline=None)
@given(monomial_strategy(), poly_strategy(), st.integers(1, 3))
def test_cancellations_stay_canonical(m, p, k):
    ((exps, coeff),) = m.terms.items()
    inverse = LaurentPoly(m.variables,
                          {tuple(-e for e in exps): Fraction(1) / coeff})
    assert canonical(m ** -k) == reference_power(inverse, k)
    one = canonical(m * m ** -1)
    assert one.variables == () and one.terms == {(): 1}
    assert canonical(p * m * m ** -1) == p
    assert canonical((p + m) - m) == p
    assert canonical(p * coeff * (Fraction(1) / coeff)) == p


def test_cancellation_examples():
    t, x = LaurentPoly.variable("t"), LaurentPoly.variable("x")
    one = canonical(t * t ** -1)
    assert one.variables == () and type(one.terms[()]) is int
    assert canonical((t + x) - x).variables == ("t",)
    assert canonical((t * x + 1) - x * t).variables == ()
    assert canonical(x * Fraction(1, 2) * 2).terms == {(1,): 1}
    assert canonical(Fraction(3, 2) - (t + Fraction(1, 2)) + t) == 1


def test_coefficient_types():
    q = LaurentPoly.variable("q")
    half = exact((2 * q) ** -1)
    assert half == Fraction(1, 2) * q ** -1
    assert str(half) == "1/2*q^-1"
    assert exact(half * 4) == 2 * q ** -1
    one = exact(LaurentPoly.constant(True))
    assert one == LaurentPoly.constant(1)
    assert type(one.terms[()]) is int
    assert not LaurentPoly.constant(Fraction(0)).terms
    assert type(constant_value(one)) is Fraction
    assert type(evaluate(q + 1, {"q": 2})) is Fraction
    with pytest.raises(TypeError):
        LaurentPoly.constant(0.5)


def test_canonicalization():
    # zero coefficients pruned
    p = LaurentPoly(("x",), {(2,): Fraction(0), (1,): Fraction(3)})
    assert p.terms == {(1,): Fraction(3)}
    # unused variables dropped
    p = LaurentPoly(("x", "y"), {(2, 0): Fraction(1)})
    assert p.variables == ("x",)
    # variables sorted with exponents permuted
    p = LaurentPoly(("y", "x"), {(1, 2): Fraction(1)})
    q = LaurentPoly(("x", "y"), {(2, 1): Fraction(1)})
    assert p == q
    # equal content hashes equally
    assert hash(p) == hash(q)


def test_string_forms():
    q = LaurentPoly.variable("q")
    assert str(2 * q) == "2*q"
    assert str(q ** 2 - 1) == "-1 + q^2"
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly.constant(1)) == "1"
    t = LaurentPoly.variable("t")
    assert str(t ** -1 + t ** -3 - t ** -4) == "-1*t^-4 + t^-3 + t^-1"


def test_pow_and_substitute():
    q = LaurentPoly.variable("q")
    assert (q + 1) ** 0 == LaurentPoly.constant(1)
    assert q ** -3 * q ** 3 == LaurentPoly.constant(1)
    with pytest.raises(ValueError):
        (q + 1) ** -1
    p = (q + 1) ** 2
    assert substitute(p, "q", LaurentPoly.constant(1)) == LaurentPoly.constant(4)
    assert substitute(p, "q", q ** -1) == (q ** -1 + 1) ** 2
    # a monomial image in other variables, a rational, a zero
    x, y = LaurentPoly.variable("x"), LaurentPoly.variable("y")
    assert substitute(p * y, "q", -2 * x * y ** -1) == (1 - 2 * x * y ** -1) ** 2 * y
    assert substitute(q ** -1 + 3, "q", Fraction(1, 2)) == LaurentPoly.constant(5)
    assert substitute(p, "q", 0) == LaurentPoly.constant(1)
    assert substitute(p, "y", 5) is p
    with pytest.raises(ZeroDivisionError):
        substitute(q ** -1, "q", 0)
    with pytest.raises(ValueError):
        substitute(p, "q", q + 1)
    assert evaluate(p, {"q": Fraction(2)}) == Fraction(9)


def test_immutability():
    q = LaurentPoly.variable("q")
    with pytest.raises(AttributeError):
        q.terms = {}


def test_qint_values():
    q = LaurentPoly.variable("q")
    assert qint(0) == LaurentPoly()
    assert qint(1) == LaurentPoly.constant(1)
    assert qint(3) == 1 + q + q ** 2
    with pytest.raises(ValueError):
        qint(-1)
    # base as a monomial: quantum integer in q^-1
    qinv = q ** -1
    assert qint(3, qinv) == 1 + q ** -1 + q ** -2
    assert qint(2, q ** 2) == 1 + q ** 2


def test_qbinom_values():
    q = LaurentPoly.variable("q")
    assert qbinom(4, 2) == (1 + q + q ** 2) * (1 + q ** 2)
    assert qbinom(5, 0) == LaurentPoly.constant(1)
    assert qbinom(5, 5) == LaurentPoly.constant(1)
    with pytest.raises(ValueError):
        qbinom(3, 4)
    # symmetry
    for m in range(7):
        for j in range(m + 1):
            assert qbinom(m, j) == qbinom(m, m - j)
    # q = 1 gives binomial coefficients
    one = LaurentPoly.constant(1)
    assert substitute(qbinom(6, 3), "q", one) == LaurentPoly.constant(20)


def test_qbinom_pascal():
    # qbinom multiplies (1 - x^a) factors, so the symmetry and both
    # Pascal recursions check it against a construction it does not use
    table = {(m, j): qbinom(m, j) for m in range(21) for j in range(m + 1)}
    q = LaurentPoly.variable("q")
    for m in range(1, 21):
        for j in range(m + 1):
            lhs = table[m, j]
            assert lhs == table[m, m - j]
            rhs = table[m - 1, j - 1] if j else LaurentPoly()
            if j < m:
                rhs = rhs + q ** j * table[m - 1, j]
            assert lhs == rhs
            # the mirrored recursion
            rhs2 = table[m - 1, j] if j < m else LaurentPoly()
            if j:
                rhs2 = rhs2 + q ** (m - j) * table[m - 1, j - 1]
            assert lhs == rhs2


ROWS = st.lists(st.integers(-5, 5), max_size=8)


def row_poly(row):
    return LaurentPoly.from_powers("x", dict(enumerate(row)))


@settings(max_examples=200, deadline=None)
@given(ROWS, st.integers(0, 6))
def test_times_one_minus_is_the_product(row, a):
    product = polyq._times_one_minus(row, a)
    assert len(product) == len(row) + a
    factor = LaurentPoly.constant(1) - LaurentPoly.variable("x") ** a
    assert row_poly(product) == poly_mul_reference(row_poly(row), factor)


@settings(max_examples=200, deadline=None)
@given(ROWS, st.integers(1, 6))
def test_divide_one_minus_undoes_the_product(row, a):
    assert polyq._divide_one_minus(polyq._times_one_minus(row, a), a) == row


@settings(max_examples=200, deadline=None)
@given(ROWS, st.integers(1, 6), st.integers(0, 5), st.integers(1, 5))
def test_divide_one_minus_refuses_a_remainder(row, a, at, c):
    # a nonzero remainder of degree below a, added to a multiple of
    # 1 - x^a, is a row that is not one
    multiple = polyq._times_one_minus(row, a)
    multiple[at % a] += c
    with pytest.raises(ValueError):
        polyq._divide_one_minus(multiple, a)


def test_divide_one_minus_examples():
    assert polyq._divide_one_minus([1, 0, -1], 2) == [1]
    assert polyq._divide_one_minus([1, 1, -1, -1], 2) == [1, 1]
    assert polyq._divide_one_minus([], 3) == []
    for row, a in (([1], 1), ([1, 1], 1), ([1, 0, 1], 2), ([0, 0, 1], 1),
                   ([1, -1], 2)):
        with pytest.raises(ValueError):
            polyq._divide_one_minus(row, a)
    with pytest.raises(ValueError):
        polyq._divide_one_minus([1, -1], 0)


def test_qbinomial_theorem():
    for n in range(9):
        assert qbinomial_theorem_check(n)
