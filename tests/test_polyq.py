"""Laurent polynomial arithmetic and quantum integers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbichromate.polyq import (LaurentPoly, qbinom, qbinomial_theorem_check,
                               qint)


def poly_strategy():
    # ints, integral Fractions and non-integral Fractions
    coeff = st.one_of(st.integers(-4, 4),
                      st.fractions(-4, 4, max_denominator=4))
    exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    terms = st.dictionaries(exps, coeff, max_size=4)
    return terms.map(lambda t: LaurentPoly(("x", "y"), t))


def exact(p):
    """p, after checking that integral coefficients are int (not bool)
    and the others Fraction."""
    for coeff in p.terms.values():
        assert type(coeff) in (int, Fraction)
        assert (type(coeff) is int) == (coeff.denominator == 1)
    return p


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


def test_coefficient_types():
    q = LaurentPoly.variable("q")
    half = exact((2 * q) ** -1)
    assert half == Fraction(1, 2) * q ** -1
    assert str(half) == "1/2*q^-1"
    assert exact(half * 4) == 2 * q ** -1
    one = exact(LaurentPoly.constant(True))
    assert one == LaurentPoly.constant(1)
    assert type(one.terms[()]) is int
    assert LaurentPoly.constant(Fraction(0)).is_zero()
    assert type(one.constant_value()) is Fraction
    assert type((q + 1).evaluate({"q": 2})) is Fraction
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
    assert p.substitute("q", LaurentPoly.constant(1)) == LaurentPoly.constant(4)
    assert p.substitute("q", q ** -1) == (q ** -1 + 1) ** 2
    assert p.evaluate({"q": Fraction(2)}) == Fraction(9)


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
    assert qbinom(6, 3).substitute("q", one) == LaurentPoly.constant(20)


def test_qbinom_pascal():
    q = LaurentPoly.variable("q")
    for m in range(1, 9):
        for j in range(m + 1):
            lhs = qbinom(m, j)
            rhs = qbinom(m - 1, j - 1) if j else LaurentPoly()
            if j < m:
                rhs = rhs + q ** j * qbinom(m - 1, j)
            assert lhs == rhs
            # the mirrored recursion
            rhs2 = qbinom(m - 1, j) if j < m else LaurentPoly()
            if j:
                rhs2 = rhs2 + q ** (m - j) * qbinom(m - 1, j - 1)
            assert lhs == rhs2


def test_qbinomial_theorem():
    for n in range(9):
        assert qbinomial_theorem_check(n)
