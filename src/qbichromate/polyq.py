"""Exact multivariate Laurent polynomials over the rationals.

A polynomial is stored as a mapping from integer exponent tuples to nonzero
coefficients, together with the tuple of variable names the exponents
refer to.  A coefficient is held as the exact number Python's arithmetic
gives: an int when it is integral, a Fraction otherwise.  The
representation is kept canonical at all times:

  * zero coefficients are pruned, integral ones are ints,
  * variables whose exponent is zero in every term are dropped,
  * variable names are sorted, and exponent tuples follow that order.

Canonical form makes structural equality coincide with mathematical
equality, so polynomials can be compared with ``==`` and used as dict keys.

The public constructor ``LaurentPoly(variables, terms)`` validates what it
is given (key lengths, coefficient types) and sorts the variable names.
Arithmetic on polynomials that are already canonical yields sorted names
and keys of the right length, so sums, products and negations skip those
checks: they build their results through one canonicalising step,
``_prune``, which the constructor also uses.  It removes zero
coefficients, turns integral Fractions into ints and drops the variables
no term uses (t * t^-1 = 1).

The module also provides the Gaussian binomial ``qbinom`` in q, plus a
check of the q-binomial theorem used by the self-test suite.  Every q-product in the package is built from factors (1 - x^a)
on dense int rows (row[i] the coefficient of x^i) by two private passes:
``_times_one_minus`` multiplies by 1 - x^a, and ``_divide_one_minus``
divides by it exactly.
"""

from fractions import Fraction
from operator import add


def _exact(value):
    """The coefficient as an int when it is integral, else as a Fraction."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError("coefficient must be an int or Fraction, got %r" % (value,))


def _prune(variables, terms):
    """(variables, terms) without zero coefficients, with integral
    Fractions as ints, and without the variables no term uses.

    Every key of terms must be a tuple with one exponent per variable and
    every coefficient an int or a Fraction; the order of variables is kept.
    """
    clean = {exps: coeff for exps, coeff in terms.items() if coeff}
    if Fraction in map(type, clean.values()):
        clean = {exps: coeff.numerator if coeff.denominator == 1 else coeff
                 for exps, coeff in clean.items()}
    if not clean:
        return (), clean
    if False in map(any, zip(*clean)):
        keep = [i for i, column in enumerate(zip(*clean)) if any(column)]
        variables = tuple(variables[i] for i in keep)
        clean = {tuple(exps[i] for i in keep): c for exps, c in clean.items()}
    return variables, clean


def _result(variables, terms):
    """The LaurentPoly of an arithmetic result over sorted variables.

    Inputs that are already canonical give sorted names and keys of the
    right length, so only _prune is needed, not the constructor's checks.
    """
    poly = object.__new__(LaurentPoly)
    variables, terms = _prune(variables, terms)
    _set_variables(poly, variables)
    _set_terms(poly, terms)
    _set_hash(poly, None)
    return poly


class LaurentPoly:
    """An immutable Laurent polynomial with rational coefficients.

    Integral coefficients are stored as int (never bool), the others as
    Fraction; an int and the equal Fraction compare and hash alike.

    >>> q = LaurentPoly.variable("q")
    >>> (q + 1) * (q - 1)
    LaurentPoly('-1 + q^2')
    >>> q ** -2
    LaurentPoly('q^-2')
    >>> (2 * q + q) * Fraction(1, 3)
    LaurentPoly('q')
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        if terms is None:
            terms = {}
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError("exponent tuple %r does not match variables %r"
                                 % (exps, variables))
            clean[exps] = _exact(coeff)
        variables, clean = _prune(variables, clean)
        # Sort variables by name and permute exponents to match.
        order = sorted(range(len(variables)), key=lambda i: variables[i])
        if order != list(range(len(variables))):
            variables = tuple(variables[i] for i in order)
            clean = {tuple(exps[i] for i in order): c for exps, c in clean.items()}
        _set_variables(self, variables)
        _set_terms(self, clean)
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # ---------------------------------------------------------------- constructors

    @classmethod
    def constant(cls, value):
        return cls((), {(): value})

    @classmethod
    def variable(cls, name):
        return cls((name,), {(1,): 1})

    @classmethod
    def from_powers(cls, name, powers):
        """The univariate polynomial with coefficient powers[e] at name^e.

        >>> LaurentPoly.from_powers("t", {-1: 2, 3: Fraction(1, 2)})
        LaurentPoly('2*t^-1 + 1/2*t^3')
        """
        return cls((name,), {(e,): c for e, c in powers.items()})

    # ---------------------------------------------------------------- predicates

    def is_monomial(self):
        return len(self.terms) == 1

    # ---------------------------------------------------------------- arithmetic

    def _aligned(self, other):
        """Return (variables, self terms, other terms) over a merged variable set."""
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        # A constant's only key is (); it becomes the all-zero key.
        if not other.variables:
            zero = (0,) * len(self.variables)
            return self.variables, self.terms, {zero: c for c in other.terms.values()}
        if not self.variables:
            zero = (0,) * len(other.variables)
            return other.variables, {zero: c for c in self.terms.values()}, other.terms
        merged = tuple(sorted(set(self.variables) | set(other.variables)))

        def lift(poly):
            pos = {name: merged.index(name) for name in poly.variables}
            out = {}
            for exps, coeff in poly.terms.items():
                full = [0] * len(merged)
                for i, e in enumerate(exps):
                    full[pos[poly.variables[i]]] = e
                out[tuple(full)] = coeff
            return out

        return merged, lift(self), lift(other)

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        variables, a, b = self._aligned(other)
        terms = dict(a)
        get = terms.get
        for exps, coeff in b.items():
            terms[exps] = get(exps, 0) + coeff
        return _result(variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return _result(self.variables,
                       {exps: -coeff for exps, coeff in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        variables, a, b = self._aligned(other)
        terms = {}
        get = terms.get
        if len(variables) == 1:
            # One variable: add the exponents as plain ints.
            b = [(e2, c2) for (e2,), c2 in b.items()]
            for (e1,), c1 in a.items():
                for e2, c2 in b:
                    e = (e1 + e2,)
                    terms[e] = get(e, 0) + c1 * c2
        else:
            b = b.items()
            for e1, c1 in a.items():
                for e2, c2 in b:
                    e = tuple(map(add, e1, e2))
                    terms[e] = get(e, 0) + c1 * c2
        return _result(variables, terms)

    __rmul__ = __mul__

    def __pow__(self, power):
        if not isinstance(power, int):
            return NotImplemented
        if power == 0:
            return LaurentPoly.constant(1)
        if power < 0:
            if not self.is_monomial():
                raise ValueError("negative powers are only defined for monomials")
            ((exps, coeff),) = self.terms.items()
            inv = _result(self.variables,
                          {tuple(-e for e in exps): Fraction(1) / coeff})
            return inv ** (-power)
        out = None
        base = self
        n = power
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    # ---------------------------------------------------------------- comparison

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            _set_hash(self, hash((self.variables, frozenset(self.terms.items()))))
        return self._hash

    # ---------------------------------------------------------------- printing

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda exps: (sum(exps), exps))
        parts = []
        for exps in keys:
            coeff = self.terms[exps]
            factors = [name if e == 1 else "%s^%d" % (name, e)
                       for name, e in zip(self.variables, exps) if e]
            if coeff != 1 or not factors:
                factors.insert(0, str(coeff))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "LaurentPoly(%r)" % str(self)


# The slots' own setters, which LaurentPoly.__setattr__ does not block.
_set_variables = LaurentPoly.variables.__set__
_set_terms = LaurentPoly.terms.__set__
_set_hash = LaurentPoly._hash.__set__


def _times_one_minus(row, a):
    """The dense int row times 1 - x^a, a >= 0: one shift-and-subtract pass."""
    out = row + [0] * a
    for i, c in enumerate(row, a):
        out[i] -= c
    return out


def _divide_one_minus(row, a):
    """The dense int row divided by 1 - x^a, for a >= 1: one running-sum
    pass.  Raises ValueError when the division leaves a remainder."""
    # quotient[i] = row[i] + quotient[i - a]
    out = list(row)
    for i in range(a, len(out)):
        out[i] += out[i - a]
    # the quotient has a fewer entries; the last a running sums are what
    # is left over
    cut = max(len(out) - a, 0)
    if a < 1 or any(out[cut:]):
        raise ValueError("the row is not a multiple of 1 - x^%d" % a)
    return out[:cut]


def qbinom(m, n):
    """The Gaussian binomial coefficient [m choose n] in q.

    Computed by the product of (1 - x^(m-k+i)) / (1 - x^i) over
    i = 1..k, k = min(n, m - n), each partial product being
    [m-k+i choose i], so each division is exact.

    >>> str(qbinom(4, 2))
    '1 + q + 2*q^2 + q^3 + q^4'
    """
    if n < 0 or m < 0:
        raise ValueError("qbinom needs m, n >= 0")
    if n > m:
        raise ValueError("qbinom needs n <= m, got m=%d n=%d" % (m, n))
    k = min(n, m - n)
    row = [1]
    for i in range(1, k + 1):
        row = _divide_one_minus(_times_one_minus(row, m - k + i), i)
    return _result(("q",), {(e,): c for e, c in enumerate(row)})


def qbinomial_theorem_check(n):
    """Verify the Gaussian binomial theorem at a given n.

    Expands prod_{i=0}^{n-1} (a - q^i z) and compares it with
    sum_i (-1)^i [n choose i]_q q^(i(i-1)/2) a^(n-i) z^i.
    Returns True on success, raises AssertionError otherwise.
    """
    a = LaurentPoly.variable("a")
    z = LaurentPoly.variable("z")
    q = LaurentPoly.variable("q")
    lhs = LaurentPoly.constant(1)
    for i in range(n):
        lhs = lhs * (a - q ** i * z)
    rhs = LaurentPoly()
    for i in range(n + 1):
        sign = -1 if i % 2 else 1
        rhs = rhs + (sign * qbinom(n, i) * q ** (i * (i - 1) // 2)
                     * a ** (n - i) * z ** i)
    assert lhs == rhs, "q-binomial theorem failed at n=%d" % n
    return True
