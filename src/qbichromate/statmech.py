"""Potts and Ising partition functions with exact rational couplings.

Couplings never store exponentials.  The Potts form keeps v_e (the
expanded weight e^J - 1) as a rational; the Ising form keeps the
hyperbolic pair (c_e, h_e) = (cosh J_e, sinh J_e) as rationals satisfying
c^2 - h^2 = 1, so e^(+-J_e) = c_e +- h_e is exact.  Every identity in the
module is then a polynomial identity over the rationals.

The q-weighted sums attach q^(sum of spin values) to each state.  For the
k-state model the spin values run over 0..k-1 (see qpotts_pair); for the
Ising model they run over -1, +1.
"""

from fractions import Fraction
from math import lcm, prod

from .graphcore import ParseError, _content_lines, _numbers, _Record
from .polyq import LaurentPoly, _times_one_minus
from .qchrom import _qint_row


class Couplings(_Record):
    """Per-edge couplings, either kind "v" (one rational per edge) or
    kind "ch" (a (cosh, sinh) rational pair per edge)."""

    __slots__ = ("kind", "values")

    def __init__(self, kind, values):
        if kind == "v":
            for v in values:
                if not isinstance(v, Fraction):
                    raise ValueError("v couplings must be Fractions")
        elif kind == "ch":
            for c, h in values:
                if not (isinstance(c, Fraction) and isinstance(h, Fraction)):
                    raise ValueError("ch couplings must be Fraction pairs")
                if c * c - h * h != 1 or c <= 0:
                    raise ValueError("invalid hyperbolic pair (%s, %s): "
                                     "need c^2 - h^2 = 1 and c > 0" % (c, h))
        else:
            raise ValueError("coupling kind must be 'v' or 'ch', got %r" % kind)
        _Record.__init__(self, kind, values)

    def check_edge_count(self, g):
        if len(self.values) != g.edge_count:
            raise ValueError("got %d couplings for %d edges"
                             % (len(self.values), g.edge_count))


def parse_couplings(text):
    """Parse the coupling file format: one line per edge id, either
    "v <rational>" or "ch <rational> <rational>"."""
    kind = None
    values = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] not in ("v", "ch"):
            raise ParseError("expected 'v <rational>' or 'ch <rational> <rational>'",
                             lineno)
        if kind is None:
            kind = parts[0]
        elif parts[0] != kind:
            raise ParseError("mixed coupling kinds ('%s' after '%s')"
                             % (parts[0], kind), lineno)
        rationals = _numbers(parts[1:], "bad rational in %r" % line, lineno,
                             Fraction)
        if kind == "v":
            if len(rationals) != 1:
                raise ParseError("'v' takes exactly one rational", lineno)
            values.append(rationals[0])
        else:
            if len(rationals) != 2:
                raise ParseError("'ch' takes exactly two rationals", lineno)
            values.append((rationals[0], rationals[1]))
    if kind is None:
        raise ParseError("empty coupling file")
    try:
        return Couplings(kind, tuple(values))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _require_kind(w, kind, what):
    if w.kind != kind:
        raise ValueError("%s needs '%s' couplings, got '%s'" % (what, kind, w.kind))


def potts_direct(g, k, w):
    """State sum over s: V -> {1..k} of the product over edges of
    (1 + v_e) when the endpoints agree and 1 otherwise."""
    if k < 1:
        raise ValueError("need k >= 1")
    _require_kind(w, "v", "potts_direct")
    w.check_edge_count(g)
    sums = g.state_sums(range(1, k + 1), [(1 + v, 1) for v in w.values])
    return sum(sums.values(), Fraction(0))


def potts_fk(g, k, w):
    """Random-cluster form: sum over edge subsets A of k^c(A) times the
    product of v_e over A, by Multigraph.cluster_sums with the factor k
    for every component."""
    if k < 1:
        raise ValueError("need k >= 1")
    _require_kind(w, "v", "potts_fk")
    w.check_edge_count(g)
    return sum(g.cluster_sums(w.values, [k]), Fraction(0))


def qpotts_pair(g, k, w):
    """The q-weighted Potts identity, both sides computed independently.

    First component (subset form): sum over A of the product over
    components W of the quantum integer of k in base q^|W|, times the
    product of v_e over A.  Multigraph.cluster_sums sweeps a vertex
    frontier for it and multiplies each component's quantum integer in
    as the component closes, without visiting the 2^|E| subsets.

    Second component (state form): sum over s: V -> {0..k-1} of
    q^(sum s(v)) times the product over edges of (1 + v_e) on agreement.
    The spin values 0..k-1 make the two sides exactly equal; with values
    1..k the state form would pick up an extra factor of q per vertex.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    _require_kind(w, "v", "qpotts_pair")
    w.check_edge_count(g)
    sums = g.state_sums(range(k), [(1 + v, 1) for v in w.values])
    state_form = LaurentPoly.from_powers("q", sums)
    return _qpotts_subset_form(g, k, w.values), state_form


def _qpotts_subset_form(g, k, vs):
    """The subset form of qpotts_pair, with edge weights vs: the cluster
    sum whose component of size s weighs the quantum integer of k in
    base q^s."""
    row = g.cluster_sums(vs, lambda s: _qint_row(k, s))
    return LaurentPoly.from_powers("q", dict(enumerate(row)))


def ising_direct(g, w):
    """Sum over s: V -> {-1,+1} of q^(sum s(v)) times the product over
    edges of (c_e + s(i)s(j) h_e); s(i)s(j) is +1 exactly when the spins
    agree."""
    _require_kind(w, "ch", "ising_direct")
    w.check_edge_count(g)
    sums = g.state_sums((-1, 1), [(c + h, c - h) for c, h in w.values])
    return LaurentPoly.from_powers("q", sums)


def ising_pair(g, w):
    """The q-weighted Ising sum and its Potts-route evaluation.

    First component: ising_direct.  Second: map spins -1,+1 to 0,1, which
    turns each edge factor into e^(-J_e) (1 + v'_e on agreement) with
    v'_e = e^(2 J_e) - 1 = (c_e + h_e)^2 - 1, and the q-weight into
    q^(-|V|) times (q^2)^(sum of 0/1 spins); the 0/1 state sum is then the
    subset form of the q-weighted Potts identity at k=2 with q replaced
    by q^2.
    """
    _require_kind(w, "ch", "ising_pair")
    w.check_edge_count(g)
    direct = ising_direct(g, w)
    subset_form = _qpotts_subset_form(
        g, 2, [(c + h) ** 2 - 1 for c, h in w.values])
    q = LaurentPoly.variable("q")
    prefactor = Fraction(1)
    for c, h in w.values:
        prefactor *= c - h
    via_potts = prefactor * q ** (-g.vertex_count) * subset_form.substitute("q", q ** 2)
    return direct, via_potts


def vdw_pair(g, w):
    """The q-weighted Ising sum against its high-temperature expansion.

    Second component: the product of c_e over all edges, times the sum
    over edge subsets A of the product of h_e/c_e over A, times
    (q - q^-1)^o(A) (q + q^-1)^(|V| - o(A)), where o(A) counts odd-degree
    vertices of (V, A).  Multigraph.parity_sums sums the products per
    o(A) by a sweep over the degree parities of a vertex frontier, so
    the expansion shares no kernel with ising_direct's state sum.  With
    z = q^2 the sum is q^-|V| times the sum over o of its row[o] (z -
    1)^o (z + 1)^(|V| - o), built in ints one o at a time.
    """
    _require_kind(w, "ch", "vdw_pair")
    w.check_edge_count(g)
    direct = ising_direct(g, w)
    row = g.parity_sums([h / c for c, h in w.values])
    scale = lcm(*[x.denominator for x in row])
    # total (z + 1) + row[o] (z - 1)^o per o, power being (1 - z)^o,
    # which is (z - 1)^o: a subset has an even number of odd vertices
    total, power = [], [1]
    for o in range(g.vertex_count + 1):
        x = int(row[o] * scale) if o < len(row) else 0
        total = [a + b + x * c
                 for a, b, c in zip(total + [0], [0] + total, power)]
        power = _times_one_minus(power, 1)
    factor = Fraction(prod(c for c, _ in w.values), scale)
    expansion = LaurentPoly.from_powers(
        "q", {2 * i - g.vertex_count: c * factor for i, c in enumerate(total)})
    return direct, expansion


def lemma_w_eval(g):
    """Spin sum of q^(sum s(v)) times the product of s(i)s(j) over ALL
    edges, against the closed form
    (q - q^-1)^o(E) (q + q^-1)^(|V| - o(E))."""
    sums = g.state_sums((-1, 1), ((1, -1),) * g.edge_count)
    lhs = LaurentPoly.from_powers("q", sums)
    q = LaurentPoly.variable("q")
    odd = g.odd_degree_count()
    rhs = (q - q ** -1) ** odd * (q + q ** -1) ** (g.vertex_count - odd)
    return lhs, rhs
