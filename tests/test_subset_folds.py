"""Every subset-side function against a side that does not read it.

potts_fk, the q-Potts subset form (qpotts_pair, ising_pair), mq_subset,
bichromate, tutte and q_bichromate are cluster sums of
Multigraph.cluster_sums (the last three with a cycle weight or an edge
weight whose base-2^k digits they unpack), and vdw_pair's expansion
folds the odd-vertex row of Multigraph.parity_sums.  A fold that reads
the wrong digit, drops a sign or a size, or weighs a component by the
wrong factor changes its value on some drawn multigraph.  The other
sides are state sums (statmech, mq_direct), deletion-contraction
(oracles.tutte_poly), per-mask (c(A), |A|) counts from
oracles.components for bichromate and, for q_bichromate, the bichromate
at q = 1 and the colouring sum at x = -1.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracles
from qbichromate.graphcore import Multigraph
from qbichromate.polyq import LaurentPoly
from qbichromate.qchrom import (bichromate, mq_direct, mq_subset, q_bichromate,
                                tutte)
from qbichromate.statmech import (Couplings, ising_pair, potts_direct, potts_fk,
                                  qpotts_pair, vdw_pair)

# v couplings: zero, negatives (v = -1 zeroes the agree weight) and
# several denominators
V = st.one_of(st.sampled_from([Fraction(0), Fraction(-1)]),
              st.fractions(min_value=-3, max_value=3, max_denominator=6))
# (cosh J, sinh J) = ((1 + t^2) / (1 - t^2), 2t / (1 - t^2)), |t| < 1
T = st.fractions(min_value=Fraction(-5, 6), max_value=Fraction(5, 6),
                 max_denominator=6)


@st.composite
def multigraphs(draw):
    """At most 7 vertices and 10 edges, loops and parallel edges allowed."""
    n = draw(st.integers(0, 7))
    ends = st.integers(1, n) if n else st.nothing()
    edges = draw(st.lists(st.tuples(ends, ends), max_size=8 if n else 0))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    return Multigraph(n, tuple(edges))


@st.composite
def fold_inputs(draw):
    g = draw(multigraphs())
    m = g.edge_count
    v = Couplings("v", tuple(draw(st.lists(V, min_size=m, max_size=m))))
    ts = draw(st.lists(T, min_size=m, max_size=m))
    ch = Couplings("ch", tuple(((1 + t * t) / (1 - t * t), 2 * t / (1 - t * t))
                               for t in ts))
    return g, v, ch, draw(st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(fold_inputs())
def test_subset_folds_match_their_other_sides(drawn):
    g, v, ch, k = drawn
    assert potts_fk(g, k, v) == potts_direct(g, k, v)
    subset_form, state_form = qpotts_pair(g, k, v)
    assert subset_form == state_form
    direct, via_potts = ising_pair(g, ch)
    assert direct == via_potts
    direct, expansion = vdw_pair(g, ch)
    assert direct == expansion
    assert mq_subset(g, k) == mq_direct(g, k)

    poly = tutte(g)
    got = {}
    for exps, coeff in poly.terms.items():
        powers = dict(zip(poly.variables, exps))
        got[powers.get("x", 0), powers.get("y", 0)] = coeff
    assert got == oracles.tutte_poly(g.edges)

    # a^c(A) b^|A| counted mask by mask
    counts = {}
    for mask in range(1 << g.edge_count):
        key = (len(oracles.components(g, mask)), bin(mask).count("1"))
        counts[key] = counts.get(key, 0) + 1
    assert bichromate(g) == LaurentPoly(("a", "b"), counts)

    deformed = q_bichromate(g, k)
    at_q_one = oracles.substitute(oracles.substitute(deformed, "q", 1),
                                  "x", LaurentPoly.variable("b"))
    assert at_q_one == oracles.substitute(bichromate(g), "a", k)
    # x = -1 is mq_subset's sign, which keeps the component sizes
    assert oracles.substitute(deformed, "x", -1) == mq_direct(g, k)


def test_vdw_expansion_takes_no_state_sum(monkeypatch):
    # the direct side is the only state sum; the expansion must not
    # share its kernel
    calls = []
    state_sums = Multigraph.state_sums

    def counted(*args):
        calls.append(args)
        return state_sums(*args)

    monkeypatch.setattr(Multigraph, "state_sums", counted)
    g = Multigraph(3, ((1, 2), (2, 3), (1, 3), (1, 2), (3, 3)))
    ch = Couplings("ch", ((Fraction(5, 3), Fraction(4, 3)),) * 5)
    direct, expansion = vdw_pair(g, ch)
    assert direct == expansion
    assert len(calls) == 1
