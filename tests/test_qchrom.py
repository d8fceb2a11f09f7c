"""Graph color-counting polynomials."""

import inspect
from fractions import Fraction

import pytest

from qbichromate import qchrom
from qbichromate.arcflow import enumerate_flows, ma2_flow_sum, parse_arc
from qbichromate.graphcore import Multigraph
from qbichromate.polyq import LaurentPoly, qbinom
from qbichromate.qchrom import (bichromate, mdef_chord, mq_direct, mq_subset,
                                q_bichromate, tutte)
from conftest import load_fixture
import oracles
from oracles import mq_complete, qint

Q = LaurentPoly.variable("q")


def test_mq_single_edge():
    g = Multigraph(2, ((1, 2),))
    assert mq_direct(g, 2) == 2 * Q
    assert mq_subset(g, 2) == 2 * Q
    # too few colors for a proper coloring
    assert mq_direct(g, 1) == LaurentPoly()


def test_mq_triangle():
    g = Multigraph(3, ((1, 2), (2, 3), (1, 3)))
    assert mq_direct(g, 3) == mq_complete(3, 3)
    assert mq_direct(g, 2) == LaurentPoly()
    assert mq_direct(g, 4) == mq_subset(g, 4) == mq_complete(3, 4)


def test_mq_loop_kills_colorings():
    g = Multigraph(2, ((1, 1), (1, 2)))
    for n in range(1, 5):
        assert mq_direct(g, n) == LaurentPoly()
        assert mq_subset(g, n) == LaurentPoly()


def test_mq_parallel_edges_match_simple():
    simple = Multigraph(2, ((1, 2),))
    doubled = Multigraph(2, ((1, 2), (1, 2)))
    for n in range(1, 5):
        assert mq_direct(doubled, n) == mq_direct(simple, n)
        assert mq_subset(doubled, n) == mq_subset(simple, n)


def test_mq_complete_closed_form():
    import math
    for k in range(1, 5):
        for n in range(k, 6):
            expect = (LaurentPoly.constant(math.factorial(k))
                      * qbinom(n, k) * Q ** (k * (k - 1) // 2))
            assert mq_complete(k, n) == expect
    assert mq_complete(3, 2) == LaurentPoly()


def test_bichromate_single_edge():
    g = Multigraph(2, ((1, 2),))
    a = LaurentPoly.variable("a")
    b = LaurentPoly.variable("b")
    # one edge: the empty subset gives a^2, the full one gives a*b
    assert bichromate(g) == a ** 2 + a * b


def test_tutte_triangle():
    g = Multigraph(3, ((1, 2), (2, 3), (1, 3)))
    x = LaurentPoly.variable("x")
    y = LaurentPoly.variable("y")
    assert tutte(g) == x ** 2 + x + y
    with pytest.raises(ValueError):
        tutte(g, form="nope")


def test_tutte_matches_deletion_contraction_oracle(catalog):
    assert any(u == v for g in catalog for u, v in g.edges)
    assert any(len(g.edges) != len(set(g.edges)) for g in catalog)
    for g in catalog:
        poly = tutte(g)
        got = {}
        for exps, coeff in poly.terms.items():
            powers = dict(zip(poly.variables, exps))
            got[(powers.get("x", 0), powers.get("y", 0))] = coeff
        assert got == oracles.tutte_poly(g.edges), g


def test_tutte_past_the_recursion_limit():
    # more edges than Python's default recursion limit: the subset
    # counts come from a sweep, and a tree's Tutte polynomial is x^|E|
    n = 1100
    path = Multigraph(n, tuple((i, i + 1) for i in range(1, n)))
    assert tutte(path) == LaurentPoly.variable("x") ** (n - 1)
    # one cycle: x + x^2 + ... + x^(n-1) + y
    cycle = Multigraph(n, path.edges + ((n, 1),))
    terms = {(i, 0): 1 for i in range(1, n)}
    terms[0, 1] = 1
    assert tutte(cycle) == LaurentPoly(("x", "y"), terms)


def test_whitney_rank_relates_to_tutte():
    g = Multigraph(3, ((1, 2), (2, 3), (1, 3)))
    r = tutte(g, form="whitney-rank")
    u = LaurentPoly.variable("u")
    v = LaurentPoly.variable("v")
    assert r == 3 + v + 3 * u + u ** 2
    # agrees with the (x-1, y-1) shift of the standard form at sample points
    t = tutte(g)
    for a in (Fraction(2), Fraction(-1), Fraction(1, 2)):
        for b in (Fraction(3), Fraction(0), Fraction(-1, 3)):
            assert (oracles.evaluate(r, {"u": a, "v": b})
                    == oracles.evaluate(t, {"x": a + 1, "y": b + 1}))


def test_q_bichromate_reduces_at_q_one():
    g = Multigraph(3, ((1, 2), (2, 3)))
    one = LaurentPoly.constant(1)
    for y in (2, 3):
        lhs = oracles.substitute(oracles.substitute(q_bichromate(g, y), "q", one),
                                 "x", LaurentPoly.variable("b"))
        rhs = oracles.substitute(bichromate(g), "a", LaurentPoly.constant(y))
        assert lhs == rhs


def test_q_bichromate_empty_subset_term():
    g = Multigraph(2, ())
    # with no edges only the empty subset survives: qint(y)^2
    assert q_bichromate(g, 3) == qint(3) * qint(3)


# Chords are (start, end) point pairs whose first entry is the vertex;
# these are the layouts ma2_flow_sum builds: (v, 0, k) for the k-th start
# at v, before (v, 1) for every end at v.
CROSSING = (((1, 0, 0), (2, 1)), ((1, 0, 1), (3, 1)))


def test_mdef_chord_crossing_pair():
    # the chords overlap, so their values must differ; each ordering of
    # the two values loses one defect, leaving weight zero
    t = LaurentPoly.variable("t")
    assert mdef_chord(CROSSING, 1) == LaurentPoly()
    assert mdef_chord(CROSSING, 2) == LaurentPoly.constant(2)
    assert mdef_chord(CROSSING, 3) == 2 + 2 * t + 2 * t ** 2


def test_mdef_chord_nested_pair():
    # both chords end at vertex 2 and the outer one contains the inner
    # start: only that start is encircled, so the two orderings get
    # different weights
    d = (((1, 0, 0), (2, 1)), ((1, 0, 1), (2, 1)))
    t = LaurentPoly.variable("t")
    assert mdef_chord(d, 2) == 1 + t
    # the number of terms counts the ordered value pairs
    assert sum(mdef_chord(d, 3).terms.values()) == Fraction(6)
    # ends at distinct points of one group: the outer end comes later,
    # but in the same group, so it is still no defect of the inner end
    spread = (((1, 0), (1, 3)), ((1, 1), (1, 2)))
    assert mdef_chord(spread, 3) == mdef_chord(d, 3)
    # the outer chord encircles both ends of the inner one and ends in a
    # later group, so it is a defect of the inner chord twice
    d = (((1, 0, 0), (2, 1)), ((1, 0, 1), (1, 1)))
    assert mdef_chord(d, 2) == t ** -1 + t
    assert mdef_chord(d, 3) == t ** -1 + 1 + 2 * t + t ** 2 + t ** 3


def reference_chord_sum(chord_count, edges, defects, n):
    """The fold behind mdef_chord, over the depth-first reference walk."""
    sums = oracles.state_sums_reference(Multigraph(chord_count, edges),
                                        range(n), ((0, 1),) * len(edges),
                                        defects)
    return LaurentPoly.from_powers("t", sums)


def test_mdef_chord_memo_serves_equal_graphs_per_n():
    # the bench tracer wraps public functions, so mdef_chord must stay one
    assert inspect.isfunction(qchrom.mdef_chord)
    t = LaurentPoly.variable("t")
    # another layout with the same intersection graph and defect lists
    shifted = (((2, 0, 0), (3, 1)), ((2, 0, 1), (4, 1)))
    qchrom._chord_sum.cache_clear()
    assert mdef_chord(CROSSING, 2) == 2
    assert mdef_chord(CROSSING, 3) == 2 + 2 * t + 2 * t ** 2
    assert qchrom._chord_sum.cache_info().misses == 2
    assert mdef_chord(shifted, 3) == 2 + 2 * t + 2 * t ** 2
    assert qchrom._chord_sum.cache_info().hits == 1
    assert mdef_chord(CROSSING, 3) == reference_chord_sum(2, ((1, 2),),
                                                          ((2,), (1,)), 3)


def test_mdef_chord_memo_matches_reference_on_trefoil(monkeypatch):
    g = load_fixture("trefoil.arc", parse_arc)
    fold = qchrom._chord_sum
    keys = []
    monkeypatch.setattr(qchrom, "_chord_sum",
                        lambda *key: keys.append(key) or fold(*key))
    fold.cache_clear()
    diagram_keys = set()
    for f in enumerate_flows(g, 3):
        ma2_flow_sum(g, f, 3)
        ma2_flow_sum(g, f, 3)
        diagram_keys.update(oracles.chord_key(chords, groups) + (3,) for
                            chords, groups, _ in oracles.chord_diagrams(g, f))
    for key in keys:
        assert fold(*key) == reference_chord_sum(*key)
    # the one layout per configuration has the key every end order of
    # that configuration has, and a repeated sum is served from the memo
    assert set(keys) == diagram_keys
    assert fold.cache_info().misses == len(set(keys)) < len(keys)
