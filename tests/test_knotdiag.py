"""Planar diagrams, state sums, and the face-graph route."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from qbichromate import knotdiag
from qbichromate.graphcore import Multigraph, ParseError
from qbichromate.knotdiag import (MedianGraph, bracket_contract, faces,
                                  jones, jones_via_bichromate, kauffman_f,
                                  median_graph, parse_pd, prop_mm_check,
                                  shadings)
from qbichromate.polyq import LaurentPoly
from qbichromate.qchrom import bichromate
import braids
import oracles
from conftest import fixture_path, load_fixture


def read(name):
    with open(fixture_path(name), "r", encoding="utf-8") as handle:
        return handle.read()


def torus_pd(k):
    """The torus knot T(2,k), k odd: crossing i reads (2i+1, 2i+k+1,
    2i+2, 2i+k+2) modulo 2k, with labels in 1..2k."""
    return "".join("X+ %d %d %d %d\n"
                   % tuple((j - 1) % (2 * k) + 1
                           for j in (2 * i + 1, 2 * i + k + 1,
                                     2 * i + 2, 2 * i + k + 2))
                   for i in range(k))


def test_parse_pd():
    k = parse_pd("X+ 1 4 2 5\nX+ 3 6 4 1\nX+ 5 2 6 3\n")
    assert len(k.crossings) == 3
    assert k.crossings[0].sign == 1


def test_parse_pd_errors():
    with pytest.raises(ParseError):
        parse_pd("")
    with pytest.raises(ParseError) as e:
        parse_pd("X+ 1 2 3\n")
    assert "line 1" in str(e.value)
    with pytest.raises(ParseError):
        parse_pd("Y+ 1 2 2 1\n")
    # every arc label must appear exactly twice
    with pytest.raises(ParseError):
        parse_pd("X+ 1 2 3 4\n")


def test_parse_pd_rejects_non_planar_diagram():
    # a valid single strand whose rotation system traces 2 faces, not
    # the r + 2 = 4 of a planar diagram
    with pytest.raises(ParseError) as e:
        parse_pd("X- 3 4 1 2\nX- 1 3 2 4\n")
    assert "not planar" in str(e.value)


def test_face_counts():
    tre = load_fixture("trefoil.pd", parse_pd)
    fig8 = load_fixture("fig8.pd", parse_pd)
    # Euler: crossings - arcs + faces = 2
    assert len(faces(tre)) == 5
    assert len(faces(fig8)) == 6
    kink = load_fixture("kink.pd", parse_pd)
    assert len(faces(kink)) == 3


def test_kink_is_unknotted():
    for name in ("kink.pd", "kinkneg.pd"):
        k = load_fixture(name, parse_pd)
        assert kauffman_f(k) == LaurentPoly.constant(1)
        assert jones(k) == LaurentPoly.constant(1)


def test_trefoil_jones():
    t = LaurentPoly.variable("t")
    k = load_fixture("trefoil.pd", parse_pd)
    assert jones(k) == t + t ** 3 - t ** 4


def test_jones_matches_state_sum_oracle():
    for name in ("trefoil.pd", "fig8.pd", "kink.pd"):
        k = load_fixture(name, parse_pd)
        expect = oracles.jones_from_bracket(read(name))
        got = jones(k)
        assert {e[0] if e else 0: c for e, c in got.terms.items()} == expect


def test_median_graph_trefoil():
    k = load_fixture("trefoil.pd", parse_pd)
    m = median_graph(k, 0)
    assert m.graph.vertex_count == 3
    assert sorted(m.graph.edges) == [(1, 2), (2, 3), (3, 1)] or \
        sorted(tuple(sorted(e)) for e in m.graph.edges) == [(1, 2), (1, 3), (2, 3)]
    assert m.eta == (1, 1, 1)
    assert m.black_faces == (1, 3, 4)
    for face in (99, 5, -1):
        with pytest.raises(ValueError) as e:
            median_graph(k, face)
        assert str(e.value) == "outer face id %d out of range 0..4" % face


def test_median_graph_checks_the_face_before_tracing(monkeypatch):
    k = load_fixture("trefoil.pd", parse_pd)

    def untraced(k):
        raise AssertionError("traced the embedding")

    monkeypatch.setattr(knotdiag, "_Embedding", untraced)
    with pytest.raises(ValueError) as e:
        median_graph(k, 5)
    assert str(e.value) == "outer face id 5 out of range 0..4"


def test_mixed_eta_unknot():
    # the trefoil with crossing 1 flipped: an unknot whose two shadings
    # have eta (1, -1, -1) and (-1, 1, 1), so the subset route's
    # cluster-sum entries carry more than one count of eta = +1 edges
    k = load_fixture("trefoil_flip.pd", parse_pd)
    assert jones(k) == LaurentPoly.constant(1)
    both = shadings(k)
    assert {m.eta for m in both} == {(1, -1, -1), (-1, 1, 1)}
    f = kauffman_f(k)
    expect = LaurentPoly.from_powers("A", oracles.bracket_f(read("trefoil_flip.pd")))
    assert f == expect
    assert prop_mm_check(k, both) == ([True, True], f)
    for m in both:
        assert jones_via_bichromate(k, m) == f, m


def test_bichromate_route_equals_bracket():
    for name in ("trefoil.pd", "fig8.pd"):
        k = load_fixture(name, parse_pd)
        f = kauffman_f(k)
        for m in shadings(k):
            assert jones_via_bichromate(k, m) == f


def uniform_bracket(k, m):
    """kauffman_f read off the bichromate polynomial of m, a median graph
    of k: the sum over the bichromate's terms a^c b^j of
    (-A^2 - A^-2)^(2c + j - |V| - 1) A^(2 eta j), times the prefactor
    (-A)^(-3W) A^(-sum of eta).  It holds only when all crossing signs
    and all eta values agree; otherwise it raises ValueError."""
    if len({c.sign for c in k.crossings}) > 1:
        raise ValueError("bichromate route needs uniform crossing signs")
    if len(set(m.eta)) > 1:
        raise ValueError("bichromate route needs uniform eta")
    eta0 = m.eta[0] if m.eta else 1
    a = LaurentPoly.variable("A")
    d = -(a ** 2) - a ** -2
    nv = m.graph.vertex_count
    poly = bichromate(m.graph)
    total = LaurentPoly()
    for exps, coeff in poly.terms.items():
        comp = dict(zip(poly.variables, exps))
        j = comp.get("b", 0)
        exponent = 2 * comp.get("a", 0) + j - nv - 1
        assert exponent >= 0, exponent
        total = total + coeff * d ** exponent * a ** (2 * eta0 * j)
    sign = -1 if k.writhe % 2 else 1
    return sign * a ** (-3 * k.writhe) * a ** (-sum(m.eta)) * total


def test_uniform_sign_route():
    tre = load_fixture("trefoil.pd", parse_pd)
    assert uniform_bracket(tre, median_graph(tre, 0)) == kauffman_f(tre)
    fig8 = load_fixture("fig8.pd", parse_pd)
    with pytest.raises(ValueError):
        uniform_bracket(fig8, median_graph(fig8, 0))


def test_state_loops_match_port_walk_oracle():
    texts = [read(name) for name in ("trefoil.pd", "fig8.pd", "kink.pd",
                                     "kinkneg.pd")]
    texts += [torus_pd(k) for k in (3, 5, 7, 9)]
    for text in texts:
        k = parse_pd(text)
        _, arc_pairs = oracles._parse_pd_ports(text)
        masks = []
        for mask, loops in oracles.state_loops_reference(k):
            masks.append(mask)
            state = [1 if mask >> ci & 1 else -1 for ci in range(k.r)]
            assert loops == oracles._loop_count(k.r, arc_pairs, state), \
                (text, mask)
        assert sorted(masks) == list(range(1 << k.r))


def test_torus_knot_jones_closed_form():
    # T(2,k): t^((k-1)/2) (1 + t^2 - t^3 + t^4 - ... - t^k)
    t = LaurentPoly.variable("t")
    for k in (*range(3, 16, 2), 21, 31, 41):
        series = 1 + sum((-1) ** j * t ** j for j in range(2, k + 1))
        assert jones(parse_pd(torus_pd(k))) == t ** ((k - 1) // 2) * series, k
    # the CI step that runs jones on 2^41 states reads this fixture
    assert load_fixture("t2_41.pd", parse_pd) == parse_pd(torus_pd(41))


def shuffled_pd(text, seed):
    """text with its crossings listed in a random order and its arc
    labels permuted at random: the same diagram, swept in another order."""
    rng = random.Random(seed)
    lines = [line for line in text.splitlines()
             if line and not line.startswith("#")]
    rng.shuffle(lines)
    labels = list(range(1, 2 * len(lines) + 1))
    rng.shuffle(labels)
    out = []
    for line in lines:
        sign, *arcs = line.split()
        out.append("%s %s\n" % (sign, " ".join(str(labels[int(a) - 1])
                                               for a in arcs)))
    return "".join(out)


def test_bracket_contract_matches_state_loops():
    texts = [read(name) for name in ("trefoil.pd", "trefoil_flip.pd",
                                     "fig8.pd", "kink.pd", "kinkneg.pd")]
    texts += [torus_pd(k) for k in range(3, 16, 2)]
    texts += [shuffled_pd(text, seed) for seed, text in enumerate(texts)]
    for text in texts:
        k = parse_pd(text)
        expect = Counter((loops, 2 * mask.bit_count() - k.r)
                         for mask, loops in oracles.state_loops_reference(k))
        # no median graph: one group, keyed by no differences
        assert bracket_contract(k) == {(): expect}, text


def negated(m):
    """m with every eta flipped: the wrong smoothing joins its black
    corners."""
    return MedianGraph(m.graph, tuple(-e for e in m.eta), m.black_faces)


def test_bracket_contract_groups_match_reference():
    texts = [read(name) for name in ("trefoil.pd", "trefoil_flip.pd",
                                     "fig8.pd", "kink.pd", "kinkneg.pd",
                                     "t2_7.pd")]
    texts += [torus_pd(k) for k in range(3, 12, 2)]
    texts += [shuffled_pd(text, seed) for seed, text in enumerate(texts)]
    for text in texts:
        k = parse_pd(text)
        both = shadings(k)
        for given in (both, (negated(both[0]), both[1]),
                      (both[0], negated(both[1]))):
            expect = oracles.model_groups_reference(k, given)
            assert bracket_contract(k, given) == expect, (text, given)
        # the true shadings close every state with difference 0
        assert list(bracket_contract(k, both)) == [(0, 0)], text
    # a median graph with a vertex at no crossing, a component of its own
    k = load_fixture("trefoil.pd", parse_pd)
    m = shadings(k)[0]
    extra = MedianGraph(Multigraph(m.graph.vertex_count + 1, m.graph.edges),
                        m.eta, m.black_faces)
    expect = oracles.model_groups_reference(k, [extra])
    assert bracket_contract(k, [extra]) == expect
    assert prop_mm_check(k, [extra])[0] == [False]


def test_prop_mm():
    texts = [read(name) for name in ("kink.pd", "kinkneg.pd", "trefoil.pd",
                                     "trefoil_flip.pd", "fig8.pd")]
    texts += [torus_pd(k) for k in range(3, 12, 2)]
    texts += [shuffled_pd(text, seed) for seed, text in enumerate(texts)]
    for text in texts:
        k = parse_pd(text)
        both = shadings(k)
        # the distinct median graphs over all outer faces, in face order
        assert both == tuple(dict.fromkeys(median_graph(k, face.id)
                                           for face in faces(k))), text
        # the groups summed are the bracket's state histogram
        expect = LaurentPoly.from_powers("A", oracles.bracket_f(text))
        assert prop_mm_check(k, both) == ([True, True], expect), text


def test_prop_mm_fails_on_a_negated_eta():
    # one shading's median graph with its eta negated keeps the edges but
    # joins them on the wrong smoothing: that shading fails, and the
    # other, walked in the same pass, still holds
    for name in ("trefoil.pd", "trefoil_flip.pd", "fig8.pd"):
        k = load_fixture(name, parse_pd)
        for wrong in (0, 1):
            both = list(shadings(k))
            both[wrong] = negated(both[wrong])
            # a wrong shading changes the groups, not their sum
            assert prop_mm_check(k, both) == (
                [i != wrong for i in (0, 1)], kauffman_f(k)), (name, wrong)
    # any list of median graphs: one per entry, a shading given twice
    # with one copy negated, or none
    k = parse_pd(torus_pd(5))
    m = shadings(k)[0]
    assert prop_mm_check(k, [negated(m), m])[0] == [False, True]
    assert prop_mm_check(k, []) == ([], kauffman_f(k))


def braid_knots(seed, count):
    """count seeded braid-closure knots on 3 to 5 strands, r <= 14."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(3, 5)
        word = braids.random_knot_word(rng, strands, 14)
        out.append((word, parse_pd(braids.closure_pd(word, strands))))
    return out


def test_braid_closures_are_knots():
    t = LaurentPoly.variable("t")
    # the closures of sigma_1^3 on two strands and of (sigma_1
    # sigma_2^-1)^2 on three: a trefoil and the figure-eight knot
    tre = parse_pd(braids.closure_pd([1, 1, 1], 2))
    assert jones(tre) == t ** -1 + t ** -3 - t ** -4
    fig8 = parse_pd(braids.closure_pd([1, -2, 1, -2], 3))
    assert jones(fig8) == jones(load_fixture("fig8.pd", parse_pd))
    assert not braids.is_knot([1, 2, 1], 3)
    # parse_pd accepts each closure: one planar knot
    for word, k in braid_knots(1, 20):
        assert k.r == len(word) <= 14


def test_prop_mm_on_braid_closures():
    for word, k in braid_knots(2, 25):
        both = shadings(k)
        assert prop_mm_check(k, both)[0] == [True, True], word
        for wrong in (0, 1):
            given = list(both)
            given[wrong] = negated(given[wrong])
            assert prop_mm_check(k, given)[0] == [
                i != wrong for i in (0, 1)], (word, wrong)


def test_bichromate_route_on_braid_closures():
    for word, k in braid_knots(3, 25):
        f = kauffman_f(k)
        for m in shadings(k):
            assert jones_via_bichromate(k, m) == f, word
