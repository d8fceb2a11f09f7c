"""Planar diagrams, state sums, and the face-graph route."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from qbichromate.graphcore import ParseError
from qbichromate.knotdiag import (bracket_contract, faces, jones,
                                  jones_via_bichromate, kauffman_f,
                                  median_graph, median_graphs, parse_pd,
                                  prop_mm_check, state_loops)
from qbichromate.polyq import LaurentPoly
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
    assert m.b == (1, 1, 1)
    assert m.eta == (1, 1, 1)
    assert m.black_faces == (1, 3, 4)
    with pytest.raises(ValueError):
        median_graph(k, 99)


def test_prop_mm():
    for name in ("kink.pd", "kinkneg.pd", "trefoil.pd", "fig8.pd"):
        k = load_fixture(name, parse_pd)
        medians = median_graphs(k)
        assert medians == {face.id: median_graph(k, face.id)
                           for face in faces(k)}
        holds = prop_mm_check(k, medians)
        assert sorted(holds) == list(range(len(faces(k))))
        for face in range(len(faces(k))):
            assert holds[face]


def test_mixed_eta_unknot():
    # the trefoil with crossing 1 flipped: an unknot whose two shadings
    # have eta (1, -1, -1) and (-1, 1, 1), so the kk route's cluster-sum
    # entries carry more than one count of eta = +1 edges
    k = load_fixture("trefoil_flip.pd", parse_pd)
    assert jones(k) == LaurentPoly.constant(1)
    medians = median_graphs(k)
    assert {m.eta for m in medians.values()} == {(1, -1, -1), (-1, 1, 1)}
    f = kauffman_f(k)
    expect = LaurentPoly.from_powers("A", oracles.bracket_f(read("trefoil_flip.pd")))
    assert f == expect
    holds = prop_mm_check(k, medians)
    for face, m in medians.items():
        assert jones_via_bichromate(k, m, route="kk") == f, face
        assert holds[face], face


def test_bichromate_route_equals_bracket():
    for name in ("trefoil.pd", "fig8.pd"):
        k = load_fixture(name, parse_pd)
        f = kauffman_f(k)
        for m in median_graphs(k).values():
            assert jones_via_bichromate(k, m, route="kk") == f


def test_uniform_sign_route():
    tre = load_fixture("trefoil.pd", parse_pd)
    assert jones_via_bichromate(tre, median_graph(tre, 0), route="kkk") == \
        kauffman_f(tre)
    fig8 = load_fixture("fig8.pd", parse_pd)
    with pytest.raises(ValueError):
        jones_via_bichromate(fig8, median_graph(fig8, 0), route="kkk")
    with pytest.raises(ValueError):
        jones_via_bichromate(tre, median_graph(tre, 0), route="bogus")


def test_state_loops_match_port_walk_oracle():
    texts = [read(name) for name in ("trefoil.pd", "fig8.pd", "kink.pd",
                                     "kinkneg.pd")]
    texts += [torus_pd(k) for k in (3, 5, 7, 9)]
    for text in texts:
        k = parse_pd(text)
        _, arc_pairs = oracles._parse_pd_ports(text)
        masks = []
        for mask, loops in state_loops(k):
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
                         for mask, loops in state_loops(k))
        assert bracket_contract(k) == expect, text

