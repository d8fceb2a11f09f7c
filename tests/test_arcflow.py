"""Arc-graph flows and the cabled colored invariant."""

import pytest

from qbichromate.arcflow import (ArcGraph, arcjones, cabled_graph,
                                 catmm_flow_sum, colored_jones, cycle_families,
                                 delta_flow, enumerate_flows, flow_stats,
                                 ma2_flow_sum, main_flow_weight, parse_arc,
                                 z_nf)
from qbichromate.graphcore import ParseError
from qbichromate.polyq import LaurentPoly
from conftest import load_fixture

T = LaurentPoly.variable("t")


def trefoil():
    return load_fixture("trefoil.arc", parse_arc)


def fig8():
    return load_fixture("fig8.arc", parse_arc)


def test_parse_arc():
    g = trefoil()
    assert g.r == 3
    assert g.signs == (1, 1, 1)
    assert g.over == (3, 1, 2)
    assert g.rot_k == -5


def test_parse_arc_errors():
    with pytest.raises(ParseError):
        parse_arc("")
    with pytest.raises(ParseError) as e:
        parse_arc("crossings 3\nsigns + +\nover 3 1 2\n")
    assert "line 2" in str(e.value)
    with pytest.raises(ParseError):
        parse_arc("crossings 3\nsigns + + +\nover 3 1 5\n")
    with pytest.raises(ParseError):
        parse_arc("signs + +\n")


def test_flow_enumeration():
    g = trefoil()
    flows = list(enumerate_flows(g, 1))
    assert len(flows) == 2
    assert (0, 0) in flows and (1, 1) in flows
    assert len(list(enumerate_flows(g, 2))) == 3
    for f in enumerate_flows(g, 2):
        assert g.is_conserved(f)
        assert all(v <= 2 for v in f)


def test_flow_stats():
    g = trefoil()
    s = flow_stats(g, (1, 1))
    assert (s.fb_plus, s.fb_minus, s.fr_plus, s.fr_minus) == (1, 0, 1, 0)
    assert delta_flow(g, (1, 1)) == -1


def test_missing_rot_raises():
    bare = ArcGraph((1, 1, 1), (3, 1, 2))
    with pytest.raises(ValueError):
        delta_flow(bare, (1, 1))


def test_colored_jones_n1():
    g = trefoil()
    expect = T ** -1 + T ** -3 - T ** -4
    for route in ("main", "catmm", "ma2"):
        assert colored_jones(g, 1, route=route) == expect
    assert arcjones(g) == expect
    g8 = fig8()
    expect8 = 1 + T ** -2 - T ** -1 + T ** 2 - T
    for route in ("main", "catmm", "ma2"):
        assert colored_jones(g8, 1, route=route) == expect8
    with pytest.raises(ValueError):
        colored_jones(g, 1, route="bogus")


def test_per_flow_bridge():
    # the telescoped per-flow weight ties the three routes together
    g = fig8()
    n = 2
    for f in enumerate_flows(g, n):
        catmm = catmm_flow_sum(g, f, n)
        assert catmm == ma2_flow_sum(g, f, n)
        lhs = z_nf(g, f, n) * catmm
        rhs = T ** delta_flow(g, f) * main_flow_weight(g, f, n)
        assert lhs == rhs


def test_cabled_graph_shape():
    g = trefoil()
    h = cabled_graph(g, 2)
    assert h.vertices == ((1, 1), (1, 2), (2, 1), (2, 2))
    # every edge joins two listed vertices and carries a weight and label
    for u, v, weight, label in h.edges:
        assert u in h.vertices and v in h.vertices
        assert isinstance(weight, LaurentPoly)
    assert len(cycle_families(h)) == 5


def test_cycle_families_are_disjoint():
    # a family is a set of edge indices forming vertex-disjoint cycles, so
    # inside one family every touched vertex has in- and out-degree one
    g = fig8()
    h = cabled_graph(g, 2)
    fams = cycle_families(h)
    assert frozenset() in fams
    assert len(set(fams)) == len(fams)
    for fam in fams:
        sources = [h.edges[i][0] for i in fam]
        targets = [h.edges[i][1] for i in fam]
        assert len(set(sources)) == len(sources)
        assert len(set(targets)) == len(targets)
        assert set(sources) == set(targets)
