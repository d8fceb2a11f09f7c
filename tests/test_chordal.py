"""Perfect elimination orders and tree structures."""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from qbichromate.chordal import (NotChordal, _qints, parse_structure,
                                 peo, graph_of_structure, str2_pair,
                                 str20_pair, structure_count, tree_structures)
from qbichromate.graphcore import Multigraph, ParseError
from qbichromate.polyq import LaurentPoly
from conftest import load_fixture
from oracles import qint


def test_peo_path():
    g = Multigraph(3, ((1, 2), (2, 3)))
    order, m = peo(g)
    assert order == (1, 2, 3)
    assert m == (0, 1, 1)


def test_peo_triangle():
    g = Multigraph(3, ((1, 2), (2, 3), (1, 3)))
    _, m = peo(g)
    assert sorted(m) == [0, 1, 2]


def test_peo_rejects_cycle():
    g = Multigraph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    with pytest.raises(NotChordal) as e:
        peo(g)
    cycle = e.value.cycle
    assert len(cycle) == 4
    # certificate really is a chordless cycle of the graph
    edges = set(map(tuple, map(sorted, g.edges)))
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        assert tuple(sorted((u, v))) in edges


def test_parse_structure():
    parents, a_sets, b_sizes = load_fixture("chain.s", parse_structure)
    assert parents == (0, 1, 2)
    assert a_sets == (frozenset({1, 2}), frozenset({3}), frozenset({4}))
    assert b_sizes == (0, 1, 1)


def test_parse_structure_errors():
    with pytest.raises(ParseError):
        parse_structure("")
    with pytest.raises(ParseError) as e:
        parse_structure("tree 0 1\nA 1 1\nA 2 2\nb 2 1\nb 2 1\n")
    assert "line" in str(e.value)
    with pytest.raises(ParseError):
        parse_structure("A 1 1\n")


def test_parse_structure_node_id_errors():
    # the message names the id and the range, or the expected line form
    cases = [("tree 0 1\nA 9 1\n", "line 2: node id 9 out of range 1..2"),
             ("tree 0 1\nb 0 1\n", "line 2: node id 0 out of range 1..2"),
             ("tree 0 1\nA\n", "line 2: expected 'A <node> <elements...>'"),
             ("tree 0 1\nb\n", "line 2: expected 'b <node> <size>'")]
    for text, message in cases:
        with pytest.raises(ParseError) as e:
            parse_structure(text)
        assert (str(e.value), e.value.line) == (message, 2)


def test_structure_count_matches_enumeration():
    parents, a_sets, b_sizes = load_fixture("chain.s", parse_structure)
    ss = list(tree_structures(parents, a_sets, b_sizes))
    assert structure_count(parents, a_sets, b_sizes) == len(ss) == 4
    # structures are distinct
    assert len({tuple(s.bag(w) for w in range(1, s.node_count + 1))
                for s in ss}) == 4


def test_bag_rejects_node_outside_range():
    parents, a_sets, b_sizes = load_fixture("chain.s", parse_structure)
    s = tree_structures(parents, a_sets, b_sizes)[0]
    assert s.bag(1) == a_sets[0] | s.b_sets[0]
    for w in (0, -1, s.node_count + 1):
        with pytest.raises(ValueError, match=r"out of range 1\.\.3"):
            s.bag(w)


def test_infeasible_instance_has_no_structures():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        out = tree_structures((0, 1), ({1}, {2}), (0, 3))
    assert out == []
    assert rec == []
    assert structure_count((0, 1), ({1}, {2}), (0, 3)) == 0


def test_instance_validation():
    # overlapping A sets do not partition the ground set
    with pytest.raises(ValueError):
        structure_count((0, 1), ({1}, {1}), (0, 1))
    # parent index out of range
    with pytest.raises(ValueError):
        structure_count((0, 5), ({1}, {2}), (0, 0))
    # two roots
    with pytest.raises(ValueError):
        structure_count((0, 0), ({1}, {2}), (0, 0))
    # labels must grow down the chain 1 -> 2 -> 3; the error names the
    # first offending descendant and its nearest offending ancestor
    for a_sets, pair in ((({3}, {2}, {1}), (1, 2)),
                         (({2}, {3}, {1}), (2, 3)),
                         (({2}, set(), {1}), (1, 3))):
        with pytest.raises(ValueError) as e:
            structure_count((0, 1, 2), a_sets, (0, 0, 0))
        assert "node %d owns a larger element than its descendant node %d" \
            % pair in str(e.value)
    assert structure_count((0, 1, 2), ({1}, set(), {2}), (0, 0, 0)) == 1


def test_graph_of_structure_is_chordal():
    parents, a_sets, b_sizes = load_fixture("chain.s", parse_structure)
    for s in tree_structures(parents, a_sets, b_sizes):
        g = graph_of_structure(s)
        peo(g)


def test_str2_identity():
    parents, a_sets, b_sizes = load_fixture("chain.s", parse_structure)
    for s in tree_structures(parents, a_sets, b_sizes):
        for z in (1, 2, 3):
            lhs, rhs = str2_pair(s, z)
            assert lhs == rhs


def test_str20_identity():
    parents, a_sets, b_sizes = load_fixture("chain.s", parse_structure)
    for z in (1, 2, 3):
        lhs, rhs, pairs = str20_pair(parents, a_sets, b_sizes, z)
        assert lhs == rhs
        # the pairs it summed are str2_pair's, in enumeration order
        assert pairs == [str2_pair(s, z) for s in
                         tree_structures(parents, a_sets, b_sizes)]
    with pytest.raises(ValueError):
        str20_pair(parents, a_sets, b_sizes, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2, 12), max_size=6))
def test_qints_is_the_product_of_qint(values):
    # qint(0) is zero, so a value <= 0 zeroes the reference product
    product = LaurentPoly.constant(1)
    for v in values:
        product = product * qint(max(v, 0))
    assert _qints(values) == product
    assert (not _qints(values).terms) == any(v <= 0 for v in values)
