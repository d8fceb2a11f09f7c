"""The five text formats: fuzzed token soups, the graph round trip, and
the exact message and line of each token conversion error."""

import pytest
from hypothesis import given, settings, strategies as st

from qbichromate.arcflow import parse_arc
from qbichromate.chordal import parse_structure
from qbichromate.graphcore import Multigraph, ParseError, parse_graph
from qbichromate.knotdiag import parse_pd
from qbichromate.statmech import parse_couplings

PARSERS = {
    "graph": (parse_graph, ["vertices"]),
    "couplings": (parse_couplings, ["v", "ch"]),
    "pd": (parse_pd, ["X+", "X-"]),
    "arc": (parse_arc, ["crossings", "signs", "over", "rot", "order", "rotK"]),
    "structure": (parse_structure, ["tree", "A", "b"]),
}
JUNK = ["x", "+", "-", "r", "b", "1/2", "-3/4", "1/0", "1.5", "1e3", "nan",
        "0x1", "1_0", "#", "٣"]


def soups(directives):
    """Texts of up to six lines, each a directive or number followed by
    numbers and junk tokens."""
    small = st.integers(-2, 6).map(str)
    head = st.sampled_from(directives) | small | st.sampled_from(JUNK)
    token = small | st.sampled_from(JUNK + directives)
    line = st.tuples(head, st.lists(token, max_size=6)).map(
        lambda pair: " ".join((pair[0],) + tuple(pair[1])))
    return st.lists(line, max_size=6).map("\n".join)


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parsers_raise_only_parse_error(name, data):
    parse, directives = PARSERS[name]
    text = data.draw(soups(directives))
    try:
        parse(text)
    except ParseError:
        pass


@st.composite
def graphs(draw):
    vertex_count = draw(st.integers(0, 6))
    if vertex_count == 0:
        return Multigraph(0, ())
    vertex = st.integers(1, vertex_count)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    return Multigraph(vertex_count, tuple(edges))


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_graph_text_round_trip(g):
    assert parse_graph(g.to_text()) == g


CONVERSION_ERRORS = [
    (parse_graph, "vertices x\n", "vertex count 'x' is not an integer", 1),
    (parse_graph, "vertices 2\n1 y\n", "edge endpoints '1 y' are not integers",
     2),
    (parse_graph, "vertices \u0663\n", "vertex count '\u0663' is not an integer",
     1),
    (parse_graph, "vertices 2\n1 \u0662\n",
     "edge endpoints '1 \u0662' are not integers", 2),
    (parse_couplings, "v 1_0\n", "bad rational in 'v 1_0'", 1),
    (parse_couplings, "v 1\nv 1/0\n", "bad rational in 'v 1/0'", 2),
    (parse_couplings, "ch 1 z\n", "bad rational in 'ch 1 z'", 1),
    (parse_pd, "X+ 1 2 a 4\n", "arc labels must be integers", 1),
    (parse_arc, "crossings 0\n", "expected 'crossings <positive count>'", 1),
    (parse_arc, "crossings\n", "expected 'crossings <positive count>'", 1),
    (parse_arc, "crossings 1\nsigns +\nover a\n", "over-arcs must be integers",
     3),
    (parse_arc, "rot b 1 x\n", "rot takes integer edge and value", 1),
    (parse_arc, "order\n", "expected 'order <vertex> r i1 r i2 ...'", 1),
    (parse_arc, "order 1 r x\n", "edge numbers must be integers", 1),
    (parse_arc, "rotK 1 2\n", "expected 'rotK <int>'", 1),
    (parse_structure, "tree 0 x\n", "parents must be integers", 1),
    (parse_structure, "tree 0\nA x\n", "node id must be an integer", 2),
    (parse_structure, "tree 0\nA 1 y\n", "elements must be integers", 2),
    (parse_structure, "tree 0\nb 1 y\n", "elements must be integers", 2),
]


@pytest.mark.parametrize("parse, text, message, line", CONVERSION_ERRORS)
def test_conversion_error_message_and_line(parse, text, message, line):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (str(e.value), e.value.line) == ("line %d: %s" % (line, message),
                                            line)


@pytest.mark.parametrize("word", ["crossings", "signs", "over", "rotK"])
def test_arc_singleton_lines(word):
    lines = {"crossings": "crossings 1", "signs": "signs +", "over": "over 1",
             "rotK": "rotK 0"}
    text = "\n".join(list(lines.values()) + [lines[word]])
    with pytest.raises(ParseError) as e:
        parse_arc(text)
    assert str(e.value) == "line 5: duplicate %s line" % word
    if word in ("signs", "over"):
        with pytest.raises(ParseError) as e:
            parse_arc(lines[word])
        assert str(e.value) == "line 1: the crossings line must come first"
