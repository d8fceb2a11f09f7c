"""Graph text format and multigraph helpers."""

import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qbichromate.graphcore import Multigraph, ParseError, parse_graph
from qbichromate.qchrom import mq_direct
from qbichromate.statmech import potts_direct
from conftest import load_fixture, uniform_v
from oracles import (cluster_sums_reference, component_count, components,
                     defected_sums_reference, parity_sums_reference,
                     state_sums_reference)


def test_parse_basic():
    g = parse_graph("vertices 3\n1 2\n2 3\n")
    assert g.vertex_count == 3
    assert g.edges == ((1, 2), (2, 3))


def test_parse_comments_and_blanks():
    g = parse_graph("# a triangle\nvertices 3\n\n1 2\n# middle\n2 3\n1 3\n")
    assert g.edges == ((1, 2), (2, 3), (1, 3))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_graph("vertices 2\n1 3\n")
    assert "line 2" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_graph("1 2\n")
    assert "line 1" in str(e.value)
    with pytest.raises(ParseError):
        parse_graph("vertices 2\n1 2 3\n")
    with pytest.raises(ParseError):
        parse_graph("")


def test_load_graph():
    g = load_fixture("tri.g", parse_graph)
    assert g.vertex_count == 3
    assert len(g.edges) == 3
    assert parse_graph(g.to_text()) == g


def test_components():
    g = Multigraph(4, ((1, 2), (3, 4)))
    full = (1 << len(g.edges)) - 1
    assert component_count(g, full) == 2
    assert component_count(g, 0) == 4
    comps = components(g, 0b01)
    assert sorted(map(sorted, comps)) == [[1, 2], [3], [4]]


def reference_state_sums(g, spins, weights, defects=None):
    """The state kernel's histogram rebuilt state by state."""
    histogram = {}
    for s in product(spins, repeat=g.vertex_count):
        weight = 1
        for (u, v), (agree, differ) in zip(g.edges, weights):
            weight *= agree if s[u - 1] == s[v - 1] else differ
        key = sum(s)
        for x, listed in enumerate(defects or (), start=1):
            key -= sum(1 for y in listed if s[y - 1] < s[x - 1])
        histogram[key] = histogram.get(key, 0) + weight
    return {key: w for key, w in histogram.items() if w}


def random_defects(rng, k):
    """Defect lists for vertices 1..k, with repeats and a vertex listing
    itself."""
    defects = [[rng.randint(1, k) for _ in range(rng.randint(0, 4))]
               for _ in range(k)]
    if k:
        defects[0] = defects[0] + [1, k, k]
    return defects


def test_state_sums_match_per_state_reference(catalog):
    rng = random.Random(5)
    graphs = list(catalog) + [Multigraph(0, ()), Multigraph(3, ())]
    for g in graphs:
        m = g.edge_count
        weight_sets = [
            [(0, 1)] * m,
            [(1, -1)] * m,
            [(2 + i, -1 - i) for i in range(m)],
            [(Fraction(i, 3), Fraction(3, 2 * i + 1)) for i in range(m)],
        ]
        for spins in (range(3), (-1, 1)):
            for weights in weight_sets:
                assert g.state_sums(spins, weights) == \
                    reference_state_sums(g, spins, weights), (g, weights)
            # Fraction weights and defect lists together
            defects = random_defects(rng, g.vertex_count)
            assert g.state_sums(spins, weight_sets[-1], defects) == \
                reference_state_sums(g, spins, weight_sets[-1], defects), \
                (g, defects)


def test_state_sums_small_cases():
    assert Multigraph(0, ()).state_sums(range(3), []) == {0: 1}
    assert Multigraph(0, ()).state_sums((), []) == {0: 1}
    assert Multigraph(2, ()).state_sums((), []) == {}
    assert Multigraph(2, ()).state_sums((-1, 1), []) == {-2: 1, 0: 2, 2: 1}
    # a loop always takes its agree weight
    loop = Multigraph(1, ((1, 1),))
    assert loop.state_sums(range(2), [(5, 7)]) == {0: 5, 1: 5}
    assert loop.state_sums(range(2), [(0, 7)]) == {}
    with pytest.raises(ValueError):
        loop.state_sums(range(2), [])


ROW = st.lists(st.integers(-3, 3), min_size=1, max_size=4)


@st.composite
def weighted_multigraphs(draw):
    """A multigraph with loops, parallel edges and isolated vertices
    (Multigraph(0, ()) included) and its edge weights: ints, or
    Fractions with ints among them, zeros and negatives included."""
    n = draw(st.integers(0, 6))
    ends = st.integers(1, n) if n else st.nothing()
    edges = draw(st.lists(st.tuples(ends, ends), max_size=8 if n else 0))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    weight = draw(st.sampled_from((
        st.integers(-3, 3),
        st.integers(-3, 3) | st.builds(Fraction, st.integers(-4, 4),
                                       st.integers(1, 4)))))
    weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return Multigraph(n, tuple(edges)), weights


@st.composite
def cluster_sum_inputs(draw):
    """A weighted multigraph, a factor (one row for every component, or
    rows of several lengths that depend on the component's size) and a
    cycle weight."""
    g, weights = draw(weighted_multigraphs())
    if draw(st.booleans()):
        factor = draw(ROW)
    else:
        rows = draw(st.lists(ROW, min_size=max(g.vertex_count, 1),
                             max_size=max(g.vertex_count, 1)))
        factor = lambda size: rows[size - 1]
    cycle = draw(st.sampled_from((1, -2, 3)) | st.builds(
        lambda k: 1 << k, st.integers(1, 12)))
    return g, weights, factor, cycle


def value_type(weights):
    return Fraction if any(type(w) is Fraction for w in weights) else int


@settings(max_examples=300, deadline=None)
@given(cluster_sum_inputs())
def test_cluster_sums_match_per_mask_reference(drawn):
    g, weights, factor, cycle = drawn
    got = g.cluster_sums(weights, factor, cycle)
    assert got == cluster_sums_reference(g, weights, factor, cycle)
    if cycle == 1:
        assert g.cluster_sums(weights, factor) == got
    assert all(type(c) is value_type(weights) for c in got)
    assert not got or got[-1]


@settings(max_examples=300, deadline=None)
@given(weighted_multigraphs())
def test_parity_sums_match_per_mask_reference(drawn):
    g, weights = drawn
    got = g.parity_sums(weights)
    assert got == parity_sums_reference(g, weights)
    assert all(type(c) is value_type(weights) for c in got)
    assert not got or got[-1]


def test_cluster_sums_small_cases():
    # one empty subset, and no components to weigh it
    assert Multigraph(0, ()).cluster_sums([], [7]) == [1]
    assert Multigraph(0, ()).cluster_sums([], lambda size: [7]) == [1]
    assert Multigraph(3, ()).cluster_sums([], [1, 1]) == [1, 3, 3, 1]
    # a loop never joins components, and weight -1 on it cancels every
    # subset
    loop = Multigraph(2, ((1, 1), (1, 2)))
    assert loop.cluster_sums([3, 5], [2]) == [4 * (4 + 5 * 2)]
    assert loop.cluster_sums([-1, 5], [2]) == []
    # parallel edges: any nonempty choice of them makes one component
    pair = Multigraph(2, ((1, 2), (1, 2)))
    halves = [Fraction(1, 2), Fraction(-1, 2)]
    assert pair.cluster_sums(halves, lambda size: [size]) == [Fraction(1, 2)]
    assert pair.cluster_sums(halves, lambda size: [1, size]) == \
        [Fraction(3, 4), Fraction(3, 2), Fraction(1)]
    assert pair.cluster_sums([0, 0], [5]) == [25]
    with pytest.raises(ValueError, match="got 1 weights for 2 edges"):
        pair.cluster_sums([1], [1])


def test_cluster_sums_cycle_weight_small_cases():
    # a loop, and each parallel edge beyond the first, closes a cycle
    loop = Multigraph(1, ((1, 1),))
    assert loop.cluster_sums([5], [1], 3) == [16]
    pair = Multigraph(2, ((1, 2), (1, 2), (1, 2)))
    # one of three, two (one cycle) or all three (two cycles) make one
    # component, none two
    assert pair.cluster_sums([1, 1, 1], [0, 1], 10) == [0, 3 + 30 + 100, 1]
    # two links from v into one block: the square's fourth edge
    square = Multigraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    assert square.cluster_sums([1] * 4, [0, 1], 100) == [0, 4 + 100, 6, 4, 1]
    # cycle weight 0 keeps the forests
    assert square.cluster_sums([1] * 4, [1], 0) == [15]
    assert Multigraph(0, ()).cluster_sums([], [7], 5) == [1]


def test_parity_sums_small_cases():
    assert Multigraph(0, ()).parity_sums([]) == [1]
    assert Multigraph(3, ()).parity_sums([]) == [1]
    # a loop keeps every parity
    loop = Multigraph(2, ((1, 1), (1, 2)))
    assert loop.parity_sums([3, 5]) == [4, 0, 20]
    # an even choice of parallel edges flips nothing
    pair = Multigraph(2, ((1, 2), (1, 2)))
    assert pair.parity_sums([Fraction(1, 2), 3]) == \
        [Fraction(5, 2), 0, Fraction(7, 2)]
    assert type(pair.parity_sums([Fraction(1, 2), 3])[0]) is Fraction
    # even and odd choices both weigh 0
    assert pair.parity_sums([1, -1]) == []
    with pytest.raises(ValueError, match="got 1 weights for 2 edges"):
        pair.parity_sums([1])


def test_cluster_sums_deep_graphs():
    # the sweep must not recurse per edge: on a 2000-vertex path every
    # subset has 2000 - |A| components, and a cycle adds the whole one
    n = 2000
    path = Multigraph(n, tuple((i, i + 1) for i in range(1, n)))
    cycle = Multigraph(n, tuple((i, i % n + 1) for i in range(1, n + 1)))
    assert path.cluster_sums([1] * (n - 1), [3]) == [3 * 4 ** (n - 1)]
    assert cycle.cluster_sums([1] * n, [3]) == [4 ** n + 2]
    assert cycle.cluster_sums([0] * n, [2]) == [2 ** n]
    # one cycle to close, with weight 5
    assert cycle.cluster_sums([1] * n, [1], 5) == [2 ** n + 4]


def test_parity_sums_deep_graphs():
    # more edges than Python's default recursion limit
    n = 1200
    cycle = Multigraph(n, tuple((i, i % n + 1) for i in range(1, n + 1)))
    # each even set of a cycle's vertices is the odd set of exactly two
    # subsets, one the other's complement
    assert cycle.parity_sums([1] * n) == [
        0 if o % 2 else 2 * comb(n, o) for o in range(n + 1)]


def test_state_sums_value_types():
    # integral weights give int sums; any other weight gives Fractions
    path = Multigraph(3, ((1, 2), (2, 3)))
    for weights in ([(0, 1)] * 2, [(2, -1), (Fraction(4, 2), 3)]):
        sums = path.state_sums(range(3), weights, [[], [1], [1, 2]])
        assert sums and all(type(w) is int for w in sums.values()), weights
    sums = path.state_sums((-1, 1), [(Fraction(1, 2), 1), (3, 1)])
    assert sums == {-3: Fraction(3, 2), -1: Fraction(9, 2),
                    1: Fraction(9, 2), 3: Fraction(3, 2)}
    assert all(type(w) is Fraction for w in sums.values())


def test_state_sums_deep_graphs():
    # one spin per vertex: the walk must not recurse per vertex
    assert mq_direct(Multigraph(2000, ()), 1) == 1
    path = Multigraph(2000, tuple((i, i + 1) for i in range(1, 2000)))
    w = uniform_v(path.edge_count, Fraction(1, 2))
    assert potts_direct(path, 1, w) == Fraction(3, 2) ** 1999


WEIGHTS = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))


@st.composite
def state_sum_inputs(draw):
    """A multigraph with shuffled labels, loops and parallel edges, its
    weights, a spin set and optional defect lists with repeats and
    vertices listing themselves."""
    n = draw(st.integers(0, 6))
    labels = draw(st.permutations(range(1, n + 1)))
    ends = st.sampled_from(labels) if n else st.nothing()
    edges = draw(st.lists(st.tuples(ends, ends), max_size=9 if n else 0))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    weights = draw(st.lists(st.tuples(WEIGHTS, WEIGHTS),
                            min_size=len(edges), max_size=len(edges)))
    k = draw(st.integers(1, 3))
    spins = draw(st.sampled_from((range(k), range(1, k + 1), (-1, 1))))
    defects = draw(st.none() | st.lists(st.lists(ends, max_size=4),
                                        min_size=n, max_size=n))
    return Multigraph(n, tuple(edges)), spins, weights, defects


@settings(max_examples=300, deadline=None)
@given(state_sum_inputs())
def test_state_sums_match_depth_first_walk(drawn):
    g, spins, weights, defects = drawn
    got = g.state_sums(spins, weights, defects)
    want = state_sums_reference(g, spins, weights, defects)
    assert got == want
    assert {e: type(w) for e, w in got.items()} == \
        {e: type(w) for e, w in want.items()}


def defected_sums(g, n, defects):
    """The defected coloring sum: the state kernel over the proper
    colorings with colors 0..n-1."""
    return g.state_sums(range(n), ((0, 1),) * g.edge_count, defects)


def test_defected_sums_match_reference(catalog):
    rng = random.Random(4)
    graphs = list(catalog) + [Multigraph(0, ()), Multigraph(3, ())]
    for g in graphs:
        k = g.vertex_count
        for _ in range(3):
            defects = random_defects(rng, k)
            for n in (1, 2, 3):
                assert defected_sums(g, n, defects) == defected_sums_reference(
                    k, g.edges, n, defects), (g, n, defects)


def test_defected_sums_small_cases():
    assert defected_sums(Multigraph(0, ()), 2, []) == {0: 1}
    assert defected_sums(Multigraph(1, ((1, 1),)), 3, [[]]) == {}
    # parallel edges act as one; a repeated defect counts twice
    pair = Multigraph(2, ((1, 2), (1, 2)))
    assert defected_sums(pair, 2, [[], [1, 1]]) == {1: 1, -1: 1}
    with pytest.raises(ValueError, match="got 1 defect lists for 2 vertices"):
        defected_sums(pair, 2, [[]])
    with pytest.raises(ValueError, match="defect vertex 3 not in 1..2"):
        defected_sums(pair, 2, [[3], []])
    # one color per vertex: the walk must not recurse per vertex
    assert defected_sums(Multigraph(2000, ()), 1, [[]] * 2000) == {0: 1}


def test_degree_and_odd_degree():
    g = Multigraph(3, ((1, 2), (1, 2), (2, 3)))
    assert g.odd_degree_count() == 2
    loop = Multigraph(1, ((1, 1),))
    assert any(u == v for u, v in loop.edges)
    assert loop.odd_degree_count() == 0


def test_validation():
    with pytest.raises(ValueError):
        Multigraph(2, ((1, 3),))
