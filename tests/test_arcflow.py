"""Arc-graph flows and the cabled colored invariant."""

import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qbichromate import arcflow
from qbichromate.arcflow import (ROUTES, ArcGraph, _ahead, catmm_flow_sum,
                                 colored_jones, cycle_families, cycle_fibers,
                                 delta_flow, enumerate_flows,
                                 flow_configurations, flow_weight_beta,
                                 ma2_flow_sum, main_flow_weight, parse_arc,
                                 red_copies, z_nf)
from qbichromate.graphcore import ParseError
from qbichromate.polyq import LaurentPoly
from conftest import FIXTURES, load_fixture
from oracles import (admissible_pairs_reference, catmm_terms_reference,
                     catmm_walk_reference, chord_diagrams,
                     configurations_reference, figure_eight_colored_jones,
                     flows_reference, is_conserved, ma2_terms_reference,
                     main_flow_weight_reference, qbinom_reference, qint,
                     torus_2k_colored_jones, trefoil_colored_jones,
                     z_nf_reference)

T = LaurentPoly.variable("t")


def trefoil():
    return load_fixture("trefoil.arc", parse_arc)


def fig8():
    return load_fixture("fig8.arc", parse_arc)


def fig8_red_first():
    # fig8.arc with r3 entering vertex 2 ahead of the blue edge b1
    return load_fixture("fig8_red_first.arc", parse_arc)


# Vertex 1 is entered by two red edges, r2 and r3, and no blue edge.
TWO_REDS = ("crossings 5\nsigns + + - + -\nover 4 1 1 2 3\n"
            + "".join("rot %s %d 0\n" % e for e in
                      [("b", 1), ("b", 2), ("b", 3),
                       ("r", 1), ("r", 2), ("r", 3), ("r", 4)])
            + "rotK 1\n")
REORDERED = TWO_REDS + "order 1 r 3 r 2\n"
# Vertex 3 is entered by two red edges and the blue edge.
THREE_INTO_3 = ("crossings 4\nsigns + + + -\nover 3 3 1 2\n"
                + "".join("rot %s %d 0\n" % e for e in
                          [("b", 1), ("b", 2), ("r", 1), ("r", 2), ("r", 3)]))


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
        assert is_conserved(g, f)
        assert all(v <= 2 for v in f)


def test_flow_counts_closed_forms():
    # fig8 flows are (a, b, a, b) for a + b <= n: C(n+2, 2) of them;
    # trefoil flows are (a, a) for a <= n
    g, h = fig8(), trefoil()
    for n in range(1, 31):
        assert len(enumerate_flows(g, n)) == math.comb(n + 2, 2), n
        assert len(enumerate_flows(h, n)) == n + 1, n


def test_flow_search_draws_only_bounded_values(monkeypatch):
    # The search draws each out-edge count's value tuples once per call,
    # keeping totals up to n, and every level tries only those: fig8 has
    # vertices with 0, 1 and 2 out-edges (1 + 13 + 169 draws at n = 12,
    # where drawing (n+1)^2 pairs at every visit took 3,393), the
    # trefoil vertices with 0 and 1.
    drawn = []

    def counting_product(*iterables, repeat=1):
        for values in product(*iterables, repeat=repeat):
            drawn.append(values)
            yield values

    for g, n, kept, draws in ((fig8(), 12, 91, 183), (trefoil(), 16, 17, 18)):
        expected = flows_reference(g, n)
        monkeypatch.setattr(arcflow, "product", counting_product)
        drawn.clear()
        assert enumerate_flows(g, n) == expected
        monkeypatch.undo()
        assert (len(expected), len(drawn)) == (kept, draws)


def test_flow_search_tries_only_the_in_flow_bucket(monkeypatch):
    # every value tuple a level tries is written into the flow through one
    # zip; a vertex entered only from earlier levels tries just the values
    # adding up to its in-flow (fig8's vertex 3, TWO_REDS' vertices 3 and
    # 4), where checking every bounded tuple tried 2,379 and 100,620
    tried = []

    def counting_zip(*iterables):
        tried.append(iterables[-1])
        return zip(*iterables)

    for g, n, kept, tries in ((fig8(), 12, 91, 1287),
                              (parse_arc(TWO_REDS), 8, 825, 10320)):
        monkeypatch.setattr(arcflow, "zip", counting_zip, raising=False)
        tried.clear()
        flows = enumerate_flows(g, n)
        monkeypatch.undo()
        assert (len(flows), len(tried)) == (kept, tries)


# Work cap for the drawn arcs: n^copies value tuples times configurations.
BUDGET = 5000


def pair_work(g, f, n):
    return n ** len(red_copies(g, f)) * len(flow_configurations(g, f))


def assert_searches_match(g, n, budget=None):
    """The flow search against generate-and-test, lists compared in
    order, and catmm_flow_sum against the defects counted on every
    admissible pair.  With a budget, flows whose pair_work exceeds it
    are compared against the per-configuration walk instead."""
    flows = enumerate_flows(g, n)
    assert flows == flows_reference(g, n), n
    for f in flows:
        if budget is not None and pair_work(g, f, n) > budget:
            terms = catmm_walk_reference(g, f, n)
        else:
            pairs = admissible_pairs_reference(g, f, n)
            terms = catmm_terms_reference(g, f, pairs)
        assert catmm_flow_sum(g, f, n) == LaurentPoly.from_powers(
            "t", terms), (n, f)


def test_searches_match_generate_and_test():
    arcs = [trefoil(), fig8(), fig8_red_first()] + [parse_arc(text) for text in
                                  (TWO_REDS, REORDERED, THREE_INTO_3)]
    for g in arcs:
        for n in (1, 2, 3):
            assert_searches_match(g, n)


@st.composite
def arc_graphs(draw):
    """Arc data with 2..5 crossings and any over-arcs, self-loops and
    several reds into one vertex included, each vertex's entering edges,
    the blue edge included, drawn in any order."""
    r = draw(st.integers(2, 5))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=r, max_size=r))
    over = draw(st.lists(st.integers(1, r), min_size=r, max_size=r))
    plain = ArcGraph(signs, over)
    orders = {w: draw(st.permutations(plain.entering(w)))
              for w in range(1, r) if len(plain.entering(w)) > 1}
    return ArcGraph(signs, over, orders=orders)


@st.composite
def decorated_arc_graphs(draw):
    """Drawn arc data with a rot value on every reduced edge and a rotK
    of the parity that makes the level-one normalization integral."""
    g = draw(arc_graphs())
    rot = {e: draw(st.integers(-2, 2)) for e in g.reduced_edges}
    rot_k = 2 * draw(st.integers(-3, 3)) + sum(g.signs) % 2
    orders = {w: g.entering(w) for w in range(1, g.r)}
    return ArcGraph(g.signs, g.over, rot=rot, orders=orders, rot_k=rot_k)


@settings(max_examples=100, deadline=None)
@given(arc_graphs(), st.integers(1, 3))
def test_searches_match_generate_and_test_on_drawn_arcs(g, n):
    assert_searches_match(g, n, budget=BUDGET)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_catmm_equals_ma2_per_flow_in_any_entering_order(data):
    # the order reaches the routes only through _ahead, which feeds z_nf
    # and main_flow_weight, never the per-flow sums
    g = data.draw(arc_graphs())
    orders = {w: data.draw(st.permutations(g.entering(w)))
              for w in range(1, g.r) if len(g.entering(w)) > 1}
    h = ArcGraph(g.signs, g.over, orders=orders)
    for n in (1, 2, 3):
        for f in enumerate_flows(g, n):
            if pair_work(g, f, n) > BUDGET:
                continue
            sums = catmm_flow_sum(g, f, n)
            assert sums == ma2_flow_sum(g, f, n), (n, f)
            assert catmm_flow_sum(h, f, n) == sums, (n, f)
            assert ma2_flow_sum(h, f, n) == sums, (n, f)


def test_catmm_product_matches_the_walk():
    # the product against the per-configuration walk at levels past the
    # admissible-pair references' reach
    for g in (trefoil(), fig8(), fig8_red_first()):
        for n in (4, 5):
            for f in enumerate_flows(g, n):
                assert catmm_flow_sum(g, f, n) == LaurentPoly.from_powers(
                    "t", catmm_walk_reference(g, f, n)), (n, f)


def test_catmm_sum_is_a_product():
    # a pool's values are distinct, and what a pool adds downstream
    # depends only on its size: an arrival to a pool of p adds
    # [n - p]_t, and keeping k of a pool of s adds [s choose k]_(1/t).
    # So each flow's sum is a product, and it does not depend on the
    # entering order.  The arrival factors here come from qint, the
    # Gaussians from the Pascal recursion, and all factors multiply as
    # LaurentPolys, not by the kernel's (1 - t^a) passes.  A flow
    # carrying more than n somewhere has no values, and a factor [0]_t
    # makes its sum 0.
    for g in (trefoil(), fig8(), fig8_red_first()) + tuple(
            parse_arc(text) for text in (TWO_REDS, REORDERED, THREE_INTO_3)):
        flows = enumerate_flows(g, 4)
        for n in (1, 2, 3, 4):
            for f in flows:
                value = dict(zip(g.reduced_edges, f))
                product_form = LaurentPoly.constant(1)
                for v in range(1, g.r):
                    riding = value.get(("b", v - 1), 0)
                    pool = riding + sum(value[e] for e in g.entering(v)
                                        if e[0] == "r")
                    for p in range(riding, pool):
                        product_form = product_form * qint(max(n - p, 0), T)
                    product_form = product_form * qbinom_reference(
                        pool, value.get(("b", v), 0), T ** -1)
                assert catmm_flow_sum(g, f, n) == product_form, (n, f)


def test_z_nf_matches_reference():
    for g in (trefoil(), fig8(), fig8_red_first()):
        for n in range(1, 5):
            for f in enumerate_flows(g, n):
                assert z_nf(g, f, n) == z_nf_reference(g, f, n), (n, f)


@settings(max_examples=100, deadline=None)
@given(decorated_arc_graphs(), st.integers(1, 3))
def test_z_nf_matches_reference_on_drawn_arcs(g, n):
    for f in enumerate_flows(g, n):
        assert z_nf(g, f, n) == z_nf_reference(g, f, n), (n, f)


def reference_flow_term(g, f, n):
    """z_nf_reference times the per-configuration catmm walk: a flow's
    term of the main and catmm routes, from references that import none
    of the (1 - t^a) passes."""
    return z_nf_reference(g, f, n) * LaurentPoly.from_powers(
        "t", catmm_walk_reference(g, f, n))


def assert_main_weights_match(g, n, budget=None):
    """t^delta(f) main_flow_weight against reference_flow_term, per flow.
    With a budget, flows whose pair_work exceeds it are skipped."""
    for f in enumerate_flows(g, n):
        if budget is not None and pair_work(g, f, n) > budget:
            continue
        assert T ** delta_flow(g, f) * main_flow_weight(g, f, n) \
            == reference_flow_term(g, f, n), (n, f)


def test_main_flow_weight_matches_reference():
    arcs = [trefoil(), fig8(), fig8_red_first()] + [parse_arc(text) for text in
                                  (TWO_REDS, REORDERED, THREE_INTO_3)]
    for g in arcs:
        for n in range(1, 6):
            assert_main_weights_match(g, n, budget=BUDGET)


def test_main_flow_weight_is_the_closed_form_on_the_shipped_arcs():
    # the paper's closed form, one Gaussian per vertex and one unit
    # factor per red copy, holds on trefoil.arc and fig8.arc; it is not
    # the main weight on every arc
    for g in (trefoil(), fig8()):
        for n in range(1, 6):
            for f in enumerate_flows(g, n):
                assert main_flow_weight(g, f, n) \
                    == main_flow_weight_reference(g, f, n), (n, f)


@settings(max_examples=100, deadline=None)
@given(decorated_arc_graphs(), st.integers(1, 3))
def test_main_flow_weight_matches_reference_on_drawn_arcs(g, n):
    assert_main_weights_match(g, n, budget=BUDGET)


@settings(max_examples=50, deadline=None)
@given(decorated_arc_graphs(), st.integers(1, 3))
def test_main_route_is_the_reference_sum_on_drawn_arcs(g, n):
    # t^delta(K,n) times the sum of reference_flow_term; the drawn rotK
    # makes delta(K,n) integral at every n
    total = LaurentPoly()
    for f in enumerate_flows(g, n):
        total = total + reference_flow_term(g, f, n)
    delta = (n * n * sum(g.signs) + n * g.rot_k) // 2
    assert colored_jones(g, n, route="main") == T ** delta * total


@settings(max_examples=50, deadline=None)
@given(decorated_arc_graphs(), st.integers(1, 3))
def test_catmm_route_is_the_reference_sum_on_drawn_arcs(g, n):
    # t^delta(K,n) times the sum of z_nf times catmm_flow_sum, each
    # computed on its own, with its (1 - t) factors; the route cancels
    # them and never divides
    total = LaurentPoly()
    for f in enumerate_flows(g, n):
        total = total + z_nf(g, f, n) * catmm_flow_sum(g, f, n)
    delta = (n * n * sum(g.signs) + n * g.rot_k) // 2
    assert colored_jones(g, n, route="catmm") == T ** delta * total


@pytest.mark.parametrize("route", ("main", "catmm"))
def test_route_multiplies_once(monkeypatch, route):
    # the main and catmm routes add each flow's signed, shifted product,
    # in which z_nf's 1 - t per red copy has cancelled the [n-p]_t
    # denominators, to one integer exponent dict: on fig8 at each
    # (n, flow count), colored_jones makes one LaurentPoly product, the
    # t^delta(K,n) prefactor, and no power
    calls = []
    multiply, power = LaurentPoly.__mul__, LaurentPoly.__pow__

    def counting(operation):
        def counted(p1, p2):
            calls.append(operation.__name__)
            return operation(p1, p2)
        return counted

    g = fig8()
    for n, flows in ((6, 28), (12, 91)):
        monkeypatch.setattr(LaurentPoly, "__mul__", counting(multiply))
        monkeypatch.setattr(LaurentPoly, "__pow__", counting(power))
        calls.clear()
        colored_jones(g, n, route=route)
        monkeypatch.undo()
        assert (len(enumerate_flows(g, n)), calls) == (flows, ["__mul__"])


def test_flow_stats():
    g = trefoil()
    assert delta_flow(g, (1, 1)) == -1


def test_red_entering_orders():
    g, h = parse_arc(TWO_REDS), parse_arc(REORDERED)
    assert g.entering(1) == (("r", 2), ("r", 3))
    assert h.entering(1) == (("r", 3), ("r", 2))
    assert g.entering(2) == h.entering(2) == (("b", 1), ("r", 4))
    # b1 b2 b3 r1 r2 r3 r4
    f = (1, 1, 0, 2, 2, 1, 2)
    assert is_conserved(g, f)
    ahead = {e: _ahead(g, f, e) for e in g.reduced_edges}
    assert ahead == {("b", 1): 0, ("b", 2): 0, ("b", 3): 0, ("r", 1): 0,
                     ("r", 2): 0, ("r", 3): 2, ("r", 4): 1}
    ahead = {e: _ahead(h, f, e) for e in h.reduced_edges}
    assert ahead == {("b", 1): 0, ("b", 2): 0, ("b", 3): 0, ("r", 1): 0,
                     ("r", 2): 1, ("r", 3): 0, ("r", 4): 1}
    # copies are listed by arrival vertex, then entering order, then index
    tail = ((("r", 4), 0), (("r", 4), 1), (("r", 1), 0), (("r", 1), 1))
    assert red_copies(g, f) == ((("r", 2), 0), (("r", 2), 1),
                                (("r", 3), 0)) + tail
    assert red_copies(h, f) == ((("r", 3), 0), (("r", 2), 0),
                                (("r", 2), 1)) + tail
    # the blue edge may enter behind a red one
    k = parse_arc(TWO_REDS + "order 2 r 4 b 1\n")
    assert k.entering(2) == (("r", 4), ("b", 1))
    assert (_ahead(k, f, ("b", 1)), _ahead(k, f, ("r", 4))) == (2, 0)
    assert red_copies(k, f) == red_copies(g, f)


def test_chord_diagrams_start_in_entering_order():
    # one copy each of r2 and r3 starts at vertex 1; the configurations
    # drop r2 then r3 at vertex 2, and the other copy at vertex 3
    f = (2, 1, 0, 0, 1, 1, 0)
    nested, crossing = ((0, 3), (1, 2)), ((0, 2), (1, 3))
    groups = ((2, 0), (0, 1), (0, 1), (0, 0))
    for text, chords in ((TWO_REDS, [crossing, nested]),
                         (REORDERED, [nested, crossing])):
        g = parse_arc(text)
        assert chord_diagrams(g, f) == [(c, groups, 1) for c in chords]
        for n in (2, 3):
            assert ma2_flow_sum(g, f, n) == LaurentPoly.from_powers(
                "t", ma2_terms_reference(g, f, n)), n


def assert_ma2_matches_end_orders(g, n, budget=None):
    """ma2_flow_sum against the every-end-order average, per flow.  With
    a budget, flows whose pair_work or end-order count exceeds it are
    skipped."""
    for f in enumerate_flows(g, n):
        if budget is not None and (pair_work(g, f, n) > budget
                                   or end_order_work(g, f) > budget):
            continue
        assert ma2_flow_sum(g, f, n) == LaurentPoly.from_powers(
            "t", ma2_terms_reference(g, f, n)), (n, f)


def end_order_work(g, f):
    """End orders the reference tries: per configuration, the product
    over vertices of (copies dropped there)!."""
    total = 0
    for drop in flow_configurations(g, f):
        total += math.prod(math.factorial(drop.count(v)) for v in set(drop))
    return total


def test_ma2_matches_every_end_order():
    arcs = [trefoil(), fig8(), fig8_red_first()] + [parse_arc(text) for text in
                                  (TWO_REDS, REORDERED, THREE_INTO_3)]
    for g in arcs:
        for n in (1, 2, 3):
            assert_ma2_matches_end_orders(g, n)


@settings(max_examples=100, deadline=None)
@given(arc_graphs(), st.integers(1, 3))
def test_ma2_matches_every_end_order_on_drawn_arcs(g, n):
    assert_ma2_matches_end_orders(g, n, budget=BUDGET)


def test_ma2_folds_one_layout_per_configuration(monkeypatch):
    g = trefoil()
    n = 3
    calls = []
    fold = arcflow.mdef_chord
    monkeypatch.setattr(arcflow, "mdef_chord",
                        lambda chords, m: calls.append(chords)
                        or fold(chords, m))
    colored_jones(g, n, route="ma2")
    assert len(calls) == sum(len(flow_configurations(g, f))
                             for f in enumerate_flows(g, n)) == 4
    # a chord runs from (arrival, 0, k), the k-th copy arriving there, to
    # (drop, 1); on the flow (2, 2) both r2 copies arrive at vertex 1 and
    # ride b1 to the last vertex
    assert (((1, 0, 0), (2, 1)), ((1, 0, 1), (2, 1))) in calls


def test_two_reds_into_one_vertex_catmm_equals_ma2():
    for arc in (parse_arc(TWO_REDS), parse_arc(REORDERED)):
        for n in (1, 2, 3):
            for f in enumerate_flows(arc, n):
                assert catmm_flow_sum(arc, f, n) == ma2_flow_sum(arc, f, n), \
                    (n, f)


def test_parse_order_errors():
    head = "crossings 5\nsigns + + - + -\nover 4 1 1 2 3\n"
    # any order of a vertex's entering edges, the blue one included
    assert parse_arc(head + "order 2 b 1 r 4\n").entering(2) \
        == (("b", 1), ("r", 4))
    for bad in ("order 2 r 4\n",          # the blue edge b1 left out
                "order 1 r 2\n",          # r3 left out
                "order 1 r 2 r 3 r 4\n",  # r4 enters vertex 2
                "order 2 b 2 r 4\n",      # b2 enters vertex 3
                "order 1 r 2 r 2\n",      # r2 repeated
                "order 1 x 2 r 3\n",      # no edge kind x
                "order 1 r 2 r\n"):       # a kind without its edge
        with pytest.raises(ParseError):
            parse_arc(head + bad)
    with pytest.raises(ParseError) as e:  # a duplicate order line
        parse_arc(head + "order 1 r 3 r 2\norder 1 r 2 r 3\n")
    assert "line 5" in str(e.value)
    with pytest.raises(ValueError):
        ArcGraph((1, 1, -1, 1, -1), (4, 1, 1, 2, 3),
                 orders={2: (("r", 4),)})


def test_parse_order_vertex_out_of_range():
    # the reduced graph has vertices 1..r-1: vertex r is deleted
    text = (FIXTURES / "trefoil.arc").read_text(encoding="utf-8")
    for bad in ("order 9\n", "order 3\n", "order 0 r 2\n"):
        with pytest.raises(ParseError) as e:
            parse_arc(text + bad)
        assert "out of range 1..2" in str(e.value)


def test_flow_configurations_count_and_drops():
    # C_i is chosen from C_{i-1} plus the copies arriving at i, so the
    # count is the product of C(f(b_{i-1}) + arrivals at i, f(b_i))
    for g in (trefoil(), fig8(), parse_arc(TWO_REDS)):
        red = [e for e in g.reduced_edges if e[0] == "r"]
        for n in (1, 2, 3):
            for f in enumerate_flows(g, n):
                value = dict(zip(g.reduced_edges, f))
                expect = 1
                for i in range(1, g.r - 1):
                    arriving = sum(value[e] for e in red if g.over[e[1] - 1] == i)
                    expect *= math.comb(value.get(("b", i - 1), 0) + arriving,
                                        value[("b", i)])
                configs = flow_configurations(g, f)
                assert len(configs) == expect, (f, n)
                assert len(set(configs)) == expect
                arrival = [g.target(e) for e, _ in red_copies(g, f)]
                for drop in configs:
                    assert len(drop) == len(arrival)
                    assert all(w <= d <= g.r - 1
                               for w, d in zip(arrival, drop)), (f, drop)
                    for i in range(1, g.r - 1):
                        riders = sum(1 for w, d in zip(arrival, drop)
                                     if w <= i < d)
                        assert riders == value[("b", i)], (f, drop, i)


def assert_configurations_match(g, n, budget=None):
    """flow_configurations against every drop map of the reference, the
    map read in red_copies order.  With a budget, flows whose drop-map
    product exceeds it are skipped."""
    for f in enumerate_flows(g, n):
        copies = red_copies(g, f)
        if budget is not None and math.prod(
                g.r - g.target(e) for e, _ in copies) > budget:
            continue
        expect = {tuple(drop[c] for c in copies)
                  for drop, _ in configurations_reference(g, f)}
        assert set(flow_configurations(g, f)) == expect, (n, f)


def test_flow_configurations_match_reference():
    arcs = [trefoil(), fig8(), fig8_red_first()] + [parse_arc(text) for text in
                                  (TWO_REDS, REORDERED, THREE_INTO_3)]
    for g in arcs:
        for n in (1, 2, 3):
            assert_configurations_match(g, n)


@settings(max_examples=100, deadline=None)
@given(arc_graphs(), st.integers(1, 3))
def test_flow_configurations_match_reference_on_drawn_arcs(g, n):
    assert_configurations_match(g, n, budget=BUDGET)


def test_missing_rot_raises():
    bare = ArcGraph((1, 1, 1), (3, 1, 2))
    with pytest.raises(ValueError):
        delta_flow(bare, (1, 1))


def test_colored_jones_n1():
    g = trefoil()
    expect = T ** -1 + T ** -3 - T ** -4
    for route in ("main", "catmm", "ma2"):
        assert colored_jones(g, 1, route=route) == expect
    g8 = fig8()
    expect8 = 1 + T ** -2 - T ** -1 + T ** 2 - T
    for route in ("main", "catmm", "ma2"):
        assert colored_jones(g8, 1, route=route) == expect8
    with pytest.raises(ValueError):
        colored_jones(g, 1, route="bogus")


@settings(max_examples=100, deadline=None)
@given(decorated_arc_graphs())
def test_level_one_is_the_cycle_flow_sum_on_drawn_arcs(g):
    # t^delta(K,1) times the sum over level-one flows f of t^delta(f)
    # beta(f), delta(K,1) = (sign sum + rotK) / 2; every route gives it,
    # and the cycle families lift exactly these flows with these weights
    flows = enumerate_flows(g, 1)
    total = LaurentPoly()
    for f in flows:
        total = total + T ** delta_flow(g, f) * flow_weight_beta(g, f)
    expect = T ** ((sum(g.signs) + g.rot_k) // 2) * total
    for route in ROUTES:
        assert colored_jones(g, 1, route=route) == expect, route
    assert cycle_fibers(g) == {f: flow_weight_beta(g, f) for f in flows}


def _monomial_shift(p, oracle):
    """The s with p = t^s oracle(t) or p = t^s oracle(1/t), else None."""
    terms = {(exps[0] if exps else 0): c for exps, c in p.terms.items()}
    for q in (oracle, {-e: c for e, c in oracle.items()}):
        s = min(terms) - min(q)
        if len(terms) == len(q) and all(terms.get(e + s) == c
                                        for e, c in q.items()):
            return s
    return None


def test_trefoil_matches_le_sum():
    # Le's sum for the trefoil is independent of every arcflow route;
    # the framing left in colored_jones is a monomial, t^(3n(n-1)/2)
    g = trefoil()
    for n in (1, 2, 3):
        assert _monomial_shift(colored_jones(g, n),
                               trefoil_colored_jones(n + 1)) is not None


def test_morton_formula_matches_le_sum_and_jones():
    # two independent oracles: Morton's torus-knot formula is Le's sum on
    # the trefoil T(2, 3), and at N = 2 it is the mirror of the Jones
    # polynomial t^((k-1)/2) (1 + t^2 - t^3 + ... - t^k) of T(2, k)
    for N in range(1, 7):
        assert torus_2k_colored_jones(3, N) == trefoil_colored_jones(N), N
    for k in (3, 5, 7, 9):
        jones = {(k - 1) // 2: 1}
        jones.update({(k - 1) // 2 + j: (-1) ** j for j in range(2, k + 1)})
        assert torus_2k_colored_jones(k, 2) == {-e: c for e, c
                                                in jones.items()}, k
        assert torus_2k_colored_jones(k, 1) == {0: 1}, k


def test_fig8_level_one_matches_habiro_sum():
    assert _monomial_shift(colored_jones(fig8(), 1),
                           figure_eight_colored_jones(2)) == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: colored_jones on "
                   "fig8 at n >= 2 disagrees with Habiro's sum")
def test_fig8_matches_habiro_sum():
    assert _monomial_shift(colored_jones(fig8(), 2),
                           figure_eight_colored_jones(3)) is not None


def test_fig8_red_first_matches_habiro_sum():
    # with r3 entering vertex 2 ahead of b1, every route gives Habiro's
    # sum exactly
    g = fig8_red_first()
    for route, levels in (("main", range(1, 13)), ("catmm", range(1, 13)),
                          ("ma2", range(1, 5))):
        for n in levels:
            assert _monomial_shift(colored_jones(g, n, route=route),
                                   figure_eight_colored_jones(n + 1)) == 0, \
                (route, n)


def test_fig8_red_first_catmm_equals_ma2_per_flow():
    # past the levels the references reach, the two per-flow sums check
    # each other: 28 flows at n = 6
    g = fig8_red_first()
    n = 6
    for f in enumerate_flows(g, n):
        assert catmm_flow_sum(g, f, n) == ma2_flow_sum(g, f, n), f


def test_fig8_red_first_main_equals_catmm():
    g = fig8_red_first()
    assert colored_jones(g, 2, route="main") \
        == colored_jones(g, 2, route="catmm")


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
    # the cable at level one is the reduced graph itself: the trefoil's
    # cycle families are the empty one and the 2-cycle b1 r2, which lifts
    # the flow (1, 1) with its beta weight
    g = trefoil()
    assert cycle_families(g) == [frozenset(),
                                 frozenset({("b", 1), ("r", 2)})]
    assert cycle_fibers(g) == {(0, 0): 1, (1, 1): T ** -1 * (1 - T ** -1)}
    assert flow_weight_beta(g, (1, 1)) == T ** -1 * (1 - T ** -1)


def test_cycle_families_are_disjoint():
    # a family is a set of reduced edges forming vertex-disjoint cycles,
    # so inside one family every touched vertex has in- and out-degree
    # one; the families are the level-one flows, found without the flow
    # search
    for g in (fig8(), parse_arc(TWO_REDS), parse_arc(THREE_INTO_3)):
        fams = cycle_families(g)
        assert frozenset() in fams
        assert len(set(fams)) == len(fams)
        for fam in fams:
            sources = [e[1] for e in fam]
            targets = [g.target(e) for e in fam]
            assert len(set(sources)) == len(sources)
            assert len(set(targets)) == len(targets)
            assert set(sources) == set(targets)
        assert sorted(tuple(int(e in fam) for e in g.reduced_edges)
                      for fam in fams) == flows_reference(g, 1)
        assert cycle_fibers(g) == {f: flow_weight_beta(g, f)
                                   for f in enumerate_flows(g, 1)}
