"""End-to-end identity checks, one test per advertised guarantee.

Every assertion here is exact polynomial or rational equality; nothing
is compared numerically or within a tolerance.
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

from qbichromate.arcflow import (catmm_flow_sum, colored_jones, cycle_fibers,
                                 delta_flow, enumerate_flows, flow_weight_beta,
                                 ma2_flow_sum, main_flow_weight, parse_arc,
                                 z_nf)
from qbichromate.chordal import (parse_structure, str2_pair, str20_pair,
                                 structure_count, tree_structures)
from qbichromate.graphcore import Multigraph
from qbichromate.knotdiag import (faces, jones, jones_via_bichromate,
                                  kauffman_f, median_graph, parse_pd,
                                  prop_mm_check, shadings)
from qbichromate.polyq import (LaurentPoly, qbinom, qbinomial_theorem_check)
from qbichromate.qchrom import bichromate, mq_direct, mq_subset, q_bichromate
from qbichromate.statmech import (Couplings, lemma_w_eval, potts_direct,
                                  potts_fk, qpotts_pair, vdw_pair)

import oracles
from conftest import fixture_path, load_fixture, uniform_ch
from oracles import mq_complete

ONE = LaurentPoly.constant(1)
Q = LaurentPoly.variable("q")
T = LaurentPoly.variable("t")

HYPERBOLIC_PAIRS = (
    (Fraction(5, 4), Fraction(3, 4)),
    (Fraction(5, 3), Fraction(4, 3)),
    (Fraction(13, 12), Fraction(5, 12)),
)


def mirror(p):
    return p.substitute("t", T ** -1)


def seeded_couplings(edge_count, seed):
    rng = random.Random(seed)
    return Couplings("v", tuple(Fraction(rng.randint(-4, 6), rng.randint(1, 5))
                                for _ in range(edge_count)))


# ---------------------------------------------------------------- criterion 1


def test_color_sum_equals_subset_expansion(catalog):
    assert any(len(g.edges) != len(set(g.edges)) for g in catalog)
    assert any(u == v for g in catalog for u, v in g.edges)
    for g in catalog:
        for n in range(1, 5):
            assert mq_direct(g, n) == mq_subset(g, n), (g, n)


def test_complete_graph_closed_form():
    for k in range(1, 6):
        edges = tuple((i, j) for i in range(1, k + 1)
                      for j in range(i + 1, k + 1))
        g = Multigraph(k, edges)
        for n in range(1, 7):
            assert mq_direct(g, n) == mq_complete(k, n), (k, n)


# ---------------------------------------------------------------- criterion 2


def test_color_sum_counts_colorings_at_q_one(tiny_catalog):
    for g in tiny_catalog:
        for n in range(1, 5):
            value = mq_direct(g, n).substitute("q", ONE)
            expect = oracles.chromatic_count(g.vertex_count, list(g.edges), n)
            assert value == LaurentPoly.constant(expect), (g, n)


def test_deformed_bichromate_reduces_at_q_one(tiny_catalog):
    b = LaurentPoly.variable("b")
    for g in tiny_catalog:
        for y in (2, 3, 4):
            lhs = q_bichromate(g, y).substitute("q", ONE).substitute("x", b)
            rhs = bichromate(g).substitute("a", LaurentPoly.constant(y))
            assert lhs == rhs, (g, y)


# ---------------------------------------------------------------- criterion 3


def test_binomial_theorem_and_pascal():
    for n in range(9):
        assert qbinomial_theorem_check(n)
    for m in range(1, 9):
        for j in range(m + 1):
            lhs = qbinom(m, j)
            rhs = qbinom(m - 1, j - 1) if j else LaurentPoly()
            if j < m:
                rhs = rhs + Q ** j * qbinom(m - 1, j)
            assert lhs == rhs
            rhs = qbinom(m - 1, j) if j < m else LaurentPoly()
            if j:
                rhs = rhs + Q ** (m - j) * qbinom(m - 1, j - 1)
            assert lhs == rhs


# ---------------------------------------------------------------- criterion 4


FIVE_VERTEX_SPOTS = (
    Multigraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))),
    Multigraph(5, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5))),
    Multigraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3), (2, 4),
                   (3, 5))),
)


def test_deformed_partition_sum_routes_agree(tiny_catalog):
    for g in list(tiny_catalog) + list(FIVE_VERTEX_SPOTS):
        for seed in range(10):
            w = seeded_couplings(len(g.edges), seed)
            for k in range(1, 5):
                subset_form, state_form = qpotts_pair(g, k, w)
                assert subset_form == state_form, (g, seed, k)
                at_one = subset_form.substitute("q", ONE)
                assert at_one == LaurentPoly.constant(potts_fk(g, k, w))


def test_partition_sum_state_route_equals_cluster_route(tiny_catalog):
    for g in tiny_catalog:
        w = seeded_couplings(len(g.edges), 0)
        for k in range(1, 5):
            assert potts_direct(g, k, w) == potts_fk(g, k, w), (g, k)


# ---------------------------------------------------------------- criterion 5


def test_odd_subgraph_expansion(tiny_catalog):
    for g in tiny_catalog:
        for c, h in HYPERBOLIC_PAIRS:
            w = uniform_ch(len(g.edges), c, h)
            lhs, rhs = vdw_pair(g, w)
            assert lhs == rhs, (g, c, h)


def test_even_subgraph_count_identity(tiny_catalog):
    for g in tiny_catalog:
        lhs, rhs = lemma_w_eval(g)
        assert lhs == rhs, g


# ---------------------------------------------------------------- criterion 6


def test_face_graph_state_model():
    for name in ("kink.pd", "kinkneg.pd", "trefoil.pd", "fig8.pd"):
        k = load_fixture(name, parse_pd)
        both = shadings(k)
        holds = prop_mm_check(k, both)
        for face in faces(k):
            assert holds[both.index(median_graph(k, face.id))], (name, face)


def test_face_graph_route_recovers_bracket():
    for name in ("trefoil.pd", "fig8.pd"):
        k = load_fixture(name, parse_pd)
        f = kauffman_f(k)
        for face in faces(k):
            m = median_graph(k, face.id)
            assert jones_via_bichromate(k, m) == f, (name, face)


def test_jones_normalization_and_oracle():
    for name in ("kink.pd", "kinkneg.pd"):
        assert jones(load_fixture(name, parse_pd)) == ONE
    for name in ("trefoil.pd", "fig8.pd"):
        with open(fixture_path(name), "r", encoding="utf-8") as handle:
            text = handle.read()
        got = jones(load_fixture(name, parse_pd))
        expect = oracles.jones_from_bracket(text)
        assert {e[0] if e else 0: c for e, c in got.terms.items()} == expect


# ---------------------------------------------------------------- criterion 7


def test_flow_weights_agree_per_flow():
    for name in ("trefoil.arc", "fig8.arc"):
        g = load_fixture(name, parse_arc)
        for n in (1, 2, 3):
            for f in enumerate_flows(g, n):
                catmm = catmm_flow_sum(g, f, n)
                assert catmm == ma2_flow_sum(g, f, n), (name, n, f)
                lhs = z_nf(g, f, n) * catmm
                rhs = T ** delta_flow(g, f) * main_flow_weight(g, f, n)
                assert lhs == rhs, (name, n, f)


def test_flow_route_totals_agree():
    for name in ("trefoil.arc", "fig8.arc"):
        g = load_fixture(name, parse_arc)
        for n in (1, 2, 3):
            main = colored_jones(g, n, route="main")
            assert main == colored_jones(g, n, route="catmm"), (name, n)
            assert main == colored_jones(g, n, route="ma2"), (name, n)


def test_cycle_fibers_at_level_one():
    for name in ("trefoil.arc", "fig8.arc"):
        g = load_fixture(name, parse_arc)
        flows = enumerate_flows(g, 1)
        fibers = cycle_fibers(g)
        assert set(fibers) == set(flows), name
        for f in flows:
            fiber = fibers[f]
            assert fiber == main_flow_weight(g, f, 1), (name, f)
            assert fiber == flow_weight_beta(g, f), (name, f)


def test_saturated_flows_vanish():
    for name in ("trefoil.arc", "fig8.arc"):
        g = load_fixture(name, parse_arc)
        for n in (1, 2):
            admitted = set(enumerate_flows(g, n))
            over = [f for f in enumerate_flows(g, n + 1) if f not in admitted]
            assert over, (name, n)
            for f in over:
                assert main_flow_weight(g, f, n) == LaurentPoly(), (name, n, f)
                assert catmm_flow_sum(g, f, n) == LaurentPoly(), (name, n, f)
                assert ma2_flow_sum(g, f, n) == LaurentPoly(), (name, n, f)


# ---------------------------------------------------------------- criterion 8


def test_level_one_matches_diagram_invariant():
    arc = load_fixture("trefoil.arc", parse_arc)
    pd = load_fixture("trefoil.pd", parse_pd)
    assert colored_jones(arc, 1) == mirror(jones(pd))
    arc8 = load_fixture("fig8.arc", parse_arc)
    pd8 = load_fixture("fig8.pd", parse_pd)
    assert colored_jones(arc8, 1) == mirror(jones(pd8))


# ---------------------------------------------------------------- criterion 9


def rooted_trees(max_nodes):
    out = []

    def grow(parents):
        out.append(tuple(parents))
        if len(parents) < max_nodes:
            for p in range(1, len(parents) + 1):
                grow(parents + [p])

    grow([0])
    return out


def contiguous_a_sets(sizes):
    blocks = []
    start = 1
    for size in sizes:
        blocks.append(frozenset(range(start, start + size)))
        start += size
    return tuple(blocks)


def grid_instances(max_nodes, amax, bmax, max_ground=None):
    for parents in rooted_trees(max_nodes):
        k = len(parents)
        for sizes in itertools.product(range(1, amax + 1), repeat=k):
            if max_ground is not None and sum(sizes) > max_ground:
                continue
            a_sets = contiguous_a_sets(sizes)
            for bs in itertools.product(range(bmax + 1), repeat=k - 1):
                yield parents, a_sets, (0,) + tuple(bs)


def test_structure_count_matches_enumeration():
    checked = 0
    for parents, a_sets, b_sizes in grid_instances(4, 3, 2):
        ss = list(tree_structures(parents, a_sets, b_sizes))
        assert structure_count(parents, a_sets, b_sizes) == len(ss)
        checked += 1
    assert checked == 13638


def str_grid():
    for parents, a_sets, b_sizes in grid_instances(3, 3, 2, max_ground=5):
        yield parents, a_sets, b_sizes, (1, 2, 3)
    for parents, a_sets, b_sizes in grid_instances(4, 2, 2, max_ground=5):
        if len(parents) == 4:
            yield parents, a_sets, b_sizes, (2,)
    chain = load_fixture("chain.s", parse_structure)
    yield chain + ((4,),)
    yield (0, 1), (frozenset({1, 2}), frozenset({3})), (0, 1), (4,)


def test_defected_color_sum_per_structure():
    pairs = 0
    for parents, a_sets, b_sizes, zs in str_grid():
        for s in tree_structures(parents, a_sets, b_sizes):
            for z in zs:
                lhs, rhs = str2_pair(s, z)
                assert lhs == rhs, (parents, a_sets, b_sizes, z)
                pairs += 1
    assert pairs > 900


def test_defected_color_sum_aggregate_and_invariance():
    for parents, a_sets, b_sizes, zs in str_grid():
        ss = list(tree_structures(parents, a_sets, b_sizes))
        for z in zs:
            lhs, rhs, pairs = str20_pair(parents, a_sets, b_sizes, z)
            assert lhs == rhs, (parents, a_sets, b_sizes, z)
            assert pairs == [str2_pair(s, z) for s in ss]
            # the per-structure sum does not depend on the structure
            values = {left for left, _ in pairs}
            assert len(values) <= 1, (parents, a_sets, b_sizes, z)


# --------------------------------------------------------------- criterion 10

INVOCATIONS = [
    ["qchrom", "--graph", "k2.g", "--n", "2"],
    ["bichromate", "--graph", "tri.g"],
    ["tutte", "--graph", "tri.g", "--form", "whitney-rank"],
    ["qbichromate", "--graph", "tri.g", "--y", "3"],
    ["potts", "--graph", "tri.g", "--couplings", "v.c", "--k", "3"],
    ["qpotts", "--graph", "tri.g", "--couplings", "v.c", "--k", "2"],
    ["ising", "--graph", "tri.g", "--couplings", "hyp.c"],
    ["vdw", "--graph", "tri.g", "--couplings", "hyp.c"],
    ["jones", "--pd", "trefoil.pd"],
    ["jones", "--pd", "fig8.pd", "--emit", "json"],
    ["median", "--pd", "trefoil.pd", "--outer-face", "0"],
    ["median", "--pd", "trefoil.pd"],
    ["colored-jones", "--arc", "trefoil.arc", "--n", "2"],
    ["colored-jones", "--arc", "fig8.arc", "--n", "1", "--route", "catmm"],
    ["chordal-check", "--graph", "c4.g"],
    ["identities", "--suite", "qbinom"],
    ["identities", "--suite", "qchrom", "--graph", "tri.g"],
    ["identities", "--suite", "potts", "--graph", "tri.g",
     "--couplings", "v.c", "--k", "2"],
    ["identities", "--suite", "qpotts", "--graph", "tri.g",
     "--couplings", "v.c", "--k", "3"],
    ["identities", "--suite", "vdw", "--graph", "tri.g",
     "--couplings", "hyp.c"],
    ["identities", "--suite", "bracket", "--pd", "fig8.pd"],
    ["identities", "--suite", "arcflow", "--arc", "trefoil.arc", "--n", "2"],
    ["identities", "--suite", "chordal", "--structure", "chain.s", "--z", "3"],
]


def resolve(argv):
    fixture_flags = {"--graph", "--couplings", "--pd", "--arc", "--structure"}
    out = []
    previous = None
    for token in argv:
        out.append(fixture_path(token) if previous in fixture_flags else token)
        previous = token
    return out


def test_cli_output_is_byte_stable():
    for argv in INVOCATIONS:
        resolved = resolve(argv)
        runs = [subprocess.run([sys.executable, "-m", "qbichromate.cli"]
                               + resolved, capture_output=True)
                for _ in range(2)]
        assert runs[0].returncode == runs[1].returncode == 0, (argv, runs[0].stderr)
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].stderr == runs[1].stderr == b"", argv
        if "json" in argv:
            json.loads(runs[0].stdout)
