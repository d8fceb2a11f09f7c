"""Partition function identities with exact rational couplings."""

import random
from fractions import Fraction
from math import prod

import pytest

from qbichromate.graphcore import Multigraph, ParseError
from qbichromate.polyq import LaurentPoly
from qbichromate.statmech import (Couplings, ising_direct, ising_pair,
                                  lemma_w_eval, parse_couplings, potts_direct,
                                  potts_fk, qpotts_pair, vdw_pair)
from conftest import load_fixture, uniform_ch, uniform_v
from oracles import constant_value, substitute

TRI = Multigraph(3, ((1, 2), (2, 3), (1, 3)))
PATH3 = Multigraph(3, ((1, 2), (2, 3)))


def test_couplings_validation():
    with pytest.raises(ValueError):
        Couplings("ch", ((Fraction(2), Fraction(1)),))
    with pytest.raises(ValueError):
        Couplings("ch", ((Fraction(-5, 4), Fraction(3, 4)),))
    with pytest.raises(ValueError):
        Couplings("x", (Fraction(1),))
    with pytest.raises(ValueError):
        Couplings("v", (0.5,))
    w = uniform_ch(2, Fraction(5, 4), Fraction(3, 4))
    assert len(w.values) == 2
    with pytest.raises(ValueError):
        w.check_edge_count(TRI)


def test_parse_couplings():
    w = parse_couplings("v 1/2\nv -2\nv 3\n")
    assert w.kind == "v"
    assert w.values == (Fraction(1, 2), Fraction(-2), Fraction(3))
    w = parse_couplings("# pairs\nch 5/4 3/4\nch 5/3 4/3\n")
    assert w.kind == "ch"
    with pytest.raises(ParseError) as e:
        parse_couplings("v 1\nch 5/4 3/4\n")
    assert "line 2" in str(e.value)
    with pytest.raises(ParseError):
        parse_couplings("v one\n")
    with pytest.raises(ParseError):
        parse_couplings("")
    with pytest.raises(ParseError):
        parse_couplings("ch 2 1\n")


def test_load_couplings():
    w = load_fixture("hyp.c", parse_couplings)
    assert w.kind == "ch"
    assert w.values[0] == (Fraction(5, 4), Fraction(3, 4))


def test_potts_direct_equals_fk():
    w = Couplings("v", (Fraction(1, 2), Fraction(-2), Fraction(3)))
    for k in range(1, 4):
        assert potts_direct(TRI, k, w) == potts_fk(TRI, k, w)
    # wrong coupling kind is rejected
    ch = uniform_ch(3, Fraction(5, 4), Fraction(3, 4))
    with pytest.raises(ValueError):
        potts_direct(TRI, 2, ch)


def test_potts_fk_values_are_rational():
    w = uniform_v(2, Fraction(1))
    # v = 1 on both edges of a path: FK sum is k^3 + 2k^2 + k
    for k in (1, 2, 3):
        assert potts_fk(PATH3, k, w) == k ** 3 + 2 * k ** 2 + k


def test_qpotts_pair_small():
    w = uniform_v(2, Fraction(2))
    for k in (1, 2, 3):
        lhs, rhs = qpotts_pair(PATH3, k, w)
        assert lhs == rhs
        assert isinstance(lhs, LaurentPoly)
    # q = 1 recovers the ordinary random-cluster sum
    lhs, _ = qpotts_pair(PATH3, 2, w)
    assert (constant_value(substitute(lhs, "q", LaurentPoly.constant(1)))
            == potts_fk(PATH3, 2, w))


def test_ising_pair():
    w = load_fixture("hyp.c", parse_couplings)
    direct, via = ising_pair(TRI, w)
    assert direct == via
    assert direct == ising_direct(TRI, w)


def test_ising_direct_uniform():
    # c = 1, h = 0 makes every edge weight 1, leaving the bare
    # magnetization sum (q + 1/q)^3
    w = uniform_ch(3, 1, 0)
    q = LaurentPoly.variable("q")
    assert ising_direct(TRI, w) == (q + q ** -1) ** 3


def test_vdw_pair():
    w = load_fixture("hyp.c", parse_couplings)
    lhs, rhs = vdw_pair(TRI, w)
    assert lhs == rhs


def test_lemma_w():
    for g in (TRI, PATH3, Multigraph(2, ((1, 2), (1, 2)))):
        lhs, rhs = lemma_w_eval(g)
        assert lhs == rhs


def shuffled(vertex_count, edges, seed):
    """The graph with its vertex labels permuted."""
    labels = list(range(1, vertex_count + 1))
    random.Random(seed).shuffle(labels)
    return Multigraph(vertex_count, tuple((labels[u - 1], labels[v - 1])
                                          for u, v in edges))


def test_potts_closed_forms_on_long_paths_and_cycles():
    # 3^300 states: only a sweep whose cost grows with the frontier, not
    # with the vertex count, finishes these
    k, v, n = 3, Fraction(1, 2), 300
    path = shuffled(n, [(i, i + 1) for i in range(1, n)], 1)
    cycle = shuffled(n, [(i, i % n + 1) for i in range(1, n + 1)], 2)
    assert potts_direct(path, k, uniform_v(n - 1, v)) == \
        k * (k + v) ** (n - 1)
    assert potts_direct(cycle, k, uniform_v(n, v)) == \
        (k + v) ** n + (k - 1) * v ** n


def test_random_cluster_closed_forms_on_200_vertices():
    # 2^199 and 2^200 edge subsets: only the frontier sweep finishes
    # these.  On a path every subset is a forest, so the sum factors into
    # k times one (k + v_e) per edge; a cycle adds the whole cycle, one
    # component where the path form counts k.
    n = 200
    rng = random.Random(5)
    vs = [Fraction(rng.randint(-4, 6), rng.randint(1, 5)) for _ in range(n)]
    path = shuffled(n, [(i, i + 1) for i in range(1, n)], 3)
    cycle = shuffled(n, [(i, i % n + 1) for i in range(1, n + 1)], 4)
    for k in (1, 2, 3):
        product = prod(k + v for v in vs[:-1])
        assert potts_fk(path, k, Couplings("v", tuple(vs[:-1]))) == \
            k * product
        assert potts_fk(cycle, k, Couplings("v", tuple(vs))) == \
            prod(k + v for v in vs) + (k - 1) * prod(vs)


def test_qpotts_subset_form_on_long_cycles():
    # the subset form keys its sweep on the open block sizes; on a
    # cycle they grow with the vertex count, and the state form agrees
    n = 40
    cycle = shuffled(n, [(i, i % n + 1) for i in range(1, n + 1)], 6)
    rng = random.Random(7)
    w = Couplings("v", tuple(Fraction(rng.randint(-4, 6), rng.randint(1, 5))
                             for _ in range(n)))
    subset_form, state_form = qpotts_pair(cycle, 3, w)
    assert subset_form == state_form
