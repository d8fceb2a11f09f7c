"""Shared catalogs, fixture paths and coupling helpers."""

import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qbichromate.graphcore import Multigraph
from qbichromate.statmech import Couplings

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name):
    return str(FIXTURES / name)


def load_fixture(name, parse):
    """Parse a fixture file with one of the package's parse_* functions."""
    return parse((FIXTURES / name).read_text(encoding="utf-8"))


def uniform_v(edge_count, v):
    """v couplings with the same value on every edge."""
    return Couplings("v", (Fraction(v),) * edge_count)


def uniform_ch(edge_count, c, h):
    """ch couplings with the same (cosh, sinh) pair on every edge."""
    return Couplings("ch", ((Fraction(c), Fraction(h)),) * edge_count)


def small_simple_graphs(max_vertices=4):
    """Every labeled simple graph on 1..max_vertices vertices."""
    out = []
    for k in range(1, max_vertices + 1):
        pairs = list(combinations(range(1, k + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
            out.append(Multigraph(k, edges))
    return out


def five_vertex_graphs(max_edges=8):
    """Simple graphs on 5 vertices with at most max_edges edges, one
    per isomorphism class."""
    pairs = list(combinations(range(1, 6), 2))
    seen = set()
    out = []
    perms = list(permutations(range(1, 6)))
    for mask in range(1 << len(pairs)):
        edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
        if len(edges) > max_edges:
            continue
        canon = min(
            tuple(sorted(tuple(sorted((perm[u - 1], perm[v - 1])))
                         for u, v in edges))
            for perm in perms)
        if canon in seen:
            continue
        seen.add(canon)
        out.append(Multigraph(5, edges))
    return out


def special_graphs():
    """One multigraph and one loop case, as the catalog requires."""
    return [
        Multigraph(3, ((1, 2), (1, 2), (2, 3))),
        Multigraph(2, ((1, 1), (1, 2))),
    ]


@pytest.fixture(scope="session")
def catalog():
    """Exhaustive small-graph catalog: all labeled simple graphs on up
    to 4 vertices, all 5-vertex simple graphs with <= 8 edges up to
    isomorphism, plus a multigraph and a loop case."""
    return small_simple_graphs() + five_vertex_graphs() + special_graphs()


@pytest.fixture(scope="session")
def tiny_catalog():
    """All labeled simple graphs on up to 4 vertices plus the special
    cases; used by the exhaustive statistical-mechanics criteria."""
    return small_simple_graphs() + special_graphs()
