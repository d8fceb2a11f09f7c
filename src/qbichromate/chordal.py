"""Chordal graphs, tree structures, and their exact coloring identities.

A tree structure lives on a rooted tree.  Every node w owns a set A_w of
ground elements (the sets A_w partition the ordered ground set 1..k) and
carries a set B_w of elements inherited from its ancestors, of a
prescribed size b_w.  The bag of w is A_w together with B_w; each B_w is
chosen from the parent's bag, the root inheriting nothing.  Ground
labels must grow away from the root: an element owned by a node is
larger than every element owned by a strict ancestor.

The bags determine a graph on the ground set (two elements are adjacent
exactly when they share a bag); that graph is always chordal, and peo
recovers a perfect elimination order for any chordal graph.

Two identities are implemented as computable pairs, both sides exact
polynomials in q:

- str2_pair: the sum of q^(colors minus defects) over bag-injective
  colorings equals a product of q-integers (z - m(x))_q, where m(x)
  counts the bag elements below x in x's owning bag.  The left side
  depends only on the prescribed sizes, not on which structure was
  chosen; the plain (non-defected) color sum has no such invariance.
- str20_pair: the defected coloring sums (the left side of str2_pair)
  of all structures of an instance, added up, equal the number of
  structures times the same q-integer product.  It also returns the
  str2_pair of each structure it summed, so the chordal suite computes
  each structure's defected sum once.
"""

import math
from itertools import combinations

from .graphcore import (Multigraph, ParseError, _content_lines, _numbers,
                        _Record)
from .polyq import LaurentPoly, _divide_one_minus, _times_one_minus


class NotChordal(Exception):
    """Raised by peo on a graph with a chordless cycle of length >= 4.

    The certificate cycle is the .cycle attribute, vertices in cyclic
    order.
    """

    def __init__(self, cycle):
        super().__init__("chordless cycle of length %d: %s"
                         % (len(cycle), " ".join(str(v) for v in cycle)))
        self.cycle = tuple(cycle)


def peo(g):
    """Perfect elimination order of a simple chordal graph.

    Returns (order, m) where order is a vertex sequence in which every
    vertex's earlier neighbors form a clique and m[i] is the number of
    earlier neighbors of order[i].  Deterministic: the largest simplicial
    vertex of the remaining graph is eliminated first and placed last.

    Raises NotChordal with a certificate cycle when no such order
    exists, and ValueError on loops or parallel edges.
    """
    adj = {v: set() for v in range(1, g.vertex_count + 1)}
    for u, v in g.edges:
        if u == v:
            raise ValueError("chordality is about simple graphs; "
                             "vertex %d has a loop" % u)
        if v in adj[u]:
            raise ValueError("chordality is about simple graphs; "
                             "edge %d %d repeats" % (u, v))
        adj[u].add(v)
        adj[v].add(u)
    full = {v: frozenset(nbrs) for v, nbrs in adj.items()}
    order = []
    while adj:
        simplicial = None
        for v in sorted(adj, reverse=True):
            if all(b in adj[a] for a, b in combinations(adj[v], 2)):
                simplicial = v
                break
        if simplicial is None:
            raise NotChordal(_chordless_cycle(adj))
        order.append(simplicial)
        for u in adj[simplicial]:
            adj[u].discard(simplicial)
        del adj[simplicial]
    order.reverse()
    seen = set()
    m = []
    for v in order:
        m.append(len(full[v] & seen))
        seen.add(v)
    return tuple(order), tuple(m)


def _chordless_cycle(adj):
    """Certificate extraction from a graph with no simplicial vertex.

    For a vertex v with non-adjacent neighbors a, b, any shortest a-b
    path avoiding the rest of v's closed neighborhood closes with v into
    a chordless cycle of length at least four.  Such a triple with a
    connecting path always exists here.
    """
    for v in sorted(adj):
        for a, b in combinations(sorted(adj[v]), 2):
            if b in adj[a]:
                continue
            blocked = (adj[v] | {v}) - {a, b}
            path = _shortest_path(adj, a, b, blocked)
            if path is not None:
                return (v,) + tuple(path)
    raise AssertionError("no simplicial vertex but no chordless cycle found")


def _shortest_path(adj, a, b, blocked):
    prev = {a: None}
    queue = [a]
    while queue:
        following = []
        for u in queue:
            for w in sorted(adj[u]):
                if w in blocked or w in prev:
                    continue
                prev[w] = u
                if w == b:
                    path = [b]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                following.append(w)
        queue = following
    return None


class TreeStructure(_Record):
    """One choice of inherited sets on a rooted tree.

    parents[w-1] is the parent of node w (0 marks the root); a_sets and
    b_sets hold frozensets per node.  Ground elements are 1..k.
    """

    __slots__ = ("parents", "a_sets", "b_sets")

    def __init__(self, parents, a_sets, b_sets):
        _Record.__init__(self, parents, a_sets, b_sets)

    @property
    def node_count(self):
        return len(self.parents)

    @property
    def ground_size(self):
        return sum(len(s) for s in self.a_sets)

    def bag(self, w):
        if not 1 <= w <= self.node_count:
            raise ValueError("node %d out of range 1..%d" % (w, self.node_count))
        return self.a_sets[w - 1] | self.b_sets[w - 1]


def _instance(parents, a_sets, b_sizes):
    """Validate instance data; return (root, topdown, a_sets, b_sizes)."""
    parents = tuple(int(p) for p in parents)
    n = len(parents)
    if len(a_sets) != n or len(b_sizes) != n:
        raise ValueError("need one A set and one b size per tree node")
    roots = [w for w in range(1, n + 1) if parents[w - 1] == 0]
    if len(roots) != 1:
        raise ValueError("exactly one node must have parent 0")
    root = roots[0]
    children = {w: [] for w in range(1, n + 1)}
    for w in range(1, n + 1):
        if w == root:
            continue
        p = parents[w - 1]
        if not 1 <= p <= n or p == w:
            raise ValueError("node %d has invalid parent %d" % (w, p))
        children[p].append(w)
    topdown = [root]
    i = 0
    while i < len(topdown):
        topdown.extend(sorted(children[topdown[i]]))
        i += 1
    if len(topdown) != n:
        raise ValueError("the parent map does not form a tree")
    a_sets = tuple(frozenset(int(x) for x in s) for s in a_sets)
    ground = sorted(x for s in a_sets for x in s)
    k = len(ground)
    if ground != list(range(1, k + 1)):
        raise ValueError("the A sets must partition the ground set 1..k")
    b_sizes = tuple(int(b) for b in b_sizes)
    if any(b < 0 for b in b_sizes):
        raise ValueError("b sizes must be nonnegative")
    if b_sizes[root - 1] != 0:
        raise ValueError("the root inherits nothing; its b size must be 0")
    # above[w]: the largest label owned by a proper ancestor of w (0 if none)
    above = [0] * (n + 1)
    for w in topdown[1:]:
        p = parents[w - 1]
        above[w] = max(above[p], max(a_sets[p - 1], default=0))
    for w in range(1, n + 1):
        if a_sets[w - 1] and above[w] > min(a_sets[w - 1]):
            i = parents[w - 1]
            while max(a_sets[i - 1], default=0) <= min(a_sets[w - 1]):
                i = parents[i - 1]
            raise ValueError(
                "ground labels must grow away from the root: node %d "
                "owns a larger element than its descendant node %d"
                % (i, w))
    return root, tuple(topdown), a_sets, b_sizes


def structure_count(parents, a_sets, b_sizes):
    """Closed-form number of structures of an instance.

    The product over non-root nodes of C(a_p + b_p, b_w), p the parent.
    """
    root, topdown, a_sets, b_sizes = _instance(parents, a_sets, b_sizes)
    count = 1
    for w in topdown:
        if w == root:
            continue
        p = parents[w - 1]
        count *= math.comb(len(a_sets[p - 1]) + b_sizes[p - 1], b_sizes[w - 1])
    return count


def tree_structures(parents, a_sets, b_sizes):
    """Enumerate all structures of an instance, in a deterministic order.

    Top-down, each non-root node w takes every b_w-element subset of its
    parent's bag.  Instances whose sizes admit no choice at some node
    have no structures, so the list is empty; malformed instances raise
    ValueError.
    """
    root, topdown, a_sets, b_sizes = _instance(parents, a_sets, b_sizes)
    parents = tuple(int(p) for p in parents)
    n = len(parents)
    # An infeasible node empties the list; stop before building any level.
    for w in topdown:
        if w == root:
            continue
        p = parents[w - 1]
        if b_sizes[w - 1] > len(a_sets[p - 1]) + b_sizes[p - 1]:
            return []
    # Level by level, so earlier nodes in topdown order vary slowest.
    partial = [{root: frozenset()}]
    for w in topdown[1:]:
        p = parents[w - 1]
        partial = [{**chosen, w: frozenset(choice)} for chosen in partial
                   for choice in combinations(
                       sorted(a_sets[p - 1] | chosen[p]), b_sizes[w - 1])]
    results = [TreeStructure(parents, a_sets,
                             tuple(chosen[w] for w in range(1, n + 1)))
               for chosen in partial]
    for s in results:
        _check_heredity(s)
    return results


def _check_heredity(s):
    """Inherited elements persist along the tree path from their owner.

    Guaranteed by the top-down construction; checked as a sanity
    assertion.
    """
    for j in range(1, s.node_count + 1):
        for x in s.b_sets[j - 1]:
            i = s.parents[j - 1]
            while i != 0 and x not in s.a_sets[i - 1]:
                if x not in s.b_sets[i - 1]:
                    raise AssertionError(
                        "element %d skipped node %d on its way to node %d"
                        % (x, i, j))
                i = s.parents[i - 1]


def graph_of_structure(s):
    """The graph whose edges are the pairs sharing a bag.

    Always chordal: peo accepts it for every structure.
    """
    edges = set()
    for w in range(1, s.node_count + 1):
        for x, y in combinations(sorted(s.bag(w)), 2):
            edges.add((x, y))
    return Multigraph(s.ground_size, tuple(sorted(edges)))


def _qints(values):
    """Product of (v)_q over the values; zero if any value is <= 0.

    Built in a dense int row, (v)_q being (1 - q^v) / (1 - q): one
    multiply and one exact divide pass per value.
    """
    if any(v <= 0 for v in values):
        return LaurentPoly()
    row = [1]
    for v in values:
        row = _divide_one_minus(_times_one_minus(row, v), 1)
    return LaurentPoly.from_powers("q", dict(enumerate(row)))


def _defected_sum(s, z):
    """Sum of q^(sum of v_x - def(x)) over bag-injective colorings v of
    the ground set with colors 0..z-1, where def(x) counts elements y
    below x in x's owning bag with v_y < v_x.  A coloring is bag-injective
    exactly when it is proper on graph_of_structure(s)."""
    owner = {x: w for w, owned in enumerate(s.a_sets, start=1) for x in owned}
    defects = [[y for y in s.bag(owner[x]) if y < x]
               for x in range(1, s.ground_size + 1)]
    g = graph_of_structure(s)
    sums = g.state_sums(range(z), ((0, 1),) * g.edge_count, defects)
    return LaurentPoly.from_powers("q", sums)


def str2_pair(s, z):
    """Both sides of the defected color-sum identity at z colors.

    Left: the defected coloring sum of the structure.  Right: the
    product over ground elements of (z - m(x))_q.
    """
    if z < 1:
        raise ValueError("z must be a positive integer")
    lhs = _defected_sum(s, z)
    m_by_x = _m_values(s.a_sets, [len(b) for b in s.b_sets])
    rhs = _qints([z - m_by_x[x] for x in range(1, s.ground_size + 1)])
    return lhs, rhs


def str20_pair(parents, a_sets, b_sizes, z):
    """Both sides of the aggregated defected color-sum identity.

    Left: the defected coloring sum (the left side of str2_pair),
    totalled over every structure of the instance.  Right: the
    structure count times the product over ground elements of
    (z - m(x))_q.  Both the per-structure value and the count admit
    closed forms, so the aggregate does too; computing the left side by
    plain enumeration keeps the two sides independent.

    Returns (lhs, rhs, pairs), pairs holding the str2_pair of each
    structure in tree_structures order; lhs is the sum of their left
    sides, so a caller that checks every structure reads them from pairs
    instead of computing each defected sum again.
    """
    if z < 1:
        raise ValueError("z must be a positive integer")
    _, _, a_norm, b_norm = _instance(parents, a_sets, b_sizes)
    pairs = [str2_pair(s, z)
             for s in tree_structures(parents, a_sets, b_sizes)]
    lhs = sum((left for left, _ in pairs), LaurentPoly())
    m_by_x = _m_values(a_norm, b_norm)
    rhs = (LaurentPoly.constant(structure_count(parents, a_sets, b_sizes))
           * _qints([z - m_by_x[x] for x in sorted(m_by_x)]))
    return lhs, rhs, pairs


def _m_values(a_sets, b_sizes):
    """m(x) per ground element: the bag elements below x in x's owning
    bag w, that is b_w plus the smaller elements of A_w, so it depends
    only on the prescribed sizes, not on the chosen B sets."""
    out = {}
    for w, owned in enumerate(a_sets, start=1):
        for x in owned:
            out[x] = b_sizes[w - 1] + sum(1 for y in owned if y < x)
    return out


def parse_structure(text):
    """Parse the structure text format into (parents, a_sets, b_sizes).

    Lines: "tree <parent per node, 0 for the root>", then "A <node>
    <elements...>" and "b <node> <size>" lines.  Nodes without an A line
    own nothing; without a b line they inherit nothing.
    """
    parents = None
    a_lines = {}
    b_lines = {}
    for lineno, line in _content_lines(text):
        word, *args = line.split()
        if word == "tree":
            if parents is not None:
                raise ParseError("duplicate tree line", lineno)
            parents = _numbers(args, "parents must be integers", lineno)
            if not parents:
                raise ParseError("tree line needs at least one node", lineno)
        elif word in ("A", "b"):
            if parents is None:
                raise ParseError("the tree line must come first", lineno)
            if not args:
                raise ParseError("expected '%s <node> %s'" % (
                    word, "<elements...>" if word == "A" else "<size>"), lineno)
            (node,) = _numbers(args[:1], "node id must be an integer", lineno)
            if not 1 <= node <= len(parents):
                raise ParseError("node id %d out of range 1..%d"
                                 % (node, len(parents)), lineno)
            target = a_lines if word == "A" else b_lines
            if node in target:
                raise ParseError("duplicate %s line for node %d"
                                 % (word, node), lineno)
            values = _numbers(args[1:], "elements must be integers", lineno)
            if word == "b":
                if len(values) != 1:
                    raise ParseError("b line needs exactly one size", lineno)
                target[node] = values[0]
            else:
                target[node] = frozenset(values)
        else:
            raise ParseError("unknown directive %r" % word, lineno)
    if parents is None:
        raise ParseError("missing tree line")
    n = len(parents)
    a_sets = tuple(a_lines.get(w, frozenset()) for w in range(1, n + 1))
    b_sizes = tuple(b_lines.get(w, 0) for w in range(1, n + 1))
    return parents, a_sets, b_sizes
