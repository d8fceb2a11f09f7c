"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` (or plain sizes) and returns
text in one of the package's file formats.  Each one checks its own
output with rules written here, not with the package, and raises
``ValueError`` if the check fails, so a mis-built input cannot reach a
workload.  The seed only relabels, reorders or picks values from small
fixed pools, so every seed gives inputs of the same size and nearly the
same cost.
"""

from fractions import Fraction
from itertools import combinations


# ------------------------------------------------------------------ graphs

def complete_graph(n):
    """K_n on vertices 1..n."""
    return n, [(u, v) for u, v in combinations(range(1, n + 1), 2)]


def complete_bipartite(a, b):
    """K_{a,b}: part 1..a, part a+1..a+b."""
    return a + b, [(u, a + w) for u in range(1, a + 1) for w in range(1, b + 1)]


def wheel(rim):
    """Hub 1 joined to every vertex of the cycle 2..rim+1."""
    ring = [(2 + i, 2 + (i + 1) % rim) for i in range(rim)]
    return rim + 1, [(1, 2 + i) for i in range(rim)] + ring


def grid(rows, cols):
    """The rows x cols grid graph, vertices numbered row by row."""
    def vid(r, c):
        return r * cols + c + 1
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return rows * cols, edges


def path(n):
    return n, [(i, i + 1) for i in range(1, n)]


def cycle(n):
    return n, [(i, i % n + 1) for i in range(1, n + 1)]


def double_edges(graph, count):
    """Repeat the first `count` edges, giving parallel pairs."""
    vertex_count, edges = graph
    return vertex_count, edges + edges[:count]


def relabel(graph, rng):
    """Permute vertex labels, edge order and endpoint order."""
    vertex_count, edges = graph
    perm = list(range(1, vertex_count + 1))
    rng.shuffle(perm)
    out = []
    for u, v in edges:
        pair = [perm[u - 1], perm[v - 1]]
        rng.shuffle(pair)
        out.append(tuple(pair))
    rng.shuffle(out)
    return vertex_count, out


def _degrees(graph):
    vertex_count, edges = graph
    degree = [0] * (vertex_count + 1)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return sorted(degree[1:])


def graph_text(graph, expect_degrees=None):
    """Render the graph format, checking ranges and, when given, that
    the degree sequence matches (relabelling must preserve it)."""
    vertex_count, edges = graph
    for u, v in edges:
        if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
            raise ValueError("edge (%d, %d) out of range" % (u, v))
    if expect_degrees is not None and _degrees(graph) != expect_degrees:
        raise ValueError("degree sequence changed")
    lines = ["vertices %d" % vertex_count]
    lines.extend("%d %d" % e for e in edges)
    return "\n".join(lines) + "\n"


def family_text(graph, rng):
    """Relabel a graph family member and render it, checking that the
    degree sequence survived."""
    return graph_text(relabel(graph, rng), expect_degrees=_degrees(graph))


# ---------------------------------------------------------------- couplings

# Each coupling file is a seeded arrangement of the same multiset of
# values, so the rational arithmetic costs nearly the same for every seed.
V_POOL = (Fraction(1, 2), Fraction(2), Fraction(-1, 3), Fraction(3, 2),
          Fraction(1, 3), Fraction(-1, 2))
CH_POOL = tuple((Fraction(m * m + n * n, 2 * m * n),
                 Fraction(m * m - n * n, 2 * m * n))
                for m, n in ((2, 1), (3, 1), (3, 2)))


def v_couplings(edge_count, rng):
    values = [V_POOL[i % len(V_POOL)] for i in range(edge_count)]
    rng.shuffle(values)
    return "".join("v %s\n" % v for v in values)


def ch_couplings(edge_count, rng):
    """Pythagorean (cosh, sinh) pairs; every other pair has sinh < 0."""
    pairs = []
    for i in range(edge_count):
        c, h = CH_POOL[i % len(CH_POOL)]
        pairs.append((c, h if i % 2 == 0 else -h))
    rng.shuffle(pairs)
    for c, h in pairs:
        if c * c - h * h != 1 or c <= 0:
            raise ValueError("bad hyperbolic pair %s %s" % (c, h))
    return "".join("ch %s %s\n" % pair for pair in pairs)


# ------------------------------------------------------------------- knots

def _label(j, k):
    return (j - 1) % (2 * k) + 1


def pd_faces(rows):
    """Number of faces of the map a PD crossing list describes.

    Faces are the orbits of "cross the arc, then turn to the next slot
    counterclockwise" on the ports (crossing, slot).
    """
    ends = {}
    for ci, row in enumerate(rows):
        for slot, label in enumerate(row):
            ends.setdefault(label, []).append((ci, slot))
    partner = {}
    for a, b in ends.values():
        partner[a], partner[b] = b, a
    seen = set()
    faces = 0
    for start in partner:
        if start in seen:
            continue
        faces += 1
        port = start
        while port not in seen:
            seen.add(port)
            ci, slot = partner[port]
            port = (ci, (slot + 1) % 4)
    return faces


def check_pd(rows):
    """Labels 1..2r each twice, and planar: r + 2 faces (Euler)."""
    r = len(rows)
    labels = sorted(x for row in rows for x in row)
    if labels != sorted(list(range(1, 2 * r + 1)) * 2):
        raise ValueError("PD labels must be 1..%d, each twice" % (2 * r))
    if pd_faces(rows) != r + 2:
        raise ValueError("PD is not planar: %d faces for %d crossings"
                         % (pd_faces(rows), r))


def torus_pd(k, rng):
    """The right-handed torus knot T(2,k), k odd, as PD text.

    Crossing i reads (2i+1, 2i+k+1, 2i+2, 2i+k+2) modulo 2k.  The seed
    shifts every label by an even amount (a new start point on the
    strand) and shuffles the crossing lines; neither changes the knot.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("T(2,k) is a knot only for odd k >= 3")
    shift = 2 * rng.randrange(k)
    rows = [tuple(_label(j + shift, k) for j in (2 * i + 1, 2 * i + k + 1,
                                                  2 * i + 2, 2 * i + k + 2))
            for i in range(k)]
    rng.shuffle(rows)
    check_pd(rows)
    return "".join("X+ %d %d %d %d\n" % row for row in rows)


# --------------------------------------------------------- tree structures

def tree_structure(nodes, rng):
    """A tree-structure instance on `nodes` nodes.

    The root owns {1, 2}; every other node owns one element and inherits
    one, so every bag has two elements and the structure count is
    2^(nodes-1) whatever shape the seed picks.  The seed picks the tree
    (each node attaches to a random earlier node); ground labels grow
    away from the root because nodes are numbered in attachment order.
    """
    if nodes < 2:
        raise ValueError("need at least two nodes")
    parents = [0] + [rng.randrange(1, w) for w in range(2, nodes + 1)]
    a_sets = [[1, 2]] + [[w + 1] for w in range(2, nodes + 1)]
    b_sizes = [0] + [1] * (nodes - 1)
    for w in range(2, nodes + 1):
        p = parents[w - 1]
        if not 1 <= p < w:
            raise ValueError("node %d has a bad parent %d" % (w, p))
        if max(a_sets[p - 1]) > min(a_sets[w - 1]):
            raise ValueError("labels must grow away from the root")
        if b_sizes[w - 1] > len(a_sets[p - 1]) + b_sizes[p - 1]:
            raise ValueError("node %d inherits more than its parent holds" % w)
    lines = ["tree " + " ".join(map(str, parents))]
    for w in range(1, nodes + 1):
        lines.append("A %d %s" % (w, " ".join(map(str, a_sets[w - 1]))))
        if b_sizes[w - 1]:
            lines.append("b %d %d" % (w, b_sizes[w - 1]))
    return "\n".join(lines) + "\n", 2 ** (nodes - 1)


# -------------------------------------------------------- arc presentations

# The arc data shipped with the package's test fixtures, byte for byte.
TREFOIL_ARC = """\
# trefoil arc data; rot values calibrated at n = 1
crossings 3
signs + + +
over 3 1 2
rot b 1 1
rot r 2 0
rotK -5
"""

FIG8_ARC = """\
# figure-eight arc data; rot values calibrated at n = 1
crossings 4
signs + - + -
over 4 1 2 3
rot b 1 1
rot b 2 -1
rot r 2 0
rot r 3 0
rotK 0
"""


def arc_variant(text, rng):
    """The same arc data with its `rot` lines in a seeded order.

    The knot and every result stay the same; only the input bytes (and
    so the digest line of the report) change with the seed.
    """
    lines = text.splitlines()
    rot = [line for line in lines if line.startswith("rot ")]
    rest = [line for line in lines if not line.startswith("rot ")]
    rng.shuffle(rot)
    out = "\n".join(rest[:-1] + rot + rest[-1:]) + "\n"
    if sorted(out.splitlines()) != sorted(lines):
        raise ValueError("arc variant lost or gained a line")
    return out
