"""Arc graphs of knot diagrams, flows, and the colored Jones function.

The arc graph of an oriented knot diagram with r crossings has vertices
1..r, one per arc between consecutive underpasses, numbered along the
strand.  Vertex v carries the sign of the crossing where arc v ends.
Blue edges join each v to its successor v+1 (cyclically); the red edge
at v points to the arc passing over the crossing that ends v.  All flow
machinery lives on the reduced graph: vertex r and its incident edges
are deleted, so blue edges are (v, v+1) for v = 1..r-2 and red edges are
(u, over(u)) for those u < r with over(u) != r.

Edge weights in the variable t are t^(-sign(v)) on the blue edge leaving
v and 1 - t^(-sign(u)) on the red edge leaving u.  At each vertex the
entering edges are ordered: by default the blue edge first, then the red
edges by source; an order decoration may list them in any order, the
blue edge included.  Integer rot values on the reduced edges and a total
rotation number rotK are input decorations that calibrate the
normalization; they enter only through delta exponents.

A flow assigns nonnegative integers to the reduced edges, conserved at
every vertex.  Two per-flow kernels give the n-colored invariant: a
closed product of (1 - t^a) and Gaussian factors, the catmm value sum
over flow configurations with its prefactor cancelled in, which the
main and catmm routes share, and a sum of defect-corrected coloring
sums over one chord layout per configuration (ma2 route).  At n = 1 the
cable is the reduced graph itself, and its cycle families give a third
description of the level-one invariant.
"""

from itertools import combinations, product

from .graphcore import ParseError, _content_lines, _numbers
from .polyq import LaurentPoly, _divide_one_minus, _times_one_minus, qbinom
from .qchrom import mdef_chord

# The routes of colored_jones, in the order the CLI lists them.
ROUTES = ("ma2", "main", "catmm")


def _t_power(e):
    return LaurentPoly.from_powers("t", {e: 1})


def _one_minus_t_power(e):
    return LaurentPoly.constant(1) - _t_power(e)


class ArcGraph:
    """Arc graph data: signs, over-arc map, and decorations.

    signs[v-1] is the sign (+1 or -1) of the crossing ending arc v; over
    maps each vertex to the target of its red edge.  rot is a mapping
    from reduced edge keys to integers, orders optionally overrides the
    order of the edges entering a vertex (any permutation of them, the
    blue edge included), and rot_k is the total rotation number.  Edge
    keys are ("b", v) for the blue edge v -> v+1 and ("r", u) for the
    red edge u -> over(u).
    """

    def __init__(self, signs, over, rot=None, orders=None, rot_k=None):
        signs = tuple(int(s) for s in signs)
        if not signs:
            raise ValueError("need at least one crossing")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        r = len(signs)
        over = tuple(int(v) for v in over)
        if len(over) != r:
            raise ValueError("need one over-arc per crossing")
        for u, w in enumerate(over, start=1):
            if not 1 <= w <= r:
                raise ValueError("over-arc %d at vertex %d out of range 1..%d"
                                 % (w, u, r))
        self.signs = signs
        self.over = over
        self.rot_k = None if rot_k is None else int(rot_k)
        blues = tuple(("b", v) for v in range(1, r - 1))
        reds = tuple(("r", u) for u in range(1, r) if over[u - 1] != r)
        self.reduced_edges = blues + reds
        self.edge_index = {e: i for i, e in enumerate(self.reduced_edges)}
        self._rot = {}
        for key, value in dict(rot or {}).items():
            key = (key[0], int(key[1]))
            if key not in self.edge_index:
                raise ValueError("rot decoration on unknown edge %s %d"
                                 % key)
            self._rot[key] = int(value)
        entering = {w: [] for w in range(1, r)}
        for e in self.reduced_edges:
            entering[self.target(e)].append(e)
        for w, order in dict(orders or {}).items():
            if not 1 <= w < r:
                raise ValueError("order vertex %d out of range 1..%d"
                                 % (w, r - 1))
            order = [(k, int(i)) for k, i in order]
            if sorted(order) != sorted(entering[w]):
                raise ValueError("entering order at vertex %d must list "
                                 "exactly its entering edges" % w)
            entering[w] = order
        self._entering = {w: tuple(edges) for w, edges in entering.items()}
        # Indices of the edges entering ahead of each edge, for _ahead.
        self._ahead_of = {e: tuple(self.edge_index[a] for a in edges[:i])
                          for edges in self._entering.values()
                          for i, e in enumerate(edges)}
        # Per vertex 1..r-1, for the per-flow kernels: the index of its
        # blue out-edge and of its red out-edge (None where there is
        # none) and the indices of its red in-edges in entering order.
        self._vertex_edges = tuple(
            (self.edge_index.get(("b", v)), self.edge_index.get(("r", v)),
             tuple(self.edge_index[e] for e in self._entering[v]
                   if e[0] == "r"))
            for v in range(1, r))

    @property
    def r(self):
        return len(self.signs)

    def sign(self, v):
        return self.signs[v - 1]

    def target(self, edge):
        kind, v = edge
        return v + 1 if kind == "b" else self.over[v - 1]

    def entering(self, v):
        """Edges entering v in entering order: by default the blue edge,
        then the reds by source."""
        return self._entering[v]

    def rot(self, edge):
        if edge not in self._rot:
            raise ValueError("rot decoration missing for edge %s %d"
                             % edge)
        return self._rot[edge]

    def beta(self, edge):
        """Weight of a reduced edge."""
        kind, v = edge
        if kind == "b":
            return _t_power(-self.sign(v))
        return _one_minus_t_power(-self.sign(v))


def parse_arc(text):
    """Parse the arc file format.

    Lines: "crossings r", "signs <+/- tokens>", "over <targets>", then
    optional "rot b <i> <int>" / "rot r <i> <int>", "order <v> b|r i1
    b|r i2 ..." (any permutation of the edges entering v), and
    "rotK <int>" lines.
    """
    r = None
    lines = {}
    rot = {}
    orders = {}
    for lineno, line in _content_lines(text):
        word, *args = line.split()
        if word in ("crossings", "signs", "over", "rotK"):
            if word in lines:
                raise ParseError("duplicate %s line" % word, lineno)
            if word in ("signs", "over") and r is None:
                raise ParseError("the crossings line must come first", lineno)
        if word == "crossings":
            message = "expected 'crossings <positive count>'"
            (r,) = _numbers(args, message, lineno, count=1)
            if r < 1:
                raise ParseError(message, lineno)
            lines[word] = r
        elif word == "signs":
            if len(args) != r or any(tk not in ("+", "-") for tk in args):
                raise ParseError("expected %d sign tokens (+ or -)" % r,
                                 lineno)
            lines[word] = tuple(1 if tk == "+" else -1 for tk in args)
        elif word == "over":
            lines[word] = _numbers(args, "over-arcs must be integers", lineno)
            if len(lines[word]) != r:
                raise ParseError("expected %d over-arcs" % r, lineno)
        elif word == "rotK":
            (lines[word],) = _numbers(args, "expected 'rotK <int>'", lineno,
                                      count=1)
        elif word == "rot":
            if len(args) != 3 or args[0] not in ("b", "r"):
                raise ParseError("expected 'rot b|r <edge> <int>'", lineno)
            edge, value = _numbers(args[1:], "rot takes integer edge and value",
                                   lineno)
            key = (args[0], edge)
            if key in rot:
                raise ParseError("duplicate rot for edge %s %d" % key, lineno)
            rot[key] = value
        elif word == "order":
            (v,) = _numbers(args[:1], "expected 'order <vertex> r i1 r i2 ...'",
                            lineno, count=1)
            kinds, edges = args[1::2], args[2::2]
            if len(kinds) != len(edges) or any(k not in ("b", "r")
                                               for k in kinds):
                raise ParseError("entering order lists edges as 'b <i>' or "
                                 "'r <i>'", lineno)
            edges = _numbers(edges, "edge numbers must be integers", lineno)
            if v in orders:
                raise ParseError("duplicate order line for vertex %d" % v,
                                 lineno)
            orders[v] = tuple(zip(kinds, edges))
        else:
            raise ParseError("unknown directive %r" % word, lineno)
    for word in ("crossings", "signs", "over"):
        if word not in lines:
            raise ParseError("missing %s line" % word)
    try:
        return ArcGraph(lines["signs"], lines["over"], rot=rot,
                        orders=orders, rot_k=lines.get("rotK"))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def enumerate_flows(g, n):
    """All conserved flows with at most n through every vertex, sorted.

    Flows are tuples aligned with g.reduced_edges.  The zero flow is
    always included; at n = 1 the nonzero flows are exactly the
    characteristic vectors of vertex-disjoint directed cycle unions.

    The search sets vertices 1..r-1 in turn: level v tries values for
    v's out-edges (blue and red) together, drawn once per call with
    total at most n and bucketed by total.  When every edge entering v
    comes from an earlier level, v's in-flow is already set, so the
    level tries only the bucket of that total, and nothing when it
    exceeds n.  Any other vertex is checked for conservation at the
    level that sets the last of its edges.  The flows come back in
    lexicographic order of their tuples.

    >>> g = parse_arc("crossings 3\\nsigns + + +\\nover 3 1 2\\n")
    >>> g.reduced_edges
    (('b', 1), ('r', 2))
    >>> enumerate_flows(g, 2)
    [(0, 0), (1, 1), (2, 2)]
    """
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    index = g.edge_index
    out = [()] + [tuple(i for i in (blue, red) if i is not None)
                  for blue, red, _ in g._vertex_edges]
    # known[v] lists the edges entering v when they all come from
    # earlier levels; any other vertex w is checked at the level that
    # sets the last of its edges, an edge key (kind, u) being set at
    # level u, its source.
    known = [None] * g.r
    checks = [[] for _ in range(g.r)]
    for w in range(1, g.r):
        entering = g.entering(w)
        into = tuple(index[e] for e in entering)
        if all(e[1] < w for e in entering):
            known[w] = into
        else:
            checks[max(e[1] for e in entering)].append((into, out[w]))
    # The values a vertex with k out-edges may take, drawn once per call,
    # in one list and bucketed by total.
    draws = {}
    buckets = {}
    for k in {len(edges) for edges in out}:
        draws[k] = [values for values in product(range(n + 1), repeat=k)
                    if sum(values) <= n]
        buckets[k] = [[] for _ in range(n + 1)]
        for values in draws[k]:
            buckets[k][sum(values)].append(values)
    f = [0] * len(g.reduced_edges)
    flows = []

    def assign(v):
        if v == g.r:
            flows.append(tuple(f))
            return
        if known[v] is None:
            tries = draws[len(out[v])]
        else:
            total = sum(f[i] for i in known[v])
            if total > n:
                return
            tries = buckets[len(out[v])][total]
        for values in tries:
            for i, value in zip(out[v], values):
                f[i] = value
            if all(sum(f[i] for i in into) == sum(f[i] for i in leaving)
                   for into, leaving in checks[v]):
                assign(v + 1)

    assign(1)
    return sorted(flows)


def flow_weight_beta(g, f):
    """Product of edge weights raised to the flow values."""
    out = LaurentPoly.constant(1)
    for e, value in zip(g.reduced_edges, f):
        if value:
            out = out * g.beta(e) ** value
    return out


def _ahead(g, f, edge):
    """Flow on the edges entering edge's target ahead of edge."""
    return sum(f[i] for i in g._ahead_of[edge])


def _exc(g, f):
    total = 0
    for v, (blue, red, _) in enumerate(g._vertex_edges, 1):
        if blue is not None and red is not None and f[blue]:
            total += g.signs[v - 1] * f[blue] * _ahead(g, f, ("r", v))
    return total


def delta_flow(g, f):
    """exc(f) minus the rot-weighted flow total; needs full rot data."""
    rot_total = sum(f[g.edge_index[e]] * g.rot(e) for e in g.reduced_edges)
    return _exc(g, f) - rot_total


def _times_qbinom(row, m, k):
    """The dense int row times the Gaussian binomial [m choose k] in base
    t, whose terms are read from qbinom.  The one in base t^-1 is
    t^(-k(m-k)) times this one."""
    if k in (0, m):
        # the constant 1, whose exponent key is () rather than a 1-tuple
        return row
    out = [0] * (len(row) + k * (m - k))
    for (e,), c in qbinom(m, k, "t").terms.items():
        for i, c1 in enumerate(row, e):
            out[i] += c * c1
    return out


def main_flow_weight(g, f, n):
    """Closed per-flow weight of the main and catmm routes, without the
    t^delta(f) normalization (returned separately by delta_flow).

    z_nf(f) catmm_flow_sum(f) over t^delta(f), with z_nf's 1 - t per red
    copy cancelling the 1 / (1 - t) of each [n-p]_t: _z_terms' sign
    t^shift times _catmm_terms' product of 1 - t^(n-p) per copy arriving
    at a pool of p and of Gaussian binomials [pool choose kept]_(1/t).
    It holds in every entering order.  Zero when a copy arrives at a
    full pool, that is when some vertex carries more than n.  Needs no
    rot data.
    """
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    shift, sign = _z_terms(g, f, n)
    rest, row = _catmm_terms(g, f, n)
    return LaurentPoly.from_powers("t", {e: sign * c for e, c
                                         in enumerate(row, shift + rest)})


def red_copies(g, f):
    """Individual units of red flow, ordered by arrival.

    Copies are (edge, index) pairs, one per unit of red flow, listed by
    target vertex, then by the entering order of their edge there (which
    lists every edge entering the vertex; a blue edge carries no
    copies), then by index.
    """
    return tuple((e, idx) for w in range(1, g.r) for e in g.entering(w)
                 if e[0] == "r" for idx in range(f[g.edge_index[e]]))


def flow_configurations(g, f):
    """The configurations of a flow as drop tuples aligned with
    red_copies(g, f).

    A configuration picks, for each blue edge i -> i+1, which f(blue)
    red copies ride it: the riders of edge i are some of those of edge
    i-1 plus the copies arriving at i.  A copy's drop is the smallest
    l >= its arrival with the copy not riding edge l, or r-1 when it is
    carried through the whole sequence (or arrives at the last vertex,
    where there is nothing to ride).  A copy rides blue edge i exactly
    when arrival <= i < drop, so the drops determine the configuration.
    The zero flow has exactly one configuration, the empty tuple.
    """
    arrival = [g.target(e) for e, _ in red_copies(g, f)]
    partial = [((), (g.r - 1,) * len(arrival))]
    for i in range(1, g.r - 1):
        size = f[g.edge_index[("b", i)]]
        arriving = tuple(k for k, w in enumerate(arrival) if w == i)
        grown = []
        for riding, drop in partial:
            pool = riding + arriving
            for chosen in combinations(pool, size):
                left = set(pool).difference(chosen)
                grown.append((chosen, tuple(i if k in left else d
                                            for k, d in enumerate(drop))))
        partial = grown
    return [drop for _, drop in partial]


def _catmm_terms(g, f, n):
    """catmm_flow_sum(g, f, n) times 1 - t per red copy, as (shift, row):
    t^shift times the dense int row's polynomial, an empty row for zero.
    Each [s choose k]_(1/t) enters as t^(-k(s-k)) [s choose k]_t, and
    then each [n-p]_t as 1 - t^(n-p), so the Gaussians' convolutions run
    on short rows."""
    shift = 0
    row = [1]
    arrivals = []
    kept = 0
    for blue, _, reds_in in g._vertex_edges:
        riding = kept
        pool = riding + sum(f[i] for i in reds_in)
        if pool > n:
            # the copy arriving at a full pool has no free value left
            return 0, []
        arrivals.extend(range(n - riding, n - pool, -1))
        kept = 0 if blue is None else f[blue]
        shift -= kept * (pool - kept)
        row = _times_qbinom(row, pool, kept)
    for a in arrivals:
        row = _times_one_minus(row, a)
    return shift, row


def catmm_flow_sum(g, f, n):
    """Defect-weighted value sum over configurations with values.

    Values live in 0..n-1, one per red copy, and each copy contributes
    t^(value - def1 - def2): def1 counts smaller-valued copies it meets
    on arrival (riding in on the blue edge, or arriving earlier at the
    same vertex), def2 counts smaller-valued copies still riding when it
    is dropped.  Two copies may share a value only if the one arriving
    first is dropped before the other arrives.

    The sum is a product over vertices v = 1..r-1.  Each copy arriving
    at v meets a pool of p copies (those riding in on the blue edge and
    those arrived before it) and multiplies by [n-p]_t; then keeping
    f(blue out of v) of the pool's s copies (none at v = r-1)
    multiplies by [s choose kept]_(1/t).  This holds because a pool's
    values are distinct: an arriving copy takes one of the n - p free
    values, and value - def1 is its rank among them, 0..n-p-1.  Of the
    pool, the kept copies ride on and each dropped copy pays def2, one
    per kept copy of smaller value, so a choice of kept copies costs
    the inversions between kept and dropped values, and summing over
    the choices gives the Gaussian binomial whatever the values are.
    What a pool adds downstream thus depends only on its size, and the
    factors multiply.  Zero when a copy arrives at a full pool (p = n).
    _catmm_terms' row is divided exactly by 1 - t once per red copy.
    """
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    shift, row = _catmm_terms(g, f, n)
    for _ in red_copies(g, f):
        row = _divide_one_minus(row, 1)
    return LaurentPoly.from_powers("t", dict(enumerate(row, shift)))


def ma2_flow_sum(g, f, n):
    """Sum of defect-corrected coloring sums, one chord layout per
    configuration: mdef_chord(chords, n) over flow_configurations.

    A copy's chord starts at its arrival vertex and ends at its drop
    vertex.  Points are (v, 0, k) for the k-th copy arriving at v in copy
    order, built once per flow, and (v, 1) for every end at v, read off
    each drop tuple, so a vertex's starts come before its ends.
    Ordering the ends inside one vertex changes neither the overlaps nor
    the defect lists, so this one layout stands for them all.
    """
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    arrival = [g.target(e) for e, _ in red_copies(g, f)]
    starts = [(w, 0, k - arrival.index(w)) for k, w in enumerate(arrival)]
    total = LaurentPoly()
    for drop in flow_configurations(g, f):
        chords = tuple((start, (end, 1)) for start, end in zip(starts, drop))
        total = total + mdef_chord(chords, n)
    return total


def _z_terms(g, f, n):
    """z_nf(g, f, n) over t^delta(f) as (shift, sign), the prefactor
    being sign t^shift (1 - t)^(red units).  With a red units from -
    sources and b from + sources, the unit factors are (-1)^b t^-b
    (1-t)^(a+b).  Copy idx = 0..x-1 of a + red edge carrying x, with
    flow s entering ahead of it, adds -(n-1-s-idx) - 1 to the shift.
    Needs no rot data."""
    shift = 0
    plus = 0
    for v, (blue, red, _) in enumerate(g._vertex_edges, 1):
        sign = g.signs[v - 1]
        carried = 0 if blue is None else f[blue]
        shift -= sign * n * carried
        if red is None:
            continue
        units = f[red]
        shift += units * carried
        if sign == 1 and units:
            plus += units
            shift -= (units * (n - _ahead(g, f, ("r", v)))
                      - units * (units - 1) // 2)
    return shift, (-1) ** plus


def z_nf(g, f, n):
    """Per-flow prefactor of the chord-diagram route.

    t^delta(f) times t^(n (blue flow from - sources minus from +)),
    times (1-t) per red unit from a - source and (1-t^-1) per red unit
    from a + source, times t^-(n-1-|P|) per + red copy (P the flow
    entering ahead of it), times t^(red out times blue out) at every
    vertex.  Since (1-t)^a (1-t^-1)^b = (-1)^b t^-b (1-t)^(a+b), it is
    t^delta(f) times _z_terms' sign and shift times one 1 - t pass per
    red unit.
    """
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    shift, sign = _z_terms(g, f, n)
    row = [sign]
    for _ in red_copies(g, f):
        row = _times_one_minus(row, 1)
    return LaurentPoly.from_powers(
        "t", dict(enumerate(row, delta_flow(g, f) + shift)))


def cycle_families(g):
    """The vertex-disjoint unions of directed cycles of the reduced graph,
    each a frozenset of reduced edge keys, the empty family included.

    This is the n = 1 cable, which is the reduced graph itself: the
    search walks out-edges from each start vertex and never consults the
    flow enumeration.
    """
    out_edges = {v: [e for e in g.reduced_edges if e[1] == v]
                 for v in range(1, g.r)}
    cycles = []

    def explore(start, v, path_vertices, path_edges):
        for e in out_edges[v]:
            w = g.target(e)
            if w < start:
                continue
            if w == start:
                cycles.append((frozenset(path_edges + [e]),
                               frozenset(path_vertices)))
            elif w not in path_vertices:
                explore(start, w, path_vertices | {w}, path_edges + [e])

    for start in range(1, g.r):
        explore(start, start, {start}, [])
    families = []

    def assemble(begin, used, acc):
        families.append(acc)
        for i in range(begin, len(cycles)):
            edge_set, vertex_set = cycles[i]
            if used & vertex_set:
                continue
            assemble(i + 1, used | vertex_set, acc | edge_set)

    assemble(0, frozenset(), frozenset())
    return families


def cycle_fibers(g):
    """Weight of the cycle families over each level-one flow, as
    {characteristic vector: summed product of edge weights}.

    Each family is walked once.  The empty family gives the zero flow
    weight 1, and each 0/1 cycle flow lifts to exactly one family, so
    every value is flow_weight_beta of its key; a flow that is not a
    key has an empty fiber.
    """
    fibers = {}
    for family in cycle_families(g):
        f = tuple([int(e in family) for e in g.reduced_edges])
        weight = LaurentPoly.constant(1)
        for e in family:
            weight = weight * g.beta(e)
        fibers[f] = fibers.get(f, LaurentPoly()) + weight
    return fibers


def _delta_kn(g, n):
    if g.rot_k is None:
        raise ValueError("rotK decoration required")
    numerator = n * n * sum(g.signs) + n * g.rot_k
    if numerator % 2:
        raise ValueError(
            "signs and rotK give the half-integer normalization exponent "
            "%d/2" % numerator)
    return numerator // 2


def colored_jones(g, n, route="ma2"):
    """The n-colored invariant of the arc graph, by any of three routes.

    t^delta(K,n) times the flow total, where delta(K,n) is half of
    n^2 (sign sum) + n rotK.  Routes: "main" and "catmm" share one
    kernel, summing t^delta(f) times main_flow_weight, which is z_nf
    times catmm_flow_sum with z_nf's 1 - t per red copy cancelling
    catmm's [n-p]_t denominators, so no row is divided; they add every
    flow's signed, shifted row to one integer exponent dict made a
    LaurentPoly once.  "ma2" sums z_nf times ma2_flow_sum.  All agree.
    """
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    if route not in ROUTES:
        raise ValueError("route must be one of %s, got %r"
                         % (", ".join(ROUTES), route))
    prefactor = _t_power(_delta_kn(g, n))
    flows = enumerate_flows(g, n)
    if route == "ma2":
        total = LaurentPoly()
        for f in flows:
            total = total + z_nf(g, f, n) * ma2_flow_sum(g, f, n)
        return prefactor * total
    terms = {}
    get = terms.get
    for f in flows:
        shift, sign = _z_terms(g, f, n)
        rest, row = _catmm_terms(g, f, n)
        for e, c in enumerate(row, delta_flow(g, f) + shift + rest):
            terms[e] = get(e, 0) + sign * c
    return prefactor * LaurentPoly.from_powers("t", terms)
