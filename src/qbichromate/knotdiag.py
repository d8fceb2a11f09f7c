"""Oriented knot diagrams: bracket state sum, Jones polynomial, and the
checkerboard (median) graph.

A diagram is a list of crossings.  Each crossing records its sign and the
four arc labels around it in counterclockwise planar order starting from
the incoming under-strand (slot 0).  The under-strand leaves at slot 2;
the over-strand enters at slot 1 for a positive crossing and at slot 3
for a negative one.

Smoothings are slot pairings: the A-smoothing connects slots 0-3 and 1-2
(merging the corners between slots 0,1 and 2,3), the B-smoothing connects
slots 0-1 and 2-3.  The bracket contracts the diagram one crossing at a
time (bracket_contract, the bracket form of Bar-Natan's local
contraction): it keeps, per pairing of the open crossing ports, how many
partial states close how many loops with which A-exponent, so its cost
grows with the width of the crossing order, not with 2^r.  The face-graph
check (prop_mm_check) reads the same contraction: given median graphs,
it also keeps, per graph, the partition of the open faces by the chosen
edges and the loops closed less the model 2 c + |E| - |V| so far, and
its groups summed give the bracket too.  One contraction serves both;
there is no union-find, no rollback and no depth-first walk over the
states, and no geometry is involved.

Every walk of the diagram (the strand check, the face tracing and the
contraction) reads one pairing of the 4r ports 4 ci + slot: other[p] is
the port at the far end of p's arc.

Faces are traced from the rotation system the slot order defines, so the
combinatorial planar structure (faces, checkerboard shading, median
graph) comes from the crossing list alone.  A diagram has two
checkerboard shadings, one per color class taken as black; shadings(k)
gives the median graph of each, and median_graph(k, face) the one in
which the given face is white.
"""

from math import comb

from .graphcore import (Multigraph, ParseError, _content_lines, _numbers,
                        _Record, _sweep_order)
from .polyq import LaurentPoly
from .qchrom import _digits


class Crossing(_Record):
    __slots__ = ("sign", "slots")

    def __init__(self, sign, slots):
        if sign not in (1, -1):
            raise ValueError("crossing sign must be +1 or -1")
        if len(slots) != 4:
            raise ValueError("a crossing has exactly four slots")
        _Record.__init__(self, sign, slots)

    @property
    def over_in(self):
        return 1 if self.sign == 1 else 3

    @property
    def over_out(self):
        return 3 if self.sign == 1 else 1


class KnotPD(_Record):
    __slots__ = ("crossings",)

    def __init__(self, crossings):
        _Record.__init__(self, crossings)

    @property
    def r(self):
        return len(self.crossings)

    @property
    def writhe(self):
        return sum(c.sign for c in self.crossings)


def parse_pd(text):
    """Parse the PD file format: one line per crossing, "X<sign> a b c d"."""
    crossings = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] not in ("X+", "X-"):
            raise ParseError("expected 'X+' or 'X-', got %r" % parts[0], lineno)
        if len(parts) != 5:
            raise ParseError("expected four arc labels", lineno)
        slots = _numbers(parts[1:], "arc labels must be integers", lineno)
        sign = 1 if parts[0] == "X+" else -1
        crossings.append(Crossing(sign, slots))
    if not crossings:
        raise ParseError("empty PD file")
    k = KnotPD(tuple(crossings))
    try:
        _validate(k)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return k


def _pairing(k):
    """other[4 ci + slot] is the port at the far end of the arc at that
    slot of crossing ci: the one pairing of the 4r ports that every walk
    of the diagram reads.

    Entry ports are slot 0 and the over-in slot; exit ports are slot 2
    and the over-out slot.
    """
    entries = {}
    exits = {}
    for ci, c in enumerate(k.crossings):
        for slot, label in enumerate(c.slots):
            if slot in (0, c.over_in):
                if label in entries:
                    raise ValueError("arc %d enters two crossings" % label)
                entries[label] = 4 * ci + slot
            else:
                if label in exits:
                    raise ValueError("arc %d leaves two crossings" % label)
                exits[label] = 4 * ci + slot
    if entries.keys() != exits.keys():
        raise ValueError("each arc label must occur once as an entry and "
                         "once as an exit")
    other = [0] * (4 * k.r)
    for label, p in entries.items():
        q = exits[label]
        other[p] = q
        other[q] = p
    return other


def _validate(k):
    labels = {}
    for c in k.crossings:
        for label in c.slots:
            labels[label] = labels.get(label, 0) + 1
    expected = set(range(1, 2 * k.r + 1))
    if set(labels) != expected or any(n != 2 for n in labels.values()):
        raise ValueError("arc labels must be 1..%d, each exactly twice" % (2 * k.r))
    other = _pairing(k)
    # The strand must close into a single component.  Follow it from the
    # entry port of arc 1: it goes straight through a crossing, from
    # slot j to slot j + 2, and p ^ 2 is that exit port.
    start = port = next(4 * ci + slot for ci, c in enumerate(k.crossings)
                        for slot in (0, c.over_in) if c.slots[slot] == 1)
    arcs = 1
    while other[port ^ 2] != start:
        port = other[port ^ 2]
        arcs += 1
    if arcs != 2 * k.r:
        raise ValueError("strand closes after %d of %d arcs; "
                         "diagram is not a single knot" % (arcs, 2 * k.r))
    # Tracing the faces checks planarity.
    _Embedding(k)


class Face(_Record):
    __slots__ = ("id", "corners", "arcs")

    def __init__(self, id, corners, arcs):
        _Record.__init__(self, id, corners, arcs)


class _Embedding:
    """Traced faces plus the lookup tables the shading machinery needs."""

    def __init__(self, k):
        self.other = other = _pairing(k)
        self.faces = []
        # face_of_corner[4 ci + j]: the face holding corner (ci, j)
        self.face_of_corner = face_of = [None] * (4 * k.r)
        for start in range(4 * k.r):
            if face_of[other[start]] is not None:
                continue  # the arc from start is on a traced face
            fid = len(self.faces)
            corners = []
            arcs = []
            port = start
            while True:
                c = k.crossings[port // 4]
                arcs.append((c.slots[port % 4], port % 4 in (2, c.over_out)))
                ci, slot = divmod(other[port], 4)
                corners.append((ci, slot))
                face_of[4 * ci + slot] = fid
                port = 4 * ci + (slot + 1) % 4
                if port == start:
                    break
            self.faces.append(Face(fid, tuple(corners), tuple(arcs)))
        # Euler's formula: a planar diagram has r + 2 faces, fewer on a
        # surface of higher genus.
        if len(self.faces) != k.r + 2:
            raise ValueError("diagram is not planar: traced %d faces, "
                             "expected %d" % (len(self.faces), k.r + 2))

    def colors(self):
        """Checkerboard 2-coloring: face 0's class is 0, the other 1."""
        face_of = self.face_of_corner
        # the arc from port p runs between the faces of corners p and other[p]
        adjacency = [set() for _ in self.faces]
        for p, q in enumerate(self.other):
            adjacency[face_of[p]].add(face_of[q])
        colors = [None] * len(self.faces)
        colors[0] = 0
        queue = [0]
        while queue:
            fid = queue.pop()
            for fj in adjacency[fid]:
                if colors[fj] is None:
                    colors[fj] = 1 - colors[fid]
                    queue.append(fj)
                elif colors[fj] == colors[fid]:
                    raise AssertionError("faces are not checkerboard colorable")
        if None in colors:
            raise AssertionError("face adjacency is not connected")
        return colors


def faces(k):
    """Trace the faces of the diagram from the slot rotation system.

    A corner (ci, j) is the sector of crossing ci between slots j and
    j+1 (mod 4); every corner belongs to exactly one face, and the face
    count is r + 2 (parse_pd rejects non-planar diagrams).
    """
    return _Embedding(k).faces


class MedianGraph(_Record):
    """The median graph of one checkerboard shading: a graph on its black
    faces, one edge per crossing.

    eta[i] is +1 when the A-smoothing at crossing i joins the two black
    corners (corners 0 and 2), -1 when the B-smoothing does.
    black_faces[j] is the face id of graph vertex j+1.
    """

    __slots__ = ("graph", "eta", "black_faces")

    def __init__(self, graph, eta, black_faces):
        _Record.__init__(self, graph, eta, black_faces)


def shadings(k):
    """The median graphs of k's two checkerboard shadings, from one traced
    embedding: first the one in which face 0 is white, then the one in
    which it is black."""
    emb = _Embedding(k)
    colors = emb.colors()
    return tuple(_median_graph(emb, [color ^ flip for color in colors])
                 for flip in (0, 1))


def median_graph(k, outer_face):
    """The median graph of k's shading in which the given face id is
    white, as the outer face."""
    if not 0 <= outer_face < k.r + 2:
        raise ValueError("outer face id %d out of range 0..%d"
                         % (outer_face, k.r + 1))
    both = shadings(k)
    return both[1 if outer_face in both[0].black_faces else 0]


def _median_graph(emb, black):
    """The median graph whose black faces are those with black[id] = 1."""
    black_faces = tuple(fid for fid, color in enumerate(black) if color)
    vertex_of = {fid: i + 1 for i, fid in enumerate(black_faces)}
    face_of = emb.face_of_corner
    edges = []
    eta = []
    for ci in range(len(face_of) // 4):
        corner = face_of[4 * ci:4 * ci + 4]
        corner_color = [black[fid] for fid in corner]
        if corner_color[0] != corner_color[2] or corner_color[1] != corner_color[3] \
                or corner_color[0] == corner_color[1]:
            raise AssertionError("corner colors do not alternate at crossing %d" % ci)
        # corners 0 and 2 are black when eta = +1, corners 1 and 3 otherwise
        j = 0 if corner_color[0] else 1
        edges.append((vertex_of[corner[j]], vertex_of[corner[j + 2]]))
        eta.append(1 if corner_color[0] else -1)
    return MedianGraph(Multigraph(len(black_faces), tuple(edges)),
                       tuple(eta), black_faces)


def bracket_contract(k, shadings=()):
    """{model differences: {(loop count, #A - #B): number of states}} over
    the 2^r smoothings of k, without visiting them.

    The crossings are placed in the frontier sweeps' order
    (graphcore._sweep_order, crossings linked by an arc).  Ports 4 ci +
    slot whose arc leads to an unplaced crossing are open, and each
    partial state pairs them by the paths it has drawn.  Placing a
    crossing tries both smoothings (A joins slots 0-3 and 1-2, B 0-1 and
    2-3), then joins each arc whose other port is placed: joining the two
    ends of one path closes a loop.

    For each median graph of k in shadings (as shadings(k) gives them), a
    partial state also partitions the graph's open faces (those with an
    unplaced crossing) by the edges it has chosen: edge ci where the
    smoothing joins the black corners, A if eta = +1 and B if eta = -1.
    It keeps the loops closed so far less the model 2 c + |E| - |V| so
    far, which gains 1 per chosen edge, -1 per face whose last crossing
    is placed and 2 per block that loses its last open face.  The sweep
    keeps {(pairing, (partition, difference) per median graph):
    {(loops closed, #A - #B): count}}, and the result is grouped by the
    final differences: S(s) = 2 c(E(s)) + |E(s)| - |V| holds for every
    state exactly when a median graph's difference is 0 in every group.
    The two sides share only the sweep order and the smoothing.
    """
    r = k.r
    other = _pairing(k)
    links = [set() for _ in range(r + 1)]
    for p, q in enumerate(other):
        if p // 4 != q // 4:
            links[p // 4 + 1].add(q // 4 + 1)
    order = [v - 1 for v in _sweep_order(links)]
    # last[i][v]: the sweep position of the last crossing at face v of
    # shadings[i].  A face at no crossing is a component of its own from
    # the start, so each one starts the difference at -1.
    last = [{v: n for n, ci in enumerate(order) for v in m.graph.edges[ci]}
            for m in shadings]
    model = tuple(((), len(at) - m.graph.vertex_count)
                  for m, at in zip(shadings, last))
    placed = [False] * r
    # front lists the open ports; a key's entry i is the position in
    # front of the port that front[i]'s path ends at.  open_faces[i]
    # lists the open faces of shadings[i] that a placed crossing touches.
    front = []
    open_faces = [[] for _ in shadings]
    states = {((), model): {(0, 0): 1}}
    for n, ci in enumerate(order):
        placed[ci] = True
        f = len(front)
        ports = front + [4 * ci + slot for slot in range(4)]
        index = {p: i for i, p in enumerate(ports)}
        joins = []
        for p in ports[f:]:
            q = other[p]
            if placed[q // 4] and (q // 4 != ci or p < q):
                joins.append((index[p], index[q]))
        keep = [i for i, p in enumerate(ports) if not placed[other[p] // 4]]
        position = [0] * len(ports)
        for j, i in enumerate(keep):
            position[i] = j
        smoothings = ((1, (f + 3, f + 2, f + 1, f)),
                      (-1, (f + 1, f, f + 3, f + 2)))
        moves = []
        for i, m in enumerate(shadings):
            ends = m.graph.edges[ci]
            faces = open_faces[i] + [v for v in dict.fromkeys(ends)
                                     if v not in open_faces[i]]
            stay = [j for j, v in enumerate(faces) if last[i][v] != n]
            open_faces[i] = [faces[j] for j in stay]
            moves.append((m.eta[ci], [faces.index(v) for v in ends],
                          len(faces), stay, {}))
        new = {}
        for (key, model), counts in states.items():
            for step, pairs in smoothings:
                mate = list(key)
                mate.extend(pairs)
                closed = 0
                for x, y in joins:
                    if mate[x] == y:
                        closed += 1
                    else:
                        mx = mate[x]
                        my = mate[y]
                        mate[mx] = my
                        mate[my] = mx
                pairing = tuple([position[mate[i]] for i in keep])
                # kauffman_f gives no median graph: its model stays ()
                # without a generator per state
                if moves:
                    moved = tuple(_face_move(part, difference + closed,
                                             step, move)
                                  for (part, difference), move
                                  in zip(model, moves))
                else:
                    moved = model
                out = new.setdefault((pairing, moved), {})
                for (loops, e), count in counts.items():
                    state = (loops + closed, e + step)
                    out[state] = out.get(state, 0) + count
        states = new
        front = [ports[i] for i in keep]
    return {tuple(difference for _, difference in model): counts
            for (_, model), counts in states.items()}


def _face_move(part, difference, step, move):
    """One median graph's (partition, difference) after a crossing is
    placed with the smoothing step (+1 for A, -1 for B).

    part labels the open faces in order, first occurrence numbered first.
    move is (eta at the crossing, the positions of its edge's ends among
    the open faces and the faces it opens, how many those are, the
    positions of those that stay open, a cache per (part, chosen)); the
    faces the crossing opens join as singletons."""
    eta, (x, y), width, stay, memo = move
    chosen = step == eta
    moved = memo.get((part, chosen))
    if moved is None:
        block = list(part)
        block.extend(range(len(part), width))
        a, b = block[x], block[y]
        if chosen and a != b:
            block = [a if c == b else c for c in block]
        label = {}
        for j in stay:
            label.setdefault(block[j], len(label))
        closed = len(set(block)) - len(label)
        moved = memo[part, chosen] = (
            tuple([label[block[j]] for j in stay]),
            len(block) - len(stay) - chosen - 2 * closed)
    return moved[0], difference + moved[1]


def kauffman_f(k):
    """Writhe-normalized bracket state sum in the variable A.

    Sum over states of (-A^2 - A^-2)^(S(s)-1) * A^(#A - #B), multiplied
    by (-A)^(-3 W) where W is the writhe.  The result is 1 on any diagram
    of the unknot.  The states come grouped from bracket_contract, and
    _bracket folds them.
    """
    return _bracket(k, bracket_contract(k)[()])


def _bracket(k, counts):
    """kauffman_f from the state histogram {(loops, #A - #B): count},
    folded in one {A-exponent: int} dict."""
    w = k.writhe
    sign = -1 if w % 2 else 1
    # rows[j][i] is the coefficient of A^(4i - 2j) in (-A^2 - A^-2)^j.
    rows = [[1]]
    for _ in range(max(loops for loops, _ in counts) - 1):
        row = rows[-1]
        rows.append([-a - b for a, b in zip(row + [0], [0] + row)])
    powers = {}
    for (loops, e), count in counts.items():
        j = loops - 1
        base = e - 3 * w - 2 * j
        for i, c in enumerate(rows[j]):
            exponent = base + 4 * i
            powers[exponent] = powers.get(exponent, 0) + sign * count * c
    return LaurentPoly.from_powers("A", powers)


def jones(k):
    """The Jones polynomial in t, from kauffman_f by A^-4 -> t.

    Every A-exponent of a knot's bracket is divisible by 4; a
    non-divisible exponent signals a bug and raises.
    """
    f = kauffman_f(k)
    terms = {}
    for exps, coeff in f.terms.items():
        e = exps[0] if exps else 0
        if e % 4:
            raise AssertionError("bracket exponent %d not divisible by 4" % e)
        terms[-(e // 4)] = coeff
    return LaurentPoly.from_powers("t", terms)


def prop_mm_check(k, shadings):
    """Check S(s) = 2 c(E(s)) + |E(s)| - |V| over all states, for each
    median graph of k in shadings (as shadings(k) gives them).  Return
    (one bool per median graph, in order: whether it holds; kauffman_f(k)).

    It reads the groups of bracket_contract(k, shadings): a median graph
    holds when its difference is 0 in every group, and the groups summed
    are the state histogram that kauffman_f folds, so one contraction
    gives both.
    """
    groups = bracket_contract(k, shadings)
    counts = {}
    for group in groups.values():
        for state, count in group.items():
            counts[state] = counts.get(state, 0) + count
    states = sum(counts.values())
    if states != 1 << k.r:
        raise AssertionError("counted %d of %d states" % (states, 1 << k.r))
    holds = [all(differences[i] == 0 for differences in groups)
             for i in range(len(shadings))]
    return holds, _bracket(k, counts)


def jones_via_bichromate(k, m):
    """kauffman_f computed through m, a median graph of k (any signs).

    It is the sum over median edge subsets B of
    (-A^2-A^-2)^(2c(B)+|B|-|V|-1) * A^(2 * sum of eta over B), times the
    prefactor (-A)^(-3W) * A^(-sum of eta), counted by one cluster sum
    of the median graph.

    The per-crossing exponent uses eta (which smoothing joins the black
    faces), not the crossing sign; the two coincide for some shadings but
    not in general, and only the eta form reproduces kauffman_f for both
    shadings of every diagram.
    """
    nv = m.graph.vertex_count
    w = k.writhe
    sign = -1 if w % 2 else 1
    # An eta = +1 edge weighs x = 2^(r+1), an eta = -1 edge 1, and a
    # cycle x^(r+1), so entry c (components) holds, as base-x digit
    # p + (r+1) k, the number (at most 2^r) of subsets with p chosen
    # eta = +1 edges and nullity k.
    bits = k.r + 1
    weights = [1 << bits if e == 1 else 1 for e in m.eta]
    row = m.graph.cluster_sums(weights, [0, 1], 1 << bits * bits)
    # B weighs A^(2 (2p - |B|)) d^e with e = 2c + |B| - |V| - 1, d^e =
    # (-1)^e sum over j of C(e, j) A^(4j - 2e), and the prefactor
    # shifts every exponent by -3W - sum of eta.
    offset = -3 * w - sum(m.eta)
    powers = {}
    for c, value in enumerate(row):
        for digit, count in _digits(value, bits):
            nullity, p = divmod(digit, bits)
            chosen = nullity + nv - c
            exponent = 2 * c + chosen - nv - 1
            if exponent < 0:
                raise AssertionError("negative loop exponent %d" % exponent)
            signed = sign * (-1) ** exponent * count
            base = offset + 2 * (2 * p - chosen) - 2 * exponent
            for j in range(exponent + 1):
                e = base + 4 * j
                powers[e] = powers.get(e, 0) + signed * comb(exponent, j)
    return LaurentPoly.from_powers("A", powers)
