"""Multigraphs, their enumeration kernels, and the shared text format.

Graphs are undirected multigraphs on vertices 1..vertex_count; loops and
parallel edges are allowed.  Every subset expansion is a frontier
sweep.  One with a factor per component of (V, A) is a cluster sum of
Multigraph.cluster_sums, which folds each component's factor in as the
component closes; a large cycle weight (paid by each chosen edge that
closes a cycle) or edge weight lets an expansion that also reads |A|
(the Tutte, Whitney-rank, bichromate and q-bichromate polynomials, the
bracket's subset route) pack its counts into digits.  The high-temperature
expansion reads the odd-degree count, which Multigraph.parity_sums keys
on instead.  Every agree/differ state sum folds Multigraph.state_sums;
a defected coloring sum is a state sum over the proper colorings with
defect lists, and without defects it is the q-chromatic sum.  The three
sweeps place the vertices in one order (_sweep_order) and keep only
what a frontier needs, its spins, its partition into open components or
its degree parities, so their cost grows with the frontier's width, not
with |V| or |E|, and none recurses (knotdiag.bracket_contract places a
diagram's crossings in the same order).  They run in integers: the
subset sweeps split each Fraction weight into numerator and denominator
(_subset_sweep) and divide once at the end, and state_sums scales each
edge's pair by its own denominator.

Text format, one declaration per line (blank lines and '#' comments skipped):

    vertices 4
    1 2
    2 3
    2 3
    4 4
"""

from fractions import Fraction
from math import lcm, prod


class ParseError(ValueError):
    """Raised for malformed input files, with a 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class _Record:
    """Base of the package's immutable records.

    A subclass names its fields in __slots__ and sets them, in that
    order, through _Record.__init__.  Records are equal when their types
    and fields are, hash as their field tuple and refuse assignment.
    Plain slots classes keep the import of the package free of
    dataclasses, which loads inspect (and with it ast and dis) and
    compiles code for each class.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % item for item in zip(self.__slots__, self._fields())))

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class Multigraph(_Record):
    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count, edges):
        if vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        for u, v in edges:
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise ValueError("edge (%d, %d) out of range 1..%d"
                                 % (u, v, vertex_count))
        _Record.__init__(self, vertex_count, edges)

    @property
    def edge_count(self):
        return len(self.edges)

    def _subset_sweep(self, weights):
        """The frontier steps that cluster_sums and parity_sums share:
        (steps, loops, scale, fractional).  Each weight, an int w or a
        Fraction p/q, becomes the pair of ints (take, leave), (w, 1) or
        (p, q): its edge's factor when chosen and when left out.  The
        vertices are placed in state_sums' order (edges make two vertices
        neighbours), and the frontier is the placed vertices that still
        have an unplaced neighbour.  steps holds, per placed vertex v,
        (bundles, keep, stay): bundles lists (frontier position of u, the
        pairs of the edges between u and v) per placed neighbour u, keep
        the positions that stay on the frontier, and stay whether v
        joins it.  loops lists the loops' pairs, scale is the product of
        every leave, by which a sweep divides once at the end, and
        fractional is whether any weight is a Fraction.
        """
        if len(weights) != len(self.edges):
            raise ValueError("got %d weights for %d edges"
                             % (len(weights), len(self.edges)))
        links = [{} for _ in range(self.vertex_count + 1)]
        loops = []
        scale = 1
        fractional = False
        for (u, v), w in zip(self.edges, weights):
            if isinstance(w, Fraction):
                fractional = True
                pair = w.numerator, w.denominator
                scale *= w.denominator
            else:
                pair = w, 1
            if u == v:
                loops.append(pair)
            else:
                links[u].setdefault(v, []).append(pair)
                links[v][u] = links[u][v]
        placed = [False] * (self.vertex_count + 1)
        unplaced_neighbours = list(map(len, links))
        front = []
        steps = []
        for v in _sweep_order(links):
            placed[v] = True
            bundles = []
            for u, pairs in links[v].items():
                if placed[u]:
                    bundles.append((front.index(u), pairs))
                    unplaced_neighbours[u] -= 1
                    unplaced_neighbours[v] -= 1
            keep = [i for i, u in enumerate(front) if unplaced_neighbours[u]]
            stay = unplaced_neighbours[v] > 0
            front = [front[i] for i in keep]
            if stay:
                front.append(v)
            steps.append((bundles, keep, stay))
        return steps, loops, scale, fractional

    def cluster_sums(self, weights, factor, cycle=1):
        """The sum over all edge subsets A of the product of weights[i]
        over the edges of A, times cycle^(|A| - |V| + c(A)), times the
        product, over the components W of (V, A), of the factor of W, as
        a dense row: row[i] is the coefficient of x^i, and trailing zeros
        are dropped (a zero sum is []).

        factor is a function from a component's size to its dense int
        row, or one such row that every component takes.  The weights are
        ints or Fractions and the cycle weight is an int; the entries are
        ints for int weights and Fractions when any weight is a Fraction.
        |A| - |V| + c(A) is the nullity of A, the number of its chosen
        edges that close a cycle: with the factor x, a large cycle
        weight packs the counts per (c(A), |A|) into the digits of a row.

        The sweep (see _subset_sweep) keeps {(the partition of the
        frontier into the components of the chosen edges, the size of
        each block): row}.  Placing v decides at once every edge between
        v and a placed vertex: the parallel edges to one neighbour join
        it when any of them is chosen, and each of them chosen beyond
        the first closes a cycle, as does a second link from v into one
        block and every chosen loop.  A block whose last frontier vertex
        leaves is a whole component: its factor is multiplied into the
        row and its size is forgotten, so no key holds a closed
        component.  With one row for every size the key is the partition
        alone.

        With weight -1 and 1 + x^s for a component of size s, it is the
        sum of x^(sum of colors) over the proper colorings with colors
        0 and 1 (inclusion-exclusion over the edges that agree):

        >>> path = Multigraph(3, ((1, 2), (2, 3)))
        >>> path.cluster_sums([-1, -1], lambda s: [1] + [0] * (s - 1) + [1])
        [0, 1, 1]
        >>> path.cluster_sums([Fraction(1, 2), -1], [3])
        [Fraction(21, 1)]

        With weight 1, the factor x and cycle weight 8, entry c holds in
        base 8 the number of subsets with c components per nullity: of
        the triangle's one-component subsets, three are paths and one
        closes a cycle.

        >>> triangle = Multigraph(3, ((1, 2), (2, 3), (1, 3)))
        >>> triangle.cluster_sums([1, 1, 1], [0, 1], 8)
        [0, 11, 3, 1]
        """
        steps, loops, scale, fractional = self._subset_sweep(weights)
        loop = prod([take * cycle + leave for take, leave in loops])
        sized = callable(factor)
        rows = {}
        factor = factor if sized else _sparse(factor)
        # A key is the block of each frontier vertex, numbered in order of
        # first appearance, and the size of each block (empty unsized).
        states = {((), ()): [1]}
        for bundles, keep, stay in steps:
            # (weight, frontier positions joined to v) per choice of bundles
            choices = [(1, ())]
            for i, pairs in bundles:
                # none chosen, and some, each beyond the first a cycle
                join, apart = pairs[0]
                for take, leave in pairs[1:]:
                    join = join * (take * cycle + leave) + apart * take
                    apart *= leave
                choices = [(w * apart, joined) for w, joined in choices] + [
                    (w * join, joined + (i,)) for w, joined in choices if join]
            new = {}
            for (blocks, sizes), row in states.items():
                # v's block is number b until the renumbering
                b = max(blocks, default=-1) + 1
                for w, joined in choices:
                    into = list(range(b + 1))
                    for i in joined:
                        into[blocks[i]] = b
                    if cycle != 1 and len(joined) > 1:
                        # a second link into one block closes a cycle
                        w *= cycle ** (len(joined)
                                       - len({blocks[i] for i in joined}))
                    seq = [into[blocks[i]] for i in keep]
                    if stay:
                        seq.append(b)
                    number = {}
                    for x in seq:
                        if x not in number:
                            number[x] = len(number)
                    key = tuple([number[x] for x in seq])
                    closed = [x for x in range(b + 1)
                              if into[x] == x and x not in number]
                    out = [c * w for c in row]
                    if sized:
                        size = [0] * (b + 1)
                        size[b] = 1
                        for x, s in enumerate(sizes):
                            size[into[x]] += s
                        key = (key, tuple([size[x] for x in number]))
                        for x in closed:
                            s = size[x]
                            f = rows.get(s)
                            if f is None:
                                f = rows[s] = _sparse(factor(s))
                            out = _times_row(out, f)
                    else:
                        key = (key, ())
                        for _ in closed:
                            out = _times_row(out, factor)
                    old = new.get(key)
                    new[key] = out if old is None else _plus_row(old, out)
            states = new
        (row,) = states.values()
        return _finish(row, loop, scale, fractional)

    def parity_sums(self, weights):
        """The sum over all edge subsets A of the product of weights[i]
        over the edges of A, by the number of odd-degree vertices of
        (V, A), as a dense row: row[o] is the sum over the subsets with o
        odd vertices; trailing zeros are dropped, and the entries are
        typed as in cluster_sums.

        The sweep (see _subset_sweep) keeps {the degree parity of each
        frontier vertex: row}, row[o] summing the choices so far with o
        odd vertices off the frontier.  Placing v decides the parallel
        edges between v and each placed neighbour by the parity of how
        many are chosen: an even choice weighs (P + M) / 2 and an odd one,
        which flips both ends, (P - M) / 2, P being the product of take +
        leave over those edges and M that of leave - take.  A loop keeps
        every parity and multiplies every subset by take + leave.

        >>> path = Multigraph(3, ((1, 2), (2, 3)))
        >>> path.parity_sums([2, 3])
        [1, 0, 11]
        """
        steps, loops, scale, fractional = self._subset_sweep(weights)
        loop = prod([take + leave for take, leave in loops])
        states = {(): [1]}
        for bundles, keep, stay in steps:
            # (weight, frontier positions flipped) per choice of parities
            choices = [(1, ())]
            for i, pairs in bundles:
                plus = minus = 1
                for take, leave in pairs:
                    plus *= leave + take
                    minus *= leave - take
                even, odd = (plus + minus) // 2, (plus - minus) // 2
                choices = [(w * even, flips) for w, flips in choices
                           if even] + [(w * odd, flips + (i,))
                                       for w, flips in choices if odd]
            new = {}
            for parities, row in states.items():
                for w, flips in choices:
                    bits = list(parities)
                    for i in flips:
                        bits[i] ^= 1
                    # v's parity is the number of odd choices it made
                    bits.append(len(flips) & 1)
                    key = tuple([bits[i] for i in keep]) + (bits[-1],) * stay
                    closed = sum(bits) - sum(key)
                    out = [0] * closed + [c * w for c in row]
                    old = new.get(key)
                    new[key] = out if old is None else _plus_row(old, out)
            states = new
        # every choice at some vertex may weigh 0
        row = next(iter(states.values()), [])
        return _finish(row, loop, scale, fractional)

    def state_sums(self, spins, weights, defects=None):
        """Histogram of all states s: V -> spins, as {sum of s(v) minus the
        defects of v: summed weight}, leaving out sums whose weight cancels
        to zero.

        A state weighs the product over edges i = (u, v) of weights[i][0]
        when s(u) = s(v) (a loop always agrees) and weights[i][1]
        otherwise (ints or Fractions); weights ((0, 1),) * m keep exactly
        the proper colorings.  The defects of x are the entries y of
        defects[x-1] (1-based, repeats counting) with s(y) < s(x); with
        defects None no vertex has any.

        The sweep places one vertex at a time: next is the unplaced
        vertex with the most placed neighbours (an edge or a defect pair
        makes two vertices neighbours), ties going to the smaller label.
        The frontier is the placed vertices that still have an unplaced
        neighbour, and the sweep keeps {(spins on the frontier, exponent):
        weight}.  Placing v multiplies in the factor of each edge and
        counts each defect pair between v and a placed vertex, drops a
        weight of zero, and merges the states that differ only on the
        vertices that leave the frontier.  The cost is about
        k^(width + 1) |V| times the number of exponents, k = len(spins)
        and width the largest frontier, in place of k^|V|: a path keeps
        two vertices on its frontier, a complete graph all of them.  It
        runs in integers: each edge's pair is scaled by its common
        denominator, and the sums are divided by the product of those
        scales at the end: the sums are ints when every weight is
        integral, and Fractions otherwise.
        """
        n = self.vertex_count
        if len(weights) != len(self.edges):
            raise ValueError("got %d weights for %d edges"
                             % (len(weights), len(self.edges)))
        # links[x][y] and links[y][x] share [agree, differ, lo, hi] for
        # x != y: the scaled factor products of the edges between x and y,
        # and the defect pairs between them charged when the smaller label
        # has the smaller spin (lo) and when it has the larger (hi).
        links = [{} for _ in range(n + 1)]
        scale = 1
        loops = 1
        for (u, v), (agree, differ) in zip(self.edges, weights):
            d = lcm(agree.denominator, differ.denominator)
            scale *= d
            agree = agree.numerator * (d // agree.denominator)
            differ = differ.numerator * (d // differ.denominator)
            if u == v:
                loops *= agree
            elif v in links[u]:
                entry = links[u][v]
                entry[0] *= agree
                entry[1] *= differ
            else:
                links[u][v] = links[v][u] = [agree, differ, 0, 0]
        if defects is not None:
            if len(defects) != n:
                raise ValueError("got %d defect lists for %d vertices"
                                 % (len(defects), n))
            for x, listed in enumerate(defects, start=1):
                for y in listed:
                    if not 1 <= y <= n:
                        raise ValueError("defect vertex %d not in 1..%d"
                                         % (y, n))
                    # a vertex listing itself never has s(x) < s(x)
                    if y != x:
                        entry = links[x].get(y)
                        if entry is None:
                            entry = links[x][y] = links[y][x] = [1, 1, 0, 0]
                        entry[2 if y < x else 3] += 1
        if not loops:
            return {}
        placed = [False] * (n + 1)
        unplaced_neighbours = list(map(len, links))
        front = []
        states = {(0,): 1}
        for v in _sweep_order(links):
            placed[v] = True
            # (frontier position of u, factor when s(u) = s(v), otherwise)
            # and (position, pairs charged when s(u) < s(v), when s(u) > s(v))
            edge_checks = []
            defect_checks = []
            whole = True
            for u, entry in links[v].items():
                if not placed[u]:
                    continue
                agree, differ, lo, hi = entry
                i = front.index(u)
                unplaced_neighbours[u] -= 1
                unplaced_neighbours[v] -= 1
                if not unplaced_neighbours[u]:
                    whole = False
                if agree != 1 or differ != 1:
                    edge_checks.append((i, agree, differ))
                if lo or hi:
                    defect_checks.append((i, lo, hi) if u < v else (i, hi, lo))
            if not whole:
                keep = [i for i, u in enumerate(front)
                        if unplaced_neighbours[u]]
                front = [front[i] for i in keep]
            stay = unplaced_neighbours[v] > 0
            if stay:
                front.append(v)
            # A state is its spins on the frontier followed by its exponent;
            # once the frontier empties, as at the last vertex, it is
            # the exponent alone.
            new = {}
            for state, x in states.items():
                e = state[-1]
                base = state[:-1] if whole else tuple([state[i] for i in keep])
                for s in spins:
                    w = x
                    for i, agree, differ in edge_checks:
                        w *= agree if state[i] == s else differ
                    if not w:
                        continue
                    exponent = e + s
                    for i, below, above in defect_checks:
                        t = state[i]
                        if t < s:
                            exponent -= below
                        elif t > s:
                            exponent -= above
                    key = base + (s, exponent) if stay else base + (exponent,)
                    new[key] = new.get(key, 0) + w
            states = new
            if not states:
                return {}
        sums = {e: x * loops for (e,), x in states.items() if x}
        if scale == 1:
            return sums
        return {e: Fraction(x, scale) for e, x in sums.items()}

    def odd_degree_count(self):
        """Number of vertices with odd degree.

        A loop adds 2 to its vertex's degree, so loops never change parity.
        """
        degree = [0] * (self.vertex_count + 1)
        for u, v in self.edges:
            degree[u] += 1
            degree[v] += 1
        return sum(1 for v in range(1, self.vertex_count + 1) if degree[v] % 2)

    def to_text(self):
        lines = ["vertices %d" % self.vertex_count]
        lines.extend("%d %d" % (u, v) for u, v in self.edges)
        return "\n".join(lines) + "\n"


def _sweep_order(links):
    """The order in which the frontier sweeps place the vertices 1..n,
    links[v] holding v's neighbours: next is the unplaced vertex with the
    most placed neighbours, ties going to the smaller label, and the
    smallest unplaced label when no unplaced vertex has a placed
    neighbour."""
    n = len(links) - 1
    placed = [False] * (n + 1)
    # The unplaced vertices with a placed neighbour.  rank[u] is u less
    # n + 1 per placed neighbour: the least comes next.
    candidates = set()
    rank = list(range(n + 1))
    unlinked = 1
    order = []
    for _ in range(n):
        if candidates:
            v = min(candidates, key=rank.__getitem__)
            candidates.remove(v)
        else:
            while placed[unlinked]:
                unlinked += 1
            v = unlinked
        placed[v] = True
        order.append(v)
        for u in links[v]:
            if not placed[u]:
                rank[u] -= n + 1
                candidates.add(u)
    return order


def _finish(row, loop, scale, fractional):
    """A sweep's last row without trailing zeros, times the loops' factor
    and divided by the scale: Fractions when any weight was one."""
    while row and not row[-1]:
        row.pop()
    row = [c * loop for c in row] if loop else []
    if fractional:
        return [Fraction(c, scale) for c in row]
    return row


def _sparse(f):
    """A dense factor row as (its length, [(i, f[i]) for its nonzero
    entries]): the quantum integers that factor rows hold are mostly
    zeros."""
    return len(f), [(i, c) for i, c in enumerate(f) if c]


def _times_row(row, f):
    """The dense row times a factor row given by _sparse."""
    length, terms = f
    if length == 1 and terms:
        ((_, c),) = terms
        return [x * c for x in row]
    out = [0] * (len(row) + length - 1)
    for i, c in terms:
        for j, x in enumerate(row, i):
            out[j] += x * c
    return out


def _plus_row(a, b):
    """The sum of two dense rows."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return out


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _numbers(tokens, message, lineno, kind=int, count=None):
    """The tokens converted by kind (int or Fraction), as a tuple.

    Raises ParseError(message, lineno) if a token does not convert, or if
    count is given and there are not exactly count tokens.  Tokens that
    are not ASCII or contain '_' are refused before conversion: int and
    Fraction read non-ASCII digits, and whether Fraction reads '1_0'
    depends on the Python version.
    """
    if count is not None and len(tokens) != count:
        raise ParseError(message, lineno)
    if not all(tok.isascii() and "_" not in tok for tok in tokens):
        raise ParseError(message, lineno)
    try:
        return tuple([kind(tok) for tok in tokens])
    except (ValueError, ZeroDivisionError):
        raise ParseError(message, lineno) from None


def parse_graph(text):
    """Parse the graph text format into a Multigraph."""
    vertex_count = None
    edges = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if vertex_count is None:
            if len(parts) != 2 or parts[0] != "vertices":
                raise ParseError("expected 'vertices <count>'", lineno)
            (vertex_count,) = _numbers(
                parts[1:], "vertex count %r is not an integer" % parts[1], lineno)
            if vertex_count < 0:
                raise ParseError("vertex count must be >= 0", lineno)
            continue
        if len(parts) != 2:
            raise ParseError("expected an edge 'u v'", lineno)
        u, v = _numbers(parts, "edge endpoints %r are not integers" % line, lineno)
        if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
            raise ParseError("edge (%d, %d) out of range 1..%d"
                             % (u, v, vertex_count), lineno)
        edges.append((u, v))
    if vertex_count is None:
        raise ParseError("missing 'vertices <count>' header")
    return Multigraph(vertex_count, tuple(edges))
