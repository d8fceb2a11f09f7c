"""Multigraphs, their enumeration kernels, and the shared text format.

Graphs are undirected multigraphs on vertices 1..vertex_count; loops and
parallel edges are allowed.  A subset expansion with one factor per
component of (V, A) (the random-cluster and q-Potts forms, the
q-chromatic inclusion-exclusion) is a cluster sum of
Multigraph.cluster_sums, which sweeps a vertex frontier and folds each
component's factor in as the component closes; the expansions that also
read |A| or the odd-degree count (the Tutte, Whitney-rank and bichromate
polynomials, the high-temperature expansion, the bracket's subset route)
fold the histogram of Multigraph.subset_statistics.  Every agree/differ
state sum folds Multigraph.state_sums; a defected coloring sum is a
state sum over the proper colorings with defect lists, and without
defects it is the q-chromatic sum.  subset_statistics walks all 2^|E|
edge subsets depth-first, in integers: Fraction weights are split into
numerator and denominator, and each histogram value is divided once at
the end.  A fold reads only part of each key, so it sums the histogram
per that part with group_sums and computes one factor per group.
state_sums and cluster_sums place the vertices in one order
(_sweep_order) and keep only what a frontier needs, the spins or the
partition into open components, so their cost grows with the
frontier's width, not with |V| or |E|; they too run in integers, each
with its own scaling.  The per-subset queries index an edge subset by a
bitmask where bit i selects edges[i]: component_counts lists the
component count of every subset from one rollback walk, and
odd_degree_count reads one mask.

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

    def subset_statistics(self, weights=None):
        """Histogram of all 2^m edge subsets A, as {(sorted component
        sizes of (V, A), |A|, odd-degree count of (V, A)): summed weight}.

        A subset weighs the product of weights[i] over its edges (ints or
        Fractions), or 1 when weights is None.  Every key that some subset
        reaches is kept, even when its weights cancel to zero.  The values
        are ints for int weights and Fractions when any weight is a
        Fraction.  Any other weight that multiplies with ints is summed as
        it is.

        The walk is depth-first, edge by edge, with a union-find that
        rolls back on backtrack (union by size, no path compression).  It
        runs in integers: a Fraction weight p/q is the pair (p, q), and a
        chosen edge multiplies the running weight by p, a left-out one by
        q.  Each sum then carries the product of all the q's, and is
        divided by it once at the end.  The walk recurses once per edge
        on purpose: a graph with more edges than Python's recursion limit
        allows fails with a RecursionError, whose 2^m subsets no caller
        could wait for anyway.

        >>> path = Multigraph(3, ((1, 2), (2, 3)))
        >>> stats = path.subset_statistics([Fraction(1, 2), Fraction(-1, 2)])
        >>> for key in sorted(stats):
        ...     print(key, stats[key])
        ((1, 1, 1), 0, 0) 1
        ((1, 2), 1, 2) 0
        ((3,), 2, 2) -1/4
        """
        edges = self.edges
        m = len(edges)
        if weights is None:
            weights = (1,) * m
        elif len(weights) != m:
            raise ValueError("got %d weights for %d edges" % (len(weights), m))
        # the factor when edge i is chosen, and when it is left out
        fractional = [isinstance(w, Fraction) for w in weights]
        take = [w.numerator if f else w for w, f in zip(weights, fractional)]
        leave = [w.denominator if f else 1 for w, f in zip(weights, fractional)]
        parent = list(range(self.vertex_count + 1))
        size = [1] * (self.vertex_count + 1)
        # the sizes of the roots, in no order
        sizes = [1] * self.vertex_count
        odd = [0] * (self.vertex_count + 1)
        histogram = {}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        def walk(i, chosen, odd_count, weight):
            if i == m:
                key = (tuple(sorted(sizes)), chosen, odd_count)
                old = histogram.get(key)
                histogram[key] = weight if old is None else old + weight
                return
            q = leave[i]
            walk(i + 1, chosen, odd_count, weight if q == 1 else weight * q)
            u, v = edges[i]
            # A loop flips its vertex twice, so its parity is unchanged.
            odd[u] ^= 1
            odd_count += 2 * odd[u] - 1
            odd[v] ^= 1
            odd_count += 2 * odd[v] - 1
            ru, rv = find(u), find(v)
            if ru != rv:
                if size[ru] < size[rv]:
                    ru, rv = rv, ru
                a, b = size[ru], size[rv]
                parent[rv] = ru
                size[ru] = a + b
                sizes.remove(a)
                sizes.remove(b)
                sizes.append(a + b)
            walk(i + 1, chosen + 1, odd_count, weight * take[i])
            if ru != rv:
                sizes.remove(a + b)
                sizes.append(a)
                sizes.append(b)
                size[ru] = a
                parent[rv] = rv
            odd[u] ^= 1
            odd[v] ^= 1

        walk(0, 0, 0, 1)
        if True not in fractional:
            return histogram
        inverse = Fraction(1, prod(leave))
        return {key: x * inverse for key, x in histogram.items()}

    def cluster_sums(self, weights, factor):
        """The sum over all edge subsets A of the product of weights[i]
        over the edges of A times the product, over the components W of
        (V, A), of the factor of W, as a dense row: row[i] is the
        coefficient of x^i, and trailing zeros are dropped (a zero sum
        is []).

        factor is a function from a component's size to its dense int
        row, or one such row that every component takes.  The weights are
        ints or Fractions; the entries are ints for int weights and
        Fractions when any weight is a Fraction.

        The sweep places the vertices in state_sums' order (edges make
        two vertices neighbours).  The frontier is the placed vertices
        that still have an unplaced neighbour, and the sweep keeps
        {(the partition of the frontier into the components of the
        chosen edges, the size of each block): row}.  Placing v decides
        at once every edge between v and a placed vertex: the parallel
        edges to one neighbour join it when any of them is chosen.  A
        block whose last frontier vertex leaves is a whole component: its
        factor is multiplied into the row and its size is forgotten, so
        no key holds a closed component.  With one row for every size the
        key is the partition alone.  On a path the frontier is one
        vertex, so there are at most |V| keys, and one without sizes.  It
        runs in integers: a Fraction weight p/q contributes p when its
        edge is chosen and q when it is left out, and the sum is divided
        once by the product of the q's at the end.

        With weight -1 and 1 + x^s for a component of size s, it is the
        sum of x^(sum of colors) over the proper colorings with colors
        0 and 1 (inclusion-exclusion over the edges that agree):

        >>> path = Multigraph(3, ((1, 2), (2, 3)))
        >>> path.cluster_sums([-1, -1], lambda s: [1] + [0] * (s - 1) + [1])
        [0, 1, 1]
        >>> path.cluster_sums([Fraction(1, 2), -1], [3])
        [Fraction(21, 1)]
        """
        n = self.vertex_count
        if len(weights) != len(self.edges):
            raise ValueError("got %d weights for %d edges"
                             % (len(weights), len(self.edges)))
        # bundles[x][y] and bundles[y][x] share [leave all, any choice] for
        # x != y: the scaled weight products of the edges between x and y
        # when none of them is chosen, and over every choice of them.
        bundles = [{} for _ in range(n + 1)]
        scale = 1
        loops = 1
        fractional = False
        for (u, v), w in zip(self.edges, weights):
            if isinstance(w, Fraction):
                fractional = True
                take, leave = w.numerator, w.denominator
            else:
                take, leave = w, 1
            scale *= leave
            if u == v:
                loops *= take + leave
            elif v in bundles[u]:
                entry = bundles[u][v]
                entry[0] *= leave
                entry[1] *= take + leave
            else:
                bundles[u][v] = bundles[v][u] = [leave, take + leave]
        sized = callable(factor)
        if sized:
            rows = {}
        else:
            factor = _sparse(factor)
        placed = [False] * (n + 1)
        unplaced_neighbours = list(map(len, bundles))
        front = []
        # A key is the block of each frontier vertex, numbered in order of
        # first appearance, and the size of each block (empty unsized).
        states = {((), ()): [1]}
        for v in _sweep_order(bundles):
            placed[v] = True
            links = []
            for u, (apart, every) in bundles[v].items():
                if placed[u]:
                    links.append((front.index(u), apart, every - apart))
                    unplaced_neighbours[u] -= 1
                    unplaced_neighbours[v] -= 1
            # (weight, frontier positions joined to v) per choice of links
            choices = [(1, ())]
            for i, apart, join in links:
                choices = [(w * apart, joined) for w, joined in choices] + [
                    (w * join, joined + (i,)) for w, joined in choices if join]
            keep = [i for i, u in enumerate(front) if unplaced_neighbours[u]]
            stay = unplaced_neighbours[v] > 0
            front = [front[i] for i in keep]
            if stay:
                front.append(v)
            new = {}
            for (blocks, sizes), row in states.items():
                # v's block is number b until the renumbering
                b = max(blocks, default=-1) + 1
                for w, joined in choices:
                    into = list(range(b + 1))
                    for i in joined:
                        into[blocks[i]] = b
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
        while row and not row[-1]:
            row.pop()
        row = [c * loops for c in row] if loops else []
        if fractional:
            return [Fraction(c, scale) for c in row]
        return row

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

    def component_counts(self):
        """[c(mask) for mask in 0..2^m - 1], c(mask) being the number of
        components of (V, the edges bit i of mask selects), isolated
        vertices included.

        One depth-first walk, edge by edge, with a union-find that rolls
        back on backtrack (union by size, no path compression), as in
        subset_statistics.

        >>> Multigraph(3, ((1, 2), (2, 3), (1, 1))).component_counts()
        [3, 2, 2, 1, 3, 2, 2, 1]
        """
        edges = self.edges
        m = len(edges)
        counts = [0] * (1 << m)
        parent = list(range(self.vertex_count + 1))
        size = [1] * (self.vertex_count + 1)

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        def walk(i, mask, c):
            if i == m:
                counts[mask] = c
                return
            walk(i + 1, mask, c)
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                walk(i + 1, mask | 1 << i, c)
                return
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            walk(i + 1, mask | 1 << i, c - 1)
            size[ru] -= size[rv]
            parent[rv] = rv

        walk(0, 0, self.vertex_count)
        return counts

    def odd_degree_count(self, mask):
        """Number of vertices with odd degree in the selected subgraph.

        A loop adds 2 to its vertex's degree, so loops never change parity.
        """
        degree = [0] * (self.vertex_count + 1)
        for i, (u, v) in enumerate(self.edges):
            if mask >> i & 1:
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


def group_sums(pairs):
    """{group: the sum of its values} over (group, value) pairs.

    A group's first value is stored as it is, not added to 0.  Each
    subset fold reads only part of a subset_statistics key, so it sums
    the histogram per that part here and then computes one factor per
    group instead of one per key.

    >>> group_sums([("a", 1), ("b", 2), ("a", 3)])
    {'a': 4, 'b': 2}
    """
    sums = {}
    for group, value in pairs:
        old = sums.get(group)
        sums[group] = value if old is None else old + value
    return sums


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
