"""Color-weighted graph polynomials via enumeration and subset expansion.

The central object is the q-weighted count of proper colorings with colors
0..n-1, where a coloring contributes q raised to the sum of its colors.
The module computes it two independent ways (direct enumeration and the
inclusion-exclusion subset expansion over edge subsets), and carries the
related subset-expansion polynomials: the bichromate, the Whitney rank
and Tutte polynomials, and the q-bichromate.

It also hosts the defect-corrected coloring sum over chord-diagram
intersection graphs (mdef_chord); the arcflow module, which in turn imports
this one, lays out one chord diagram per flow configuration.
"""

from functools import cache

from .graphcore import Multigraph
from .polyq import LaurentPoly, _divide_one_minus, _times_one_minus


def mq_direct(g, n):
    """Sum q^(sum of colors) over proper colorings with colors 0..n-1."""
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    sums = g.state_sums(range(n), ((0, 1),) * g.edge_count)
    return LaurentPoly.from_powers("q", sums)


def mq_subset(g, n):
    """The same sum by inclusion-exclusion over edge subsets.

    Each subset A contributes (-1)^|A| times the product over components W
    of (V, A) of the quantum integer of n in base q^|W|: the cluster sum
    of Multigraph.cluster_sums with weight -1 on every edge, which folds
    each component's quantum integer in as the frontier sweep closes it.
    """
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    row = g.cluster_sums((-1,) * g.edge_count, lambda s: _qint_row(n, s))
    return LaurentPoly.from_powers("q", dict(enumerate(row)))


def _qint_row(n, s):
    """The quantum integer of n in base q^s, (1 - q^(sn)) / (1 - q^s), as
    a dense int row: one multiply and one exact divide pass."""
    return _divide_one_minus(_times_one_minus([1], s * n), s)


def bichromate(g):
    """The subset-expansion polynomial sum over A of a^c(A) * b^|A|."""
    return LaurentPoly(("a", "b"), _count_chosen(g))


def _count_chosen(g):
    """{(c(A), |A|): number of edge subsets A}: entry c of the cluster
    sum with the factor x and cycle weight Y = 2^(m+1) holds, as base-Y
    digit k, the number (at most 2^m) with nullity k = |A| - |V| + c."""
    bits = g.edge_count + 1
    row = g.cluster_sums((1,) * g.edge_count, [0, 1], 1 << bits)
    return {(c, nullity + g.vertex_count - c): count
            for c, value in enumerate(row)
            for nullity, count in _digits(value, bits)}


def _digits(value, bits):
    """(k, digit k) for each nonzero digit of the int value >= 0 in base
    2^bits, lowest first: the counts a cluster sum packs into one entry."""
    mask = (1 << bits) - 1
    k = 0
    while value:
        digit = value & mask
        if digit:
            yield k, digit
        value >>= bits
        k += 1


def tutte(g, form="tutte"):
    """Rank-generating subset expansions, with r(A) = |V| - c(A).

    form="tutte": sum over A of (x-1)^(r(E)-r(A)) (y-1)^(|A|-r(A)).
    form="whitney-rank": sum over A of u^(r(E)-r(A)) v^(|A|-r(A)).
    The Tutte form equals the Whitney-rank form with u, v replaced by
    x-1, y-1.  Both read the (c(A), |A|) counts of _count_chosen.
    """
    if form not in ("tutte", "whitney-rank"):
        raise ValueError("form must be 'tutte' or 'whitney-rank', got %r" % form)
    counts = _count_chosen(g)
    nv = g.vertex_count
    c_full = next(c for c, chosen in counts if chosen == g.edge_count)
    # (r(E) - r(A), |A| - r(A)): the pair is one-to-one with (c(A), |A|)
    ranks = {(c - c_full, chosen - nv + c): count
             for (c, chosen), count in counts.items()}
    if form == "whitney-rank":
        return LaurentPoly(("u", "v"), ranks)
    width = 1 + max(b for _, b in ranks)
    grid = [[0] * width for _ in range(1 + max(a for a, _ in ranks))]
    for (a, b), count in ranks.items():
        grid[a][b] = count
    # (y-1)^b expanded along each row, then (x-1)^a down each column
    columns = zip(*[_at_minus_one(row) for row in grid])
    return LaurentPoly(("x", "y"), {(i, j): c
                                    for j, column in enumerate(columns)
                                    for i, c in enumerate(_at_minus_one(column))})


def _at_minus_one(row):
    """The dense int row of the sum of row[k] (z - 1)^k, by Horner's rule:
    one (1 - z) pass, negated, per k."""
    out = []
    for c in reversed(row):
        out = [-v for v in _times_one_minus(out, 1)]
        out[0] += c
    return out


def q_bichromate(g, y):
    """Subset expansion x^|A| times the product over components W of
    the quantum integer of y in base q^|W|.

    y must be a positive integer so every component factor is a polynomial.
    At q=1 this reduces to the bichromate with a specialized to y and b to x.

    It is the cluster sum with weight X on every edge and the quantum
    integer of y in base q^s for a component of size s: entry e holds,
    as base-X digit j, the coefficient of q^e x^j, a sum of at most 2^m
    coefficients of at most y^|V| each, so X = 2^m 2^b, y^|V| < 2^b.
    """
    if y < 1:
        raise ValueError("need y >= 1, got %d" % y)
    bits = g.edge_count + (y ** g.vertex_count).bit_length()
    row = g.cluster_sums((1 << bits,) * g.edge_count, lambda s: _qint_row(y, s))
    return LaurentPoly(("q", "x"), {(e, j): count
                                    for e, value in enumerate(row)
                                    for j, count in _digits(value, bits)})


def mdef_chord(chords, n):
    """Defect-corrected coloring sum over a chord diagram's intersection graph.

    Chords are (start, end) pairs of sortable points with start < end,
    listed by start; a point's first entry names its group (the vertex
    it sits at).  Two chords are adjacent when their intervals are not
    disjoint (they cross or one nests inside the other).  A proper
    coloring assigns values 0..n-1 so adjacent chords differ.  Each
    chord c contributes t^(v_c - def1 - def2), where

      def1(c) counts chords strictly containing c's start point that
      carry a smaller value, and
      def2(c) counts chords strictly containing c's end point, whose
      own end lies in a strictly later group, and that carry a smaller
      value.

    A diagram with pairwise disjoint chords therefore yields the plain
    product of quantum integers of n in base t.
    """
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    edges = []
    defects = []
    for i, (si, ei) in enumerate(chords):
        edges.extend((i + 1, j + 1) for j in range(i + 1, len(chords))
                     if max(si, chords[j][0]) < min(ei, chords[j][1]))
        starts = [j + 1 for j, (sj, ej) in enumerate(chords) if sj < si < ej]
        ends = [j + 1 for j, (sj, ej) in enumerate(chords)
                if sj < ei < ej and ej[0] > ei[0]]
        defects.append(starts + ends)
    return _chord_sum(len(chords), tuple(edges),
                      tuple(tuple(listed) for listed in defects), n)


@cache
def _chord_sum(chord_count, edges, defects, n):
    """The fold behind mdef_chord, kept per intersection graph, defect
    lists and n: configurations repeat a few of them (fig8's 63 at n = 5
    have 58), and the arcflow identities suite sums every flow twice."""
    sums = Multigraph(chord_count, edges).state_sums(
        range(n), ((0, 1),) * len(edges), defects)
    return LaurentPoly.from_powers("t", sums)
