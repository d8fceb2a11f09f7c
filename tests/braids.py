"""Knot diagrams as braid closures, for checks beyond T(2,k) and the
hand-written fixtures.

A braid word on n strands is a list of nonzero ints: i stands for the
generator sigma_i, in which the strand at position i crosses over the one
at position i + 1 as both run upward, and -i for its inverse.  Its closure
joins the top of each position to its bottom.  The closure is one knot
exactly when the word's permutation of the positions is one n-cycle.
"""


def closure_pd(word, strands):
    """The PD text of the closure of word, a braid on strands strands.

    Every crossing is drawn with both strands running up.  Its corners,
    counterclockwise, are bottom-left, bottom-right, top-right, top-left.
    The strand from bottom-left to top-right goes over for sigma_i and
    under for its inverse.  Slot 0 is the incoming under-strand, and the
    sign follows from the slot at which the over-strand enters.
    """
    arcs = list(range(strands))  # the arc at each position, from the bottom
    crossings = []
    fresh = strands
    for g in word:
        i = abs(g) - 1
        bottom_left, bottom_right = arcs[i], arcs[i + 1]
        top_right, top_left = fresh, fresh + 1
        fresh += 2
        corners = [bottom_left, bottom_right, top_right, top_left]
        # the under-strand enters bottom-right for sigma_i, bottom-left
        # for its inverse; the over-strand enters at slot 3 or slot 1
        start = 1 if g > 0 else 0
        slots = corners[start:] + corners[:start]
        crossings.append(("X-" if g > 0 else "X+", slots))
        arcs[i], arcs[i + 1] = top_left, top_right
    # the top arc at each position runs round to the bottom one
    joins = {arc: position for position, arc in enumerate(arcs)}
    labels = {}
    for _, slots in crossings:
        for arc in slots:
            arc = joins.get(arc, arc)
            labels.setdefault(arc, len(labels) + 1)
    return "".join("%s %s\n" % (sign, " ".join(str(labels[joins.get(a, a)])
                                                for a in slots))
                   for sign, slots in crossings)


def is_knot(word, strands):
    """Whether the closure of word is one component."""
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    position, steps = perm[0], 1
    while position != 0:
        position, steps = perm[position], steps + 1
    return steps == strands


def random_knot_word(rng, strands, max_length):
    """A braid word on strands strands, at most max_length letters long,
    whose closure is one knot, drawn with rng."""
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(strands - 1, max_length))]
        if is_knot(word, strands):
            return word
