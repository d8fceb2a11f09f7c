"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own data structures and
algorithms so that agreement is meaningful: the chromatic and Tutte
oracles use deletion-contraction (the package counts colorings directly
and sums over edge subsets), the defected coloring oracle tries every
assignment in turn (the package sweeps a vertex frontier), and
the bracket oracle re-parses PD text and walks loops through explicit port
pairings (the package uses union-find), and the colored Jones oracles
are published closed-form sums and Morton's torus-knot formula (the
package sums over arc-graph flows),
all with plain dict Laurent arithmetic in one variable.  The arc-graph
references generate every candidate and test it (the package searches
and prunes): flows_reference every edge tuple, configurations_reference
every drop map; they share the package's ArcGraph and copy order, and
flows_reference tests conservation with is_conserved, which reads each
edge's source and target rather than the package's entering orders.
state_sums_reference is the package's former state kernel, a depth-first
walk over all k^|V| states, kept as the reference for the frontier sweep
that replaced it.  components and component_count are the package's
former per-subset queries, one fresh union-find per mask;
cluster_sums_reference sums its component-factor products and
cycle weights over every mask, reading c(A) from components, as the
reference for Multigraph.cluster_sums (a vertex frontier sweep), and
parity_sums_reference counts each mask's odd-degree vertices from its
own edge list, as the reference for Multigraph.parity_sums (a sweep
over degree parities).  poly_add_reference
and poly_mul_reference are the package's former LaurentPoly sum and
product, which build every result through the public validating
constructor; the package's arithmetic now skips those checks for
results of canonical operands.  constant_value and evaluate read a
polynomial's value from its terms; only the tests need them, so they
left LaurentPoly.  chord_diagrams
is the package's former ma2 layout, which tried every order of the ends
at each vertex and weighted each distinct diagram by 1/deg; the package
now lays out one diagram per configuration.  main_flow_weight_reference
is the paper's closed main-route weight and the package's former one,
one LaurentPoly product per Gaussian binomial and per red unit factor;
it holds on trefoil.arc and fig8.arc, but not on every arc, and the
package's main route is now the catmm product, which the tests check
against z_nf_reference times catmm_walk_reference.
catmm_walk_reference is the package's former catmm kernel, one walk per
configuration that assigns values copy by copy; the package now
multiplies one closed product of Gaussian factors per flow.
z_nf_reference is the package's former chord-route prefactor, one
LaurentPoly power per kind of red unit factor, with its own delta(f);
the package now makes it a sign, a shift and one (1 - t) pass per red
unit.  qbinom_reference is the package's former Gaussian binomial, the
Pascal recursion in integer dicts; the package now multiplies and
divides (1 - x^a) factors.  None of these references imports those
(1 - x^a) passes.  state_loops_reference is the package's former
state-loop kernel, one rollback walk over all 2^r smoothings that pairs
the ports by arc label itself, kept as the reference for
knotdiag.bracket_contract (a tangle contraction).
model_groups_reference builds bracket_contract's groups for given median
graphs one mask at a time, from state_loops_reference's loop counts and
component_count on each median graph, as the reference for the model
side of the contraction that knotdiag.prop_mm_check reads.  qint
(powers added one at a time) and mq_complete (the paper's closed form
for complete graphs, built on qbinom_reference) left the package
because only the tests read them.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, lcm

from qbichromate.arcflow import red_copies
from qbichromate.polyq import LaurentPoly


def _poly_aligned(p1, p2):
    """(variables, p1 terms, p2 terms) over the merged variable set; a
    plain number is taken as a constant polynomial."""
    p1, p2 = (p if isinstance(p, LaurentPoly) else LaurentPoly.constant(p)
              for p in (p1, p2))
    merged = tuple(sorted(set(p1.variables) | set(p2.variables)))

    def lift(poly):
        pos = {name: merged.index(name) for name in poly.variables}
        out = {}
        for exps, coeff in poly.terms.items():
            full = [0] * len(merged)
            for i, e in enumerate(exps):
                full[pos[poly.variables[i]]] = e
            out[tuple(full)] = coeff
        return out

    return merged, lift(p1), lift(p2)


def constant_value(p):
    """The value of the LaurentPoly p as a Fraction if p is constant."""
    if p.variables:
        raise ValueError("polynomial %s is not constant" % p)
    return Fraction(p.terms.get((), 0))


def evaluate(p, values):
    """The LaurentPoly p at a {name: rational} assignment covering every
    variable, as a Fraction."""
    out = Fraction(0)
    for exps, coeff in p.terms.items():
        term = Fraction(coeff)
        for name, e in zip(p.variables, exps):
            if name not in values:
                raise ValueError("no value supplied for variable %r" % name)
            term *= Fraction(values[name]) ** e
        out += term
    return out


def poly_add_reference(p1, p2):
    """p1 + p2, built through the validating LaurentPoly constructor."""
    variables, a, b = _poly_aligned(p1, p2)
    terms = dict(a)
    for exps, coeff in b.items():
        terms[exps] = terms.get(exps, 0) + coeff
    return LaurentPoly(variables, terms)


def poly_mul_reference(p1, p2):
    """p1 * p2, built through the validating LaurentPoly constructor."""
    variables, a, b = _poly_aligned(p1, p2)
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            terms[exps] = terms.get(exps, 0) + c1 * c2
    return LaurentPoly(variables, terms)


def chromatic_count(vertex_count, edges, n):
    """Number of proper n-colorings, by deletion-contraction."""
    edges = list(edges)
    for u, v in edges:
        if u == v:
            return 0
    if not edges:
        return n ** vertex_count
    lo, hi = sorted(edges[0])
    rest = edges[1:]
    deleted = chromatic_count(vertex_count, rest, n)

    def relabel(w):
        if w == hi:
            return lo
        return w - 1 if w > hi else w

    contracted = chromatic_count(
        vertex_count - 1, [(relabel(a), relabel(b)) for a, b in rest], n)
    return deleted - contracted


def defected_sums_reference(vertex_count, edges, n, defects):
    """{sum of v(x) minus defects of x: count} over proper colorings v
    with colors 0..n-1, where the defects of x are the entries y of
    defects[x-1] with v(y) < v(x), by trying all n^|V| assignments."""
    out = {}
    for v in product(range(n), repeat=vertex_count):
        if any(v[a - 1] == v[b - 1] for a, b in edges):
            continue
        exponent = 0
        for x in range(1, vertex_count + 1):
            exponent += v[x - 1]
            exponent -= sum(1 for y in defects[x - 1] if v[y - 1] < v[x - 1])
        out[exponent] = out.get(exponent, 0) + 1
    return out


def state_sums_reference(g, spins, weights, defects=None):
    """Histogram of all states s: V -> spins, as {sum of s(v) minus the
    defects of v: summed weight}, leaving out sums whose weight cancels
    to zero.

    A state weighs the product over edges i = (u, v) of weights[i][0]
    when s(u) = s(v) (a loop always agrees) and weights[i][1]
    otherwise (ints or Fractions); weights ((0, 1),) * m keep exactly
    the proper colorings.  The defects of x are the entries y of
    defects[x-1] (1-based, repeats counting) with s(y) < s(x); with
    defects None no vertex has any.  The walk sets vertices 1..n
    depth-first with an explicit stack, multiplies in each edge's
    factor and counts each defect pair once its later vertex is set,
    and prunes a partial weight of zero.  It runs in integers: each
    edge's pair is scaled by its common denominator, and the sums are
    divided by the product of those scales at the end: the sums are
    ints when every weight is integral, and Fractions otherwise.
    """
    n = g.vertex_count
    if len(weights) != len(g.edges):
        raise ValueError("got %d weights for %d edges"
                         % (len(weights), len(g.edges)))
    closing = [[] for _ in range(n + 1)]
    scale = 1
    for (u, v), (agree, differ) in zip(g.edges, weights):
        d = lcm(agree.denominator, differ.denominator)
        scale *= d
        closing[max(u, v)].append((min(u, v), int(agree * d),
                                   int(differ * d)))
    # A pair (x, y), y listed by x, is checked at max(x, y); a vertex
    # listing itself never has s(x) < s(x).
    pairs = [[] for _ in range(n + 1)]
    if defects is not None:
        if len(defects) != n:
            raise ValueError("got %d defect lists for %d vertices"
                             % (len(defects), n))
        for x, listed in enumerate(defects, start=1):
            for y in listed:
                if not 1 <= y <= n:
                    raise ValueError("defect vertex %d not in 1..%d"
                                     % (y, n))
                if y != x:
                    pairs[max(x, y)].append((x, y))
    # Level v holds the spin index tried next at vertex v, and the
    # weight and exponent of vertices 1..v.
    spin = [None] * (n + 1)
    next_index = [0] * (n + 1)
    weight = [1] * (n + 1)
    total = [0] * (n + 1)
    spin_count = len(spins)
    histogram = {0: 1} if n == 0 else {}
    v = 1 if n else 0
    while v:
        if next_index[v] == spin_count:
            next_index[v] = 0
            v -= 1
            continue
        s = spins[next_index[v]]
        next_index[v] += 1
        spin[v] = s
        w = weight[v - 1]
        for u, agree, differ in closing[v]:
            w *= agree if spin[u] == s else differ
        if not w:
            continue
        key = total[v - 1] + s
        for x, y in pairs[v]:
            if spin[y] < spin[x]:
                key -= 1
        if v == n:
            histogram[key] = histogram.get(key, 0) + w
        else:
            weight[v] = w
            total[v] = key
            v += 1
    if scale == 1:
        return {key: w for key, w in histogram.items() if w}
    return {key: Fraction(w, scale) for key, w in histogram.items() if w}


def _connected(edges, a, b):
    """Whether a reaches b along the given edges."""
    seen = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        if x == b:
            return True
        for u, v in edges:
            if x in (u, v):
                y = v if u == x else u
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return False


def components(g, mask):
    """Vertex sets of the components of (V, the edges of g that bit i of
    mask selects), by a fresh union-find with path halving.

    Isolated vertices count as singleton components.  Returned as a list
    of sorted vertex lists, ordered by smallest vertex.
    """
    parent = list(range(g.vertex_count + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, (u, v) in enumerate(g.edges):
        if mask >> i & 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    groups = {}
    for v in range(1, g.vertex_count + 1):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def component_count(g, mask):
    return len(components(g, mask))


def cluster_sums_reference(g, weights, factor, cycle=1):
    """Multigraph.cluster_sums one mask at a time: each edge subset's
    weight is a plain product of its weights, times cycle^(|A| - |V| +
    c(A)) with the components c(A) from components(g, mask), times one
    product of factor rows over those components, added into a dense row
    whose trailing zeros are then dropped.  factor is a function of a
    component's size or one row for every component."""
    if len(weights) != g.edge_count:
        raise ValueError("got %d weights for %d edges"
                         % (len(weights), g.edge_count))
    total = []
    for mask in range(1 << g.edge_count):
        parts = components(g, mask)
        nullity = bin(mask).count("1") - g.vertex_count + len(parts)
        row = [cycle ** nullity]
        for i, w in enumerate(weights):
            if mask >> i & 1:
                row = [w * c for c in row]
        for component in parts:
            f = factor(len(component)) if callable(factor) else factor
            out = [0] * (len(row) + len(f) - 1)
            for i, a in enumerate(row):
                for j, c in enumerate(f):
                    out[i + j] += a * c
            row = out
        total += [0] * (len(row) - len(total))
        for i, c in enumerate(row):
            total[i] += c
    while total and not total[-1]:
        total.pop()
    if any(isinstance(w, Fraction) for w in weights):
        return [Fraction(c) for c in total]
    return total


def parity_sums_reference(g, weights):
    """Multigraph.parity_sums one mask at a time: each edge subset's
    plain product of weights is added at the number of vertices whose
    degree in the subset is odd, counted from the subset's edge list (a
    loop adds 2 to its vertex), into a dense row whose trailing zeros
    are then dropped."""
    if len(weights) != g.edge_count:
        raise ValueError("got %d weights for %d edges"
                         % (len(weights), g.edge_count))
    total = [0] * (g.vertex_count + 1)
    for mask in range(1 << g.edge_count):
        chosen = [e for i, e in enumerate(g.edges) if mask >> i & 1]
        degree = {}
        for u, v in chosen:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        weight = 1
        for i, w in enumerate(weights):
            if mask >> i & 1:
                weight *= w
        total[sum(1 for d in degree.values() if d % 2)] += weight
    while total and not total[-1]:
        total.pop()
    if any(isinstance(w, Fraction) for w in weights):
        return [Fraction(c) for c in total]
    return total


def tutte_poly(edges):
    """Tutte polynomial as a dict {(x-exponent, y-exponent): coeff}, by
    deletion-contraction: T = y T(G-e) for a loop e, x T(G/e) for a
    bridge e, and T(G-e) + T(G/e) otherwise; T = 1 without edges."""
    edges = list(edges)
    if not edges:
        return {(0, 0): 1}
    (u, v), rest = edges[0], edges[1:]
    if u == v:
        return {(i, j + 1): c for (i, j), c in tutte_poly(rest).items()}
    contracted = tutte_poly([(u if a == v else a, u if b == v else b)
                             for a, b in rest])
    if not _connected(rest, u, v):
        return {(i + 1, j): c for (i, j), c in contracted.items()}
    out = dict(tutte_poly(rest))
    for key, c in contracted.items():
        out[key] = out.get(key, 0) + c
    return out


def _parse_pd_ports(text):
    """(signs, port pairs) from PD text, independent of the package.

    Ports are (crossing, slot) with slots 0..3; each arc label pairs the
    two ports it appears at.
    """
    signs = []
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        signs.append(1 if parts[0] == "X+" else -1)
        rows.append(tuple(int(p) for p in parts[1:]))
    by_label = {}
    for ci, row in enumerate(rows):
        for slot, label in enumerate(row):
            by_label.setdefault(label, []).append((ci, slot))
    arc_pairs = [tuple(ports) for ports in by_label.values()]
    return signs, arc_pairs


def _mul(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            key = e1 + e2
            out[key] = out.get(key, 0) + c1 * c2
            if out[key] == 0:
                del out[key]
    return out


def _loop_count(r, arc_pairs, state):
    pairs = list(arc_pairs)
    for ci, tau in enumerate(state):
        if tau == 1:
            pairs.extend([((ci, 0), (ci, 3)), ((ci, 1), (ci, 2))])
        else:
            pairs.extend([((ci, 0), (ci, 1)), ((ci, 2), (ci, 3))])
    adjacent = {}
    for a, b in pairs:
        adjacent.setdefault(a, []).append(b)
        adjacent.setdefault(b, []).append(a)
    seen = set()
    loops = 0
    for port in adjacent:
        if port in seen:
            continue
        loops += 1
        stack = [port]
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            stack.extend(adjacent[p])
    return loops


def state_loops_reference(k):
    """Yield (mask, loop count) for each of the 2^r smoothings of the
    KnotPD k, bit ci of mask set when crossing ci takes the A-smoothing.

    The package's former state-loop kernel, kept as the reference for
    knotdiag.bracket_contract: ports 4 ci + slot are joined along the
    arcs once (each arc label joins the two ports it labels), then the
    crossings are smoothed depth-first, A before B, by a union-find that
    rolls back on backtrack (union by size, no path compression).  Its
    undo stack is the walk's O(r) stack, and 4r less its height is the
    loop count.
    """
    r = len(k.crossings)
    parent = list(range(4 * r))
    size = [1] * (4 * r)
    undo = []

    def union(x, y):
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x != y:
            if size[x] < size[y]:
                x, y = y, x
            parent[y] = x
            size[x] += size[y]
            undo.append((x, y))

    first = {}
    for ci, c in enumerate(k.crossings):
        for slot, label in enumerate(c.slots):
            if label in first:
                union(first[label], 4 * ci + slot)
            else:
                first[label] = 4 * ci + slot
    height = [0] * r  # undo-stack height before crossing ci was smoothed
    mask = ci = 0
    while True:
        for cj in range(ci, r):
            height[cj] = len(undo)
            mask |= 1 << cj
            union(4 * cj, 4 * cj + 3)
            union(4 * cj + 1, 4 * cj + 2)
        yield mask, 4 * r - len(undo)
        if not mask:
            return
        # Back up to the deepest A-smoothed crossing and smooth it B.
        ci = mask.bit_length() - 1
        while len(undo) > height[ci]:
            x, y = undo.pop()
            parent[y] = y
            size[x] -= size[y]
        mask ^= 1 << ci
        union(4 * ci, 4 * ci + 1)
        union(4 * ci + 2, 4 * ci + 3)
        ci += 1



def model_groups_reference(k, shadings):
    """knotdiag.bracket_contract(k, shadings) one mask at a time: {model
    differences: {(loop count, #A - #B): number of states}}.

    The loop count of each mask is state_loops_reference's.  For each
    median graph in shadings, the state chooses the edges of mask XOR the
    bits where eta = -1, and its difference is the loop count less
    2 c + |E| - |V|, with c from component_count.
    """
    flips = [sum(1 << ci for ci, e in enumerate(m.eta) if e == -1)
             for m in shadings]
    groups = {}
    for mask, loops in state_loops_reference(k):
        differences = []
        for m, flip in zip(shadings, flips):
            chosen = mask ^ flip
            model = (2 * component_count(m.graph, chosen)
                     + bin(chosen).count("1") - m.graph.vertex_count)
            differences.append(loops - model)
        counts = groups.setdefault(tuple(differences), {})
        state = (loops, 2 * bin(mask).count("1") - len(k.crossings))
        counts[state] = counts.get(state, 0) + 1
    return groups

def bracket_f(text):
    """Normalized bracket of a PD text as a dict {A-exponent: coeff}."""
    signs, arc_pairs = _parse_pd_ports(text)
    r = len(signs)
    total = {}
    for mask in range(1 << r):
        state = [1 if mask >> i & 1 else -1 for i in range(r)]
        loops = _loop_count(r, arc_pairs, state)
        term = {sum(state): 1}
        d = {2: -1, -2: -1}
        for _ in range(loops - 1):
            term = _mul(term, d)
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
            if total[e] == 0:
                del total[e]
    w = sum(signs)
    sign = -1 if w % 2 else 1
    return {e - 3 * w: sign * c for e, c in total.items()}


def jones_from_bracket(text):
    """Jones polynomial as a dict {t-exponent: coeff} via bracket_f."""
    out = {}
    for e, c in bracket_f(text).items():
        assert e % 4 == 0, "A-exponent %d not a multiple of 4" % e
        out[-e // 4] = Fraction(c)
    return out


def trefoil_colored_jones(N):
    """Le's sum for the N-dimensional colored Jones function of the
    trefoil, as {q-exponent: coeff}:

        J_N = q^(1-N) sum_k q^(-kN) prod_(j=1..k) (1 - q^(j-N)),

    whose product vanishes for k >= N."""
    total = {}
    product_k = {0: 1}
    for k in range(N):
        if k:
            product_k = _mul(product_k, {0: 1, k - N: -1})
        for e, c in _mul(product_k, {1 - N - k * N: 1}).items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


def figure_eight_colored_jones(N):
    """Habiro's sum for the N-dimensional colored Jones function of the
    figure-eight knot, as {q-exponent: coeff}:

        J_N = sum_(k<N) prod_(j=1..k) (q^N + q^-N - q^j - q^-j)."""
    total = {}
    product_k = {0: 1}
    for k in range(N):
        if k:
            product_k = _mul(product_k, {N: 1, -N: 1, k: -1, -k: -1})
        for e, c in product_k.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


def torus_2k_colored_jones(k, N):
    """Morton's formula for the N-dimensional colored Jones function of
    the (2, k) torus knot, k odd, as {q-exponent: coeff}:

        J_N = q^(-k(N^2-1)/2) / (q^(N/2) - q^(-N/2))
              sum_r (q^(2k r^2 + (k+2) r + 1/2) - q^(2k r^2 + (2-k) r - 1/2))

    over r = -(N-1)/2, ..., (N-1)/2 in steps of one (H. Morton, "The
    coloured Jones function and Alexander polynomial for torus knots",
    1995).  It is computed in s = q^(1/2), with j = 2r, and the division
    is exact.  With this sign of the framing it equals Le's sum at
    k = 3."""
    numerator = {}
    for j in range(1 - N, N, 2):
        for e, c in ((k * j * j + (k + 2) * j + 1, 1),
                     (k * j * j + (2 - k) * j - 1, -1)):
            numerator[e] = numerator.get(e, 0) + c
    # Q (s^N - s^-N) = P, that is Q (s^(2N) - 1) = P s^N: take off the
    # top term of the remainder until none is left.
    rest = {e + N: c for e, c in numerator.items() if c}
    low = min(rest)
    quotient = {}
    while rest:
        top = max(rest)
        c = rest.pop(top)
        assert top - 2 * N >= low, "Morton's numerator is not divisible"
        quotient[top - 2 * N] = c
        rest[top - 2 * N] = rest.get(top - 2 * N, 0) + c
        if not rest[top - 2 * N]:
            del rest[top - 2 * N]
    shift = -k * (N * N - 1)
    out = {}
    for e, c in quotient.items():
        assert (e + shift) % 2 == 0, "odd power of q^(1/2)"
        out[(e + shift) // 2] = c
    return out


def vertex_flow(g, f, v):
    """Total flow leaving v, the common in/out value of a conserved
    flow."""
    return sum(x for e, x in zip(g.reduced_edges, f) if e[1] == v)


def is_conserved(g, f):
    """Whether the flow into every vertex equals the flow out of it."""
    return all(sum(x for e, x in zip(g.reduced_edges, f) if g.target(e) == v)
               == vertex_flow(g, f, v) for v in range(1, g.r))


def flows_reference(g, n):
    """Conserved flows with at most n through every vertex, by testing
    all (n+1)^|E| tuples in lexicographic order."""
    flows = []
    for f in product(range(n + 1), repeat=len(g.reduced_edges)):
        if not is_conserved(g, f):
            continue
        if any(vertex_flow(g, f, v) > n for v in range(1, g.r)):
            continue
        flows.append(f)
    return flows


def _t_power(e):
    return LaurentPoly.from_powers("t", {e: 1})


def _one_minus_t_power(e):
    return LaurentPoly.constant(1) - _t_power(e)


def _ahead(g, f, edge):
    """Flow on the edges entering edge's target ahead of edge, read off
    the entering order."""
    entering = g.entering(g.target(edge))
    return sum(f[g.edge_index[a]] for a in entering[:entering.index(edge)])


def qbinom_reference(m, k, base):
    """The Gaussian binomial [m choose k] in a monomial base, by the
    Pascal recursion [j+1 choose i] = x^i [j choose i] + [j choose i-1]
    over rows of {power of x: int} dicts, x then replaced by the base."""
    row = [{0: 1}]
    for _ in range(m):
        grown = [{0: 1}]
        for i in range(1, len(row)):
            entry = dict(row[i - 1])
            for e, c in row[i].items():
                entry[e + i] = entry.get(e + i, 0) + c
            grown.append(entry)
        row = grown + [{0: 1}]
    ((exps, _),) = base.terms.items()
    terms = {}
    for e, c in row[k].items():
        key = tuple(e * x for x in exps)
        terms[key] = terms.get(key, 0) + c
    return LaurentPoly(base.variables, terms)


def qint(n, base="q"):
    """The quantum integer 1 + base + ... + base^(n-1), base a variable
    name or a monomial LaurentPoly, one power added at a time."""
    if n < 0:
        raise ValueError("quantum integers need n >= 0, got %d" % n)
    if isinstance(base, str):
        base = LaurentPoly.variable(base)
    out = LaurentPoly()
    power = LaurentPoly.constant(1)
    for _ in range(n):
        out = out + power
        power = power * base
    return out


def mq_complete(k, n):
    """The paper's closed form for the q-chromatic sum of the complete
    graph on k vertices: k! [n choose k]_q q^(k(k-1)/2), zero when n < k
    (no proper coloring exists)."""
    if k < 1 or n < 1:
        raise ValueError("need k, n >= 1")
    if n < k:
        return LaurentPoly()
    q = LaurentPoly.variable("q")
    return factorial(k) * qbinom_reference(n, k, q) * q ** (k * (k - 1) // 2)


def mult_t(g, f):
    """Product over vertices of the quantum binomial (f(v) choose blue
    out-flow) in base t^(-sign(v))."""
    flow_on = dict(zip(g.reduced_edges, f))
    out = LaurentPoly.constant(1)
    for v in range(1, g.r):
        total = vertex_flow(g, f, v)
        carried = flow_on.get(("b", v), 0)
        base = _t_power(-g.sign(v))
        out = out * qbinom_reference(total, carried, base)
    return out


def main_flow_weight_reference(g, f, n):
    """The paper's closed per-flow weight of the main route, without the
    t^delta(f) normalization, as a product of LaurentPoly factors.

    mult_t times t^(-sign(v) n f(blue out)) over vertices, times, for
    every unit j = 0..f(e)-1 of every red edge e entering w, the factor
    1 - t^(-sign(source)(n - j - s)) where s sums the flow on edges
    entering w before e.
    """
    flow_on = dict(zip(g.reduced_edges, f))
    blue_exponent = 0
    for v in range(1, g.r):
        blue_exponent -= g.sign(v) * n * flow_on.get(("b", v), 0)
    out = mult_t(g, f) * _t_power(blue_exponent)
    for e in g.reduced_edges:
        kind, u = e
        if kind != "r":
            continue
        value = f[g.edge_index[e]]
        if value == 0:
            continue
        ahead = _ahead(g, f, e)
        for j in range(value):
            out = out * _one_minus_t_power(-g.sign(u) * (n - j - ahead))
    return out


def configurations_reference(g, f):
    """(drop, config) pairs of a flow, one per configuration.

    drop maps each red copy (edge, index) to a vertex from its arrival
    to r-1; config[i-1] is the frozenset of copies riding blue edge i,
    those with arrival <= i < drop.  Every drop map in the product of
    the copies' ranges, copies sorted by edge key, is tried in turn and
    kept when each blue edge i carries exactly f(b_i) copies.
    """
    copies = [(e, idx) for e in sorted(g.reduced_edges) if e[0] == "r"
              for idx in range(f[g.edge_index[e]])]
    arrival = [g.target(e) for e, _ in copies]
    out = []
    for drops in product(*(range(w, g.r) for w in arrival)):
        config = tuple(frozenset(c for c, w, d in zip(copies, arrival, drops)
                                 if w <= i < d)
                       for i in range(1, g.r - 1))
        if all(len(riders) == f[g.edge_index[("b", i)]]
               for i, riders in enumerate(config, start=1)):
            out.append((dict(zip(copies, drops)), config))
    return out


def admissible_pairs_reference(g, f, n):
    """(config, drop, values) triples passing the equal-value drop test,
    by testing all n^copies value tuples of every configuration."""
    copies = red_copies(g, f)
    arrival = {c: g.target(c[0]) for c in copies}
    pairs = []
    for drop, config in configurations_reference(g, f):
        for values in product(range(n), repeat=len(copies)):
            ok = True
            for a, b in combinations(range(len(copies)), 2):
                if values[a] != values[b]:
                    continue
                ca, cb = copies[a], copies[b]
                if arrival[ca] == arrival[cb]:
                    ok = False
                    break
                inner, outer = (ca, cb) if arrival[ca] < arrival[cb] \
                    else (cb, ca)
                if drop[inner] >= arrival[outer]:
                    ok = False
                    break
            if ok:
                pairs.append((config, drop, values))
    return pairs


def catmm_terms_reference(g, f, pairs):
    """{exponent: count} of the catmm flow sum over the flow's admissible
    pairs, each pair's defects counted copy by copy from its value map."""
    copies = red_copies(g, f)
    terms = {}
    for config, drop, values in pairs:
        value_of = dict(zip(copies, values))
        exponent = 0
        for c in copies:
            w = g.target(c[0])
            value = value_of[c]
            rode_in = config[w - 2] if w >= 2 else frozenset()
            earlier = [c2 for c2 in copies[:copies.index(c)]
                       if g.target(c2[0]) == w]
            def1 = sum(1 for c2 in rode_in if value_of[c2] < value)
            def1 += sum(1 for c2 in earlier if value_of[c2] < value)
            def2 = 0
            if drop[c] <= g.r - 2:
                def2 = sum(1 for c2 in config[drop[c] - 1]
                           if value_of[c2] < value)
            exponent += value - def1 - def2
        terms[exponent] = terms.get(exponent, 0) + 1
    return terms


def catmm_walk_reference(g, f, n):
    """{exponent: count} of the catmm flow sum, walking each drop map of
    configurations_reference once, read in red_copies order.

    Copies are listed by arrival, so copy b meets on arrival exactly the
    earlier copies a with drop(a) >= arrival(b), riding[b].  Their values
    are pairwise distinct and b's avoids them, so value - def1 is the
    rank of b's value among the values they leave free.  A def2 pair is
    charged when its later copy b takes its value: against b for each
    smaller-valued earlier copy dropped later than b, and against a for
    each earlier copy a dropped sooner than b (but not before b arrives)
    whose value is larger.  The exponent is carried down to the leaves.
    """
    copies = red_copies(g, f)
    arrival = [g.target(e) for e, _ in copies]
    values = [0] * len(copies)
    terms = {}
    for drop_map, _ in configurations_reference(g, f):
        drop = [drop_map[c] for c in copies]
        riding = [[a for a in range(b) if drop[a] >= arrival[b]]
                  for b in range(len(copies))]
        later = [[a for a in riding[b] if drop[a] > drop[b]]
                 for b in range(len(copies))]
        sooner = [[a for a in riding[b] if drop[a] < drop[b]]
                  for b in range(len(copies))]

        def assign(b, exponent):
            if b == len(copies):
                terms[exponent] = terms.get(exponent, 0) + 1
                return
            taken = {values[a] for a in riding[b]}
            rank = 0
            for value in range(n):
                if value in taken:
                    continue
                charged = exponent + rank
                for a in later[b]:
                    if values[a] < value:
                        charged -= 1
                for a in sooner[b]:
                    if values[a] > value:
                        charged -= 1
                values[b] = value
                assign(b + 1, charged)
                rank += 1

        assign(0, 0)
    return terms


def z_nf_reference(g, f, n):
    """Per-flow prefactor of the chord-diagram route as a product of
    LaurentPoly factors.

    t^delta(f), delta(f) being the sign-weighted product of each
    vertex's blue out-flow and the flow entering ahead of its red
    out-edge minus the rot-weighted flow total, times t^(n (blue flow
    from - sources minus from +)), times (1-t)^a (1-t^-1)^b for the a
    red units from - sources and the b from + sources, times
    t^-(n-1-|P|) per + red copy (P the flow entering ahead of it), times
    t^(red out times blue out) at every vertex.
    """
    value = dict(zip(g.reduced_edges, f))
    exponent = 0
    for v in range(1, g.r):
        blue, red = value.get(("b", v), 0), value.get(("r", v), 0)
        if ("r", v) in value:
            exponent += g.sign(v) * blue * _ahead(g, f, ("r", v))
        exponent += red * blue
    units = {1: 0, -1: 0}
    for e, x in value.items():
        exponent -= x * g.rot(e)
        if e[0] == "b":
            exponent -= g.sign(e[1]) * n * x
        else:
            units[g.sign(e[1])] += x
    for e, idx in red_copies(g, f):
        if g.sign(e[1]) == 1:
            exponent -= n - 1 - (_ahead(g, f, e) + idx)
    return (_one_minus_t_power(1) ** units[-1]
            * _one_minus_t_power(-1) ** units[1] * _t_power(exponent))


def chord_diagrams(g, f):
    """Distinct diagrams of a flow with their multiplicities.

    Every configuration lays its copies out as intervals: a copy starts
    at its arrival vertex and ends where it is dropped (or at the last
    vertex).  Positions run through vertex 1's starts, then its ends,
    then vertex 2's, and so on.  Start positions follow the fixed copy
    order; end positions within a vertex are assigned in every possible
    order.  Returns (chords, groups, deg) triples: chords are (start,
    end) position pairs listed by start, groups[v-1] = (starts, ends)
    counts vertex v's positions, and deg counts the distinct diagrams of
    that configuration, as the assignment enumeration produced them.
    """
    copies = red_copies(g, f)
    arrivals = {v: [c for c in copies if g.target(c[0]) == v]
                for v in range(1, g.r)}
    results = []
    for drop, _ in configurations_reference(g, f):
        ends_at = {v: [c for c in copies if drop[c] == v]
                   for v in range(1, g.r)}
        start_pos = {}
        end_slots = {}
        groups = []
        position = 0
        for v in range(1, g.r):
            for c in arrivals[v]:
                start_pos[c] = position
                position += 1
            end_slots[v] = list(range(position, position + len(ends_at[v])))
            position += len(ends_at[v])
            groups.append((len(arrivals[v]), len(ends_at[v])))
        diagrams = set()
        orderings = [permutations(ends_at[v]) for v in range(1, g.r)]
        for combo in product(*orderings):
            end_pos = {}
            for v, perm in zip(range(1, g.r), combo):
                for slot, c in zip(end_slots[v], perm):
                    end_pos[c] = slot
            diagrams.add(tuple(sorted((start_pos[c], end_pos[c])
                                      for c in copies)))
        for chords in sorted(diagrams):
            results.append((chords, tuple(groups), len(diagrams)))
    return results


def chord_key(chords, groups):
    """(chord count, intersection edges, defect lists) of a positional
    diagram: chords are adjacent when their intervals meet; chord i's
    defects are the chords strictly containing its start, then those
    strictly containing its end whose own end lies in a later group."""
    group_of = [v for v, (starts, ends) in enumerate(groups, start=1)
                for _ in range(starts + ends)]
    edges = []
    defects = []
    for i, (si, ei) in enumerate(chords):
        edges.extend((i + 1, j + 1) for j in range(i + 1, len(chords))
                     if max(si, chords[j][0]) < min(ei, chords[j][1]))
        defects.append(
            tuple(j + 1 for j, (sj, ej) in enumerate(chords) if sj < si < ej)
            + tuple(j + 1 for j, (sj, ej) in enumerate(chords)
                    if sj < ei < ej and group_of[ej] > group_of[ei]))
    return len(chords), tuple(edges), tuple(defects)


def ma2_terms_reference(g, f, n):
    """{exponent: coefficient} of the ma2 flow sum: the defected value
    sum of every diagram of chord_diagrams, weighted by 1/deg."""
    folds = {}
    terms = {}
    for chords, groups, deg in chord_diagrams(g, f):
        key = chord_key(chords, groups)
        if key not in folds:
            folds[key] = defected_sums_reference(key[0], key[1], n, key[2])
        for exponent, count in folds[key].items():
            terms[exponent] = terms.get(exponent, 0) + Fraction(count, deg)
    return {e: c for e, c in terms.items() if c}
