"""The benchmark's workloads and the checks every task's output must pass.

A workload is a fixed list of CLI tasks on inputs generated from the
seed.  Each puts most of its work in different layers:

* ``subsets``: dense graphs through the 2^|E| edge-subset expansions,
  plus Jones polynomials and the bracket suite on T(2,k) diagrams
  (2^r bracket states).  `polyq` and `graphcore` dominate; `arcflow` and
  `chordal` do nothing.
* ``states``: paths, cycles and a grid through the k^|V| Potts state
  sums, plus the chordal suite on tree structures.  `statmech` and
  `chordal` dominate; `polyq` and `graphcore` are nearly idle, so a
  change to the subset kernel or to `polyq` should not move it.
* ``flows``: the trefoil and figure-eight arc data through every
  colored-Jones route at raised n, plus the arcflow suite.  `arcflow`
  (flow and admissible-pair enumeration), `qchrom.mdef_chord` and `polyq`
  dominate; `graphcore`, `statmech` and `knotdiag` are idle.

Task names do not depend on the seed, so the digest table can be keyed
by them.
"""

import hashlib
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import generators as gen

WORKLOADS = ("subsets", "states", "flows")
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Task:
    name: str
    argv: tuple
    # Callables taking the task's stdout and returning an error or None.
    checks: tuple = ()
    # stdout, less its input-digest lines, is the same for every seed.
    invariant: bool = False
    # Number of identity verdicts the task must print, when known.
    verdicts: int = None


# ------------------------------------------------------------ closed forms

def torus_jones(k):
    """Jones polynomial of T(2,k), k odd, as {exponent: coefficient}:
    t^((k-1)/2) (1 + t^2 - t^3 + t^4 - ... - t^k)."""
    shift = (k - 1) // 2
    out = {shift: Fraction(1)}
    for j in range(2, k + 1):
        out[shift + j] = Fraction(1 if j % 2 == 0 else -1)
    return out


FIG8_JONES = {-2: Fraction(1), -1: Fraction(-1), 0: Fraction(1),
              1: Fraction(-1), 2: Fraction(1)}


def mirror(poly):
    """t -> 1/t."""
    return {-e: c for e, c in poly.items()}


def gaussian_binomial(n, k):
    """[n choose k]_q by the recursion [n-1, k-1] + q^k [n-1, k]."""
    if k < 0 or k > n:
        return {}
    if k in (0, n):
        return {0: 1}
    out = dict(gaussian_binomial(n - 1, k - 1))
    for e, c in gaussian_binomial(n - 1, k).items():
        out[e + k] = out.get(e + k, 0) + c
    return out


def complete_coloring_sum(k, n):
    """q-weighted proper n-colorings of K_k: k! [n choose k]_q q^(k(k-1)/2).
    Parallel edges do not change it."""
    shift = k * (k - 1) // 2
    return {e + shift: Fraction(factorial(k) * c)
            for e, c in gaussian_binomial(n, k).items() if c}


# ------------------------------------------------------------ output parsing

def result_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("result: "):
            return line[len("result: "):]
    return None


def parse_poly(text, var):
    """Parse the package's univariate text form into {exponent: Fraction}."""
    if text == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        if var not in term:
            out[0] = Fraction(term)
            continue
        head, _, mono = term.rpartition("*")
        name, _, power = mono.partition("^")
        if name != var:
            raise ValueError("unexpected term %r" % term)
        out[int(power) if power else 1] = Fraction(head) if head else Fraction(1)
    return out


def expect_poly(var, expected, label):
    def check(stdout):
        text = result_line(stdout)
        if text is None:
            return "no result line"
        try:
            got = parse_poly(text, var)
        except ValueError as exc:
            return "unparsable result %r: %s" % (text, exc)
        if got != expected:
            return "%s: got %s" % (label, text)
        return None
    return check


def expect_chordal(chordal, graph_text):
    """`chordal-check` verdict, and for a non-chordal graph a certificate
    that really is a chordless cycle of length >= 4 in the graph."""
    adjacent = set()
    for line in graph_text.splitlines()[1:]:
        u, v = map(int, line.split())
        adjacent |= {(u, v), (v, u)}

    def check(stdout):
        want = "chordal: %s" % ("yes" if chordal else "no")
        if want not in stdout.splitlines():
            return "expected %r" % want
        if chordal:
            return None
        match = re.search(r"^chordless cycle: \[(.*)\]$", stdout, re.M)
        if match is None:
            return "no chordless cycle printed"
        cycle = [int(x) for x in match.group(1).split(",")]
        n = len(cycle)
        pairs = {(cycle[i], cycle[j]) for i in range(n) for j in range(n)
                 if i != j}
        ring = {(cycle[i], cycle[(i + 1) % n]) for i in range(n)}
        ring |= {(b, a) for a, b in ring}
        if n < 4 or len(set(cycle)) != n or not ring <= adjacent \
                or (pairs - ring) & adjacent:
            return "%s is not a chordless cycle" % cycle
        return None
    return check


_INPUT_LINE = re.compile(r"^\w+: \S+ sha256=[0-9a-f]+$")


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stable_digest(stdout):
    """Digest of stdout without the input-digest lines, which change
    whenever the seed changes the input bytes."""
    return digest("".join(line + "\n" for line in stdout.splitlines()
                          if not _INPUT_LINE.match(line)))


def output_errors(task, code, stdout, verdicts, seed, digests):
    """Every reason this task execution failed; empty when it passed.

    `digests` maps task names to recorded digests; None skips them.
    """
    errors = []
    if code != 0:
        errors.append("exit code %r" % (code,))
    bad = [name for name, ok in verdicts if not ok]
    if bad or any(line.startswith("FAIL ") for line in stdout.splitlines()):
        errors.append("FAIL verdicts: %s" % bad)
    if task.verdicts is not None and len(verdicts) != task.verdicts:
        errors.append("%d verdicts, expected %d" % (len(verdicts), task.verdicts))
    for check in task.checks:
        message = check(stdout)
        if message:
            errors.append(message)
    if digests is None:
        return errors
    entry = digests.get(task.name)
    if entry is None:
        errors.append("no digest recorded")
    else:
        if seed == DEFAULT_SEED and digest(stdout) != entry["stdout"]:
            errors.append("stdout differs from the recorded digest")
        if task.invariant and stable_digest(stdout) != entry["stable"]:
            errors.append("output differs from the recorded digest")
    return errors


# ------------------------------------------------------------ workloads

def _graph_files(files, label, graph, rng, couplings=()):
    files[label + ".g"] = gen.family_text(graph, rng)
    edge_count = len(graph[1])
    if "v" in couplings:
        files[label + ".v"] = gen.v_couplings(edge_count, rng)
    if "ch" in couplings:
        files[label + ".ch"] = gen.ch_couplings(edge_count, rng)


def subsets(rng):
    files = {}
    _graph_files(files, "k5", gen.complete_graph(5), rng, ("v", "ch"))
    _graph_files(files, "k34", gen.complete_bipartite(3, 4), rng)
    _graph_files(files, "k5x2", gen.double_edges(gen.complete_graph(5), 2), rng)
    _graph_files(files, "w6", gen.wheel(6), rng)
    for k in (7, 11):
        files["t2_%d.pd" % k] = gen.torus_pd(k, rng)
    no_colorings = expect_poly("q", complete_coloring_sum(5, 3), "K5 closed form")
    tasks = [
        Task("tutte K5", ("tutte", "--graph", "k5.g"), invariant=True),
        Task("qbichromate K5", ("qbichromate", "--graph", "k5.g", "--y", "3"),
             invariant=True),
        Task("qchrom K5", ("qchrom", "--graph", "k5.g", "--n", "3"),
             checks=(no_colorings,), invariant=True, verdicts=1),
        Task("qpotts K5", ("qpotts", "--graph", "k5.g", "--couplings", "k5.v",
                           "--k", "3"), verdicts=1),
        Task("ising K5", ("ising", "--graph", "k5.g", "--couplings", "k5.ch"),
             verdicts=1),
        Task("vdw K5", ("vdw", "--graph", "k5.g", "--couplings", "k5.ch"),
             verdicts=1),
        Task("tutte K3,4", ("tutte", "--graph", "k34.g"), invariant=True),
        Task("qchrom K5+2", ("qchrom", "--graph", "k5x2.g", "--n", "3"),
             checks=(no_colorings,), invariant=True, verdicts=1),
        Task("bichromate W6", ("bichromate", "--graph", "w6.g"), invariant=True),
        Task("jones T(2,11)", ("jones", "--pd", "t2_11.pd"),
             checks=(expect_poly("t", torus_jones(11), "T(2,k) Jones"),),
             invariant=True),
        # Two verdicts per face, and a planar diagram has r + 2 faces.
        Task("bracket T(2,7)", ("identities", "--suite", "bracket",
                                "--pd", "t2_7.pd"), verdicts=2 * 9),
    ]
    return files, tasks


def states(rng):
    files = {}
    _graph_files(files, "p9", gen.path(9), rng, ("v",))
    _graph_files(files, "p10", gen.path(10), rng, ("v",))
    _graph_files(files, "c8", gen.cycle(8), rng, ("v",))
    _graph_files(files, "c10", gen.cycle(10), rng, ("v",))
    _graph_files(files, "g3x3", gen.grid(3, 3), rng, ("v",))
    counts = {}
    for nodes in (4, 5):
        files["s%d.s" % nodes], counts[nodes] = gen.tree_structure(nodes, rng)

    def potts(label, k):
        return Task("potts k=%d %s" % (k, label.upper()),
                    ("potts", "--graph", label + ".g", "--couplings", label + ".v",
                     "--k", str(k)), verdicts=1)

    def qpotts(label):
        return Task("qpotts k=3 %s" % label.upper(),
                    ("qpotts", "--graph", label + ".g", "--couplings",
                     label + ".v", "--k", "3"), verdicts=1)

    def chordal_suite(nodes, z):
        # Verdicts: the count, the aggregate, one per structure and one
        # invariance check per structure after the first.
        return Task("chordal suite S%d z=%d" % (nodes, z),
                    ("identities", "--suite", "chordal", "--structure",
                     "s%d.s" % nodes, "--z", str(z)),
                    verdicts=2 * counts[nodes] + 1)

    tasks = [
        potts("p9", 3), potts("p10", 3), potts("c10", 3), potts("g3x3", 3),
        potts("c8", 4), qpotts("c8"), chordal_suite(5, 4), chordal_suite(4, 5),
        Task("chordal-check P10", ("chordal-check", "--graph", "p10.g"),
             checks=(expect_chordal(True, files["p10.g"]),)),
        Task("chordal-check C8", ("chordal-check", "--graph", "c8.g"),
             checks=(expect_chordal(False, files["c8.g"]),)),
        Task("chordal-check G3x3", ("chordal-check", "--graph", "g3x3.g"),
             checks=(expect_chordal(False, files["g3x3.g"]),)),
    ]
    return files, tasks


def flows(rng):
    files = {"trefoil.arc": gen.arc_variant(gen.TREFOIL_ARC, rng),
             "fig8.arc": gen.arc_variant(gen.FIG8_ARC, rng)}
    # At n = 1 the arc invariant is the PD Jones polynomial with t -> 1/t.
    level_one = {"trefoil": mirror(torus_jones(3)), "fig8": mirror(FIG8_JONES)}

    def colored(knot, route, n):
        checks = ()
        if n == 1:
            checks = (expect_poly("t", level_one[knot], "level-one Jones"),)
        return Task("colored-jones %s %s n=%d" % (knot, route, n),
                    ("colored-jones", "--arc", knot + ".arc", "--route", route,
                     "--n", str(n)), checks=checks, invariant=True)

    def suite(knot, n):
        return Task("arcflow suite %s n=%d" % (knot, n),
                    ("identities", "--suite", "arcflow", "--arc", knot + ".arc",
                     "--n", str(n)), invariant=True)

    tasks = [colored(knot, route, 1) for knot in ("trefoil", "fig8")
             for route in ("main", "catmm", "ma2")]
    tasks += [colored("trefoil", "main", 16), colored("trefoil", "catmm", 6),
              colored("trefoil", "ma2", 5), colored("fig8", "main", 12),
              colored("fig8", "catmm", 5), colored("fig8", "ma2", 4)]
    tasks += [suite("trefoil", 4), suite("fig8", 3), suite("fig8", 4)]
    return files, tasks


def build(workload, seed):
    """(files, tasks) of a workload; the same seed gives the same inputs."""
    builders = {"subsets": subsets, "states": states, "flows": flows}
    return builders[workload](random.Random("%s:%d" % (workload, seed)))
