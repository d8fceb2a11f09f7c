"""Command line front end.

One binary, subcommand style.  Compute subcommands print a small report
(command, input digests, parameters, result polynomials in canonical
text); identity subcommands additionally print one PASS/FAIL line per
checked identity, with both sides shown on failure.  Exit codes: 0 for
success or all-pass, 1 when some identity fails, 2 on input errors, 3
on an internal fault (any other exception, reported as one line).
Stdout is byte-stable for identical invocations; wall time goes to
stderr, and only when --timing is given.

A plain command line -- a known subcommand, then each of its flags at
most once, spelled out in full as -h lists it, each flag but --timing
followed by a valid value that does not start with "-", every required
flag given -- is read by _plain_args without building a parser.  Any
other command line goes to argparse, which alone prints help and
errors and handles abbreviations, --flag=value, "--" and negative
numbers; its one parser registers every subcommand.

A plain call imports the package's own modules and, from the standard
library, only those they name at the top: collections, fractions,
functools, itertools, math, operator, sys, time and types.  The input
digests take SHA-256 from the interpreter's builtin module (_sha2, or
_sha256 before Python 3.12), so hashlib and the OpenSSL it loads are
imported only by a build that has neither.  argparse loads only when
_parser() or its _integer type runs, json only for --emit json, and
random only for the seeded qpotts suite.
"""

import sys
import time
from fractions import Fraction
from types import SimpleNamespace

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import arcflow, chordal, knotdiag, qchrom, statmech
from .graphcore import ParseError, _numbers, parse_graph
from .polyq import LaurentPoly, qbinom, qbinomial_theorem_check


class Report:
    """Accumulates fields and identity verdicts for one invocation."""

    def __init__(self, command):
        self.command = command
        self.fields = []
        self.verdicts = []

    def add_input(self, name, path, parse):
        """Read path once, record its digest and return parse(its text)."""
        with open(path, "rb") as handle:
            data = handle.read()
        digest = sha256(data).hexdigest()[:12]
        self.fields.append((name, "%s sha256=%s" % (path, digest)))
        return parse(data.decode("utf-8"))

    def add(self, name, value):
        self.fields.append((name, str(value)))

    def verdict(self, name, lhs, rhs):
        """Record lhs == rhs; the sides are stringified only when printed."""
        self.verdicts.append((name, lhs == rhs, lhs, rhs))

    def verdict_true(self, name, ok):
        self.verdicts.append((name, bool(ok), "true" if ok else "false", "true"))

    @property
    def failed(self):
        return any(not ok for _, ok, _, _ in self.verdicts)

    def emit_text(self, out):
        out.write("command: %s\n" % self.command)
        for name, value in self.fields:
            out.write("%s: %s\n" % (name, value))
        for name, ok, lhs, rhs in self.verdicts:
            if ok:
                out.write("PASS %s\n" % name)
            else:
                out.write("FAIL %s\n  lhs: %s\n  rhs: %s\n" % (name, lhs, rhs))
        if self.verdicts:
            total = len(self.verdicts)
            bad = sum(1 for _, ok, _, _ in self.verdicts if not ok)
            out.write("checked: %d failed: %d\n" % (total, bad))

    def emit_json(self, out):
        import json

        payload = {
            "command": self.command,
            "fields": [{"name": n, "value": v} for n, v in self.fields],
            "verdicts": [
                {"name": n, "status": "PASS" if ok else "FAIL",
                 "lhs": str(lhs), "rhs": str(rhs)}
                for n, ok, lhs, rhs in self.verdicts
            ],
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")


def _integer(token):
    """argparse type for integer options: the token rule of the input files."""
    import argparse

    try:
        return _numbers([token], "invalid int value: %r" % token, None)[0]
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _need(args, flag):
    value = getattr(args, flag.replace("-", "_"))
    if value is None:
        raise ParseError("--%s is required for this suite" % flag)
    return value


def _cmd_qchrom(args, report):
    g = report.add_input("graph", args.graph, parse_graph)
    report.add("n", args.n)
    direct = qchrom.mq_direct(g, args.n)
    report.add("result", direct)
    report.verdict("subset expansion agrees", direct, qchrom.mq_subset(g, args.n))


def _cmd_bichromate(args, report):
    g = report.add_input("graph", args.graph, parse_graph)
    report.add("result", qchrom.bichromate(g))


def _cmd_tutte(args, report):
    g = report.add_input("graph", args.graph, parse_graph)
    report.add("form", args.form)
    report.add("result", qchrom.tutte(g, form=args.form))


def _cmd_qbichromate(args, report):
    g = report.add_input("graph", args.graph, parse_graph)
    report.add("y", args.y)
    report.add("result", qchrom.q_bichromate(g, args.y))


def _cmd_potts(args, report):
    g = report.add_input("graph", args.graph, parse_graph)
    w = report.add_input("couplings", args.couplings, statmech.parse_couplings)
    report.add("k", args.k)
    direct = statmech.potts_direct(g, args.k, w)
    report.add("result", direct)
    report.verdict("random-cluster form agrees", direct,
                   statmech.potts_fk(g, args.k, w))


def _cmd_qpotts(args, report):
    g = report.add_input("graph", args.graph, parse_graph)
    w = report.add_input("couplings", args.couplings, statmech.parse_couplings)
    report.add("k", args.k)
    subset_form, state_form = statmech.qpotts_pair(g, args.k, w)
    report.add("result", subset_form)
    report.verdict("state form agrees", subset_form, state_form)


def _cmd_ising(args, report):
    g = report.add_input("graph", args.graph, parse_graph)
    w = report.add_input("couplings", args.couplings, statmech.parse_couplings)
    direct, via_potts = statmech.ising_pair(g, w)
    report.add("result", direct)
    report.verdict("Potts route agrees", direct, via_potts)


def _cmd_vdw(args, report):
    g = report.add_input("graph", args.graph, parse_graph)
    w = report.add_input("couplings", args.couplings, statmech.parse_couplings)
    direct, expansion = statmech.vdw_pair(g, w)
    report.add("result", direct)
    report.verdict("high-temperature expansion agrees", direct, expansion)


def _cmd_jones(args, report):
    k = report.add_input("pd", args.pd, knotdiag.parse_pd)
    report.add("form", args.form)
    if args.form == "t":
        report.add("result", knotdiag.jones(k))
    else:
        report.add("result", knotdiag.kauffman_f(k))


def _cmd_median(args, report):
    k = report.add_input("pd", args.pd, knotdiag.parse_pd)
    if args.outer_face is None:
        for face in knotdiag.faces(k):
            report.add("face %d" % face.id,
                       "corners=%s arcs=%s" % (list(face.corners),
                                               sorted(face.arcs)))
        report.add("hint", "rerun with --outer-face ID to build the graph")
        return
    m = knotdiag.median_graph(k, args.outer_face)
    report.add("outer face", args.outer_face)
    report.add("black faces", list(m.black_faces))
    for line in m.graph.to_text().splitlines():
        report.add("graph", line)
    report.add("signs", [c.sign for c in k.crossings])
    report.add("eta", list(m.eta))


def _cmd_colored_jones(args, report):
    g = report.add_input("arc", args.arc, arcflow.parse_arc)
    report.add("n", args.n)
    report.add("route", args.route)
    report.add("result", arcflow.colored_jones(g, args.n, route=args.route))


def _cmd_chordal_check(args, report):
    g = report.add_input("graph", args.graph, parse_graph)
    try:
        order, m = chordal.peo(g)
    except chordal.NotChordal as exc:
        report.add("chordal", "no")
        report.add("chordless cycle", list(exc.cycle))
        return
    report.add("chordal", "yes")
    report.add("elimination order", list(order))
    report.add("m", list(m))


def _suite_qbinom(args, report):
    q = LaurentPoly.variable("q")
    for n in range(9):
        report.verdict_true("binomial theorem n=%d" % n,
                            qbinomial_theorem_check(n))
    for m in range(1, 9):
        for j in range(m + 1):
            lhs = qbinom(m, j)
            rhs = qbinom(m - 1, j - 1) if j else LaurentPoly()
            if j < m:
                rhs = rhs + q ** j * qbinom(m - 1, j)
            report.verdict("Pascal m=%d j=%d" % (m, j), lhs, rhs)


def _suite_qchrom(args, report):
    g = report.add_input("graph", _need(args, "graph"), parse_graph)
    for n in range(1, 5):
        report.verdict("direct equals subset n=%d" % n,
                       qchrom.mq_direct(g, n), qchrom.mq_subset(g, n))


def _suite_potts(args, report):
    g = report.add_input("graph", _need(args, "graph"), parse_graph)
    w = report.add_input("couplings", _need(args, "couplings"),
                         statmech.parse_couplings)
    k = args.k if args.k is not None else 3
    report.add("k", k)
    report.verdict("direct equals random-cluster k=%d" % k,
                   statmech.potts_direct(g, k, w),
                   statmech.potts_fk(g, k, w))


def _random_couplings(rng, edge_count):
    values = []
    for _ in range(edge_count):
        numerator = rng.randint(-4, 6)
        values.append(Fraction(numerator, rng.randint(1, 5)))
    return statmech.Couplings("v", tuple(values))


def _suite_qpotts(args, report):
    if args.couplings and args.seed is not None:
        # A couplings file draws nothing from the seed.
        raise ParseError("--seed is not read by suite qpotts with --couplings")
    g = report.add_input("graph", _need(args, "graph"), parse_graph)
    k = args.k if args.k is not None else 3
    report.add("k", k)
    if args.couplings:
        trials = [("file", report.add_input("couplings", args.couplings,
                                            statmech.parse_couplings))]
    else:
        import random

        seed = 0 if args.seed is None else args.seed
        rng = random.Random(seed)
        report.add("seed", seed)
        trials = [("seeded trial %d" % i, _random_couplings(rng, g.edge_count))
                  for i in range(10)]
    for label, w in trials:
        subset_form, state_form = statmech.qpotts_pair(g, k, w)
        report.verdict("subset equals state (%s)" % label,
                       subset_form, state_form)


def _suite_vdw(args, report):
    g = report.add_input("graph", _need(args, "graph"), parse_graph)
    w = report.add_input("couplings", _need(args, "couplings"),
                         statmech.parse_couplings)
    direct, expansion = statmech.vdw_pair(g, w)
    report.verdict("direct equals expansion", direct, expansion)
    lhs, rhs = statmech.lemma_w_eval(g)
    report.verdict("signed spin sum equals closed form", lhs, rhs)


def _suite_bracket(args, report):
    k = report.add_input("pd", _need(args, "pd"), knotdiag.parse_pd)
    shadings = knotdiag.shadings(k)
    holds, f = knotdiag.prop_mm_check(k, shadings)
    routes = [knotdiag.jones_via_bichromate(k, m) for m in shadings]
    for fid in range(k.r + 2):
        # the face is the outer face of the shading in which it is white
        i = 1 if fid in shadings[0].black_faces else 0
        report.verdict_true("loop count model, outer face %d" % fid,
                            holds[i])
        report.verdict("subset route, outer face %d" % fid, routes[i], f)


def _suite_arcflow(args, report):
    g = report.add_input("arc", _need(args, "arc"), arcflow.parse_arc)
    n = args.n if args.n is not None else 2
    report.add("n", n)
    flows = arcflow.enumerate_flows(g, n)
    for f in flows:
        report.verdict("per-flow value sums f=%s" % (f,),
                       arcflow.catmm_flow_sum(g, f, n),
                       arcflow.ma2_flow_sum(g, f, n))
    totals = {route: arcflow.colored_jones(g, n, route=route)
              for route in ("main", "catmm", "ma2")}
    report.verdict("route totals main/catmm", totals["main"], totals["catmm"])
    report.verdict("route totals main/ma2", totals["main"], totals["ma2"])
    if n == 1:
        fibers = arcflow.cycle_fibers(g)
        for f in flows:
            report.verdict("cycle fiber f=%s" % (f,),
                           fibers.get(f, LaurentPoly()),
                           arcflow.flow_weight_beta(g, f))


def _suite_chordal(args, report):
    parents, a_sets, b_sizes = report.add_input(
        "structure", _need(args, "structure"), chordal.parse_structure)
    z = args.z if args.z is not None else 3
    report.add("z", z)
    # structure_count validates the instance before str20_pair checks z
    count = chordal.structure_count(parents, a_sets, b_sizes)
    lhs, rhs, pairs = chordal.str20_pair(parents, a_sets, b_sizes, z)
    report.verdict("structure count", len(pairs), count)
    report.verdict("structure aggregate", lhs, rhs)
    for i, (lhs, rhs) in enumerate(pairs):
        report.verdict("defected sum, structure %d" % i, lhs, rhs)
        if i:
            report.verdict("invariance, structure %d" % i, lhs, pairs[0][0])


# Each suite with the identities flags it reads.
_SUITES = {
    "qbinom": (_suite_qbinom, ()),
    "qchrom": (_suite_qchrom, ("graph",)),
    "potts": (_suite_potts, ("graph", "couplings", "k")),
    "qpotts": (_suite_qpotts, ("graph", "couplings", "k", "seed")),
    "vdw": (_suite_vdw, ("graph", "couplings")),
    "bracket": (_suite_bracket, ("pd",)),
    "arcflow": (_suite_arcflow, ("arc", "n")),
    "chordal": (_suite_chordal, ("structure", "z")),
}
_SUITE_FLAGS = sorted(set().union(*(reads for _, reads in _SUITES.values())))


def _cmd_identities(args, report):
    """Run the suite, refusing first any suite flag it does not read."""
    handler, reads = _SUITES[args.suite]
    for flag in _SUITE_FLAGS:
        if getattr(args, flag) is not None and flag not in reads:
            raise ParseError("--%s is not read by suite %s"
                             % (flag, args.suite))
    handler(args, report)


_FILE = dict(required=True, metavar="FILE")
_INT = dict(type=_integer, required=True)

# Each subcommand with its handler and its flags, in the order -h lists
# them; every subcommand also takes the _COMMON flags after its own.
_COMMANDS = {
    "qchrom": (_cmd_qchrom, dict(graph=_FILE, n=_INT)),
    "bichromate": (_cmd_bichromate, dict(graph=_FILE)),
    "tutte": (_cmd_tutte, dict(
        graph=_FILE,
        form=dict(choices=("tutte", "whitney-rank"), default="tutte"))),
    "qbichromate": (_cmd_qbichromate, dict(graph=_FILE, y=_INT)),
    "potts": (_cmd_potts, dict(graph=_FILE, k=_INT, couplings=_FILE)),
    "qpotts": (_cmd_qpotts, dict(graph=_FILE, k=_INT, couplings=_FILE)),
    "ising": (_cmd_ising, dict(graph=_FILE, couplings=_FILE)),
    "vdw": (_cmd_vdw, dict(graph=_FILE, couplings=_FILE)),
    "jones": (_cmd_jones, dict(pd=_FILE,
                               form=dict(choices=("t", "A"), default="t"))),
    "median": (_cmd_median, dict(pd=_FILE, outer_face=dict(type=_integer))),
    "colored-jones": (_cmd_colored_jones, dict(
        arc=_FILE, n=_INT,
        route=dict(choices=arcflow.ROUTES, default="ma2"))),
    "identities": (_cmd_identities, dict(
        suite=dict(required=True, choices=tuple(_SUITES)),
        graph=dict(metavar="FILE"), couplings=dict(metavar="FILE"),
        pd=dict(metavar="FILE"), arc=dict(metavar="FILE"),
        structure=dict(metavar="FILE"), n=dict(type=_integer),
        k=dict(type=_integer), z=dict(type=_integer),
        seed=dict(type=_integer))),
    "chordal-check": (_cmd_chordal_check, dict(graph=_FILE)),
}
_COMMON = dict(emit=dict(choices=("text", "json"), default="text"),
               timing=dict(action="store_true", default=False))


def _flags(name):
    """{option string: (dest, add_argument keywords)} of subcommand name."""
    return {"--" + dest.replace("_", "-"): (dest, spec)
            for dest, spec in {**_COMMANDS[name][1], **_COMMON}.items()}


def _parser():
    """The argparse parser with a subparser for every subcommand."""
    import argparse

    top = argparse.ArgumentParser(prog="qbichromate")
    subs = top.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = subs.add_parser(name)
        for option, (_, spec) in _flags(name).items():
            p.add_argument(option, **spec)
    return top


def _plain_args(argv):
    """A namespace with the values _parser().parse_args(argv) sets, for
    a plain argv (see the module docstring); None for any other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _flags(argv[0])
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        dest, spec = flags.get(token, (None, None))
        if dest is None or dest in values:
            return None
        if spec.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value fails like "-x"
        if value.startswith("-"):
            return None
        if "type" in spec:  # _integer's token rule, without argparse
            try:
                (value,) = _numbers([value], None, None)
            except ParseError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
    for dest, spec in flags.values():
        if dest not in values:
            if spec.get("required"):
                return None
            values[dest] = spec.get("default")
    return SimpleNamespace(subcommand=argv[0], **values)


def run(argv):
    """Parse argv (sys.argv[1:] when None), run the subcommand, and return
    (exit code, report).

    A plain argv (see the module docstring) is read without argparse;
    any other goes through _parser().  argparse raises SystemExit
    instead of returning: code 0 after printing help on stdout for
    -h/--help, code 2 after printing usage and the error on stderr for
    a bad, missing or unknown flag or subcommand.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or _parser().parse_args(argv)
    started = time.monotonic()
    command = args.subcommand
    if command == "identities":
        command += " --suite " + args.suite
    report = Report(command)
    try:
        _COMMANDS[args.subcommand][0](args, report)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2, report
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3, report
    if args.emit == "json":
        report.emit_json(sys.stdout)
    else:
        report.emit_text(sys.stdout)
    if args.timing:
        print("time: %.3fs" % (time.monotonic() - started), file=sys.stderr)
    return (1 if report.failed else 0), report


def main(argv=None):
    return run(argv)[0]


if __name__ == "__main__":
    sys.exit(main())
