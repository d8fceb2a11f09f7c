"""Per-module tracing of the qbichromate package, from outside it.

`Tracer.install()` wraps the public functions and methods of every layer
module (plus the arithmetic dunders of its classes) and re-binds each
wrapped function wherever the package imported it by name, so
``from .polyq import qint`` in another module calls the wrapper too.
Nothing under ``src/`` is edited.

Each wrapper pushes a frame on a call stack.  A frame's self time is its
duration minus the durations of the wrapped calls it made; time spent in
private helpers and in the standard library is charged to the nearest
wrapped caller.  Times are integer nanoseconds, so the self times of all
frames sum exactly to the traced wall time.  Counts (calls, polynomial
term pairs, enumerated objects) are kept per function in memory and
returned by `snapshot()`, which the worker writes to its trace file.
"""

import functools
import inspect
import itertools
import sys
import time

LAYERS = ("polyq", "graphcore", "qchrom", "statmech", "knotdiag", "chordal",
          "arcflow", "cli")

# Dunders worth a span: construction and polynomial arithmetic.  Hashing,
# comparison and printing stay with their caller.
DUNDERS = frozenset(("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__pow__", "__neg__"))

# Root frame key: time between the start of the traced call and the first
# wrapped function, which belongs to no layer.
ROOT = "bench"


def _terms(value):
    """Term count of a LaurentPoly operand; plain numbers count as one."""
    terms = getattr(value, "terms", None)
    return 1 if terms is None else len(terms)


def _term_pairs(args, result):
    return _terms(args[0]) * _terms(args[1])


def _length(args, result):
    return len(result)


# key of a wrapped function -> (counter name, increment(args, result))
RESULT_COUNTERS = {
    "polyq.LaurentPoly.__mul__": ("polyq.mul.term_pairs", _term_pairs),
    "polyq.LaurentPoly.__rmul__": ("polyq.mul.term_pairs", _term_pairs),
    "arcflow.enumerate_flows": ("arcflow.flows_kept", _length),
    "arcflow.admissible_pairs": ("arcflow.pairs_kept", _length),
    "arcflow.chord_diagrams": ("arcflow.diagrams", _length),
    "chordal.tree_structures": ("chordal.structures", _length),
}

# Candidates drawn from itertools.product inside these functions are the
# objects they try; a search that prunes draws fewer.
PRODUCT_COUNTERS = {
    "arcflow.enumerate_flows": "arcflow.flow_candidates",
    "arcflow.admissible_pairs": "arcflow.pairs_tried",
}


class Tracer:
    """Call-stack self-time accounting with per-function counts."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.self_ns = {}
        self.calls = {}
        self.counts = {}
        self.wall_ns = 0
        # Frames are [child nanoseconds, key]; the bottom one is the root.
        self._stack = [[0, ROOT]]

    # ------------------------------------------------------------ accounting

    def wrap(self, key, fn):
        """Return fn wrapped in a span named key."""
        stack, clock = self._stack, self.clock
        self_ns, calls, counts = self.self_ns, self.calls, self.counts
        counter = RESULT_COUNTERS.get(key)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0, key]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_ns[key] = self_ns.get(key, 0) + elapsed - frame[0]
                calls[key] = calls.get(key, 0) + 1
            if counter is not None:
                name, increment = counter
                counts[name] = counts.get(name, 0) + increment(args, result)
            return result

        return span

    def caller(self):
        """Key of the innermost wrapped call now running."""
        return self._stack[-1][1]

    def run(self, fn, *args):
        """Call fn(*args) as the root span and record its wall time."""
        if len(self._stack) != 1:
            raise RuntimeError("run() is not re-entrant")
        root = self._stack[0]
        root[0] = 0
        start = self.clock()
        try:
            return fn(*args)
        finally:
            elapsed = self.clock() - start
            self.wall_ns += elapsed
            self.self_ns[ROOT] = self.self_ns.get(ROOT, 0) + elapsed - root[0]
            if len(self._stack) != 1:
                raise RuntimeError("unbalanced trace stack")

    def snapshot(self):
        return {"wall_ns": self.wall_ns, "self_ns": dict(self.self_ns),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    # ------------------------------------------------------------ installing

    def counting_product(self, *iterables, repeat=1):
        """itertools.product that counts what it yields, per caller."""
        name = PRODUCT_COUNTERS.get(self.caller())
        items = itertools.product(*iterables, repeat=repeat)
        if name is None:
            return items
        return self._counted(name, items)

    def _counted(self, name, items):
        counts = self.counts
        drawn = 0
        try:
            for item in items:
                drawn += 1
                yield item
        finally:
            counts[name] = counts.get(name, 0) + drawn

    def _count_masks(self, fn):
        """Wrap Multigraph.subsets so every mask it yields is counted."""
        counted = self._counted

        @functools.wraps(fn)
        def subsets(graph):
            return counted("graphcore.masks", fn(graph))

        return subsets

    def install(self, package="qbichromate"):
        """Wrap every layer of an imported package in place."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules["%s.%s" % (package, layer)]
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                        and not name.startswith("_"):
                    wrapped = self.wrap("%s.%s" % (layer, name), obj)
                    originals[id(obj)] = wrapped
                    setattr(module, name, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_class(layer, obj)
        # Re-bind names other modules imported with "from .x import y".
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    setattr(module, name, originals[id(obj)])
        sys.modules[package + ".arcflow"].product = self.counting_product

    def _install_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            key = "%s.%s.%s" % (layer, cls.__name__, name)
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self.wrap(key, attr.__func__)))
            elif inspect.isfunction(attr):
                if key == "graphcore.Multigraph.subsets":
                    attr = self._count_masks(attr)
                setattr(cls, name, self.wrap(key, attr))
