"""Benchmark of the qbichromate CLI: three workloads, end-to-end and
per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload subsets|states|flows --seed N \\
        --seconds S --trace 0|1

One client runs a closed loop: one task at a time, each a single
``qbichromate.cli.run(argv)`` call in a fresh worker process (so every
call starts with a cold module-level cache, as a real CLI call does).
A pass runs the workload's fixed task list once and checks every output.
Passes repeat until the next one would end after S seconds, with at
least MIN_PASSES of them.  With ``--trace 1`` untraced and traced passes
alternate, and the per-layer metrics come from the traced ones.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
DIGESTS = os.path.join(BENCH, "digests.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

MIN_PASSES = 3          # untraced passes; a traced run needs 2 of each kind
TASK_TIMEOUT_S = 120
LAST_PASS_START_S = 120  # no pass starts later, so a run ends within 180 s

NS = 1e-9


def layer_self(layer):
    prefix = layer + "."
    return lambda t: NS * sum(v for k, v in t["self_ns"].items()
                              if k.startswith(prefix))


def func_self(key):
    return lambda t: NS * t["self_ns"].get(key, 0)


def calls(*keys):
    return lambda t: sum(t["calls"].get(k, 0) for k in keys)


def count(name):
    return lambda t: t["counts"].get(name, 0)


def ratio(numerator, denominator):
    def value(t):
        base = t["counts"].get(denominator, 0)
        return t["counts"].get(numerator, 0) / base if base else 0.0
    return value


POLY = "polyq.LaurentPoly."
# name -> (unit, value of one traced pass).  trace.overhead_ratio is added
# separately: it compares traced with untraced passes.
PER_LAYER = {
    "polyq.self_s": ("s", layer_self("polyq")),
    "polyq.new.calls": ("count", calls(POLY + "__init__")),
    "polyq.mul.calls": ("count", calls(POLY + "__mul__", POLY + "__rmul__")),
    "polyq.mul.term_pairs": ("count", count("polyq.mul.term_pairs")),
    "polyq.add.calls": ("count", calls(POLY + "__add__", POLY + "__radd__")),
    "polyq.pow.calls": ("count", calls(POLY + "__pow__")),
    "polyq.qint.calls": ("count", calls("polyq.qint")),
    "polyq.qbinom.calls": ("count", calls("polyq.qbinom")),
    "graphcore.self_s": ("s", layer_self("graphcore")),
    "graphcore.components.calls": ("count",
                                   calls("graphcore.Multigraph.components")),
    "graphcore.masks": ("count", count("graphcore.masks")),
    "qchrom.self_s": ("s", layer_self("qchrom")),
    "qchrom.mq_subset.self_s": ("s", func_self("qchrom.mq_subset")),
    "qchrom.q_bichromate.self_s": ("s", func_self("qchrom.q_bichromate")),
    "qchrom.tutte.self_s": ("s", func_self("qchrom.tutte")),
    "qchrom.mq_direct.self_s": ("s", func_self("qchrom.mq_direct")),
    "qchrom.mdef_chord.calls": ("count", calls("qchrom.mdef_chord")),
    "qchrom.mdef_chord.self_s": ("s", func_self("qchrom.mdef_chord")),
    "statmech.self_s": ("s", layer_self("statmech")),
    "statmech.potts_direct.self_s": ("s", func_self("statmech.potts_direct")),
    "statmech.qpotts_pair.self_s": ("s", func_self("statmech.qpotts_pair")),
    "statmech.ising_pair.self_s": ("s", func_self("statmech.ising_pair")),
    "statmech.vdw_pair.self_s": ("s", func_self("statmech.vdw_pair")),
    "knotdiag.self_s": ("s", layer_self("knotdiag")),
    "knotdiag.state_loop_count.calls": ("count",
                                        calls("knotdiag.state_loop_count")),
    "knotdiag.state_loop_count.self_s": ("s",
                                         func_self("knotdiag.state_loop_count")),
    "knotdiag.kauffman_f.self_s": ("s", func_self("knotdiag.kauffman_f")),
    "chordal.self_s": ("s", layer_self("chordal")),
    "chordal.structures": ("count", count("chordal.structures")),
    "chordal.str2_pair.self_s": ("s", func_self("chordal.str2_pair")),
    "chordal.str20_pair.self_s": ("s", func_self("chordal.str20_pair")),
    "arcflow.self_s": ("s", layer_self("arcflow")),
    "arcflow.flow_candidates": ("count", count("arcflow.flow_candidates")),
    "arcflow.flows_kept": ("count", count("arcflow.flows_kept")),
    "arcflow.flow_keep_ratio": ("ratio", ratio("arcflow.flows_kept",
                                               "arcflow.flow_candidates")),
    "arcflow.pairs_tried": ("count", count("arcflow.pairs_tried")),
    "arcflow.pairs_kept": ("count", count("arcflow.pairs_kept")),
    "arcflow.pair_keep_ratio": ("ratio", ratio("arcflow.pairs_kept",
                                               "arcflow.pairs_tried")),
    "arcflow.diagrams": ("count", count("arcflow.diagrams")),
    "arcflow.enumerate_flows.self_s": ("s",
                                       func_self("arcflow.enumerate_flows")),
    "arcflow.admissible_pairs.self_s": ("s",
                                        func_self("arcflow.admissible_pairs")),
    "arcflow.main_flow_weight.self_s": ("s",
                                        func_self("arcflow.main_flow_weight")),
    "cli.self_s": ("s", layer_self("cli")),
}


class Runner:
    """Runs tasks one at a time, each in a fresh worker process."""

    def __init__(self, workdir, seed, digests):
        self.workdir = workdir
        self.seed = seed
        self.digests = digests
        self.executions = 0

    def execute(self, task, trace):
        self.executions += 1
        request = os.path.join(self.workdir, "request.json")
        result = os.path.join(self.workdir, "result.json")
        with open(request, "w", encoding="utf-8") as handle:
            json.dump({"src": SRC, "argv": list(task.argv), "trace": trace},
                      handle)
        if os.path.exists(result):
            os.remove(result)
        try:
            # -S -E: no site-packages, no PYTHON* variables; the package
            # needs only the standard library and the source directory.
            proc = subprocess.run([sys.executable, "-S", "-E", WORKER, request,
                                   result],
                                  cwd=self.workdir, capture_output=True,
                                  text=True, timeout=TASK_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"errors": ["timed out after %d s" % TASK_TIMEOUT_S]}
        if proc.returncode != 0 or not os.path.exists(result):
            return {"errors": ["worker exited %d: %s"
                               % (proc.returncode, proc.stderr.strip()[-500:])]}
        with open(result, encoding="utf-8") as handle:
            outcome = json.load(handle)
        errors = []
        if outcome["error"]:
            errors.append(outcome["error"].strip().splitlines()[-1])
        errors += workloads.output_errors(task, outcome["code"], outcome["stdout"],
                                          outcome["verdicts"], self.seed,
                                          self.digests)
        trace = outcome["trace"]
        if trace is not None and sum(trace["self_ns"].values()) != trace["wall_ns"]:
            errors.append("layer self times do not sum to the traced wall time")
        outcome["errors"] = errors
        return outcome

    def run_pass(self, tasks, trace):
        """Run every task once; return the pass record."""
        started = time.monotonic()
        record = {"task_s": {}, "raw_task_s": {}, "setup_s": [], "rss_kb": [],
                  "failures": [],
                  "trace": {"self_ns": {}, "calls": {}, "counts": {}}}
        for task in tasks:
            outcome = self.execute(task, trace)
            if outcome["errors"]:
                record["failures"].append((task.name, outcome["errors"]))
            if "task_ns" not in outcome:
                continue
            raw_s = NS * outcome["task_ns"]
            record["raw_task_s"][task.name] = raw_s
            record["task_s"][task.name] = raw_s * outcome["task_scale"]
            record["setup_s"].append(NS * outcome["setup_ns"]
                                     * outcome["setup_scale"])
            record["rss_kb"].append(outcome["rss_kb"])
            if outcome["trace"]:
                for part in ("self_ns", "calls", "counts"):
                    merged = record["trace"][part]
                    for key, value in outcome["trace"][part].items():
                        merged[key] = merged.get(key, 0) + value
        record["wall_s"] = time.monotonic() - started
        return record


def run_passes(runner, tasks, seconds, kinds):
    """Cycle through pass kinds (False = untraced, True = traced) until
    the next cycle would end after `seconds`, doing at least the minimum."""
    minimum = MIN_PASSES if kinds == (False,) else 2
    started = time.monotonic()
    passes = []
    while True:
        cycle = [runner.run_pass(tasks, kind) for kind in kinds]
        passes += cycle
        elapsed = time.monotonic() - started
        cycle_s = sum(p["wall_s"] for p in cycle)
        done = len(passes) // len(kinds)
        if elapsed > LAST_PASS_START_S or (
                done >= minimum and elapsed + cycle_s > seconds):
            return passes


def tail(values, sample_floor):
    """(percentile, value): the highest percentile with at least ten of
    `sample_floor` samples beyond it, read from `values` by linear
    interpolation.  Basing it on the guaranteed sample count keeps the
    percentile the same however many passes a run made."""
    pct = 100.0 * (1 - 10.0 / sample_floor)
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return pct, ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def task_medians(passes, key="task_s"):
    """{task name: its median time across the passes}."""
    names = {name for p in passes for name in p[key]}
    return {name: statistics.median(p[key][name] for p in passes
                                    if name in p[key])
            for name in sorted(names)}


def solve_s(passes, key="task_s"):
    """Time of one pass over the task list: the sum of the tasks' median
    times, so one slow call in one pass does not move it."""
    return sum(task_medians(passes, key).values())


def end_to_end(plain, task_count):
    task_s = [s for p in plain for s in p["task_s"].values()]
    # Percentiles of the tasks' median times, not of the pooled samples:
    # pooled, a percentile falls between two tasks' times, or on a single
    # call of one task, and jumps with the number of passes a run made.
    medians = task_medians(plain)
    pct, tail_s = tail(medians.values(), task_count * MIN_PASSES)
    metrics = {
        "setup_s": (statistics.median(s for p in plain for s in p["setup_s"]),
                    "s"),
        "solve_s": (solve_s(plain), "s"),
        "task_p50_s": (statistics.median(medians.values()), "s"),
        "task_tail_s": (tail_s, "s"),
        "peak_rss_mb": (max(k for p in plain for k in p["rss_kb"]) / 1024.0,
                        "MB"),
    }
    notes = ["task samples: %d over %d passes of %d tasks"
             % (len(task_s), len(plain), task_count),
             "task_tail_s is percentile %.2f" % pct,
             "solve_s before scaling to reference speed: %.6f s"
             % solve_s(plain, "raw_task_s")]
    notes += ["median %9.6f s  %s" % (median, name)
              for name, median in sorted(medians.items(), key=lambda i: i[1])]
    return metrics, notes


def per_layer(plain, traced):
    """Per-layer metrics and whether the traced counts repeated exactly."""
    traces = [p["trace"] for p in traced]
    repeat = all(t["calls"] == traces[0]["calls"]
                 and t["counts"] == traces[0]["counts"] for t in traces)
    metrics = {name: (statistics.median(value(t) for t in traces), unit)
               for name, (unit, value) in PER_LAYER.items()}
    # Raw times on both sides: traced passes are not speed-sampled.
    metrics["trace.overhead_ratio"] = (solve_s(traced, "raw_task_s")
                                       / solve_s(plain, "raw_task_s"), "ratio")
    notes = ["traced passes: %d, untraced passes: %d" % (len(traced), len(plain)),
             "counts repeat exactly across traced passes: %s" % repeat]
    return metrics, notes, repeat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qbichromate", "cli.py")):
        print("error: no package source at %s" % SRC, file=sys.stderr)
        return 2
    with open(DIGESTS, encoding="utf-8") as handle:
        digests = json.load(handle)[args.workload]

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK_ROOT)
    try:
        files, tasks = workloads.build(args.workload, args.seed)
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        runner = Runner(workdir, args.seed, digests)
        # One untimed call first, so byte-compiling the package is not
        # counted as set-up.
        runner.execute(tasks[0], False)
        runner.executions = 0
        if args.trace:
            passes = run_passes(runner, tasks, args.seconds, (False, True))
        else:
            passes = run_passes(runner, tasks, args.seconds, (False,))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    plain = passes[0::2] if args.trace else passes
    failures = [f for p in passes for f in p["failures"]]
    correct = not failures
    if args.trace:
        traced = passes[1::2]
        metrics, notes, repeat = per_layer(plain, traced)
        correct = correct and repeat
    else:
        metrics, notes = end_to_end(plain, len(tasks))
    for name, errors in failures:
        print("FAILED %s: %s" % (name, "; ".join(errors)))
    print("workload %s seed %d: %d task executions, %d failed (fail_ratio %.4f)"
          % (args.workload, args.seed, runner.executions, len(failures),
             len(failures) / runner.executions))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print("%-36s %16.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.executions,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
