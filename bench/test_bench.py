"""Tests of the benchmark itself: generators, oracles, output checks,
the speed probe and the tracer.  Run from the repository root:

    python3 -m pytest -q bench
"""

import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import generators as gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)

from qbichromate import chordal, cli  # noqa: E402


def cli_stdout(tmp_path, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        with redirect_stdout(out):
            code, report = cli.run(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), [[n, ok] for n, ok, _, _ in report.verdicts]


# ------------------------------------------------------------- generators

@pytest.mark.parametrize("graph, vertices, edges", [
    (gen.complete_graph(5), 5, 10),
    (gen.complete_bipartite(3, 4), 7, 12),
    (gen.wheel(6), 7, 12),
    (gen.grid(3, 3), 9, 12),
    (gen.path(10), 10, 9),
    (gen.cycle(8), 8, 8),
    (gen.double_edges(gen.complete_graph(5), 2), 5, 12),
])
def test_graph_families(graph, vertices, edges):
    assert graph[0] == vertices and len(graph[1]) == edges
    text = gen.family_text(graph, random.Random(3))
    lines = text.splitlines()
    assert lines[0] == "vertices %d" % vertices and len(lines) == edges + 1


def test_graph_text_rejects_bad_output():
    with pytest.raises(ValueError):
        gen.graph_text((3, [(1, 4)]))
    with pytest.raises(ValueError):
        gen.graph_text((3, [(1, 2)]), expect_degrees=[0, 1, 2])


def test_couplings_are_valid_and_seed_only_permutes():
    a = gen.ch_couplings(12, random.Random(1)).splitlines()
    b = gen.ch_couplings(12, random.Random(2)).splitlines()
    assert sorted(a) == sorted(b)
    for line in a:
        _, c, h = line.split()
        assert Fraction(c) ** 2 - Fraction(h) ** 2 == 1
    v = gen.v_couplings(10, random.Random(1)).splitlines()
    assert sorted(v) == sorted(gen.v_couplings(10, random.Random(5)).splitlines())


def test_pd_face_count_rejects_non_planar_diagram():
    gen.check_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
    # Parses as a PD but is not planar: 2 faces instead of 4.
    with pytest.raises(ValueError, match="not planar"):
        gen.check_pd([(3, 4, 1, 2), (1, 3, 2, 4)])


@pytest.mark.parametrize("k", [3, 5, 7])
@pytest.mark.parametrize("seed", [0, 1])
def test_torus_diagrams_match_closed_form(tmp_path, k, seed):
    files = {"t.pd": gen.torus_pd(k, random.Random(seed))}
    code, stdout, _ = cli_stdout(tmp_path, ["jones", "--pd", "t.pd"], files)
    assert code == 0
    got = workloads.parse_poly(workloads.result_line(stdout), "t")
    assert got == workloads.torus_jones(k)


def test_torus_closed_form_known_value():
    # T(2,5): t^2 + t^4 - t^5 + t^6 - t^7
    assert workloads.torus_jones(5) == {2: 1, 4: 1, 5: -1, 6: 1, 7: -1}


@pytest.mark.parametrize("seed", range(4))
def test_tree_structures_have_the_promised_count(seed):
    text, count = gen.tree_structure(5, random.Random(seed))
    parents, a_sets, b_sizes = chordal.parse_structure(text)
    assert chordal.structure_count(parents, a_sets, b_sizes) == count == 16
    assert len(chordal.tree_structures(parents, a_sets, b_sizes)) == count


def test_arc_variant_keeps_the_knot(tmp_path):
    files = {"a.arc": gen.arc_variant(gen.FIG8_ARC, random.Random(4))}
    code, stdout, _ = cli_stdout(
        tmp_path, ["colored-jones", "--arc", "a.arc", "--n", "1"], files)
    assert code == 0
    got = workloads.parse_poly(workloads.result_line(stdout), "t")
    assert got == workloads.mirror(workloads.FIG8_JONES)


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        files, tasks = workloads.build(name, 7)
        again, tasks_again = workloads.build(name, 7)
        assert files == again
        assert [t.argv for t in tasks] == [t.argv for t in tasks_again]
        assert [t.name for t in tasks] == [t.name for t in
                                           workloads.build(name, 8)[1]]
    assert workloads.build("subsets", 7)[0] != workloads.build("subsets", 8)[0]


# ---------------------------------------------------------------- oracles

def test_gaussian_binomial_and_complete_graph_oracle(tmp_path):
    assert workloads.gaussian_binomial(4, 2) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    files = {"k3.g": gen.graph_text(gen.complete_graph(3))}
    code, stdout, _ = cli_stdout(
        tmp_path, ["qchrom", "--graph", "k3.g", "--n", "4"], files)
    assert code == 0
    got = workloads.parse_poly(workloads.result_line(stdout), "q")
    assert got == workloads.complete_coloring_sum(3, 4)
    assert workloads.complete_coloring_sum(5, 3) == {}


def test_parse_poly_reads_the_package_format():
    assert workloads.parse_poly("-1*t^-4 + t^-3 + 3/2*t + 2", "t") == {
        -4: -1, -3: 1, 1: Fraction(3, 2), 0: 2}
    assert workloads.parse_poly("0", "q") == {}


def test_chordless_cycle_certificate_is_checked():
    check = workloads.expect_chordal(False, gen.graph_text(gen.cycle(5)))
    assert check("chordal: no\nchordless cycle: [1, 2, 3, 4, 5]\n") is None
    assert check("chordal: no\nchordless cycle: [1, 2, 3, 4]\n")
    assert check("chordal: yes\n")


# ------------------------------------------------------------ output checks

@pytest.fixture(scope="module")
def jones_task(tmp_path_factory):
    files, tasks = workloads.build("subsets", workloads.DEFAULT_SEED)
    task = next(t for t in tasks if t.name == "jones T(2,11)")
    code, stdout, verdicts = cli_stdout(tmp_path_factory.mktemp("j"),
                                        task.argv, files)
    with open(run.DIGESTS, encoding="utf-8") as handle:
        digests = json.load(handle)["subsets"]
    return task, code, stdout, verdicts, digests


def test_recorded_output_passes(jones_task):
    task, code, stdout, verdicts, digests = jones_task
    assert workloads.output_errors(task, code, stdout, verdicts,
                                   workloads.DEFAULT_SEED, digests) == []


def test_corrupted_output_fails(jones_task):
    task, code, stdout, verdicts, digests = jones_task
    seed = workloads.DEFAULT_SEED
    corrupted = stdout.replace("t^5 + t^7", "t^5 + 2*t^7")
    assert corrupted != stdout
    errors = workloads.output_errors(task, code, corrupted, verdicts, seed,
                                     digests)
    assert any("Jones" in e for e in errors)
    assert any("digest" in e for e in errors)
    # Any seed: the closed form and the seed-independent digest still bite.
    assert len(workloads.output_errors(task, code, corrupted, verdicts,
                                       seed + 1, digests)) == 2
    assert workloads.output_errors(task, 1, stdout, verdicts, seed, digests)
    assert workloads.output_errors(task, code, stdout, [["x", False]], seed,
                                   digests)


# ------------------------------------------------------------ speed probe

def test_scale_is_reference_over_mean_kernel_time():
    probe = speed.Probe()
    probe.samples = [speed.REFERENCE_S * 1e9 * 2] * 4    # half speed
    assert probe.scale() == pytest.approx(0.5)
    probe.samples = [speed.REFERENCE_S * 1e9 / 2] * 3    # double speed
    assert probe.scale() == pytest.approx(2.0)


def test_probe_samples_during_the_span_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.Probe()
    probe.start()
    end = time.perf_counter() + 10 * speed.INTERVAL_S
    while time.perf_counter() < end:
        pass
    inside = probe.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    in_span = len(probe.samples) - 2 * speed.BRACKET
    assert in_span >= 3
    # The kernel's time inside the span is what the caller takes out.
    assert sum(probe.samples[speed.BRACKET:-speed.BRACKET]) <= inside
    probe.start(sample=False)
    assert probe.stop() == 0
    assert len(probe.samples) == 2 * speed.BRACKET


# ----------------------------------------------------------------- tracer

class FakeClock:
    """Advances by one tick per reading, so times are exact."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now


def test_self_time_of_nested_calls():
    t = tracer.Tracer(clock=FakeClock())
    leaf = t.wrap("polyq.leaf", lambda: None)
    mid = t.wrap("graphcore.mid", lambda: (leaf(), leaf()))
    top = t.wrap("qchrom.top", lambda: (mid(), leaf()))
    t.run(top)
    # Each span covers one tick per clock reading made inside it.
    assert t.self_ns == {"polyq.leaf": 3, "graphcore.mid": 3,
                         "qchrom.top": 3, tracer.ROOT: 2}
    assert t.calls == {"polyq.leaf": 3, "graphcore.mid": 1, "qchrom.top": 1}
    assert sum(t.self_ns.values()) == t.wall_ns == 11


def test_exception_keeps_the_stack_balanced():
    t = tracer.Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    top = t.wrap("cli.top", t.wrap("polyq.boom", boom))
    with pytest.raises(KeyError):
        t.run(top)
    assert sum(t.self_ns.values()) == t.wall_ns
    t.run(lambda: None)
    assert sum(t.self_ns.values()) == t.wall_ns


def test_product_draws_are_counted_per_caller():
    t = tracer.Tracer(clock=FakeClock())
    inside = t.wrap("arcflow.enumerate_flows",
                    lambda: [f for f in t.counting_product(range(3), repeat=2)
                             if f[0] == f[1]])
    assert len(t.run(inside)) == 3
    expected = {"arcflow.flow_candidates": 9, "arcflow.flows_kept": 3}
    assert t.counts == expected
    # Outside a counted function, product is left alone.
    assert list(t.counting_product((1, 2))) == [(1,), (2,)]
    assert t.counts == expected


def traced_counts(tmp_path, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    request, result = tmp_path / "req.json", tmp_path / "res.json"
    request.write_text(json.dumps({"src": run.SRC, "argv": argv, "trace": True}))
    subprocess.run([sys.executable, run.WORKER, str(request), str(result)],
                   cwd=tmp_path, check=True, timeout=120)
    outcome = json.loads(result.read_text())
    assert outcome["code"] == 0 and outcome["error"] is None
    trace = outcome["trace"]
    assert sum(trace["self_ns"].values()) == trace["wall_ns"]
    return trace


def test_traced_counts_repeat_exactly(tmp_path):
    files = {"fig8.arc": gen.FIG8_ARC}
    argv = ["identities", "--suite", "arcflow", "--arc", "fig8.arc", "--n", "3"]
    first = traced_counts(tmp_path, argv, files)
    second = traced_counts(tmp_path, argv, files)
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]
    # fig8 keeps 10 flows at n = 3; the suite enumerates them four times
    # (once itself, once per route).
    assert first["counts"]["arcflow.flows_kept"] == 4 * 10
    assert first["counts"]["arcflow.flow_candidates"] >= 4 * 10
    # Names imported with "from .polyq import ..." were re-bound too.
    assert first["calls"]["polyq.qbinom"] > 0
    for layer in ("polyq", "arcflow", "qchrom", "cli"):
        assert run.layer_self(layer)(first) > 0


# ----------------------------------------------------------- the command

def test_benchmark_json_matches_the_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    times = {"t%d" % i: 1.0 for i in range(12)}
    plain = [{"task_s": times, "raw_task_s": times, "setup_s": [0.1],
              "rss_kb": [2048]}] * run.MIN_PASSES
    metrics, _ = run.end_to_end(plain, 12)
    assert metrics["solve_s"] == (12.0, "s")
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(metrics)
    assert [m["name"] for m in spec["per_layer"]] == \
        list(run.PER_LAYER) + ["trace.overhead_ratio"]


def test_p50_is_the_median_task():
    # p50 is the median of the per-task medians: here task "b"'s.
    passes = [{"task_s": {"a": 1.0, "b": 2.0 + d, "c": 9.0}} for d in
              (0.0, 0.1, 0.2)]
    assert run.task_medians(passes) == {"a": 1.0, "b": 2.1, "c": 9.0}
    assert run.solve_s(passes) == pytest.approx(12.1)
    assert statistics.median(run.task_medians(passes).values()) == 2.1


def test_tail_percentile_keeps_ten_samples_beyond():
    pct, value = run.tail(list(range(1, 41)), 40)
    assert pct == 75.0
    assert sum(1 for x in range(1, 41) if x > value) == 10


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "flows",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
