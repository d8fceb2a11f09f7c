"""Command line behavior: reports, exit codes, emit formats."""

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qbichromate import chordal, cli, knotdiag
from qbichromate.cli import run
from qbichromate.graphcore import Multigraph
from qbichromate.polyq import LaurentPoly
from conftest import fixture_path, load_fixture


def invoke(argv):
    return subprocess.run([sys.executable, "-m", "qbichromate.cli"] + argv,
                          capture_output=True, text=True)


def test_qchrom_report(capsys):
    code, report = run(["qchrom", "--graph", fixture_path("k2.g"), "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: 2*q" in out
    assert "sha256=" in out
    assert out.endswith("checked: 1 failed: 0\n")


def test_exit_code_on_bad_input(capsys):
    code, _ = run(["qchrom", "--graph", "/no/such/file.g", "--n", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")


def test_exit_code_on_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("vertices 2\n1 5\n")
    code, _ = run(["qchrom", "--graph", str(bad), "--n", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err
    # the graph is parsed before the couplings
    couplings = tmp_path / "bad.c"
    couplings.write_text("v one\n")
    code, _ = run(["potts", "--graph", str(bad), "--couplings",
                   str(couplings), "--k", "2"])
    assert code == 2
    assert "out of range" in capsys.readouterr().err
    binary = tmp_path / "binary.g"
    binary.write_bytes(b"\xff\xfe\n")
    code, _ = run(["qchrom", "--graph", str(binary), "--n", "2"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_json_emit(capsys):
    code, _ = run(["identities", "--suite", "qbinom", "--emit", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "identities --suite qbinom"
    assert all(v["status"] == "PASS" for v in payload["verdicts"])
    for v in payload["verdicts"]:
        assert v["lhs"] == v["rhs"]
    # serialized with sorted keys for stable bytes
    assert out == json.dumps(payload, sort_keys=True) + "\n"


def test_chordal_check_yes_no(capsys):
    code, _ = run(["chordal-check", "--graph", fixture_path("tri.g")])
    out = capsys.readouterr().out
    assert code == 0
    assert "chordal: yes" in out
    code, _ = run(["chordal-check", "--graph", fixture_path("c4.g")])
    out = capsys.readouterr().out
    assert code == 0
    assert "chordal: no" in out
    assert "chordless cycle" in out


def test_median_without_face_lists_faces(capsys):
    code, _ = run(["median", "--pd", fixture_path("trefoil.pd")])
    out = capsys.readouterr().out
    assert code == 0
    assert "face 0:" in out
    code, _ = run(["median", "--pd", fixture_path("trefoil.pd"),
                   "--outer-face", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "eta" in out


def test_median_outer_face_out_of_range_exits_2(capsys):
    for face in ("5", "-1"):
        code, _ = run(["median", "--pd", fixture_path("trefoil.pd"),
                       "--outer-face", face])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "out of range 0..4" in captured.err


def test_bracket_suite_traces_the_embedding_twice(capsys, monkeypatch):
    # once to validate the PD, once for both shadings
    builds = []

    class Counted(knotdiag._Embedding):
        def __init__(self, k):
            builds.append(k)
            super().__init__(k)

    monkeypatch.setattr(knotdiag, "_Embedding", Counted)
    for name, face_count in (("trefoil.pd", 5), ("fig8.pd", 6)):
        builds.clear()
        code, _ = run(["identities", "--suite", "bracket",
                       "--pd", fixture_path(name)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.endswith("checked: %d failed: 0\n" % (2 * face_count))
        assert len(builds) == 2, name


def test_bracket_suite_runs_the_subset_route_once_per_shading(
        capsys, monkeypatch):
    calls = []
    route = knotdiag.jones_via_bichromate

    def counted(k, m):
        calls.append(m)
        return route(k, m)

    monkeypatch.setattr(knotdiag, "jones_via_bichromate", counted)
    for name, face_count in (("trefoil.pd", 5), ("fig8.pd", 6),
                             ("t2_7.pd", 9)):
        calls.clear()
        code, _ = run(["identities", "--suite", "bracket",
                       "--pd", fixture_path(name)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.endswith("checked: %d failed: 0\n" % (2 * face_count))
        assert len(calls) == 2, name



def test_bracket_suite_on_t2_41(capsys):
    # T(2,41) has 2^41 states: a loop count model check that walks them
    # does not finish
    code, _ = run(["identities", "--suite", "bracket",
                   "--pd", fixture_path("t2_41.pd")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("checked: 86 failed: 0\n")

def test_bracket_suite_fails_on_the_faces_of_a_wrong_shading(
        capsys, monkeypatch):
    # a shading with its eta negated fails the loop count model on the
    # faces it serves as outer faces (its white class), and on no other
    real = knotdiag.shadings
    for name in ("trefoil.pd", "fig8.pd"):
        k = load_fixture(name, knotdiag.parse_pd)
        for wrong in (0, 1):
            def one_negated(k):
                both = list(real(k))
                m = both[wrong]
                both[wrong] = knotdiag.MedianGraph(
                    m.graph, tuple(-e for e in m.eta), m.black_faces)
                return tuple(both)

            monkeypatch.setattr(knotdiag, "shadings", one_negated)
            code, _ = run(["identities", "--suite", "bracket",
                           "--pd", fixture_path(name)])
            out = capsys.readouterr().out
            assert code == 1
            failed = {int(line.rsplit(" ", 1)[1]) for line in out.splitlines()
                      if line.startswith("FAIL loop count model, outer face ")}
            white = set(range(k.r + 2)) - set(real(k)[wrong].black_faces)
            assert failed == white, (name, wrong)
            assert out.count("PASS loop count model") == k.r + 2 - len(white)


def test_timing_goes_to_stderr():
    plain = invoke(["jones", "--pd", fixture_path("trefoil.pd")])
    timed = invoke(["jones", "--pd", fixture_path("trefoil.pd"), "--timing"])
    assert plain.returncode == timed.returncode == 0
    assert plain.stdout == timed.stdout
    assert plain.stderr == ""
    assert timed.stderr.startswith("time: ")


def test_byte_stability_spot():
    argv = ["identities", "--suite", "qpotts",
            "--graph", fixture_path("tri.g"), "--seed", "3"]
    first = invoke(argv)
    second = invoke(argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()


def test_missing_required_input():
    result = invoke(["jones", "--form", "t"])
    assert result.returncode == 2
    assert "required" in result.stderr


def test_integer_options_follow_the_token_rule():
    # the input files refuse non-ASCII digits and '_'; so do the options
    for argv in (["qchrom", "--graph", fixture_path("tri.g"), "--n", "\u0663"],
                 ["qchrom", "--graph", fixture_path("tri.g"), "--n", "1_0"],
                 ["identities", "--suite", "qbinom", "--seed", "1_0"]):
        result = invoke(argv)
        assert result.returncode == 2, argv
        assert result.stdout == ""
        assert "invalid int value" in result.stderr


def test_suites_refuse_flags_they_do_not_read():
    graph, pd = fixture_path("k2.g"), fixture_path("trefoil.pd")
    arc = fixture_path("trefoil.arc")
    for argv, flag, suite in (
            (["--suite", "qchrom", "--graph", graph, "--n", "7"], "n",
             "qchrom"),
            (["--suite", "qbinom", "--seed", "0"], "seed", "qbinom"),
            (["--suite", "bracket", "--pd", pd, "--graph", graph], "graph",
             "bracket"),
            (["--suite", "arcflow", "--arc", arc, "--k", "2"], "k", "arcflow"),
            (["--suite", "qpotts", "--graph", graph, "--z", "3"], "z",
             "qpotts")):
        result = invoke(["identities"] + argv)
        assert result.returncode == 2, argv
        assert result.stdout == ""
        assert result.stderr == "error: --%s is not read by suite %s\n" \
            % (flag, suite)


def test_qpotts_suite_refuses_seed_with_couplings():
    result = invoke(["identities", "--suite", "qpotts",
                     "--graph", fixture_path("tri.g"),
                     "--couplings", fixture_path("v.c"), "--seed", "3"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == \
        "error: --seed is not read by suite qpotts with --couplings\n"


def test_qpotts_suite_seed_defaults_to_zero(capsys):
    outputs = []
    for seed in ([], ["--seed", "0"]):
        code, _ = run(["identities", "--suite", "qpotts", "--graph",
                       fixture_path("tri.g"), "--k", "2"] + seed)
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "seed: 0\n" in outputs[0]


def test_missing_suite_input():
    result = invoke(["identities", "--suite", "potts",
                     "--graph", fixture_path("tri.g")])
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")


def test_non_planar_pd_is_an_input_error(tmp_path):
    pd = tmp_path / "nonplanar.pd"
    pd.write_text("X- 3 4 1 2\nX- 1 3 2 4\n")
    for argv in (["jones"], ["median"], ["identities", "--suite", "bracket"]):
        result = invoke(argv + ["--pd", str(pd)])
        assert result.returncode == 2, argv
        assert result.stderr.startswith("error: "), argv
        assert "Traceback" not in result.stderr, argv


@pytest.mark.parametrize("n", (1, 2, 3))
def test_arcflow_suite_passes_on_red_first_fig8(capsys, n):
    # r3 enters vertex 2 ahead of the blue edge b1; every route total
    # agrees there, main's included
    code, _ = run(["identities", "--suite", "arcflow", "--arc",
                   fixture_path("fig8_red_first.arc"), "--n", str(n)])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out


def test_order_vertex_out_of_range_exits_2(tmp_path, capsys):
    arc = tmp_path / "order9.arc"
    with open(fixture_path("trefoil.arc"), encoding="utf-8") as handle:
        arc.write_text(handle.read() + "order 9\n")
    code, _ = run(["colored-jones", "--arc", str(arc), "--n", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "out of range 1..2" in err


def test_internal_fault_exits_3(monkeypatch, capsys):
    # a kernel fault that is neither OSError nor ValueError
    def broken(*args):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr(Multigraph, "cluster_sums", broken)
    code, _ = run(["tutte", "--graph", fixture_path("tri.g")])
    out, err = capsys.readouterr()
    assert code == 3
    assert err.startswith("internal error: ")
    assert "Traceback" not in err
    assert out == ""


def path200_result(argv, capsys):
    """The result line of argv on path200.g (199 edges, 2^199 subsets)."""
    code, _ = run(argv + ["--graph", fixture_path("path200.g")])
    out = capsys.readouterr().out
    assert code == 0
    (line,) = [line for line in out.splitlines()
               if line.startswith("result: ")]
    return line[len("result: "):]


def test_subset_polynomials_on_a_200_vertex_path(capsys):
    # every subset of a tree's edges is a forest: c(A) = 200 - |A| and
    # the nullity is 0
    assert path200_result(["tutte"], capsys) == str(
        LaurentPoly.variable("x") ** 199)
    u = LaurentPoly.variable("u")
    assert path200_result(["tutte", "--form", "whitney-rank"], capsys) == \
        str((1 + u) ** 199)
    a, b = LaurentPoly.variable("a"), LaurentPoly.variable("b")
    want = LaurentPoly()
    for j in range(200):
        want += comb(199, j) * a ** (200 - j) * b ** j
    assert path200_result(["bichromate"], capsys) == str(want)


def test_potts_on_a_200_vertex_path(capsys):
    # 2^199 edge subsets on the random-cluster side; on a path it is k
    # times the product of (k + v_e)
    graph = fixture_path("path200.g")
    couplings = fixture_path("path200.v")
    vs = [Fraction(line.split()[1]) for line in
          Path(couplings).read_text().splitlines() if line.startswith("v ")]
    assert len(vs) == 199
    code, _ = run(["potts", "--graph", graph, "--couplings", couplings,
                   "--k", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: %s\n" % (3 * prod(3 + v for v in vs)) in out
    assert out.endswith("checked: 1 failed: 0\n")


def test_vdw_on_a_200_vertex_path(capsys):
    # 2^199 edge subsets in the high-temperature expansion
    code, _ = run(["vdw", "--graph", fixture_path("path200.g"),
                   "--couplings", fixture_path("path200.ch")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("PASS high-temperature expansion agrees\n"
                        "checked: 1 failed: 0\n")


def test_infeasible_chordal_structure_is_quiet(tmp_path):
    # node 2 needs five inherited elements from a one-element bag, so
    # the instance has no structures: both counts are 0, nothing warns
    structure = tmp_path / "none.s"
    structure.write_text("tree 0 1\nA 1 1\nA 2 2\nb 2 5\n")
    result = invoke(["identities", "--suite", "chordal",
                     "--structure", str(structure)])
    assert result.returncode == 0
    assert result.stderr == ""
    assert "PASS structure count\n" in result.stdout
    assert result.stdout.endswith("checked: 2 failed: 0\n")


def test_deep_chordal_structure(tmp_path):
    # a 1500-node chain: neither the structure enumeration nor the
    # coloring walk may recurse once per node
    chain = tmp_path / "chain.s"
    chain.write_text("tree " + " ".join(map(str, range(1500))) + "\n"
                     + "".join("A %d %d\n" % (w, w) for w in range(1, 1501)))
    result = invoke(["identities", "--suite", "chordal",
                     "--structure", str(chain), "--z", "1"])
    assert result.returncode == 0, result.stderr
    assert "internal error" not in result.stderr
    assert result.stdout.endswith("checked: 3 failed: 0\n")


def test_chordal_invariance_compares_left_sides(monkeypatch, capsys):
    # the right side depends only on the sizes, so only a left side that
    # changes with the structure can fail the invariance verdicts
    pair = chordal.str2_pair
    q = LaurentPoly.variable("q")

    def shifted(s, z):
        lhs, rhs = pair(s, z)
        return lhs * q ** min(s.b_sets[1]), rhs

    code, _ = run(["identities", "--suite", "chordal",
                   "--structure", fixture_path("chain.s")])
    passing = capsys.readouterr().out
    assert code == 0 and "PASS invariance, structure 3\n" in passing
    monkeypatch.setattr(chordal, "str2_pair", shifted)
    code, _ = run(["identities", "--suite", "chordal",
                   "--structure", fixture_path("chain.s")])
    assert code == 1
    assert "FAIL invariance, structure" in capsys.readouterr().out


def test_chordal_suite_sums_each_structure_once(monkeypatch, capsys):
    # chain.s has 4 structures: one state sum each and one enumeration
    calls = []

    def counting(name, function):
        def counted(*args):
            calls.append(name)
            return function(*args)
        return counted

    monkeypatch.setattr(Multigraph, "state_sums",
                        counting("state_sums", Multigraph.state_sums))
    monkeypatch.setattr(chordal, "tree_structures",
                        counting("tree_structures", chordal.tree_structures))
    code, _ = run(["identities", "--suite", "chordal",
                   "--structure", fixture_path("chain.s"), "--z", "3"])
    assert code == 0
    assert capsys.readouterr().out.endswith("checked: 9 failed: 0\n")
    assert sorted(calls) == ["state_sums"] * 4 + ["tree_structures"]


# sha256 of the chordal suite's stdout on chain.s, run from the
# repository root, as recorded before the suite read its per-structure
# pairs from str20_pair.
CHORDAL_SUITE_DIGESTS = {
    ("1", "text"):
        "a701dcd81d249ab3076326c63d6c016d3ff9e7342b4463a8a03cfacdf506617a",
    ("1", "json"):
        "ba750901647da607719c5e28898654c93bd2648e271cad00e7c25f53884fccb2",
    ("3", "text"):
        "754dab549f44e7c405a5a46013753dbeb5e4f884e7ad07229925363b65639749",
    ("3", "json"):
        "82e39ea01755bc94764afcab09041a86850b576909bdc15c4c7d5754fcd97e30",
}


@pytest.mark.parametrize("z, emit", sorted(CHORDAL_SUITE_DIGESTS))
def test_chordal_suite_output_is_pinned(z, emit, monkeypatch, capsys):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    code, _ = run(["identities", "--suite", "chordal", "--structure",
                   "tests/fixtures/chain.s", "--z", z, "--emit", emit])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CHORDAL_SUITE_DIGESTS[z, emit]


# sha256 of stdout, run from the repository root, as recorded while the
# subset folds still walked all 2^|E| edge subsets.
SUBSET_FOLD_DIGESTS = {
    ("tutte --graph tests/fixtures/multi.g", "text"):
        "464b5c03876688cbba378eb60272a7d1aebfbe014d5d6b7aaa0c6c64956153b5",
    ("tutte --graph tests/fixtures/multi.g", "json"):
        "c9aa8fcd1de00f49387f2cbb1fd5c436065dc603c5b9cdb01ccbf49bfeed45ad",
    ("tutte --graph tests/fixtures/multi.g --form whitney-rank", "text"):
        "99e845dc4de281f453b46227aba73a510ad2d6b2d0738664d8086cd07eb565a1",
    ("tutte --graph tests/fixtures/multi.g --form whitney-rank", "json"):
        "88fc0df62cf2ad9eec9f28ef41cba3ed4061debf088f2ccce0660b726470f212",
    ("bichromate --graph tests/fixtures/multi.g", "text"):
        "7be2e181d0595bb6cf33b25f98a2f05b9517c396796b4800903281aab5c3f337",
    ("bichromate --graph tests/fixtures/multi.g", "json"):
        "cf88c8e2fcdd7048d9acedb94d622e21d235c09a1f5f5a4dbf0a8d328ceac9f5",
    ("qbichromate --graph tests/fixtures/multi.g --y 3", "text"):
        "67f0cd81184479113bde8a94519c144c1a4bbe17358f3c460daaffd4db197a3b",
    ("qbichromate --graph tests/fixtures/multi.g --y 3", "json"):
        "148c5bc5f040dac2d3ef1d7415e4af690b0954069f2cefdd8c06d1d654079018",
    ("tutte --graph tests/fixtures/loop.g", "text"):
        "8d8f0a19cbc7c1b7d8427ce59c3c93f5e658a2bf1da261bbc1d19525568e7b5b",
    ("tutte --graph tests/fixtures/loop.g", "json"):
        "954b91f0ef482a2865ec737dd79898ab05d39f50603a5dfaba415ac1c16ac9b4",
    ("tutte --graph tests/fixtures/loop.g --form whitney-rank", "text"):
        "d7c819b231d0df607a94b99efce35e854aa58a8813c059a6d0d1355ad01ac40f",
    ("tutte --graph tests/fixtures/loop.g --form whitney-rank", "json"):
        "2c1fb8768c7cd8c25ef402271c31c163e85eae40db05a412898557331a4bd84e",
    ("bichromate --graph tests/fixtures/loop.g", "text"):
        "ab7a38003bce5eb594294439dd2918352706fee95d902376d2070c14a06f1ce6",
    ("bichromate --graph tests/fixtures/loop.g", "json"):
        "ac54dad166288f3e4d4f9daf26da6facf19ce9964391db010460c912046fbcc7",
    ("qbichromate --graph tests/fixtures/loop.g --y 3", "text"):
        "a619a5594c2cc6d6e831d072771ae4110cb68bd075cba52057325dacfffdb240",
    ("qbichromate --graph tests/fixtures/loop.g --y 3", "json"):
        "b1dfabdec9f4b747249d4499cfc9ee8cad82ad34361add19fae89dc3476316b3",
    ("tutte --graph tests/fixtures/tri.g", "text"):
        "f6969a7aa963e37c79468c9112b2ad0e552e2e49d26b15460ed3c4235cf40492",
    ("tutte --graph tests/fixtures/tri.g", "json"):
        "68018a00abecf9e84ae6fe0fa077a2f5ce8d3bcb67860b4e38d79d0e749d9b2e",
    ("tutte --graph tests/fixtures/tri.g --form whitney-rank", "text"):
        "ac3a236b0ddedbc59e175f25941fed70b9eb5531cb0c1801782c3153ba8a5b76",
    ("tutte --graph tests/fixtures/tri.g --form whitney-rank", "json"):
        "fb31df7cf06b492a6197e9637d97c1204545977ae66ca6d311eb2f3f630e5a97",
    ("bichromate --graph tests/fixtures/tri.g", "text"):
        "d125b53793a18a460fbe471fec876d7dbc0f99373d63afe56e7126429b510394",
    ("bichromate --graph tests/fixtures/tri.g", "json"):
        "dffb4048b5a8fd5e864c71840d84a958aca762c6092d0c226076435ce7f0797c",
    ("qbichromate --graph tests/fixtures/tri.g --y 3", "text"):
        "b8870ac17afec57c08025ab891b9543af063df98125030828e6c5c0c7935c8e8",
    ("qbichromate --graph tests/fixtures/tri.g --y 3", "json"):
        "53e58936df2489725772f25128148cf58f141835599250683d5d4499f4876d13",
    ("vdw --graph tests/fixtures/tri.g --couplings tests/fixtures/hyp.c", "text"):
        "62165bcf8be0289c81eac2ee5f5340a5c0cbec716d3cb0e3d8c46209f1250430",
    ("vdw --graph tests/fixtures/tri.g --couplings tests/fixtures/hyp.c", "json"):
        "7f57232c44eb5fa5e70b54c0cbc62972e6b15d9713d6516d857e674d92d78195",
    ("vdw --graph tests/fixtures/multi.g --couplings tests/fixtures/hyp.c", "text"):
        "360e5d1bb35e963d3acf44bfe7bb1289255a16f76f67cdad58f905def323dc1a",
    ("vdw --graph tests/fixtures/multi.g --couplings tests/fixtures/hyp.c", "json"):
        "11b15ee2b4468b98baffb2e72c7130f59bee87cb2eb77c4689a1c8862e62a619",
    ("identities --suite bracket --pd tests/fixtures/trefoil_flip.pd", "text"):
        "36f29da2c16f5f53660bf5b19f212055824dd25921c481719407f6475b6bc292",
    ("identities --suite bracket --pd tests/fixtures/trefoil_flip.pd", "json"):
        "695148724b0eb4ede58aa399ec777491af0e1ec8f664c0c72e3b2f383c5daae7",
}


@pytest.mark.parametrize("call, emit", sorted(SUBSET_FOLD_DIGESTS))
def test_subset_fold_output_is_pinned(call, emit, monkeypatch, capsys):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    code, _ = run(call.split() + ["--emit", emit])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SUBSET_FOLD_DIGESTS[call, emit]


# sha256 of stdout, run from the repository root, as recorded while the
# median command and the bracket suite built one median graph per face.
SHADING_DIGESTS = {
    ("median --pd tests/fixtures/trefoil.pd", "text"):
        "6bb3f59a1bb88ddd14c67be33dc3649704e6f051266858dd4cb2e38d1ab58256",
    ("median --pd tests/fixtures/trefoil.pd --outer-face 0", "text"):
        "931a5d4459b436f8f59b5a101cdd486a08f3f587d11ef598de11f623f4fb45bb",
    ("median --pd tests/fixtures/trefoil.pd --outer-face 1", "text"):
        "6ba693ece909260ef50f18554a9a479e03eb2d805474dfbb9ab017af4d0d9126",
    ("median --pd tests/fixtures/trefoil.pd --outer-face 2", "text"):
        "bf19c70214ac8cb5eafc98d4c0fa3e5c494c6199636b02e18f43fb651c8ee75b",
    ("median --pd tests/fixtures/trefoil.pd --outer-face 3", "text"):
        "48f375bfb0514057d86dd7e4a6224e15a84296bf97b52592ebfa06b40d96e507",
    ("median --pd tests/fixtures/trefoil.pd --outer-face 4", "text"):
        "df5da0fa8a9c90e63076395c146e63e97adece2bdffc96003e2cca336cc953a2",
    ("median --pd tests/fixtures/trefoil_flip.pd", "text"):
        "abe0b3c3b85ef3ac3aeeff079d98574d619aa2708928d66e629a38f26b2cf660",
    ("median --pd tests/fixtures/trefoil_flip.pd --outer-face 0", "text"):
        "ba9973377e6818ecbd2d1ae25c480692c5ab391eb252f34102d1d8296a7bc99a",
    ("median --pd tests/fixtures/trefoil_flip.pd --outer-face 1", "text"):
        "5a6553431e176277b7fc750dda7bd0bc623b95ae7020156fd050dcc47350ca89",
    ("median --pd tests/fixtures/trefoil_flip.pd --outer-face 2", "text"):
        "4fc34d0510e2e2932f42eb5817545afcd0d4f02c4f0fe3043b0e935b1aec5d66",
    ("median --pd tests/fixtures/trefoil_flip.pd --outer-face 3", "text"):
        "280fccee561febd43ab19cb707808c34c08ddbba662f592eab63a2ae1253d8f3",
    ("median --pd tests/fixtures/trefoil_flip.pd --outer-face 4", "text"):
        "6a7eb16765c859a6a4901f11ffce4e7abe83dd0e8600a78d83542be434815caf",
    ("median --pd tests/fixtures/fig8.pd", "text"):
        "4e8b60a745a61122b704ddc528755d5f59205d7dad23c7faebb6b4d01cd126dc",
    ("median --pd tests/fixtures/fig8.pd --outer-face 0", "text"):
        "0a445cc8529c57b65c9558acfc98e0e3ad810ad7329104a2a44369cff10fcfef",
    ("median --pd tests/fixtures/fig8.pd --outer-face 1", "text"):
        "8eefb93d4f55e44af6ca15f53e3e2a54915006dd86923245280e2db157d2cc6d",
    ("median --pd tests/fixtures/fig8.pd --outer-face 2", "text"):
        "2518be1d545a80d56bf39f8dfd4c005cbbef9dd2e4c0418960f5725add0d1827",
    ("median --pd tests/fixtures/fig8.pd --outer-face 3", "text"):
        "a66d2340acdb54aaf92a6681bf5e7d2f7f5c46a149a7ddd717d2dd5c1b11c8a8",
    ("median --pd tests/fixtures/fig8.pd --outer-face 4", "text"):
        "725e18260aa1750d0883d89113d60686be962535717e3f4cfea7a99d6e795506",
    ("median --pd tests/fixtures/fig8.pd --outer-face 5", "text"):
        "ba918caee6530dc0b31adad11973b1783d4796699ffd1ee7b84a3a21007a4b30",
    ("median --pd tests/fixtures/kink.pd", "text"):
        "9927fed1fd155aa15e3d3526d0cebf276aa480dfe2f6373123ffe7b54691aa7e",
    ("median --pd tests/fixtures/kink.pd --outer-face 0", "text"):
        "feff3b0d4f43787f1d78f9e1aaf6d1db464c36b48b0a102281fa47de7322b1b6",
    ("median --pd tests/fixtures/kink.pd --outer-face 1", "text"):
        "424f605bcc1062a79d1fecb7b32d9f144cad02d3706fb78a19b3bbba87610939",
    ("median --pd tests/fixtures/kink.pd --outer-face 2", "text"):
        "3007d6a7560b4ded77e877a4e5d7f75f4fade6f718569ae373d7ded21b55cace",
    ("identities --suite bracket --pd tests/fixtures/fig8.pd", "text"):
        "f8fecc472592a96e20d07b9379f380e0d62c17da215f9172ffbff7921f07c854",
    ("identities --suite bracket --pd tests/fixtures/fig8.pd", "json"):
        "3e77e02dc2c7727465d1b10c0d662ad10d495ae321c7db981bbefb2def8c5d19",
    ("identities --suite bracket --pd tests/fixtures/kink.pd", "text"):
        "ec839fa66fd16839af5f7a2ed0851e6cb5ce2b6d3b967f77288409d235c9a06d",
    ("identities --suite bracket --pd tests/fixtures/kink.pd", "json"):
        "61d4cecb464e519cbb45929551f2c4127743d31a47a8d97a555a2b15259b406b",
    ("identities --suite bracket --pd tests/fixtures/t2_7.pd", "text"):
        "df89fff346692622bc49ac1182c0643b86a9c1b67af366cfac082593aae230e8",
    ("identities --suite bracket --pd tests/fixtures/t2_7.pd", "json"):
        "a15f15b31845a2f0f4d3b64c3261bb653fdc757848bc328a31e0ad9bc9efbde9",
}


@pytest.mark.parametrize("call, emit", sorted(SHADING_DIGESTS))
def test_shading_output_is_pinned(call, emit, monkeypatch, capsys):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    code, _ = run(call.split() + ["--emit", emit])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SHADING_DIGESTS[call, emit]


def test_colored_jones_routes_agree(capsys):
    outs = []
    for route in ("main", "catmm", "ma2"):
        code, _ = run(["colored-jones", "--arc", fixture_path("trefoil.arc"),
                       "--n", "1", "--route", route])
        assert code == 0
        out = capsys.readouterr().out
        outs.append([line for line in out.splitlines()
                     if line.startswith("result:")])
    assert outs[0] == outs[1] == outs[2]


# One argv per subcommand for the parser tests, each with a --flag=value
# and an abbreviated flag (--emit=json, --tim).
PARSER_SAMPLES = {
    "qchrom": ["--graph", "k2.g", "--n=2", "--tim"],
    "bichromate": ["--gr", "k2.g", "--emit=json"],
    "tutte": ["--graph=tri.g", "--fo", "whitney-rank"],
    "qbichromate": ["--graph", "tri.g", "--y=3", "--tim"],
    "potts": ["--graph", "tri.g", "--k=3", "--coup", "v.c"],
    "qpotts": ["--gra", "tri.g", "--k", "2", "--couplings=v.c"],
    "ising": ["--graph", "tri.g", "--coup", "hyp.c", "--emit=json"],
    "vdw": ["--graph=tri.g", "--couplings", "hyp.c", "--tim"],
    "jones": ["--pd=trefoil.pd", "--fo", "A"],
    "median": ["--pd", "trefoil.pd", "--outer=0"],
    "colored-jones": ["--arc", "fig8.arc", "--n=3", "--ro", "catmm"],
    "identities": ["--suite=qpotts", "--gr", "tri.g", "--seed", "4"],
    "chordal-check": ["--graph=c4.g", "--em", "json"],
}


def outcome(call, capsys):
    """(stdout, stderr, exit code or None) of call()."""
    try:
        call()
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


def test_parser_samples_cover_every_subcommand():
    assert list(PARSER_SAMPLES) == list(cli._COMMANDS)


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], [], ["bogus"], ["--", "potts"], ["potts", "-h"],
    ["identities", "-h"], ["qbichromate"],
    ["qchrom", "--graph", "k2.g", "--n", "2", "extra"],
    ["colored-jones", "--arc", "fig8.arc", "--n", "1", "--route", "bogus"],
    ["qchrom", "--graph", "k2.g", "--n", "1_0"],
])
def test_help_and_errors_match_the_full_parser(argv, capsys):
    got = outcome(lambda: run(argv), capsys)
    assert got == outcome(lambda: cli._parser().parse_args(argv), capsys)
    assert got[2] in (0, 2)
    if argv in ([], ["bogus"]):
        # these errors name the positional by its dest, not a metavar
        assert "subcommand" in got[1]


def canonical(argv):
    """argv written plain: every flag argparse sets on it, spelled out in
    full with a separate value, file names as fixture paths."""
    parsed = vars(cli._parser().parse_args(argv))
    out = [argv[0]]
    for option, (dest, spec) in cli._flags(argv[0]).items():
        value = parsed[dest]
        if value == spec.get("default"):
            continue
        if value is True:
            out.append(option)
        elif spec.get("metavar") == "FILE":
            out += [option, fixture_path(value)]
        else:
            out += [option, str(value)]
    return out


@pytest.mark.parametrize("name", list(PARSER_SAMPLES))
def test_canonical_samples_run_without_a_parser(name, monkeypatch, capsys):
    argv = canonical([name] + PARSER_SAMPLES[name])

    def refuse():
        raise AssertionError("built a parser for %r" % (argv,))

    monkeypatch.setattr(cli, "_parser", refuse)
    code, _ = run(tuple(argv))
    assert code == 0
    assert name in capsys.readouterr().out


# Modules a plain call never needs: dataclasses (and the inspect it
# loads), argparse and what argparse loads on its first parse (terminal
# width, message lookup), json and random.
LAZY = ("dataclasses", "inspect", "argparse", "json", "random", "shutil",
        "locale")


def fresh_main(argv):
    """cli.main(argv) in a fresh python -S -E: (exit code, stdout, the
    LAZY modules loaded); the run must write nothing to stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    script = ("import sys\n"
              "sys.path.insert(0, %r)\n"
              "from qbichromate import cli\n"
              "try:\n"
              "    code = cli.main(%r)\n"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              "print(code, sorted(set(%r) & set(sys.modules)),"
              " file=sys.stderr)\n" % (src, argv, LAZY))
    result = subprocess.run([sys.executable, "-S", "-E", "-c", script],
                            capture_output=True, text=True)
    code, loaded = result.stderr.split(" ", 1)
    return int(code), result.stdout, loaded.strip()


def assert_fresh_run_matches(argv, loaded, capsys):
    """A fresh run of argv exits 0, prints what run(argv) prints here and
    loads exactly the named LAZY modules."""
    try:
        code = run(argv)[0]
    except SystemExit as exc:
        code = exc.code
    assert code == 0
    assert fresh_main(argv) == (code, capsys.readouterr().out, str(loaded))


def test_plain_run_skips_argparse_first_use_imports(capsys):
    assert_fresh_run_matches(["chordal-check", "--graph", fixture_path("tri.g")],
                             [], capsys)


@pytest.mark.parametrize("argv, loaded", [
    (["chordal-check", "--graph", fixture_path("tri.g"), "--emit", "json"],
     ["json"]),
    (["identities", "--suite", "qpotts", "--graph", fixture_path("tri.g"),
      "--seed", "3"], ["random"]),
    (["chordal-check", "--graph=" + fixture_path("tri.g")],
     ["argparse", "locale", "shutil"]),
    (["--help"], ["argparse", "locale", "shutil"]),
])
def test_other_paths_load_what_they_use(argv, loaded, capsys, monkeypatch):
    # Help wraps to the terminal width; both runs read it from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    assert_fresh_run_matches(argv, loaded, capsys)


def argparse_vars(argv):
    """vars() of what the argparse path returns for argv, which must
    parse."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) \
            as err:
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit:
            pass
    raise AssertionError("argparse refused %r: %s" % (argv, err.getvalue()))


OPTIONS = sorted({option for name in cli._COMMANDS
                  for option in cli._flags(name)})
CHOICES = sorted({choice for name in cli._COMMANDS
                  for _, spec in cli._flags(name).values()
                  for choice in spec.get("choices", ())})
JUNK_VALUES = ["1_0", "-3", "-0", "-", "-x", "", "a=b", "\u0663", "bogus",
               "--graph", "-h", " 3"] + CHOICES


def value_for(spec):
    """A value the flag takes."""
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if spec.get("type") is cli._integer:
        return st.integers(0, 99).map(str)
    return st.sampled_from(["k2.g", "tri.g", "a b", "x=y", ""])


@st.composite
def plain_argvs(draw, name, every_flag=True):
    """name and its flags in full, each with a value it takes, in any
    order: every flag, or the required ones and a drawn subset."""
    pairs = []
    for option, (_, spec) in cli._flags(name).items():
        if not (every_flag or spec.get("required") or draw(st.booleans())):
            continue
        if spec.get("action") == "store_true":
            pairs.append([option])
        else:
            pairs.append([option, draw(value_for(spec))])
    return [name] + sum(draw(st.permutations(pairs)), [])


@st.composite
def noise_tokens(draw):
    """A token from every flag table: a flag in full, abbreviated, with
    =value or with _ for -, a value, or -h, --help, -- or -."""
    option = draw(st.sampled_from(OPTIONS))
    value = draw(st.sampled_from(JUNK_VALUES) | st.integers(0, 9).map(str))
    return draw(st.sampled_from([
        option, value, option + "=" + value,
        option[:draw(st.integers(3, max(3, len(option) - 1)))],
        "--" + option[2:].replace("-", "_"),
        "-h", "--help", "--", "-"]))


@st.composite
def mutated_argvs(draw):
    """A plain argv with up to three edits: another or a junk name, an
    inserted or dropped token, a junk value, or a repeated flag with a
    fresh value."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    argv = draw(plain_argvs(name, every_flag=False))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(
            ["name", "insert", "drop", "value", "repeat"]))
        i = draw(st.integers(1, max(1, len(argv) - 1)))
        if edit == "name":
            argv[0] = draw(st.sampled_from(list(cli._COMMANDS) + ["bogus"]))
        elif edit == "insert":
            argv.insert(i, draw(noise_tokens()))
        elif edit == "drop" and len(argv) > 1:
            del argv[i]
        elif edit == "value" and len(argv) > 1:
            argv[i] = draw(st.sampled_from(JUNK_VALUES))
        elif edit == "repeat" and argv[0] in cli._COMMANDS:
            option, (_, spec) = draw(st.sampled_from(
                sorted(cli._flags(argv[0]).items())))
            argv.append(option)
            if spec.get("action") != "store_true":
                argv.append(draw(value_for(spec)
                                 | st.sampled_from(JUNK_VALUES)))
    return argv


@st.composite
def token_argvs(draw):
    """A subcommand or junk name, then tokens drawn from every flag table."""
    name = draw(st.sampled_from(list(cli._COMMANDS) + ["bogus"]))
    return [name] + draw(st.lists(noise_tokens(), max_size=8))


@settings(max_examples=1500, deadline=None)
@given(st.one_of(mutated_argvs(), token_argvs()))
def test_plain_args_match_argparse(argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == argparse_vars(argv)


@pytest.mark.parametrize("name", list(cli._COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_plain_args_accept_every_canonical_argv(name, data):
    argv = data.draw(plain_argvs(name))
    plain = cli._plain_args(argv)
    assert plain is not None, argv
    assert vars(plain) == argparse_vars(argv)
