import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from rga import cli
from rga.algebra import Element
from rga.category import cocycle_from_algebra, cocycle_to_json
from rga.cli import main
from rga.linalg import Matrix
from rga.parser import MAX_NESTING, parse_element
from rga.rewrite import MAX_GENERATORS, MAX_WORDS, RewriteSystem

from helpers import nested, rand_element


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_eval_relation(capsys):
    code, out = run(capsys, ["eval", "-n", "2", "T1 T2 T1"])
    assert (code, out) == (0, "T1\n")


def test_invert_not_invertible(capsys):
    code, out = run(capsys, ["invert", "-n", "2", "T1"])
    assert (code, out) == (1, "error: not invertible (a0 = 0)\n")


def test_confluence_n2(capsys):
    code, out = run(capsys, ["confluence", "-n", "2"])
    assert code == 0
    assert out == "locally confluent: true (critical pairs: 10, " \
                  "all joinable)\n"


def test_confluence_n1_checker_false(capsys):
    code, out = run(capsys, ["confluence", "-n", "1"])
    assert code == 1
    assert out.startswith("locally confluent: false")


def test_nf(capsys):
    assert run(capsys, ["nf", "-n", "3", "1 2 3 1 2"]) == (0, "T1 T2\n")
    assert run(capsys, ["nf", "-n", "2", "1 1"]) == (0, "0\n")


def test_nf_letters_that_are_special_bytes(capsys):
    # 10 is a newline and 40..46 and 63 regex metacharacters as bytes
    cycle = " ".join(map(str, [*range(40, 65), *range(1, 41)]))
    assert run(capsys, ["nf", "-n", "64", cycle]) == (0, "T40\n")
    assert run(capsys, ["nf", "-n", "64", "9 10 11 10 42"]) == (
        0, "T9 T10 T11 T10 T42\n")
    assert run(capsys, ["nf", "-n", "64", "10 10"]) == (0, "0\n")


def test_invert_success(capsys):
    code, out = run(capsys, ["invert", "-n", "2", "1 + T1"])
    assert (code, out) == (0, "1 - T1\n")


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_internal_errors_propagate(monkeypatch, capsys, error):
    # only the typed refusals are answers; any other error is a fault
    def fault(*args, **kwargs):
        raise error("internal fault")
    monkeypatch.setattr(cli, "obstruction", fault)
    with pytest.raises(error, match="internal fault"):
        main(["obstruction", "-n", "2", "T1"])
    assert capsys.readouterr().out == ""


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [["invert", "-n", "2", "1 + T1"],
                                  ["idempotents", "-n", "2"],
                                  ["wick", "eval", "X1 T1 T2"]],
                         ids=["invert", "idempotents", "wick-eval"])
def test_cli_runs_without_asserts(capsys, argv):
    # `python -O` strips every assert statement from the package
    code, out = run(capsys, argv)
    done = subprocess.run(
        [sys.executable, "-O", "-m", "rga.cli", *argv], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
        text=True, timeout=120)
    assert (done.returncode, done.stdout) == (code, out)


def test_closed_stdout_is_not_a_fault():
    # the reader takes the first of four lines of about 0.8 MB each, then
    # closes the pipe while `decompose` still has megabytes to write
    proc = subprocess.Popen(
        [sys.executable, "-m", "rga.cli", "decompose", "-n", "4",
         "--max-deg", "10"], cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"X1: T1, T1 T2, ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err


def test_annihilate(capsys):
    code, out = run(capsys, ["annihilate", "-n", "2", "--side", "right",
                             "T1"])
    assert code == 0
    assert out == "T1\nT1 T2\n1 - T2 T1\n"
    code, out = run(capsys, ["annihilate", "-n", "2", "--side", "right",
                             "1"])
    assert (code, out) == (0, "0\n")


def test_obstruction(capsys):
    assert run(capsys, ["obstruction", "-n", "2", "T1"]) == (0, "1 + T2\n")


def test_idempotents(capsys):
    code, out = run(capsys, ["idempotents", "-n", "2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    sys2 = RewriteSystem(2)
    for line in lines:
        e = parse_element(line, sys2)
        from rga.algebra import mul
        assert mul(e, e) == e


def test_decompose(capsys):
    code, out = run(capsys, ["decompose", "-n", "2", "--max-deg", "2"])
    assert code == 0
    assert out == "X1: T1, T1 T2\nX2: T2, T2 T1\n"


def test_parse_error_exit_2(capsys):
    code, out = run(capsys, ["eval", "-n", "2", "T1 +"])
    assert code == 2
    assert out.startswith("error:")


def test_unknown_generator_exit_2(capsys):
    code, out = run(capsys, ["eval", "-n", "2", "T5"])
    assert code == 2


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_invalid_generator_count_exit_2(capsys):
    code, out = run(capsys, ["eval", "-n", "0", "T1"])
    assert (code, out) == (2, "error: generator count must be >= 1, got 0\n")


def test_check_cocycle_file(tmp_path, capsys):
    c, _ = cocycle_from_algebra(RewriteSystem(2), 2)
    pairings = {s.label: Matrix.identity(s.dim) for s in c.spaces}
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(cocycle_to_json(c, pairings)))
    code, out = run(capsys, ["check", "cocycle", str(path)])
    assert code == 0
    assert out == "regular cocycle: true\nduality identity: true\n"


def test_check_cocycle_failure(tmp_path, capsys):
    doc = {
        "spaces": [{"name": "X1", "basis": ["u"]},
                   {"name": "X2", "basis": ["v"]}],
        "maps": [{"from": "X1", "to": "X2", "matrix": [["0"]]},
                 {"from": "X2", "to": "X1", "matrix": [["1"]]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "cocycle", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "regular cocycle: false (fails at index 2)\n"
    assert captured.err == ("witness: regularity at 2: X2->X1Matrix[0] "
                            "!= X2->X1Matrix[1]\n")


def test_check_functor_file(tmp_path, capsys):
    c, _ = cocycle_from_algebra(RewriteSystem(2), 2)
    doc = {
        "cocycle": cocycle_to_json(c),
        "base_change": {"X1": [["1", "1"], ["0", "1"]],
                        "X2": [["1", "0"], ["1", "1"]]},
    }
    path = tmp_path / "functor.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, ["check", "functor", str(path)])
    assert (code, out) == (0, "obstructed functor: true\n")


def test_check_bialgebra(capsys):
    code, out = run(capsys, ["check", "bialgebra", "-n", "2", "--signs",
                             "koszul", "--evacuum", "idem"])
    assert code == 1
    assert out == ("Delta(T1)^2 = 0: true\nDelta(T2)^2 = 0: true\n"
                   "D1 D2 D1 = D1: false\nD2 D1 D2 = D2: false\n")


def test_check_bialgebra_witness_on_stderr(capsys):
    assert main(["check", "bialgebra", "-n", "2", "--signs", "koszul",
                 "--evacuum", "idem"]) == 1
    assert capsys.readouterr().err == (
        "witness: D1 D2 D1 = D1 at koszul: 0 != T1 (x) T1 T2 + T1 T2 (x) T1\n")


def test_check_module_failure(tmp_path, capsys):
    # the obstruction of T1 is 1 + T2, which acts as 1, but T1 acts as 0
    path = tmp_path / "module.json"
    path.write_text(json.dumps({
        "n": 2, "module_dim": 1, "e_algebra": "obstruction",
        "action": {"1": [["1"]], "T1": [["0"]], "T2": [["0"]]}}))
    assert main(["check", "module", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ("regular module law: false\n"
                            "  first failure at word T1 basis index 0\n")
    assert captured.err == "witness: regular module at (T1, 0): (1) != (0)\n"


def test_check_module_file(tmp_path, capsys):
    from rga.algebra import N2_BASIS, Subspace, left_mul_matrix
    sys2 = RewriteSystem(2)
    space = Subspace("A", N2_BASIS)
    action = {}
    for w in N2_BASIS:
        m = left_mul_matrix(Element.from_word(sys2, w), space, space)
        action[w.to_text()] = [[str(x) for x in row] for row in m.rows]
    doc = {"n": 2, "module_dim": 5, "action": action,
           "e_algebra": "identity", "e_module": "identity"}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, ["check", "module", str(path)])
    assert (code, out) == (0, "regular module law: true\n")


def test_wick_eval(capsys):
    code, out = run(capsys, ["wick", "eval", "(1 (x) X1) (T1 (x) 1)"])
    assert (code, out) == (0, "1 (x) 1 - T1 (x) X1\n")
    code, out = run(capsys, ["wick", "eval", "X1 T1 T2"])
    assert (code, out) == (0, "T2 (x) 1 - T1 T2 (x) X1\n")


def test_wick_eval_idem_vacuum(capsys):
    code, out = run(capsys, ["wick", "eval", "X1 T1", "--vacuum", "idem"])
    assert (code, out) == (0, "-T1 (x) X1 + T1 T2 (x) 1\n")


def test_wick_coherence(capsys):
    code, out = run(capsys, ["wick", "coherence", "--max-deg", "2"])
    assert code == 1
    assert out.startswith("coherent: false (instances: 170, "
                          "order coherent: true")


def test_wick_coherence_witness_on_stderr(capsys):
    assert main(["wick", "coherence", "--max-deg", "2"]) == 1
    assert capsys.readouterr().err == (
        "witness: law1[reduction] at X1 (x) T1.T2 T1: T1 (x) X1 - T1 T2 (x) 1 "
        "+ T2 T1 (x) 1 != 1 (x) 1 - T1 (x) X1\n")


@pytest.mark.parametrize("max_deg, instances", [(0, 2), (1, 30)])
def test_wick_coherence_low_degrees(capsys, max_deg, instances):
    # the first disagreement, at X1 (x) T1.T2 T1, needs a word of degree 2
    assert run(capsys, ["wick", "coherence", "--max-deg", str(max_deg)]) \
        == (0, f"coherent: true (instances: {instances})\n")


def test_dual_delta(capsys):
    code, out = run(capsys, ["dual", "delta"])
    assert code == 0
    assert out.splitlines()[0] == "Delta(1) = 1 (x) 1"
    assert "Delta(X1) = 1 (x) X1 + X1 (x) 1 + X1 (x) X1 X2 " \
           "+ X2 X1 (x) X1" in out


def test_report_all(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code, out = run(capsys, ["report", "--all", "--out", str(out_dir)])
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["bialgebra.txt", "confluence.txt",
                     "dual_comultiplication.txt", "grading.txt",
                     "psi_coherence.txt", "representation.txt",
                     "wick_regular.txt", "zero_divisor.txt"]


def test_deterministic_stdout(capsys):
    rng = Random(71)
    sys2 = RewriteSystem(2)
    for _ in range(25):
        text = str(rand_element(rng, sys2))
        first = run(capsys, ["eval", "-n", "2", text])
        second = run(capsys, ["eval", "-n", "2", text])
        assert first == second
        # and the output is the canonical form, so it round-trips
        code, out = run(capsys, ["eval", "-n", "2", first[1].strip()])
        assert out == first[1]


# -- malformed documents are refused with exit 2 ---------------------------------

TWO_SPACES = [{"name": "X1", "basis": ["u"]}, {"name": "X2", "basis": ["v"]}]
BACK = {"from": "X2", "to": "X1", "matrix": [["1"]]}


def check_document(tmp_path, capsys, text, checker="cocycle"):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out = run(capsys, ["check", checker, str(path)])
    return code, out.replace(str(path), "doc.json")


def refused(tmp_path, capsys, argv):
    code, out = run(capsys, argv)
    return code, out.replace(str(tmp_path), "tmp")


def test_check_cocycle_missing_file(tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    assert refused(tmp_path, capsys, ["check", "cocycle", path]) == (
        2, "error: tmp/missing.json: $: cannot read (No such file or "
           "directory)\n")


def test_check_cocycle_directory(tmp_path, capsys):
    assert refused(tmp_path, capsys, ["check", "cocycle", str(tmp_path)]) \
        == (2, "error: tmp: $: cannot read (Is a directory)\n")


def test_check_cocycle_not_utf8(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{}")
    assert refused(tmp_path, capsys, ["check", "cocycle", str(path)]) == (
        2, "error: tmp/doc.json: $: not UTF-8 ('utf-8' codec can't decode "
           "byte 0xff in position 0: invalid start byte)\n")


def test_report_out_under_a_file(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "reports")
    assert refused(tmp_path, capsys, ["report", "--all", "--out", out]) == (
        2, "error: tmp/file/reports: cannot write (Not a directory)\n")


def test_check_cocycle_numeric_entry(tmp_path, capsys):
    doc = {"spaces": TWO_SPACES,
           "maps": [{"from": "X1", "to": "X2", "matrix": [[1]]}, BACK]}
    assert check_document(tmp_path, capsys, json.dumps(doc)) == (
        2, "error: doc.json: $.maps[0].matrix[0][0]: expected a string, "
           "got 1\n")


def test_check_cocycle_top_level_list(tmp_path, capsys):
    doc = [{"spaces": TWO_SPACES, "maps": []}]
    assert check_document(tmp_path, capsys, json.dumps(doc)) == (
        2, "error: doc.json: $: expected an object, got a list\n")


def test_check_cocycle_invalid_json(tmp_path, capsys):
    assert check_document(tmp_path, capsys, '{"spaces": [') == (
        2, "error: doc.json: $: invalid JSON (Expecting value: line 1 "
           "column 13 (char 12))\n")


def test_check_cocycle_unknown_space(tmp_path, capsys):
    doc = {"spaces": TWO_SPACES,
           "maps": [{"from": "X9", "to": "X2", "matrix": [["1"]]}, BACK]}
    assert check_document(tmp_path, capsys, json.dumps(doc)) == (
        2, "error: doc.json: $.maps[0].from: unknown space 'X9'\n")


def test_check_cocycle_map_to_wrong_space(tmp_path, capsys):
    doc = {"spaces": TWO_SPACES,
           "maps": [{"from": "X1", "to": "X1", "matrix": [["1"]]}, BACK]}
    assert check_document(tmp_path, capsys, json.dumps(doc)) == (
        2, "error: doc.json: $.maps[0].to: expected space 'X2' after 'X1', "
           "got 'X1'\n")


def test_check_cocycle_no_spaces(tmp_path, capsys):
    doc = {"spaces": [], "maps": []}
    assert check_document(tmp_path, capsys, json.dumps(doc)) == (
        2, "error: doc.json: $.spaces: expected at least one space\n")


# X1 -> X2 is 1x0 and X2 -> X1 is 0x1, whose document has no rows
EMPTY_X1 = {"spaces": [{"name": "X1", "basis": []}, TWO_SPACES[1]],
            "maps": [{"from": "X1", "to": "X2", "matrix": [[]]},
                     {"from": "X2", "to": "X1", "matrix": []}]}
# n = 1: the one map is its own cycle composite
ONE_SPACE = {"spaces": TWO_SPACES[:1],
             "maps": [{"from": "X1", "to": "X1", "matrix": [["1"]]}]}


def test_check_cocycle_zero_dimensional_space(tmp_path, capsys):
    assert check_document(tmp_path, capsys, json.dumps(EMPTY_X1)) == (
        0, "regular cocycle: true\n")


def test_check_cocycle_one_space(tmp_path, capsys):
    assert check_document(tmp_path, capsys, json.dumps(ONE_SPACE)) == (
        0, "regular cocycle: true\n")


def test_check_cocycle_duplicate_map(tmp_path, capsys):
    doc = {"spaces": TWO_SPACES,
           "maps": [{"from": "X1", "to": "X2", "matrix": [["1"]]},
                    {"from": "X1", "to": "X2", "matrix": [["0"]]}, BACK]}
    assert check_document(tmp_path, capsys, json.dumps(doc)) == (
        2, "error: doc.json: $.maps[1].from: second map from 'X1'\n")


@pytest.mark.parametrize("spaces, out", [
    ([TWO_SPACES[0], {"name": "X1", "basis": ["v"]}],
     "$.spaces[1].name: duplicate space 'X1'"),
    ([{"name": "X1", "basis": ["u", "u"]}, TWO_SPACES[1]],
     "$.spaces[0].basis: duplicate basis entries in X1"),
], ids=["space", "basis-entry"])
def test_check_cocycle_duplicate_name(tmp_path, capsys, spaces, out):
    doc = {"spaces": spaces, "maps": []}
    assert check_document(tmp_path, capsys, json.dumps(doc)) == (
        2, f"error: doc.json: {out}\n")


MODULE = {"n": 2, "module_dim": 1, "action": {"1": [["1"]]},
          "e_algebra": "identity", "e_module": "identity"}


def check_module(tmp_path, capsys, **changes):
    doc = {k: v for k, v in {**MODULE, **changes}.items() if v is not None}
    return check_document(tmp_path, capsys, json.dumps(doc), "module")


def check_functor(tmp_path, capsys, base_change, cocycle=None):
    if cocycle is None:
        cocycle = cocycle_to_json(cocycle_from_algebra(RewriteSystem(2), 2)[0])
    doc = {"cocycle": cocycle, "base_change": base_change}
    return check_document(tmp_path, capsys, json.dumps(doc), "functor")


def test_check_module_missing_field(tmp_path, capsys):
    assert check_module(tmp_path, capsys, action=None) == (
        2, "error: doc.json: $: missing field 'action'\n")
    assert check_module(tmp_path, capsys, module_dim=None) == (
        2, "error: doc.json: $: missing field 'module_dim'\n")


def test_check_module_non_integer_field(tmp_path, capsys):
    assert check_module(tmp_path, capsys, n="x") == (
        2, "error: doc.json: $.n: expected an integer, got a string\n")
    assert check_module(tmp_path, capsys, module_dim="1") == (
        2, "error: doc.json: $.module_dim: expected an integer, "
           "got a string\n")


def test_check_module_unknown_e_algebra(tmp_path, capsys):
    assert check_module(tmp_path, capsys, e_algebra="bogus") == (
        2, "error: doc.json: $.e_algebra: expected 'obstruction' or "
           "'identity', got 'bogus'\n")


def test_check_module_e_module_wrong_size(tmp_path, capsys):
    e_module = [["1", "0"], ["0", "1"]]
    assert check_module(tmp_path, capsys, e_module=e_module) == (
        2, "error: doc.json: $.e_module: expected a 1x1 matrix, got 2x2\n")


def test_check_module_action_missing_word(tmp_path, capsys):
    # the obstruction of T1 is 1 + T2, so the action must also give 1 and T2
    action = {"T1": [["1"]]}
    assert check_module(tmp_path, capsys, action=action,
                        e_algebra="obstruction") == (
        2, "error: doc.json: $.action.1: missing: the obstruction of T1 "
           "needs this word\n")


def test_check_module_action_word_named_twice(tmp_path, capsys):
    action = {"1": [["1"]], "T1": [["1"]], "1 T1": [["0"]]}
    assert check_module(tmp_path, capsys, action=action) == (
        2, "error: doc.json: $.action.1 T1: names the word T1 a second "
           "time\n")


@pytest.mark.parametrize("changes, out", [
    ({"module_dim": -1}, "$.module_dim: must be >= 0, got -1"),
    # the default e_algebra is the obstruction map
    ({"n": 3, "e_algebra": None},
     "$.e_algebra: 'obstruction' needs n = 2, got n = 3"),
    ({"action": {"2 T1": [["1"]]}}, "$.action.2 T1: not a basis word"),
], ids=["negative-dimension", "obstruction-n3", "not-a-basis-word"])
def test_check_module_refused(tmp_path, capsys, changes, out):
    assert check_module(tmp_path, capsys, **changes) == (
        2, f"error: doc.json: {out}\n")


@pytest.mark.parametrize("cocycle, base_change", [
    (ONE_SPACE, {"X1": [["w"]]}),
    (EMPTY_X1, {"X1": [], "X2": [["1"]]}),
], ids=["one-space", "empty-X1"])
def test_check_functor_at_the_chain_edges(tmp_path, capsys, cocycle,
                                          base_change):
    assert check_functor(tmp_path, capsys, base_change, cocycle) == (
        0, "obstructed functor: true\n")


def test_check_functor_missing_base_change_label(tmp_path, capsys):
    base_change = {"X2": [["1", "0"], ["1", "1"]]}
    assert check_functor(tmp_path, capsys, base_change) == (
        2, "error: doc.json: $.base_change: missing field 'X1'\n")


def test_check_functor_unknown_base_change_label(tmp_path, capsys):
    base_change = {"X1": [["1", "0"], ["0", "1"]],
                   "X2": [["1", "0"], ["0", "1"]], "X9": [["1"]]}
    assert check_functor(tmp_path, capsys, base_change) == (
        2, "error: doc.json: $.base_change.X9: unknown space 'X9'\n")


def test_check_functor_map_to_wrong_space(tmp_path, capsys):
    cocycle = {"spaces": TWO_SPACES,
               "maps": [{"from": "X1", "to": "X2", "matrix": [["1"]]},
                        {"from": "X2", "to": "X2", "matrix": [["1"]]}]}
    base_change = {"X1": [["1"]], "X2": [["1"]]}
    assert check_functor(tmp_path, capsys, base_change, cocycle) == (
        2, "error: doc.json: $.cocycle.maps[1].to: expected space 'X1' "
           "after 'X2', got 'X2'\n")


def test_check_functor_non_square_base_change(tmp_path, capsys):
    base_change = {"X1": [["1", "1", "0"], ["0", "1", "0"]],
                   "X2": [["1", "0"], ["1", "1"]]}
    assert check_functor(tmp_path, capsys, base_change) == (
        2, "error: doc.json: $.base_change.X1: expected a 2x2 matrix, "
           "got 2x3\n")


def test_check_cocycle_singular_pairing(tmp_path, capsys):
    doc = {"spaces": TWO_SPACES,
           "maps": [{"from": "X1", "to": "X2", "matrix": [["1"]]}, BACK],
           "pairings": {"X1": [["0"]], "X2": [["1"]]}}
    assert check_document(tmp_path, capsys, json.dumps(doc)) == (
        2, "error: doc.json: $.pairings.X1: singular matrix\n")


def test_check_functor_singular_base_change(tmp_path, capsys):
    base_change = {"X1": [["1", "w"], ["0", "1"]],
                   "X2": [["1", "1"], ["2", "2"]]}
    assert check_functor(tmp_path, capsys, base_change) == (
        2, "error: doc.json: $.base_change.X2: singular matrix\n")


@pytest.mark.parametrize("argv, out", [
    (["eval", "-n", "1", "T1 T1"], "0\n"),
    (["nf", "-n", "1", "1 1 1"], "0\n")], ids=["eval", "nf"])
def test_n1_answer_flagged_on_stderr(capsys, argv, out):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == ("note: n = 1 is not confluent; the answer is "
                            "the leftmost normal form\n")


def test_no_n1_note_for_confluent_systems(capsys):
    assert main(["nf", "-n", "2", "1 2 1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["decompose", "-n", "2"],
                                  ["wick", "coherence"]],
                         ids=["decompose", "wick-coherence"])
def test_negative_max_deg_exit_2(capsys, argv):
    assert run(capsys, argv + ["--max-deg", "-1"]) == (
        2, "error: --max-deg must be >= 0, got -1\n")


@pytest.fixture
def nothing_built(monkeypatch):
    """Fail the test if a rewrite system or an enumeration is entered."""
    def refuse(*args, **kwargs):
        raise AssertionError("entered past a size ceiling")
    monkeypatch.setattr(RewriteSystem, "__init__", refuse)
    monkeypatch.setattr(RewriteSystem, "enumerate_normal_forms", refuse)


def first_degree_above_ceiling(n):
    """The least degree up to which more than MAX_WORDS words have no two
    equal adjacent letters (n(n-1)^(k-1) of each length k >= 1)."""
    d, words, length_d = 0, 1, 1
    while words <= MAX_WORDS:
        d += 1
        length_d = n if d == 1 else length_d * (n - 1)
        words += length_d
    return d


@pytest.mark.parametrize("argv", [["eval", "-n", "{n}", "T1"],
                                  ["nf", "-n", "{n}", "1"],
                                  ["confluence", "-n", "{n}"],
                                  ["decompose", "-n", "{n}", "--max-deg", "1"]],
                         ids=["eval", "nf", "confluence", "decompose"])
def test_generator_ceiling_exit_2(capsys, nothing_built, argv):
    n = MAX_GENERATORS + 1
    assert run(capsys, [a.format(n=n) for a in argv]) == (
        2, f"error: generator count must be <= {MAX_GENERATORS}, got {n}\n")


@pytest.mark.parametrize("n, argv", [(4, ["decompose", "-n", "4"]),
                                     (2, ["wick", "coherence"])],
                         ids=["decompose", "wick-coherence"])
def test_degree_ceiling_exit_2(capsys, nothing_built, n, argv):
    d = first_degree_above_ceiling(n)
    assert run(capsys, argv + ["--max-deg", str(d)]) == (
        2, f"error: degree {d} is above the ceiling for n={n} "
           f"(more than {MAX_WORDS} words to list)\n")


def test_check_module_generator_ceiling(tmp_path, capsys, nothing_built):
    n = MAX_GENERATORS + 1
    assert check_module(tmp_path, capsys, n=n) == (
        2, f"error: doc.json: $.n: must be in 1..{MAX_GENERATORS}, "
           f"got {n}\n")


# -- digits that int() refuses are bad input, not a crash -------------------------

SUPERSCRIPT_TWO_COCYCLE = {"spaces": TWO_SPACES, "maps": [
    {"from": "X1", "to": "X2", "matrix": [["²"]]}, BACK]}


@pytest.mark.parametrize("argv, doc", [
    (["eval", "-n", "2", "T²"], None),
    (["nf", "-n", "2", "1 ²"], None),
    (["wick", "eval", "X² T1"], None),
    (["check", "cocycle"], SUPERSCRIPT_TWO_COCYCLE),
    (["check", "module"], {**MODULE, "action": {"T²": [["1"]]}}),
], ids=["eval", "nf", "wick-eval", "check-cocycle", "check-module"])
def test_non_decimal_digit_exit_2(tmp_path, capsys, argv, doc):
    # str.isdigit accepts a superscript two, which int() refuses
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = argv + [str(path)]
    code, out = run(capsys, argv)
    assert code == 2
    assert out.startswith("error: ") and out.count("\n") == 1


# -- input nested deeper than the parser or json.load follows -------------------


@pytest.mark.parametrize("argv, inner, out", [
    (["eval", "-n", "2"], "T1 T2 T1", "T1\n"),
    (["wick", "eval"], "X1 T1", "1 (x) 1 - T1 (x) X1\n"),
], ids=["eval", "wick-eval"])
def test_deep_parentheses_exit_2(capsys, argv, inner, out):
    # exactly the bound still parses, under pytest's deeper stack too
    assert run(capsys, argv + [nested(MAX_NESTING, inner)]) == (0, out)
    assert run(capsys, argv + [nested(2000, inner)]) == (
        2, f"error: parentheses nested deeper than {MAX_NESTING} at "
           f"position {MAX_NESTING}\n")


def test_deep_parentheses_in_a_module_word_exit_2(tmp_path, capsys):
    word = nested(2000, "1")
    code, out = check_module(tmp_path, capsys, action={word: [["1"]]})
    assert code == 2
    assert out.startswith(f"error: doc.json: $.action.{word}: ") \
        and out.count("\n") == 1


@pytest.mark.parametrize("checker", ["cocycle", "functor", "module"])
@pytest.mark.parametrize("text", ["[" * 1000 + "]" * 1000,
                                  '{"n": ' * 1000 + "1" + "}" * 1000,
                                  "[" * 100_000],
                         ids=["lists", "objects", "unclosed-100000"])
def test_deeply_nested_document_exit_2(tmp_path, capsys, checker, text):
    assert check_document(tmp_path, capsys, text, checker) == (
        2, "error: doc.json: $: nested too deeply\n")


# -- one parser tree per process ---------------------------------------------------


def test_parser_built_once_per_process(monkeypatch, capsys):
    trees = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        if kwargs.get("prog") == "rga":
            trees.append(self)
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for argv in (["eval", "-n", "2", "T1"], ["nf", "-n", "2", "1 2"],
                 ["obstruction", "-n", "2", "T1"], ["wick", "eval", "X1"],
                 ["confluence", "-n", "2"]):
        assert main(argv) == 0
    assert len(trees) == 1


# Calls whose answers the tests above pin, and the calls a shared parser
# could get wrong: a usage error that leaves mid-parse, help text, a parse
# error, an option default after a call that set it, and an option left
# out after a call that gave it.  "{tmp}" is the directory of the documents.
SHARED_PARSER_POOL = [
    ["eval", "-n", "2", "T1 T2 T1"],
    ["eval", "-n", "2", "T1 +"],
    ["eval", "-n", "2", "T5"],
    ["eval", "-n", "0", "T1"],
    ["eval", "-n", "1", "T1 T1"],
    ["eval", "--help"],
    ["frobnicate"],
    ["nf", "-n", "3", "1 2 3 1 2"],
    ["nf", "-n", "2", "1 1"],
    ["nf", "-n", "1", "1 1 1"],
    ["nf", "-n", "2", "1 \u00b2"],
    ["invert", "-n", "2", "T1"],
    ["invert", "-n", "2", "1 + T1"],
    ["annihilate", "-n", "2", "--side", "right", "T1"],
    ["annihilate", "-n", "2", "--side", "right", "1"],
    ["obstruction", "-n", "2", "T1"],
    ["idempotents", "-n", "2"],
    ["confluence", "-n", "2"],
    ["confluence", "-n", "1"],
    ["decompose", "-n", "2", "--max-deg", "2"],
    ["decompose", "-n", "2", "--max-deg", "-1"],
    ["check", "cocycle", "{tmp}/cocycle.json"],
    ["check", "cocycle", "{tmp}/missing.json"],
    ["check", "functor", "{tmp}/functor.json"],
    ["check", "module", "{tmp}/module.json"],
    ["check", "bialgebra", "-n", "2", "--signs", "koszul", "--evacuum",
     "idem"],
    ["wick", "eval", "X1 T1", "--vacuum", "idem"],
    ["wick", "eval", "X1 T1"],
    ["wick", "eval", "(1 (x) X1) (T1 (x) 1)"],
    ["wick", "eval", "X1 T1 T2"],
    ["wick", "coherence", "--max-deg", "2"],
    ["dual", "delta"],
    ["report", "--all", "--out", "{tmp}/out"],
    ["report", "--all"],
]
WICK_IDEM = SHARED_PARSER_POOL.index(["wick", "eval", "X1 T1", "--vacuum",
                                      "idem"])


def answer(argv, where):
    """(exit code, stdout) of one in-process call run in `where`; the code of
    a usage error is that of its SystemExit."""
    out, here = io.StringIO(), os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(here)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def shared_parser_pool(tmp_path_factory):
    """The pool with "{tmp}" filled in, and each call's answer from a
    freshly built parser."""
    tmp = tmp_path_factory.mktemp("pool")
    c, _ = cocycle_from_algebra(RewriteSystem(2), 2)
    (tmp / "cocycle.json").write_text(json.dumps(cocycle_to_json(c)))
    (tmp / "functor.json").write_text(json.dumps({
        "cocycle": cocycle_to_json(c),
        "base_change": {"X1": [["1", "1"], ["0", "1"]],
                        "X2": [["1", "0"], ["1", "1"]]}}))
    (tmp / "module.json").write_text(json.dumps(MODULE))
    pool = [[a.format(tmp=tmp) for a in argv] for argv in SHARED_PARSER_POOL]
    fresh = []
    for argv in pool:
        cli._build_parser.cache_clear()
        fresh.append(answer(argv, tmp))
    return tmp, pool, fresh


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, len(SHARED_PARSER_POOL) - 1), min_size=1,
                max_size=6))
@example([WICK_IDEM, WICK_IDEM + 1])  # --vacuum set, then its default
def test_shared_parser_answers_as_a_fresh_one(shared_parser_pool, picks):
    tmp, pool, fresh = shared_parser_pool
    cli._build_parser.cache_clear()
    for k in picks:
        assert answer(pool[k], tmp) == fresh[k], pool[k]
    assert cli._build_parser.cache_info().misses == 1


# -- integers past the interpreter's int/str digit limit ------------------------
# A literal longer than the interpreter converts is bad input, refused at
# its position or JSON path; an answer with longer integers prints in full.

ONES, NINES = "1" * 5000, "9" * 3000  # 10**3000 - 1 is within the limit
NINES_SQUARED = "9" * 2999 + "8" + "0" * 2999 + "1"
NINES_CUBED = "9" * 2999 + "7" + "0" * 2999 + "2" + "9" * 3000


@pytest.mark.parametrize("argv, pos", [
    (["eval", "-n", "2", f"{ONES} T1"], 0),
    (["eval", "-n", "2", f"T{ONES}"], 1),
    (["nf", "-n", "2", f"1 {'2' * 5000}"], 2),
], ids=["eval-number", "eval-generator-index", "nf-letter"])
def test_overlong_literal_refused(capsys, digit_limit, argv, pos):
    assert run(capsys, argv) == (
        2, f"error: number longer than 4300 digits at position {pos}\n")


def test_overlong_matrix_entry_refused(tmp_path, capsys, digit_limit):
    doc = {"spaces": TWO_SPACES,
           "maps": [{"from": "X1", "to": "X2", "matrix": [[ONES]]}, BACK]}
    assert check_document(tmp_path, capsys, json.dumps(doc)) == (
        2, "error: doc.json: $.maps[0].matrix[0][0]: number longer than "
           "4300 digits at position 0\n")


@pytest.mark.parametrize("field", ["n", "module_dim"])
def test_overlong_json_integer_refused(tmp_path, capsys, digit_limit, field):
    # `json` itself cannot convert it, so the document holds it as text
    text = json.dumps({**MODULE, field: 0}).replace(f'"{field}": 0',
                                                    f'"{field}": {ONES}')
    assert check_document(tmp_path, capsys, text, "module") == (
        2, f"error: doc.json: $.{field}: number longer than 4300 digits\n")


@pytest.mark.parametrize("argv, out", [
    (["eval", "-n", "2", f"({NINES}) ({NINES}) T1"], f"{NINES_SQUARED} T1"),
    # 1 + c T1 has the inverse 1 - c T1
    (["invert", "-n", "2", f"1 + ({NINES}) ({NINES}) T1"],
     f"1 - {NINES_SQUARED} T1"),
], ids=["eval", "invert"])
def test_answer_past_the_digit_limit_is_exact(capsys, digit_limit, argv, out):
    assert run(capsys, argv) == (0, out + "\n")


def test_cocycle_witness_past_the_digit_limit_is_exact(tmp_path, capsys,
                                                       digit_limit):
    doc = {"spaces": TWO_SPACES,
           "maps": [{"from": "X1", "to": "X2", "matrix": [[NINES]]},
                    {"from": "X2", "to": "X1", "matrix": [[NINES]]}]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "cocycle", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "regular cocycle: false (fails at index 1)\n"
    assert captured.err == (f"witness: regularity at 1: X1->X2Matrix"
                            f"[{NINES_CUBED}] != X1->X2Matrix[{NINES}]\n")
