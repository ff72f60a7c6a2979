import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import rackwork as rw
from rackwork import cli, fileio, matseries
from rackwork.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def s3_file(tmp_path, s3_group):
    path = tmp_path / "s3.json"
    fileio.save_group(str(path), s3_group,
                      labels=["id", "(12)", "(13)", "(23)", "(123)", "(132)"])
    return str(path)


@pytest.fixture()
def conj_file(tmp_path, capsys, s3_file):
    out = str(tmp_path / "conj.json")
    code, _, _ = run(capsys, "make", "conj", "--group", s3_file, "--out", out)
    assert code == 0
    return out


class TestMake:
    def test_trivial(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        code, text, _ = run(capsys, "make", "trivial", "--n", "3",
                            "--out", out)
        assert code == 0
        assert "rack" in text
        s, _ = fileio.load_structure(out)
        assert s == rw.trivial_rack(3)

    def test_json_after_the_subkind(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        code, text, _ = run(capsys, "make", "trivial", "--json", "--n", "2",
                            "--out", out)
        assert code == 0
        assert json.loads(text)["data"] == {"kind": "rack", "n": 2, "out": out}

    @pytest.mark.parametrize("flag", ["--json", "--all-witnesses"])
    def test_common_flags_before_the_subkind_are_exit_2(self, tmp_path, capsys,
                                                         flag):
        out = tmp_path / "t.json"
        code, text, err = run(capsys, "make", flag, "trivial", "--n", "2",
                              "--out", str(out))
        assert (code, text) == (2, "")
        assert f"unrecognized arguments: {flag}" in err
        assert not out.exists()

    def test_conj_from_group_file(self, conj_file, conj_s3):
        s, labels = fileio.load_structure(conj_file)
        assert s == conj_s3
        assert labels is not None  # propagated from the group file

    def test_boolean(self, tmp_path, capsys):
        out = str(tmp_path / "b.json")
        code, _, _ = run(capsys, "make", "boolean", "--atoms", "2",
                         "--variant", "lattice", "--out", out)
        assert code == 0
        assert fileio.load_structure(out)[0] == \
            rw.boolean_weak_rack_lattice(2)

    def test_dual_and_product(self, tmp_path, capsys, conj_file):
        for sub in ("dual", "product-dual"):
            out = str(tmp_path / f"{sub}.json")
            code, _, _ = run(capsys, "make", sub, conj_file, "--out", out)
            assert code == 0
        conj, _ = fileio.load_structure(conj_file)
        dual, _ = fileio.load_structure(str(tmp_path / "dual.json"))
        assert dual == rw.dual_rack(conj)
        box, labels = fileio.load_structure(str(tmp_path / "product-dual.json"))
        assert box == rw.product_with_dual(conj)
        assert labels and labels[7] == "((12),(12))"

    def test_product_dual_witness_is_the_products(self, tmp_path, capsys,
                                                  conj_s3):
        # a rack-tagged file with two dot entries swapped: the product is
        # verified as a whole, so the witness lies on the pair carrier
        dot = conj_s3.dot.tolist()
        dot[0][0], dot[0][1] = dot[0][1], dot[0][0]
        path = tmp_path / "mistagged.json"
        path.write_text(json.dumps({"kind": "rack", "n": 6, "dot": dot,
                                    "diamond": conj_s3.diamond.tolist()}))
        code, out, err = run(capsys, "make", "product-dual", str(path))
        assert (code, out) == (1, "")
        assert err == ("verification failed: claimed rack violates "
                       "'a(bc) = (ab)(ac)' at (0, 0, 0)\n")

    @pytest.mark.parametrize("argv, line", [
        (["trivial", "--n", str(2 ** 40)],
         "carrier n = 1099511627776 exceeds cap"),
        (["product-dual", "FILE"], "carrier 17 x 17 = 289 exceeds cap"),
    ], ids=["trivial", "product-dual"])
    def test_carrier_cap_is_exit_2(self, tmp_path, capsys, monkeypatch,
                                   argv, line):
        monkeypatch.delenv("RACKWORK_MAX_N", raising=False)
        path = tmp_path / "t17.json"
        fileio.save_structure(str(path), rw.trivial_rack(17))
        argv = [str(path) if a == "FILE" else a for a in argv]
        code, out, err = run(capsys, "make", *argv)
        assert (code, out, err) == (2, "", f"error: {line}\n")

    def test_trig_derived(self, tmp_path, capsys, conj_file):
        out = str(tmp_path / "d.json")
        code, _, _ = run(capsys, "make", "trig-derived", conj_file,
                         "--e", "1", "--o", "4", "--out", out)
        assert code == 0
        assert fileio.load_structure(out)[0].kind == rw.RACK

    def test_stdout_mode_emits_file_body(self, capsys):
        code, text, err = run(capsys, "make", "trivial", "--n", "2")
        assert code == 0
        doc = json.loads(text)
        assert doc["kind"] == "rack"
        assert "verified" in err

    def test_unwritable_out_is_exit_2(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.json"
        code, text, err = run(capsys, "make", "trivial", "--n", "2",
                              "--out", str(out))
        assert (code, text) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err
        assert list(tmp_path.iterdir()) == []

    def test_non_group_file_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "notgroup.json"
        path.write_text(json.dumps({"n": 2, "mul": [[0, 0], [0, 0]]}))
        code, _, err = run(capsys, "make", "conj", "--group", str(path),
                           "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "error" in err

    def test_bad_group_labels_name_the_file(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 1, "mul": [[0]],
                                    "labels": ["a", "b", "c"]}))
        code, text, err = run(capsys, "make", "conj", "--group", str(path),
                              "--out", str(tmp_path / "x.json"))
        assert (code, text) == (2, "")
        assert err == f"error: {path}: labels must be 1 strings\n"

    def test_trig_derived_over_weak_rack_with_inverse_cos_and_sin(
            self, tmp_path, capsys):
        # dot = diamond = min: cos and sin at e = 1 are the identity, at
        # e = 0 they are constant
        path = tmp_path / "min.json"
        path.write_text(json.dumps({"kind": "weak_rack", "n": 2,
                                    "dot": [[0, 0], [0, 1]],
                                    "diamond": [[0, 0], [0, 1]]}))
        out = tmp_path / "d.json"
        code, _, _ = run(capsys, "make", "trig-derived", str(path),
                         "--e", "1", "--o", "0", "--out", str(out))
        assert code == 0
        assert fileio.load_structure(str(out))[0] == rw.trivial_rack(2)
        code, text, err = run(capsys, "make", "trig-derived", str(path),
                              "--e", "0", "--o", "0",
                              "--out", str(tmp_path / "e.json"))
        assert (code, text, err) == (
            1, "", "verification failed: claimed rack violates "
                   "'(ab) diamond a = b' at (0, 1)\n")

    def test_trig_derived_over_weak_rack_is_exit_1(self, tmp_path, capsys):
        b = str(tmp_path / "b.json")
        assert run(capsys, "make", "boolean", "--atoms", "1",
                   "--variant", "lattice", "--out", b)[0] == 0
        code, _, err = run(capsys, "make", "trig-derived", b,
                           "--e", "1", "--o", "0",
                           "--out", str(tmp_path / "y.json"))
        assert code == 1
        assert "verification failed" in err


class TestCheck:
    def test_valid_rack(self, capsys, conj_file):
        code, text, _ = run(capsys, "check", conj_file)
        assert code == 0
        assert "result: PASS" in text

    def test_valid_weak_rack(self, tmp_path, capsys):
        path = str(tmp_path / "b.json")
        fileio.save_structure(path, rw.boolean_weak_rack_implication(2))
        code, text, _ = run(capsys, "check", path)
        assert code == 0
        assert "kind = weak_rack\n" in text
        assert "[pass] weak-rack axioms\n" in text
        assert "result: PASS" in text

    def test_broken_axiom_is_exit_1_with_witness(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "kind": "rack",
            "n": 2,
            "dot": [[0, 0], [0, 0]],
            "diamond": [[0, 0], [0, 0]],
        }))
        code, text, _ = run(capsys, "check", str(path))
        assert code == 1
        assert "witness" in text

    def test_truncated_file_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"kind": "rack", "n":')
        code, _, err = run(capsys, "check", str(path))
        assert code == 2

    def test_boolean_table_entries_are_exit_2(self, tmp_path, capsys):
        # the two-point swap rack ab = 1 - b, written with true/false
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({
            "kind": "rack",
            "n": 2,
            "dot": [[True, False], [True, False]],
            "diamond": [[True, True], [False, False]],
        }))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "integers" in err

    def test_unchecked_kind_classifies(self, tmp_path, capsys):
        s = rw.boolean_weak_rack_implication(1)
        path = tmp_path / "u.json"
        path.write_text(fileio.structure_to_json(
            rw.Structure(s.n, s.dot, s.diamond, rw.UNCHECKED)))
        code, text, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "weak_rack" in text

    @pytest.mark.parametrize("kind", ["rack", "weak_rack", "neither", "compat"])
    def test_unchecked_kind_scans_each_triple_law_once(
            self, tmp_path, capsys, monkeypatch, conj_s3, kind):
        from rackwork import structures
        if kind == "rack":
            dot, diamond = conj_s3.dot, conj_s3.diamond
        elif kind == "weak_rack":
            b = rw.boolean_weak_rack_implication(2)
            dot, diamond = b.dot, b.diamond
        elif kind == "neither":  # a + b mod 3 breaks both distributivities
            dot = diamond = rw.make_op_table(
                3, [(a + b) % 3 for a in range(3) for b in range(3)])
        else:  # or / xor: self-distributive, only the compatibility fails
            dot = rw.make_op_table(2, [0, 1, 1, 1])
            diamond = rw.make_op_table(2, [0, 1, 1, 0])
        s = rw.Structure(dot.n, dot, diamond, rw.UNCHECKED)
        path = tmp_path / "u.json"
        path.write_text(fileio.structure_to_json(s))
        # the verdict and witnesses of the two full reports
        rack_rep, weak_rep = rw.check_rack_axioms(s), rw.check_weak_rack_axioms(s)
        verdict = "rack" if rack_rep.passed else (
            "weak_rack" if weak_rep.passed else "neither")
        assert verdict == ("neither" if kind == "compat" else kind)

        triple_scans = []
        real_scan = structures._scan

        def spy(law, n, k, cap):
            if k == 3:
                triple_scans.append(law)
            return real_scan(law, n, k, cap)

        monkeypatch.setattr(structures, "_scan", spy)
        code, text, _ = run(capsys, "check", str(path), "--json", "--all-witnesses")
        assert len(triple_scans) == 2
        doc = json.loads(text)
        assert doc["data"]["classified"] == verdict
        assert doc["checks"] == [{
            "name": "rack or weak-rack axioms",
            "passed": verdict != "neither",
            "section": "main",
            "witnesses": [list(w) for _, w in weak_rep.failures],
        }]
        assert code == (1 if verdict == "neither" else 0)


class TestTrigEuler:
    def test_trig_conj_s3(self, capsys, conj_file):
        code, text, _ = run(capsys, "trig", conj_file, "--e", "1", "--o", "4")
        assert code == 0
        assert "pi = 5((132))" in text.replace("  ", " ")
        assert "u = 4((123))" in text.replace("  ", " ")

    def test_trig_weak_sections(self, tmp_path, capsys):
        b = str(tmp_path / "im.json")
        run(capsys, "make", "boolean", "--atoms", "2",
            "--variant", "implication", "--out", b)
        code, text, _ = run(capsys, "trig", b, "--e", "3", "--o", "0")
        assert code == 1  # sin(xy) = sin(x)sin(y) fails on this fixture
        assert "full-rack-only" in text
        assert "[FAIL] sin(xy) = sin(x)sin(y)" in text
        assert "[pass] sin(pi) = o" in text

    def test_trig_json_schema(self, capsys, conj_file):
        code, text, _ = run(capsys, "trig", conj_file, "--e", "1", "--o", "4",
                            "--json")
        assert code == 0
        doc = json.loads(text)
        assert doc["ok"] and doc["exit_code"] == 0
        assert doc["data"]["pi"].startswith("5")
        assert len(doc["checks"]) == 9
        assert all(c["passed"] for c in doc["checks"])

    def test_euler_conj_s3(self, capsys, conj_file):
        code, text, _ = run(capsys, "euler", conj_file, "--e", "1", "--o", "4")
        assert code == 0
        assert "exp_e(x,x) = (cos x, sin x)" in text
        assert "exp_e(pi,pi) = (u, o)" in text
        assert "cosh o sinh" in text

    def test_euler_trivial(self, tmp_path, capsys):
        t = str(tmp_path / "t.json")
        run(capsys, "make", "trivial", "--n", "4", "--out", t)
        code, _, _ = run(capsys, "euler", t, "--e", "2", "--o", "3")
        assert code == 0

    def test_euler_weak_identity_sectioned(self, tmp_path, capsys):
        b = str(tmp_path / "lat.json")
        run(capsys, "make", "boolean", "--atoms", "2",
            "--variant", "lattice", "--out", b)
        code, text, _ = run(capsys, "euler", b, "--e", "3", "--o", "0")
        assert code == 1  # the identity clause fails on the lattice fixture
        assert "full-rack-only" in text

    @pytest.mark.parametrize("command", ["trig", "euler"])
    def test_rack_tag_failing_cancellation_is_exit_2(self, tmp_path, capsys,
                                                     command):
        # not even a weak rack: (ab)<>a = b fails at (1, 0)
        doc = {"kind": "rack", "n": 2, "dot": [[0, 1], [0, 0]],
               "diamond": [[0, 1], [1, 0]]}
        path = tmp_path / "mistagged.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(path), "--e", "0", "--o", "0")
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: claimed rack violates "
                       "'(ab) diamond a = b' at (1, 0)\n")
        # tagged weak_rack, the same tables fail the compatibility law
        path.write_text(json.dumps(dict(doc, kind="weak_rack")))
        code, out, err = run(capsys, command, str(path), "--e", "0", "--o", "0")
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: claimed weak_rack violates "
                       "'(ab) diamond a = a(b diamond a)' at (1, 0)\n")

    @pytest.mark.parametrize("command", ["trig", "euler"])
    def test_rack_tag_failing_left_distributivity_is_exit_2(
            self, tmp_path, capsys, command):
        # cancellation holds, a(bc) = (ab)(ac) fails at (2, 1, 1)
        path = tmp_path / "mistagged.json"
        path.write_text(json.dumps({
            "kind": "rack", "n": 3,
            "dot": [[0, 1, 2], [0, 1, 2], [0, 2, 1]],
            "diamond": [[0, 0, 0], [1, 1, 2], [2, 2, 1]]}))
        code, out, err = run(capsys, command, str(path), "--e", "0", "--o", "0")
        assert (code, out, err) == (
            2, "", f"error: {path}: claimed rack violates "
                   "'a(bc) = (ab)(ac)' at (2, 1, 1)\n")
        code, out, err = run(capsys, "check", str(path))
        assert (code, err) == (1, "")
        assert "[FAIL] rack axioms  witness (2, 1, 1) (+7 more)\n" in out


class TestYbeSystem:
    def test_exp_map_passes(self, capsys, conj_file):
        code, text, _ = run(capsys, "ybe", conj_file, "--map", "exp",
                            "--e", "1")
        assert code == 0

    def test_w_and_z(self, capsys, conj_file):
        for m in ("w", "z"):
            assert run(capsys, "ybe", conj_file, "--map", m)[0] == 0

    def test_exp_requires_e(self, capsys, conj_file):
        code, out, err = run(capsys, "ybe", conj_file, "--map", "exp")
        assert (code, out, err) == (
            2, "", "error: --e is required for map 'exp'\n")

    @pytest.mark.parametrize("command", [
        ["ybe", "--map", "exp"], ["ybe", "--map", "cosh"],
        ["ybe", "--map", "sinh"], ["system"]],
        ids=["exp", "cosh", "sinh", "system"])
    def test_base_point_outside_carrier_is_exit_2(self, tmp_path, capsys,
                                                  command):
        path = str(tmp_path / "t3.json")
        assert run(capsys, "make", "trivial", "--n", "3", "--out", path)[0] == 0
        code, out, err = run(capsys, command[0], path, *command[1:], "--e", "9")
        assert (code, out, err) == (2, "", "error: 9 outside carrier 3\n")

    @pytest.mark.parametrize("argv, line", [
        ([], "a structure file or --pairmap is required"),
        (["FILE"], "--map is required with a structure file"),
    ], ids=["no-input", "no-map"])
    def test_missing_input_is_exit_2(self, capsys, conj_file, argv, line):
        argv = [conj_file if a == "FILE" else a for a in argv]
        code, out, err = run(capsys, "ybe", *argv)
        assert (code, out, err) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize("argv", [
        ["FILE"], ["--map", "w"], ["--e", "0"]], ids=["file", "map", "e"])
    def test_pairmap_with_other_input_is_exit_2(self, tmp_path, capsys,
                                                conj_file, argv):
        path = str(tmp_path / "id.json")
        fileio.save_pair_map(path, rw.PairMap(2, [[x, y] for x in range(2)
                                                  for y in range(2)]))
        assert run(capsys, "ybe", "--pairmap", path)[0] == 0
        argv = [conj_file if a == "FILE" else a for a in argv]
        code, out, err = run(capsys, "ybe", *argv, "--pairmap", path)
        assert (code, out, err) == (
            2, "", "error: --pairmap takes no structure file, --map or --e\n")

    def test_pairmap_negative_fixture(self, tmp_path, capsys):
        import numpy as np
        path = tmp_path / "xor.json"
        out = [[x ^ y, x] for x in range(2) for y in range(2)]
        fileio.save_pair_map(str(path), rw.PairMap(2, np.asarray(out)))
        code, text, _ = run(capsys, "ybe", "--pairmap", str(path))
        assert code == 1
        assert "witness (0, 1, 0)" in text  # first failure, lex order
        code, text, _ = run(capsys, "ybe", "--pairmap", str(path),
                            "--all-witnesses")
        assert code == 1
        assert "(1, 1, 0)" in text

    def test_euler_exact_on_large_carrier(self, tmp_path, capsys,
                                          conj_file):
        box = str(tmp_path / "box.json")
        assert run(capsys, "make", "product-dual", conj_file,
                   "--out", box)[0] == 0
        code, text, _ = run(capsys, "euler", box, "--e", "7", "--o", "0")
        assert code == 0
        assert "[pass] exp_e is a box-product homomorphism" in text
        assert "note:" not in text
        assert run(capsys, "euler", box, "--e", "7", "--o", "0",
                   "--seed", "5")[0] == 2

    def test_system_conj_s3(self, capsys, conj_file):
        code, text, _ = run(capsys, "system", conj_file, "--e", "1")
        assert code == 0
        for name in ("qybe_W", "qybe_X", "qybe_Z", "mixed_WXX", "mixed_XXZ"):
            assert f"[pass] {name}" in text

    def test_system_boolean(self, tmp_path, capsys):
        b = str(tmp_path / "im.json")
        run(capsys, "make", "boolean", "--atoms", "2",
            "--variant", "implication", "--out", b)
        assert run(capsys, "system", b, "--e", "3")[0] == 0


class TestMat:
    def test_hard_fixture_with_brute(self, capsys):
        code, text, _ = run(capsys, "mat", "--a", "1,-2,-1,3", "--n", "2",
                            "--brute")
        assert code == 0
        assert "153" in text and "-418" in text
        assert "-209" in text and "571" in text
        assert "265" in text
        assert "EQUALS brute-force sum" in text
        assert "unimodularity consistency" in text

    def test_shear_level_four(self, capsys):
        code, text, _ = run(capsys, "mat", "--a", "1,1,0,1", "--n", "4")
        assert code == 0
        assert "'3', '3', '3', '3'" in text
        assert "41" in text

    def test_rational_entries(self, capsys):
        code, text, _ = run(capsys, "mat", "--a", "2,0,0,1/2", "--n", "1",
                            "--brute")
        assert code == 0
        assert "7/2" in text
        assert "7/8" in text

    def test_det_not_one_is_exit_1_with_det(self, capsys):
        code, text, _ = run(capsys, "mat", "--a", "2,0,0,2", "--n", "1")
        assert code == 1
        assert "4" in text  # the offending determinant is printed

    def test_bad_matrix_is_exit_2(self, capsys):
        code, _, err = run(capsys, "mat", "--a", "1,2,3", "--n", "1")
        assert code == 2

    def test_zero_denominator_is_exit_2(self, capsys):
        code, out, err = run(capsys, "mat", "--a", "1/0,0,0,1", "--n", "1")
        assert (code, out, err) == (
            2, "", "error: bad rational in matrix: Fraction(1, 0)\n")

    @pytest.mark.parametrize("json_mode", [False, True])
    def test_brute_above_oracle_levels_is_a_note(self, capsys, json_mode):
        code, text, err = run(capsys, "mat", "--a", "1,1,0,1", "--n", "7",
                              "--brute", *(["--json"] if json_mode else []))
        assert (code, err) == (0, "")
        note = "brute oracle unavailable for levels above 6"
        if json_mode:
            doc = json.loads(text)
            assert doc["notes"] == [note]
            assert "oracle" not in doc["data"]
            assert [c["name"] for c in doc["checks"]] == [
                "det(A) = 1", "det(A^1094) = 1 (unimodularity consistency "
                "for the power matrix)"]
        else:
            assert f"note: {note}\n" in text
            assert "EQUALS brute-force sum" not in text

    def test_json_mode(self, capsys):
        code, text, _ = run(capsys, "mat", "--a", "1,-2,-1,3", "--n", "2",
                            "--brute", "--json")
        doc = json.loads(text)
        assert doc["ok"]
        assert doc["data"]["scalar"] == "265"
        assert doc["data"]["power_matrix"] == [["153", "-418"],
                                               ["-209", "571"]]

    @pytest.mark.parametrize("level", [2, 5])
    def test_power_matrix_computed_once(self, capsys, monkeypatch, level):
        a = rw.mat2(1, -2, -1, 3)
        power = rw.mat_pow(a, (3 ** level + 1) // 2)
        calls = []
        real_mat_pow = matseries.mat_pow

        def spy(x, k):
            calls.append(k)
            return real_mat_pow(x, k)

        monkeypatch.setattr(matseries, "mat_pow", spy)
        code, text, _ = run(capsys, "mat", "--a", "1,-2,-1,3",
                            "--n", str(level), "--json")
        assert code == 0
        # the closed form gets the power from its Lucas sequence, so
        # neither it nor the CLI raises A to a power
        assert calls == []
        assert json.loads(text)["data"]["power_matrix"] == [
            [str(power.a), str(power.b)], [str(power.c), str(power.d)]]

    @pytest.mark.parametrize("json_mode", [False, True])
    def test_level_nine_prints_the_exact_closed_form(self, capsys, json_mode):
        # entries of the level-9 sum run past the interpreter's default
        # limit of 4300 digits for int-to-text conversion
        limit = sys.get_int_max_str_digits()
        result = matseries.trace_product_sum(rw.mat2(1, -2, -1, 3), 9)
        code, text, err = run(capsys, "mat", "--a", "1,-2,-1,3", "--n", "9",
                              *(["--json"] if json_mode else []))
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        m = result.closed_form
        want = [[unlimited_str(m.a), unlimited_str(m.b)],
                [unlimited_str(m.c), unlimited_str(m.d)]]
        assert len(want[0][0]) > limit
        if json_mode:
            assert json.loads(text)["data"]["closed_form"] == want
        else:
            assert f"[[{want[0][0]}, {want[0][1]}], [{want[1][0]}, {want[1][1]}]]" in text


def unlimited_str(value) -> str:
    """str(value) with no limit on the digits of an int."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


class TestIntText:
    """The mat report's numbers print under the interpreter's default
    limit on int-to-text digits, equal to an unlimited str()."""

    BITS = cli._STR_BITS

    @pytest.mark.parametrize("value", [
        0, 1, -1, 10, -10 ** 40,
        2 ** BITS - 1, -(2 ** BITS - 1), 2 ** BITS, -(2 ** BITS), 2 ** BITS + 1,
        10 ** 2467, -10 ** 2467 + 1, 3 ** 50_000, -(7 ** 40_001), 10 ** 20_000,
    ], ids=lambda v: f"{'-' if v < 0 else ''}{v.bit_length()}bits")
    def test_equals_str(self, value):
        assert cli._int_text(value) == unlimited_str(value)

    @pytest.mark.parametrize("value", [
        F(0), F(-3), F(-1, 2), F(3 ** 30_000, 2 ** 20_001),
        F(-(2 ** 20_001), 3 ** 30_000)], ids=["0", "-3", "-1/2", "big", "-big"])
    def test_fractions_equal_str(self, value):
        assert cli._rat_text(value) == unlimited_str(value)


class TestEnum:
    def test_counts(self, capsys):
        code, text, _ = run(capsys, "enum", "--n", "2")
        assert code == 0
        assert "racks = 2" in text

    def test_keep_writes_valid_files(self, tmp_path, capsys):
        keep = str(tmp_path / "kept")
        code, text, _ = run(capsys, "enum", "--n", "3", "--keep", keep)
        assert code == 0
        import os
        files = sorted(os.listdir(keep))
        assert len(files) == 13
        for f in files:
            s, _ = fileio.load_structure(os.path.join(keep, f))
            assert rw.check_rack_axioms(s).passed

    def test_keep_on_a_file_is_exit_2(self, tmp_path, capsys):
        keep = tmp_path / "kept"
        keep.write_text("")
        code, text, err = run(capsys, "enum", "--n", "2", "--keep", str(keep))
        assert (code, text) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(keep) in err
        assert keep.read_text() == ""

    def test_weak(self, capsys):
        code, text, _ = run(capsys, "enum", "--n", "2", "--weak")
        assert code == 0
        assert "weak racks = 45" in text

    def test_cap_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.delenv("RACKWORK_MAX_N", raising=False)
        code, _, err = run(capsys, "enum", "--n", "9")
        assert code == 2

    def test_invalid_cap_env_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("RACKWORK_MAX_N", "lots")
        code, _, err = run(capsys, "enum", "--n", "2")
        assert code == 2
        assert "RACKWORK_MAX_N" in err and "'lots'" in err


class TestCliPlumbing:
    @pytest.mark.parametrize("argv", [
        ["make", "trivial", "--n", "2"],
        ["make", "conj", "--group", "g.json"],
        ["make", "boolean", "--atoms", "1", "--variant", "lattice"],
        ["make", "dual", "s.json"],
        ["make", "trig-derived", "s.json", "--e", "0", "--o", "0"],
        ["make", "product-dual", "s.json"],
        ["mat", "--a", "1,0,0,1", "--n", "1"],
        ["enum", "--n", "1"],
    ])
    def test_all_witnesses_without_witnesses_is_exit_2(self, capsys, argv):
        code, text, err = run(capsys, *argv, "--all-witnesses")
        assert (code, text) == (2, "")
        assert "unrecognized arguments: --all-witnesses" in err

    @pytest.mark.parametrize("argv", [
        ["check", "s.json"],
        ["trig", "s.json", "--e", "0", "--o", "0"],
        ["euler", "s.json", "--e", "0", "--o", "0"],
        ["ybe", "s.json", "--map", "w"],
        ["system", "s.json", "--e", "0"],
    ])
    def test_all_witnesses_on_the_checking_commands(self, argv):
        parser = cli.build_parser()
        assert parser.parse_args([*argv, "--all-witnesses"]).all_witnesses
        assert not parser.parse_args(argv).all_witnesses

    def test_unknown_command_is_exit_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("exc", [
        rw.InvalidFile("bad file"), rw.CarrierTooLarge("carrier too large"),
        rw.SizeMismatch("wrong size"), rw.IndexOutOfRange("out of range"),
        rw.LevelTooLarge("level too large"), rw.NotAssociative(1, 1, 2),
        rw.NoIdentity("no identity"), rw.NoInverse(3),
        rw.NotLeftInvertible("row 0"), rw.CarrierMismatch("carriers differ"),
        rw.DeterminantNotOne(4),
    ], ids=lambda exc: type(exc).__name__)
    def test_library_errors_are_exit_2(self, capsys, monkeypatch, exc):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_check", fail)
        code, out, err = run(capsys, "check", "structure.json")
        assert (code, out, err) == (2, "", f"error: {exc}\n")

    @pytest.mark.parametrize("argv", [
        ["check", "FILE"],
        ["make", "conj", "--group", "FILE", "--out", "OUT"],
        ["ybe", "--pairmap", "FILE"],
    ], ids=["structure", "group", "pair-map"])
    def test_loaded_carrier_cap(self, tmp_path, capsys, monkeypatch, argv):
        # valid 257-point files: the trivial rack, the cyclic group and the
        # identity pair map
        n = 257
        rng = range(n)
        doc = {
            "check": {"kind": "rack", "n": n, "dot": [list(rng)] * n,
                      "diamond": [[c] * n for c in rng]},
            "make": {"n": n, "mul": [[(a + b) % n for b in rng] for a in rng]},
            "ybe": {"n": n, "out": [[x, y] for x in rng for y in rng]},
        }[argv[0]]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        paths = {"FILE": str(path), "OUT": str(tmp_path / "out.json")}
        argv = [paths.get(a, a) for a in argv]
        monkeypatch.delenv("RACKWORK_MAX_N", raising=False)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (
            2, "", f"error: carrier n of {path} = 257 exceeds cap\n")
        monkeypatch.setenv("RACKWORK_MAX_N", "257")
        assert run(capsys, *argv)[0] == 0

    def test_missing_args_is_exit_2(self, capsys):
        assert run(capsys, "mat", "--n", "1")[0] == 2

    def test_round_trip_byte_identical(self, tmp_path, capsys):
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        run(capsys, "make", "boolean", "--atoms", "2",
            "--variant", "implication", "--out", out1)
        fileio.save_structure(out2, *fileio.load_structure(out1))
        with open(out1, "rb") as a, open(out2, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("unbuffered", ["1", ""],
                             ids=["unbuffered", "buffered"])
    def test_closed_stdout_keeps_the_exit_code(self, tmp_path, unbuffered):
        """A reader that closed the pipe before the run writes changes
        neither the exit code nor stderr."""
        good, bad = str(tmp_path / "good.json"), str(tmp_path / "bad.json")
        fileio.save_structure(good, rw.trivial_rack(3))
        fileio.save_structure(bad, rw.Structure(
            2, *[rw.make_op_table(2, [0] * 4)] * 2, rw.RACK))
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        for argv, code, err in (
                (["check", good], 0, ""), (["check", bad], 1, ""),
                (["check", good, "--json"], 0, ""), (["--help"], 0, ""),
                (["make", "trivial", "--n", "3"], 0,
                 "rack on 3 elements (verified)\n")):
            read, write = os.pipe()
            os.close(read)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "rackwork.cli", *argv],
                    stdout=write, stderr=subprocess.PIPE, text=True, env=env,
                    check=False)
            finally:
                os.close(write)
            assert (proc.returncode, proc.stderr) == (code, err), argv

    def test_console_script_entry(self, tmp_path):
        """The installed module is runnable as a subprocess."""
        proc = subprocess.run(
            [sys.executable, "-m", "rackwork.cli", "enum", "--n", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "racks = 2" in proc.stdout
