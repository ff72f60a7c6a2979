"""What a process imports: the package resolves its public names on first
use, and the commands that need no table run without numpy."""

import importlib
import subprocess
import sys

import pytest

import rackwork as rw
from rackwork import structures
from rackwork.cli import main

# home module -> the public names it defines
HOMES = {
    "errors": [
        "CarrierMismatch", "CarrierTooLarge", "DeterminantNotOne",
        "IndexOutOfRange", "InvalidFile", "KindMismatch", "LevelTooLarge",
        "NoIdentity", "NoInverse", "NotAssociative", "NotLeftInvertible",
        "RackworkError", "SizeMismatch",
    ],
    "tables": [
        "GroupTable", "OpTable", "apply", "derive_diamond",
        "is_left_invertible", "make_op_table", "validate_group",
    ],
    "structures": [
        "AxiomReport", "RACK", "Structure", "UNCHECKED", "WEAK_RACK",
        "boolean_weak_rack_implication", "boolean_weak_rack_lattice",
        "check_morphism", "check_rack_axioms", "check_weak_rack_axioms",
        "conjugation_rack", "direct_product", "dual_rack", "make_structure",
        "product_with_dual", "trivial_rack",
    ],
    "trig": [
        "TrigContext", "TrigReport", "check_trig_properties",
        "make_trig_context", "t_cos", "t_sin", "trig_derived_rack",
    ],
    "euler": [
        "PairMap", "box_apply", "check_euler_formula",
        "check_exp_homomorphism", "check_hyperbolic_factorization",
        "cosh_map", "exp_map", "sinh_map",
    ],
    "ybe": [
        "SystemReport", "check_mixed", "check_qybe", "check_yb_system",
        "lift", "w_map", "z_map",
    ],
    "matseries": [
        "Mat2Q", "Rat", "SumResult", "brute_sum", "det", "mat2", "mat_mul",
        "mat_pow", "random_unimodular", "trace", "trace_product_sum",
    ],
    "census": ["EnumResult", "enumerate_racks", "enumerate_weak_racks"],
}
EXPORTED = [(home, name) for home, names in HOMES.items() for name in names]


class TestPackageSurface:
    def test_all_names_the_modules_and_their_exports(self):
        assert len(rw.__all__) == 80
        assert sorted(rw.__all__) == sorted(
            [*HOMES, *(name for _, name in EXPORTED)])

    @pytest.mark.parametrize("home, name", EXPORTED,
                             ids=[name for _, name in EXPORTED])
    def test_a_name_is_the_object_of_its_home_module(self, home, name):
        module = importlib.import_module(f"rackwork.{home}")
        assert getattr(rw, name) is getattr(module, name)

    @pytest.mark.parametrize("home", sorted(HOMES))
    def test_a_module_name_is_the_module(self, home):
        assert getattr(rw, home) is importlib.import_module(f"rackwork.{home}")

    def test_dir_covers_all(self):
        assert set(rw.__all__) <= set(dir(rw))

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such'"):
            rw.no_such

    def test_star_import(self):
        namespace = {}
        exec("from rackwork import *", namespace)
        assert set(rw.__all__) <= set(namespace)
        assert namespace["trivial_rack"] is structures.trivial_rack
        assert namespace["structures"] is structures

    def test_a_patched_function_is_seen_through_the_package(self, monkeypatch):
        calls = []

        def spy(n):
            calls.append(n)
            return "spied"

        monkeypatch.setattr(structures, "trivial_rack", spy)
        assert rw.trivial_rack is spy
        assert rw.trivial_rack(3) == "spied"
        assert calls == [3]


PROBE = """\
import sys
from rackwork.cli import main
code = main(sys.argv[1:])
print("numpy" in sys.modules)
sys.exit(code)
"""


def fresh_cli(*argv) -> tuple[int, str, str, bool]:
    """Run the command line in a fresh interpreter: its exit code, stdout
    and stderr, and whether numpy was imported when it ended."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines(keepends=True)
    numpy_loaded = lines.pop() == "True\n"
    return proc.returncode, "".join(lines), proc.stderr, numpy_loaded


class TestNumpyFreeProcesses:
    def test_import_rackwork(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, rackwork; print('numpy' in sys.modules)"],
            capture_output=True, text=True, check=True)
        assert proc.stdout == "False\n"

    def test_mat(self, capsys):
        argv = ["mat", "--a", "1,-2,-1,3", "--n", "2", "--brute"]
        code, out, err, numpy_loaded = fresh_cli(*argv)
        assert not numpy_loaded
        assert (code, out, err) == (main(argv), *capsys.readouterr())
        assert code == 0 and "result: PASS" in out

    def test_check_of_a_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "truncated.json"
        path.write_text('{"kind": "rack", "n": 2, "dot": [[0,')
        code, out, err, numpy_loaded = fresh_cli("check", str(path))
        assert not numpy_loaded
        assert (code, out, err) == (main(["check", str(path)]),
                                    *capsys.readouterr())
        assert code == 2 and err.startswith(f"error: {path}: Expecting")

    @pytest.mark.parametrize("argv", [
        ["trig", "{}", "--e", "0", "--o", "0"],
        ["euler", "{}", "--e", "0", "--o", "0"],
        ["system", "{}", "--e", "0"],
        ["ybe", "{}", "--map", "w"],
        ["ybe", "--pairmap", "{}"],
        ["make", "conj", "--group", "{}"],
        ["make", "dual", "{}"],
        ["make", "trig-derived", "{}", "--e", "0", "--o", "0"],
        ["make", "product-dual", "{}"],
    ], ids=["trig", "euler", "system", "ybe --map", "ybe --pairmap",
            "make conj", "make dual", "make trig-derived",
            "make product-dual"])
    def test_every_reading_command_parses_before_numpy(self, argv, tmp_path,
                                                       capsys):
        """Each command that reads a file refuses one that is not JSON
        before it imports numpy, as check does."""
        path = tmp_path / "truncated.json"
        path.write_text('{"n": 2, "dot": [[0,')
        argv = [str(path) if a == "{}" else a for a in argv]
        code, out, err, numpy_loaded = fresh_cli(*argv)
        assert not numpy_loaded
        assert (code, out, err) == (main(argv), *capsys.readouterr())
        assert code == 2 and err.startswith(f"error: {path}: Expecting")

    def test_the_probe_sees_numpy_when_a_command_uses_it(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text('{"kind": "rack", "n": 1, "dot": [[0]], '
                        '"diamond": [[0]]}')
        code, out, _, numpy_loaded = fresh_cli("check", str(path))
        assert numpy_loaded
        assert code == 0 and "result: PASS" in out
