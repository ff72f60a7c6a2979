"""The test runner's own settings, and lint checks on the package source."""

import ast
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    """Under the warning filters of pyproject.toml, hypothesis's report of a
    falsified example must end in a FAILED line, not an INTERNALERROR."""
    (tmp_path / "test_throwaway.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, check=False)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert proc.returncode == 1
    assert "FAILED test_throwaway.py::test_fails" in output
    assert "1 failed" in output


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_unused_import_check_finds_one():
    source = "import os\nimport numpy as np\nfrom x import a, b\nnp.array(b)\n"
    assert unused_imports(source) == ["os", "a"]


MODULES = sorted((ROOT / "src" / "rackwork").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The top-level private names (_x, not __x__) that a module defines,
    as module.name, which neither that module nor an import from it reads.
    `sources` maps module names to their source; an attribute `m._x` reads
    _x of every module."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    read = {m: set() for m in trees}
    attributes = set()
    for m, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read[m].add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                if source in read:
                    read[source].update(a.name for a in node.names)
    unread = []
    for m, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            unread += [f"{m}.{name}" for name in names
                       if name.startswith("_") and not name.endswith("__")
                       and name not in read[m] | attributes]
    return unread


def test_the_unread_private_name_check_finds_one():
    sources = {
        "a": ("__all__ = []\n_x = 1\n_y = 2\n\ndef _f():\n    return _y\n\n"
              "class _C:\n    pass\n"),
        # b reads a._f and a._C, and an _x of its own
        "b": "from . import a\nfrom .a import _C\n_x = 3\na._f(_C, _x)\n",
    }
    assert unread_private_names(sources) == ["a._x"]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text()
               for p in (ROOT / "src" / "rackwork").glob("*.py")}
    assert unread_private_names(sources) == []


LAW_BUILDERS = {"_compile", "_gather", "_laws"}


def law_builder_reads(source: str) -> list[str]:
    """The law builders a module imports, reads or reaches as an
    attribute, sorted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in LAW_BUILDERS]
        elif isinstance(node, ast.Name) and node.id in LAW_BUILDERS:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in LAW_BUILDERS:
            found.append(node.attr)
    return sorted(found)


def test_the_law_builder_check_finds_each_form():
    source = ("from .structures import _laws as r, _compile\n"
              "from . import structures\n"
              "structures._gather(term, axes)\n_laws\n")
    assert law_builder_reads(source) == ["_compile", "_gather", "_laws",
                                         "_laws"]


NOT_STRUCTURES = [p for p in sorted((ROOT / "src" / "rackwork").glob("*.py"))
                  if p.name != "structures.py"]


@pytest.mark.parametrize("path", NOT_STRUCTURES, ids=lambda p: p.name)
def test_only_structures_reads_the_law_builders(path):
    """Other modules select laws by name, through structures._named and
    _KIND_LAWS."""
    assert law_builder_reads(path.read_text()) == []


GATHERS = {"_at", "_narrow"}


def gathers_imported(source: str) -> list[str]:
    """The gathers of tables that state a law, as a module imports them
    from tables or reaches them on it, sorted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "tables"):
            found += [a.name for a in node.names if a.name in GATHERS]
        elif (isinstance(node, ast.Attribute) and node.attr in GATHERS
              and getattr(node.value, "id", None) == "tables"):
            found.append(node.attr)
    return sorted(found)


def test_the_gather_import_check_finds_each_form():
    source = ("from .tables import _at, _scan\n"
              "from rackwork.tables import (\n    _narrow as nw,\n)\n"
              "from .structures import _at\n"
              "from . import tables\ntables._at(d, a, b)\n")
    assert gathers_imported(source) == ["_at", "_at", "_narrow"]


@pytest.mark.parametrize("name", ["trig.py", "euler.py", "census.py"])
def test_trig_and_euler_state_no_law(name):
    """trig and euler select their laws through structures._named, and the
    census search prunes on the sides of a law from structures._sides, so
    none of them gathers from a table itself."""
    source = (ROOT / "src" / "rackwork" / name).read_text()
    assert gathers_imported(source) == []


def kind_mismatch_raises(source: str) -> list[int]:
    """The lines that raise KindMismatch, by name or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "KindMismatch":
                lines.append(node.lineno)
    return lines


def test_the_kind_mismatch_check_finds_each_form():
    source = ("raise KindMismatch('x')\nraise errors.KindMismatch\n"
              "raise InvalidFile('y') from KindMismatch\n"
              "try:\n    f()\nexcept KindMismatch:\n    raise\n")
    assert kind_mismatch_raises(source) == [1, 2]


@pytest.mark.parametrize("path", NOT_STRUCTURES, ids=lambda p: p.name)
def test_only_structures_raises_kind_mismatch(path):
    """Only the kind table refuses a kind: other modules verify a tag
    through structures, which raises for them."""
    assert kind_mismatch_raises(path.read_text()) == []


NUMPY_BACKED = {"numpy", "census", "euler", "structures", "tables", "trig",
                "ybe"}


def numpy_backed_imports(source: str) -> list[str]:
    """The numpy-backed modules a module imports as it is itself imported,
    sorted: at top level, in a class body or under if, try or with, but not
    in a function or under `if TYPE_CHECKING:`."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if (isinstance(node, ast.If)
                and getattr(node.test, "id", None) == "TYPE_CHECKING"):
            children = node.orelse
        else:
            children = ast.iter_child_nodes(node)
        if isinstance(node, ast.Import):
            parts = [p for a in node.names for p in a.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            parts = [*(node.module or "").split("."),
                     *(a.name for a in node.names)]
        else:
            parts = []
        found.extend(p for p in parts if p in NUMPY_BACKED)
        for child in children:
            visit(child)

    visit(ast.parse(source))
    return sorted(found)


def test_the_numpy_backed_import_check_finds_each_form():
    source = ("import numpy as np\n"
              "from .tables import OpTable\n"
              "from . import census, errors\n"
              "import rackwork.euler\n"
              "try:\n    from rackwork import trig\n"
              "except ImportError:\n    pass\n"
              "class C:\n    from .ybe import w_map\n"
              "if TYPE_CHECKING:\n    from .structures import Structure\n"
              "def f():\n    import numpy\n    from . import structures\n")
    assert numpy_backed_imports(source) == [
        "census", "euler", "numpy", "tables", "trig", "ybe"]


@pytest.mark.parametrize("name", ["__init__.py", "cli.py", "errors.py",
                                  "fileio.py", "matseries.py"])
def test_the_package_cli_and_fileio_import_no_numpy_backed_module(name):
    """A command imports the modules it calls when it runs, so that `mat`,
    `check` of a file that is not JSON and `import rackwork` load no
    numpy."""
    source = (ROOT / "src" / "rackwork" / name).read_text()
    assert numpy_backed_imports(source) == []


def load_structure_readers(source: str) -> list[str]:
    """The function around each read of load_structure, by name, as an
    attribute or in an import, in source order; "" at module level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        name = (node.name if isinstance(node, ast.alias)
                else getattr(node, "id", getattr(node, "attr", None)))
        if name == "load_structure":
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_the_load_structure_check_finds_each_form():
    source = ("from .fileio import load_structure as ls\n"
              "def _open(args):\n    return fileio.load_structure(args.file)\n"
              "def cmd_make(args):\n    def inner():\n"
              "        load_structure(args.file)\n    return inner\n"
              "reader = fileio.load_structure\n")
    assert load_structure_readers(source) == ["", "_open", "inner", ""]


def test_the_cli_opens_structure_files_in_one_place():
    """The checking commands read their structure file through cli._open,
    which heads their report; make, which has no --all-witnesses, reads
    its own."""
    source = (ROOT / "src" / "rackwork" / "cli.py").read_text()
    assert load_structure_readers(source) == ["cmd_make", "_open"]


def sites(source: str, matches) -> list[str]:
    """The class and function around each call for which matches(call)
    holds, dotted, in source order; "" at module level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = f"{where}.{node.name}".lstrip(".")
        if isinstance(node, ast.Call) and matches(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def call_sites(source: str, name: str) -> list[str]:
    """The sites of each call of `name`, by name or as an attribute."""
    return sites(source, lambda call: getattr(
        call.func, "id", getattr(call.func, "attr", None)) == name)


def keyword_sites(source: str, keyword: str) -> list[str]:
    """The sites of each call that passes the argument `keyword`."""
    return sites(source, lambda call: any(
        k.arg == keyword for k in call.keywords))


def test_the_call_site_check_finds_each_form():
    source = ("Structure(1, d, e, k)\n"
              "class C:\n    def f(self):\n"
              "        return structures.Structure(n, d, e, k)\n"
              "def g():\n    def inner():\n        Structure(*args)\n"
              "    return Structure, _Structure(1)\n")
    assert call_sites(source, "Structure") == ["", "C.f", "g.inner"]


# Every place that makes a Structure, and so sets a kind tag, with what
# backs the tag: a new one fails the test until its tag is accounted for.
STRUCTURE_CALLS = {
    # the census's own verdicts, from _KIND_LAWS
    "census.py": ["EnumResult.structures"],
    # a file's tag, taken on trust until a command verifies it
    "fileio.py": ["load_structure"],
    # make_structure scans the tag; _unverified carries a tag that its
    # callers (below) establish; _opposite copies s's tag, which dual_rack
    # scans and product_with_dual scans as a factor; _product tags the
    # product with s1's kind and keeps its factors (below)
    "structures.py": ["make_structure", "_unverified", "_opposite",
                      "_product"],
}

# The callers of structures._unverified, with what backs the tag they set:
# the one-point structure satisfies every identity; trig_derived_rack
# checks sin(cos x) = x, which on a finite carrier gives both cancellation
# laws, the only rack laws that can fail on its tables.
UNVERIFIED_CALLS = {
    "structures.py": ["_boolean_power"],
    "trig.py": ["trig_derived_rack"],
}

# Every call that passes factors=, a Structure's by any route (its
# constructor, dataclasses.replace): a product passes the laws its factors
# pass, so the reports and _verify_kind read those laws off the factors and
# scan only the others (Birkhoff).  Structure checks that the tables are
# the combine of the factors; direct_product verifies the tag, and the
# Boolean power's two-point factor is scanned when it is built.
FACTOR_SETTERS = {
    # SumResult's trace factors of the closed form, no structure's
    "matseries.py": ["trace_product_sum"],
    "structures.py": ["_product"],
}


def test_the_keyword_check_finds_each_form():
    source = ("Structure(1, d, e, k, factors=(a, b))\n"
              "def f():\n    return g(x, factors=())\n"
              "def h():\n    return Structure(1, d, e, k)\n")
    assert keyword_sites(source, "factors") == ["", "f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_unscanned_kind_tag_is_accounted_for(path):
    source = path.read_text()
    assert call_sites(source, "Structure") == STRUCTURE_CALLS.get(path.name, [])
    assert (call_sites(source, "_unverified")
            == UNVERIFIED_CALLS.get(path.name, []))
    assert (keyword_sites(source, "factors")
            == FACTOR_SETTERS.get(path.name, []))
