"""The test runner's own settings: a failing test must be reported as one."""

import pathlib
import subprocess
import sys

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
