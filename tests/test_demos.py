"""Each demo runs to completion as a script, against this checkout."""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@functools.lru_cache(maxsize=None)
def run_demo(path: Path) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path_var = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + path_var if path_var else src)
    env.pop("RACKWORK_MAX_N", None)
    return subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)


def test_all_four_demos_are_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(path):
    res = run_demo(path)
    assert res.returncode == 0, res.stderr


def test_census_demo_prints_the_frozen_counts():
    out = run_demo(ROOT / "demos" / "04_census.py").stdout
    racks = re.findall(r"^\s*(\d)\s+(\d+)\s+(\d+)\s+\(", out, re.M)
    assert racks == [("1", "1", "1"), ("2", "2", "2"), ("3", "13", "6"),
                     ("4", "114", "19")]
    weak = re.findall(r"n = (\d): (\d+) labeled pairs, (\d+) classes", out)
    assert weak == [("1", "1", "1"), ("2", "45", "26"), ("3", "13352", "2335")]
    assert "MISSING" not in out
