"""Tests of the benchmark itself: the correctness gate and the smoke mode.

    python3 -m pytest bench/test_bench.py

These are not part of the library's test suite (pyproject.toml collects
only tests/); they guard the benchmark's own checking.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _job(jobs, name):
    return next(j for j in jobs if j.name == name)


def test_tampered_census_count_is_an_error(tmp_path):
    jobs = workloads.census(0, True, str(tmp_path))
    assert worker.run_round(jobs).errors == []
    _job(jobs, "racks.3").expected = (14, 6)   # the frozen count is 13
    errors = worker.run_round(jobs).errors
    assert len(errors) == 1 and errors[0].startswith("racks.3:")


def test_tampered_witness_is_an_error(tmp_path):
    jobs = workloads.scan_large(0, True, str(tmp_path))
    pair = [_job(jobs, "bool.build"), _job(jobs, "bool.check_rack_axioms")]
    assert worker.run_round(pair).errors == []
    passed, failures = pair[1].expected
    (law, first), rest = failures[0], failures[1:]
    pair[1].expected = (passed, [(law, first[:-1] + (first[-1] + 1,))] + rest)
    errors = worker.run_round(pair).errors
    assert len(errors) == 1 and errors[0].startswith("bool.check_rack_axioms:")


def test_tampered_exit_code_is_an_error(tmp_path, monkeypatch):
    for var, value in run.child_env().items():   # what run.py gives a worker
        monkeypatch.setenv(var, value)
    jobs = workloads.cli_small(0, True, str(tmp_path))
    truncated = [_job(jobs, "check truncated.json")]
    assert worker.run_round(truncated).errors == []
    truncated[0].expected = 0   # a truncated file must exit 2
    assert len(worker.run_round(truncated).errors) == 1


def test_tampered_series_formula_is_an_error(tmp_path):
    jobs = workloads.series(0, True, str(tmp_path))
    shear = [_job(jobs, "shear")]
    assert worker.run_round(shear).errors == []
    closed, factors, exponent = shear[0].expected
    shear[0].expected = (closed, factors, exponent + 1)
    assert len(worker.run_round(shear).errors) == 1


def test_raised_exception_is_an_error(tmp_path):
    jobs = workloads.census(0, True, str(tmp_path))
    _job(jobs, "weak.1").run = lambda: workloads.census(0, True, "")[99]
    errors = worker.run_round(jobs).errors
    assert errors == ["weak.1: raised IndexError: list index out of range"]


def test_end_to_end_counts_each_job_once_by_its_median():
    # two processes; the cheap job is called often, the slow one once each;
    # the speed probe ran at half the reference speed
    slow = 2 * run.REFERENCE_PROBE_MS / 1e3
    measuring = [
        {"times": [[0.001] * 9 + [0.5], [0.010, 0.030], [1.0]], "rounds": 2,
         "probe": [slow, slow, 10 * slow], "peak_rss_mb": 10.0},
        {"times": [[0.001] * 5, [0.020], [2.0]], "rounds": 1,
         "probe": [slow], "peak_rss_mb": 12.0},
    ]
    metrics, _ = run.end_to_end(measuring, [0.3, 0.1, 0.2])
    # job medians 1 ms, 20 ms and 1500 ms, halved to the reference speed
    assert abs(metrics["verdict_p50_ms"] - 10) < 1e-9
    assert abs(metrics["verdict_tail_ms"] - 750) < 1e-9
    assert abs(metrics["wall_s"] - 0.7605) < 1e-9
    assert abs(metrics["setup_s"] - 0.1) < 1e-9
    assert metrics["peak_rss_mb"] == 12.0


def test_cheap_jobs_repeat_within_a_round(tmp_path):
    jobs = workloads.census(0, True, str(tmp_path))
    rnd = worker.run_round(jobs, repeat_s=0.01)
    assert rnd.errors == []
    for times in rnd.times:
        assert sum(times) >= 0.01 or len(times) == worker.MAX_CALLS


def test_schema_check_finds_a_missing_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    doc = {"correct": True, "attempted": 3, "failed": 0,
           "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                       for m in spec["end_to_end"]}}
    assert run.check_schema(doc, 0, spec) == []
    del doc["metrics"]["wall_s"]
    assert run.check_schema(doc, 0, spec) != []


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
