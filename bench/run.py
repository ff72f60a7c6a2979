"""rackwork benchmark: time to a checked verdict on four workloads.

    python3 bench/run.py --workload scan_large --seed 1 --seconds 28 --trace 0

Run from the root of a rackwork checkout.  Each measurement runs in a fresh
child interpreter (bench/worker.py) with one BLAS/OpenMP thread and
PYTHONPATH pointing at the checkout's src/.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run.  Earlier lines
say how each figure was formed.  Every verdict is checked against an
expected answer computed outside rackwork; `failed` counts wrong verdicts,
wrong witnesses, wrong exit codes and raised exceptions out of `attempted`
jobs.

    python3 bench/run.py --smoke

runs every workload once at reduced size in both modes and checks the
output against the schema in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# verdict_p50_ms is computed and printed but kept out of the result line:
# on scan_large it falls on four 30-45 ms numpy jobs whose speed follows the
# host's state more than the speed probe does, and its spread over ten runs
# reached the 0.25 bound.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# An untraced run splits --seconds over WORKERS fresh processes, one after
# another, and pools their rounds: a process's allocator and cache state can
# make one job up to 1.5x slower for the whole life of that process.
WORKERS = 4
SETUP_PROBES = 6          # extra set-up-only processes; setup_s is the median
                          # over these and the workers
# verdict_tail_ms is this percentile (nearest rank) of the per-job medians.
TAIL_PERCENTILE = 75
# The median time of worker.SpeedProbe's loop at the speed every reported
# time is scaled to: about its median on the 2-vCPU VM the benchmark was
# built on.
REFERENCE_PROBE_MS = 4.0
IMPORT_PROBES = 5
RUN_DEADLINE_S = 170      # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


START = time.monotonic()


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    env.pop("RACKWORK_MAX_N", None)   # always the library's default caps
    return env


def run_child(cmd, env) -> subprocess.CompletedProcess:
    """Run a child in its own process group.  When the run's deadline
    passes, kill the whole group (the child's own children included) and
    wait for it."""
    timeout = max(1.0, START + RUN_DEADLINE_S - time.monotonic())
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"deadline passed: {' '.join(cmd)}") from None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def run_worker(args, env, workdir: Path, seconds, *extra) -> dict:
    result = workdir / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--spans-dir", str(workdir.parent),
           "--result", str(result), *extra]
    if args.small:
        cmd.append("--small")
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    proc = run_child(cmd, env)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(result.read_text(encoding="utf-8"))


def speed_factor(measuring: list[dict]) -> tuple[float, float, int]:
    """REFERENCE_PROBE_MS over the median probe time of the measuring
    processes: the factor that turns this run's times into times at the
    reference speed, with the median probe time and the sample count.

    The shared host's speed drifts by 30% and more from minute to minute,
    for every workload at once; a loop that calls nothing in rackwork
    slows down with it, and scaling by it keeps that drift out of the
    figures while any change in rackwork's own cost stays in them."""
    samples = [t for w in measuring for t in w["probe"]]
    probe_ms = statistics.median(samples) * 1e3
    return REFERENCE_PROBE_MS / probe_ms, probe_ms, len(samples)


def end_to_end(measuring: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics from every call of every job, pooled over the
    rounds of all measuring processes.

    Each job counts once, by its median time: a job's own calls vary from
    burst to burst on a shared machine, and a percentile of single calls
    lands on whichever call of whichever job the ranks happen to meet."""
    per_job = [[t for calls in job for t in calls]
               for job in zip(*(w["times"] for w in measuring))]
    medians_ms = sorted(statistics.median(calls) * 1e3 for calls in per_job)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(medians_ms))
    times = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(medians_ms) / 1e3,
        "verdict_p50_ms": statistics.median(medians_ms),
        "verdict_tail_ms": medians_ms[rank - 1],
    }
    factor, probe_ms, probes = speed_factor(measuring)
    metrics = {name: value * factor for name, value in times.items()}
    metrics["peak_rss_mb"] = max(w["peak_rss_mb"] for w in measuring)
    counts = [len(calls) for calls in per_job]
    rounds = sum(w["rounds"] for w in measuring)
    notes = [f"{len(per_job)} jobs, {min(counts)} to {max(counts)} calls each, in {rounds} "
             f"rounds over {len(measuring)} processes",
             f"verdict_tail_ms is p{TAIL_PERCENTILE} of the job medians "
             f"({len(per_job) - rank} jobs beyond it)",
             f"setup_s is the median of {len(setups)} processes",
             f"times are scaled by {factor:.4f} = {REFERENCE_PROBE_MS} ms reference / "
             f"{probe_ms:.4f} ms median of {probes} speed probes; unscaled: "
             + ", ".join(f"{name} {value:.6g}" for name, value in times.items()),
             f"verdict_p50_ms {metrics['verdict_p50_ms']:.6g} ms (scaled; not in the result line)"]
    return metrics, notes


def import_probe(env) -> dict:
    """Interpreter start and import self times of `import rackwork.cli`,
    each the median of IMPORT_PROBES fresh processes."""
    interp, numpy_ms, rackwork_ms = [], [], []
    line = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"], env)
        interp.append((time.perf_counter() - t0) * 1e3)
        proc = run_child([sys.executable, "-X", "importtime", "-c",
                          "import rackwork.cli"], env)
        if proc.returncode != 0:
            raise BenchError(f"import rackwork.cli failed:\n{proc.stderr}")
        selfs = {"numpy": 0, "rackwork": 0}
        for m in line.finditer(proc.stderr):
            top = m.group(2).split(".")[0]
            if top in selfs:
                selfs[top] += int(m.group(1))
        numpy_ms.append(selfs["numpy"] / 1e3)
        rackwork_ms.append(selfs["rackwork"] / 1e3)
    return {"cli.interp_ms": statistics.median(interp),
            "cli.import_numpy_ms": statistics.median(numpy_ms),
            "cli.import_rackwork_ms": statistics.median(rackwork_ms)}


def measure(args) -> dict:
    if not (ROOT / "src" / "rackwork" / "__init__.py").is_file():
        raise BenchError(f"no rackwork sources under {ROOT / 'src'}")
    env = child_env()
    work = ROOT / ".bench_work"
    workdir = work / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # compile and cache the bytecode once, as an installed package has
        warm = run_child([sys.executable, "-c", "import rackwork.cli"], env)
        if warm.returncode != 0:
            raise BenchError(f"import rackwork.cli failed:\n{warm.stderr}")
        units = tracing.PER_LAYER if args.trace else END_TO_END
        if args.trace:
            workers = [run_worker(args, env, workdir, args.seconds)]
            metrics, notes = workers[0]["metrics"], workers[0]["notes"]
            metrics.update(import_probe(env))
        else:
            setups = [run_worker(args, env, workdir, 0, "--setup-only")["setup_s"]
                      for _ in range(SETUP_PROBES)]
            workers, start = [], time.monotonic()
            for k in range(WORKERS):   # each worker gets a share of the time left
                left = args.seconds - (time.monotonic() - start)
                workers.append(run_worker(args, env, workdir, left / (WORKERS - k)))
            metrics, notes = end_to_end(workers, setups + [w["setup_s"] for w in workers])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = [e for w in workers for e in w["errors"]]
    attempted = sum(w["attempted"] for w in workers)
    for err in errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    for note in notes:
        print(f"{args.workload}: {note}")
    print(f"{args.workload}: error_ratio {len(errors)}/{attempted} "
          f"verdicts = {len(errors) / attempted:.6g}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


# ------------------------------------------------------------ smoke mode

def check_schema(doc: dict, trace: int, spec: dict) -> list[str]:
    """Problems with one result line against BENCHMARK.json."""
    problems = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"top-level keys {sorted(doc)}")
    if doc.get("correct") is not True or doc.get("failed") != 0:
        problems.append("verdicts not all correct")
    if not isinstance(doc.get("attempted"), int) or doc["attempted"] < 1:
        problems.append("attempted must be a positive integer")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = doc.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"metric names differ: missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for name, entry in got.items():
        value = entry.get("value")
        if set(entry) != {"value", "unit"} or entry.get("unit") != wanted.get(name):
            problems.append(f"{name}: bad entry {entry}")
        elif not isinstance(value, (int, float)) or value != value or value < 0:
            problems.append(f"{name}: bad value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end metric is not positive")
    return problems


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small"]
            proc = run_child(cmd, dict(os.environ))
            lines = proc.stdout.strip().splitlines()
            try:
                problems = check_schema(json.loads(lines[-1]), trace, spec)
            except (IndexError, json.JSONDecodeError):
                problems = [f"no result line (exit {proc.returncode}): {proc.stderr[-2000:]}"]
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            failures += bool(problems)
            print(f"{workload['name']} trace={trace}: "
                  + ("ok" if not problems else "; ".join(problems)))
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the smoke mode")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at reduced size and check the schema")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        doc = measure(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
