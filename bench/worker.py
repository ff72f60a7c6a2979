"""One benchmark process: set up one workload, run its job list in rounds,
check every verdict, and write the measurements as JSON: the call times of
every job (untraced) or the per-layer metrics (traced).

run.py starts this file in a fresh interpreter for every measurement; it is
not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads


# In an untraced round a job is called again, right away, until its calls
# in the round add up to REPEAT_S, but at most MAX_CALLS times.  Cheap jobs
# then get enough samples for a steady median, and the cold first call of a
# process does not decide it.
REPEAT_S = 0.1
MAX_CALLS = 100


class SpeedProbe:
    """Times a fixed pure-Python loop, which calls nothing in rackwork,
    between job calls, at most once every EVERY_S.  run.py scales the run's
    times by the median of these samples (see speed_factor there)."""

    EVERY_S = 0.25
    LOOP = 50_000   # about 4 ms

    def __init__(self):
        self.samples: list[float] = []   # seconds per loop
        self._next = 0.0

    def __call__(self):
        if time.perf_counter() < self._next:
            return
        total = 0
        t0 = time.perf_counter()
        for i in range(self.LOOP):
            total += i * i
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._next = t1 + self.EVERY_S


class Round:
    def __init__(self, jobs):
        self.times: list[list[float]] = [[] for _ in jobs]   # per job, seconds per call
        self.errors: list[str] = []

    @property
    def wall(self) -> float:
        return sum(map(sum, self.times))

    @property
    def calls(self) -> int:
        return sum(map(len, self.times))


def call_job(job, traced: bool) -> tuple[float, str | None]:
    """Time one call from its start to its result, then check the result
    against the expected answer; the check is not timed."""
    call = job.traced if traced else job.run
    t0 = time.perf_counter()
    try:
        result = call()
        error = None
    except Exception as exc:  # a raised exception is a wrong verdict
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if error is None:
        try:
            got = job.view(result)
            if got != job.expected:
                error = f"got {_short(got)}, expected {_short(job.expected)}"
        except Exception:  # a malformed result is a wrong verdict too
            error = "unreadable result: " + traceback.format_exc(limit=1)
    return elapsed, error


def run_round(jobs, traced: bool = False, repeat_s: float = 0.0,
              deadline: float | None = None, probe=None) -> Round:
    """Run every job in order: once, or until its calls add up to
    `repeat_s` (at most MAX_CALLS calls, and no call after a wrong one).
    Make no call after time.perf_counter() has passed `deadline`, and give
    `probe` a chance to run before each call."""
    rnd = Round(jobs)
    for job, times in zip(jobs, rnd.times):
        while deadline is None or time.perf_counter() < deadline:
            if probe:
                probe()
            elapsed, error = call_job(job, traced)
            times.append(elapsed)
            if error:
                rnd.errors.append(f"{job.name}: {error}")
                break
            if sum(times) >= repeat_s or len(times) >= MAX_CALLS:
                break
    return rnd


def _short(value, limit=300) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def run_rounds(jobs, seconds: float, traced: bool = False,
               after_round=None) -> list[Round]:
    """Repeat the job list until another round would overrun `seconds`,
    judged by the median round so far; at least one round."""
    rounds, elapsed = [], []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(jobs, traced))
        if after_round:
            after_round()
        elapsed.append(time.perf_counter() - start - sum(elapsed))
        if sum(elapsed) + statistics.median(elapsed) > seconds:
            return rounds


def sample_jobs(jobs, seconds: float, probe) -> list[Round]:
    """Repeat the job list, with REPEAT_S, until `seconds` have passed: one
    whole round, then rounds that stop at the deadline, so that the run
    measures for all of `seconds` and every job has at least one call."""
    deadline = time.perf_counter() + seconds
    rounds = [run_round(jobs, repeat_s=REPEAT_S, probe=probe)]
    while time.perf_counter() < deadline:
        rounds.append(run_round(jobs, repeat_s=REPEAT_S, deadline=deadline, probe=probe))
    return rounds


def peak_rss_mb() -> float:
    """Peak RSS of the processes this one waited for (the CLI processes of
    cli_small), or of this process when it started none."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (children or own) / 1024


def traced_run(args, jobs) -> tuple[dict, list[Round], list[str]]:
    """Untraced rounds for half the time, then traced rounds; one call
    per job in both, so that their walls compare."""
    import tracing

    untraced = run_rounds(jobs, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    marks = [0]
    try:
        traced = run_rounds(jobs, args.seconds / 2, traced=True,
                            after_round=lambda: marks.append(len(tracer.spans)))
    finally:
        tracer.uninstall()
    hom_limit = tracing.sampled_hom_limit()
    per_round = [tracing.round_metrics(tracer.spans[a:b], r.wall, hom_limit)
                 for a, b, r in zip(marks, marks[1:], traced)]
    tracer.dump(os.path.join(args.spans_dir, f"spans-{args.workload}.json"))
    metrics = tracing.median_metrics(per_round)
    untraced_wall = statistics.median(r.wall for r in untraced)
    traced_wall = statistics.median(r.wall for r in traced)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    verifies = metrics["census.verify_calls"]
    notes = [f"tracing overhead: traced wall {traced_wall:.3f} s over untraced "
             f"{untraced_wall:.3f} s ({len(traced)} traced, {len(untraced)} untraced rounds)",
             f"census.verify_pass_ratio base: {verifies} axiom calls made by enumeration"]
    return metrics, untraced + traced, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawn-ns", type=int, required=True,
                    help="time.monotonic_ns() when the parent started this process")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    jobs = workloads.WORKLOADS[args.workload](args.seed, args.small, args.workdir)
    out = {"setup_s": (time.monotonic_ns() - args.spawn_ns) / 1e9}
    if not args.setup_only:
        if args.trace:
            metrics, rounds, notes = traced_run(args, jobs)
            out.update(metrics=metrics, notes=notes)
        else:
            probe = SpeedProbe()
            rounds = sample_jobs(jobs, args.seconds, probe)
            out.update(times=[[t for r in rounds for t in r.times[j]]
                              for j in range(len(jobs))],
                       rounds=len(rounds), probe=probe.samples,
                       peak_rss_mb=peak_rss_mb())
        out.update(errors=[e for r in rounds for e in r.errors],
                   attempted=sum(r.calls for r in rounds))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
