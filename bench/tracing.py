"""Spans around rackwork's public functions, and the per-layer metrics
derived from them.

The tracer replaces each public function of each rackwork module with a
wrapper, as a module attribute, everywhere the function object is bound:
its own module, the package namespace, and the namespaces of the modules
that import it by name (census, ybe, euler, fileio, cli and others).  Calls
made inside the library are therefore seen too.  A span records its layer
(the defining module), function, start, end and parent span.  Spans stay in
memory until the run ends.  Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import re
import statistics
import time
import tracemalloc

LAYERS = ("tables", "structures", "trig", "euler", "ybe", "census",
          "matseries", "fileio", "cli")

# Element-level helpers that run inside inner loops (brute-force summation,
# single lookups): a span per call would cost more than the call.
LEAF_HELPERS = frozenset({
    "matseries.mat_mul", "matseries.mat_add", "matseries.mat_scale",
    "matseries.det", "matseries.trace", "matseries.mat2",
    "tables.apply", "trig.t_cos", "trig.t_sin", "euler.box_apply",
})

AXIOM_SCANS = {"structures.check_rack_axioms": (2, 2),   # (triple, pair) laws
               "structures.check_weak_rack_axioms": (2, 1)}
CONSTRUCTORS = frozenset(f"structures.{name}" for name in (
    "conjugation_rack", "trivial_rack", "boolean_weak_rack_implication",
    "boolean_weak_rack_lattice", "dual_rack", "direct_product",
    "product_with_dual", "make_structure"))
ENUMERATIONS = frozenset({"census.enumerate_racks", "census.enumerate_weak_racks"})
# tracemalloc costs ~0.2 ms per start/stop, more than a whole scan of a
# tiny table, so only scans on carriers this large are memory-tracked.
MEMORY_TRACKED = frozenset(AXIOM_SCANS) | {"ybe.check_qybe"}
MEMORY_MIN_N = 32
CLI_COMMANDS = ("make", "check", "trig", "euler", "ybe", "system", "mat", "enum")

# name -> unit of every per-layer metric the traced run reports
PER_LAYER = {
    "tables.validate_group_ms": "ms",
    "tables.derive_diamond_calls": "count",
    "tables.derive_diamond_ms": "ms",
    "structures.axiom_calls": "count",
    "structures.axiom_scan_ms": "ms",
    "structures.axiom_fail_scan_ms": "ms",
    "structures.instances_per_s": "1/s",
    "structures.scan_peak_alloc_mb": "MB",
    "structures.build_ms": "ms",
    "trig.check_ms": "ms",
    "euler.formula_ms": "ms",
    "euler.hyperbolic_ms": "ms",
    "euler.hom_ms": "ms",
    "euler.hom_sampled_calls": "count",
    "ybe.qybe_calls": "count",
    "ybe.qybe_ms": "ms",
    "ybe.system_ms": "ms",
    "ybe.qybe_peak_alloc_mb": "MB",
    "census.racks4_ms": "ms",
    "census.weak3_ms": "ms",
    "census.self_ms": "ms",
    "census.verify_calls": "count",
    "census.verify_pass_ratio": "ratio",
    "matseries.closed_form_ms": "ms",
    "matseries.oracle_ms": "ms",
    "matseries.result_bits": "bit",
    "fileio.load_ms": "ms",
    "fileio.save_ms": "ms",
    "fileio.bytes": "B",
    "cli.interp_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_rackwork_ms": "ms",
    **{f"cli.{cmd}_ms": "ms" for cmd in CLI_COMMANDS},
    "trace.spans": "count",
    "trace.span_coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Span:
    __slots__ = ("id", "parent", "fn", "t0", "t1", "info")

    def __init__(self, span_id, parent, fn):
        self.id, self.parent, self.fn = span_id, parent, fn
        self.t0 = self.t1 = 0.0
        self.info = {}

    @property
    def layer(self):
        return self.fn.split(".", 1)[0]

    @property
    def ms(self):
        return (self.t1 - self.t0) * 1e3


def _bits(entries) -> int:
    return max(max(abs(f.numerator).bit_length(), f.denominator.bit_length())
               for f in entries)


def _record_info(fn, span, first, result):
    """Counts taken at the call boundary from the first argument (a
    structure, a carrier size or a path) and the result."""
    if fn in AXIOM_SCANS:
        n = first.n
        triple, pair = AXIOM_SCANS[fn]
        span.info.update(passed=bool(result.passed),
                         instances=triple * n ** 3 + pair * n ** 2)
    elif fn in ENUMERATIONS:
        span.info["n"] = first
    elif fn == "euler.check_exp_homomorphism":
        span.info["n"] = first.n
    elif fn == "matseries.trace_product_sum":
        span.info["bits"] = _bits(result.closed_form.entries())
    elif fn.startswith("fileio.load_"):
        span.info["bytes"] = os.path.getsize(first)
    elif fn.startswith("fileio.") and fn.endswith("_to_json"):
        span.info["bytes"] = len(result.encode("utf-8"))


class Tracer:
    """Installs span-recording wrappers on rackwork's public functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn_name, fn):
        track_memory = fn_name in MEMORY_TRACKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            first = args[0] if args else next(iter(kwargs.values()), None)
            span = Span(len(self.spans),
                        self._stack[-1].id if self._stack else None, fn_name)
            self.spans.append(span)
            self._stack.append(span)
            memory = track_memory and getattr(first, "n", 0) >= MEMORY_MIN_N
            if memory:
                tracemalloc.start()
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                self._stack.pop()
                if memory:
                    span.info["alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            _record_info(fn_name, span, first, result)
            return result

        return wrapper

    def install(self):
        modules = {layer: importlib.import_module(f"rackwork.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                fn_name = f"{layer}.{name}"
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and fn_name not in LEAF_HELPERS):
                    wrappers[id(obj)] = self._wrap(fn_name, obj)
        for mod in [importlib.import_module("rackwork"), *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.id, s.parent, s.fn, s.t0, s.t1, s.info]
                       for s in self.spans], fh)


def sampled_hom_limit() -> int | None:
    """Largest carrier the homomorphism check scans exhaustively, read from
    its docstring; None when the docstring describes no sampling."""
    from rackwork import euler

    doc = euler.check_exp_homomorphism.__doc__ or ""
    match = re.search(r"n <= (\d+)", doc)
    return int(match.group(1)) if match and "sampl" in doc else None


def round_metrics(spans: list[Span], wall_s: float, hom_limit) -> dict:
    """Per-layer metrics over the spans of one traced round."""
    by_id = {s.id: s for s in spans}
    child_ms: dict = {}
    for s in spans:
        if s.parent is not None:
            key = (s.parent, s.layer)
            child_ms[key] = child_ms.get(key, 0.0) + s.ms
            child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms

    def named(*fns):
        return [s for s in spans if s.fn in fns]

    def total(*fns):
        return sum(s.ms for s in named(*fns))

    def parent_fn(s):
        return by_id[s.parent].fn if s.parent in by_id else None

    scans = named(*AXIOM_SCANS)
    scan_ms = sum(s.ms for s in scans)
    qybe = named("ybe.check_qybe")
    enums = named(*ENUMERATIONS)
    verifies = [s for s in scans if parent_fn(s) in ENUMERATIONS]
    tps = named("matseries.trace_product_sum")
    fileio_out = [s for s in spans if s.layer == "fileio"
                  and (s.fn.startswith("fileio.save_") or s.fn.endswith("_to_json"))
                  and not (parent_fn(s) or "").startswith("fileio.")]
    top_ms = sum(s.ms for s in spans if s.parent is None)

    return {
        "tables.validate_group_ms": total("tables.validate_group"),
        "tables.derive_diamond_calls": len(named("tables.derive_diamond")),
        "tables.derive_diamond_ms": total("tables.derive_diamond"),
        "structures.axiom_calls": len(scans),
        "structures.axiom_scan_ms": scan_ms,
        "structures.axiom_fail_scan_ms": sum(s.ms for s in scans
                                             if not s.info.get("passed", True)),
        "structures.instances_per_s": (sum(s.info.get("instances", 0) for s in scans)
                                       / (scan_ms / 1e3) if scan_ms else 0.0),
        "structures.scan_peak_alloc_mb": max((s.info.get("alloc_mb", 0.0) for s in scans),
                                             default=0.0),
        "structures.build_ms": sum(s.ms - child_ms.get(s.id, 0.0)
                                   for s in spans if s.fn in CONSTRUCTORS),
        "trig.check_ms": total("trig.check_trig_properties"),
        "euler.formula_ms": total("euler.check_euler_formula"),
        "euler.hyperbolic_ms": total("euler.check_hyperbolic_factorization"),
        "euler.hom_ms": total("euler.check_exp_homomorphism"),
        "euler.hom_sampled_calls": sum(
            1 for s in named("euler.check_exp_homomorphism")
            if hom_limit is not None and s.info.get("n", 0) > hom_limit),
        "ybe.qybe_calls": len(qybe),
        "ybe.qybe_ms": sum(s.ms for s in qybe),
        "ybe.system_ms": total("ybe.check_yb_system"),
        "ybe.qybe_peak_alloc_mb": max((s.info.get("alloc_mb", 0.0) for s in qybe),
                                      default=0.0),
        "census.racks4_ms": sum(s.ms for s in named("census.enumerate_racks")
                                if s.info.get("n") == 4),
        "census.weak3_ms": sum(s.ms for s in named("census.enumerate_weak_racks")
                               if s.info.get("n") == 3),
        "census.self_ms": sum(s.ms - child_ms.get((s.id, "structures"), 0.0)
                              - child_ms.get((s.id, "tables"), 0.0) for s in enums),
        "census.verify_calls": len(verifies),
        "census.verify_pass_ratio": (sum(s.info.get("passed", False) for s in verifies)
                                     / len(verifies) if verifies else 0.0),
        "matseries.closed_form_ms": sum(s.ms for s in tps) - sum(
            s.ms for s in named("matseries.brute_sum")
            if parent_fn(s) == "matseries.trace_product_sum"),
        "matseries.oracle_ms": total("matseries.brute_sum"),
        "matseries.result_bits": max((s.info.get("bits", 0) for s in tps), default=0),
        "fileio.load_ms": sum(s.ms for s in spans if s.fn.startswith("fileio.load_")),
        "fileio.save_ms": sum(s.ms for s in fileio_out),
        "fileio.bytes": sum(s.info.get("bytes", 0) for s in spans if s.layer == "fileio"),
        **{f"cli.{cmd}_ms": total(f"cli.cmd_{cmd}") for cmd in CLI_COMMANDS},
        "trace.spans": len(spans),
        "trace.span_coverage": top_ms / (wall_s * 1e3) if wall_s else 0.0,
    }


def median_metrics(per_round: list[dict]) -> dict:
    return {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
