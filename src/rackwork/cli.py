"""Command-line front end.

Subcommands: make, check, trig, euler, ybe, system, mat, enum.  Reports go
to standard output (text, or a schema-stable JSON object with --json);
errors go to standard error.  Exit codes: 0 every requested check passed,
1 at least one mathematical check failed, 2 unusable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import census, euler, fileio, matseries, structures, trig, ybe
from .errors import InvalidFile, KindMismatch, RackworkError


class Report:
    """Accumulates named check verdicts plus free-form data, then renders
    as text or JSON.  The exit code is 0 iff every check passed."""

    def __init__(self, command: str, json_mode: bool, all_witnesses: bool,
                 labels=None):
        self.command = command
        self.json_mode = json_mode
        self.all_witnesses = all_witnesses
        self.labels = labels
        self.checks: list[dict] = []
        self.data: dict = {}
        self.notes: list[str] = []

    def elem(self, i: int) -> str:
        if self.labels is not None and 0 <= i < len(self.labels):
            return f"{i}({self.labels[i]})"
        return str(i)

    def add(self, name: str, passed: bool, witnesses=(), section: str = "main"):
        self.checks.append({
            "name": name,
            "passed": bool(passed),
            "section": section,
            "witnesses": [list(map(int, w)) for w in witnesses],
        })

    def add_report(self, name: str, rep, section: str = "main"):
        self.add(name, rep.passed, [w for _, w in rep.failures], section)

    def set(self, key: str, value):
        self.data[key] = value

    def note(self, text: str):
        self.notes.append(text)

    @property
    def ok(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def _witness_text(self, witnesses) -> str:
        if not witnesses:
            return ""
        shown = witnesses if self.all_witnesses else witnesses[:1]
        parts = ["(" + ", ".join(self.elem(v) for v in w) + ")" for w in shown]
        more = len(witnesses) - len(shown)
        tail = f" (+{more} more)" if more > 0 else ""
        return "  witness " + ", ".join(parts) + tail

    def emit(self) -> int:
        code = 0 if self.ok else 1
        if self.json_mode:
            doc = {
                "command": self.command,
                "ok": self.ok,
                "exit_code": code,
                "checks": self.checks,
                "data": self.data,
                "notes": self.notes,
            }
            print(json.dumps(doc, indent=2))
            return code
        print(f"command: {self.command}")
        for key, value in self.data.items():
            print(f"{key} = {value}")
        section = "main"
        for c in self.checks:
            if c["section"] != section:
                section = c["section"]
                print(f"-- {section} --")
            tag = "pass" if c["passed"] else "FAIL"
            print(f"[{tag}] {c['name']}{self._witness_text(c['witnesses'])}")
        for text in self.notes:
            print(f"note: {text}")
        print(f"result: {'PASS' if self.ok else 'FAIL'}")
        return code


def _fmt_mat(m: matseries.Mat2Q) -> str:
    return f"[[{m.a}, {m.b}], [{m.c}, {m.d}]]"


def _mat_json(m: matseries.Mat2Q):
    return [[str(m.a), str(m.b)], [str(m.c), str(m.d)]]


# ---------------------------------------------------------------- commands

def cmd_make(args) -> int:
    labels = None
    if args.subkind == "trivial":
        s = structures.trivial_rack(args.n)
    elif args.subkind == "conj":
        group, labels = fileio.load_group(args.group)
        s = structures.conjugation_rack(group)
    elif args.subkind == "boolean":
        if args.variant == "implication":
            s = structures.boolean_weak_rack_implication(args.atoms)
        else:
            s = structures.boolean_weak_rack_lattice(args.atoms)
    elif args.subkind == "dual":
        loaded = fileio.load_structure(args.file)
        s = structures.dual_rack(loaded.structure)
        labels = loaded.labels
    elif args.subkind == "trig-derived":
        loaded = fileio.load_structure(args.file)
        ctx = trig.make_trig_context(loaded.structure, args.e, args.o)
        s = trig.trig_derived_rack(ctx)
        labels = loaded.labels
    elif args.subkind == "product-dual":
        loaded = fileio.load_structure(args.file)
        s = structures.product_with_dual(loaded.structure)
        if loaded.labels is not None:
            labels = [f"({x},{y})" for x in loaded.labels
                      for y in loaded.labels]
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidFile(f"unknown make subkind {args.subkind!r}")

    text = fileio.structure_to_json(s, labels)
    report = Report("make", args.json, args.all_witnesses, labels)
    report.add(f"constructed {s.kind} on {s.n} elements (verified)", True)
    report.set("kind", s.kind)
    report.set("n", s.n)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        report.set("out", args.out)
        return report.emit()
    # without --out the file body itself goes to stdout, verdict to stderr
    sys.stdout.write(text)
    print(f"{s.kind} on {s.n} elements (verified)", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    loaded = fileio.load_structure(args.file)
    s = loaded.structure
    report = Report("check", args.json, args.all_witnesses, loaded.labels)
    report.set("kind", s.kind)
    report.set("n", s.n)
    if s.kind == structures.RACK:
        report.add_report("rack axioms", structures.check_rack_axioms(s))
    elif s.kind == structures.WEAK_RACK:
        report.add_report("weak-rack axioms",
                          structures.check_weak_rack_axioms(s))
    else:
        verdict, weak_rep = structures.classify(s)
        report.set("classified", verdict)
        report.add("rack or weak-rack axioms", verdict != "neither",
                   [w for _, w in weak_rep.failures])
    return report.emit()


def _context_from_args(args):
    """The trig context of the structure file, and the command's report
    headed by the kind and the base points e, o, pi, u.  A file tagged
    rack must pass the cancellation laws (O(n^2)) to be reported as one;
    else it is unusable input."""
    loaded = fileio.load_structure(args.file)
    if loaded.structure.kind == structures.RACK:
        cancel = structures._cancellation_report(loaded.structure)
        if not cancel.passed:
            axiom, wit = cancel.failures[0]
            raise InvalidFile(
                f"{args.file}: claimed rack violates {axiom!r} at {wit}")
    ctx = trig.make_trig_context(loaded.structure, args.e, args.o)
    report = Report(args.command, args.json, args.all_witnesses, loaded.labels)
    report.set("kind", ctx.s.kind)
    for key in ("e", "o", "pi", "u"):
        report.set(key, report.elem(getattr(ctx, key)))
    return ctx, report


def cmd_trig(args) -> int:
    ctx, report = _context_from_args(args)
    trep = trig.check_trig_properties(ctx)
    for prop in trep.main:
        report.add(prop.name, prop.passed, prop.witnesses)
    for prop in trep.rack_only:
        report.add(prop.name, prop.passed, prop.witnesses,
                   section="full-rack-only")
    return report.emit()


def cmd_euler(args) -> int:
    ctx, report = _context_from_args(args)
    erep = euler.check_euler_formula(ctx)
    clauses = {euler.EULER_FORMULA: [], euler.EULER_IDENTITY: []}
    for name, w in erep.failures:
        clauses[name].append(w)
    identity_section = ("full-rack-only"
                        if euler.euler_identity_is_rack_only(ctx) else "main")
    report.add(euler.EULER_FORMULA, not clauses[euler.EULER_FORMULA],
               clauses[euler.EULER_FORMULA])
    report.add(euler.EULER_IDENTITY, not clauses[euler.EULER_IDENTITY],
               clauses[euler.EULER_IDENTITY], section=identity_section)

    report.add("exp_e = cosh o sinh = sinh o cosh",
               euler.check_hyperbolic_factorization(ctx))
    report.add_report("exp_e is a box-product homomorphism",
                      euler.check_exp_homomorphism(ctx.s, ctx.e))
    return report.emit()


def cmd_ybe(args) -> int:
    if args.pairmap is not None:
        f = fileio.load_pair_map(args.pairmap)
        name = f"pair map from {args.pairmap}"
        labels = None
    else:
        if args.file is None:
            raise RackworkError("a structure file or --pairmap is required")
        if args.map is None:
            raise RackworkError("--map is required with a structure file")
        loaded = fileio.load_structure(args.file)
        labels = loaded.labels
        s = loaded.structure
        if args.map in ("exp", "cosh", "sinh"):
            if args.e is None:
                raise RackworkError(f"--e is required for map {args.map!r}")
            ctx = trig.make_trig_context(s, args.e, 0)
            f = {"exp": lambda: euler.exp_map(s, args.e),
                 "cosh": lambda: euler.cosh_map(ctx),
                 "sinh": lambda: euler.sinh_map(ctx)}[args.map]()
            name = f"{args.map} (e={args.e})"
        else:
            f = ybe.w_map(s) if args.map == "w" else ybe.z_map(s)
            name = args.map.upper()

    report = Report("ybe", args.json, args.all_witnesses, labels)
    report.set("map", name)
    report.add_report(ybe.EQ_QYBE, ybe.check_qybe(f))
    return report.emit()


def cmd_system(args) -> int:
    loaded = fileio.load_structure(args.file)
    report = Report("system", args.json, args.all_witnesses, loaded.labels)
    report.set("e", report.elem(args.e))
    sys_rep = ybe.check_yb_system(loaded.structure, args.e)
    for name, rep in sys_rep.named():
        report.add_report(name, rep)
    return report.emit()


def _parse_matrix(text: str) -> matseries.Mat2Q:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise InvalidFile("matrix must be 4 comma-separated rationals p/q")
    try:
        return matseries.mat2(*parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidFile(f"bad rational in matrix: {exc}") from exc


def cmd_mat(args) -> int:
    # exact entries pass the interpreter's default limit of 4300 digits for
    # int-to-text conversion from level 9 up (Python 3.10.7 and later)
    if not hasattr(sys, "set_int_max_str_digits"):
        return _mat_report(args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _mat_report(args)
    finally:
        sys.set_int_max_str_digits(limit)


def _mat_report(args) -> int:
    a = _parse_matrix(args.a)
    report = Report("mat", args.json, args.all_witnesses)
    d = matseries.det(a)
    if d != 1:
        report.set("det", str(d))
        report.add("det(A) = 1", False)
        return report.emit()
    report.add("det(A) = 1", True)

    result = matseries.trace_product_sum(a, args.n, with_oracle=args.brute)
    report.set("factors", [str(f) for f in result.factors])
    report.set("scalar", str(result.scalar))
    report.set("power_exponent", result.power_exponent)
    report.set("power_matrix", _fmt_mat(result.power)
               if not args.json else _mat_json(result.power))
    report.set("closed_form", _fmt_mat(result.closed_form)
               if not args.json else _mat_json(result.closed_form))
    # sum = scalar * power_matrix; the determinant of the power pins every
    # entry of a printed copy, so a transcription off by one is detectable
    report.add(f"det(A^{result.power_exponent}) = 1 "
               "(unimodularity consistency for the power matrix)",
               matseries.det(result.power) == 1)
    if args.brute:
        if result.oracle is None:
            report.note(f"brute oracle unavailable for levels above "
                        f"{matseries.ORACLE_MAX_LEVEL}")
        else:
            report.set("oracle", _fmt_mat(result.oracle)
                       if not args.json else _mat_json(result.oracle))
            equal = result.oracle_matches
            report.add("closed form EQUALS brute-force sum", bool(equal))
    return report.emit()


def cmd_enum(args) -> int:
    report = Report("enum", args.json, args.all_witnesses)
    keep = args.keep is not None
    if args.weak:
        res = census.enumerate_weak_racks(args.n, keep=keep)
        what = "weak racks"
    else:
        res = census.enumerate_racks(args.n, keep=keep)
        what = "racks"
    report.set(what, res.count)
    report.set("isomorphism classes", res.iso_count)
    if keep:
        os.makedirs(args.keep, exist_ok=True)
        stem = "weak" if args.weak else "rack"
        width = max(3, len(str(res.count)))
        for i, s in enumerate(res.structures or []):
            path = os.path.join(args.keep,
                                f"{stem}_n{args.n}_{i:0{width}d}.json")
            fileio.save_structure(path, s)
        report.set("kept", args.keep)
    report.add(f"enumerated {what} on {args.n} elements", True)
    return report.emit()


# ----------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    common.add_argument("--all-witnesses", action="store_true",
                        help="print every collected witness, not just the first")

    parser = argparse.ArgumentParser(
        prog="rackwork",
        description="Verification toolkit for finite self-distributive "
                    "structures and exact matrix power sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_make = sub.add_parser("make", parents=[common],
                            help="construct a structure and write its file")
    make_sub = p_make.add_subparsers(dest="subkind", required=True)

    def add_make(name, **kwargs):
        sp = make_sub.add_parser(name, parents=[common], **kwargs)
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.set_defaults(func=cmd_make, subkind=name)
        return sp

    sp = add_make("trivial", help="rack with ab = b")
    sp.add_argument("--n", type=int, required=True)
    sp = add_make("conj", help="conjugation rack of a group file")
    sp.add_argument("--group", required=True)
    sp = add_make("boolean", help="weak rack on the subsets of k atoms")
    sp.add_argument("--atoms", type=int, required=True)
    sp.add_argument("--variant", choices=("implication", "lattice"),
                    required=True)
    sp = add_make("dual", help="opposite structure of a structure file")
    sp.add_argument("file")
    sp = add_make("trig-derived",
                  help="rack with ab = cos b, a<>b = sin a over a rack file")
    sp.add_argument("file")
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--o", type=int, required=True)
    sp = add_make("product-dual",
                  help="box product of a structure file with its dual")
    sp.add_argument("file")

    p = sub.add_parser("check", parents=[common],
                       help="verify the axioms a structure file claims")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    for name, fn in (("trig", cmd_trig), ("euler", cmd_euler)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("file")
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--o", type=int, required=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("ybe", parents=[common],
                       help="quantum Yang-Baxter check for one pair map")
    p.add_argument("file", nargs="?")
    p.add_argument("--map", choices=("exp", "cosh", "sinh", "w", "z"))
    p.add_argument("--e", type=int)
    p.add_argument("--pairmap", help="explicit pair-map JSON file")
    p.set_defaults(func=cmd_ybe)

    p = sub.add_parser("system", parents=[common],
                       help="check the five-equation W/exp/Z system")
    p.add_argument("file")
    p.add_argument("--e", type=int, required=True)
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("mat", parents=[common],
                       help="trace-product closed form for sums of powers")
    p.add_argument("--a", required=True,
                   help="matrix as 4 comma-separated rationals, row-major")
    p.add_argument("--n", type=int, required=True,
                   help="level: the sum runs over 3^n terms")
    p.add_argument("--brute", action="store_true",
                   help="also run the brute-force oracle and compare")
    p.set_defaults(func=cmd_mat)

    p = sub.add_parser("enum", parents=[common],
                       help="enumerate racks or weak racks on a tiny carrier")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weak", action="store_true")
    p.add_argument("--keep", help="directory for the enumerated structures")
    p.set_defaults(func=cmd_enum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except KindMismatch as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except RackworkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
