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
from typing import TYPE_CHECKING

from .errors import InvalidFile, KindMismatch, RackworkError

# each command imports the modules it calls, after it has read its input
# files, so that a process loads numpy only for a command that uses it and
# a file that is not JSON is refused without it
if TYPE_CHECKING:
    from . import matseries


def _write(text: str) -> None:
    """Write text to stdout and flush it; a closed pipe points stdout at
    os.devnull, so the final flush stays quiet and the exit code is kept."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


class Report:
    """Accumulates named check verdicts plus free-form data, then renders
    as text or JSON.  The exit code is 0 iff every check passed."""

    def __init__(self, command: str, json_mode: bool,
                 all_witnesses: bool = False, labels=None):
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

    def add_report(self, name: str, rep):
        self.add(name, rep.passed, [w for _, w in rep.failures])

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
            _write(json.dumps(doc, indent=2) + "\n")
            return code
        lines = [f"command: {self.command}"]
        lines += [f"{key} = {value}" for key, value in self.data.items()]
        section = "main"
        for c in self.checks:
            if c["section"] != section:
                section = c["section"]
                lines.append(f"-- {section} --")
            tag = "pass" if c["passed"] else "FAIL"
            lines.append(
                f"[{tag}] {c['name']}{self._witness_text(c['witnesses'])}")
        lines += [f"note: {text}" for text in self.notes]
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        _write("\n".join(lines) + "\n")
        return code


# ints up to this many bits print through str(); those above it would pass
# the interpreter's default limit of 4300 digits (about 14280 bits)
_STR_BITS = 8192


def _int_text(n: int) -> str:
    """str(n) in subquadratic time.  Python 3.11's str() on an int is
    quadratic in its length, and refuses more than 4300 digits by default.
    Above _STR_BITS the bits are split in halves, and the halves are joined
    as hi * 2^w + lo in decimal, whose multiplication is subquadratic (as
    CPython 3.12's _pylong does it)."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    import decimal

    powers: dict[int, decimal.Decimal] = {}

    def two_to(w: int) -> decimal.Decimal:
        if w not in powers:
            half = w >> 1
            powers[w] = (decimal.Decimal(1 << w) if w <= _STR_BITS
                         else two_to(half) * two_to(w - half))
        return powers[w]

    def convert(m: int, w: int) -> decimal.Decimal:
        """m as a Decimal, for 0 <= m < 2^w."""
        if w <= _STR_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, w - half) * two_to(half)

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def _rat_text(x) -> str:
    """str(x) for a Fraction, through _int_text."""
    num = _int_text(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_text(x.denominator)}"


def _fmt_mat(m: matseries.Mat2Q) -> str:
    a, b, c, d = map(_rat_text, m.entries())
    return f"[[{a}, {b}], [{c}, {d}]]"


def _mat_json(m: matseries.Mat2Q):
    a, b, c, d = map(_rat_text, m.entries())
    return [[a, b], [c, d]]


# ---------------------------------------------------------------- commands

def cmd_make(args) -> int:
    from . import fileio

    labels = None
    if args.subkind == "conj":
        group, labels = fileio.load_group(args.group)
    elif args.subkind not in ("trivial", "boolean"):
        source, labels = fileio.load_structure(args.file)
    from . import structures, trig

    if args.subkind == "trivial":
        s = structures.trivial_rack(args.n)
    elif args.subkind == "conj":
        s = structures.conjugation_rack(group)
    elif args.subkind == "boolean":
        if args.variant == "implication":
            s = structures.boolean_weak_rack_implication(args.atoms)
        else:
            s = structures.boolean_weak_rack_lattice(args.atoms)
    elif args.subkind == "dual":
        s = structures.dual_rack(source)
    elif args.subkind == "trig-derived":
        ctx = trig.make_trig_context(source, args.e, args.o)
        s = trig.trig_derived_rack(ctx)
    elif args.subkind == "product-dual":
        s = structures.product_with_dual(source)
        if labels is not None:
            labels = [f"({x},{y})" for x in labels for y in labels]

    report = Report("make", args.json, labels=labels)
    report.add(f"constructed {s.kind} on {s.n} elements (verified)", True)
    report.set("kind", s.kind)
    report.set("n", s.n)
    if args.out:
        fileio.save_structure(args.out, s, labels)
        report.set("out", args.out)
        return report.emit()
    # without --out the file body itself goes to stdout, verdict to stderr
    _write(fileio.structure_to_json(s, labels))
    print(f"{s.kind} on {s.n} elements (verified)", file=sys.stderr)
    return 0


def _open(args):
    """The structure file of args, and the command's report, labeled as
    the file is."""
    from . import fileio

    s, labels = fileio.load_structure(args.file)
    return s, Report(args.command, args.json, args.all_witnesses, labels)


def cmd_check(args) -> int:
    s, report = _open(args)
    from . import structures

    report.set("kind", s.kind)
    report.set("n", s.n)
    if s.kind == structures.UNCHECKED:
        verdict, weak_rep = structures.classify(s)
        report.set("classified", verdict)
        report.add_report("rack or weak-rack axioms", weak_rep)
    else:
        report.add_report(f"{s.kind.replace('_', '-')} axioms",
                          structures._axioms(s, s.kind))
    return report.emit()


def _context_from_args(args):
    """The trig context of the structure file, and the command's report
    headed by its verified kind and the base points e, o, pi, u."""
    s, report = _open(args)
    from . import structures, trig

    try:
        structures._verify_kind(s)
    except KindMismatch as exc:
        raise InvalidFile(f"{args.file}: {exc}") from exc
    ctx = trig.make_trig_context(s, args.e, args.o)
    report.set("kind", ctx.s.kind)
    for key in ("e", "o", "pi", "u"):
        report.set(key, report.elem(getattr(ctx, key)))
    return ctx, report


def cmd_trig(args) -> int:
    ctx, report = _context_from_args(args)
    from . import trig

    trep = trig.check_trig_properties(ctx)
    for prop in trep.main + trep.rack_only:
        report.add(prop.name, prop.passed, prop.witnesses,
                   "full-rack-only" if prop.rack_only else "main")
    return report.emit()


def cmd_euler(args) -> int:
    ctx, report = _context_from_args(args)
    from . import euler, structures

    erep = euler.check_euler_formula(ctx)
    rack_only = ctx.s.kind == structures.WEAK_RACK
    for name in (euler.EULER_FORMULA, euler.EULER_IDENTITY):
        wits = [w for clause, w in erep.failures if clause == name]
        report.add(name, not wits, wits, "full-rack-only"
                   if rack_only and name == euler.EULER_IDENTITY else "main")

    report.add("exp_e = cosh o sinh = sinh o cosh",
               euler.check_hyperbolic_factorization(ctx))
    report.add_report("exp_e is a box-product homomorphism",
                      euler.check_exp_homomorphism(ctx.s, ctx.e))
    return report.emit()


def cmd_ybe(args) -> int:
    if args.pairmap is not None:
        if (args.file, args.map, args.e) != (None, None, None):
            raise RackworkError(
                "--pairmap takes no structure file, --map or --e")
        from . import fileio

        f = fileio.load_pair_map(args.pairmap)
        name = f"pair map from {args.pairmap}"
        report = Report("ybe", args.json, args.all_witnesses)
    else:
        if args.file is None:
            raise RackworkError("a structure file or --pairmap is required")
        if args.map is None:
            raise RackworkError("--map is required with a structure file")
        s, report = _open(args)
        from . import euler, trig, ybe

        if args.map in ("exp", "cosh", "sinh"):
            if args.e is None:
                raise RackworkError(f"--e is required for map {args.map!r}")
            f = euler.exp_map(s, args.e)  # also checks e against the carrier
            if args.map != "exp":
                ctx = trig.make_trig_context(s, args.e, 0)  # o is not read
                f = (euler.cosh_map if args.map == "cosh"
                     else euler.sinh_map)(ctx)
            name = f"{args.map} (e={args.e})"
        else:
            f = ybe.w_map(s) if args.map == "w" else ybe.z_map(s)
            name = args.map.upper()

    from . import ybe

    report.set("map", name)
    report.add_report(ybe.EQ_QYBE, ybe.check_qybe(f))
    return report.emit()


def cmd_system(args) -> int:
    s, report = _open(args)
    from . import ybe

    report.set("e", report.elem(args.e))
    for name, rep in ybe.check_yb_system(s, args.e).named():
        report.add_report(name, rep)
    return report.emit()


def _parse_matrix(text: str) -> matseries.Mat2Q:
    from . import matseries

    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise InvalidFile("matrix must be 4 comma-separated rationals p/q")
    try:
        return matseries.mat2(*parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidFile(f"bad rational in matrix: {exc}") from exc


def cmd_mat(args) -> int:
    from . import matseries

    a = _parse_matrix(args.a)
    report = Report("mat", args.json)
    d = matseries.det(a)
    if d != 1:
        report.set("det", _rat_text(d))
        report.add("det(A) = 1", False)
        return report.emit()
    report.add("det(A) = 1", True)

    result = matseries.trace_product_sum(a, args.n, with_oracle=args.brute)
    fmt = _mat_json if args.json else _fmt_mat
    report.set("factors", [_rat_text(f) for f in result.factors])
    report.set("scalar", _rat_text(result.scalar))
    report.set("power_exponent", result.power_exponent)
    report.set("power_matrix", fmt(result.power))
    report.set("closed_form", fmt(result.closed_form))
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
            report.set("oracle", fmt(result.oracle))
            equal = result.oracle_matches
            report.add("closed form EQUALS brute-force sum", bool(equal))
    return report.emit()


def cmd_enum(args) -> int:
    from . import census, fileio

    report = Report("enum", args.json)
    if args.weak:
        res = census.enumerate_weak_racks(args.n)
        what = "weak racks"
    else:
        res = census.enumerate_racks(args.n)
        what = "racks"
    report.set(what, res.count)
    report.set("isomorphism classes", res.iso_count)
    if args.keep is not None:
        os.makedirs(args.keep, exist_ok=True)
        stem = "weak" if args.weak else "rack"
        width = max(3, len(str(res.count)))
        for i, s in enumerate(res.structures):
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
    witnessed = argparse.ArgumentParser(add_help=False, parents=[common])
    witnessed.add_argument(
        "--all-witnesses", action="store_true",
        help="print every collected witness, not just the first")

    parser = argparse.ArgumentParser(
        prog="rackwork",
        description="Verification toolkit for finite self-distributive "
                    "structures and exact matrix power sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # common flags on the subkinds only: their defaults would overwrite make's
    p_make = sub.add_parser("make", help="construct a structure and write its file")
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
                  help="rack with ab = cos b, a<>b = sin a at base point e")
    sp.add_argument("file")
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--o", type=int, required=True)
    sp = add_make("product-dual",
                  help="box product of a structure file with its dual")
    sp.add_argument("file")

    p = sub.add_parser("check", parents=[witnessed],
                       help="verify the axioms a structure file claims")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    for name, fn in (("trig", cmd_trig), ("euler", cmd_euler)):
        p = sub.add_parser(name, parents=[witnessed])
        p.add_argument("file")
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--o", type=int, required=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("ybe", parents=[witnessed],
                       help="quantum Yang-Baxter check for one pair map")
    p.add_argument("file", nargs="?")
    p.add_argument("--map", choices=("exp", "cosh", "sinh", "w", "z"))
    p.add_argument("--e", type=int)
    p.add_argument("--pairmap", help="explicit pair-map JSON file")
    p.set_defaults(func=cmd_ybe)

    p = sub.add_parser("system", parents=[witnessed],
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
        _write("")  # flush the help text
        return int(exc.code or 0)
    try:
        return args.func(args)
    except KindMismatch as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (RackworkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
