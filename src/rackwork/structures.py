"""Racks and weak racks: axiom checking and the standard constructions.

A structure is a carrier with two operations, the main one written a.b or ab
and a companion written a<>b ("diamond").  Full racks satisfy

    a(bc) = (ab)(ac),   (ab)<>a = b,   a(b<>a) = b,
    (c<>b)<>a = (c<>a)<>(b<>a),

weak racks keep both self-distributivities but replace the two cancellation
laws by the single compatibility (ab)<>a = a(b<>a).  All checks here are
exhaustive over the finite carrier and report machine-readable witnesses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CarrierTooLarge, IndexOutOfRange, KindMismatch, RackworkError, SizeMismatch,
)
from .tables import (
    GroupTable, OpTable, _at, _narrow, _scan, derive_diamond, is_left_invertible,
)

RACK = "rack"
WEAK_RACK = "weak_rack"
UNCHECKED = "unchecked"
KINDS = (RACK, WEAK_RACK, UNCHECKED)

# axiom identifiers, used verbatim in reports
AX_LEFT_DISTRIB = "a(bc) = (ab)(ac)"
AX_CANCEL_OUT = "(ab) diamond a = b"
AX_CANCEL_IN = "a(b diamond a) = b"
AX_RIGHT_DISTRIB = "(c diamond b) diamond a = (c diamond a) diamond (b diamond a)"
AX_WEAK_COMPAT = "(ab) diamond a = a(b diamond a)"

WITNESS_CAP = 32

CARRIER_CAP = 256  # Boolean, trivial, product and loaded carriers


def max_carrier(default: int) -> int:
    """Carrier cap, raisable (never lowered) via RACKWORK_MAX_N."""
    raw = os.environ.get("RACKWORK_MAX_N")
    if raw is None:
        return default
    try:
        return max(default, int(raw))
    except ValueError:
        raise RackworkError(
            f"RACKWORK_MAX_N must be an integer, got {raw!r}") from None


def _capped(n: int, form: str) -> int:
    """n, the size of a carrier built as `form`, if it is within the cap."""
    if n > max_carrier(CARRIER_CAP):
        raise CarrierTooLarge(f"carrier {form} = {n} exceeds cap")
    return n


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of an exhaustive axiom scan.

    Failures are (axiom id, witness) pairs in lexicographic witness order,
    capped per call; witnesses list the bound variables of the axiom in
    alphabetical order, e.g. (a, b, c) for the triple axioms.
    """

    passed: bool
    failures: list = field(default_factory=list)


def _report(laws, n: int, cap: int) -> AxiomReport:
    """Scan each (name, arity, law) in turn, up to cap witnesses apiece."""
    failures = [(name, w) for name, k, law in laws for w in _scan(law, n, k, cap)]
    return AxiomReport(passed=not failures, failures=failures)


@dataclass(frozen=True)
class Structure:
    """A carrier with a dot table, a diamond table and a kind tag.

    Plain record: the named constructors below (and make_structure) are the
    verifying entry points; a kind of 'rack' or 'weak_rack' obtained from
    them is backed by an exhaustive axiom scan.
    """

    n: int
    dot: OpTable
    diamond: OpTable
    kind: str

    def __post_init__(self):
        if self.dot.n != self.n or self.diamond.n != self.n:
            raise SizeMismatch("dot/diamond tables disagree with carrier size")
        if self.kind not in KINDS:
            raise KindMismatch(f"unknown kind {self.kind!r}")


def _left_distrib(d):
    """a(bc) = (ab)(ac); d, narrowed, stands for d[b, c]."""
    return lambda a, b, c: _at(d, a, d) != _at(d, _at(d, a, b), _at(d, a, c))


def _right_distrib(e):
    """(c<>b)<>a = (c<>a)<>(b<>a) is a(bc) = (ab)(ac) for the operation
    a, c -> c<>a, with the same (a, b, c): one kernel, the same witnesses."""
    return _left_distrib(_narrow(np.swapaxes(e, -1, -2)))


def _cancellation(d, e):
    """The two cancellation laws, (ab)<>a = b and a(b<>a) = b."""
    return ((AX_CANCEL_OUT, 2, lambda a, b: _at(e, _at(d, a, b), a) != b),
            (AX_CANCEL_IN, 2, lambda a, b: _at(d, a, _at(e, b, a)) != b))


def _compat(d, e):
    """(ab)<>a = a(b<>a), which weak racks keep in place of cancellation."""
    return lambda a, b: _at(e, _at(d, a, b), a) != _at(d, a, _at(e, b, a))


def _rack_laws(d, e):
    """The four rack axioms as (name, arity, law) on a dot table d and a
    diamond table e, or on stacks of them (see tables._holds)."""
    d, e = _narrow(d), _narrow(e)
    return ((AX_LEFT_DISTRIB, 3, _left_distrib(d)),
            *_cancellation(d, e),
            (AX_RIGHT_DISTRIB, 3, _right_distrib(e)))


def _weak_rack_laws(d, e):
    """The three weak-rack axioms, as _rack_laws gives the rack axioms."""
    d, e = _narrow(d), _narrow(e)
    return ((AX_LEFT_DISTRIB, 3, _left_distrib(d)),
            (AX_WEAK_COMPAT, 2, _compat(d, e)),
            (AX_RIGHT_DISTRIB, 3, _right_distrib(e)))


def _hom(f, t1, t2):
    """f(a t1 b) = f(a) t2 f(b) for an int64 map f and narrowed tables t1
    on its domain and t2 on its codomain."""
    return lambda a, b: f[_at(t1, a, b)] != _at(t2, f[a], f[b])


def check_rack_axioms(s: Structure, max_witnesses: int = WITNESS_CAP) -> AxiomReport:
    """Exhaustively test the four full-rack axioms (triple axioms over all
    n^3 triples, cancellation axioms over all n^2 pairs)."""
    laws = _rack_laws(s.dot.entries, s.diamond.entries)
    return _report(laws, s.n, max_witnesses)


def check_weak_rack_axioms(s: Structure, max_witnesses: int = WITNESS_CAP) -> AxiomReport:
    """Exhaustively test the three weak-rack axioms."""
    laws = _weak_rack_laws(s.dot.entries, s.diamond.entries)
    return _report(laws, s.n, max_witnesses)


def _cancellation_report(s: Structure) -> AxiomReport:
    """The first failure, if any, of each cancellation law on s: O(n^2)."""
    laws = _cancellation(_narrow(s.dot.entries), _narrow(s.diamond.entries))
    return _report(laws, s.n, 1)


def classify(s: Structure) -> tuple[str, AxiomReport]:
    """The strongest kind s satisfies (RACK, WEAK_RACK or "neither") and
    its weak-rack report.

    A rack is exactly a weak rack whose cancellation laws hold (they give
    (ab)<>a = b = a(b<>a)), so each triple law is scanned once, where
    check_rack_axioms and check_weak_rack_axioms would scan it twice.
    """
    weak = check_weak_rack_axioms(s)
    if not weak.passed:
        return "neither", weak
    cancel = _cancellation_report(s)
    return (RACK if cancel.passed else WEAK_RACK), weak


def _verify_kind(s: Structure) -> None:
    if s.kind == RACK:
        rep = check_rack_axioms(s, max_witnesses=1)
    elif s.kind == WEAK_RACK:
        rep = check_weak_rack_axioms(s, max_witnesses=1)
    else:
        return
    if not rep.passed:
        axiom, wit = rep.failures[0]
        raise KindMismatch(f"claimed {s.kind} violates {axiom!r} at {wit}")


def make_structure(dot: OpTable, diamond: OpTable, kind: str = UNCHECKED) -> Structure:
    """Assemble a structure; a non-unchecked kind is verified eagerly."""
    s = Structure(dot.n, dot, diamond, kind)
    _verify_kind(s)
    return s


def _from_arrays(dot: np.ndarray, diamond: np.ndarray, kind: str) -> Structure:
    n = dot.shape[0]
    return make_structure(OpTable(n, dot), OpTable(n, diamond), kind)


def conjugation_rack(g: GroupTable) -> Structure:
    """Rack on a group carrier: a.b = a b a^-1 and a<>b = b^-1 a b
    (the left argument conjugated by the right)."""
    m = g.mul.entries
    inv = g.inv
    rng = np.arange(g.n)
    dot = m[m, inv[:, None]]                       # (a b) a^-1
    t = m[inv[None, :], rng[:, None]]              # t[a, b] = b^-1 a
    diamond = m[t, rng[None, :]]                   # (b^-1 a) b
    return _from_arrays(dot, diamond, RACK)


def trivial_rack(n: int) -> Structure:
    """The self-dual rack with ab = b and a<>b = a."""
    if n < 1:
        raise SizeMismatch("carrier size must be positive")
    rng = np.arange(_capped(n, "n"))
    dot = np.tile(rng, (n, 1))
    diamond = np.repeat(rng, n).reshape(n, n)
    return _from_arrays(dot, diamond, RACK)


def _boolean_carrier(k: int) -> int:
    if k < 0:
        raise SizeMismatch("atom count must be non-negative")
    return _capped(1 << k, f"2^{k}")


def boolean_weak_rack_implication(k: int) -> Structure:
    """Weak rack on the subsets of k atoms: ab = a -> b, a<>b = a \\ b."""
    n = _boolean_carrier(k)
    mask = n - 1
    a = np.arange(n)[:, None]
    b = np.arange(n)[None, :]
    return _from_arrays((~a | b) & mask, a & ~b & mask, WEAK_RACK)


def boolean_weak_rack_lattice(k: int) -> Structure:
    """Weak rack on the subsets of k atoms: ab = a | b, a<>b = a & b."""
    n = _boolean_carrier(k)
    a = np.arange(n)[:, None]
    b = np.arange(n)[None, :]
    return _from_arrays(a | b, a & b, WEAK_RACK)


def _opposite(s: Structure) -> Structure:
    """s with dot (a, b) -> b<>a and diamond (a, b) -> b.a, kind unverified."""
    return Structure(s.n, OpTable(s.n, s.diamond.entries.T),
                     OpTable(s.n, s.dot.entries.T), s.kind)


def dual_rack(s: Structure) -> Structure:
    """Opposite structure: new dot (a, b) -> b<>a and new diamond
    (a, b) -> b.a; an involution.  The kind is re-verified on the dual."""
    dual = _opposite(s)
    _verify_kind(dual)
    return dual


def direct_product(s1: Structure, s2: Structure) -> Structure:
    """Componentwise product on pairs, pair (x, y) encoded as x*n2 + y;
    the n1*n2 pairs are subject to the carrier cap."""
    if s1.kind != s2.kind:
        raise KindMismatch(f"cannot combine {s1.kind} with {s2.kind}")
    n2 = s2.n
    m = _capped(s1.n * n2, f"{s1.n} x {n2}")

    def combine(t1, t2):
        out = t1[:, None, :, None] * n2 + t2[None, :, None, :]
        return np.ascontiguousarray(out.reshape(m, m))

    return _from_arrays(
        combine(s1.dot.entries, s2.dot.entries),
        combine(s1.diamond.entries, s2.diamond.entries),
        s1.kind,
    )


def product_with_dual(s: Structure) -> Structure:
    """The direct product of a structure with its dual: its main operation
    is the box product (x,y)(u,v) = (xu, v<>y) and its companion is
    ((x,y),(u,v)) -> (x<>u, vy).  The kind is verified on the product
    only, so a mis-tagged s gets the product's witness."""
    return direct_product(s, _opposite(s))


def check_morphism(f, s1: Structure, s2: Structure,
                   max_witnesses: int = WITNESS_CAP) -> AxiomReport:
    """Check that f: carrier(s1) -> carrier(s2) respects both operations:
    f(a.b) = f(a).f(b) and f(a<>b) = f(a)<>f(b) over all pairs."""
    F = np.asarray(list(f), dtype=np.int64)
    if F.shape != (s1.n,):
        raise SizeMismatch(f"map must list {s1.n} images, got shape {F.shape}")
    if F.size and (F.min() < 0 or F.max() >= s2.n):
        raise IndexOutOfRange("map image out of range for the target carrier")
    laws = (
        ("f(ab) = f(a)f(b)", 2,
         _hom(F, _narrow(s1.dot.entries), _narrow(s2.dot.entries))),
        ("f(a diamond b) = f(a) diamond f(b)", 2,
         _hom(F, _narrow(s1.diamond.entries), _narrow(s2.diamond.entries))),
    )
    return _report(laws, s1.n, max_witnesses)


def derived_diamond_matches(s: Structure) -> bool:
    """In a rack the diamond table is forced by the dot table; check the
    stored table equals the derived one."""
    if not is_left_invertible(s.dot):
        return False
    return derive_diamond(s.dot) == s.diamond
