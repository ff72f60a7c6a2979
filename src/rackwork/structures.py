"""Racks and weak racks: axiom checking and the standard constructions.

A structure is a carrier with two operations, the main one written a.b or ab
and a companion written a<>b ("diamond").  Full racks satisfy

    a(bc) = (ab)(ac),   (ab)<>a = b,   a(b<>a) = b,
    (c<>b)<>a = (c<>a)<>(b<>a),

weak racks keep both self-distributivities but replace the two cancellation
laws by the single compatibility (ab)<>a = a(b<>a).  _TERMS states these
and two more identities as terms, which _compile turns into gathers;
kinds, trig, euler and the census bind them by name through _named, and
the census search prunes on the two sides of a(bc) = (ab)(ac) from
_sides.  All checks are exhaustive over the finite carrier and report
machine-readable witnesses.  A direct product keeps its factors, and a
law that holds on every factor is reported, and a constructor's kind
verified, from them with no scan of the product (Birkhoff's theorem: an
identity holds on a product exactly when it holds on each factor); any
other law is scanned on the structure itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CarrierTooLarge, KindMismatch, RackworkError, SizeMismatch,
)
from .tables import (
    GroupTable, OpTable, _array, _at, _indices, _invert_rows, _narrow, _scan,
)

RACK = "rack"
WEAK_RACK = "weak_rack"
UNCHECKED = "unchecked"
KINDS = (RACK, WEAK_RACK, UNCHECKED)


def _dot(x, y):
    return ("dot", x, y)


def _dia(x, y):
    return ("dia", x, y)


# The section's seven identities, each stated once as a pair of terms over
# the variables a, b, c: a term is a variable or (op, x, y), for x.y or x<>y.
# Their names, gathers and trig properties are read off these pairs.
_TERMS = (
    (_dot("a", _dot("b", "c")), _dot(_dot("a", "b"), _dot("a", "c"))),
    (_dot("a", _dia("c", "b")), _dia(_dot("a", "c"), _dot("a", "b"))),
    (_dia(_dot("b", "c"), "a"), _dot(_dia("b", "a"), _dia("c", "a"))),
    (_dia(_dia("c", "b"), "a"), _dia(_dia("c", "a"), _dia("b", "a"))),
    (_dia(_dot("a", "b"), "a"), "b"),
    (_dot("a", _dia("b", "a")), "b"),
    (_dia(_dot("a", "b"), "a"), _dot("a", _dia("b", "a"))),
)


def _render(term) -> str:
    """A term, or a law (a pair of terms), as reports print it: x.y as xy,
    x<>y as x diamond y, compound operands in parentheses."""
    if isinstance(term, str):
        return term
    if len(term) == 2:
        return " = ".join(map(_render, term))
    x, y = (v if isinstance(v, str) else f"({_render(v)})" for v in term[1:])
    return x + {"dot": "", "dia": " diamond "}[term[0]] + y


def _variables(term) -> tuple[str, ...]:
    """The variables of a term, or of a law, in order of first appearance."""
    if isinstance(term, str):
        return (term,)
    found = (v for side in term[-2:] for v in _variables(side))
    return tuple(dict.fromkeys(found))


def _ops(term) -> frozenset[str]:
    """The operations, "dot" and "dia", that a term, or a law, applies."""
    if isinstance(term, str):
        return frozenset()
    head = {term[0]} if len(term) == 3 else set()
    return frozenset(head.union(*map(_ops, term[-2:])))


# axiom identifiers, used verbatim in reports
(AX_LEFT_DISTRIB, AX_DOT_DIAMOND, AX_DIAMOND_DOT, AX_RIGHT_DISTRIB,
 AX_CANCEL_OUT, AX_CANCEL_IN, AX_WEAK_COMPAT) = map(_render, _TERMS)

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

    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _failures(laws, n: int, cap: int):
    """(name, witness) for each (name, arity, law) in turn, up to cap
    witnesses apiece, lazily: a law is scanned once those before it are read."""
    return ((name, w) for name, k, law in laws for w in _scan(law, n, k, cap))


def _combine(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """The componentwise table of t1 and t2 on pairs (x, y) = x*n2 + y.
    Row (x, y) is t1's row x, each entry repeated n2 times and scaled by
    n2, plus t2's row y tiled n1 times, so that the broadcast add runs
    along rows of n1*n2 cells in either factor order."""
    n1, n2 = len(t1), len(t2)
    rows1 = np.repeat(t1 * n2, n2, axis=1)
    rows2 = np.tile(t2, (1, n1))
    return (rows1[:, None, :] + rows2[None, :, :]).reshape(n1 * n2, -1)


@dataclass(frozen=True)
class Structure:
    """A carrier with a dot table, a diamond table and a kind tag.

    Plain record: the named constructors below (and make_structure) are the
    verifying entry points; a kind of 'rack' or 'weak_rack' obtained from
    them is backed by an exhaustive axiom scan of the structure, of its
    factors (direct_product, product_with_dual, the Boolean weak racks), or
    by the vector check of trig.trig_derived_rack.

    `factors` is (s1, s2) on a direct product built by _product and ()
    on any other structure, a loaded or dual one included.  Equality and
    repr ignore it.  The tables must be the combine of the factors, which
    is checked here, so dataclasses.replace cannot keep stale factors.  A
    report reads a law that holds on every factor off the factors (see
    _law_failures).
    """

    n: int
    dot: OpTable
    diamond: OpTable
    kind: str
    factors: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.dot.n != self.n or self.diamond.n != self.n:
            raise SizeMismatch("dot/diamond tables disagree with carrier size")
        if self.kind not in KINDS:
            raise KindMismatch(f"unknown kind {self.kind!r}")
        if self.factors:
            s1, s2 = self.factors
            if not (np.array_equal(self.dot.entries, _combine(
                        s1.dot.entries, s2.dot.entries))
                    and np.array_equal(self.diamond.entries, _combine(
                        s1.diamond.entries, s2.diamond.entries))):
                raise RackworkError(
                    "tables are not the product of the factors")


def _gather(term, axes):
    """term as a function of the tables (d, t), t the transposed diamond,
    and the values v of `axes`: x.y is _at(d, x, y) and x<>y is _at(t, y, x).
    A subterm over the axes after the first, in order, is the table itself
    where the grids of those two axes span it, as _scan's and _holds's do;
    where they do not, at a head that fixes one of them or on the census's
    filled-row grids, it is gathered."""
    if isinstance(term, str):
        i = axes.index(term)
        return lambda tabs, v: v[i]
    op, x, y = term
    k, i, j = (0, x, y) if op == "dot" else (1, y, x)
    if (i, j) == axes[1:]:
        def table(tabs, v):
            t, vi, vj = tabs[k], v[1], v[2]
            if type(vi) is np.ndarray and vi.size == vj.size == t.shape[-1]:
                return t
            return _at(t, vi, vj)
        return table
    gi, gj = _gather(i, axes), _gather(j, axes)
    return lambda tabs, v: _at(tabs[k], gi(tabs, v), gj(tabs, v))


def _compile(law):
    """(name, arity, sides, mask), the law's two sides compiled once:
    sides((d, t)) maps the values of its variables, in alphabetical order,
    to the pair of its two sides, and mask((d, t)) to lhs != rhs."""
    axes = tuple(sorted(_variables(law)))
    lhs, rhs = (_gather(side, axes) for side in law)
    return (_render(law), len(axes),
            lambda tabs: lambda *v: (lhs(tabs, v), rhs(tabs, v)),
            lambda tabs: lambda *v: lhs(tabs, v) != rhs(tabs, v))


_COMPILED = {name: rest for name, *rest in map(_compile, _TERMS)}

# the tables each law reads, by name: the weak-rack census verifies a law
# that reads one table on the stack of that table alone
_READS = {_render(law): _ops(law) for law in _TERMS}


def _named(names, d, e):
    """The laws of _TERMS called `names`, in that order, as (name, arity,
    law) on a dot table d and a diamond table e, or on stacks of them (see
    tables._holds).  Only the tables that those laws read are narrowed."""
    reads = frozenset().union(*map(_READS.get, names))
    tabs = (_narrow(d) if "dot" in reads else None,
            _narrow(np.swapaxes(e, -1, -2)) if "dia" in reads else None)
    return [(name, _COMPILED[name][0], _COMPILED[name][2](tabs))
            for name in names]


def _sides(name, d, e):
    """The two sides of the law `name` on a dot table d and a diamond
    table e, or stacks of them, bound as they are, with no _narrow copy:
    sides(*v) is (lhs, rhs) at the values v of the law's variables.  The
    census binds its partial tables, whose sentinel tells a decided
    failure from an unfilled cell."""
    return _COMPILED[name][1]((d, e.swapaxes(-1, -2)))


def _hom(f, t1, t2):
    """f(a t1 b) = f(a) t2 f(b) for an int64 map f and narrowed tables t1
    on its domain and t2 on its codomain; t1 stands for t1[a, b]."""
    return lambda a, b: f[t1] != _at(t2, f[a], f[b])


# the laws each verified kind claims, in report order
_KIND_LAWS = {
    RACK: (AX_LEFT_DISTRIB, AX_CANCEL_OUT, AX_CANCEL_IN, AX_RIGHT_DISTRIB),
    WEAK_RACK: (AX_LEFT_DISTRIB, AX_WEAK_COMPAT, AX_RIGHT_DISTRIB),
}


def _law_failures(s: Structure, names, cap: int):
    """(name, witness) for each law of _TERMS called `names`, in turn, up
    to cap witnesses apiece, lazily, as _failures gives them.  A law that
    fails on no factor of s holds on s (Birkhoff 1935), so it is skipped
    with no scan of s; the factors are walked the same way, down to those
    built with none.  Every other law is scanned on s, so the failures are
    exactly those of a full scan."""
    if s.factors:
        names = [name for name in names if any(
            next(_law_failures(f, (name,), 1), None) for f in s.factors)]
    return _failures(_named(names, s.dot.entries, s.diamond.entries), s.n, cap)


def _axioms(s: Structure, kind: str, cap: int = WITNESS_CAP) -> AxiomReport:
    """The report of s on the laws that `kind` claims."""
    if cap < 1:  # as _scan checks it, also where no law reaches a scan
        raise SizeMismatch(f"max_witnesses must be at least 1, got {cap}")
    return AxiomReport(list(_law_failures(s, _KIND_LAWS[kind], cap)))


def check_rack_axioms(s: Structure, max_witnesses: int = WITNESS_CAP) -> AxiomReport:
    """Exhaustively test the four full-rack axioms (triple axioms over all
    n^3 triples, cancellation axioms over all n^2 pairs); on a product, a
    law that holds on every factor is read off the factors."""
    return _axioms(s, RACK, max_witnesses)


def check_weak_rack_axioms(s: Structure, max_witnesses: int = WITNESS_CAP) -> AxiomReport:
    """Exhaustively test the three weak-rack axioms, as check_rack_axioms
    does its four."""
    return _axioms(s, WEAK_RACK, max_witnesses)


def classify(s: Structure) -> tuple[str, AxiomReport]:
    """The strongest kind s satisfies (RACK, WEAK_RACK or "neither") and
    its weak-rack report.

    A rack is exactly a weak rack whose cancellation laws hold (they give
    (ab)<>a = b = a(b<>a)), so each triple law is scanned once, where
    check_rack_axioms and check_weak_rack_axioms would scan it twice.  Of
    the two cancellation laws only (ab)<>a = b is scanned: on a weak rack
    the compatibility law (ab)<>a = a(b<>a) makes their left sides equal
    at every pair, so a(b<>a) = b fails exactly where it fails.
    """
    weak = check_weak_rack_axioms(s)
    if not weak.passed:
        return "neither", weak
    cancel = _law_failures(s, (AX_CANCEL_OUT,), 1)
    return (WEAK_RACK if any(cancel) else RACK), weak


def _kind_failure(s: Structure):
    """The first failure (law, witness) of the laws s.kind claims, or None."""
    if s.kind not in _KIND_LAWS:
        return None
    return next(_law_failures(s, _KIND_LAWS[s.kind], 1), None)


def _verify_kind(s: Structure) -> None:
    """Raise KindMismatch at the first failure of the laws s.kind claims."""
    failure = _kind_failure(s)
    if failure:
        axiom, wit = failure
        raise KindMismatch(f"claimed {s.kind} violates {axiom!r} at {wit}")


def make_structure(dot: OpTable, diamond: OpTable, kind: str = UNCHECKED) -> Structure:
    """Assemble a structure; a non-unchecked kind is verified eagerly."""
    s = Structure(dot.n, dot, diamond, kind)
    _verify_kind(s)
    return s


def _from_arrays(dot: np.ndarray, diamond: np.ndarray, kind: str) -> Structure:
    n = dot.shape[0]
    return make_structure(OpTable(n, dot), OpTable(n, diamond), kind)


def _unverified(dot: np.ndarray, diamond: np.ndarray, kind: str) -> Structure:
    """A structure on these tables tagged `kind` with no scan of it: only
    for tables whose kind the caller has established by other checks."""
    n = dot.shape[0]
    return Structure(n, OpTable(n, dot), OpTable(n, diamond), kind)


def conjugation_rack(g: GroupTable) -> Structure:
    """Rack on a group carrier: a.b = a b a^-1 and a<>b = b^-1 a b
    (the left argument conjugated by the right)."""
    m = g.mul.entries
    dot = m[m, g.inv[:, None]]                     # (a b) a^-1
    return _from_arrays(dot, _invert_rows(dot), RACK)


def trivial_rack(n: int) -> Structure:
    """The self-dual rack with ab = b and a<>b = a."""
    if n < 1:
        raise SizeMismatch("carrier size must be positive")
    dot = np.tile(np.arange(_capped(n, "n")), (n, 1))
    return _from_arrays(dot, _invert_rows(dot), RACK)


# the Boolean weak racks on one atom, as (dot, diamond) on {0, 1}
_IMPLICATION = ([[1, 1], [0, 1]], [[0, 0], [1, 0]])   # a -> b, a \ b
_LATTICE = ([[0, 1], [1, 1]], [[0, 0], [0, 1]])       # a | b, a & b


def _boolean_power(atom, k: int) -> Structure:
    """The k-fold direct power of the weak rack on {0, 1} with the tables
    `atom`, built by _product from that two-point factor (the one-point
    structure for k = 0); point x of the power is the subset of k atoms
    with bit mask x.  Only the two-point factor is scanned: an identity
    that holds on each factor holds on their product (Birkhoff 1935), and
    the one-point structure satisfies every identity."""
    if k < 0:
        raise SizeMismatch("atom count must be non-negative")
    _capped(1 << k, f"2^{k}")
    factor = _from_arrays(*map(np.array, atom), WEAK_RACK)
    if k == 0:
        point = np.zeros((1, 1), np.int64)
        return _unverified(point, point, WEAK_RACK)
    power = factor
    for _ in range(k - 1):
        power = _product(factor, power)
    return power


def boolean_weak_rack_implication(k: int) -> Structure:
    """Weak rack on the subsets of k atoms: ab = a -> b, a<>b = a \\ b, the
    k-fold power of its one-atom case, whose kind rests on a scan of that
    two-point factor (see _boolean_power)."""
    return _boolean_power(_IMPLICATION, k)


def boolean_weak_rack_lattice(k: int) -> Structure:
    """Weak rack on the subsets of k atoms: ab = a | b, a<>b = a & b, the
    k-fold power of its one-atom case, whose kind rests on a scan of that
    two-point factor (see _boolean_power)."""
    return _boolean_power(_LATTICE, k)


def _opposite(s: Structure) -> Structure:
    """s with dot (a, b) -> b<>a and diamond (a, b) -> b.a, kind unverified
    and with no factors: the dual of a product is scanned in full."""
    return Structure(s.n, OpTable(s.n, s.diamond.entries.T),
                     OpTable(s.n, s.dot.entries.T), s.kind)


def dual_rack(s: Structure) -> Structure:
    """Opposite structure: new dot (a, b) -> b<>a and new diamond
    (a, b) -> b.a; an involution.  The kind is re-verified on the dual."""
    dual = _opposite(s)
    _verify_kind(dual)
    return dual


def _product(s1: Structure, s2: Structure) -> Structure:
    """The direct product of s1 and s2, tagged s1.kind with no scan and
    keeping both factors: pair (x, y) encoded as x*n2 + y; the n1*n2 pairs
    are subject to the cap."""
    m = _capped(s1.n * s2.n, f"{s1.n} x {s2.n}")
    dot, diamond = (OpTable(m, _combine(t1.entries, t2.entries))
                    for t1, t2 in ((s1.dot, s2.dot), (s1.diamond, s2.diamond)))
    return Structure(m, dot, diamond, s1.kind, factors=(s1, s2))


def direct_product(s1: Structure, s2: Structure) -> Structure:
    """Componentwise product on pairs, pair (x, y) encoded as x*n2 + y;
    the n1*n2 pairs are subject to the carrier cap.

    The kind is verified as every report is (see _law_failures): every
    law a kind claims is an identity, and an identity holds on a direct
    product exactly when it holds on each factor (Birkhoff 1935), so only
    the factors are scanned, n1^3 + n2^3 instances, unless a law fails on
    one of them.  That law is scanned on the product, so that the
    KindMismatch names the product's first failed law and witness."""
    if s1.kind != s2.kind:
        raise KindMismatch(f"cannot combine {s1.kind} with {s2.kind}")
    product = _product(s1, s2)
    _verify_kind(product)
    return product


def product_with_dual(s: Structure) -> Structure:
    """The direct product of a structure with its dual: its main operation
    is the box product (x,y)(u,v) = (xu, v<>y) and its companion is
    ((x,y),(u,v)) -> (x<>u, vy).  As in direct_product, the kind rests on
    scans of s and of its dual; a law that fails on either is scanned on
    the product, so a mis-tagged s gets the product's witness."""
    return direct_product(s, _opposite(s))


def check_morphism(f, s1: Structure, s2: Structure,
                   max_witnesses: int = WITNESS_CAP) -> AxiomReport:
    """Check that f: carrier(s1) -> carrier(s2) respects both operations:
    f(a.b) = f(a).f(b) and f(a<>b) = f(a)<>f(b) over all pairs."""
    F = _array(list(f))
    if F.shape != (s1.n,):
        raise SizeMismatch(f"map must list {s1.n} images, got shape {F.shape}")
    F = _indices(F, s2.n, "map images")
    laws = (
        ("f(ab) = f(a)f(b)", 2,
         _hom(F, _narrow(s1.dot.entries), _narrow(s2.dot.entries))),
        ("f(a diamond b) = f(a) diamond f(b)", 2,
         _hom(F, _narrow(s1.diamond.entries), _narrow(s2.diamond.entries))),
    )
    return AxiomReport(list(_failures(laws, s1.n, max_witnesses)))

