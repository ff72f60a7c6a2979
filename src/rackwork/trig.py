"""Trigonometric maps on a structure with a chosen base pair.

Given elements e and o of a structure, set pi = e.o and u = e.pi, and define
cos x = e.x (left translation by e) and sin x = x<>e.  Five of the seven
carrier-wide properties are axioms with a = e: cos(xy) = cos(x)cos(y) is
a(bc) = (ab)(ac), sin(cos x) = x and cos(sin x) = x are the cancellation
laws, the exchange law sin(cos x) = cos(sin x) is the weak-rack law
(ab)<>a = a(b<>a), and sin(x<>y) = sin(x)<>sin(y) is right
self-distributivity; _trig_laws lists all seven.  On a full rack, cos and
sin are mutually inverse carrier bijections and homomorphisms for both
operations; on weak racks only the exchange law is guaranteed.  The
rack-only trio is exactly the cancellation laws at e (sin(pi) = o is
sin(cos x) = x at x = o): still evaluated, but reported in a separate
full-rack-only section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, KindMismatch
from .structures import (
    RACK, WEAK_RACK, WITNESS_CAP, Structure, _cancellation, _compat,
    _from_arrays, _left_distrib,
)
from .tables import _at, _narrow, _scan

# property identifiers, used verbatim in reports
P_COS_PI = "cos(pi) = u"
P_SIN_PI = "sin(pi) = o"
P_COS_DOT = "cos(xy) = cos(x)cos(y)"
P_COS_DIAMOND = "cos(x diamond y) = cos(x) diamond cos(y)"
P_SIN_DOT = "sin(xy) = sin(x)sin(y)"
P_SIN_DIAMOND = "sin(x diamond y) = sin(x) diamond sin(y)"
P_SIN_COS = "sin(cos(x)) = x"
P_COS_SIN = "cos(sin(x)) = x"
P_EXCHANGE = "sin(cos(x)) = cos(sin(x))"

# these need the cancellation axioms; on weak racks they are informational
RACK_ONLY_PROPERTIES = frozenset({P_SIN_PI, P_SIN_COS, P_COS_SIN})


def _trig_laws(d, e):
    """The carrier-wide properties as _rack_laws gives the rack axioms,
    over (b, x[, y]) with b the base point: cos x = b.x, sin x = x<>b."""
    d, e = _narrow(d), _narrow(e)
    (_, _, sin_cos), (_, _, cos_sin) = _cancellation(d, e)
    return (
        (P_COS_DOT, 3, _left_distrib(d)),
        (P_COS_DIAMOND, 3, lambda b, x, y:
         _at(d, b, e) != _at(e, _at(d, b, x), _at(d, b, y))),
        (P_SIN_DOT, 3, lambda b, x, y:
         _at(e, d, b) != _at(d, _at(e, x, b), _at(e, y, b))),
        # (c<>b)<>a = (c<>a)<>(b<>a) at (a, b, c) = (b, y, x)
        (P_SIN_DIAMOND, 3, lambda b, x, y:
         _at(e, e, b) != _at(e, _at(e, x, b), _at(e, y, b))),
        (P_SIN_COS, 2, sin_cos),
        (P_COS_SIN, 2, cos_sin),
        (P_EXCHANGE, 2, _compat(d, e)),
    )


@dataclass(frozen=True)
class TrigContext:
    """A structure with chosen e, o and the derived pi = e.o, u = e.pi."""

    s: Structure
    e: int
    o: int
    pi: int
    u: int


def make_trig_context(s: Structure, e: int, o: int) -> TrigContext:
    if not (0 <= e < s.n and 0 <= o < s.n):
        raise IndexOutOfRange(f"(e,o)=({e},{o}) out of range for carrier {s.n}")
    d = s.dot.entries
    pi = int(d[e, o])
    return TrigContext(s, e, o, pi, int(d[e, pi]))


def t_cos(ctx: TrigContext, x: int) -> int:
    """cos x = e.x"""
    if not 0 <= x < ctx.s.n:
        raise IndexOutOfRange(f"{x} out of range for carrier {ctx.s.n}")
    return int(ctx.s.dot.entries[ctx.e, x])


def t_sin(ctx: TrigContext, x: int) -> int:
    """sin x = x<>e"""
    if not 0 <= x < ctx.s.n:
        raise IndexOutOfRange(f"{x} out of range for carrier {ctx.s.n}")
    return int(ctx.s.diamond.entries[x, ctx.e])


def cos_table(ctx: TrigContext) -> np.ndarray:
    """cos as a vector over the whole carrier."""
    return ctx.s.dot.entries[ctx.e].copy()


def sin_table(ctx: TrigContext) -> np.ndarray:
    """sin as a vector over the whole carrier."""
    return ctx.s.diamond.entries[:, ctx.e].copy()


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    witnesses: tuple
    rack_only: bool = False


@dataclass(frozen=True)
class TrigReport:
    """All nine trigonometric properties with witnesses.

    `passed` is strict (every evaluated property, both sections).  For weak
    racks the rack_only section collects the cancellation-dependent trio.
    """

    properties: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    @property
    def main(self) -> tuple[PropertyCheck, ...]:
        return tuple(p for p in self.properties if not p.rack_only)

    @property
    def rack_only(self) -> tuple[PropertyCheck, ...]:
        return tuple(p for p in self.properties if p.rack_only)

    def __getitem__(self, name: str) -> PropertyCheck:
        for p in self.properties:
            if p.name == name:
                return p
        raise KeyError(name)


def check_trig_properties(ctx: TrigContext,
                          max_witnesses: int = WITNESS_CAP) -> TrigReport:
    """Evaluate all nine properties: the two base-point identities, with
    (pi, actual value) as the witness, then the laws of _trig_laws at
    b = e, exhaustively over the carrier or its pairs."""
    s = ctx.s
    cos_pi = int(s.dot.entries[ctx.e, ctx.pi])
    sin_pi = int(s.diamond.entries[ctx.pi, ctx.e])
    found = [(P_COS_PI, [] if cos_pi == ctx.u else [(ctx.pi, cos_pi)]),
             (P_SIN_PI, [] if sin_pi == ctx.o else [(ctx.pi, sin_pi)])]
    for name, k, law in _trig_laws(s.dot.entries, s.diamond.entries):
        wits = _scan(law, s.n, k, max_witnesses, heads=(ctx.e,))
        found.append((name, [w[1:] for w in wits]))
    weak = s.kind == WEAK_RACK
    return TrigReport(tuple(
        PropertyCheck(name, not wits, tuple(wits),
                      weak and name in RACK_ONLY_PROPERTIES)
        for name, wits in found))


def trig_derived_rack(ctx: TrigContext) -> Structure:
    """The rack with ab = cos b and a<>b = sin a.  Only valid over a full
    rack, where cos and sin are mutually inverse; the result is verified."""
    if ctx.s.kind != RACK:
        raise KindMismatch(
            "derived rack construction needs a full rack, got "
            f"{ctx.s.kind!r}"
        )
    n = ctx.s.n
    dot = np.tile(cos_table(ctx), (n, 1))         # row a is cos, ignores a
    diamond = np.repeat(sin_table(ctx), n).reshape(n, n)  # column b is sin
    return _from_arrays(dot, diamond, RACK)
