"""Trigonometric maps on a structure with a chosen base pair.

Given elements e and o of a structure, set pi = e.o and u = e.pi, and define
cos x = e.x (left translation by e) and sin x = x<>e.  On a full rack, cos
and sin are mutually inverse carrier bijections and homomorphisms for both
operations; on weak racks only the exchange law sin(cos x) = cos(sin x) is
guaranteed, so the cancellation-dependent properties are still evaluated but
reported in a separate full-rack-only section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, KindMismatch
from .structures import (
    RACK, WEAK_RACK, WITNESS_CAP, Structure, _from_arrays, _hom,
)
from .tables import _narrow, _scan

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

ALL_PROPERTIES = (
    P_COS_PI, P_SIN_PI, P_COS_DOT, P_COS_DIAMOND, P_SIN_DOT, P_SIN_DIAMOND,
    P_SIN_COS, P_COS_SIN, P_EXCHANGE,
)

# these need the cancellation axioms; on weak racks they are informational
RACK_ONLY_PROPERTIES = frozenset({P_SIN_PI, P_SIN_COS, P_COS_SIN})


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
    """Evaluate all nine properties exhaustively (pointwise laws over the
    carrier, homomorphism laws over all pairs)."""
    s = ctx.s
    n = s.n
    cos = s.dot.entries[ctx.e]            # cos[x] = e.x
    sin = s.diamond.entries[:, ctx.e]     # sin[x] = x<>e
    d, e = _narrow(s.dot.entries), _narrow(s.diamond.entries)
    weak = s.kind == WEAK_RACK

    checks: list[PropertyCheck] = []

    def add(name, wits):
        checks.append(PropertyCheck(
            name=name,
            passed=not wits,
            witnesses=tuple(wits),
            rack_only=weak and name in RACK_ONLY_PROPERTIES,
        ))

    # for the two base-point identities the witness is (pi, actual value)
    add(P_COS_PI,
        [] if cos[ctx.pi] == ctx.u else [(ctx.pi, int(cos[ctx.pi]))])
    add(P_SIN_PI,
        [] if sin[ctx.pi] == ctx.o else [(ctx.pi, int(sin[ctx.pi]))])
    for name, f, t in ((P_COS_DOT, cos, d), (P_COS_DIAMOND, cos, e),
                       (P_SIN_DOT, sin, d), (P_SIN_DIAMOND, sin, e)):
        add(name, _scan(_hom(f, t, t), n, 2, max_witnesses))
    add(P_SIN_COS, _scan(lambda x: sin[cos[x]] != x, n, 1, max_witnesses))
    add(P_COS_SIN, _scan(lambda x: cos[sin[x]] != x, n, 1, max_witnesses))
    add(P_EXCHANGE, _scan(lambda x: sin[cos[x]] != cos[sin[x]],
                          n, 1, max_witnesses))

    return TrigReport(properties=tuple(checks))


def trig_derived_rack(ctx: TrigContext) -> Structure:
    """The rack with ab = cos b and a<>b = sin a.  Only valid over a full
    rack, where cos and sin are mutually inverse; the result is verified."""
    if ctx.s.kind != RACK:
        raise KindMismatch(
            "derived rack construction needs a full rack, got "
            f"{ctx.s.kind!r}"
        )
    n = ctx.s.n
    cos = ctx.s.dot.entries[ctx.e]
    sin = ctx.s.diamond.entries[:, ctx.e]
    dot = np.tile(cos, (n, 1))                    # row a is cos, ignores a
    diamond = np.repeat(sin, n).reshape(n, n)     # column b is sin, ignores b
    return _from_arrays(dot, diamond, RACK)
