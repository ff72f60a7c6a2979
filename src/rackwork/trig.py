"""Trigonometric maps on a structure with a chosen base pair.

Given elements e and o of a structure, set pi = e.o and u = e.pi, and define
cos x = e.x (left translation by e) and sin x = x<>e.  The seven
carrier-wide properties are the identities of structures._TERMS at a = e,
named from the terms: a.X reads cos(X), X<>a reads sin(X), and the other
variables are x and y in order of first appearance, so that the weak-rack
law (ab)<>a = a(b<>a) is the exchange law sin(cos x) = cos(sin x).  Two
laws name c before b; they are scanned in their own variables with the
mask's last two axes swapped, so that witnesses read (x, y).  On a full
rack, cos and sin are mutually inverse carrier bijections and
homomorphisms for both operations; on weak racks only the exchange law is
guaranteed.  The rack-only trio is exactly the cancellation laws at e
(sin(pi) = o is sin(cos x) = x at x = o): still evaluated, but reported
in a separate full-rack-only section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange
from .structures import (
    _TERMS, RACK, WEAK_RACK, WITNESS_CAP, Structure, _from_arrays, _named,
    _render, _unverified, _variables,
)
from .tables import _scan


def _at_base(term, names):
    """term at a = e: a.X becomes the leaf cos(X), X<>a the leaf sin(X),
    and the other variables are renamed by `names`."""
    if isinstance(term, str):
        return names.get(term, term)
    op, x, y = term[0], *(_at_base(v, names) for v in term[1:])
    if (op, x) == ("dot", "a"):
        return f"cos({_render(y)})"
    if (op, y) == ("dia", "a"):
        return f"sin({_render(x)})"
    return op, x, y


def _property(law):
    """The name of the property a law is at a = e, with x and y named in
    order of first appearance, and whether that swaps its last two axes."""
    free = [v for v in _variables(law) if v != "a"]
    names = dict(zip(free, "xy"))
    name = _render(tuple(_at_base(side, names) for side in law))
    return name, free != sorted(free)


# each carrier-wide property and its swap, by the law of structures._TERMS
# that it is at a = e
_PROPERTIES = {_render(law): _property(law) for law in _TERMS}

# property identifiers, used verbatim in reports
P_COS_PI = "cos(pi) = u"
P_SIN_PI = "sin(pi) = o"
(P_COS_DOT, P_COS_DIAMOND, P_SIN_DOT, P_SIN_DIAMOND, P_SIN_COS, P_COS_SIN,
 P_EXCHANGE) = (name for name, _ in _PROPERTIES.values())

# these need the cancellation axioms; on weak racks they are informational
RACK_ONLY_PROPERTIES = frozenset({P_SIN_PI, P_SIN_COS, P_COS_SIN})


def _trig_laws(d, e):
    """The carrier-wide properties as (name, arity, law) over (b, x[, y]),
    b the base point: the laws of _named, renamed, and two of them with
    their last two axes swapped (see _property)."""
    return tuple((p, k, (lambda *v, f=law: f(*v).swapaxes(-1, -2))
                  if swap else law) for (p, swap), (_, k, law)
                 in zip(_PROPERTIES.values(), _named(_PROPERTIES, d, e)))


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
    cos_pi, sin_pi = t_cos(ctx, ctx.pi), t_sin(ctx, ctx.pi)
    found = [(P_COS_PI, [] if cos_pi == ctx.u else [(ctx.pi, cos_pi)]),
             (P_SIN_PI, [] if sin_pi == ctx.o else [(ctx.pi, sin_pi)])]
    for name, k, law in _trig_laws(s.dot.entries, s.diamond.entries):
        found.append((name, _scan(lambda *v: law(ctx.e, *v), s.n, k - 1,
                                  max_witnesses)))
    weak = s.kind == WEAK_RACK
    return TrigReport(tuple(
        PropertyCheck(name, not wits, tuple(wits),
                      weak and name in RACK_ONLY_PROPERTIES)
        for name, wits in found))


def trig_derived_rack(ctx: TrigContext) -> Structure:
    """The rack with ab = cos b and a<>b = sin a, verified.

    Its self-distributive laws hold for any cos and sin: both sides of
    a(bc) = (ab)(ac) are cos(cos c), and both sides of
    (c<>b)<>a = (c<>a)<>(b<>a) are sin(sin c).  Its cancellation laws read
    sin(cos b) = b and cos(sin b) = b, so it is a rack exactly when cos
    and sin at e are mutually inverse, as on every full rack.  One n-vector
    check carries its kind: on a finite carrier, sin(cos b) = b for all b
    makes cos injective, hence a bijection with inverse sin.  If it fails,
    the full rack scan names the first failed law and witness."""
    n = ctx.s.n
    cos, sin = cos_table(ctx), sin_table(ctx)
    dot = np.tile(cos, (n, 1))                    # row a is cos, ignores a
    diamond = np.repeat(sin, n).reshape(n, n)     # column b is sin
    if (sin[cos] == np.arange(n)).all():
        return _unverified(dot, diamond, RACK)
    return _from_arrays(dot, diamond, RACK)
