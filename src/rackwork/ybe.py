"""Quantum Yang-Baxter equation checking for pair maps on finite carriers.

A pair map R lifts to triples in three positions: R12 acts on coordinates
1 and 2, R13 on 1 and 3, R23 on 2 and 3.  The quantum Yang-Baxter equation
is R12 o R13 o R23 = R23 o R13 o R12, where composition applies the
RIGHTMOST factor first; that convention is fixed once here and shared by
every check in this module.

From a structure two classical solutions arise, W(x,y) = (x, x.y) and
Z(x,y) = (x<>y, y); together with exp_e they form a three-map system tied
by two mixed equations, all checked exhaustively over n^3 triples.

Each output coordinate of a pair map is classified once per check by the
inputs it reads: the first only, the second only, or both.  A one-input
coordinate that is the identity is a projection and returns its input grid
unchanged; any other one-input coordinate gathers from an n-vector indexed
by that input alone; only a coordinate that reads both inputs gathers from
an n x n table.  exp_e(x,y) = (e.x, y<>e), cosh and sinh therefore never
gather a table, and W and Z gather one coordinate per lift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CarrierMismatch, IndexOutOfRange
from .structures import WITNESS_CAP, AxiomReport, Structure, _report
from .tables import _at, _narrow
from .euler import PairMap, exp_map, pair_map_from_components

POSITIONS = (12, 13, 23)

EQ_QYBE = "R12 R13 R23 = R23 R13 R12"
EQ_MIXED_LOW = "A23 A13 B12 = B12 A13 A23"
EQ_MIXED_HIGH = "A12 A13 B23 = B23 A13 A12"


def lift(f: PairMap, positions: int):
    """The action of f on triples at the given coordinate pair (12, 13, 23).

    Returns a callable on (x, y, z) tuples.  The exhaustive checks use the
    vectorized equivalent, _apply_lift, on f's coordinates as _components
    classifies them: projections, one-input vectors and two-input tables.
    """
    if positions not in POSITIONS:
        raise IndexOutOfRange(f"positions must be one of {POSITIONS}")

    def act(t: tuple[int, int, int]) -> tuple[int, int, int]:
        x, y, z = t
        if positions == 12:
            a, b = f.apply(x, y)
            return (a, b, z)
        if positions == 13:
            a, b = f.apply(x, z)
            return (a, y, b)
        a, b = f.apply(y, z)
        return (x, a, b)

    return act


def _apply_lift(comps, positions, state):
    c1, c2 = comps
    x, y, z = state
    if positions == 12:
        return (c1(x, y), c2(x, y), z)
    if positions == 13:
        return (c1(x, z), y, c2(x, z))
    return (x, c1(y, z), c2(y, z))


def _coordinate(c: np.ndarray):
    """Output coordinate c[u, v] of a pair map as a function of the input
    grids u and v that gathers only what c reads: the input itself for a
    projection, an n-vector indexed by the one input read, else the table.
    An int input (the walked first variable) stays an int through a vector.
    """
    # k = 0: c[u, v] = c[u, 0] for every v; k = 1: c[u, v] = c[0, v]
    for k, vec in enumerate((c[:, 0], c[0])):
        if (c == np.expand_dims(vec, 1 - k)).all():
            if (vec == np.arange(len(vec))).all():
                return lambda *uv: uv[k]
            vec = _narrow(vec)
            return lambda *uv: (int(vec[uv[k]]) if type(uv[k]) is int
                                else vec.take(uv[k]))
    t = _narrow(c)
    return lambda u, v: _at(t, u, v)


def _components(f: PairMap):
    """f's two output coordinates, each classified by _coordinate."""
    return tuple(map(_coordinate, f.components()))


def _run_word(word, state):
    """Apply lifted maps right-to-left to a triple of index grids."""
    for comps, pos in reversed(word):
        state = _apply_lift(comps, pos, state)
    return state


def _equation_report(name, word, n, max_witnesses):
    """The equation word = word reversed, over all n^3 starting triples."""
    def law(*start):
        bad = np.False_
        for p, q in zip(_run_word(word, start), _run_word(word[::-1], start)):
            # one object on both sides: a coordinate both words leave alone
            if p is not q:
                bad = bad | (p != q)
        return bad

    return _report([(name, 3, law)], n, max_witnesses)


def check_qybe(f: PairMap, max_witnesses: int = WITNESS_CAP) -> AxiomReport:
    """Exhaustive quantum Yang-Baxter check over all n^3 starting triples."""
    c = _components(f)
    return _equation_report(EQ_QYBE, [(c, 12), (c, 13), (c, 23)], f.n,
                            max_witnesses)


def w_map(s: Structure) -> PairMap:
    """W(x, y) = (x, x.y), the left-translation solution."""
    return pair_map_from_components(np.arange(s.n)[:, None], s.dot.entries)


def z_map(s: Structure) -> PairMap:
    """Z(x, y) = (x<>y, y), the companion-operation solution."""
    return pair_map_from_components(s.diamond.entries, np.arange(s.n)[None, :])


def check_mixed(a: PairMap, b: PairMap, partner_position: int = 12,
                max_witnesses: int = WITNESS_CAP) -> AxiomReport:
    """Mixed three-factor equation coupling map a with partner map b.

    partner_position 12 (default): A23 o A13 o B12 = B12 o A13 o A23.
    partner_position 23:           A12 o A13 o B23 = B23 o A13 o A12.
    """
    if a.n != b.n:
        raise CarrierMismatch(f"carriers differ: {a.n} vs {b.n}")
    if partner_position not in (12, 23):
        raise IndexOutOfRange("partner_position must be 12 or 23")
    name, outer = ((EQ_MIXED_LOW, 23) if partner_position == 12
                   else (EQ_MIXED_HIGH, 12))
    ca = _components(a)
    word = [(ca, outer), (ca, 13), (_components(b), partner_position)]
    return _equation_report(name, word, a.n, max_witnesses)


@dataclass(frozen=True)
class SystemReport:
    """Verdicts for the five equations of the W / exp_e / Z system."""

    qybe_w: AxiomReport
    qybe_x: AxiomReport
    qybe_z: AxiomReport
    mixed_wxx: AxiomReport
    mixed_xxz: AxiomReport

    @property
    def passed(self) -> bool:
        return all(r.passed for r in (
            self.qybe_w, self.qybe_x, self.qybe_z,
            self.mixed_wxx, self.mixed_xxz,
        ))

    def named(self) -> list[tuple[str, AxiomReport]]:
        return [
            ("qybe_W", self.qybe_w),
            ("qybe_X", self.qybe_x),
            ("qybe_Z", self.qybe_z),
            ("mixed_WXX", self.mixed_wxx),
            ("mixed_XXZ", self.mixed_xxz),
        ]


def check_yb_system(s: Structure, e: int,
                    max_witnesses: int = WITNESS_CAP) -> SystemReport:
    """Check the full system with W = w_map, X = exp_e, Z = z_map:
    QYBE for each of W, X, Z plus the two mixed equations
    X23 X13 W12 = W12 X13 X23 and X12 X13 Z23 = Z23 X13 X12."""
    if not 0 <= e < s.n:
        raise IndexOutOfRange(f"{e} outside carrier {s.n}")
    w = w_map(s)
    x = exp_map(s, e)
    z = z_map(s)
    return SystemReport(
        qybe_w=check_qybe(w, max_witnesses),
        qybe_x=check_qybe(x, max_witnesses),
        qybe_z=check_qybe(z, max_witnesses),
        mixed_wxx=check_mixed(x, w, 12, max_witnesses),
        mixed_xxz=check_mixed(x, z, 23, max_witnesses),
    )
