"""Pair maps on the square of a carrier: box product, exponential, cosh/sinh.

For a structure with operations . and <>, the box product on pairs is
(x,y)(u,v) = (x.u, v<>y), and for a base element a the exponential map is
exp_a(x,y) = (a.x, y<>a).  It is a homomorphism for the box product
exactly when left and right self-distributivity hold at a; it factors as
cosh o sinh = sinh o cosh with cosh(x,y) = (e.x, y) and
sinh(x,y) = (x, y<>e), and on the diagonal it reproduces the trigonometric
maps: exp_e(x,x) = (cos x, sin x), with exp_e(pi,pi) = (u, o) on full racks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange
from .structures import (
    AX_LEFT_DISTRIB, AX_RIGHT_DISTRIB, WITNESS_CAP, AxiomReport, Structure,
    _named,
)
from .tables import _array, _by_value, _grids, _indices, _scan
from .trig import TrigContext, cos_table, sin_table

# clause identifiers for check_euler_formula
EULER_FORMULA = "exp_e(x,x) = (cos x, sin x)"
EULER_IDENTITY = "exp_e(pi,pi) = (u, o)"


@dataclass(frozen=True, eq=False)
class PairMap:
    """A total map on pairs, stored as n^2 output pairs indexed x*n + y."""

    n: int
    out: np.ndarray  # shape (n*n, 2), read-only

    def __post_init__(self):
        arr = _array(self.out)
        if arr.shape != (self.n * self.n, 2):
            raise IndexOutOfRange(
                f"pair map needs shape ({self.n * self.n}, 2), got {arr.shape}"
            )
        object.__setattr__(self, "out",
                           _indices(arr, self.n, "pair map outputs"))

    __eq__ = _by_value

    def apply(self, x: int, y: int) -> tuple[int, int]:
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise IndexOutOfRange(f"({x},{y}) outside carrier {self.n}")
        a, b = self.out[x * self.n + y]
        return int(a), int(b)

    def components(self) -> tuple[np.ndarray, np.ndarray]:
        """The two output coordinates as (n, n) tables indexed [x, y]."""
        n = self.n
        return (self.out[:, 0].reshape(n, n), self.out[:, 1].reshape(n, n))


def pair_map_from_components(c1: np.ndarray, c2: np.ndarray) -> PairMap:
    """Assemble a PairMap from two output-coordinate tables indexed [x, y]:
    (n, n) tables, or a column or a row that broadcasts to one."""
    out = np.empty(np.broadcast(c1, c2).shape + (2,), dtype=np.int64)
    out[..., 0] = c1
    out[..., 1] = c2
    return PairMap(len(out), out.reshape(-1, 2))


def identity_pair_map(n: int) -> PairMap:
    return pair_map_from_components(np.arange(n)[:, None], np.arange(n)[None, :])


def compose(f: PairMap, g: PairMap) -> PairMap:
    """Pointwise composition f(g(x, y))."""
    if f.n != g.n:
        raise IndexOutOfRange("cannot compose pair maps on different carriers")
    return PairMap(f.n, f.out.take(g.out[:, 0] * f.n + g.out[:, 1], axis=0))


def exp_map(s: Structure, a: int) -> PairMap:
    """exp_a(x, y) = (a.x, y<>a)."""
    if not 0 <= a < s.n:
        raise IndexOutOfRange(f"{a} outside carrier {s.n}")
    return pair_map_from_components(s.dot.entries[a][:, None],       # a.x
                                    s.diamond.entries[:, a][None, :])  # y<>a


def box_apply(s: Structure, p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    """(x,y)(u,v) = (x.u, v<>y) in the box product on pairs."""
    x, y = p
    u, v = q
    for val in (x, y, u, v):
        if not 0 <= val < s.n:
            raise IndexOutOfRange(f"{val} outside carrier {s.n}")
    return (int(s.dot.entries[x, u]), int(s.diamond.entries[v, y]))


def cosh_map(ctx: TrigContext) -> PairMap:
    """cosh(x, y) = (e.x, y)."""
    return pair_map_from_components(cos_table(ctx)[:, None], np.arange(ctx.s.n))


def sinh_map(ctx: TrigContext) -> PairMap:
    """sinh(x, y) = (x, y<>e)."""
    return pair_map_from_components(np.arange(ctx.s.n)[:, None], sin_table(ctx))


def check_hyperbolic_factorization(ctx: TrigContext) -> bool:
    """Exact table equality exp_e = cosh o sinh = sinh o cosh."""
    ex = exp_map(ctx.s, ctx.e)
    ch, sh = cosh_map(ctx), sinh_map(ctx)
    return compose(ch, sh) == ex and compose(sh, ch) == ex


def check_exp_homomorphism(s: Structure, a: int,
                           max_witnesses: int = WITNESS_CAP) -> AxiomReport:
    """Check exp_a((x,y)(u,v)) = exp_a(x,y) exp_a(u,v) in the box product.

    Exact over all n^4 quadruples for every carrier: the box product splits
    coordinates, so the quadruple mask is an OR of two n^2 masks, one over
    (x, u) and one over (y, v).  Witnesses are (x, y, u, v).
    """
    if not 0 <= a < s.n:
        raise IndexOutOfRange(f"{a} outside carrier {s.n}")
    name = "exp_a((x,y)(u,v)) = exp_a(x,y) exp_a(u,v)"

    # bad1[x, u]: a.(xu) vs (a.x)(a.u), left self-distributivity at a;
    # bad2[y, v]: (v<>y)<>a vs (v<>a)<>(y<>a), right self-distributivity at a
    grids = _grids(s.n, 2)
    bad1, bad2 = (law(a, *grids) for _, _, law in _named(
        (AX_LEFT_DISTRIB, AX_RIGHT_DISTRIB), s.dot.entries, s.diamond.entries))

    # (x, y) fails somewhere iff row x of bad1 or row y of bad2 does: walk
    # only those heads, in lex order, each converted when the walk reaches it
    heads = ((int(x), int(y)) for x, y in
             np.argwhere(bad1.any(1)[:, None] | bad2.any(1)[None, :]))
    wits = _scan(lambda x, y, u, v: bad1[x][u] | bad2[y][v],
                 s.n, 4, max_witnesses, heads)
    return AxiomReport([(name, w) for w in wits])


def check_euler_formula(ctx: TrigContext,
                        max_witnesses: int = WITNESS_CAP) -> AxiomReport:
    """Check both clauses of the diagonal identity for exp_e.

    Formula clause: exp_e(x,x) = (cos x, sin x) for every x.  Identity
    clause: exp_e(pi,pi) = (u, o); on weak racks the identity clause depends
    on sin(pi) = o, so reporting tools present it as full-rack-only there.
    """
    s = ctx.s
    cos, sin = cos_table(ctx), sin_table(ctx)
    ex = exp_map(s, ctx.e)
    c1, c2 = ex.components()
    failures = [(EULER_FORMULA, w) for w in _scan(
        lambda x: (c1[x, x] != cos[x]) | (c2[x, x] != sin[x]),
        s.n, 1, max_witnesses)]

    got = ex.apply(ctx.pi, ctx.pi)
    if got != (ctx.u, ctx.o):
        failures.append((EULER_IDENTITY, (ctx.pi, got[0], got[1])))

    return AxiomReport(failures)

