"""Exhaustive enumeration of racks and weak racks on tiny carriers.

The searches build stacks of candidate tables, shape (m, n, n).  Rack dot
tables have permutation rows (the cancellation axioms force that) and the
diamond is derived from the dot; weak-rack candidates are the left (dot)
and right (diamond) self-distributive tables, paired by the compatibility
law.  Every candidate is then re-verified, a block at a time, through the
laws the axiom checkers scan (structures._rack_laws, tables._holds): the
pruning and the checker stay independent code paths.

Counts are labeled: racks on 1..4 points number 1, 2, 13, 114, weak racks
on 1..3 points 1, 45, 13352.  The published reference sequence is the
isomorphism class count, derived on the side (1, 2, 6, 19 and 1, 26, 2335).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CarrierTooLarge
from .structures import (
    RACK,
    WEAK_RACK,
    Structure,
    _rack_laws,
    _weak_rack_laws,
    max_carrier,
)
from .tables import _SLAB_CELLS, OpTable, _holds

RACK_ENUM_CAP = 4
WEAK_ENUM_CAP = 3


@dataclass(frozen=True)
class EnumResult:
    """Search outcome: labeled count, isomorphism-class count, and the
    structures themselves when kept."""

    n: int
    count: int
    iso_count: int
    structures: list[Structure] | None = None


def _blocks(m: int, cells: int):
    """Slices of range(m), at least one item each, for stacks of items that
    cost `cells` gathered cells apiece: at most _SLAB_CELLS // 8 cells, so
    that a block's int64 gather indices take at most _SLAB_CELLS bytes."""
    step = max(1, _SLAB_CELLS // 8 // cells)
    return (slice(i, i + step) for i in range(0, m, step))


def _canonical_keys(*stacks: np.ndarray) -> np.ndarray:
    """Row i is the least relabeling of the tables (stacks[0][i],
    stacks[1][i], ...), flattened and concatenated, over all carrier
    permutations: two structures are isomorphic iff their rows are equal.

    One gather per permutation relabels the whole block, and the rows are
    compared lexicographically entry by entry, so the key stays exact where
    a packed integer would overflow (n^(2n^2) >= 2^63 from n = 4).
    """
    t = np.stack(stacks, axis=1)
    m, n = len(t), t.shape[-1]
    rows = np.arange(m)
    best = None
    for p in itertools.permutations(range(n)):
        p = np.array(p, dtype=t.dtype)
        q = np.argsort(p)
        # relabeled[p[a], p[b]] = p[table[a, b]]
        key = p[t[:, :, q[:, None], q]].reshape(m, len(stacks) * n * n)
        if best is None:
            best = key
            continue
        first = (key != best).argmax(axis=1)
        less = key[rows, first] < best[rows, first]
        best[less] = key[less]
    return best


def _census(n: int, kind: str, blocks, keep: bool) -> EnumResult:
    """Count, classify and, if kept, build the verified (dot, diamond)
    stacks that `blocks` yields; racks are keyed by the dot table alone,
    which determines the diamond."""
    count = 0
    iso: set[bytes] = set()
    structures = [] if keep else None
    for dots, diamonds in blocks:
        count += len(dots)
        tables = (dots,) if kind == RACK else (dots, diamonds)
        iso.update(map(bytes, _canonical_keys(*tables)))
        if keep:
            structures += [Structure(n, OpTable(n, d), OpTable(n, e), kind)
                           for d, e in zip(dots, diamonds)]
    return EnumResult(n=n, count=count, iso_count=len(iso),
                      structures=structures)


def _left_distributive_tables(n: int, permutation_rows: bool = False) -> np.ndarray:
    """Every n x n table with a(bc) = (ab)(ac), optionally only those whose
    rows are permutations, in lexicographic order.

    Cell-by-cell backtracking in row-major order tests each instance
    (a, b, c) once, as soon as the last cell it reads is filled: the cells
    b.c, a.b and a.c are fixed by position, and once they are filled they
    fix the two remaining cells, a.(bc) and (ab).(ac).
    """
    cells = n * n
    table = [0] * cells
    # instances by the last of their positional cells
    fixed_at = [[] for _ in range(cells)]
    for a, b, c in itertools.product(range(n), repeat=3):
        fixed_at[max(b * n + c, a * n + b, a * n + c)].append(
            (a * n, b * n + c, a * n + b, a * n + c))
    # the two other cells of each instance whose last cell is still empty
    waiting = [[] for _ in range(cells)]
    found = []

    def fill(pos: int):
        if pos == cells:
            found.append(list(table))
            return
        for v in range(n):
            if permutation_rows and v in table[pos - pos % n:pos]:
                continue
            table[pos] = v
            if any(table[x] != table[y] for x, y in waiting[pos]):
                continue
            later = []
            for row_a, bc, ab, ac in fixed_at[pos]:
                x = row_a + table[bc]
                y = table[ab] * n + table[ac]
                if max(x, y) > pos:
                    later.append((max(x, y), x, y))
                elif table[x] != table[y]:
                    break
            else:
                for last, x, y in later:
                    waiting[last].append((x, y))
                fill(pos + 1)
                for last, _, _ in later:
                    waiting[last].pop()

    fill(0)
    return np.array(found, dtype=np.min_scalar_type(n - 1)).reshape(-1, n, n)


def enumerate_racks(n: int, keep: bool = False) -> EnumResult:
    """All labeled racks on 0..n-1, in lexicographic order of the dot:
    dot rows range over permutations with left self-distributivity pruned
    during search, diamond derived by row inversion, and the full axiom set
    re-verified on each candidate."""
    cap = max_carrier(RACK_ENUM_CAP)
    if not 1 <= n <= cap:
        raise CarrierTooLarge(f"rack enumeration supports 1 <= n <= {cap}")

    def verified():
        dots = _left_distributive_tables(n, permutation_rows=True)
        # b <> a is the y with a . y = b: invert each row, then transpose
        diamonds = np.argsort(dots, axis=2).astype(dots.dtype).swapaxes(1, 2)
        for blk in _blocks(len(dots), n ** 3):
            d, e = dots[blk], diamonds[blk]
            ok = _holds(_rack_laws(d, e), n, len(d))
            yield d[ok], e[ok]

    return _census(n, RACK, verified(), keep)


def enumerate_weak_racks(n: int, keep: bool = False) -> EnumResult:
    """All labeled weak racks (dot, diamond) on 0..n-1, in lexicographic
    order of (dot, diamond).

    Dot candidates are pruned on left self-distributivity and diamond
    candidates on right self-distributivity; the compatibility law filters
    the pairs, and every pair it keeps is re-verified against the full
    axiom set.
    """
    cap = max_carrier(WEAK_ENUM_CAP)
    if not 1 <= n <= cap:
        raise CarrierTooLarge(f"weak-rack enumeration supports 1 <= n <= {cap}")

    def verified():
        dots = _left_distributive_tables(n)
        # the transposes are the right self-distributive tables
        flat = dots.swapaxes(1, 2).reshape(len(dots), -1)
        diamonds = flat[np.lexsort(flat.T[::-1])].reshape(-1, n, n)
        rows = np.arange(len(diamonds))[:, None, None]
        x = np.arange(n)[:, None]
        # a block's pairs are checked on all n^3 triples below
        for blk in _blocks(len(dots), len(diamonds) * n ** 3):
            d = dots[blk]
            # (ab)<>a = a(b<>a) on every (dot, diamond) pair of the block
            lhs = diamonds[rows, d[:, None], x]
            rhs = d[np.arange(len(d))[:, None, None, None], x,
                    diamonds.swapaxes(1, 2)]
            i, j = np.nonzero((lhs == rhs).all(axis=(2, 3)))
            d, e = d[i], diamonds[j]
            ok = _holds(_weak_rack_laws(d, e), n, len(d))
            yield d[ok], e[ok]

    return _census(n, WEAK_RACK, verified(), keep)
