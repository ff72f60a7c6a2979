"""Exhaustive enumeration of racks and weak racks on tiny carriers.

Racks are searched over dot tables whose rows are permutations (forced by
the cancellation axioms); the companion table is derived, never searched,
and the derived structure is re-verified against the full axiom set, so the
enumerator's pruning and the axiom checker stay independent code paths.

Counts are labeled (fixed carrier, no isomorphism reduction); isomorphism
class counts are derived on the side via canonical relabeling since the
published reference sequence for rack counts is the class count.
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
    check_rack_axioms,
    check_weak_rack_axioms,
    max_carrier,
)
from .tables import OpTable, derive_diamond

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


def _relabel_flat(table: list[list[int]], p, n: int) -> tuple:
    relabeled = [[0] * n for _ in range(n)]
    for a in range(n):
        pa = p[a]
        row = table[a]
        out = relabeled[pa]
        for b in range(n):
            out[p[b]] = p[row[b]]
    return tuple(v for row in relabeled for v in row)


def _canonical_form(table: list[list[int]], n: int) -> tuple:
    """Minimum relabeling of a dot table over all carrier permutations."""
    return min(_relabel_flat(table, p, n)
               for p in itertools.permutations(range(n)))


def _canonical_form_pair(dot, diamond, n: int) -> tuple:
    """Joint minimum relabeling of a (dot, diamond) table pair."""
    return min(_relabel_flat(dot, p, n) + _relabel_flat(diamond, p, n)
               for p in itertools.permutations(range(n)))


def _rack_dots(n):
    """Backtracking over rows that are permutations; each
    left-distributivity constraint is checked as soon as the last row it
    mentions is assigned."""
    perms = list(itertools.permutations(range(n)))
    found = []

    def consistent(rows):
        r = len(rows) - 1
        for a in range(r + 1):
            row_a = rows[a]
            for b in range(r + 1):
                t = row_a[b]
                if t > r:
                    continue
                if a != r and b != r and t != r:
                    continue  # checked at an earlier depth
                row_b = rows[b]
                row_t = rows[t]
                for c in range(n):
                    if row_a[row_b[c]] != row_t[row_a[c]]:
                        return False
        return True

    def extend(rows):
        if len(rows) == n:
            found.append([list(r) for r in rows])
            return
        for p in perms:
            rows.append(p)
            if consistent(rows):
                extend(rows)
            rows.pop()

    extend([])
    return found


def enumerate_racks(n: int, keep: bool = False) -> EnumResult:
    """All labeled racks on 0..n-1: dot rows range over permutations with
    left self-distributivity pruned during search, diamond derived by row
    inversion, and the remaining axiom re-verified on each candidate."""
    cap = max_carrier(RACK_ENUM_CAP)
    if not 1 <= n <= cap:
        raise CarrierTooLarge(f"rack enumeration supports 1 <= n <= {cap}")

    survivors = []
    for dot_rows in _rack_dots(n):
        dot = OpTable(n, np.asarray(dot_rows))
        diamond = derive_diamond(dot)
        s = Structure(n, dot, diamond, RACK)
        if check_rack_axioms(s, max_witnesses=1).passed:
            survivors.append(s)

    iso = {_canonical_form(s.dot.tolist(), n) for s in survivors}
    return EnumResult(
        n=n,
        count=len(survivors),
        iso_count=len(iso),
        structures=survivors if keep else None,
    )


def _self_distributive_tables(n: int, right: bool) -> list[tuple]:
    """Cell-by-cell backtracking over all n x n tables, pruning on the
    (left or right) self-distributivity axiom as soon as every cell a
    constraint instance touches is filled."""
    cells = [(a, b) for a in range(n) for b in range(n)]
    table = [[-1] * n for _ in range(n)]
    found = []

    def value(a, b):
        return table[a][b]

    def check_partial() -> bool:
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if right:
                        # (c<>b)<>a = (c<>a)<>(b<>a)
                        cb = value(c, b)
                        ca = value(c, a)
                        ba = value(b, a)
                        if cb < 0 or ca < 0 or ba < 0:
                            continue
                        lhs = value(cb, a)
                        rhs = value(ca, ba)
                    else:
                        # a(bc) = (ab)(ac)
                        bc = value(b, c)
                        ab = value(a, b)
                        ac = value(a, c)
                        if bc < 0 or ab < 0 or ac < 0:
                            continue
                        lhs = value(a, bc)
                        rhs = value(ab, ac)
                    if lhs >= 0 and rhs >= 0 and lhs != rhs:
                        return False
        return True

    def fill(idx: int):
        if idx == len(cells):
            found.append(tuple(v for row in table for v in row))
            return
        a, b = cells[idx]
        for v in range(n):
            table[a][b] = v
            if check_partial():
                fill(idx + 1)
            table[a][b] = -1

    fill(0)
    return found


def enumerate_weak_racks(n: int, keep: bool = False) -> EnumResult:
    """All labeled weak racks (dot, diamond) on 0..n-1.

    For n <= 2 a plain exhaustive scan over every table pair; for larger
    carriers dot candidates are pruned on left self-distributivity and
    diamond candidates on right self-distributivity before the pairwise
    compatibility scan.  Every counted pair is re-verified by the axiom
    checker.
    """
    cap = max_carrier(WEAK_ENUM_CAP)
    if not 1 <= n <= cap:
        raise CarrierTooLarge(f"weak-rack enumeration supports 1 <= n <= {cap}")

    if n <= 2:
        all_tables = [tuple(t) for t in
                      itertools.product(range(n), repeat=n * n)]
        dot_candidates = all_tables
        diamond_candidates = all_tables
    else:
        dot_candidates = _self_distributive_tables(n, right=False)
        diamond_candidates = _self_distributive_tables(n, right=True)

    diamond_arrays = np.asarray(diamond_candidates, dtype=np.int64)
    m = diamond_arrays.shape[0]
    survivors: list[Structure] = []
    iso: set[tuple] = set()
    count = 0

    for flat in dot_candidates:
        d = np.asarray(flat, dtype=np.int64).reshape(n, n)
        # weak compatibility (ab)<>a = a(b<>a) for all diamond
        # candidates at once: per pair (a, b) compare gathered columns
        ok = np.ones(m, dtype=bool)
        for a in range(n):
            row = d[a]
            for b in range(n):
                lhs = diamond_arrays[:, row[b] * n + a]
                rhs = row[diamond_arrays[:, b * n + a]]
                ok &= lhs == rhs
                if not ok.any():
                    break
            if not ok.any():
                break
        for e_flat in diamond_arrays[ok]:
            s = Structure(
                n,
                OpTable(n, d),
                OpTable(n, e_flat.reshape(n, n)),
                WEAK_RACK,
            )
            if check_weak_rack_axioms(s, max_witnesses=1).passed:
                count += 1
                iso.add(_canonical_form_pair(
                    s.dot.tolist(), s.diamond.tolist(), n))
                if keep:
                    survivors.append(s)

    return EnumResult(
        n=n,
        count=count,
        iso_count=len(iso),
        structures=survivors if keep else None,
    )
