"""Exhaustive enumeration of racks and weak racks on tiny carriers.

The searches build stacks of candidate tables, shape (m, n, n).  Rack dot
tables have permutation rows (the cancellation axioms force that) and the
diamond is derived from the dot as derive_diamond does; weak-rack
candidates pair every left (dot) with every right (diamond)
self-distributive table.  Every candidate is verified through tables._holds
against the laws its kind claims, selected from structures._laws: the pair
laws, then the triple laws on the survivors, each once.  So every verdict
comes from _KIND_LAWS, and the search prunes on the decided failures of
the same compiled a(bc) = (ab)(ac), read through its two sides
(structures._sides); the count and sha256 of
test_four_point_shelves_pinned and the tests' unpruned searches back it.

Counts are labeled: racks on 1..4 points number 1, 2, 13, 114 (1708 on 5
points, under RACKWORK_MAX_N=5), weak racks on 1..3 points 1, 45, 13352.
The published reference sequence is the isomorphism class count (1, 2, 6,
19, 74 and 1, 26, 2335).  A complete census is closed under relabeling,
so the classes are counted by Burnside's lemma over the labeled census,
with no canonical form; the tests' lexicographic canonical forms are the
independent check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CarrierTooLarge
from .structures import (_KIND_LAWS, AX_LEFT_DISTRIB, RACK, WEAK_RACK,
                         Structure, _named, _sides, max_carrier)
from .tables import OpTable, _by_value, _grids, _holds, _invert_rows

RACK_ENUM_CAP = 4
WEAK_ENUM_CAP = 3

# bytes of int64 gather indices per census block under the pair laws; the
# triple laws on a block's survivors may take up to n times as many
_SLAB_CELLS = 1 << 18


@dataclass(frozen=True, eq=False)
class EnumResult:
    """Search outcome on n points: the verified structures of one kind as
    read-only (count, n, n) stacks of dot and diamond tables, in
    lexicographic order, and their number of isomorphism classes."""

    n: int
    kind: str
    dots: np.ndarray
    diamonds: np.ndarray
    iso_count: int

    __eq__ = _by_value

    @property
    def count(self) -> int:
        return len(self.dots)

    @property
    def structures(self) -> list[Structure]:
        """The stacks as records, in order, built anew on every read."""
        return [Structure(self.n, OpTable(self.n, d), OpTable(self.n, e), self.kind)
                for d, e in zip(self.dots, self.diamonds)]


def _blocks(m: int, cells: int):
    """Slices of range(m), at least one item each, for stacks of items that
    cost `cells` gathered cells apiece: at most _SLAB_CELLS // 8 cells, so
    that a block's int64 gather indices take at most _SLAB_CELLS bytes.
    _SLAB_CELLS is the census's own bound, as _holds evaluates each law on
    a whole block at once, where tables._scan walks one head at a time.
    Candidate blocks cost n^2 cells per pair under the pair laws; the
    triple laws, n^3 cells per pair, run on a block's survivors only, so
    they take up to n times the bound when every candidate survives.  The
    search of _left_distributive_tables blocks its partial tables at n^4
    cells apiece, n children of n^3 instances each."""
    step = max(1, _SLAB_CELLS // 8 // cells)
    return (slice(i, i + step) for i in range(0, m, step))


def _fixed(d: np.ndarray, e: np.ndarray) -> int:
    """The number of (permutation, structure) pairs, over all carrier
    permutations and the (dot, diamond) stacks d, e, in which relabeling
    by the permutation leaves the structure unchanged.  One gather per
    permutation relabels the whole block."""
    t = np.stack((d, e), axis=1)
    fixed = 0
    for p in itertools.permutations(range(t.shape[-1])):
        p = np.array(p, dtype=t.dtype)
        q = np.argsort(p)
        # relabeled[p[a], p[b]] = p[table[a, b]]
        fixed += int((p[t[:, :, q[:, None], q]] == t).all(axis=(1, 2, 3)).sum())
    return fixed


def _census(n: int, kind: str, candidates) -> EnumResult:
    """The (dot, diamond) pairs of the candidate stacks that `candidates`
    yields which pass every law that `kind` claims, in their order: on
    each candidate block _holds applies the pair laws (arity 2), then the
    triple laws to the survivors, each law once.

    The pairs are closed under relabeling, so by Burnside's lemma there are
    (the sum of _fixed over the verified blocks) / n! isomorphism classes;
    for racks the dot determines the diamond, so a permutation fixes the
    pair exactly when it fixes the dot."""
    found, fixed = [], 0
    for d, e in candidates:
        for k in (2, 3):
            laws = [law for law in _named(_KIND_LAWS[kind], d, e) if law[1] == k]
            ok = _holds(laws, n, len(d))
            d, e = d[ok], e[ok]
        found.append((d, e))
        fixed += _fixed(d, e)
    # the trivial rack passes on every carrier, so `found` is not empty
    dots, diamonds = (np.concatenate(x) for x in zip(*found))
    dots.setflags(write=False)
    diamonds.setflags(write=False)
    return EnumResult(n=n, kind=kind, dots=dots, diamonds=diamonds,
                      iso_count=fixed // math.factorial(n))


def _left_distributive_tables(n: int, permutation_rows: bool = False) -> np.ndarray:
    """Every n x n table with a(bc) = (ab)(ac), optionally only those whose
    rows are permutations, in lexicographic order.

    A breadth-first sweep fills the cells in row-major order on a stack of
    partial tables, each (n+1) x (n+1): unfilled cells hold n, and so do
    row n and column n, so a term that reads an unfilled cell is n.  At
    each cell every kept table is extended by each value, parent-major,
    and a child is dropped on a decided failure, an instance (a, b, c)
    where the two sides of the compiled a(bc) = (ab)(ac) differ and
    neither is n.  Filled cells never change, so a decided failure is
    final; after the last cell every instance is decided, so the kept
    tables are exactly the left self-distributive ones, in lexicographic
    order.  An instance whose a or b lies past the current row reads an
    unfilled row, so the grids of a and b stop there, and the law gathers
    bc rather than reading the table for it.
    """
    tables = np.full((1, n + 1, n + 1), n, dtype=np.min_scalar_type(n))
    values = np.arange(n, dtype=tables.dtype)
    a, b, c = (g[:, None] for g in _grids(n, 3))
    for r, col in itertools.product(range(n), repeat=2):
        x, y = a[:r + 1], b[:, :, :r + 1]  # a and b on filled rows only
        kept = []
        # n children of n^3 instances apiece per parent
        for blk in _blocks(len(tables), n ** 4):
            t = np.repeat(tables[blk], n, axis=0)
            # a view of the fresh copy: parent p's child i takes value i
            t.reshape(-1, n, n + 1, n + 1)[:, :, r, col] = values
            if permutation_rows:
                t = t[~(t[:, r, :col] == t[:, r, col, None]).any(axis=1)]
            # the law reads the dot only
            left, right = _sides(AX_LEFT_DISTRIB, t, t)(x, y, c)
            bad = (left != right) & (np.maximum(left, right) < n)
            kept.append(t[~bad.any(axis=(0, 2, 3))])
        tables = np.concatenate(kept)
    return tables[:, :n, :n].astype(np.min_scalar_type(n - 1))


def enumerate_racks(n: int) -> EnumResult:
    """All labeled racks on 0..n-1, in lexicographic order of the dot:
    dot rows range over permutations with left self-distributivity pruned
    during search, diamond derived by row inversion, and the full axiom set
    verified on each candidate."""
    cap = max_carrier(RACK_ENUM_CAP)
    if not 1 <= n <= cap:
        raise CarrierTooLarge(f"rack enumeration supports 1 <= n <= {cap}")
    dots = _left_distributive_tables(n, permutation_rows=True)
    diamonds = _invert_rows(dots).astype(dots.dtype)
    blocks = _blocks(len(dots), n ** 2)
    return _census(n, RACK, ((dots[b], diamonds[b]) for b in blocks))


def enumerate_weak_racks(n: int) -> EnumResult:
    """All labeled weak racks (dot, diamond) on 0..n-1, in lexicographic
    order of (dot, diamond).

    Dot candidates are pruned on left self-distributivity and diamond
    candidates on right self-distributivity; each dot is paired with every
    diamond, and _census verifies the pairs against the full axiom set.
    """
    cap = max_carrier(WEAK_ENUM_CAP)
    if not 1 <= n <= cap:
        raise CarrierTooLarge(f"weak-rack enumeration supports 1 <= n <= {cap}")
    dots = _left_distributive_tables(n)
    # the transposes are the right self-distributive tables, sorted by a
    # lexsort: np.unique(axis=0) would import numpy.ma on its first call
    flat = dots.swapaxes(1, 2).reshape(len(dots), -1)
    diamonds = flat[np.lexsort(flat.T[::-1])].reshape(-1, n, n)
    # every pair of a block of dots with every diamond, dot-major
    pairs = ((np.repeat(dots[blk], len(diamonds), axis=0),
              np.tile(diamonds, (len(dots[blk]), 1, 1)))
             for blk in _blocks(len(dots), len(diamonds) * n ** 2))
    return _census(n, WEAK_RACK, pairs)
