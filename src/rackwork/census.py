"""Exhaustive enumeration of racks and weak racks on tiny carriers.

The searches build stacks of candidate tables, shape (m, n, n).  Rack dot
tables have permutation rows (the cancellation axioms force that), the
diamond is derived from the dot as derive_diamond does, and every candidate
is verified through tables._holds against the laws of its kind, selected
through structures._named: the pair laws, then the triple laws on the
survivors, each once.  A weak rack pairs a left (dot) with a right
(diamond) self-distributive table; each law that reads one table is
verified once on the stack of that table, and the pairs are the join of
the two stacks on commuting translations, on which the one law that reads
both tables is verified.  So every verdict comes from _KIND_LAWS, and the
search prunes on the decided failures of the same compiled a(bc) = (ab)(ac),
read through its two sides (structures._sides); the count and sha256 of
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
from .structures import (_COMPILED, _KIND_LAWS, _READS, AX_LEFT_DISTRIB, RACK,
                         WEAK_RACK, Structure, _named, _sides, max_carrier)
from .tables import OpTable, _by_value, _grids, _holds, _invert_rows

RACK_ENUM_CAP = 4
WEAK_ENUM_CAP = 3

# bytes of int64 gather indices per census block
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
    The censuses verify laws of arity k at n^k cells per item, and the weak
    census joins its tables at n cells per (dot, diamond) pair.  The search
    of _left_distributive_tables blocks its partial tables at n^4 cells
    apiece, n children of n^3 instances each."""
    step = max(1, _SLAB_CELLS // 8 // cells)
    return (slice(i, i + step) for i in range(0, m, step))


def _fixes(t: np.ndarray) -> np.ndarray:
    """Masks, shape (n!, m), one row per carrier permutation in the order
    of itertools.permutations, of the items of a stack t, shape
    (m, ..., n, n), that relabeling by the permutation leaves unchanged:
    an item is fixed when each of its tables is.  One gather per
    permutation relabels the whole stack."""
    rows = []
    for p in itertools.permutations(range(t.shape[-1])):
        p = np.array(p, dtype=t.dtype)
        q = np.argsort(p)
        # relabeled[p[a], p[b]] = p[table[a, b]]
        rows.append((p[t[..., q[:, None], q]] == t).all(axis=tuple(range(1, t.ndim))))
    return np.array(rows)


def _fixed_pairs(d: np.ndarray, e: np.ndarray, pairs: np.ndarray) -> int:
    """The number of (permutation, structure) pairs, over all carrier
    permutations and the structures (d[x], e[y]) where pairs[x, y] is
    True, in which relabeling by the permutation leaves the structure
    unchanged, for stacks d, e, without building the structures:
    relabeling acts on each table, so a permutation fixes a pair exactly
    when it fixes both of its tables, and the pairs it fixes are those
    among the tables its masks of _fixes keep."""
    return sum(np.count_nonzero(pairs[x][:, y])
               for x, y in zip(_fixes(d), _fixes(e)))


def _result(n: int, kind: str, dots, diamonds, fixed: int) -> EnumResult:
    """The census of verified stacks, read-only, whose (permutation,
    structure) fixed pairs number `fixed`: the stacks are closed under
    relabeling, so by Burnside's lemma they hold fixed / n! classes."""
    dots.setflags(write=False)
    diamonds.setflags(write=False)
    return EnumResult(n=n, kind=kind, dots=dots, diamonds=diamonds,
                      iso_count=fixed // math.factorial(n))


def _passing(names, n: int, d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Per item of the (dot, diamond) stacks d, e, whether every law called
    `names` holds, by _holds in _blocks of n^k cells per item for laws of
    arity up to k."""
    cells = n ** max(_COMPILED[name][0] for name in names)
    return np.concatenate([_holds(_named(names, d[b], e[b]), n, len(d[b]))
                           for b in _blocks(len(d), cells)])


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
    # the pair laws on every candidate, then the triple laws on the survivors
    for k in (2, 3):
        ok = _passing([name for name in _KIND_LAWS[RACK] if _COMPILED[name][0] == k],
                      n, dots, diamonds)
        dots, diamonds = dots[ok], diamonds[ok]
    # a rack's diamond is a function of its dot, so a permutation fixes
    # the rack exactly when it fixes the dot
    return _result(n, RACK, dots, diamonds, int(_fixes(dots).sum()))


def _commute_table(n: int) -> np.ndarray:
    """c[f, g], over the n^n self-maps of 0..n-1 coded as base-n integers
    (the map x -> v_x as sum v_x n^(n-1-x)), is whether f and g commute."""
    maps = np.indices((n,) * n).reshape(n, -1).T   # row k is the map coded k
    fg = maps[:, maps]                              # fg[f, g, x] = f(g(x))
    return (fg == fg.swapaxes(0, 1)).all(axis=-1)


def enumerate_weak_racks(n: int) -> EnumResult:
    """All labeled weak racks (dot, diamond) on 0..n-1, in lexicographic
    order of (dot, diamond).

    The dots are the shelves (left self-distributive tables) and the
    diamonds their transposes (the right self-distributive tables), each
    verified once on the laws of _KIND_LAWS[WEAK_RACK] that read that table
    alone.  The compatibility law (ab)<>a = a(b<>a), the one law that reads
    both, says R_a(L_a(b)) = L_a(R_a(b)) for the translations L_a(b) = ab
    and R_a(b) = b<>a: so the pairs are the join of the two stacks on
    translations that commute at every a, looked up in one n^n x n^n
    commute table, and that law is verified on the joined pairs alone.
    The class count reads per-table fixed masks (_fixed_pairs).
    """
    cap = max_carrier(WEAK_ENUM_CAP)
    if not 1 <= n <= cap:
        raise CarrierTooLarge(f"weak-rack enumeration supports 1 <= n <= {cap}")

    def reading(*ops):
        """The laws of the kind that read exactly the tables `ops`."""
        return [name for name in _KIND_LAWS[WEAK_RACK] if _READS[name] == set(ops)]

    dots = _left_distributive_tables(n)
    # the transposes are the right self-distributive tables, sorted by a
    # lexsort: np.unique(axis=0) would import numpy.ma on its first call
    flat = dots.swapaxes(1, 2).reshape(len(dots), -1)
    diamonds = flat[np.lexsort(flat.T[::-1])].reshape(-1, n, n)
    # a law that reads one table never reads the other stack, so the same
    # stack stands in for both
    dots = dots[_passing(reading("dot"), n, dots, dots)]
    diamonds = diamonds[_passing(reading("dia"), n, diamonds, diamonds)]
    # codes of L_a, row a of a dot, and of R_a, column a of a diamond, by a
    # product and a sum: the first matmul of a process pages in 128 KB
    weights = n ** np.arange(n - 1, -1, -1)
    left = (dots * weights).sum(axis=-1)
    right = (diamonds.swapaxes(1, 2) * weights).sum(axis=-1)
    commute = _commute_table(n)

    def joined(b):
        """For the dots of block b against every diamond, whether their
        translations commute at every a."""
        return np.logical_and.reduce(
            [commute[left[b, a]][:, right[:, a]] for a in range(n)])

    # pairs[x, y]: dot x joins diamond y; its row-major order over the
    # lexsorted stacks is the (dot, diamond) lexicographic order
    pairs = np.concatenate(
        [joined(b) for b in _blocks(len(dots), len(diamonds) * n)])
    d = np.repeat(dots, pairs.sum(axis=1), axis=0)
    e = np.broadcast_to(diamonds, (len(dots), *diamonds.shape))[pairs]
    ok = _passing(reading("dot", "dia"), n, d, e)
    pairs[pairs] = ok
    return _result(n, WEAK_RACK, d[ok], e[ok], _fixed_pairs(dots, diamonds, pairs))
