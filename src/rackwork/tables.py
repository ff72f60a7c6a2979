"""Finite carriers and binary operation tables.

Elements of a carrier of size n are the dense indices 0..n-1.  An operation
table is an n x n integer matrix with t[a, b] = a op b.  Everything here is
immutable after construction and safe to share.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLeftInvertible,
    SizeMismatch,
)


def _freeze(arr, dtype=np.int64) -> np.ndarray:
    """A read-only, contiguous copy of arr in dtype: never arr itself nor a
    view of it, so that no caller can write to it afterwards."""
    out = np.array(arr, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _by_value(self, other) -> bool:
    """Equality of two records of one type, field by field, with array
    fields compared by value; records that define it are unhashable."""
    if type(other) is not type(self):
        return False
    for a, b in zip(vars(self).values(), vars(other).values()):
        if type(a) is np.ndarray:
            if a.shape != b.shape or not (a == b).all():
                return False
        elif a != b:
            return False
    return True


_SLAB_CELLS = 1 << 18  # larger scans walk the first variable value by value


@functools.lru_cache(maxsize=64)
def _grids(n: int, k: int) -> tuple[np.ndarray, ...]:
    """Read-only index grids for k variables over 0..n-1, one axis per
    variable; cached because tiny scans, as in the census, spend as long
    building them as evaluating the law."""
    return tuple(_freeze(g) for g in np.ix_(*[range(n)] * k))


def _narrow(t: np.ndarray) -> np.ndarray:
    """t, or a stack of tables, for a law scan: read-only, contiguous and in
    the smallest unsigned dtype that holds n*n - 1, n = t.shape[-1] (uint8
    up to n = 16, uint16 up to 256, uint32 up to 65536), so that _at
    gathers from it with one flat take.  It is a copy (see _freeze), which
    callers keep for one check.
    """
    n = t.shape[-1]
    return _freeze(t, np.min_scalar_type(n * n - 1))


def _at(t: np.ndarray, i, j) -> np.ndarray:
    """t[i, j] for a table t from _narrow and index grids i, j, in one of
    four forms:

    - stack, shape (m, n, n): structure s gathers from its own table, rows
      s*n .. s*n + n-1 of the stack's rows, and s runs along the batch axis
      of _holds's grids;
    - int head: a plain int i (the walked first variable) gathers from the
      row view;
    - outer: a column i, shape (k, 1), against a row j, shape (1, m), copies
      rows i and then picks columns j: two short index vectors, where the
      flat form builds and converts a k x m index for every first value;
    - flat: other grids gather from the flat view at i * n + j, one take
      where t[i, j] is a two-array gather.  i * n + j cannot overflow even
      when i and j are narrowed gathers: every value is below n, so the
      flat index is at most n*n - 1, which the dtype holds by construction.
    """
    if t.ndim == 3:
        m, n = len(t), t.shape[-1]
        trailing = max(np.ndim(i), np.ndim(j)) - 2  # grid axes after the batch axis
        s = np.arange(0, m * n, n).reshape(m, *[1] * trailing)
        return t.ravel().take((s + i) * n + j)
    if type(i) is int:
        return t[i].take(j)
    if np.ndim(i) == np.ndim(j) == 2 and i.shape[1] == 1 and j.shape[0] == 1:
        return t.take(i.ravel(), axis=0).take(j.ravel(), axis=1)
    return t.ravel().take(i * len(t) + j)


def _scan(law, n: int, k: int, cap: int, heads=None) -> list[tuple[int, ...]]:
    """The first `cap` failures, in lexicographic order, of a law over all
    k-tuples of carrier elements, or over those whose first is in `heads`.

    `law` takes k broadcastable index grids, one axis per variable, and
    returns the failure mask.  With no `heads` and up to _SLAB_CELLS
    instances it is called once over the whole domain; else the first
    variable is passed as a plain int, one value at a time, and the law
    returns a mask over the other k-1 axes.  A subterm over the trailing
    variables in axis order is the table itself: write d[a, d], not
    d[a, d[b, c]], so that it is not gathered again for every first value.
    Laws gather with _at from tables passed through _narrow; under the walk
    a column against a row takes _at's outer form, with no n x n index.
    """
    if heads is None and n ** k <= _SLAB_CELLS:
        chunks = [((), law(*_grids(n, k)))]
    else:
        rest = _grids(n, k - 1)
        chunks = (((a,), law(a, *rest)) for a in heads or range(n))
    found: list[tuple[int, ...]] = []
    for head, bad in chunks:
        if not bad.any():
            continue
        bad = np.broadcast_to(bad, (n,) * (k - len(head)))
        found += [head + tuple(map(int, w))
                  for w in np.argwhere(bad)[:cap - len(found)]]
        if len(found) >= cap:
            break
    return found


def _holds(laws, n: int, m: int) -> np.ndarray:
    """Per structure of a stack of m, whether every (name, arity, law) holds.

    The laws are those _scan takes, built on tables stacked as (m, n, n).
    Their grids get the batch axis second, right after the first variable,
    so that a stack stands for the subterm over the trailing variables as
    one table does in _scan; _at gathers each structure from its own table.
    A law is evaluated on the whole stack at once, so callers bound m * n^k.
    """
    ok = np.ones(m, dtype=bool)
    for _, k, law in laws:
        bad = np.broadcast_to(law(*(g[:, None] for g in _grids(n, k))),
                              (n, m) + (n,) * (k - 1))
        ok &= ~bad.any(axis=(0, *range(2, k + 1)))
    return ok


@dataclass(frozen=True, eq=False)
class OpTable:
    """One binary operation on a finite carrier, as an n x n index table."""

    n: int
    entries: np.ndarray  # shape (n, n), values in [0, n-1], read-only

    def __post_init__(self):
        if self.n < 1:
            raise SizeMismatch(f"carrier size must be positive, got {self.n}")
        ent = _freeze(self.entries)
        if ent.shape != (self.n, self.n):
            raise SizeMismatch(
                f"expected {self.n}x{self.n} table, got shape {ent.shape}"
            )
        if ent.size and (ent.min() < 0 or ent.max() >= self.n):
            raise IndexOutOfRange(
                f"table entries must lie in [0, {self.n - 1}]"
            )
        object.__setattr__(self, "entries", ent)

    __eq__ = _by_value

    def tolist(self) -> list[list[int]]:
        return self.entries.tolist()


def make_op_table(n: int, entries) -> OpTable:
    """Build and validate an OpTable from a flat, row-major list of indices."""
    flat = list(entries)
    if n < 1:
        raise SizeMismatch(f"carrier size must be positive, got {n}")
    if len(flat) != n * n:
        raise SizeMismatch(f"expected {n * n} entries, got {len(flat)}")
    return OpTable(n, np.asarray(flat, dtype=np.int64).reshape(n, n))


def apply(t: OpTable, a: int, b: int) -> int:
    """Evaluate a op b, with bounds checking."""
    if not (0 <= a < t.n and 0 <= b < t.n):
        raise IndexOutOfRange(f"({a},{b}) out of range for carrier size {t.n}")
    return int(t.entries[a, b])


def is_left_invertible(t: OpTable) -> bool:
    """True iff every row of the table is a permutation of the carrier,
    i.e. every left translation x -> a op x is a bijection."""
    return bool(
        (np.sort(t.entries, axis=1) == np.arange(t.n)[None, :]).all()
    )


def _invert_rows(t: np.ndarray) -> np.ndarray:
    """b <> a = the y with a . y = b, for a dot table or a stack of them
    with permutation rows: argsort inverts each row, then transpose."""
    return np.argsort(t, axis=-1).swapaxes(-1, -2)


def derive_diamond(dot: OpTable) -> OpTable:
    """Solve the cancellation laws for the companion operation: b <> a is
    the unique y with a . y = b.  Requires every row of dot to be a
    permutation."""
    if not is_left_invertible(dot):
        raise NotLeftInvertible("some left translation is not a bijection")
    return OpTable(dot.n, _invert_rows(dot.entries))


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A validated finite group: multiplication table, identity, inverses."""

    n: int
    mul: OpTable
    identity: int
    inv: np.ndarray  # shape (n,), read-only

    def __post_init__(self):
        object.__setattr__(self, "inv", _freeze(self.inv))

    __eq__ = _by_value


def validate_group(mul: OpTable) -> GroupTable:
    """Exhaustively check that mul is a group: two-sided identity, an
    inverse for every element, associativity over all triples."""
    n = mul.n
    m = mul.entries
    rng = np.arange(n)

    ids = np.flatnonzero((m == rng).all(1) & (m.T == rng).all(1))
    if not ids.size:
        raise NoIdentity("no two-sided identity element")
    identity = int(ids[0])

    # inv[a] is the least b with a b = identity
    hits = m == identity
    has = hits.any(1)
    if not has.all():
        raise NoInverse(int(np.argmin(has)))
    inv = hits.argmax(1)

    # (a b) c vs a (b c) over the full cube; first witness in lex order.
    t = _narrow(m)
    bad = _scan(lambda a, b, c: _at(t, _at(t, a, b), c) != _at(t, a, t),
                n, 3, 1)
    if bad:
        raise NotAssociative(*bad[0])

    return GroupTable(n, mul, identity, inv)
