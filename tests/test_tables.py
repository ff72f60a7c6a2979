import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rackwork as rw
from rackwork import euler, tables
from rackwork.tables import _at, _narrow, _scan
from conftest import S3_ELEMS, compose, invert, s3_mul_table

XOR = [0, 1, 1, 0]


def test_make_op_table_single():
    t = rw.make_op_table(1, [0])
    assert t.n == 1 and rw.apply(t, 0, 0) == 0


def test_make_op_table_xor():
    t = rw.make_op_table(2, XOR)
    assert rw.apply(t, 1, 1) == 0
    assert rw.apply(t, 0, 1) == 1


def test_make_op_table_rejects_out_of_range():
    with pytest.raises(rw.IndexOutOfRange):
        rw.make_op_table(2, [0, 1, 1, 2])


def test_make_op_table_rejects_wrong_length():
    with pytest.raises(rw.SizeMismatch):
        rw.make_op_table(2, [0, 1, 1])


def test_apply_bounds():
    t = rw.make_op_table(2, XOR)
    with pytest.raises(rw.IndexOutOfRange):
        rw.apply(t, 2, 0)
    with pytest.raises(rw.IndexOutOfRange):
        rw.apply(t, 0, -1)


def test_is_left_invertible():
    assert rw.is_left_invertible(rw.make_op_table(2, XOR))
    assert rw.is_left_invertible(rw.make_op_table(1, [0]))
    assert not rw.is_left_invertible(rw.make_op_table(2, [0, 0, 1, 1]))


def test_derive_diamond_xor_is_xor():
    xor = rw.make_op_table(2, XOR)
    assert rw.derive_diamond(xor) == xor


def test_derive_diamond_trivial():
    # dot ab = b; the solution of a.y = b is y = b, stored at (b, a)
    dot = rw.make_op_table(3, [0, 1, 2, 0, 1, 2, 0, 1, 2])
    diamond = rw.derive_diamond(dot)
    for a in range(3):
        for b in range(3):
            assert rw.apply(diamond, b, a) == b


def test_derive_diamond_requires_invertible_rows():
    with pytest.raises(rw.NotLeftInvertible):
        rw.derive_diamond(rw.make_op_table(2, [0, 0, 1, 1]))


@given(st.permutations(range(5)), st.permutations(range(5)),
       st.permutations(range(5)), st.permutations(range(5)),
       st.permutations(range(5)))
def test_derive_diamond_cancellation_laws(p0, p1, p2, p3, p4):
    """For any table with permutation rows the derived companion satisfies
    both cancellation identities."""
    rows = [p0, p1, p2, p3, p4]
    dot = rw.make_op_table(5, [v for row in rows for v in row])
    diamond = rw.derive_diamond(dot)
    for a in range(5):
        for b in range(5):
            assert rw.apply(dot, a, rw.apply(diamond, b, a)) == b
            assert rw.apply(diamond, rw.apply(dot, a, b), a) == b


def test_validate_group_z3():
    flat = [(a + b) % 3 for a in range(3) for b in range(3)]
    g = rw.validate_group(rw.make_op_table(3, flat))
    assert g.identity == 0
    assert g.inv.tolist() == [0, 2, 1]


def test_validate_group_s3_against_permutation_oracle():
    g = rw.validate_group(rw.make_op_table(
        6, [v for row in s3_mul_table() for v in row]))
    assert g.identity == 0
    # inverses must match direct permutation inversion
    idx = {p: i for i, p in enumerate(S3_ELEMS)}
    assert g.inv.tolist() == [idx[invert(p)] for p in S3_ELEMS]
    # spot-check one product: (12)(13) applies (13) first
    assert rw.apply(g.mul, 1, 2) == idx[compose(S3_ELEMS[1], S3_ELEMS[2])]


def test_validate_group_offset_xor_is_a_group():
    # a+b+1 mod 2 has identity 1; row 1 is (0, 1) with matching column
    g = rw.validate_group(rw.make_op_table(2, [1, 0, 0, 1]))
    assert g.identity == 1
    assert g.inv.tolist() == [0, 1]


def test_validate_group_no_identity():
    with pytest.raises(rw.NoIdentity):
        rw.validate_group(rw.make_op_table(2, [0, 0, 0, 0]))


def test_validate_group_no_inverse():
    # AND on {0,1}: a monoid with identity 1, but 0 has no inverse
    with pytest.raises(rw.NoInverse) as exc:
        rw.validate_group(rw.make_op_table(2, [0, 0, 0, 1]))
    assert exc.value.element == 0


def test_validate_group_messages():
    with pytest.raises(rw.NoIdentity) as exc:
        rw.validate_group(rw.make_op_table(2, [0, 0, 0, 0]))
    assert str(exc.value) == "no two-sided identity element"
    # xor on {0, 1}, and max wherever 2 or 3 takes part: identity 0, 1 is
    # its own inverse, and neither 2 nor 3 has one, so 2 is reported
    table = [a ^ b if max(a, b) < 2 else max(a, b)
             for a in range(4) for b in range(4)]
    with pytest.raises(rw.NoInverse) as exc:
        rw.validate_group(rw.make_op_table(4, table))
    assert exc.value.element == 2
    assert str(exc.value) == "element 2 has no inverse"


def _group_parts_by_loops(n, table):
    """Plain-loop oracle: the two-sided identity and the least right
    inverse of each element, or the first element that has none."""
    rows = [table[a * n:a * n + n] for a in range(n)]
    ids = [e for e in range(n)
           if all(rows[e][x] == x and rows[x][e] == x for x in range(n))]
    if not ids:
        return "no identity"
    inv = []
    for a in range(n):
        if ids[0] not in rows[a]:
            return ("no inverse", a)
        inv.append(rows[a].index(ids[0]))
    return ids[0], inv


@st.composite
def magmas_with_an_identity(draw):
    """A random table on n <= 5 points, mostly with row and column e set to
    those of an identity, so that the inverse search is reached."""
    n = draw(st.integers(1, 5))
    table = draw(st.lists(st.integers(0, n - 1), min_size=n * n,
                          max_size=n * n))
    if draw(st.integers(0, 3)):
        e = draw(st.integers(0, n - 1))
        for x in range(n):
            table[e * n + x] = table[x * n + e] = x
    return n, table


@given(magmas_with_an_identity())
def test_validate_group_identity_and_inverses_match_loops(case):
    n, table = case
    expected = _group_parts_by_loops(n, table)
    try:
        g = rw.validate_group(rw.make_op_table(n, table))
    except rw.NoIdentity:
        assert expected == "no identity"
    except rw.NoInverse as exc:
        assert expected == ("no inverse", exc.element)
    except rw.NotAssociative:
        assert expected != "no identity" and expected[0] != "no inverse"
    else:
        assert (g.identity, g.inv.tolist()) == expected


def test_validate_group_not_associative():
    # the smallest non-associative loop (order 5); first bad triple (1,1,2)
    loop = [
        0, 1, 2, 3, 4,
        1, 0, 3, 4, 2,
        2, 3, 4, 0, 1,
        3, 4, 1, 2, 0,
        4, 2, 0, 1, 3,
    ]
    with pytest.raises(rw.NotAssociative) as exc:
        rw.validate_group(rw.make_op_table(5, loop))
    assert exc.value.witness == (1, 1, 2)


def test_op_table_is_immutable():
    t = rw.make_op_table(2, XOR)
    with pytest.raises(ValueError):
        t.entries[0, 0] = 1


def test_op_table_equality():
    assert rw.make_op_table(2, XOR) == rw.make_op_table(2, XOR)
    assert rw.make_op_table(2, XOR) != rw.make_op_table(2, [0, 1, 1, 1])


def _records():
    """Per by-value record type: a record, an equal copy built from fresh
    arrays, records that differ from it in one field (a group's order
    only with its table), and a value of another type."""
    xor = rw.make_op_table(2, XOR)
    flip = rw.make_op_table(2, [0, 1, 1, 1])  # one entry of xor differs
    g = rw.validate_group(xor)
    s = rw.trivial_rack(2)
    f = euler.identity_pair_map(2)
    return {
        "OpTable": (xor, rw.OpTable(2, xor.entries.copy()),
                    [flip, rw.make_op_table(1, [0])], xor.entries),
        "GroupTable": (g, rw.GroupTable(2, rw.make_op_table(2, XOR), 0,
                                        g.inv.copy()),
                       [rw.validate_group(rw.make_op_table(1, [0])),
                        replace(g, mul=flip),
                        replace(g, identity=1), replace(g, inv=[1, 0])],
                       g.mul),
        "Structure": (s, rw.Structure(2, rw.OpTable(2, s.dot.entries.copy()),
                                      rw.OpTable(2, s.diamond.entries.copy()),
                                      rw.RACK),
                      [rw.trivial_rack(3), replace(s, dot=flip),
                       replace(s, diamond=flip),
                       replace(s, kind=rw.UNCHECKED)],
                      s.dot),
        "PairMap": (f, rw.PairMap(2, f.out.copy()),
                    [euler.identity_pair_map(3),
                     rw.PairMap(2, [[0, 0], [0, 1], [1, 0], [1, 0]])],
                    f.out),
    }


@pytest.mark.parametrize("kind", ["OpTable", "GroupTable", "Structure",
                                  "PairMap"])
def test_records_compare_by_value(kind):
    record, copy, variants, other = _records()[kind]
    assert record == copy and not record != copy
    for variant in variants:
        assert record != variant and not record == variant
    assert (record == other) is False and (record != other) is True
    with pytest.raises(TypeError):
        hash(record)


def _record_from(kind, arr):
    """A record built on arr, and the field that keeps it."""
    if kind == "OpTable":
        return rw.OpTable(2, arr), lambda r: r.entries
    if kind == "GroupTable":
        mul = rw.make_op_table(2, XOR)
        return rw.GroupTable(2, mul, 0, arr), lambda r: r.inv
    return rw.PairMap(2, arr), lambda r: r.out


@pytest.mark.parametrize("kind", ["OpTable", "GroupTable", "PairMap"])
def test_records_do_not_alias_the_callers_array(kind):
    # a record's array given as a fresh contiguous int64 array, then as a
    # contiguous view of a larger one whose base the caller can still write
    valid = {"OpTable": [[0, 1], [1, 0]], "GroupTable": [0, 1],
             "PairMap": [[0, 0], [0, 1], [1, 0], [1, 1]]}[kind]
    fresh = np.array(valid, dtype=np.int64)
    base = np.array(valid + valid[:1], dtype=np.int64)
    for arr, owner in ((fresh, fresh), (base[:-1], base)):
        record, field = _record_from(kind, arr)
        kept = field(record)
        assert not np.shares_memory(kept, owner)
        assert arr.flags.writeable and owner.flags.writeable
        owner[0] = 1 - owner[0]
        assert kept.tolist() == valid and not kept.flags.writeable


def test_narrow_dtype_by_carrier():
    for n, dtype in ((1, np.uint8), (16, np.uint8), (17, np.uint16),
                     (64, np.uint16), (65, np.uint16), (256, np.uint16),
                     (257, np.uint32)):
        table = np.arange(n * n, dtype=np.int64).reshape(n, n) % n
        for src in (table, table.T):  # a transpose is copied in row order
            t = _narrow(src)
            assert t.dtype == dtype and np.array_equal(t, src), n
            assert not t.flags.writeable and t.flags.c_contiguous, n


@pytest.mark.parametrize("n", [256, 257])
def test_narrow_flat_gather_matches_fancy_indexing(n):
    rng = np.random.default_rng(n)
    t = rng.integers(0, n, (n, n))
    t[0, n - 1] = t[n - 1, 0] = t[n - 1, n - 1] = n - 1
    nt = _narrow(t)
    assert not nt.flags.writeable and nt.flags.c_contiguous
    i, j = np.ix_(range(n), range(n))
    # index grids in the narrow dtype, as a law's inner gathers produce
    # them: the flat index i * n + j reaches n*n - 1 at (n - 1, n - 1)
    ni, nj = i.astype(nt.dtype), j.astype(nt.dtype)
    assert np.array_equal(_at(nt, i, j), t)
    assert np.array_equal(_at(nt, ni, nj), t)
    assert np.array_equal(_at(nt, _at(nt, ni, nj), _at(nt, nj, ni)), t[t, t.T])
    for a in (0, n - 1):
        assert np.array_equal(_at(nt, a, nt), t[a, t])


@pytest.mark.parametrize("n", [1, 5, 16, 17, 257])
def test_at_matches_fancy_indexing_in_every_form(n):
    rng = np.random.default_rng(n)
    t = rng.integers(0, n, (n, n))
    nt = _narrow(t)
    # a column and a row of lengths unlike n and each other, in the narrow
    # dtype that a law's inner gathers produce
    col = rng.integers(0, n, (n + 2, 1)).astype(nt.dtype)
    row = rng.integers(0, n, (1, n + 5)).astype(nt.dtype)
    vec = row.ravel()
    i, j = np.ix_(range(n), range(n))
    a = n - 1
    cases = {
        "column x row": (_at(nt, col, row), t[col, row]),
        "full grid": (_at(nt, i, j), t),
        "row x column": (_at(nt, row, col), t[row, col]),
        "nested outer": (_at(nt, _at(nt, col, row[:, :1]), _at(nt, col[:1], row)),
                         t[t[col, row[:, :1]], t[col[:1], row]]),
        "outer under flat": (_at(nt, _at(nt, col, row), row), t[t[col, row], row]),
        "int head": (_at(nt, a, row), t[a, row]),
        "int head on the table": (_at(nt, a, nt), t[a, t]),
        "int second under a column": (_at(nt, col, a), t[col, a]),
        "int second under a gather": (_at(nt, _at(nt, a, vec), a), t[t[a, vec], a]),
    }
    for name, (got, want) in cases.items():
        assert got.shape == want.shape and np.array_equal(got, want), name


def test_scan_walks_only_the_heads_it_is_given():
    calls = []

    def law(a, b, c):
        calls.append((a, b))
        return (b + c) % 2 == 0  # a mask over c

    assert _scan(law, 3, 3, 5, heads=[]) == [] and calls == []
    heads = [(0, 1), (2, 0)]
    assert _scan(law, 3, 3, 5, heads) == [(0, 1, 1), (2, 0, 0), (2, 0, 2)]
    assert calls == heads
    calls.clear()
    assert _scan(law, 3, 3, 1, heads) == [(0, 1, 1)] and calls == heads[:1]
    # by default the heads are the first values, so a k = 1 law gets no grid
    odd = np.arange(4) % 2 == 1
    assert _scan(lambda x: odd[x], 4, 1, 32) == [(1,), (3,)]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: rw.OpTable(0, np.zeros((0, 0))),
                 "carrier size must be positive, got 0", id="optable-empty"),
    pytest.param(lambda: rw.OpTable(2, np.zeros((3, 3))),
                 "expected 2x2 table, got shape (3, 3)", id="optable-shape"),
    pytest.param(lambda: rw.OpTable(1, 0),
                 "expected 1x1 table, got shape ()", id="optable-scalar"),
    pytest.param(lambda: rw.make_op_table(0, []),
                 "carrier size must be positive, got 0", id="make-empty"),
])
def test_guards(call, message):
    with pytest.raises(rw.SizeMismatch) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("call", [
    pytest.param(lambda: rw.OpTable(2, np.array([[0.9, 1.7], [0.2, 1.0]])),
                 id="optable-float"),
    pytest.param(lambda: rw.make_op_table(2, [0.5, 1, 0, 1.9]),
                 id="make-float"),
    pytest.param(lambda: rw.OpTable(1, [["0"]]), id="optable-str"),
    pytest.param(lambda: rw.OpTable(2, [[True, False], [False, True]]),
                 id="optable-bool"),
    pytest.param(lambda: rw.OpTable(1, [[10 ** 30]]), id="optable-bigint"),
    pytest.param(lambda: rw.OpTable(1, np.array([[0]], dtype=object)),
                 id="optable-object"),
    pytest.param(lambda: rw.PairMap(1, [[0.5, 0.2]]), id="pairmap-float"),
    pytest.param(lambda: rw.GroupTable(2, rw.make_op_table(2, XOR), 0,
                                       [0.0, 1.0]), id="group-inverses"),
    pytest.param(lambda: rw.check_morphism([0.7, 1.2], rw.trivial_rack(2),
                                           rw.trivial_rack(2)),
                 id="morphism-float"),
    pytest.param(lambda: rw.check_morphism([False, True], rw.trivial_rack(2),
                                           rw.trivial_rack(2)),
                 id="morphism-bool"),
    # a bool among integers, which np.array alone reads as 0 or 1
    pytest.param(lambda: rw.OpTable(2, [[True, 0], [0, 1]]),
                 id="optable-bool-among-ints"),
    pytest.param(lambda: rw.make_op_table(2, [True, 0, 0, 1]),
                 id="make-bool-among-ints"),
    pytest.param(lambda: rw.PairMap(2, [[True, 0], [0, 1], [1, 0], [1, 1]]),
                 id="pairmap-bool-among-ints"),
    pytest.param(lambda: rw.GroupTable(2, rw.make_op_table(2, XOR), 0,
                                       [False, 1]), id="group-bool-among-ints"),
    pytest.param(lambda: rw.GroupTable(2, rw.make_op_table(2, XOR), False,
                                       [0, 1]), id="group-bool-identity"),
    pytest.param(lambda: rw.check_morphism([True, 0], rw.trivial_rack(2),
                                           rw.trivial_rack(2)),
                 id="morphism-bool-among-ints"),
])
def test_non_integer_entries_are_rejected_not_truncated(call):
    with pytest.raises(rw.IndexOutOfRange, match="integers"):
        call()


@pytest.mark.parametrize("n, identity, inv, error, message", [
    pytest.param(2, 7, [0, 1], rw.IndexOutOfRange,
                 "identity must lie in [0, 1]", id="identity"),
    pytest.param(2, 7, [0], rw.SizeMismatch,
                 "a group of order 2 needs a 2-point mul and 2 inverses",
                 id="inverses"),
    pytest.param(3, 0, [0, 1], rw.SizeMismatch,
                 "a group of order 3 needs a 3-point mul and 3 inverses",
                 id="order"),
])
def test_group_fields_must_fit_its_order(n, identity, inv, error, message):
    mul = rw.make_op_table(2, XOR)
    with pytest.raises(error) as exc:
        rw.GroupTable(n, mul, identity, inv)
    assert str(exc.value) == message


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8,
                                   np.uint16, np.uint64])
def test_integer_entries_of_any_width_are_accepted(dtype):
    t = rw.OpTable(2, np.array(XOR, dtype=dtype).reshape(2, 2))
    assert t.entries.dtype == np.int64 and t == rw.make_op_table(2, XOR)
    assert rw.PairMap(1, np.zeros((1, 2), dtype=dtype)).out.dtype == np.int64
    s = rw.trivial_rack(2)
    assert rw.check_morphism(np.array([1, 0], dtype=dtype), s, s).passed


def test_unsigned_entries_beyond_int64_are_out_of_range():
    with pytest.raises(rw.IndexOutOfRange):
        rw.OpTable(1, np.array([[2 ** 63]], dtype=np.uint64))
    with pytest.raises(rw.IndexOutOfRange):
        rw.OpTable(1, [[2 ** 64 - 1]])


# validate_group proves associativity at the generators alone (Light's
# test); the oracles below loop over every triple.

def _group_by_loops(rows):
    """The plain-loop verdict of validate_group on a table given by rows:
    _group_parts_by_loops, or ("not associative", the first bad triple)."""
    n = len(rows)
    parts = _group_parts_by_loops(n, [v for row in rows for v in row])
    if parts == "no identity" or parts[0] == "no inverse":
        return parts
    for a, b, c in itertools.product(range(n), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return "not associative", (a, b, c)
    return parts


def _verdict(rows):
    n = len(rows)
    try:
        g = rw.validate_group(rw.make_op_table(n, [v for r in rows for v in r]))
    except rw.NoIdentity:
        return "no identity"
    except rw.NoInverse as exc:
        return "no inverse", exc.element
    except rw.NotAssociative as exc:
        return "not associative", exc.witness
    return g.identity, g.inv.tolist()


def _cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _symmetric(k):
    """S_k on its permutations in lexicographic order; ab applies b first."""
    elems = list(itertools.permutations(range(k)))
    idx = {p: i for i, p in enumerate(elems)}
    return [[idx[tuple(p[x] for x in q)] for q in elems] for p in elems]


def _product(r1, r2):
    n2 = len(r2)
    return [[r1[x][u] * n2 + r2[y][v] for u in range(len(r1))
             for v in range(n2)] for x in range(len(r1)) for y in range(n2)]


@st.composite
def loops(draw):
    """A loop on n <= 6 points: a random isotope g(x, y) = c(G[a(x)][b(y)])
    of a group G, turned into a loop with identity L(a0, b0) by
    x o y = L(R^-1 x, L^-1 y).  Some are groups, the others are not
    associative; every loop of order 4 or less is a group, so n = 5 and 6
    are drawn more often.  One entry is sometimes changed as well, which
    keeps an identity where it lies outside its row and column."""
    n = draw(st.one_of(st.integers(1, 6), st.integers(5, 6)))
    base = draw(st.sampled_from([_cyclic(n)]
                                + ([_product(_cyclic(2), _cyclic(2))] if n == 4
                                   else [])
                                + ([_symmetric(3)] if n == 6 else [])))
    al, be, ga = (draw(st.permutations(range(n))) for _ in range(3))
    sq = [[ga[base[al[x]][be[y]]] for y in range(n)] for x in range(n)]
    a0, b0 = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    right = {sq[x][b0]: x for x in range(n)}
    left = {sq[a0][y]: y for y in range(n)}
    rows = [[sq[right[x]][left[y]] for y in range(n)] for x in range(n)]
    if draw(st.booleans()):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[x][y] = draw(st.integers(0, n - 1))
    return rows


@settings(max_examples=300, deadline=None)
@given(loops())
def test_validate_group_matches_a_plain_triple_loop(rows):
    assert _verdict(rows) == _group_by_loops(rows)


@pytest.mark.parametrize("rows", [
    *(_cyclic(n) for n in (1, 2, 3, 5, 8, 12)),
    _symmetric(3), _symmetric(4), _product(_symmetric(3), _cyclic(4)),
], ids=["z1", "z2", "z3", "z5", "z8", "z12", "s3", "s4", "s3xz4"])
def test_groups_pass_validate_group(rows):
    assert _verdict(rows) == _group_by_loops(rows)
    assert isinstance(_verdict(rows)[0], int)


def test_associativity_is_scanned_at_the_generators_alone(monkeypatch):
    rows = _symmetric(4)
    calls = []
    real_scan = tables._scan

    def spy(law, n, k, cap, heads=None):
        calls.append(heads)
        return real_scan(law, n, k, cap, heads=heads)

    monkeypatch.setattr(tables, "_scan", spy)
    g = rw.validate_group(rw.make_op_table(24, [v for r in rows for v in r]))
    gens = tables._generators(g.mul.entries)
    assert calls == [[(x,) for x in gens]] and len(gens) < 24
