import functools
import hashlib
import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rackwork as rw
from rackwork import census, cli
from rackwork.structures import (_COMPILED, _KIND_LAWS, _READS,
                                 AX_LEFT_DISTRIB, AX_RIGHT_DISTRIB,
                                 AX_WEAK_COMPAT, _named, classify)
from rackwork.tables import _grids, _holds, _invert_rows


def fixed_points(d, e):
    """The number of (permutation, structure) pairs, over all carrier
    permutations and the (dot, diamond) stacks d, e, in which relabeling
    by the permutation leaves the structure unchanged: the oracle for
    the census's Burnside counts."""
    return int(census._fixes(np.stack((d, e), axis=1)).sum())


def brute_force_rack_dots(n):
    """Unpruned oracle: every dot table with permutation rows satisfying
    left self-distributivity, companion derived, all axioms re-checked."""
    perms = list(itertools.permutations(range(n)))
    found = []
    for rows in itertools.product(perms, repeat=n):
        if not all(rows[a][rows[b][c]] == rows[rows[a][b]][rows[a][c]]
                   for a in range(n) for b in range(n) for c in range(n)):
            continue
        dot = rw.make_op_table(n, [v for row in rows for v in row])
        s = rw.make_structure(dot, rw.derive_diamond(dot))
        if rw.check_rack_axioms(s).passed:
            found.append(tuple(v for row in rows for v in row))
    return found


def brute_force_weak_count(n):
    """Unpruned oracle over every (dot, diamond) pair."""
    tabs = list(itertools.product(range(n), repeat=n * n))
    count = 0
    for d in tabs:
        for e in tabs:
            s = rw.make_structure(rw.make_op_table(n, d),
                                  rw.make_op_table(n, e))
            if rw.check_weak_rack_axioms(s).passed:
                count += 1
    return count


def relabel_flat(table, p, n):
    """The flat table of the structure carried along p: a.b -> p[a].p[b]."""
    out = [0] * (n * n)
    for a in range(n):
        for b in range(n):
            out[p[a] * n + p[b]] = p[table[a * n + b]]
    return out


def canonical_form(tables, n):
    """Least relabeling of the flat tables, concatenated, over all carrier
    permutations: two structures are isomorphic iff their forms are equal.
    The pure-Python oracle for the census's Burnside class count."""
    return min(tuple(v for t in tables for v in relabel_flat(t, p, n))
               for p in itertools.permutations(range(n)))


def flat(t):
    return [v for row in t.tolist() for v in row]


def stack(tables, n):
    return np.asarray(tables, dtype=np.uint8).reshape(-1, n, n)


class TestRackEnumeration:
    def test_n1(self):
        res = rw.enumerate_racks(1)
        assert (res.count, res.iso_count) == (1, 1)

    def test_n2_structures(self):
        res = rw.enumerate_racks(2)
        assert (res.count, res.iso_count) == (2, 2)
        dots = sorted(tuple(v for row in s.dot.tolist() for v in row)
                      for s in res.structures)
        # the trivial rack and the constant-swap rack ab = 1-b
        assert dots == [(0, 1, 0, 1), (1, 0, 1, 0)]

    def test_n3_counts(self):
        res = rw.enumerate_racks(3)
        assert (res.count, res.iso_count) == (13, 6)

    def test_n4_counts(self):
        res = rw.enumerate_racks(4)
        assert (res.count, res.iso_count) == (114, 19)

    def test_n5_counts(self, monkeypatch):
        # the n = 5 term of OEIS A181771
        monkeypatch.setenv("RACKWORK_MAX_N", "5")
        res = rw.enumerate_racks(5)
        assert (res.count, res.iso_count) == (1708, 74)

    def test_matches_unpruned_oracle(self):
        for n in (1, 2, 3):
            res = rw.enumerate_racks(n)
            got = sorted(tuple(v for row in s.dot.tolist() for v in row)
                         for s in res.structures)
            assert got == sorted(brute_force_rack_dots(n))

    def test_every_kept_structure_verifies(self):
        res = rw.enumerate_racks(3)
        for s in res.structures:
            assert rw.check_rack_axioms(s).passed
            assert s.kind == rw.RACK

    def test_kept_structures_in_lex_order(self):
        res = rw.enumerate_racks(3)
        dots = [s.dot.tolist() for s in res.structures]
        assert dots == sorted(dots)

    def test_cap(self, monkeypatch):
        monkeypatch.delenv("RACKWORK_MAX_N", raising=False)
        with pytest.raises(rw.CarrierTooLarge):
            rw.enumerate_racks(5)
        with pytest.raises(rw.CarrierTooLarge):
            rw.enumerate_racks(0)


class TestWeakRackEnumeration:
    def test_n1(self):
        res = rw.enumerate_weak_racks(1)
        assert res.count == 1

    def test_n2_count_and_members(self):
        res = rw.enumerate_weak_racks(2)
        assert res.count == 45
        pairs = {(tuple(v for row in s.dot.tolist() for v in row),
                  tuple(v for row in s.diamond.tolist() for v in row))
                 for s in res.structures}
        lat = rw.boolean_weak_rack_lattice(1)
        imp = rw.boolean_weak_rack_implication(1)
        triv = rw.trivial_rack(2)
        swap_dot = rw.make_op_table(2, [1, 0, 1, 0])
        swap = rw.make_structure(swap_dot, rw.derive_diamond(swap_dot), rw.RACK)
        for s in (lat, imp, triv, swap):
            key = (tuple(v for row in s.dot.tolist() for v in row),
                   tuple(v for row in s.diamond.tolist() for v in row))
            assert key in pairs

    def test_n2_matches_unpruned_oracle(self):
        assert rw.enumerate_weak_racks(2).count == brute_force_weak_count(2)

    def test_racks_embed_into_weak_racks(self):
        rack_res = rw.enumerate_racks(2)
        weak_res = rw.enumerate_weak_racks(2)
        weak_pairs = {(tuple(map(tuple, s.dot.tolist())),
                       tuple(map(tuple, s.diamond.tolist())))
                      for s in weak_res.structures}
        for s in rack_res.structures:
            key = (tuple(map(tuple, s.dot.tolist())),
                   tuple(map(tuple, s.diamond.tolist())))
            assert key in weak_pairs
        assert rack_res.count <= weak_res.count

    def test_n3_pruned_mode(self):
        res = rw.enumerate_weak_racks(3)
        assert res.count == 13352

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_left_distributive_tables_match_unpruned_oracle(self, n):
        every = [list(t) for t in itertools.product(range(n), repeat=n * n)]
        distributive = [t for t in every if all(
            t[a * n + t[b * n + c]] == t[t[a * n + b] * n + t[a * n + c]]
            for a in range(n) for b in range(n) for c in range(n))]
        got = census._left_distributive_tables(n).reshape(-1, n * n).tolist()
        assert got == distributive

    def test_kept_weak_structures_in_lex_order(self):
        for n in (2, 3):
            res = rw.enumerate_weak_racks(n)
            pairs = [(flat(s.dot), flat(s.diamond)) for s in res.structures]
            assert len(pairs) == res.count
            assert pairs == sorted(pairs)
            assert {s.kind for s in res.structures} == {rw.WEAK_RACK}

    def test_n3_matches_a_hand_written_pair_filter(self):
        """Reference: pair every left self-distributive dot with every right
        self-distributive diamond (the sorted transposes) and keep the pairs
        with (ab)<>a = a(b<>a), by plain fancy indexing; the three laws are
        then exactly the weak-rack axioms."""
        n = 3
        dots = census._left_distributive_tables(n).astype(np.int64)
        flat_t = dots.swapaxes(1, 2).reshape(len(dots), -1)
        diamonds = flat_t[np.lexsort(flat_t.T[::-1])].reshape(-1, n, n)
        x = np.arange(n)[:, None]
        pairs = []
        for d in dots:
            lhs = diamonds[:, d, x]                    # (ab)<>a at [., a, b]
            rhs = d[x, diamonds.swapaxes(1, 2)]        # a(b<>a) at [., a, b]
            for j in np.flatnonzero((lhs == rhs).all(axis=(1, 2))):
                pairs.append((d.ravel().tolist(), diamonds[j].ravel().tolist()))
        res = rw.enumerate_weak_racks(n)
        assert [(flat(s.dot), flat(s.diamond)) for s in res.structures] == pairs

    def test_every_kept_weak_structure_verifies(self):
        res = rw.enumerate_weak_racks(2)
        for s in res.structures:
            assert rw.check_weak_rack_axioms(s).passed

    def test_cap(self, monkeypatch):
        monkeypatch.delenv("RACKWORK_MAX_N", raising=False)
        with pytest.raises(rw.CarrierTooLarge):
            rw.enumerate_weak_racks(4)


@pytest.mark.parametrize("slab", [census._SLAB_CELLS, 1])
def test_left_distributive_tables_across_blocks(monkeypatch, slab):
    """The search returns the same array, in dtype, shape and bytes, with
    its default block bound and with blocks of one table each."""
    cases = [(n, False) for n in (1, 2, 3)] + [(n, True) for n in (1, 2, 3, 4)]
    default = [census._left_distributive_tables(n, p) for n, p in cases]
    monkeypatch.setattr(census, "_SLAB_CELLS", slab)
    for (n, p), want in zip(cases, default):
        got = census._left_distributive_tables(n, p)
        assert (got.dtype, got.shape, got.tobytes()) == (
            want.dtype, want.shape, want.tobytes()), (n, p)


def test_four_point_shelves_pinned():
    """The left self-distributive tables on 4 points, the dots that a weak
    census on 4 points starts from: their number and the sha256 of their
    bytes, taken from the cell-by-cell backtracking search."""
    t = census._left_distributive_tables(4)
    assert (t.shape, t.dtype, hashlib.sha256(t.tobytes()).hexdigest()) == (
        (14067, 4, 4), np.uint8,
        "75b8d3c2b0433758f13e1611885709392ead4e8d85636783e9aa8d6651d17dfe")


def laver_table(k):
    """The Laver table A_k on 0..2^k - 1, with 0 standing for 2^k: row 0
    is the identity, and the rows below it are filled from the top down
    by p*1 = p+1 (mod 2^k) and p*(q+1) = (p*q)*(p+1), which reads only
    rows above p.  The recursion states no law."""
    size = 1 << k
    t = [list(range(size))] + [[0] * size for _ in range(size - 1)]
    for p in range(size - 1, 0, -1):
        t[p][1 % size] = (p + 1) % size
        for q in range(1, size):
            t[p][(q + 1) % size] = t[t[p][q]][(p + 1) % size]
    return t


def test_laver_tables_are_shelves_past_the_census():
    """A_0..A_8 with the projection diamond x<>y = x are weak racks
    (a rack only on one point), p -> p mod 2^(k-1) maps A_k onto A_(k-1),
    and A_2 is one of the census's shelves on 4 points: a check of the
    compiled left self-distributivity on up to 256 points, on tables that
    no search built."""
    smaller = None
    for k in range(9):
        size = 1 << k
        s = rw.make_structure(
            rw.OpTable(size, laver_table(k)),
            rw.OpTable(size, [[x] * size for x in range(size)]))
        assert rw.check_weak_rack_axioms(s).passed
        assert classify(s)[0] == (rw.RACK if k == 0 else rw.WEAK_RACK)
        if smaller:
            images = [p % (size // 2) for p in range(size)]
            assert rw.check_morphism(images, s, smaller).passed
        smaller = s
    shelves = census._left_distributive_tables(4)
    assert (shelves == np.array(laver_table(2))).all(axis=(1, 2)).sum() == 1


def record_digest(structures):
    h = hashlib.sha256()
    for s in structures:
        h.update(f"{s.n} {s.kind} {s.dot.tolist()} {s.diamond.tolist()}\n".encode())
    return h.hexdigest()


def files_digest(directory):
    h = hashlib.sha256()
    for path in sorted(pathlib.Path(directory).iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# sha256 of the records and of the files `enum --keep` writes, taken when
# the census still built its records during the search
PINNED = {
    ("racks", 1): ("11145c196fbd3236fa32eed253cc9ca923b9adcad1f54df861d493595efebbfb",
                   "594a3166a12407767c1300db0b82ee22472d9ad4bbefb353df940ee736bd9e84"),
    ("racks", 2): ("5e61bd80ad7c8177c761b60258627e5754c7aabceb9c482315e314e2c28dc515",
                   "9ee462a2b3afc94ac5340567e6c25bccb24b5f6dbdf975a08742970906a73238"),
    ("racks", 3): ("953c2a3f6f50a610eb63d175645ae6ee27fa3ba4439591500977500cec676dcc",
                   "b4922827138aa3c49b5018251faf7f8cc6425bb915e45f846db141285a7c8c70"),
    ("racks", 4): ("d011d32f30cbf902556abf2f5e8a597858a0082555dbcc007501793e97e82e95",
                   "ebceab101f9a7ac96aa94e0a51183077c8b38e16c8e9d75756a9591af16f8cef"),
    ("racks", 5): ("d533dc4a1880564b9282cadc62fd449dca1b3558b79e7aab67646c7c1e9e22c0",
                   "5db82becce31b8e63f6c38e08a51aabc1d27932bff97b5741a22f693dbc28aa0"),
    ("weak racks", 1): ("663a1e2f8c8891d8bb1c4ea4d8cf148e86e1e1bef3deee677215fbbdadf1d7dd",
                        "19950bce275e6bf6fd1d7c860349ecbee5558c8f6bef4ddb196c9de0cda1be01"),
    ("weak racks", 2): ("0e46a91272ad727baab902ab0702664173bd6e7164b35ee00bc23eb439800f2b",
                        "ecd71ef9dc0b68699180947cd03d418330bb183c0e106199e2638e0ac8bcb44f"),
    ("weak racks", 3): ("a5fdbbd2ace6a9423f9b13a86d95e2221562ad4bd237cb07ade1d7e782af5a0b",
                        "bbfe18b9b076c8e4a0fd4f12e42802079e619c2b5c1640a56fd058938f096420"),
}


class TestCensusResult:
    @pytest.mark.parametrize("enumerate_,n", [(rw.enumerate_racks, 4),
                                              (rw.enumerate_weak_racks, 2)])
    def test_stacks_are_read_only_and_are_the_records(self, enumerate_, n):
        res = enumerate_(n)
        assert res.dots.shape == res.diamonds.shape == (res.count, n, n)
        for tables in (res.dots, res.diamonds):
            with pytest.raises(ValueError):
                tables[0, 0, 0] = 0
        records = res.structures
        assert [s.dot.tolist() for s in records] == res.dots.tolist()
        assert [s.diamond.tolist() for s in records] == res.diamonds.tolist()
        assert {(s.n, s.kind) for s in records} == {(n, res.kind)}

    def test_equality_does_not_depend_on_reading_the_records(self):
        a, b = rw.enumerate_weak_racks(2), rw.enumerate_weak_racks(2)
        assert a == b
        assert len(a.structures) == 45
        assert a == b and b == a
        assert a != rw.enumerate_racks(2)
        assert a != rw.enumerate_weak_racks(1)

    @pytest.mark.parametrize("what,n", sorted(PINNED))
    def test_records_and_kept_files_are_pinned(self, what, n, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.setenv("RACKWORK_MAX_N", "5")  # racks on 5 points
        weak = what == "weak racks"
        res = (rw.enumerate_weak_racks if weak else rw.enumerate_racks)(n)
        keep = str(tmp_path / "kept")
        code = cli.main(["enum", "--n", str(n), "--keep", keep]
                        + ["--weak"] * weak)
        assert code == 0
        assert capsys.readouterr().out == (
            f"command: enum\n{what} = {res.count}\n"
            f"isomorphism classes = {res.iso_count}\nkept = {keep}\n"
            f"[pass] enumerated {what} on {n} elements\nresult: PASS\n")
        assert (record_digest(res.structures), files_digest(keep)) == PINNED[what, n]


class TestCanonicalForms:
    def test_iso_count_independent_relabeling_oracle(self):
        """Recount the n=2 weak-rack classes with a from-scratch orbit scan."""
        res = rw.enumerate_weak_racks(2)
        pairs = [(tuple(v for row in s.dot.tolist() for v in row),
                  tuple(v for row in s.diamond.tolist() for v in row))
                 for s in res.structures]

        def relabel(flat, p):
            out = [0] * 4
            for a in range(2):
                for b in range(2):
                    out[p[a] * 2 + p[b]] = p[flat[a * 2 + b]]
            return tuple(out)

        seen = set()
        classes = 0
        for d, e in pairs:
            if (d, e) in seen:
                continue
            classes += 1
            for p in ((0, 1), (1, 0)):
                seen.add((relabel(d, p), relabel(e, p)))
        assert classes == res.iso_count

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rack_iso_counts_match_relabeling_oracle(self, n):
        res = rw.enumerate_racks(n)
        forms = {canonical_form([flat(s.dot)], n) for s in res.structures}
        assert len(forms) == res.iso_count

    @pytest.mark.parametrize("n", [1, 2])
    def test_weak_iso_counts_match_relabeling_oracle(self, n):
        res = rw.enumerate_weak_racks(n)
        forms = {canonical_form([flat(s.dot), flat(s.diamond)], n)
                 for s in res.structures}
        assert len(forms) == res.iso_count

    @pytest.mark.parametrize("n,classes", [(1, 1), (2, 26), (3, 2335)])
    def test_weak_class_counts(self, n, classes):
        assert rw.enumerate_weak_racks(n).iso_count == classes

    def test_constant_3_cycle_racks_are_one_class(self):
        # ab = c(b) for c = (0 1 2) and for its inverse: 3! relabelings,
        # each rack fixed by the 3 that commute with c
        dots = stack([[1, 2, 0] * 3, [2, 0, 1] * 3], 3)
        assert fixed_points(dots, _invert_rows(dots)) == 6

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a_rack_is_fixed_exactly_where_its_dot_is(self, n):
        """The rack census counts fixed points on the dots alone."""
        res = rw.enumerate_racks(n)
        assert (int(census._fixes(res.dots).sum())
                == fixed_points(res.dots, res.diamonds)
                == res.iso_count * math.factorial(n))

    def test_fixed_points_of_an_empty_stack(self):
        empty = stack([], 3)
        assert fixed_points(empty, empty) == 0


@st.composite
def relabeling_closed_stacks(draw):
    """0-4 random (dot, diamond) pairs on n <= 3 points and every
    relabeling of each: a set of pairs closed under relabeling, as a
    complete census is."""
    n = draw(st.integers(1, 3))
    cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    pairs = draw(st.lists(st.tuples(cells, cells), max_size=4))
    closed = {(tuple(relabel_flat(d, p, n)), tuple(relabel_flat(e, p, n)))
              for d, e in pairs for p in itertools.permutations(range(n))}
    return n, sorted(closed)


@settings(max_examples=200, deadline=None)
@given(relabeling_closed_stacks())
def test_burnside_count_matches_canonical_forms(case):
    n, pairs = case
    fixed = fixed_points(stack([d for d, _ in pairs], n),
                         stack([e for _, e in pairs], n))
    assert fixed % math.factorial(n) == 0
    assert fixed // math.factorial(n) == len(
        {canonical_form([d, e], n) for d, e in pairs})


# per carrier size, structures whose verdicts are known to differ: racks from
# the census, and Boolean weak racks, which are not racks for n > 1
@functools.lru_cache(maxsize=None)
def _known(n):
    known = [(s.dot.tolist(), s.diamond.tolist())
             for s in rw.enumerate_racks(n).structures]
    if n in (1, 2, 4):
        k = n.bit_length() - 1
        known += [(s.dot.tolist(), s.diamond.tolist()) for s in
                  (rw.boolean_weak_rack_implication(k),
                   rw.boolean_weak_rack_lattice(k))]
    return known


@st.composite
def table_pair_stacks(draw):
    """A stack of (dot, diamond) pairs on n <= 4 points: mostly random
    tables, which nearly always fail, mixed with known structures and
    known structures with one entry changed."""
    n = draw(st.integers(1, 4))
    cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    known = _known(n)
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("random", "random", "known", "mutated")))
        if kind == "random":
            pairs.append((draw(cells), draw(cells)))
            continue
        d, e = (flat(np.asarray(t)) for t in draw(st.sampled_from(known)))
        if kind == "mutated":
            t = draw(st.sampled_from((d, e)))
            t[draw(st.integers(0, n * n - 1))] = draw(st.integers(0, n - 1))
        pairs.append((d, e))
    return n, pairs


@settings(max_examples=150, deadline=None)
@given(table_pair_stacks())
def test_stacked_verdicts_match_the_axiom_checkers(case):
    n, pairs = case
    structures = [rw.make_structure(rw.make_op_table(n, d), rw.make_op_table(n, e))
                  for d, e in pairs]
    for kind, check in ((rw.RACK, rw.check_rack_axioms),
                        (rw.WEAK_RACK, rw.check_weak_rack_axioms)):
        laws = functools.partial(_named, _KIND_LAWS[kind])
        expected = [check(s).passed for s in structures]
        d = stack([d for d, _ in pairs], n)
        e = stack([e for _, e in pairs], n)
        assert _holds(laws(d, e), n, len(pairs)).tolist() == expected
        # each structure as a batch of one
        assert [bool(_holds(laws(d[i:i + 1], e[i:i + 1]), n, 1)[0])
                for i in range(len(pairs))] == expected


@pytest.mark.parametrize("enumerate_, n", [(rw.enumerate_racks, 3),
                                          (rw.enumerate_weak_racks, 2),
                                          (rw.enumerate_weak_racks, 3)])
def test_each_census_law_runs_once(enumerate_, n, monkeypatch):
    """Every law of the kind is evaluated once per table or pair it reads,
    never two arities in one call.  Racks: the pair laws on every
    candidate, the triple laws on the pair laws' survivors.  Weak racks:
    left self-distributivity once per shelf, right self-distributivity once
    per diamond (the shelves' transposes), and the compatibility law once
    per joined pair, every one of which it keeps."""
    calls = []
    real_holds = census._holds

    def spy(laws, n, m):
        calls.append(([(name, k) for name, k, _ in laws], m))
        return real_holds(laws, n, m)

    monkeypatch.setattr(census, "_holds", spy)
    res = enumerate_(n)
    sizes = {}
    for laws, m in calls:
        assert len({k for _, k in laws}) == 1
        for law in laws:
            sizes[law] = sizes.get(law, 0) + m
    if enumerate_ is rw.enumerate_racks:
        candidates = len(census._left_distributive_tables(n, permutation_rows=True))
        t = np.zeros((1, 1), dtype=int)
        assert sizes == {(name, k): candidates if k == 2 else res.count
                         for name, k, _ in _named(_KIND_LAWS[res.kind], t, t)}
    else:
        shelves = len(census._left_distributive_tables(n))
        assert sizes == {(AX_LEFT_DISTRIB, 3): shelves,
                         (AX_RIGHT_DISTRIB, 3): shelves,
                         (AX_WEAK_COMPAT, 2): res.count}


def test_each_law_reads_the_tables_its_terms_apply():
    """The tables each law reads, read off its terms: left
    self-distributivity reads the dot alone, right self-distributivity
    the diamond alone, and the other five laws both."""
    t = np.zeros((1, 1), dtype=int)
    alone = {AX_LEFT_DISTRIB: {"dot"}, AX_RIGHT_DISTRIB: {"dia"}}
    assert _READS == {name: alone.get(name, {"dot", "dia"})
                      for name, _, _ in _named(_COMPILED, t, t)}


@st.composite
def unchecked_pairs(draw):
    """A (dot, diamond) pair of random tables on n <= 4 points."""
    n = draw(st.integers(1, 4))
    cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    return n, stack(draw(cells), n)[0], stack(draw(cells), n)[0]


@settings(max_examples=200, deadline=None)
@given(unchecked_pairs())
def test_compatibility_fails_where_translations_do_not_commute(case):
    """The compatibility law (ab)<>a = a(b<>a) fails at (a, b) exactly where
    R_a(L_a(b)) != L_a(R_a(b)), for L_a(x) = ax and R_a(x) = x<>a: the
    theorem the weak census joins on."""
    n, d, e = case
    (_, _, law), = _named([AX_WEAK_COMPAT], d, e)
    mask = np.broadcast_to(law(*_grids(n, 2)), (n, n))

    def left(a, x):
        return int(d[a, x])

    def right(a, x):
        return int(e[x, a])

    assert mask.tolist() == [[right(a, left(a, b)) != left(a, right(a, b))
                              for b in range(n)] for a in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commute_table_matches_composition(n):
    """Entry (f, g) of the commute table, over the self-maps of n points
    coded as base-n integers with the image of 0 as the leading digit, is
    whether f(g(x)) = g(f(x)) for every x."""
    maps = [[code // n ** (n - 1 - x) % n for x in range(n)]
            for code in range(n ** n)]
    assert census._commute_table(n).tolist() == [
        [all(f[g[x]] == g[f[x]] for x in range(n)) for g in maps] for f in maps]


@pytest.mark.parametrize("slab", [census._SLAB_CELLS, 1])
def test_weak_census_across_blocks(monkeypatch, slab):
    """The weak census returns the same stacks, in dtype, shape and bytes,
    and the same class count, with its default block bound and with
    blocks of one table or pair each."""
    default = [rw.enumerate_weak_racks(n) for n in (1, 2, 3)]
    monkeypatch.setattr(census, "_SLAB_CELLS", slab)
    for n, want in zip((1, 2, 3), default):
        got = rw.enumerate_weak_racks(n)
        for g, w in ((got.dots, want.dots), (got.diamonds, want.diamonds)):
            assert (g.dtype, g.shape, g.tobytes()) == (
                w.dtype, w.shape, w.tobytes()), n
        assert got.iso_count == want.iso_count, n


@functools.lru_cache(maxsize=None)
def weak_join(n):
    """The shelves and the sorted diamonds on n points, and the weak
    census's pairs as a mask over them, found by value."""
    shelves = census._left_distributive_tables(n)
    t = shelves.swapaxes(1, 2).reshape(len(shelves), -1)
    diamonds = t[np.lexsort(t.T[::-1])].reshape(-1, n, n)
    res = rw.enumerate_weak_racks(n)

    def index(tables, found):
        position = {t.tobytes(): k for k, t in enumerate(tables)}
        return [position[x.tobytes()] for x in found]

    pairs = np.zeros((len(shelves), len(diamonds)), dtype=bool)
    pairs[index(shelves, res.dots), index(diamonds, res.diamonds)] = True
    return shelves, diamonds, pairs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fixed_pairs_count_the_weak_census(n):
    """The per-table mask count over the census's pairs equals
    fixed_points on the census's own pair stacks, n! times the class
    count."""
    shelves, diamonds, pairs = weak_join(n)
    res = rw.enumerate_weak_racks(n)
    fixed = census._fixed_pairs(shelves, diamonds, pairs)
    assert fixed == fixed_points(res.dots, res.diamonds)
    assert fixed == res.iso_count * math.factorial(n)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fixed_pairs_match_fixed_on_sub_stacks(data):
    """On random sets of pairs, sub-sets of the census or any pairs of
    shelves and diamonds, the per-table mask count equals fixed_points on
    the pairs built explicitly: such stacks are not closed under
    relabeling, so every permutation's count matters."""
    n = data.draw(st.integers(1, 3))
    shelves, diamonds, census_pairs = weak_join(n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pairs = rng.random(census_pairs.shape) < data.draw(st.sampled_from(
        (0.0, 0.001, 0.1, 0.5, 1.0)))
    if data.draw(st.booleans()):
        pairs &= census_pairs
    i, j = np.nonzero(pairs)
    assert census._fixed_pairs(shelves, diamonds, pairs) == fixed_points(
        shelves[i], diamonds[j])
