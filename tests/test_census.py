import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rackwork as rw
from rackwork import census
from rackwork.structures import _rack_laws, _weak_rack_laws
from rackwork.tables import _holds


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
    permutations: a pure-Python oracle for census._canonical_keys."""
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
        res = rw.enumerate_racks(2, keep=True)
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

    def test_matches_unpruned_oracle(self):
        for n in (1, 2, 3):
            res = rw.enumerate_racks(n, keep=True)
            got = sorted(tuple(v for row in s.dot.tolist() for v in row)
                         for s in res.structures)
            assert got == sorted(brute_force_rack_dots(n))

    def test_every_kept_structure_verifies(self):
        res = rw.enumerate_racks(3, keep=True)
        for s in res.structures:
            assert rw.check_rack_axioms(s).passed
            assert s.kind == rw.RACK

    def test_kept_structures_in_lex_order(self):
        res = rw.enumerate_racks(3, keep=True)
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
        res = rw.enumerate_weak_racks(2, keep=True)
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
        rack_res = rw.enumerate_racks(2, keep=True)
        weak_res = rw.enumerate_weak_racks(2, keep=True)
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
            res = rw.enumerate_weak_racks(n, keep=True)
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
        res = rw.enumerate_weak_racks(n, keep=True)
        assert [(flat(s.dot), flat(s.diamond)) for s in res.structures] == pairs

    def test_every_kept_weak_structure_verifies(self):
        res = rw.enumerate_weak_racks(2, keep=True)
        for s in res.structures:
            assert rw.check_weak_rack_axioms(s).passed

    def test_cap(self, monkeypatch):
        monkeypatch.delenv("RACKWORK_MAX_N", raising=False)
        with pytest.raises(rw.CarrierTooLarge):
            rw.enumerate_weak_racks(4)


class TestCanonicalForms:
    def test_iso_count_independent_relabeling_oracle(self):
        """Recount the n=2 weak-rack classes with a from-scratch orbit scan."""
        res = rw.enumerate_weak_racks(2, keep=True)
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

    def test_constant_racks_collapse(self):
        # two 3-cycle constant racks on 3 elements are isomorphic
        a, b = census._canonical_keys(stack([[[1, 2, 0]] * 3, [[2, 0, 1]] * 3], 3))
        assert a.tolist() == b.tolist()

    def test_keys_of_an_empty_block(self):
        empty = stack([], 3)
        assert census._canonical_keys(empty, empty).shape == (0, 18)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rack_iso_counts_match_relabeling_oracle(self, n):
        res = rw.enumerate_racks(n, keep=True)
        forms = {canonical_form([flat(s.dot)], n) for s in res.structures}
        assert len(forms) == res.iso_count

    @pytest.mark.parametrize("n", [1, 2])
    def test_weak_iso_counts_match_relabeling_oracle(self, n):
        res = rw.enumerate_weak_racks(n, keep=True)
        forms = {canonical_form([flat(s.dot), flat(s.diamond)], n)
                 for s in res.structures}
        assert len(forms) == res.iso_count

    @pytest.mark.parametrize("n,classes", [(1, 1), (2, 26), (3, 2335)])
    def test_weak_class_counts(self, n, classes):
        assert rw.enumerate_weak_racks(n).iso_count == classes

    def test_keys_exact_where_packed_int64_keys_overflow(self):
        """On 6 points a pair has 72 entries, and 6^k = 0 mod 2^64 for
        k >= 64: pairs whose least relabelings differ only in their first 8
        entries pack to the same wrapped 64-bit integer."""
        n = 6
        rng = random.Random(6)
        d, e = ([rng.randrange(n) for _ in range(n * n)] for _ in range(2))
        p = rng.sample(range(n), n)
        form = list(canonical_form([d, e], n))
        # a non-isomorphic pair: a least relabeling that differs from
        # form in one of its first 8 entries
        other = next(c for c in (form[:i] + [v] + form[i + 1:]
                                 for i in range(8) for v in range(n))
                     if canonical_form([c[:36], c[36:]], n) == tuple(c)
                     and c != form)

        def packed(key):
            return sum(v * n ** (len(key) - 1 - i)
                       for i, v in enumerate(key)) % 2 ** 64

        assert packed(form) == packed(other)
        pairs = [(d, e), (relabel_flat(d, p, n), relabel_flat(e, p, n)),
                 (other[:36], other[36:])]
        keys = census._canonical_keys(stack([x for x, _ in pairs], n),
                                      stack([y for _, y in pairs], n))
        assert keys.dtype == np.uint8
        assert keys[0].tolist() == keys[1].tolist() == form
        assert keys[2].tolist() == other


# per carrier size, structures whose verdicts are known to differ: racks from
# the census, and Boolean weak racks, which are not racks for n > 1
@functools.lru_cache(maxsize=None)
def _known(n):
    known = [(s.dot.tolist(), s.diamond.tolist())
             for s in rw.enumerate_racks(n, keep=True).structures]
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
    for laws, check in ((_rack_laws, rw.check_rack_axioms),
                        (_weak_rack_laws, rw.check_weak_rack_axioms)):
        expected = [check(s).passed for s in structures]
        d = stack([d for d, _ in pairs], n)
        e = stack([e for _, e in pairs], n)
        assert _holds(laws(d, e), n, len(pairs)).tolist() == expected
        # each structure as a batch of one
        assert [bool(_holds(laws(d[i:i + 1], e[i:i + 1]), n, 1)[0])
                for i in range(len(pairs))] == expected
