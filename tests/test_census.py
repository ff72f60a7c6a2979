import itertools

import pytest

import rackwork as rw
from rackwork import census


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
        a = census._canonical_form([[1, 2, 0]] * 3, 3)
        b = census._canonical_form([[2, 0, 1]] * 3, 3)
        assert a == b
