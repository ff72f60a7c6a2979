import numpy as np
import pytest

import rackwork as rw
from rackwork.structures import (
    AX_CANCEL_OUT, AX_LEFT_DISTRIB, AX_RIGHT_DISTRIB, AX_WEAK_COMPAT,
)

from conftest import S3_ELEMS, compose, invert


def conj_oracle(a, b):
    """Conjugation a b a^-1 computed directly on permutations."""
    return compose(compose(S3_ELEMS[a], S3_ELEMS[b]), invert(S3_ELEMS[a]))


def diamond_oracle(a, b):
    """b^-1 a b computed directly on permutations."""
    return compose(compose(invert(S3_ELEMS[b]), S3_ELEMS[a]), S3_ELEMS[b])


IDX = {p: i for i, p in enumerate(S3_ELEMS)}


class TestRackAxioms:
    def test_trivial_rack_passes(self):
        assert rw.check_rack_axioms(rw.trivial_rack(3)).passed

    def test_conj_s3_passes(self, conj_s3):
        assert rw.check_rack_axioms(conj_s3).passed

    def test_constant_tables_fail_with_witness(self):
        s = rw.Structure(
            2,
            rw.make_op_table(2, [0, 0, 0, 0]),
            rw.make_op_table(2, [0, 0, 0, 0]),
            rw.UNCHECKED,
        )
        rep = rw.check_rack_axioms(s)
        assert not rep.passed
        assert (AX_CANCEL_OUT, (0, 1)) in rep.failures

    def test_witness_cap_and_order(self):
        s = rw.Structure(
            3,
            rw.make_op_table(3, [0] * 9),
            rw.make_op_table(3, [0] * 9),
            rw.UNCHECKED,
        )
        rep = rw.check_rack_axioms(s, max_witnesses=2)
        cancel = [w for ax, w in rep.failures if ax == AX_CANCEL_OUT]
        assert cancel == [(0, 1), (0, 2)]  # lexicographic, capped


class TestWeakRackAxioms:
    def test_implication_k1(self):
        assert rw.check_weak_rack_axioms(
            rw.boolean_weak_rack_implication(1)).passed

    def test_lattice_k2_exhaustive(self):
        assert rw.check_weak_rack_axioms(
            rw.boolean_weak_rack_lattice(2)).passed

    def test_lattice_k3(self):
        assert rw.check_weak_rack_axioms(
            rw.boolean_weak_rack_lattice(3)).passed

    def test_every_rack_is_a_weak_rack(self, fleet):
        for name, s in fleet:
            if s.kind == rw.RACK:
                assert rw.check_weak_rack_axioms(s).passed, name

    def test_weak_compat_witness(self):
        # dot = OR, diamond = XOR: (1 or 0) xor 1 = 0 but 1 or (0 xor 1) = 1
        s = rw.Structure(
            2,
            rw.make_op_table(2, [0, 1, 1, 1]),
            rw.make_op_table(2, [0, 1, 1, 0]),
            rw.UNCHECKED,
        )
        rep = rw.check_weak_rack_axioms(s)
        assert not rep.passed
        compat = [w for ax, w in rep.failures if ax == AX_WEAK_COMPAT]
        assert compat == [(1, 0), (1, 1)]


def both_walks(monkeypatch, check, narrowed=None):
    """check() scanned in one call per law, then under the per-value walk
    that carriers above the slab size take.  A list passed as `narrowed`
    collects the dtypes the walk narrowed tables to."""
    from rackwork import structures, tables, ybe
    whole = check()
    monkeypatch.setattr(tables, "_SLAB_CELLS", 1)
    real_narrow = tables._narrow

    def spy(t):
        out = real_narrow(t)
        if narrowed is not None:
            narrowed.append(out.dtype)
        return out

    for module in (structures, tables, ybe):
        monkeypatch.setattr(module, "_narrow", spy)
    return whole, check()


def add_mod(n):
    return rw.make_op_table(n, [(a + b) % n for a in range(n)
                                for b in range(n)])


class TestSlabbedScans:
    def test_slab_path_matches_direct_path(self, conj_s3, monkeypatch):
        broken = rw.Structure(3, add_mod(3), add_mod(3), rw.UNCHECKED)
        constant = rw.Structure(4, rw.make_op_table(4, [0] * 16),
                                rw.make_op_table(4, [1] * 16), rw.UNCHECKED)
        rng = np.random.default_rng(5)
        rand = rw.Structure(5, *(rw.OpTable(5, rng.integers(0, 5, (5, 5)))
                                 for _ in range(2)), rw.UNCHECKED)
        checks = [
            lambda: rw.check_rack_axioms(conj_s3),
            lambda: rw.check_rack_axioms(broken),
            lambda: rw.check_weak_rack_axioms(broken),
            lambda: rw.check_rack_axioms(constant),
            lambda: rw.check_weak_rack_axioms(constant, max_witnesses=5),
            lambda: rw.check_weak_rack_axioms(rand, max_witnesses=1000),
        ]
        narrowed = []
        direct, slab = both_walks(
            monkeypatch, lambda: [check() for check in checks], narrowed)
        assert direct[0].passed and slab[0].passed
        assert not any(rep.passed for rep in direct[1:])
        assert {ax for ax, _ in direct[-1].failures} >= {AX_LEFT_DISTRIB,
                                                        AX_RIGHT_DISTRIB}
        assert [r.failures for r in direct] == [r.failures for r in slab]
        assert narrowed and all(dt == np.uint8 for dt in narrowed)

    def test_qybe_witnesses(self, conj_s3, monkeypatch):
        n = 4
        f = rw.PairMap(n, np.asarray([[(x + y) % n, x] for x in range(n)
                                      for y in range(n)]))
        g = rw.PairMap(n, np.asarray([[(x * y + 1) % n, (x + 2 * y) % n]
                                      for x in range(n) for y in range(n)]))
        x = rw.exp_map(conj_s3, 1)
        narrowed = []
        direct, slab = both_walks(monkeypatch, lambda: [
            rw.check_qybe(f), rw.check_qybe(f, max_witnesses=3),
            rw.check_qybe(rw.w_map(conj_s3)),
            rw.check_mixed(x, rw.z_map(conj_s3), 23),
            rw.check_mixed(f, g, 12, max_witnesses=100),
            rw.check_mixed(g, f, 23, max_witnesses=100)], narrowed)
        assert not direct[0].passed and len(direct[1].failures) == 3
        assert direct[2].passed and direct[3].passed
        assert not direct[4].passed and not direct[5].passed
        assert [r.failures for r in direct] == [r.failures for r in slab]
        assert narrowed and all(dt == np.uint8 for dt in narrowed)

    def test_validate_group_witness(self, monkeypatch):
        # the smallest non-associative loop; first bad triple (1, 1, 2)
        loop = rw.make_op_table(5, [0, 1, 2, 3, 4, 1, 0, 3, 4, 2, 2, 3, 4,
                                    0, 1, 3, 4, 1, 2, 0, 4, 2, 0, 1, 3])

        def check():
            with pytest.raises(rw.NotAssociative) as exc:
                rw.validate_group(loop)
            return exc.value.witness, rw.validate_group(add_mod(5)).identity

        narrowed = []
        assert both_walks(monkeypatch, check, narrowed) == (((1, 1, 2), 0),) * 2
        assert narrowed == [np.uint8] * 2

    def test_morphism_witnesses(self, conj_s3, monkeypatch):
        p = rw.product_with_dual(conj_s3)
        diag = [x * 6 + x for x in range(6)]
        direct, slab = both_walks(
            monkeypatch, lambda: rw.check_morphism(diag, conj_s3, p))
        assert direct.failures[0][1] == (4, 1)
        assert direct.failures == slab.failures

    def test_trig_and_euler_witnesses(self, monkeypatch):
        broken = rw.Structure(3, add_mod(3), rw.make_op_table(3, [0, 2, 1] * 3),
                              rw.UNCHECKED)
        ctx = rw.make_trig_context(broken, 1, 2)
        direct, slab = both_walks(monkeypatch, lambda: (
            rw.check_trig_properties(ctx), rw.check_euler_formula(ctx)))
        assert not direct[0].passed
        assert direct[0].properties == slab[0].properties
        assert direct[1].failures == slab[1].failures


class TestConjugationRack:
    def test_z3_gives_trivial(self, z3_group):
        assert rw.conjugation_rack(z3_group) == rw.trivial_rack(3)

    def test_s3_tables_match_permutation_oracle(self, conj_s3):
        for a in range(6):
            for b in range(6):
                assert rw.apply(conj_s3.dot, a, b) == IDX[conj_oracle(a, b)]
                assert rw.apply(conj_s3.diamond, a, b) == IDX[diamond_oracle(a, b)]

    def test_spot_values(self, conj_s3):
        assert rw.apply(conj_s3.dot, 1, 2) == 3       # (12).(13) = (23)
        assert rw.apply(conj_s3.diamond, 5, 1) == 4   # (132)<>(12) = (123)
        assert rw.apply(conj_s3.diamond, 4, 1) == 5   # (123)<>(12) = (132)

    def test_kind_verified(self, conj_s3):
        assert conj_s3.kind == rw.RACK


class TestBooleanWeakRacks:
    def test_implication_k1_truth_tables(self):
        s = rw.boolean_weak_rack_implication(1)
        assert s.dot.tolist() == [[1, 1], [0, 1]]
        assert s.diamond.tolist() == [[0, 0], [1, 0]]

    def test_implication_k2_values(self):
        s = rw.boolean_weak_rack_implication(2)
        assert rw.apply(s.dot, 3, 1) == 1
        assert rw.apply(s.diamond, 3, 1) == 2

    def test_k0_single_element(self):
        s = rw.boolean_weak_rack_implication(0)
        assert s.n == 1 and s.kind == rw.WEAK_RACK

    def test_lattice_k1_tables(self):
        s = rw.boolean_weak_rack_lattice(1)
        assert s.dot.tolist() == [[0, 1], [1, 1]]
        assert s.diamond.tolist() == [[0, 0], [0, 1]]

    def test_lattice_absorption_instance(self):
        s = rw.boolean_weak_rack_lattice(2)
        assert rw.apply(s.diamond, rw.apply(s.dot, 2, 1), 2) == 2
        assert rw.apply(s.dot, 2, rw.apply(s.diamond, 1, 2)) == 2

    def test_carrier_cap(self, monkeypatch):
        monkeypatch.delenv("RACKWORK_MAX_N", raising=False)
        with pytest.raises(rw.CarrierTooLarge):
            rw.boolean_weak_rack_implication(9)

    def test_carrier_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("RACKWORK_MAX_N", "512")
        s = rw.boolean_weak_rack_lattice(9)
        assert s.n == 512

    @pytest.mark.parametrize("raw", ["abc", "512.0", ""])
    def test_carrier_cap_env_invalid(self, monkeypatch, raw):
        monkeypatch.setenv("RACKWORK_MAX_N", raw)
        with pytest.raises(rw.RackworkError, match=f"RACKWORK_MAX_N.*'{raw}'"):
            rw.boolean_weak_rack_lattice(2)


class TestTrivialAndDual:
    def test_trivial_tables(self):
        s = rw.trivial_rack(2)
        assert s.dot.tolist() == [[0, 1], [0, 1]]
        assert s.diamond.tolist() == [[0, 0], [1, 1]]

    def test_trivial_carrier_cap(self, monkeypatch):
        monkeypatch.delenv("RACKWORK_MAX_N", raising=False)
        with pytest.raises(rw.CarrierTooLarge):
            rw.trivial_rack(2 ** 40)

    def test_trivial_is_self_dual(self):
        for n in (1, 2, 5):
            assert rw.dual_rack(rw.trivial_rack(n)) == rw.trivial_rack(n)

    def test_dual_of_conj_s3_is_a_rack(self, conj_s3):
        assert rw.check_rack_axioms(rw.dual_rack(conj_s3)).passed

    def test_dual_is_involution(self, fleet):
        for name, s in fleet:
            assert rw.dual_rack(rw.dual_rack(s)) == s, name


class TestProducts:
    def test_trivial_times_trivial(self):
        p = rw.direct_product(rw.trivial_rack(2), rw.trivial_rack(3))
        assert p == rw.trivial_rack(6)

    def test_diagonal_is_morphism_into_direct_product(self, fleet):
        for name, s in fleet:
            if s.n > 8:
                continue
            p = rw.direct_product(s, s)
            diag = [x * s.n + x for x in range(s.n)]
            assert rw.check_morphism(diag, s, p).passed, name

    def test_kind_mismatch(self):
        with pytest.raises(rw.KindMismatch):
            rw.direct_product(rw.trivial_rack(2),
                              rw.boolean_weak_rack_lattice(1))

    @pytest.mark.parametrize("product", [
        lambda s: rw.direct_product(s, rw.trivial_rack(16)),
        lambda s: rw.direct_product(rw.trivial_rack(16), s),
        rw.product_with_dual,
    ], ids=["direct-17x16", "direct-16x17", "with-dual-17x17"])
    def test_carrier_cap(self, monkeypatch, product):
        # 17 * 16 = 272 and 17 * 17 = 289 exceed the cap of 256
        monkeypatch.delenv("RACKWORK_MAX_N", raising=False)
        with pytest.raises(rw.CarrierTooLarge):
            product(rw.trivial_rack(17))

    def test_box_product_is_direct_product_with_dual(self, fleet):
        for name, s in fleet:
            if s.n > 8:
                continue
            p = rw.product_with_dual(s)
            assert p == rw.direct_product(s, rw.dual_rack(s)), name

    def test_box_product_on_trivial(self):
        # substituting ab = b, a<>b = a into (xu, v<>y) yields (u, v), so
        # the box product of the trivial rack is the trivial rack on pairs
        s = rw.trivial_rack(2)
        assert rw.product_with_dual(s) == rw.trivial_rack(4)

    def test_box_product_on_conj_s3_is_a_rack(self, conj_s3):
        p = rw.product_with_dual(conj_s3)
        assert p.n == 36
        assert p.kind == rw.RACK
        assert rw.check_rack_axioms(p).passed

    def test_box_product_pair_value(self, conj_s3):
        # (e,e) box (O,O) with e=1, O=4 gives (e.O, O<>e) = (5, 5)
        p = rw.product_with_dual(conj_s3)
        got = rw.apply(p.dot, 1 * 6 + 1, 4 * 6 + 4)
        assert divmod(got, 6) == (5, 5)
        assert IDX[diamond_oracle(4, 1)] == 5

    def test_box_product_agrees_with_box_apply(self, conj_s3):
        p = rw.product_with_dual(conj_s3)
        for xy in range(36):
            for uv in range(36):
                x, y = divmod(xy, 6)
                u, v = divmod(uv, 6)
                a, b = rw.box_apply(conj_s3, (x, y), (u, v))
                assert rw.apply(p.dot, xy, uv) == a * 6 + b

    def test_box_product_keeps_weak_kind(self):
        s = rw.boolean_weak_rack_implication(2)
        p = rw.product_with_dual(s)
        assert p.kind == rw.WEAK_RACK
        assert rw.check_weak_rack_axioms(p).passed


class TestMorphisms:
    def test_cos_is_endomorphism(self, conj_s3):
        cos = [rw.apply(conj_s3.dot, 1, x) for x in range(6)]
        assert rw.check_morphism(cos, conj_s3, conj_s3).passed

    def test_diagonal_fails_into_box_product(self, conj_s3):
        p = rw.product_with_dual(conj_s3)
        diag = [x * 6 + x for x in range(6)]
        rep = rw.check_morphism(diag, conj_s3, p)
        assert not rep.passed
        assert rep.failures[0][1] == (4, 1)  # first witness, lex order

    def test_morphism_size_checks(self, conj_s3):
        with pytest.raises(rw.SizeMismatch):
            rw.check_morphism([0, 1], conj_s3, conj_s3)
        with pytest.raises(rw.IndexOutOfRange):
            rw.check_morphism([9] * 6, conj_s3, conj_s3)


class TestKindVerification:
    def test_make_structure_rejects_false_rack(self):
        dot = rw.make_op_table(2, [0, 0, 0, 0])
        with pytest.raises(rw.KindMismatch):
            rw.make_structure(dot, dot, rw.RACK)

    def test_make_structure_unchecked_accepts_anything(self):
        dot = rw.make_op_table(2, [0, 0, 0, 0])
        s = rw.make_structure(dot, dot)
        assert s.kind == rw.UNCHECKED

    def test_diamond_is_derived_in_racks(self, fleet):
        from rackwork.structures import derived_diamond_matches
        for name, s in fleet:
            if s.kind == rw.RACK:
                assert derived_diamond_matches(s), name

    def test_left_translations_bijective_in_racks(self, fleet):
        for name, s in fleet:
            if s.kind == rw.RACK:
                assert rw.is_left_invertible(s.dot), name


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: rw.Structure(2, add_mod(2), add_mod(3), rw.UNCHECKED),
                 rw.SizeMismatch,
                 "dot/diamond tables disagree with carrier size", id="sizes"),
    pytest.param(lambda: rw.Structure(2, add_mod(2), add_mod(2), "quandle"),
                 rw.KindMismatch, "unknown kind 'quandle'", id="kind"),
    pytest.param(lambda: rw.trivial_rack(0), rw.SizeMismatch,
                 "carrier size must be positive", id="trivial-empty"),
    pytest.param(lambda: rw.boolean_weak_rack_lattice(-1), rw.SizeMismatch,
                 "atom count must be non-negative", id="boolean-atoms"),
])
def test_guards(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_derived_diamond_needs_permutation_rows():
    from rackwork.structures import derived_diamond_matches
    s = rw.Structure(2, rw.make_op_table(2, [0] * 4),
                     rw.make_op_table(2, [0] * 4), rw.UNCHECKED)
    assert not derived_diamond_matches(s)
