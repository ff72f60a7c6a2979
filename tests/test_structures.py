import dataclasses
import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rackwork as rw
from rackwork import fileio, structures, trig
from rackwork.structures import (
    AX_CANCEL_IN, AX_CANCEL_OUT, AX_LEFT_DISTRIB, AX_RIGHT_DISTRIB,
    AX_WEAK_COMPAT,
)
from rackwork.tables import _scan

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


def _tables(s):
    return s.dot.entries, s.diamond.entries


def scanned(monkeypatch):
    """A list that gets (carrier size, arity, witnesses) of every law
    scanned through structures._scan from now on."""
    scans = []
    real_scan = structures._scan

    def spy(law, n, k, cap, heads=None):
        found = real_scan(law, n, k, cap, heads=heads)
        scans.append((n, k, found))
        return found

    monkeypatch.setattr(structures, "_scan", spy)
    return scans


def walked(monkeypatch, check, narrowed):
    """check(), with the dtypes that its scans narrowed tables to appended
    to `narrowed`."""
    from rackwork import structures, tables, ybe
    real_narrow = tables._narrow

    def spy(t):
        out = real_narrow(t)
        narrowed.append(out.dtype)
        return out

    for module in (structures, tables, ybe):
        monkeypatch.setattr(module, "_narrow", spy)
    return check()


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def add_mod(n):
    return rw.make_op_table(n, [(a + b) % n for a in range(n)
                                for b in range(n)])


class TestSlabbedScans:
    """_scan walks every variable of a law but the last two: a triple law
    one first value at a time, a law of one or two variables in one call.
    The digests pin witness lists that one evaluation of each law over its
    whole domain also gives."""

    @pytest.mark.parametrize("k, calls", [(1, 1), (2, 1), (3, 5)])
    def test_default_heads_walk_all_but_the_last_two(self, k, calls):
        n = 5
        seen = []

        def law(*values):
            seen.append(tuple(type(v) is int for v in values))
            return np.False_

        assert _scan(law, n, k, 1) == []
        # an int per walked variable, then a grid per remaining one
        assert seen == [(True,) * (k - 2) + (False,) * min(k, 2)] * calls

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
        reps = walked(monkeypatch, lambda: [check() for check in checks],
                      narrowed)
        assert reps[0].passed
        assert not any(rep.passed for rep in reps[1:])
        assert {ax for ax, _ in reps[-1].failures} >= {AX_LEFT_DISTRIB,
                                                      AX_RIGHT_DISTRIB}
        assert digest([r.failures for r in reps]) == "4a72d84719109225"
        assert narrowed and all(dt == np.uint8 for dt in narrowed)

    def test_qybe_witnesses(self, conj_s3, monkeypatch):
        n = 4
        f = rw.PairMap(n, np.asarray([[(x + y) % n, x] for x in range(n)
                                      for y in range(n)]))
        g = rw.PairMap(n, np.asarray([[(x * y + 1) % n, (x + 2 * y) % n]
                                      for x in range(n) for y in range(n)]))
        x = rw.exp_map(conj_s3, 1)
        narrowed = []
        reps = walked(monkeypatch, lambda: [
            rw.check_qybe(f), rw.check_qybe(f, max_witnesses=3),
            rw.check_qybe(rw.w_map(conj_s3)),
            rw.check_mixed(x, rw.z_map(conj_s3), 23),
            rw.check_mixed(f, g, 12, max_witnesses=100),
            rw.check_mixed(g, f, 23, max_witnesses=100)], narrowed)
        assert not reps[0].passed and len(reps[1].failures) == 3
        assert reps[2].passed and reps[3].passed
        assert not reps[4].passed and not reps[5].passed
        assert digest([r.failures for r in reps]) == "de2dcc1bf0687c73"
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
        assert walked(monkeypatch, check, narrowed) == ((1, 1, 2), 0)
        assert narrowed == [np.uint8] * 2

    def test_morphism_witnesses(self, conj_s3):
        p = rw.product_with_dual(conj_s3)
        diag = [x * 6 + x for x in range(6)]
        rep = rw.check_morphism(diag, conj_s3, p)
        assert rep.failures[0][1] == (4, 1)
        assert digest(rep.failures) == "c4c4e821e2c32f25"

    def test_trig_and_euler_witnesses(self):
        broken = rw.Structure(3, add_mod(3), rw.make_op_table(3, [0, 2, 1] * 3),
                              rw.UNCHECKED)
        ctx = rw.make_trig_context(broken, 1, 2)
        trig, euler = rw.check_trig_properties(ctx), rw.check_euler_formula(ctx)
        assert not trig.passed
        assert digest((trig.properties, euler.failures)) == "e3fe2a79b3ef7598"


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

    @pytest.mark.parametrize("group", ["s3_group", "z3_group"])
    def test_tables_match_group_loops(self, request, group):
        """a.b = a b a^-1 and a<>b = b^-1 a b, from the group's own table."""
        g = request.getfixturevalue(group)
        s = rw.conjugation_rack(g)

        def mul(x, y):
            return rw.apply(g.mul, x, y)

        for a in range(g.n):
            for b in range(g.n):
                assert rw.apply(s.dot, a, b) == mul(mul(a, b), int(g.inv[a]))
                assert rw.apply(s.diamond, a, b) == mul(mul(int(g.inv[b]), a), b)


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
        with pytest.raises(rw.CarrierTooLarge) as exc:
            rw.boolean_weak_rack_implication(9)
        assert str(exc.value) == "carrier 2^9 = 512 exceeds cap"

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

    @pytest.mark.parametrize("n", range(1, 6))
    def test_trivial_tables_match_loops(self, n):
        s = rw.trivial_rack(n)
        for a in range(n):
            for b in range(n):
                assert rw.apply(s.dot, a, b) == b
                assert rw.apply(s.diamond, a, b) == a

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
        for name, s in fleet:
            if s.kind == rw.RACK:
                assert rw.derive_diamond(s.dot) == s.diamond, name

    def test_left_translations_bijective_in_racks(self, fleet):
        for name, s in fleet:
            if s.kind == rw.RACK:
                assert rw.is_left_invertible(s.dot), name

    @pytest.mark.parametrize("kind, dot, diamond, first", [
        # random tables break left self-distributivity, the first weak law
        pytest.param(rw.WEAK_RACK, *np.random.default_rng(5).integers(
            0, 6, (2, 6, 6)), 0, id="random"),
        # a weak rack that is no rack fails a cancellation law, the second
        pytest.param(rw.RACK, *_tables(rw.boolean_weak_rack_implication(2)),
                     1, id="implication"),
        # or / xor: the compatibility fails, and so does the third law
        pytest.param(rw.WEAK_RACK, [[0, 1], [1, 1]], [[0, 1], [1, 0]], 1,
                     id="or-xor"),
    ])
    def test_verify_kind_scans_no_law_after_the_first_failure(
            self, monkeypatch, kind, dot, diamond, first):
        s = rw.Structure(len(dot), rw.OpTable(len(dot), dot),
                         rw.OpTable(len(dot), diamond), kind)
        axiom, wit = structures._axioms(s, kind, 1).failures[0]
        assert axiom == structures._KIND_LAWS[kind][first]
        scans = scanned(monkeypatch)
        with pytest.raises(rw.KindMismatch) as exc:
            structures._verify_kind(s)
        assert str(exc.value) == f"claimed {kind} violates {axiom!r} at {wit}"
        assert len(scans) == first + 1 and scans[-1][2]

    def test_classify_stops_at_the_first_failing_cancellation_law(
            self, monkeypatch):
        # the tables alone, with no factors to read passing laws off
        s = _bare(rw.boolean_weak_rack_implication(2))
        assert not rw.check_rack_axioms(s).passed
        scans = scanned(monkeypatch)
        verdict, weak = structures.classify(s)
        assert verdict == rw.WEAK_RACK and weak.passed
        # the three weak-rack laws, then (ab) diamond a = b, which fails;
        # a(b diamond a) = b is never scanned
        assert [(k, bool(found)) for _, k, found in scans] == [
            (3, False), (2, False), (3, False), (2, True)]


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
    with pytest.raises(rw.NotLeftInvertible):
        rw.derive_diamond(rw.make_op_table(2, [0] * 4))


def _unchecked(dot, diamond):
    n = len(dot)
    return rw.Structure(n, rw.OpTable(n, dot), rw.OpTable(n, diamond),
                        rw.UNCHECKED)


# a pair that fails the rack axioms and the exp_0 homomorphism, and a
# 3-point dot table whose W map fails QYBE
_FAILS_AXIOMS = _unchecked([[0, 0], [0, 0]], [[1, 0], [0, 0]])
_FAILS_QYBE = _unchecked([[1, 2, 0], [2, 0, 1], [0, 0, 0]], [[0] * 3] * 3)


def _capped_checks():
    """Every public checker that takes max_witnesses, as cap -> report,
    each on a structure or map that it fails."""
    s, ctx = _FAILS_AXIOMS, rw.make_trig_context(_FAILS_AXIOMS, 0, 0)
    w = rw.w_map(_FAILS_QYBE)
    return {
        "check_rack_axioms": lambda cap: rw.check_rack_axioms(s, cap),
        "check_weak_rack_axioms": lambda cap: rw.check_weak_rack_axioms(s, cap),
        "check_morphism": lambda cap: rw.check_morphism([1, 0], s, s, cap),
        "check_trig_properties": lambda cap: rw.check_trig_properties(ctx, cap),
        "check_exp_homomorphism":
            lambda cap: rw.check_exp_homomorphism(s, 0, cap),
        "check_euler_formula": lambda cap: rw.check_euler_formula(ctx, cap),
        "check_qybe": lambda cap: rw.check_qybe(w, cap),
        "check_mixed": lambda cap: rw.check_mixed(w, w, 12, cap),
        "check_yb_system": lambda cap: rw.check_yb_system(_FAILS_QYBE, 0, cap),
    }


@pytest.mark.parametrize("cap", [0, -1])
@pytest.mark.parametrize("checker", sorted(_capped_checks()))
def test_a_witness_cap_below_one_is_rejected(checker, cap):
    check = _capped_checks()[checker]
    assert not check(1).passed
    with pytest.raises(rw.SizeMismatch, match="max_witnesses"):
        check(cap)


# Products and the Boolean weak racks take their kind from scans of their
# factors; the oracles below build the same tables in plain Python or with
# bitwise formulas and scan the whole result with structures._verify_kind.

@functools.lru_cache(maxsize=None)
def _census(n, weak):
    found = rw.enumerate_weak_racks(n) if weak else rw.enumerate_racks(n)
    return [(s.dot.tolist(), s.diamond.tolist()) for s in found.structures]


@st.composite
def tagged(draw, kind):
    """A structure on n <= 4 points tagged `kind` without a check: random
    tables, which nearly always fail, or a census rack or weak rack, which
    may be mis-tagged, possibly with one entry changed."""
    n = draw(st.integers(1, 4))
    cells = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                     min_size=n, max_size=n)
    weak = n <= 3 and draw(st.booleans())
    source = draw(st.sampled_from(["census", "census", "changed", "random"]))
    if source != "random":
        d, e = draw(st.sampled_from(_census(n, weak)))
        d, e = [list(row) for row in d], [list(row) for row in e]
        if source == "changed":
            t = draw(st.sampled_from((d, e)))
            t[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = (
                draw(st.integers(0, n - 1)))
    else:
        d, e = draw(cells), draw(cells)
    return rw.Structure(n, rw.OpTable(n, d), rw.OpTable(n, e), kind)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_agrees_with_the_rack_check_on_the_weak_census(n):
    # on a weak rack the two cancellation laws fail at the same pairs, which
    # is why classify scans only the first
    for d, e in _census(n, True):
        s = _unchecked(d, e)
        kind, weak = structures.classify(s)
        rack = rw.check_rack_axioms(s, n * n)
        assert weak.passed
        assert (kind == rw.RACK) == rack.passed
        assert ([w for law, w in rack.failures if law == AX_CANCEL_OUT]
                == [w for law, w in rack.failures if law == AX_CANCEL_IN])


@settings(max_examples=150, deadline=None)
@given(tagged(rw.UNCHECKED))
def test_classify_agrees_with_the_axiom_checks_on_unchecked_tables(s):
    kind, weak = structures.classify(s)
    assert (kind == "neither") == (not rw.check_weak_rack_axioms(s).passed)
    assert (kind == rw.RACK) == rw.check_rack_axioms(s).passed


def _pairs(t1, t2):
    """The componentwise table of t1 and t2 on pairs (x, y) = x*n2 + y."""
    n1, n2 = len(t1), len(t2)
    return [[t1[x][u] * n2 + t2[y][v] for u in range(n1) for v in range(n2)]
            for x in range(n1) for y in range(n2)]


def _scanned_product(s1, s2):
    """The product of s1 and s2 tagged s1.kind, and the message of the
    KindMismatch that a scan of the whole product raises, or None."""
    m = s1.n * s2.n
    p = rw.Structure(m, rw.OpTable(m, _pairs(s1.dot.tolist(), s2.dot.tolist())),
                     rw.OpTable(m, _pairs(s1.diamond.tolist(),
                                          s2.diamond.tolist())), s1.kind)
    try:
        structures._verify_kind(p)
    except rw.KindMismatch as exc:
        return p, str(exc)
    return p, None


def _same_verdict(build, expected, message):
    """build() gives `expected`, byte for byte, or raises `message`."""
    if message is not None:
        with pytest.raises(rw.KindMismatch) as exc:
            build()
        assert str(exc.value) == message
        return
    got = build()
    assert got == expected and got.kind == expected.kind
    for g, e in ((got.dot, expected.dot), (got.diamond, expected.diamond)):
        assert g.entries.dtype == e.entries.dtype
        assert g.entries.tobytes() == e.entries.tobytes()


KINDS = st.sampled_from([rw.RACK, rw.WEAK_RACK])


class TestProductsOnFactors:
    @settings(max_examples=150, deadline=None)
    @given(KINDS.flatmap(lambda kind: st.tuples(tagged(kind), tagged(kind))))
    def test_direct_product_matches_a_scan_of_the_product(self, pair):
        s1, s2 = pair
        _same_verdict(lambda: rw.direct_product(s1, s2),
                      *_scanned_product(s1, s2))

    @settings(max_examples=150, deadline=None)
    @given(KINDS.flatmap(tagged))
    def test_product_with_dual_matches_a_scan_of_the_product(self, s):
        dual = rw.Structure(s.n, rw.OpTable(s.n, s.diamond.entries.T),
                            rw.OpTable(s.n, s.dot.entries.T), s.kind)
        _same_verdict(lambda: rw.product_with_dual(s),
                      *_scanned_product(s, dual))

    @pytest.mark.parametrize("build, carriers", [
        (lambda: rw.direct_product(rw.trivial_rack(3), rw.trivial_rack(4)),
         {3, 4}),
        (lambda: rw.product_with_dual(rw.boolean_weak_rack_lattice(2)),
         {2, 4}),
        (lambda: rw.boolean_weak_rack_implication(5), {2}),
        (lambda: rw.boolean_weak_rack_lattice(0), {2}),
    ], ids=["direct", "with-dual", "implication", "lattice-k0"])
    def test_passing_factors_are_scanned_and_the_product_is_not(
            self, monkeypatch, build, carriers):
        """Only factor-sized laws are scanned when every factor passes;
        the factors themselves are built, and scanned, first."""
        scans = scanned(monkeypatch)
        build()
        assert {n for n, _, _ in scans} == carriers

    def test_a_failing_factor_scans_the_product(self):
        s = rw.Structure(2, add_mod(2), add_mod(2), rw.RACK)
        p, message = _scanned_product(s, rw.trivial_rack(3))
        # the product's first witness, pairs (1, 0), (0, 0), (0, 0), where
        # the factor's own is (1, 0, 0)
        assert message == ("claimed rack violates 'a(bc) = (ab)(ac)' at "
                           "(3, 0, 0)")
        _same_verdict(lambda: rw.direct_product(s, rw.trivial_rack(3)),
                      p, message)


def _bitwise(variant, k):
    """The Boolean weak rack on the subsets of k atoms, as bit masks."""
    a = np.arange(1 << k)[:, None]
    b = a.T
    if variant == "implication":
        dot, diamond = (~a | b) & ((1 << k) - 1), a & ~b
    else:
        dot, diamond = a | b, a & b
    n = 1 << k
    return rw.Structure(n, rw.OpTable(n, dot), rw.OpTable(n, diamond),
                        rw.WEAK_RACK)


BOOLEAN = {"implication": rw.boolean_weak_rack_implication,
           "lattice": rw.boolean_weak_rack_lattice}


class TestBooleanPowers:
    @pytest.mark.parametrize("k", range(9))
    @pytest.mark.parametrize("variant", sorted(BOOLEAN))
    def test_the_power_is_the_bitwise_formula(self, variant, k):
        _same_verdict(lambda: BOOLEAN[variant](k), _bitwise(variant, k), None)

    @pytest.mark.parametrize("variant", sorted(BOOLEAN))
    def test_the_power_is_the_bitwise_formula_beyond_the_cap(
            self, monkeypatch, variant):
        monkeypatch.setenv("RACKWORK_MAX_N", "512")
        _same_verdict(lambda: BOOLEAN[variant](9), _bitwise(variant, 9), None)

    @pytest.mark.parametrize("variant, k", [
        *((variant, k) for variant in sorted(BOOLEAN) for k in (0, 1, 2, 3, 8)),
        ("lattice", 9)])
    def test_the_full_scan_passes(self, monkeypatch, variant, k):
        """Every size that the tests and the benchmark build; 9 only for
        the lattice, the one built beyond the cap."""
        monkeypatch.setenv("RACKWORK_MAX_N", "512")
        s = _bare(BOOLEAN[variant](k))
        assert s.kind == rw.WEAK_RACK
        assert rw.check_weak_rack_axioms(s).passed


def _bare(s):
    """s with no factors, so that every report scans its tables in full."""
    return structures._unverified(s.dot.entries, s.diamond.entries, s.kind)


def _reports(s):
    """Every report that reads laws off a product's factors, on s."""
    return (rw.check_rack_axioms(s), rw.check_weak_rack_axioms(s),
            rw.check_rack_axioms(s, 1), rw.check_weak_rack_axioms(s, 3),
            structures.classify(s), structures._kind_failure(s))


class TestReportsOnFactors:
    """A product keeps its factors, and a law that holds on every factor is
    reported passed with no scan of the product; every report equals a
    full scan of the same tables without factors."""

    @settings(max_examples=150, deadline=None)
    @given(KINDS.flatmap(lambda kind: st.lists(tagged(kind), min_size=2,
                                               max_size=3)))
    def test_reports_match_a_full_scan(self, factors):
        p = factors[-1]
        for f in reversed(factors[:-1]):
            p = structures._product(f, p)
        assert _reports(p) == _reports(_bare(p))

    @pytest.mark.parametrize("k", range(9))
    @pytest.mark.parametrize("variant", sorted(BOOLEAN))
    def test_boolean_powers_match_a_full_scan(self, variant, k):
        s = BOOLEAN[variant](k)
        assert _reports(s) == _reports(_bare(s))

    def test_a_passing_law_scans_only_the_two_point_factor(self, monkeypatch):
        s = rw.boolean_weak_rack_implication(8)
        scans = scanned(monkeypatch)
        assert rw.check_weak_rack_axioms(s).passed
        assert {n for n, _, _ in scans} == {2}
        scans.clear()
        # the cancellation laws fail on the factor, so they alone are
        # scanned on the product, each once
        failures = rw.check_rack_axioms(s).failures
        assert len(failures) == 2 * structures.WITNESS_CAP
        assert [(n, k) for n, k, _ in scans if n > 2] == [(256, 2), (256, 2)]

    def test_equality_and_repr_ignore_factors(self):
        p = rw.product_with_dual(rw.trivial_rack(2))
        flat = rw.trivial_rack(4)
        assert p.factors and not flat.factors
        assert p == flat and repr(p) == repr(flat)

    def test_replace_with_other_tables_and_stale_factors_raises(self):
        p = rw.direct_product(rw.trivial_rack(2), rw.trivial_rack(2))
        with pytest.raises(rw.RackworkError,
                           match="not the product of the factors"):
            dataclasses.replace(p, diamond=p.dot)
        with pytest.raises(rw.RackworkError,
                           match="not the product of the factors"):
            dataclasses.replace(p, factors=(rw.trivial_rack(2),
                                            rw.trivial_rack(3)))
        assert dataclasses.replace(p, factors=p.factors[::-1]) == p

    def test_the_dual_of_a_product_has_no_factors_and_is_scanned(
            self, monkeypatch):
        p = rw.boolean_weak_rack_lattice(3)
        scans = scanned(monkeypatch)
        dual = rw.dual_rack(p)
        assert dual.factors == () and dual.kind == rw.WEAK_RACK
        assert {n for n, _, _ in scans} == {8}

    def test_a_loaded_structure_has_no_factors(self, tmp_path):
        path = str(tmp_path / "p.json")
        fileio.save_structure(path, rw.boolean_weak_rack_lattice(2))
        assert fileio.load_structure(path)[0].factors == ()

    @pytest.mark.parametrize("cap", [0, -1])
    def test_a_witness_cap_below_one_is_rejected_on_a_passing_product(
            self, cap):
        s = rw.boolean_weak_rack_lattice(2)
        with pytest.raises(rw.SizeMismatch, match="max_witnesses"):
            rw.check_weak_rack_axioms(s, cap)

    @pytest.mark.parametrize("n1, n2", [(1, 5), (5, 1), (2, 7), (7, 2),
                                        (3, 4)])
    def test_combine_in_either_factor_order(self, n1, n2):
        rng = np.random.default_rng(n1 * 10 + n2)
        t1, t2 = rng.integers(0, n1, (n1, n1)), rng.integers(0, n2, (n2, n2))
        got = structures._combine(t1, t2)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.tolist() == _pairs(t1.tolist(), t2.tolist())


class TestNamedLaws:
    @pytest.mark.parametrize("name", [structures._render(law)
                                      for law in structures._TERMS])
    def test_only_the_tables_a_law_reads_are_narrowed(self, monkeypatch,
                                                      name):
        narrowed = []
        s = rw.trivial_rack(3)
        law, = walked(monkeypatch, lambda: structures._named(
            [name], s.dot.entries, s.diamond.entries), narrowed)
        assert len(narrowed) == len(structures._READS[name])
        assert law[:2] == (name, structures._COMPILED[name][0])

    def test_no_law_narrows_nothing(self, monkeypatch):
        narrowed = []
        s = rw.trivial_rack(3)
        assert walked(monkeypatch, lambda: structures._named(
            [], s.dot.entries, s.diamond.entries), narrowed) == []
        assert narrowed == []


@st.composite
def trig_pairs(draw):
    """A structure whose dot rows are all cos and whose diamond columns are
    all sin, and a base point e: cos and sin mutually inverse, inverse on
    one side only, or random."""
    n = draw(st.integers(1, 6))
    cos = draw(st.permutations(range(n)))
    how = draw(st.sampled_from(["inverse", "one-sided", "random"]))
    if how == "inverse":
        sin = list(np.argsort(cos))
    else:
        sin = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        if how == "random":
            cos = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    dot = [list(cos)] * n
    diamond = [[x] * n for x in sin]
    s = rw.Structure(n, rw.OpTable(n, dot), rw.OpTable(n, diamond),
                     rw.UNCHECKED)
    return rw.make_trig_context(s, draw(st.integers(0, n - 1)), 0)


class TestTrigDerivedRack:
    @settings(max_examples=150, deadline=None)
    @given(trig_pairs())
    def test_matches_the_full_rack_scan(self, ctx):
        n = ctx.s.n
        dot = np.tile(trig.cos_table(ctx), (n, 1))
        diamond = np.repeat(trig.sin_table(ctx), n).reshape(n, n)
        expected = rw.Structure(n, rw.OpTable(n, dot),
                                rw.OpTable(n, diamond), rw.RACK)
        try:
            structures._verify_kind(expected)
            message = None
        except rw.KindMismatch as exc:
            message = str(exc)
        _same_verdict(lambda: rw.trig_derived_rack(ctx), expected, message)

    def test_a_rack_is_built_without_a_scan(self, monkeypatch, conj_s3):
        ctx = rw.make_trig_context(conj_s3, 1, 4)
        scans = scanned(monkeypatch)
        assert rw.trig_derived_rack(ctx).kind == rw.RACK
        assert scans == []


# A passing rack verdict is proved on a generating set (structures._proved):
# each report must equal the plain scan of every law over the whole carrier.

def _plain(s, names, cap=structures.WITNESS_CAP):
    """The failures of the laws `names`, each scanned over all of s."""
    return list(structures._failures(structures._named(
        names, s.dot.entries, s.diamond.entries), s.n, cap))


def _against_plain(s):
    """Every report that _proved serves equals the plain scan of s."""
    rack = structures._KIND_LAWS[rw.RACK]
    weak = structures._KIND_LAWS[rw.WEAK_RACK]
    assert rw.check_rack_axioms(s).failures == _plain(s, rack)
    assert rw.check_weak_rack_axioms(s).failures == _plain(s, weak)
    assert rw.check_rack_axioms(s, 1).failures == _plain(s, rack, 1)
    for kind, laws in ((rw.RACK, rack), (rw.WEAK_RACK, weak)):
        tagged = dataclasses.replace(s, kind=kind)
        for cap in (s.n ** 3, 1):
            assert (list(structures._law_failures(tagged, laws, cap))
                    == _plain(s, laws, cap))
        assert structures._kind_failure(tagged) == next(
            iter(_plain(s, laws, 1)), None)
    verdict, report = structures.classify(s)
    assert report.failures == _plain(s, weak)
    assert verdict == ("neither" if report.failures else
                       rw.WEAK_RACK if _plain(s, rack, 1) else rw.RACK)


def _with_inverse_rows(dot):
    n, dot = len(dot), np.array(dot)
    return rw.Structure(n, rw.OpTable(n, dot),
                        rw.OpTable(n, np.argsort(dot, axis=1).T),
                        rw.UNCHECKED)


@st.composite
def permutation_rows(draw):
    """Dot rows that are permutations of n <= 6 points, with the diamond
    their inverses, so that both cancellation laws hold: random rows, or
    the affine rack ab = (1-t)a + tb + c (mod n) for a unit t, with c = 0
    unless t = 1, whose generating set may be a proper subset."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return [draw(st.permutations(range(n))) for _ in range(n)]
    t = draw(st.sampled_from([t for t in range(1, n + 1)
                              if np.gcd(t, n) == 1]))
    c = draw(st.integers(0, n - 1)) if t % n == 1 % n else 0
    return [[((1 - t) * a + t * b + c) % n for b in range(n)]
            for a in range(n)]


class TestRackVerdictOnGenerators:
    @settings(max_examples=200, deadline=None)
    @given(permutation_rows(), st.data())
    def test_reports_match_the_plain_scan(self, dot, data):
        s = _with_inverse_rows(dot)
        _against_plain(s)
        # one entry changed: the cancellation laws then fail
        n = s.n
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        changed = s.dot.entries.copy()
        changed[a, b] = data.draw(st.integers(0, n - 1))
        _against_plain(rw.Structure(n, rw.OpTable(n, changed), s.diamond,
                                    rw.UNCHECKED))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_census_racks_and_a_row_swap_of_each_match_the_plain_scan(
            self, n):
        for d, _ in _census(n, False):
            _against_plain(_with_inverse_rows(d))
            swapped = [list(row) for row in d]
            swapped[0], swapped[-1] = swapped[-1], swapped[0]
            _against_plain(_with_inverse_rows(swapped))

    @pytest.mark.parametrize("which, heads", [
        # the identity is a class of its own, two transpositions give the
        # third, and one 3-cycle the other
        ("conj-s3", [0, 1, 2, 4]),
        ("trivial", [0, 1, 2, 3, 4]),
    ])
    def test_a_passing_rack_scans_its_generators_alone(
            self, monkeypatch, conj_s3, which, heads):
        s = conj_s3 if which == "conj-s3" else rw.trivial_rack(5)
        assert structures._generators(s.dot.entries) == heads
        scans = headed_scans(monkeypatch)
        assert rw.check_rack_axioms(s).passed
        # left self-distributivity at the generators; the cancellation laws
        # are evaluated without a scan, and right self-distributivity follows
        assert scans == [(3, [(g,) for g in heads])]

    def test_with_cancellation_a_failing_rack_scans_no_pair_law(
            self, monkeypatch):
        # L_0 swaps 0 and 1, the other rows are the identity: the
        # cancellation laws hold, and a(bc) = (ab)(ac) fails at the
        # generator 0, so both self-distributive laws are scanned in full
        s = _with_inverse_rows([[1, 0, 2], [0, 1, 2], [0, 1, 2]])
        expected = _plain(s, structures._KIND_LAWS[rw.RACK])
        assert {law for law, _ in expected} == {AX_LEFT_DISTRIB,
                                                AX_RIGHT_DISTRIB}
        scans = headed_scans(monkeypatch)
        assert rw.check_rack_axioms(s).failures == expected
        assert scans == [(3, [(0,), (2,)]), (3, None), (3, None)]


    def test_a_product_of_racks_scans_its_factors_at_their_generators(
            self, monkeypatch, conj_s3):
        trivial = rw.trivial_rack(2)
        scans = headed_scans(monkeypatch)
        assert rw.direct_product(conj_s3, trivial).kind == rw.RACK
        # the factor filter asks each factor for all four laws at once, so
        # right self-distributivity is proved there too, and the product
        # itself is not scanned
        assert scans == [(3, [(0,), (1,), (2,), (4,)]), (3, [(0,), (1,)])]


def headed_scans(monkeypatch):
    """A list that gets (arity, heads) of every law scanned through
    structures._scan from now on."""
    scans = []
    real_scan = structures._scan

    def spy(law, n, k, cap, heads=None):
        scans.append((k, heads))
        return real_scan(law, n, k, cap, heads=heads)

    monkeypatch.setattr(structures, "_scan", spy)
    return scans


def _closure(t, gens):
    """The closure of gens under the table t, in plain Python."""
    inside = set(gens)
    while True:
        made = {t[x][y] for x in inside for y in inside} - inside
        if not made:
            return inside
        inside |= made


@st.composite
def magmas(draw):
    n = draw(st.integers(1, 6))
    return draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n,
                                  max_size=n), min_size=n, max_size=n))


class TestGenerators:
    def _check(self, t):
        gens = structures._generators(np.array(t))
        carrier = set(range(len(t)))
        for i, g in enumerate(gens):
            # the least element outside the closure of those before it
            assert g == min(carrier - _closure(t, gens[:i]))
        assert _closure(t, gens) == carrier

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(magmas(), permutation_rows()))
    def test_a_greedy_set_generates_the_carrier(self, t):
        self._check(t)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_on_the_census(self, n):
        for d, _ in _census(n, False):
            self._check(d)
