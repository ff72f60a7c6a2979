import numpy as np
import pytest

import rackwork as rw
from rackwork import euler


class TestExpMap:
    def test_identity_on_trivial(self):
        s = rw.trivial_rack(3)
        for a in range(3):
            f = rw.exp_map(s, a)
            assert f == euler.identity_pair_map(3)

    def test_conj_s3_value(self, conj_s3):
        f = rw.exp_map(conj_s3, 1)
        assert f.apply(4, 4) == (5, 5)
        assert f.apply(5, 5) == (4, 4)

    def test_one_point(self):
        f = rw.exp_map(rw.trivial_rack(1), 0)
        assert f.apply(0, 0) == (0, 0)

    def test_out_of_range(self, conj_s3):
        with pytest.raises(rw.IndexOutOfRange):
            rw.exp_map(conj_s3, 6)


class TestBoxApply:
    def test_trivial(self):
        # ab = b and a<>b = a give (xu, v<>y) = (u, v): the right operand
        s = rw.trivial_rack(3)
        assert rw.box_apply(s, (0, 2), (1, 0)) == (1, 0)
        for x in range(3):
            for y in range(3):
                assert rw.box_apply(s, (x, y), (1, 2)) == (1, 2)

    def test_conj_s3(self, conj_s3):
        assert rw.box_apply(conj_s3, (1, 1), (4, 4)) == (5, 5)

    def test_agrees_with_exp_on_matching_base(self, conj_s3):
        # exp_a(x, y) coincides with (a, a) box (x, y)
        for a in range(6):
            f = rw.exp_map(conj_s3, a)
            for x in range(6):
                for y in range(6):
                    assert f.apply(x, y) == rw.box_apply(
                        conj_s3, (a, a), (x, y))


class TestExpHomomorphism:
    def test_conj_s3_exhaustive(self, conj_s3):
        assert rw.check_exp_homomorphism(conj_s3, 1).passed

    def test_boolean_lattice(self):
        s = rw.boolean_weak_rack_lattice(2)
        assert rw.check_exp_homomorphism(s, 3).passed

    def test_trivial(self):
        assert rw.check_exp_homomorphism(rw.trivial_rack(4), 2).passed

    def test_all_fleet_all_bases(self, fleet):
        for name, s in fleet:
            if s.n > 8:
                continue
            for a in range(s.n):
                assert rw.check_exp_homomorphism(s, a).passed, (name, a)

    def test_exact_on_large_carrier(self, fleet):
        box = dict(fleet)["box_conj_s3"]
        assert box.n == 36
        assert rw.check_exp_homomorphism(box, 7).passed

    @pytest.mark.parametrize("dot, diamond", [
        ("add", "add"), ("trivial", "add"), ("add", "trivial")])
    def test_exact_witnesses_match_brute_force_mask(self, dot, diamond):
        # addition mod 9 is not self-distributive: 1+(x+u) != (1+x)+(1+u)
        n = 9
        tables = {"add": [(a + b) % n for a in range(n) for b in range(n)],
                  "trivial": [b for a in range(n) for b in range(n)]}
        s = rw.make_structure(rw.make_op_table(n, tables[dot]),
                              rw.make_op_table(n, tables[diamond]))
        d, e = s.dot.entries, s.diamond.entries
        x, y, u, v = np.ix_(*[np.arange(n)] * 4)
        for a in (0, 1, 4):
            # exp_a((x,y)(u,v)) vs exp_a(x,y) exp_a(u,v) over the n^4 grid
            c1, c2 = rw.exp_map(s, a).components()
            p, q = d[x, u], e[v, y]
            mask = ((c1[p, q] != d[c1[x, y], c1[u, v]])
                    | (c2[p, q] != e[c2[u, v], c2[x, y]]))
            expected = [tuple(map(int, w)) for w in np.argwhere(mask)]
            for cap in (32, len(expected) + 1):
                rep = rw.check_exp_homomorphism(s, a, max_witnesses=cap)
                assert [w for _, w in rep.failures] == expected[:cap]
                assert rep.passed == (not expected)
            assert expected or a == 0

    def test_exhaustive_witness_on_broken_structure(self):
        # dot = XOR with diamond chosen to break right self-distributivity
        dot = rw.make_op_table(2, [0, 1, 1, 0])
        diamond = rw.make_op_table(2, [1, 0, 0, 0])
        s = rw.make_structure(dot, diamond)
        rep = rw.check_exp_homomorphism(s, 0)
        assert not rep.passed
        assert all(len(w) == 4 for _, w in rep.failures)
        # compare against a direct quadruple loop built from the scalar ops
        f = rw.exp_map(s, 0)
        brute = []
        for x in range(2):
            for y in range(2):
                for u in range(2):
                    for v in range(2):
                        lhs = f.apply(*rw.box_apply(s, (x, y), (u, v)))
                        rhs = rw.box_apply(s, f.apply(x, y), f.apply(u, v))
                        if lhs != rhs:
                            brute.append((x, y, u, v))
        assert [w for _, w in rep.failures] == brute


class TestHyperbolic:
    def test_cosh_sinh_values(self, conj_s3):
        ctx = rw.make_trig_context(conj_s3, 1, 4)
        assert rw.cosh_map(ctx).apply(4, 0) == (5, 0)
        assert rw.sinh_map(ctx).apply(0, 5) == (0, 4)

    def test_identity_on_trivial(self):
        ctx = rw.make_trig_context(rw.trivial_rack(3), 0, 0)
        ident = euler.identity_pair_map(3)
        assert rw.cosh_map(ctx) == ident
        assert rw.sinh_map(ctx) == ident

    def test_factorization_everywhere(self, fleet):
        for name, s in fleet:
            for e in range(s.n):
                ctx = rw.make_trig_context(s, e, 0)
                assert rw.check_hyperbolic_factorization(ctx), (name, e)

    def test_composition_equals_exp(self, conj_s3):
        ctx = rw.make_trig_context(conj_s3, 1, 4)
        comp = euler.compose(rw.cosh_map(ctx), rw.sinh_map(ctx))
        assert comp == rw.exp_map(conj_s3, 1)


class TestEulerFormula:
    def test_conj_s3(self, conj_s3):
        ctx = rw.make_trig_context(conj_s3, 1, 4)
        rep = rw.check_euler_formula(ctx)
        assert rep.passed
        assert rw.exp_map(conj_s3, 1).apply(ctx.pi, ctx.pi) == (4, 4)

    def test_formula_clause_definitional(self, fleet):
        """exp_e(x,x) = (cos x, sin x) holds on every structure: both sides
        unfold to (e.x, x<>e)."""
        for name, s in fleet:
            for e in range(min(s.n, 6)):
                ctx = rw.make_trig_context(s, e, 0)
                rep = rw.check_euler_formula(ctx)
                formula_failures = [w for nm, w in rep.failures
                                    if nm == euler.EULER_FORMULA]
                assert not formula_failures, (name, e)

    def test_identity_clause_on_racks(self, fleet):
        for name, s in fleet:
            if s.kind != rw.RACK:
                continue
            for e in range(s.n):
                for o in range(s.n):
                    ctx = rw.make_trig_context(s, e, o)
                    assert rw.check_euler_formula(ctx).passed, (name, e, o)

    def test_identity_clause_fails_on_lattice(self):
        s = rw.boolean_weak_rack_lattice(2)
        ctx = rw.make_trig_context(s, 3, 0)
        rep = rw.check_euler_formula(ctx)
        names = [nm for nm, _ in rep.failures]
        assert names == [euler.EULER_IDENTITY]
        assert euler.euler_identity_is_rack_only(ctx)
        # witness records pi and the actual output pair
        assert rep.failures[0][1] == (3, 3, 3)

    def test_trivial_rack_diagonal(self):
        s = rw.trivial_rack(4)
        ctx = rw.make_trig_context(s, 2, 3)
        f = rw.exp_map(s, 2)
        for x in range(4):
            assert f.apply(x, x) == (x, x)


class TestPairMapBasics:
    def test_pair_map_validation(self):
        with pytest.raises(rw.IndexOutOfRange):
            euler.PairMap(2, np.asarray([[0, 0], [0, 2], [1, 1], [0, 0]]))
        with pytest.raises(rw.IndexOutOfRange):
            euler.PairMap(2, np.asarray([[0, 0], [0, 1]]))

    def test_pair_map_equality_and_immutability(self):
        f = euler.identity_pair_map(2)
        g = euler.identity_pair_map(2)
        assert f == g
        with pytest.raises(ValueError):
            f.out[0, 0] = 1

    def test_compose_carrier_check(self):
        with pytest.raises(rw.IndexOutOfRange):
            euler.compose(euler.identity_pair_map(2),
                          euler.identity_pair_map(3))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda s: rw.exp_map(s, 2).apply(1, 3),
                 "(1,3) outside carrier 3", id="pair-map-apply"),
    pytest.param(lambda s: rw.box_apply(s, (0, 1), (2, -1)),
                 "-1 outside carrier 3", id="box-apply"),
    pytest.param(lambda s: rw.check_exp_homomorphism(s, 3),
                 "3 outside carrier 3", id="exp-homomorphism-base"),
])
def test_guards(call, message):
    with pytest.raises(rw.IndexOutOfRange) as exc:
        call(rw.trivial_rack(3))
    assert str(exc.value) == message
