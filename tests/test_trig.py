import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rackwork as rw
from rackwork import census, structures, tables, trig
from rackwork.structures import (AX_RIGHT_DISTRIB, WITNESS_CAP, _COMPILED,
                                 _named)


class TestContext:
    def test_conj_s3_context(self, conj_s3):
        ctx = rw.make_trig_context(conj_s3, 1, 4)
        assert (ctx.pi, ctx.u) == (5, 4)

    def test_trivial_context(self):
        s = rw.trivial_rack(4)
        for e in range(4):
            for o in range(4):
                ctx = rw.make_trig_context(s, e, o)
                assert (ctx.pi, ctx.u) == (o, o)

    def test_boolean_implication_context(self):
        s = rw.boolean_weak_rack_implication(2)
        ctx = rw.make_trig_context(s, 3, 0)
        assert (ctx.pi, ctx.u) == (0, 0)

    def test_out_of_range(self, conj_s3):
        with pytest.raises(rw.IndexOutOfRange):
            rw.make_trig_context(conj_s3, 6, 0)

    def test_stored_fields_rederivable(self, fleet):
        for name, s in fleet:
            ctx = rw.make_trig_context(s, 0, s.n - 1)
            assert ctx.pi == rw.apply(s.dot, ctx.e, ctx.o), name
            assert ctx.u == rw.apply(s.dot, ctx.e, ctx.pi), name


class TestCosSin:
    def test_values_on_conj_s3(self, conj_s3):
        ctx = rw.make_trig_context(conj_s3, 1, 4)
        assert rw.t_cos(ctx, 4) == 5
        assert rw.t_sin(ctx, 5) == 4  # sin(pi) = o

    def test_identity_on_trivial(self):
        ctx = rw.make_trig_context(rw.trivial_rack(3), 2, 1)
        for x in range(3):
            assert rw.t_cos(ctx, x) == x
            assert rw.t_sin(ctx, x) == x

    def test_one_point(self):
        ctx = rw.make_trig_context(rw.trivial_rack(1), 0, 0)
        assert rw.t_cos(ctx, 0) == 0 and rw.t_sin(ctx, 0) == 0

    def test_sin_constant_on_implication_top(self):
        s = rw.boolean_weak_rack_implication(2)
        ctx = rw.make_trig_context(s, 3, 0)
        assert all(rw.t_sin(ctx, x) == 0 for x in range(4))

    def test_bounds(self, conj_s3):
        ctx = rw.make_trig_context(conj_s3, 1, 4)
        with pytest.raises(rw.IndexOutOfRange):
            rw.t_cos(ctx, 6)
        with pytest.raises(rw.IndexOutOfRange):
            rw.t_sin(ctx, -1)


class TestProperties:
    def test_conj_s3_all_nine_pass(self, conj_s3):
        rep = rw.check_trig_properties(rw.make_trig_context(conj_s3, 1, 4))
        assert rep.passed
        assert len(rep.properties) == 9
        assert not rep.rack_only  # full rack: everything in the main section

    def test_all_racks_all_base_points(self, fleet):
        """On a full rack the nine properties, both Euler clauses, the
        hyperbolic factorization and the exp homomorphism are theorems,
        whatever e, o: checked on the fleet and on every labeled rack with
        n <= 4 from the census (1,950 (e, o) contexts)."""
        racks = [(name, s) for name, s in fleet
                 if s.kind == rw.RACK and s.n <= 8]
        for n in range(1, 5):
            found = rw.enumerate_racks(n).structures
            racks += [(f"rack{n}.{i}", s) for i, s in enumerate(found)]
        assert sum(s.n ** 2 for _, s in racks[-130:]) == 1950
        for name, s in racks:
            for e in range(s.n):
                assert rw.check_exp_homomorphism(s, e).passed, (name, e)
                assert rw.check_hyperbolic_factorization(
                    rw.make_trig_context(s, e, 0)), (name, e)
                for o in range(s.n):
                    ctx = rw.make_trig_context(s, e, o)
                    assert rw.check_trig_properties(ctx).passed, (name, e, o)
                    assert rw.check_euler_formula(ctx).passed, (name, e, o)

    def test_cos_sin_mutually_inverse_on_racks(self, fleet):
        for name, s in fleet:
            if s.kind != rw.RACK:
                continue
            ctx = rw.make_trig_context(s, s.n // 2, 0)
            cos = trig.cos_table(ctx)
            sin = trig.sin_table(ctx)
            assert sorted(cos.tolist()) == list(range(s.n)), name
            assert all(sin[cos[x]] == x and cos[sin[x]] == x
                       for x in range(s.n)), name

    def test_weak_exchange_law_all_contexts(self, fleet):
        """sin(cos x) = cos(sin x) holds on every weak rack for every e, o."""
        for name, s in fleet:
            if s.kind != rw.WEAK_RACK:
                continue
            for e in range(s.n):
                for o in range(s.n):
                    rep = rw.check_trig_properties(
                        rw.make_trig_context(s, e, o))
                    assert rep[trig.P_EXCHANGE].passed, (name, e, o)

    def test_implication_k2_report(self):
        s = rw.boolean_weak_rack_implication(2)
        rep = rw.check_trig_properties(rw.make_trig_context(s, 3, 0))
        assert rep[trig.P_EXCHANGE].passed
        # cos is the identity here, so sin(cos x) = x fails wherever sin
        # collapses; first witness is x = 1
        assert not rep[trig.P_SIN_COS].passed
        assert rep[trig.P_SIN_COS].witnesses[0] == (1,)
        assert not rep[trig.P_COS_SIN].passed
        # with e = top, sin(pi) = 0 = o: this one holds here
        assert rep[trig.P_SIN_PI].passed
        # the multiplicativity of sin is among the claims that fail on
        # this example: sin(0.0) = sin(top) = 0 but sin0 sin0 = top
        assert not rep[trig.P_SIN_DOT].passed
        assert rep[trig.P_SIN_DOT].witnesses[0] == (0, 0)

    def test_lattice_k2_sin_pi_fails(self):
        s = rw.boolean_weak_rack_lattice(2)
        rep = rw.check_trig_properties(rw.make_trig_context(s, 3, 0))
        assert not rep[trig.P_SIN_PI].passed
        assert rep[trig.P_SIN_PI].witnesses == ((3, 3),)  # pi=3, sin(pi)=3
        # main section is clean on the lattice example
        assert all(p.passed for p in rep.main)

    def test_rack_only_sectioning(self):
        s = rw.boolean_weak_rack_implication(2)
        rep = rw.check_trig_properties(rw.make_trig_context(s, 3, 0))
        assert {p.name for p in rep.rack_only} == set(
            trig.RACK_ONLY_PROPERTIES)

    def test_cos_pi_definitional(self, fleet):
        """cos(pi) = u holds by construction in racks and weak racks."""
        for name, s in fleet:
            for e in range(min(s.n, 4)):
                rep = rw.check_trig_properties(
                    rw.make_trig_context(s, e, s.n - 1))
                assert rep[trig.P_COS_PI].passed, (name, e)

    def test_cos_and_sin_are_morphisms_on_racks(self, fleet):
        for name, s in fleet:
            if s.kind != rw.RACK:
                continue
            ctx = rw.make_trig_context(s, 0, s.n - 1)
            assert rw.check_morphism(trig.cos_table(ctx), s, s).passed, name
            assert rw.check_morphism(trig.sin_table(ctx), s, s).passed, name


class TestDerivedRack:
    def test_over_trivial_is_trivial(self):
        s = rw.trivial_rack(3)
        ctx = rw.make_trig_context(s, 1, 2)
        assert rw.trig_derived_rack(ctx) == s

    def test_over_conj_s3_is_a_rack(self, conj_s3):
        d = rw.trig_derived_rack(rw.make_trig_context(conj_s3, 1, 4))
        assert d.kind == rw.RACK
        assert rw.check_rack_axioms(d).passed

    def test_dot_rows_identical(self, conj_s3):
        d = rw.trig_derived_rack(rw.make_trig_context(conj_s3, 1, 4))
        rows = d.dot.tolist()
        assert all(row == rows[0] for row in rows)

    def test_rejected_over_weak_rack(self):
        # cos x = 1 | x is constant, so the result fails cancellation
        s = rw.boolean_weak_rack_lattice(1)
        with pytest.raises(rw.KindMismatch):
            rw.trig_derived_rack(rw.make_trig_context(s, 1, 0))

    def test_a_rack_over_a_weak_rack_with_inverse_cos_and_sin(self):
        # dot = diamond = min: cos and sin at e = 1 are the identity
        t = rw.make_op_table(2, [0, 0, 0, 1])
        s = rw.make_structure(t, t, rw.WEAK_RACK)
        d = rw.trig_derived_rack(rw.make_trig_context(s, 1, 0))
        assert d == rw.trivial_rack(2)
        with pytest.raises(rw.KindMismatch) as exc:
            rw.trig_derived_rack(rw.make_trig_context(s, 0, 0))
        assert str(exc.value) == ("claimed rack violates "
                                  "'(ab) diamond a = b' at (0, 1)")


@st.composite
def table_pairs(draw):
    """Dot and diamond tables on n <= 5 points: arbitrary ones, which
    nearly always fail the homomorphism laws, and the racks a.b = p(b),
    b<>a = p^-1(b) for a permutation p, on which every law holds."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
        dot, diamond = draw(cells), draw(cells)
    else:
        p = draw(st.permutations(range(n)))
        dot = [p[b] for a in range(n) for b in range(n)]
        diamond = [p.index(b) for b in range(n) for a in range(n)]
    return rw.Structure(n, rw.make_op_table(n, dot),
                        rw.make_op_table(n, diamond), rw.UNCHECKED)


def hom_failures(f, t):
    """The (x, y) with f(x t y) != f(x) t f(y), by a plain double loop."""
    n = len(t)
    return [(x, y) for x in range(n) for y in range(n)
            if f[t[x][y]] != t[f[x]][f[y]]]


def trig_failures(dot, diamond, e, o):
    """Every property's witnesses, in report order, by plain loops over
    nested lists: (pi, value) for the base-point identities, (x, y) for
    the homomorphisms and (x,) for the pointwise laws."""
    n = len(dot)
    cos, sin = dot[e], [row[e] for row in diamond]
    pi = dot[e][o]
    u = dot[e][pi]
    return [
        (trig.P_COS_PI, [] if cos[pi] == u else [(pi, cos[pi])]),
        (trig.P_SIN_PI, [] if sin[pi] == o else [(pi, sin[pi])]),
        (trig.P_COS_DOT, hom_failures(cos, dot)),
        (trig.P_COS_DIAMOND, hom_failures(cos, diamond)),
        (trig.P_SIN_DOT, hom_failures(sin, dot)),
        (trig.P_SIN_DIAMOND, hom_failures(sin, diamond)),
        (trig.P_SIN_COS, [(x,) for x in range(n) if sin[cos[x]] != x]),
        (trig.P_COS_SIN, [(x,) for x in range(n) if cos[sin[x]] != x]),
        (trig.P_EXCHANGE,
         [(x,) for x in range(n) if sin[cos[x]] != cos[sin[x]]]),
    ]


@settings(max_examples=150, deadline=None)
@given(table_pairs())
def test_homomorphism_witnesses_match_double_loop(s):
    n, dot, diamond = s.n, s.dot.tolist(), s.diamond.tolist()
    for e in range(n):
        cos, sin = dot[e], [row[e] for row in diamond]
        for o in range(n):
            rep = rw.check_trig_properties(rw.make_trig_context(s, e, o),
                                           max_witnesses=n * n)
            assert [(p.name, list(p.witnesses)) for p in rep.properties] == (
                trig_failures(dot, diamond, e, o)), (e, o)
        for f in (cos, sin):
            morphism = rw.check_morphism(f, s, s)
            assert [w for _, w in morphism.failures] == (
                hom_failures(f, dot) + hom_failures(f, diamond)), e

        # exp_e((x,y)(u,v)) = (e.(x.u), (v<>y)<>e) against
        # exp_e(x,y) exp_e(u,v) = ((e.x).(e.u), (v<>e)<>(y<>e))
        expected = [(x, y, u, v)
                    for x, y, u, v in itertools.product(range(n), repeat=4)
                    if (cos[dot[x][u]], sin[diamond[v][y]])
                    != (dot[cos[x]][cos[u]], diamond[sin[v]][sin[y]])]
        exp_hom = rw.check_exp_homomorphism(s, e, max_witnesses=n ** 4)
        assert [w for _, w in exp_hom.failures] == expected, e
        assert [w for _, w in rw.check_exp_homomorphism(s, e).failures] == (
            expected[:WITNESS_CAP]), e


# property of s -> property of dual_rack(s) at the same e, and whether the
# dual's witnesses are the transposed ones: the dual has cos' = sin and
# sin' = cos, with the operands of both operations swapped
DUAL_PROPERTIES = (
    (trig.P_SIN_DOT, trig.P_COS_DIAMOND, True),
    (trig.P_COS_DIAMOND, trig.P_SIN_DOT, True),
    (trig.P_SIN_DIAMOND, trig.P_COS_DOT, True),
    (trig.P_COS_DOT, trig.P_SIN_DIAMOND, True),
    (trig.P_SIN_COS, trig.P_COS_SIN, False),
    (trig.P_COS_SIN, trig.P_SIN_COS, False),
    (trig.P_EXCHANGE, trig.P_EXCHANGE, False),
)


@settings(max_examples=150, deadline=None)
@given(table_pairs())
def test_carrier_wide_properties_swap_under_duality(s):
    dual = rw.dual_rack(s)
    n = s.n
    for e in range(n):
        rep, rep_dual = (
            rw.check_trig_properties(rw.make_trig_context(t, e, 0),
                                     max_witnesses=n * n)
            for t in (s, dual))
        for name, dual_name, transposed in DUAL_PROPERTIES:
            wits = rep[name].witnesses
            if transposed:
                wits = tuple(sorted(w[::-1] for w in wits))
            assert wits == rep_dual[dual_name].witnesses, (e, name)


def atlas_structures():
    """Every rack on 3 points, every weak rack on 2, the first 100 weak
    racks on 3 and 42 random table pairs on 1 to 6 points."""
    weak3 = rw.enumerate_weak_racks(3)
    found = (rw.enumerate_racks(3).structures
             + rw.enumerate_weak_racks(2).structures
             + [rw.Structure(3, rw.OpTable(3, d), rw.OpTable(3, e), weak3.kind)
                for d, e in zip(weak3.dots[:100], weak3.diamonds[:100])])
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for _ in range(7):
            dot, diamond = (rw.OpTable(n, rng.integers(0, n, (n, n)))
                            for _ in range(2))
            found.append(rw.Structure(n, dot, diamond, rw.UNCHECKED))
    return found


def law_named(laws, wanted):
    return next(law for name, _, law in laws if name == wanted)


@pytest.mark.parametrize("slab", [census._SLAB_CELLS, 1])
def test_trig_laws_with_a_free_base_point(monkeypatch, slab):
    """Scanned with the base point b as a variable, as an atlas over base
    points scans them, the laws of _trig_laws fail exactly where
    check_trig_properties reports failures at e = b, with b prepended;
    sin-diamond is right self-distributivity with its last two variables
    swapped; and _holds on a stack agrees with each structure's scans.
    The census that supplies the atlas runs with its default block bound
    and with blocks of one structure each."""
    monkeypatch.setattr(census, "_SLAB_CELLS", slab)
    structures = atlas_structures()
    for s in structures:
        n = s.n
        reports = [rw.check_trig_properties(rw.make_trig_context(s, b, 0),
                                            max_witnesses=n * n)
                   for b in range(n)]
        laws = trig._trig_laws(s.dot.entries, s.diamond.entries)
        for name, k, law in laws:
            pinned = [(b,) + w for b, rep in enumerate(reports)
                      for w in rep[name].witnesses]
            assert tables._scan(law, n, k, n ** k) == pinned, (s, name)
        right = law_named(_named(_COMPILED, s.dot.entries, s.diamond.entries),
                          AX_RIGHT_DISTRIB)
        assert sorted((a, c, b) for a, b, c in tables._scan(
            right, n, 3, n ** 3)) == tables._scan(
                law_named(laws, trig.P_SIN_DIAMOND), n, 3, n ** 3)

    for n in range(1, 7):
        stack = [s for s in structures if s.n == n]
        dots = np.stack([s.dot.entries for s in stack])
        diamonds = np.stack([s.diamond.entries for s in stack])
        for name, k, law in trig._trig_laws(dots, diamonds):
            expected = [not tables._scan(law_named(trig._trig_laws(
                s.dot.entries, s.diamond.entries), name), n, k, 1)
                for s in stack]
            assert tables._holds([(name, k, law)], n, len(stack)).tolist() == (
                expected), (n, name)


def test_law_and_property_names_are_the_report_contract():
    """Reports print these names verbatim: the seven laws in the order of
    structures._named, each with the trig property it is at a = e."""
    names = {
        "a(bc) = (ab)(ac)": "cos(xy) = cos(x)cos(y)",
        "a(c diamond b) = (ac) diamond (ab)":
            "cos(x diamond y) = cos(x) diamond cos(y)",
        "(bc) diamond a = (b diamond a)(c diamond a)":
            "sin(xy) = sin(x)sin(y)",
        "(c diamond b) diamond a = (c diamond a) diamond (b diamond a)":
            "sin(x diamond y) = sin(x) diamond sin(y)",
        "(ab) diamond a = b": "sin(cos(x)) = x",
        "a(b diamond a) = b": "cos(sin(x)) = x",
        "(ab) diamond a = a(b diamond a)": "sin(cos(x)) = cos(sin(x))",
    }
    t = np.zeros((1, 1), dtype=np.int64)
    assert [name for name, _, _ in _named(_COMPILED, t, t)] == list(names)
    assert [name for name, _, _ in trig._trig_laws(t, t)] == list(
        names.values())
    assert (structures.AX_LEFT_DISTRIB, structures.AX_DOT_DIAMOND,
            structures.AX_DIAMOND_DOT, structures.AX_RIGHT_DISTRIB,
            structures.AX_CANCEL_OUT, structures.AX_CANCEL_IN,
            structures.AX_WEAK_COMPAT) == tuple(names)
    assert (trig.P_COS_DOT, trig.P_COS_DIAMOND, trig.P_SIN_DOT,
            trig.P_SIN_DIAMOND, trig.P_SIN_COS, trig.P_COS_SIN,
            trig.P_EXCHANGE) == tuple(names.values())
    assert (trig.P_COS_PI, trig.P_SIN_PI) == ("cos(pi) = u", "sin(pi) = o")


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda rep: rep["sin(pi) = u"], KeyError, "'sin(pi) = u'",
                 id="unknown-property"),
])
def test_guards(call, error, message):
    rep = rw.check_trig_properties(
        rw.make_trig_context(rw.trivial_rack(2), 0, 1))
    with pytest.raises(error) as exc:
        call(rep)
    assert str(exc.value) == message
