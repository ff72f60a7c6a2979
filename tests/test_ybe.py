import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rackwork as rw
from rackwork import euler, ybe
from rackwork.structures import AX_LEFT_DISTRIB, AX_RIGHT_DISTRIB, WITNESS_CAP


def xor_pair_map() -> rw.PairMap:
    """f(x, y) = (x xor y, x) on two elements; a known non-solution."""
    out = [[x ^ y, x] for x in range(2) for y in range(2)]
    return rw.PairMap(2, np.asarray(out))


def swap_pair_map(n: int) -> rw.PairMap:
    out = [[y, x] for x in range(n) for y in range(n)]
    return rw.PairMap(n, np.asarray(out))


def brute_word_failures(n: int, lhs, rhs):
    """Triple-loop oracle for an equation between two words of (pair map,
    position) factors, each applied rightmost first through rw.lift."""
    def run(word, t):
        for f, pos in reversed(word):
            t = rw.lift(f, pos)(t)
        return t

    return [t for t in itertools.product(range(n), repeat=3)
            if run(lhs, t) != run(rhs, t)]


def brute_qybe_failures(f: rw.PairMap):
    """Triple-loop oracle for the braid-style equation, rightmost first."""
    return brute_word_failures(f.n, [(f, 12), (f, 13), (f, 23)],
                               [(f, 23), (f, 13), (f, 12)])


class TestLift:
    def test_identity_lifts(self):
        ident = euler.identity_pair_map(3)
        for pos in (12, 13, 23):
            act = rw.lift(ident, pos)
            assert act((0, 1, 2)) == (0, 1, 2)

    def test_swap_position_12(self):
        act = rw.lift(swap_pair_map(3), 12)
        assert act((0, 1, 2)) == (1, 0, 2)

    def test_exp_position_23(self, conj_s3):
        act = rw.lift(rw.exp_map(conj_s3, 1), 23)
        assert act((0, 4, 4)) == (0, 5, 5)

    def test_position_13_threads_middle(self):
        act = rw.lift(swap_pair_map(3), 13)
        assert act((0, 1, 2)) == (2, 1, 0)

    def test_bad_position(self):
        with pytest.raises(rw.IndexOutOfRange):
            rw.lift(swap_pair_map(2), 21)


class TestQybe:
    def test_swap_passes(self):
        assert rw.check_qybe(swap_pair_map(2)).passed

    def test_xor_fixture_fails_with_witness(self):
        rep = rw.check_qybe(xor_pair_map())
        assert not rep.passed
        witnesses = [w for _, w in rep.failures]
        assert (1, 1, 0) in witnesses
        # the two sides at that witness, via the lift contract
        f = xor_pair_map()
        lhs = rw.lift(f, 12)(rw.lift(f, 13)(rw.lift(f, 23)((1, 1, 0))))
        rhs = rw.lift(f, 23)(rw.lift(f, 13)(rw.lift(f, 12)((1, 1, 0))))
        assert lhs == (1, 0, 1) and rhs == (0, 1, 1)

    def test_xor_fixture_matches_brute_oracle(self):
        rep = rw.check_qybe(xor_pair_map())
        assert [w for _, w in rep.failures] == brute_qybe_failures(
            xor_pair_map())

    def test_exp_cosh_sinh_on_conj_s3(self, conj_s3):
        ctx = rw.make_trig_context(conj_s3, 1, 4)
        for f in (rw.exp_map(conj_s3, 1), rw.cosh_map(ctx),
                  rw.sinh_map(ctx)):
            assert rw.check_qybe(f).passed

    def test_vectorized_agrees_with_brute_on_fleet_sample(self, fleet):
        for name, s in fleet:
            if s.n > 4:
                continue
            for f in (rw.w_map(s), rw.z_map(s), rw.exp_map(s, 0)):
                assert rw.check_qybe(f).passed == (
                    not brute_qybe_failures(f)), name


class TestWZ:
    def test_w_is_identity_on_trivial(self):
        s = rw.trivial_rack(3)
        assert rw.w_map(s) == euler.identity_pair_map(3)

    def test_w_value_conj_s3(self, conj_s3):
        assert rw.w_map(conj_s3).apply(1, 2) == (1, 3)

    def test_z_fixes_trivial(self):
        s = rw.trivial_rack(3)
        assert rw.z_map(s) == euler.identity_pair_map(3)

    def test_z_value_conj_s3(self, conj_s3):
        assert rw.z_map(conj_s3).apply(5, 1) == (4, 1)

    def test_w_z_solve_qybe_on_fleet(self, fleet):
        for name, s in fleet:
            assert rw.check_qybe(rw.w_map(s)).passed, name
            assert rw.check_qybe(rw.z_map(s)).passed, name


class TestMixed:
    def test_mixed_with_self_agrees_with_qybe(self, fleet):
        for name, s in fleet:
            if s.n > 6:
                continue
            for f in (rw.w_map(s), rw.exp_map(s, 0)):
                assert (rw.check_mixed(f, f).passed
                        == rw.check_qybe(f).passed), name

    def test_exp_w_on_conj_s3(self, conj_s3):
        x = rw.exp_map(conj_s3, 1)
        assert rw.check_mixed(x, rw.w_map(conj_s3)).passed

    def test_exp_w_on_lattice(self):
        s = rw.boolean_weak_rack_lattice(2)
        x = rw.exp_map(s, 3)
        assert rw.check_mixed(x, rw.w_map(s)).passed

    def test_exp_z_upper_partner(self, conj_s3):
        x = rw.exp_map(conj_s3, 1)
        assert rw.check_mixed(x, rw.z_map(conj_s3),
                              partner_position=23).passed

    def test_carrier_mismatch(self, conj_s3):
        with pytest.raises(rw.CarrierMismatch):
            rw.check_mixed(rw.w_map(conj_s3), swap_pair_map(2))

    def test_mixed_detects_failures(self):
        # pair the xor non-solution with itself: same witnesses as qybe
        rep = rw.check_mixed(xor_pair_map(), xor_pair_map())
        assert not rep.passed


class TestSystem:
    def test_conj_s3_all_five(self, conj_s3):
        rep = rw.check_yb_system(conj_s3, 1)
        assert rep.passed
        assert [name for name, r in rep.named()] == [
            "qybe_W", "qybe_X", "qybe_Z", "mixed_WXX", "mixed_XXZ"]

    def test_trivial_rack_any_base(self):
        s = rw.trivial_rack(4)
        for e in range(4):
            assert rw.check_yb_system(s, e).passed

    def test_boolean_implication_top(self):
        s = rw.boolean_weak_rack_implication(2)
        assert rw.check_yb_system(s, 3).passed

    def test_whole_fleet_every_base(self, fleet):
        for name, s in fleet:
            if s.n > 8:
                continue
            for e in range(s.n):
                assert rw.check_yb_system(s, e).passed, (name, e)

    def test_out_of_range_base(self, conj_s3):
        with pytest.raises(rw.IndexOutOfRange):
            rw.check_yb_system(conj_s3, 6)


def left_self_distributive(t) -> bool:
    """a(bc) = (ab)(ac) by a plain triple loop."""
    n = len(t)
    return all(t[a][t[b][c]] == t[t[a][b]][t[a][c]]
               for a, b, c in itertools.product(range(n), repeat=3))


def right_self_distributive(t) -> bool:
    """(c<>b)<>a = (c<>a)<>(b<>a) by a plain triple loop."""
    n = len(t)
    return all(t[t[c][b]][a] == t[t[c][a]][t[b][a]]
               for a, b, c in itertools.product(range(n), repeat=3))


@st.composite
def op_tables(draw):
    """Tables on n <= 4 points: arbitrary ones, which are rarely
    self-distributive beyond n = 2, and the families a.b = f(b) and
    a.b = f(a), which are left and right self-distributive for any f."""
    n = draw(st.integers(1, 4))
    cells = st.integers(0, n - 1)
    shape = draw(st.sampled_from(("any", "rows", "columns")))
    if shape == "any":
        flat = draw(st.lists(cells, min_size=n * n, max_size=n * n))
    else:
        f = draw(st.lists(cells, min_size=n, max_size=n))
        flat = [f[b] if shape == "rows" else f[a]
                for a in range(n) for b in range(n)]
    return rw.make_op_table(n, flat)


@settings(max_examples=200, deadline=None)
@given(op_tables())
def test_qybe_w_iff_dot_left_self_distributive(t):
    s = rw.Structure(t.n, t, t, rw.UNCHECKED)
    expected = left_self_distributive(t.tolist())
    assert rw.check_qybe(rw.w_map(s)).passed == expected
    axioms = rw.check_weak_rack_axioms(s).failures
    assert all(ax != AX_LEFT_DISTRIB for ax, _ in axioms) == expected


@settings(max_examples=200, deadline=None)
@given(op_tables())
def test_qybe_z_iff_diamond_right_self_distributive(t):
    s = rw.Structure(t.n, t, t, rw.UNCHECKED)
    expected = right_self_distributive(t.tolist())
    assert rw.check_qybe(rw.z_map(s)).passed == expected
    axioms = rw.check_weak_rack_axioms(s).failures
    assert all(ax != AX_RIGHT_DISTRIB for ax, _ in axioms) == expected


@st.composite
def table_pairs(draw):
    """Arbitrary dot and diamond tables on n <= 5 points."""
    n = draw(st.integers(1, 5))
    flat = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    return rw.make_op_table(n, draw(flat)), rw.make_op_table(n, draw(flat))


@settings(max_examples=100, deadline=None)
@given(table_pairs())
def test_qybe_exp_fails_where_the_factors_do_not_commute(tables):
    # exp_a = f x g with f = d[a] and g = e[:, a]: both sides of QYBE send
    # (x, y, z) to (f f x, ., g g z), with g f y on the left and f g y on
    # the right, so the failures are the (x, y, z) with g(f(y)) != f(g(y)).
    dot, diamond = tables
    s = rw.Structure(dot.n, dot, diamond, rw.UNCHECKED)
    n = s.n
    for a in range(n):
        f, g = dot.tolist()[a], [row[a] for row in diamond.tolist()]
        bad_y = [y for y in range(n) if g[f[y]] != f[g[y]]]
        expected = [(x, y, z) for x in range(n) for y in bad_y for z in range(n)]
        rep = rw.check_qybe(rw.exp_map(s, a))
        assert rep.passed == (not bad_y)
        assert [w for _, w in rep.failures] == expected[:WITNESS_CAP]


COORDINATES = ("projection of x", "projection of y", "constant",
               "vector of x", "vector of y", "table")


@st.composite
def classed_pair_maps(draw, n):
    """Pair maps on n points whose two output coordinates are each drawn
    from one of the classes ybe._coordinate tells apart."""
    x, y = np.ix_(range(n), range(n))
    cells = st.integers(0, n - 1)

    def vector():
        return np.asarray(draw(st.lists(cells, min_size=n, max_size=n)))

    def coordinate():
        kind = draw(st.sampled_from(COORDINATES))
        c = {"projection of x": lambda: x,
             "projection of y": lambda: y,
             "constant": lambda: np.asarray(draw(cells)),
             "vector of x": lambda: vector()[x],
             "vector of y": lambda: vector()[y],
             "table": lambda: np.asarray(draw(st.lists(
                 cells, min_size=n * n, max_size=n * n))).reshape(n, n)}[kind]()
        return np.broadcast_to(c, (n, n))

    return euler.pair_map_from_components(coordinate(), coordinate())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_words_match_triple_loop_for_every_coordinate_class(data):
    n = data.draw(st.integers(1, 5))
    a, b = data.draw(classed_pair_maps(n)), data.draw(classed_pair_maps(n))
    checks = [
        (lambda: rw.check_qybe(a),
         [(a, 12), (a, 13), (a, 23)], [(a, 23), (a, 13), (a, 12)]),
        (lambda: rw.check_mixed(a, b, 12),
         [(a, 23), (a, 13), (b, 12)], [(b, 12), (a, 13), (a, 23)]),
        (lambda: rw.check_mixed(a, b, 23),
         [(a, 12), (a, 13), (b, 23)], [(b, 23), (a, 13), (a, 12)]),
    ]
    for check, lhs, rhs in checks:
        expected = brute_word_failures(n, lhs, rhs)[:WITNESS_CAP]
        rep = check()
        assert rep.passed == (not expected)
        assert [w for _, w in rep.failures] == expected


def test_only_two_input_coordinates_gather_a_table(conj_s3, monkeypatch):
    calls = {"lift": 0, "table": 0}
    real_lift, real_at = ybe._apply_lift, ybe._at

    def lift(*args):
        calls["lift"] += 1
        return real_lift(*args)

    def at(*args):
        calls["table"] += 1
        return real_at(*args)

    monkeypatch.setattr(ybe, "_apply_lift", lift)
    monkeypatch.setattr(ybe, "_at", at)

    def gathers(f):
        calls.update(lift=0, table=0)
        assert rw.check_qybe(f).passed
        return calls["table"], calls["lift"]

    ctx = rw.make_trig_context(conj_s3, 1, 4)
    # six lifts per walked first value
    lifts = 6 * conj_s3.n
    # W and Z: one projection and one table coordinate, which an R23 lift
    # reads as the table itself on the scan's own grids (y, z): the left
    # word's first lift, and for Z also the right word's last, since Z's
    # R12 and R13 leave y and z as they are
    n = conj_s3.n
    assert gathers(rw.w_map(conj_s3)) == (5 * n, lifts)
    assert gathers(rw.z_map(conj_s3)) == (4 * n, lifts)
    # exp_e, cosh, sinh: each coordinate reads one input
    for f in (rw.exp_map(conj_s3, 1), rw.cosh_map(ctx), rw.sinh_map(ctx)):
        assert gathers(f) == (0, lifts)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda f: rw.check_mixed(f, f, 13), rw.IndexOutOfRange,
                 "partner_position must be 12 or 23", id="mixed-position"),
])
def test_guards(call, error, message):
    with pytest.raises(error) as exc:
        call(swap_pair_map(2))
    assert str(exc.value) == message
