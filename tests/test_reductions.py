"""The paper's Yang-Baxter, trig and Euler checks reduce to laws the axiom
checkers already state.  Each test compares the full witness lists, with the
cap at n^3 so that nothing is cut, of a public check and of its reduction on
unchecked structures with n <= 5:

- QYBE(W) is left self-distributivity, with the same (x, y, z);
- QYBE(Z) is right self-distributivity, (x, y, z) = (c, b, a);
- QYBE(exp_e) fails at (x, y, z) exactly when the exchange law fails at y;
- mixed_WXX is cos(xy) = cos(x)cos(y) at e, with z free;
- mixed_XXZ is sin(y<>z) = sin(y)<>sin(z) at e, with x free;
- cos(pi) = u, the Euler formula clause and the hyperbolic factorization
  hold on every pair of tables;
- the Euler identity clause fails exactly when sin(pi) = o does;
- a law fails on the opposite structure exactly where its dual law, read
  off the terms by swapping x.y with y<>x, fails on the structure.

The axiom checkers themselves, and classify, are compared with plain loops
over the tables' entries.
"""

import functools
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import rackwork as rw
from rackwork import euler, trig
from rackwork.structures import (
    AX_CANCEL_IN, AX_CANCEL_OUT, AX_DIAMOND_DOT, AX_DOT_DIAMOND,
    AX_LEFT_DISTRIB, AX_RIGHT_DISTRIB, AX_WEAK_COMPAT, WITNESS_CAP, _COMPILED,
    _named, _opposite, _render, _sides, _TERMS, classify,
)
from rackwork.tables import _grids, _scan


@functools.lru_cache(maxsize=None)
def _racks(n):
    return [(s.dot.entries.ravel().tolist(), s.diamond.entries.ravel().tolist())
            for s in rw.enumerate_racks(n).structures]


@st.composite
def contexts(draw):
    """(s, e, o) with s unchecked on n <= 5 points: random tables, which
    nearly always fail, or a rack from the census, possibly with one entry
    changed."""
    n = draw(st.integers(1, 5))
    cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    if n <= 4 and draw(st.booleans()):
        d, e = (list(t) for t in draw(st.sampled_from(_racks(n))))
        if draw(st.booleans()):
            t = draw(st.sampled_from((d, e)))
            t[draw(st.integers(0, n * n - 1))] = draw(st.integers(0, n - 1))
    else:
        d, e = draw(cells), draw(cells)
    s = rw.make_structure(rw.make_op_table(n, d), rw.make_op_table(n, e))
    return s, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


def _witnesses(report):
    return [w for _, w in report.failures]


def _triples(n, bad):
    """Every (x, y, z) in lexicographic order for which bad(x, y, z)."""
    return [t for t in itertools.product(range(n), repeat=3) if bad(*t)]


def _axiom(s, name):
    """The witnesses of one law of structures._named, uncapped."""
    (_, k, law), = _named([name], s.dot.entries, s.diamond.entries)
    return _scan(law, s.n, k, s.n ** 3)


def _at_base(s, name, e):
    """The witnesses of one law of trig._trig_laws at b = e, b dropped."""
    (k, law), = [(k, law) for p, k, law in
                 trig._trig_laws(s.dot.entries, s.diamond.entries) if p == name]
    return {w[1:] for w in _scan(law, s.n, k, s.n ** 3, heads=[(e,)])}


@settings(max_examples=80, deadline=None)
@given(contexts())
def test_qybe_w_is_left_distributivity(case):
    s, _, _ = case
    got = _witnesses(rw.check_qybe(rw.w_map(s), s.n ** 3))
    assert got == _axiom(s, AX_LEFT_DISTRIB)


@settings(max_examples=80, deadline=None)
@given(contexts())
def test_qybe_z_is_right_distributivity_reversed(case):
    s, _, _ = case
    got = _witnesses(rw.check_qybe(rw.z_map(s), s.n ** 3))
    right = _axiom(s, AX_RIGHT_DISTRIB)
    assert got == sorted((c, b, a) for a, b, c in right)


@settings(max_examples=80, deadline=None)
@given(contexts())
def test_qybe_exp_is_the_exchange_law_at_e(case):
    s, e, _ = case
    got = _witnesses(rw.check_qybe(rw.exp_map(s, e), s.n ** 3))
    bad = _at_base(s, trig.P_EXCHANGE, e)
    assert got == _triples(s.n, lambda x, y, z: (y,) in bad)


@settings(max_examples=80, deadline=None)
@given(contexts())
def test_mixed_wxx_is_cos_dot_at_e(case):
    s, e, _ = case
    rep = rw.check_yb_system(s, e, s.n ** 3)
    bad = _at_base(s, trig.P_COS_DOT, e)
    assert _witnesses(rep.mixed_wxx) == _triples(
        s.n, lambda x, y, z: (x, y) in bad)


@settings(max_examples=80, deadline=None)
@given(contexts())
def test_mixed_xxz_is_sin_diamond_at_e(case):
    s, e, _ = case
    rep = rw.check_yb_system(s, e, s.n ** 3)
    bad = _at_base(s, trig.P_SIN_DIAMOND, e)
    assert _witnesses(rep.mixed_xxz) == _triples(
        s.n, lambda x, y, z: (y, z) in bad)


@settings(max_examples=80, deadline=None)
@given(contexts())
def test_construction_identities_always_hold(case):
    s, e, o = case
    ctx = rw.make_trig_context(s, e, o)
    assert rw.check_trig_properties(ctx, s.n ** 3)[trig.P_COS_PI].passed
    clauses = {name for name, _ in rw.check_euler_formula(ctx, s.n).failures}
    assert euler.EULER_FORMULA not in clauses
    assert rw.check_hyperbolic_factorization(ctx)


@settings(max_examples=80, deadline=None)
@given(contexts())
def test_euler_identity_clause_is_sin_pi(case):
    s, e, o = case
    ctx = rw.make_trig_context(s, e, o)
    sin_pi = rw.check_trig_properties(ctx)[trig.P_SIN_PI]
    clauses = {name for name, _ in rw.check_euler_formula(ctx, s.n).failures}
    assert (euler.EULER_IDENTITY in clauses) == (not sin_pi.passed)
    # and sin(pi) = o is sin(cos x) = x at x = o
    assert sin_pi.passed == ((o,) not in _at_base(s, trig.P_SIN_COS, e))


def _loop_sides(d, e):
    """Each axiom's two sides as plain functions of its variables on the
    nested lists d and e, keyed by axiom name."""
    return {
        AX_LEFT_DISTRIB: (lambda a, b, c: d[a][d[b][c]],
                          lambda a, b, c: d[d[a][b]][d[a][c]]),
        AX_DOT_DIAMOND: (lambda a, b, c: d[a][e[c][b]],
                         lambda a, b, c: e[d[a][c]][d[a][b]]),
        AX_DIAMOND_DOT: (lambda a, b, c: e[d[b][c]][a],
                         lambda a, b, c: d[e[b][a]][e[c][a]]),
        AX_RIGHT_DISTRIB: (lambda a, b, c: e[e[c][b]][a],
                           lambda a, b, c: e[e[c][a]][e[b][a]]),
        AX_CANCEL_OUT: (lambda a, b: e[d[a][b]][a], lambda a, b: b),
        AX_CANCEL_IN: (lambda a, b: d[a][e[b][a]], lambda a, b: b),
        AX_WEAK_COMPAT: (lambda a, b: e[d[a][b]][a],
                         lambda a, b: d[a][e[b][a]]),
    }


def _loop_failures(s):
    """Each axiom's witnesses on s by nested loops over its tables, in
    lexicographic order, keyed by axiom name."""
    sides = _loop_sides(s.dot.tolist(), s.diamond.tolist())
    return {name: [w for w in itertools.product(
                       range(s.n), repeat=lhs.__code__.co_argcount)
                   if lhs(*w) != rhs(*w)]
            for name, (lhs, rhs) in sides.items()}


@settings(max_examples=80, deadline=None)
@given(contexts())
def test_every_law_matches_nested_loops(case):
    """All seven laws of structures._named, uncapped, in the loops' order
    of witnesses: two of them are otherwise reached only through trig."""
    s, _, _ = case
    laws = _named(_COMPILED, s.dot.entries, s.diamond.entries)
    assert {name: _scan(law, s.n, k, s.n ** 3)
            for name, k, law in laws} == _loop_failures(s)


@st.composite
def stacks(draw):
    """(n, d, e, unfilled, p, q): m <= 3 stacked pairs of n x n tables
    with n <= 5, a mask of cells that a partial table leaves unfilled, and
    the number of points p and q that grids may stop at."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))

    def stack(values):
        cells = st.lists(values, min_size=m * n * n, max_size=m * n * n)
        return np.array(draw(cells)).reshape(m, n, n)

    cell = st.integers(0, n - 1)
    return (n, stack(cell), stack(cell), stack(st.booleans()),
            draw(st.integers(1, n)), draw(st.integers(1, n)))


def _loop_values(f, ranges):
    """f at every point of the product of ranges, as an array."""
    return np.array([f(*w) for w in itertools.product(*ranges)]).reshape(
        [len(r) for r in ranges])


@settings(max_examples=80, deadline=None)
@given(stacks())
def test_sides_match_nested_loops(case):
    """At every instance of each of the seven laws, both sides from
    structures._sides equal plain loops over the tables, and lhs != rhs is
    the mask of _named.  On one table, at every head _scan may pass; on a
    stack with the batch axis second, with whole grids (the table stands
    for bc there) and with a, b and c stopping short; and in the census's
    form, partial tables padded with the sentinel n whose a and b grids
    stop at the filled rows (bc is gathered there)."""
    n, d, e, unfilled, p, q = case
    for name, k, law in _named(_COMPILED, d[0], e[0]):
        sides = _sides(name, d[0], e[0])
        loops = _loop_sides(d[0].tolist(), e[0].tolist())[name]
        for length in range(k):
            for head in itertools.product(range(n), repeat=length):
                grids, shape = _grids(n, k - length), (n,) * (k - length)
                got = [np.broadcast_to(side, shape)
                       for side in sides(*head, *grids)]
                for side, f in zip(got, loops):
                    want = _loop_values(functools.partial(f, *head),
                                        [range(n)] * (k - length))
                    assert (side == want).all()
                mask = np.broadcast_to(law(*head, *grids), shape)
                assert (mask == (got[0] != got[1])).all()
    padded = np.full((2, len(d), n + 1, n + 1), n)
    padded[:, :, :n, :n] = np.where(unfilled, n, (d, e))
    for (dd, ee), points in (((d, e), (n, n, n)), ((d, e), (p, p, q)),
                             (padded, (p, p, n))):
        for name, k, law in _named(_COMPILED, dd, ee):
            ranges = [range(stop) for stop in points[:k]]
            grids = [g[:, None] for g in np.ix_(*ranges)]
            shape = (len(ranges[0]), len(dd), *map(len, ranges[1:]))
            got = [np.broadcast_to(side, shape)
                   for side in _sides(name, dd, ee)(*grids)]
            for s in range(len(dd)):
                loops = _loop_sides(dd[s].tolist(), ee[s].tolist())[name]
                for side, f in zip(got, loops):
                    assert (side[:, s] == _loop_values(f, ranges)).all()
            mask = np.broadcast_to(law(*grids), shape)
            assert (mask == (got[0] != got[1])).all()


@settings(max_examples=80, deadline=None)
@given(contexts())
def test_one_value_heads_walk_as_the_default(case):
    """A caller may fix the first variable of any law of structures._named,
    as trig does at the base point, or any longer prefix of its variables
    short of the last, and reads the default walk's witnesses under every
    cap: a head that fixes b of a triple law gathers bc, where the default
    walk reads the table for it."""
    s, _, _ = case
    n = s.n
    for _, k, law in _named(_COMPILED, s.dot.entries, s.diamond.entries):
        for length in range(k):
            heads = list(itertools.product(range(n), repeat=length))
            for cap in (1, 3, n ** 3):
                assert _scan(law, n, k, cap, heads) == _scan(law, n, k, cap)


def _mirror(term):
    """term under the duality x.y -> y<>x, x<>y -> y.x."""
    if isinstance(term, str):
        return term
    op, x, y = term
    return ({"dot": "dia", "dia": "dot"}[op], _mirror(y), _mirror(x))


# each law's dual, an involution on the seven laws
DUALS = {AX_LEFT_DISTRIB: AX_RIGHT_DISTRIB, AX_RIGHT_DISTRIB: AX_LEFT_DISTRIB,
         AX_DOT_DIAMOND: AX_DIAMOND_DOT, AX_DIAMOND_DOT: AX_DOT_DIAMOND,
         AX_CANCEL_OUT: AX_CANCEL_IN, AX_CANCEL_IN: AX_CANCEL_OUT,
         AX_WEAK_COMPAT: AX_WEAK_COMPAT}


def test_duality_maps_the_terms_onto_themselves():
    """The mirror of each law is its dual law, in the same variables; the
    exchange law is its own dual with its two sides swapped."""
    laws = {_render(law): law for law in _TERMS}
    assert set(DUALS) == set(laws)
    for name, (lhs, rhs) in laws.items():
        image = laws[DUALS[name]]
        if name == AX_WEAK_COMPAT:
            image = image[::-1]
        assert (_mirror(lhs), _mirror(rhs)) == image


@settings(max_examples=80, deadline=None)
@given(contexts())
def test_each_law_on_the_opposite_is_its_dual_on_the_structure(case):
    s, _, _ = case
    opposite = _opposite(s)
    for name, dual in DUALS.items():
        assert _axiom(opposite, name) == _axiom(s, dual)


@settings(max_examples=120, deadline=None)
@given(contexts())
def test_axiom_witnesses_match_nested_loops(case):
    s, _, _ = case
    loops = _loop_failures(s)

    def failures(names, cap):
        return [(name, w) for name in names for w in loops[name][:cap]]

    rack = (AX_LEFT_DISTRIB, AX_CANCEL_OUT, AX_CANCEL_IN, AX_RIGHT_DISTRIB)
    weak = (AX_LEFT_DISTRIB, AX_WEAK_COMPAT, AX_RIGHT_DISTRIB)
    cap = s.n ** 3
    assert rw.check_rack_axioms(s, cap).failures == failures(rack, cap)
    assert rw.check_weak_rack_axioms(s, cap).failures == failures(weak, cap)
    kind, report = classify(s)
    assert report.failures == failures(weak, WITNESS_CAP)
    if report.failures:
        assert kind == "neither"
    else:
        cancels = loops[AX_CANCEL_OUT] or loops[AX_CANCEL_IN]
        assert kind == (rw.WEAK_RACK if cancels else rw.RACK)
