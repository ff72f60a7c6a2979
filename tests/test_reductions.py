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
- the Euler identity clause fails exactly when sin(pi) = o does.
"""

import functools
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import rackwork as rw
from rackwork import euler, trig
from rackwork.structures import _left_distrib, _right_distrib
from rackwork.tables import _narrow, _scan


@functools.lru_cache(maxsize=None)
def _racks(n):
    return [(s.dot.entries.ravel().tolist(), s.diamond.entries.ravel().tolist())
            for s in rw.enumerate_racks(n, keep=True).structures]


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


def _at_base(s, name, e):
    """The witnesses of one law of trig._trig_laws at b = e, b dropped."""
    (k, law), = [(k, law) for p, k, law in
                 trig._trig_laws(s.dot.entries, s.diamond.entries) if p == name]
    return {w[1:] for w in _scan(law, s.n, k, s.n ** 3, heads=(e,))}


@settings(max_examples=80, deadline=None)
@given(contexts())
def test_qybe_w_is_left_distributivity(case):
    s, _, _ = case
    got = _witnesses(rw.check_qybe(rw.w_map(s), s.n ** 3))
    assert got == _scan(_left_distrib(_narrow(s.dot.entries)), s.n, 3, s.n ** 3)


@settings(max_examples=80, deadline=None)
@given(contexts())
def test_qybe_z_is_right_distributivity_reversed(case):
    s, _, _ = case
    got = _witnesses(rw.check_qybe(rw.z_map(s), s.n ** 3))
    right = _scan(_right_distrib(s.diamond.entries), s.n, 3, s.n ** 3)
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
