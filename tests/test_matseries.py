from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rackwork as rw
from rackwork import matseries

SHEAR = rw.mat2(1, 1, 0, 1)
GEOM = rw.mat2(2, 0, 0, F(1, 2))
HARD = rw.mat2(1, -2, -1, 3)


class TestBasicOps:
    def test_shear_cubed(self):
        assert rw.mat_pow(SHEAR, 3) == rw.mat2(1, 3, 0, 1)

    def test_trace_det_of_hard_fixture(self):
        assert rw.trace(HARD) == 4
        assert rw.det(HARD) == 1

    def test_identity_large_power(self):
        ident = rw.mat2(1, 0, 0, 1)
        assert rw.mat_pow(ident, 10**6) == ident

    def test_pow_zero(self):
        assert rw.mat_pow(HARD, 0) == rw.mat2(1, 0, 0, 1)

    def test_negative_power_rejected(self):
        with pytest.raises(rw.SizeMismatch):
            rw.mat_pow(HARD, -1)

    def test_mat2_parses_rational_strings(self):
        assert rw.mat2("2", "0", "0", "1/2") == GEOM


class TestBruteSum:
    def test_identity(self):
        ident = rw.mat2(1, 0, 0, 1)
        assert rw.brute_sum(ident, 5) == rw.mat2(5, 0, 0, 5)

    def test_shear_three_terms(self):
        assert rw.brute_sum(SHEAR, 3) == rw.mat2(3, 6, 0, 3)

    def test_hard_fixture_nine_terms(self):
        expected = rw.mat2(265 * 153, 265 * -418, 265 * -209, 265 * 571)
        assert rw.brute_sum(HARD, 9) == expected

    def test_printed_variant_violates_unimodularity(self):
        """The determinant argument that pins entry -209: a copy with -208
        in that slot cannot be a fifth power of a det-1 matrix."""
        fifth = rw.mat_pow(HARD, 5)
        assert fifth == rw.mat2(153, -418, -209, 571)
        assert rw.det(fifth) == 1
        wrong = rw.mat2(153, -418, -208, 571)
        assert rw.det(wrong) == 419  # != 1


class TestClosedForm:
    def test_identity_level_one(self):
        res = rw.trace_product_sum(rw.mat2(1, 0, 0, 1), 1)
        assert res.factors == (F(3),)
        assert res.closed_form == rw.mat2(3, 0, 0, 3)

    def test_shear_level_four(self):
        res = rw.trace_product_sum(SHEAR, 4, with_oracle=True)
        assert res.factors == (F(3),) * 4
        assert res.power_exponent == 41
        assert res.closed_form == rw.mat2(81, 81 * 41, 0, 81)
        assert res.oracle_matches

    def test_geometric_level_four(self):
        res = rw.trace_product_sum(GEOM, 4, with_oracle=True)
        assert res.factors == (
            F(7, 2),
            F(73, 8),
            F(2**18 + 2**9 + 1, 2**9),
            F(2**54 + 2**27 + 1, 2**27),
        )
        assert res.oracle_matches

    def test_geometric_level_one(self):
        res = rw.trace_product_sum(GEOM, 1, with_oracle=True)
        assert res.factors == (F(7, 2),)
        assert res.closed_form == rw.mat2(14, 0, 0, F(7, 8))
        assert res.oracle == rw.mat2(14, 0, 0, F(7, 8))

    def test_hard_fixture_level_two(self):
        res = rw.trace_product_sum(HARD, 2, with_oracle=True)
        assert res.factors == (F(5), F(53))
        assert res.scalar == 265
        assert res.oracle_matches

    def test_factor_consistency(self):
        res = rw.trace_product_sum(HARD, 4)
        for j, factor in enumerate(res.factors):
            assert factor == rw.trace(rw.mat_pow(HARD, 3**j)) + 1

    def test_exponent_is_integral(self):
        for n in range(1, 9):
            res = rw.trace_product_sum(SHEAR, n)
            assert res.power_exponent == (3**n + 1) // 2

    def test_det_not_one_rejected(self):
        with pytest.raises(rw.DeterminantNotOne) as exc:
            rw.trace_product_sum(rw.mat2(2, 0, 0, 2), 1)
        assert exc.value.value == 4

    def test_level_caps(self):
        with pytest.raises(rw.SizeMismatch):
            rw.trace_product_sum(SHEAR, 0)
        with pytest.raises(rw.LevelTooLarge):
            rw.trace_product_sum(SHEAR, 13)

    def test_oracle_gated_above_level_six(self):
        res = rw.trace_product_sum(SHEAR, 7, with_oracle=True)
        assert res.oracle is None
        assert res.oracle_matches is None

    def test_cayley_hamilton_residual_zero(self):
        assert matseries.cayley_hamilton_residual(HARD) == matseries.ZERO


class TestRandomUnimodular:
    def test_word_length_zero(self):
        assert rw.random_unimodular(1, 0, 3) == rw.mat2(1, 0, 0, 1)

    def test_always_det_one(self):
        for seed in range(25):
            assert rw.det(rw.random_unimodular(seed, 8, 3)) == 1

    def test_seed_stability(self):
        a = rw.random_unimodular(42, 8, 3)
        b = rw.random_unimodular(42, 8, 3)
        assert a == b
        # different seeds must produce some variety across a small scan
        outputs = {rw.random_unimodular(s, 8, 3).entries() for s in range(10)}
        assert len(outputs) > 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 3))
def test_closed_form_equals_brute_sum(seed, n):
    a = rw.random_unimodular(seed, 6, 2)
    res = rw.trace_product_sum(a, n, with_oracle=True)
    assert res.oracle_matches


@settings(max_examples=60, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-9, 9), st.integers(1, 9), st.integers(1, 9))
def test_cayley_hamilton_for_arbitrary_rational_matrices(a, b, c, d, p, q):
    m = rw.mat2(F(a, p), F(b, q), F(c, q), F(d, p))
    assert matseries.cayley_hamilton_residual(m) == matseries.ZERO


def reference_closed_form(a, n):
    """The closed form computed the long way: a cube loop for the factors,
    then the power by binary exponentiation from a itself."""
    factors = []
    cube = a
    for _ in range(n):
        factors.append(rw.trace(cube) + 1)
        cube = matseries.mat_mul(matseries.mat_mul(cube, cube), cube)
    exponent = (3 ** n + 1) // 2
    power = rw.mat_pow(a, exponent)
    scalar = F(1)
    for f in factors:
        scalar *= f
    return tuple(factors), exponent, power, matseries.mat_scale(scalar, power)


def assert_matches_reference(a, n):
    res = rw.trace_product_sum(a, n)
    factors, exponent, power, closed_form = reference_closed_form(a, n)
    assert res.factors == factors
    assert res.power_exponent == exponent
    assert res.power == power
    assert res.closed_form == closed_form


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), word=st.integers(0, 6),
       bound=st.integers(1, 3), n=st.integers(1, 5))
def test_closed_form_matches_reference_on_unimodular(seed, word, bound, n):
    assert_matches_reference(rw.random_unimodular(seed, word, bound), n)


@settings(max_examples=40, deadline=None)
@given(a=st.tuples(st.integers(-5, 5).filter(bool), st.integers(1, 5)),
       b=st.tuples(st.integers(-5, 5), st.integers(1, 5)),
       c=st.tuples(st.integers(-5, 5), st.integers(1, 5)),
       n=st.integers(1, 5))
def test_closed_form_matches_reference_on_rational_det_one(a, b, c, n):
    a, b, c = F(*a), F(*b), F(*c)
    assert_matches_reference(rw.mat2(a, b, c, (1 + b * c) / a), n)


@pytest.mark.parametrize("a", [SHEAR, GEOM], ids=["shear", "diagonal"])
def test_closed_form_matches_reference_at_level_twelve(a):
    assert_matches_reference(a, 12)


def assert_telescopes(a, n, total):
    """Sum of a^k for k = 1..N, checked without summing: (a - I) is
    invertible when tr a != 2 (det(a - I) = 2 - tr a), so
    (a - I) total = a^(N+1) - a pins total; when tr a = 2, (a - I)^2 = 0
    and a^k = I + k (a - I)."""
    big_n = 3 ** n
    ident = matseries.IDENTITY
    a_minus_i = matseries.mat_add(a, matseries.mat_scale(-1, ident))
    if rw.trace(a) != 2:
        assert matseries.mat_mul(a_minus_i, total) == matseries.mat_add(
            rw.mat_pow(a, big_n + 1), matseries.mat_scale(-1, a))
    else:
        assert total == matseries.mat_add(
            matseries.mat_scale(big_n, ident),
            matseries.mat_scale(F(big_n * (big_n + 1), 2), a_minus_i))


RATIONAL_SKEW = rw.mat2(2, F(1, 3), F(3, 2), F(3, 4))


@pytest.mark.parametrize("a", [SHEAR, GEOM, HARD, RATIONAL_SKEW],
                         ids=["shear", "diagonal", "growing", "rational"])
@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_closed_form_telescopes_above_oracle_range(a, n):
    assert_telescopes(a, n, rw.trace_product_sum(a, n).closed_form)


def test_telescoping_check_rejects_a_wrong_sum():
    total = rw.trace_product_sum(HARD, 7).closed_form
    with pytest.raises(AssertionError):
        assert_telescopes(HARD, 7, matseries.mat_add(total, matseries.IDENTITY))
    total = rw.trace_product_sum(SHEAR, 7).closed_form
    with pytest.raises(AssertionError):
        assert_telescopes(SHEAR, 7, matseries.mat_scale(2, total))


def fraction_brute_sum(a, n_terms):
    """Plain Fraction multiply-accumulate, the oracle's reference."""
    total = matseries.ZERO
    power = matseries.IDENTITY
    for _ in range(n_terms):
        power = matseries.mat_mul(power, a)
        total = matseries.mat_add(total, power)
    return total


@pytest.mark.parametrize("a", [
    rw.mat2(2, 1, 0, 3),                            # integer, det 6
    rw.mat2(1, -2, -1, 3),                          # integer, det 1
    rw.mat2(F(1, 2), F(3, 2), F(-1, 2), F(1, 2)),   # shared denominator
    rw.mat2(F(1, 3), 2, F(-1, 2), 0),               # coprime denominators
    matseries.ZERO,
], ids=["integer", "unimodular", "shared-den", "mixed-den", "zero"])
@pytest.mark.parametrize("n_terms", [1, 2, 3, 9, 27, 729])
def test_brute_sum_matches_fraction_loop(a, n_terms):
    assert rw.brute_sum(a, n_terms) == fraction_brute_sum(a, n_terms)


@pytest.mark.parametrize("n_terms", [0, -1])
def test_brute_sum_needs_a_term(n_terms):
    with pytest.raises(rw.SizeMismatch):
        rw.brute_sum(HARD, n_terms)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: rw.random_unimodular(0, -1, 3), rw.SizeMismatch,
                 "word length must be non-negative", id="word-length"),
])
def test_guards(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_rows():
    assert HARD.rows() == [[1, -2], [-1, 3]]
