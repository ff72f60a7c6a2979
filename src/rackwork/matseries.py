"""Exact power sums of unimodular 2x2 matrices over the rationals.

For det(A) = 1 the Cayley-Hamilton identity A^2 - tr(A) A + I = 0 telescopes
the sum of the first 3^n powers into a closed form:

    sum_{k=1}^{3^n} A^k
        = (tr(A)+1) (tr(A^3)+1) ... (tr(A^(3^(n-1)))+1) * A^((3^n+1)/2).

Everything here is exact rational arithmetic: matrices hold
fractions.Fraction entries, and the brute-force oracle sums Python integers
over a common denominator before building its Fractions once.  There is no
floating point anywhere, so closed form versus brute-force summation is an
equality of values, not an approximation.

The closed form takes one of two routes, chosen from the input.  A matrix
with integer entries goes through Lucas doubling on Python ints: with
t = tr(A), A^k = U_k A - U_{k-1} I for the sequence U_0 = 0, U_1 = 1,
U_{k+1} = t U_k - U_{k-1}, so the power needs U_{m-1} and U_m only, never a
matrix power, and each result becomes a Fraction once, at the end.  A
matrix with a non-integer entry keeps the chain of cubes A^(3^j) in
Fractions.  Sending it through integers instead (A = M/q, with the powers of
q divided out at the end) was slower on diag(2, 1/2): each Fraction built
from a megabit power of q pays a quadratic gcd, where the chain on a
diagonal matrix keeps one side of every gcd at 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DeterminantNotOne, LevelTooLarge, SizeMismatch

Rat = Fraction

DEFAULT_MAX_LEVEL = 12     # cap on n in sums up to 3^n
ORACLE_MAX_LEVEL = 6       # brute-force oracle runs up to 3^6 = 729 terms


@dataclass(frozen=True)
class Mat2Q:
    """Row-major 2x2 matrix of exact rationals."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def rows(self) -> list[list[Fraction]]:
        return [[self.a, self.b], [self.c, self.d]]


def mat2(a, b, c, d) -> Mat2Q:
    """Build a matrix, coercing ints / 'p/q' strings / Fractions exactly."""
    return Mat2Q(Fraction(a), Fraction(b), Fraction(c), Fraction(d))


IDENTITY = mat2(1, 0, 0, 1)
ZERO = mat2(0, 0, 0, 0)


def mat_mul(x: Mat2Q, y: Mat2Q) -> Mat2Q:
    return Mat2Q(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def mat_add(x: Mat2Q, y: Mat2Q) -> Mat2Q:
    return Mat2Q(x.a + y.a, x.b + y.b, x.c + y.c, x.d + y.d)


def mat_scale(r, x: Mat2Q) -> Mat2Q:
    r = Fraction(r)
    return Mat2Q(r * x.a, r * x.b, r * x.c, r * x.d)


def mat_pow(x: Mat2Q, k: int) -> Mat2Q:
    """x**k by binary exponentiation; k = 0 gives the identity."""
    if k < 0:
        raise SizeMismatch("exponent must be non-negative")
    result = IDENTITY
    base = x
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def trace(x: Mat2Q) -> Fraction:
    return x.a + x.d


def det(x: Mat2Q) -> Fraction:
    return x.a * x.d - x.b * x.c


def cayley_hamilton_residual(x: Mat2Q) -> Mat2Q:
    """x^2 - tr(x) x + det(x) I, identically zero for every 2x2 matrix."""
    return mat_add(
        mat_mul(x, x),
        mat_add(mat_scale(-trace(x), x), mat_scale(det(x), IDENTITY)),
    )


def brute_sum(a: Mat2Q, n_terms: int) -> Mat2Q:
    """Independent oracle: sum_{k=1}^{N} a^k by multiply-accumulate.

    With q the lcm of the entry denominators and M = q a, the integer
    matrix T_k = q T_{k-1} + M^k equals q^k times the partial sum, so the
    loop runs on Python ints and the Fractions are built once, from T_N / q^N.
    """
    if n_terms < 1:
        raise SizeMismatch("need at least one term")
    q = math.lcm(*(x.denominator for x in a.entries()))
    ma, mb, mc, md = (x.numerator * (q // x.denominator) for x in a.entries())
    pa, pb, pc, pd = 1, 0, 0, 1
    ta = tb = tc = td = 0
    for _ in range(n_terms):
        pa, pb, pc, pd = (pa * ma + pb * mc, pa * mb + pb * md,
                          pc * ma + pd * mc, pc * mb + pd * md)
        ta, tb, tc, td = q * ta + pa, q * tb + pb, q * tc + pc, q * td + pd
    den = q ** n_terms
    return Mat2Q(Fraction(ta, den), Fraction(tb, den),
                 Fraction(tc, den), Fraction(td, den))


@dataclass(frozen=True)
class SumResult:
    """Closed form for sum_{k=1}^{3^n} A^k with its trace factors.

    factors[j] = tr(A^(3^j)) + 1 for j = 0..n-1 and scalar is their
    product; power_exponent is (3^n + 1)/2 and power is A^power_exponent;
    closed_form is scalar * power; oracle, when requested and within range,
    is the brute-force sum over all 3^n terms.
    """

    n: int
    factors: tuple[Fraction, ...]
    scalar: Fraction
    power_exponent: int
    power: Mat2Q
    closed_form: Mat2Q
    oracle: Mat2Q | None = None

    @property
    def oracle_matches(self) -> bool | None:
        if self.oracle is None:
            return None
        return self.closed_form == self.oracle


def trace_product_sum(a: Mat2Q, n: int, with_oracle: bool = False) -> SumResult:
    """Evaluate sum_{k=1}^{3^n} a^k through the trace-product closed form.

    Requires det(a) = 1 exactly.  An integer matrix goes through
    _integer_closed_form (Lucas doubling, in ints); any other through
    _cube_chain (Fractions).  The module docstring says why the input picks
    the route.  with_oracle additionally runs the brute-force sum when 3^n
    is within the oracle range.
    """
    d = det(a)
    if d != 1:
        raise DeterminantNotOne(d)
    if n < 1:
        raise SizeMismatch("level must be at least 1")
    if n > DEFAULT_MAX_LEVEL:
        raise LevelTooLarge(f"level {n} exceeds cap {DEFAULT_MAX_LEVEL}")

    if all(x.denominator == 1 for x in a.entries()):
        factors, scalar, power, closed_form = _integer_closed_form(a, n)
    else:
        factors, scalar, power, closed_form = _cube_chain(a, n)

    oracle = None
    if with_oracle and n <= ORACLE_MAX_LEVEL:
        oracle = brute_sum(a, 3 ** n)
    return SumResult(
        n=n,
        factors=factors,
        scalar=scalar,
        power_exponent=(3 ** n + 1) // 2,
        power=power,
        closed_form=closed_form,
        oracle=oracle,
    )


def _cube_chain(a: Mat2Q, n: int):
    """(factors, scalar, power, closed form) from one chain of cubes
    C_j = a^(3^j), C_{j+1} = C_j^3 for j < n-1: the factors are
    tr(C_j) + 1, and the power is a * C_0 * C_1 ... C_{n-1}, which is
    a^((3^n+1)/2) since (3^n+1)/2 = 1 + sum_{j<n} 3^j."""
    factors = []
    cube = power = a
    for j in range(n):
        factors.append(trace(cube) + 1)
        power = mat_mul(power, cube)
        if j < n - 1:
            cube = mat_mul(mat_mul(cube, cube), cube)
    scalar = math.prod(factors, start=Fraction(1))
    return tuple(factors), scalar, power, mat_scale(scalar, power)


def _integer_closed_form(a: Mat2Q, n: int):
    """(factors, scalar, power, closed form) of an integer matrix a, as
    _cube_chain gives them, from ints and no matrix product.

    With t = tr(a) and U as in the module docstring, and m = (3^n+1)/2:
    - the factors are t_j + 1, where t_0 = t and t_{j+1} = t_j^3 - 3 t_j
      is the trace of the cube of a det-1 matrix of trace t_j;
    - (p, q) = (U_{k-1}, U_k) runs up the bits of m: it doubles to
      (U_{2k-1}, U_{2k}), with U_{2k-1} = q^2 - p^2 and
      U_{2k} = q (U_{k+1} - U_{k-1}) = t q^2 - 2pq, then steps once more on
      a 1 bit; det(a^k) = q^2 - t p q + p^2 = 1 replaces p^2 by
      1 + t p q - q^2, so a doubling costs one square and one product;
    - the scalar is U_{m-1} + U_m: with x = lambda^(3^j) for an eigenvalue
      lambda, x + 1/x + 1 = (x^3 - 1) / (x (x - 1)), so the product of the
      factors telescopes to that sum (an identity of polynomials in t, so
      t = +-2 included).  It is thus never formed from the factors, and
      tests compare the two;
    - the closed form is s U_m a - s U_{m-1} I, where s U_m = q^2 + pq and
      s U_{m-1} = p^2 + pq = 1 + (t+1) pq - q^2: one square and one
      product at full size, then products by the entries of a.
    """
    ma, mb, mc, md = (x.numerator for x in a.entries())
    t = ma + md
    factors = [Fraction(t + 1)]
    for _ in range(n - 1):
        u = factors[-1].numerator - 1
        factors.append(Fraction(u * u * u - 3 * u + 1))
    p, q = 0, 1
    for bit in bin((3 ** n + 1) // 2)[3:]:
        qq, pq = q * q, p * q
        p, q = 2 * qq - t * pq - 1, t * qq - 2 * pq
        if bit == "1":
            p, q = q, t * q - p
    # results take explicit arguments, not *map(...): CPython sizes a tuple
    # from an iterator of unknown length at 10 and shrinks it, and the
    # shrunk tuples pile up on the free list of their new size, which held
    # 0.7 MB in a benchmark process
    power = mat2(q * ma - p, q * mb, q * mc, q * md - p)
    scalar = Fraction(p + q)
    qq, pq = q * q, p * q
    del p, q
    su_m, su_m1 = qq + pq, 1 + (t + 1) * pq - qq
    del qq, pq
    closed_form = mat2(su_m * ma - su_m1, su_m * mb, su_m * mc, su_m * md - su_m1)
    return tuple(factors), scalar, power, closed_form


def random_unimodular(seed: int, word_length: int, coeff_bound: int) -> Mat2Q:
    """Deterministic det-1 integer matrix: a seeded random product of
    elementary shears [[1, k], [0, 1]] and [[1, 0], [k, 1]], |k| <= bound."""
    if word_length < 0:
        raise SizeMismatch("word length must be non-negative")
    rng = random.Random(seed)
    out = IDENTITY
    for _ in range(word_length):
        k = rng.randint(-coeff_bound, coeff_bound)
        if rng.random() < 0.5:
            shear = mat2(1, k, 0, 1)
        else:
            shear = mat2(1, 0, k, 1)
        out = mat_mul(out, shear)
    return out
