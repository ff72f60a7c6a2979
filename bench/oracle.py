"""Expected answers computed without the code under test.

Everything here is plain Python over lists of ints and Fractions: the
tables are built from their definitions, laws are evaluated instance by
instance in lexicographic order, and matrix sums come from closed formulas
or a multiply-accumulate loop.  The benchmark compares rackwork's verdicts
and witnesses against these answers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

WITNESS_CAP = 32  # rackwork reports at most this many witnesses per law

# ------------------------------------------------------------ tables

def symmetric_group(k: int) -> tuple[list[list[int]], int, list[int]]:
    """Multiplication table of S_k (the right factor acts first), with the
    index of the identity and the inverse of every element."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[tuple(p[q[i]] for i in range(k))] for q in perms]
           for p in perms]
    identity = index[tuple(range(k))]
    inv = [row.index(identity) for row in mul]
    return mul, identity, inv


def conjugation_tables(mul, inv) -> tuple[list[list[int]], list[list[int]]]:
    """a.b = a b a^-1 and a<>b = b^-1 a b."""
    n = len(mul)
    dot = [[mul[mul[a][b]][inv[a]] for b in range(n)] for a in range(n)]
    diamond = [[mul[mul[inv[b]][a]][b] for b in range(n)] for a in range(n)]
    return dot, diamond


def boolean_implication_tables(k: int):
    """Subsets of k atoms as bit masks: a.b = a -> b, a<>b = a minus b."""
    n, mask = 1 << k, (1 << k) - 1
    dot = [[(~a | b) & mask for b in range(n)] for a in range(n)]
    diamond = [[a & ~b & mask for b in range(n)] for a in range(n)]
    return dot, diamond


def boolean_lattice_dot(k: int) -> list[list[int]]:
    n = 1 << k
    return [[a | b for b in range(n)] for a in range(n)]


# ------------------------------------------------------------ law scans

def first_failures(holds, n: int, arity: int, cap: int = WITNESS_CAP) -> list:
    """The lexicographically first `cap` instances at which `holds` is
    false, scanning every arity-tuple over 0..n-1 in order."""
    out = []
    for inst in itertools.product(range(n), repeat=arity):
        if not holds(*inst):
            out.append(inst)
            if len(out) == cap:
                break
    return out


# Report identifiers are rackwork's stable names for each law.
LEFT_DISTRIB = "a(bc) = (ab)(ac)"
CANCEL_OUT = "(ab) diamond a = b"
CANCEL_IN = "a(b diamond a) = b"
RIGHT_DISTRIB = "(c diamond b) diamond a = (c diamond a) diamond (b diamond a)"
WEAK_COMPAT = "(ab) diamond a = a(b diamond a)"


def axiom_laws(d, e) -> dict:
    """Each axiom as (arity, predicate) over the tables d (dot), e (diamond)."""
    return {
        LEFT_DISTRIB: (3, lambda a, b, c: d[a][d[b][c]] == d[d[a][b]][d[a][c]]),
        CANCEL_OUT: (2, lambda a, b: e[d[a][b]][a] == b),
        CANCEL_IN: (2, lambda a, b: d[a][e[b][a]] == b),
        RIGHT_DISTRIB: (3, lambda a, b, c:
                        e[e[c][b]][a] == e[e[c][a]][e[b][a]]),
        WEAK_COMPAT: (2, lambda a, b: e[d[a][b]][a] == d[a][e[b][a]]),
    }


RACK_AXIOMS = (LEFT_DISTRIB, CANCEL_OUT, CANCEL_IN, RIGHT_DISTRIB)
WEAK_AXIOMS = (LEFT_DISTRIB, WEAK_COMPAT, RIGHT_DISTRIB)


def axiom_failures(d, e, axioms, known_to_hold=()) -> list:
    """Expected (axiom, witness) list of a rack or weak-rack scan.  Laws in
    known_to_hold are taken from mathematics (for example, a Boolean weak
    rack is left and right self-distributive) instead of an n^3 scan."""
    laws = axiom_laws(d, e)
    out = []
    for name in axioms:
        if name in known_to_hold:
            continue
        arity, holds = laws[name]
        out += [(name, w) for w in first_failures(holds, len(d), arity)]
    return out


# ------------------------------------------------------------ trig / euler

COS_PI = "cos(pi) = u"
SIN_PI = "sin(pi) = o"
SIN_COS = "sin(cos(x)) = x"
COS_SIN = "cos(sin(x)) = x"
RACK_ONLY = (SIN_PI, SIN_COS, COS_SIN)


def trig_expectation(d, e, e0: int, o: int) -> dict:
    """name -> list of the first witnesses of each of the nine properties,
    for cos x = e0.x and sin x = x<>e0."""
    n = len(d)
    cos = [d[e0][x] for x in range(n)]
    sin = [e[x][e0] for x in range(n)]
    pi = d[e0][o]
    u = d[e0][pi]
    return {
        COS_PI: [] if cos[pi] == u else [(pi, cos[pi])],
        SIN_PI: [] if sin[pi] == o else [(pi, sin[pi])],
        "cos(xy) = cos(x)cos(y)": first_failures(
            lambda x, y: cos[d[x][y]] == d[cos[x]][cos[y]], n, 2),
        "cos(x diamond y) = cos(x) diamond cos(y)": first_failures(
            lambda x, y: cos[e[x][y]] == e[cos[x]][cos[y]], n, 2),
        "sin(xy) = sin(x)sin(y)": first_failures(
            lambda x, y: sin[d[x][y]] == d[sin[x]][sin[y]], n, 2),
        "sin(x diamond y) = sin(x) diamond sin(y)": first_failures(
            lambda x, y: sin[e[x][y]] == e[sin[x]][sin[y]], n, 2),
        SIN_COS: first_failures(lambda x: sin[cos[x]] == x, n, 1),
        COS_SIN: first_failures(lambda x: cos[sin[x]] == x, n, 1),
        "sin(cos(x)) = cos(sin(x))": first_failures(
            lambda x: sin[cos[x]] == cos[sin[x]], n, 1),
    }


EULER_IDENTITY = "exp_e(pi,pi) = (u, o)"
EXP_HOM = "exp_a((x,y)(u,v)) = exp_a(x,y) exp_a(u,v)"


def euler_failures(d, e, e0: int, o: int) -> list:
    """Expected failures of check_euler_formula, witnessed (pi, got1, got2)."""
    # exp_e(x,x) = (e.x, x<>e) = (cos x, sin x) by definition, so the
    # formula clause never fails; the identity clause needs sin(pi) = o.
    pi = d[e0][o]
    u = d[e0][pi]
    got = (d[e0][pi], e[pi][e0])
    out = []
    if got != (u, o):
        out.append((EULER_IDENTITY, (pi,) + got))
    return out


def exp_hom_failures(d, e, a: int) -> list:
    """exp_a is a box-product homomorphism, checked over all n^4 quadruples
    from the definitions (only for small carriers)."""
    def exp(x, y):
        return (d[a][x], e[y][a])

    def box(p, q):
        return (d[p[0]][q[0]], e[q[1]][p[1]])

    return [(EXP_HOM, w) for w in first_failures(
        lambda x, y, u, v: exp(*box((x, y), (u, v))) == box(exp(x, y), exp(u, v)),
        len(d), 4)]


# ------------------------------------------------------------ Yang-Baxter

def pair_map(d, e, which: str, e0: int):
    """The pair maps of the CLI's ybe command, as plain functions."""
    return {
        "w": lambda x, y: (x, d[x][y]),
        "z": lambda x, y: (e[x][y], y),
        "exp": lambda x, y: (d[e0][x], e[y][e0]),
        "cosh": lambda x, y: (d[e0][x], y),
        "sinh": lambda x, y: (x, e[y][e0]),
    }[which]


def _lift(f, pos):
    if pos == 12:
        return lambda t: f(t[0], t[1]) + (t[2],)
    if pos == 13:
        def act(t):
            a, b = f(t[0], t[2])
            return (a, t[1], b)
        return act
    return lambda t: (t[0],) + f(t[1], t[2])


def word_holds(n: int, lhs, rhs) -> bool:
    """Whether two words of (map, position) factors agree on every triple;
    the rightmost factor acts first."""
    lhs = [_lift(f, p) for f, p in lhs]
    rhs = [_lift(f, p) for f, p in rhs]
    for t in itertools.product(range(n), repeat=3):
        a = b = t
        for g in reversed(lhs):
            a = g(a)
        for g in reversed(rhs):
            b = g(b)
        if a != b:
            return False
    return True


def qybe_holds(n: int, f) -> bool:
    return word_holds(n, [(f, 12), (f, 13), (f, 23)], [(f, 23), (f, 13), (f, 12)])


def system_holds(d, e, e0: int) -> bool:
    """All five equations of the W / exp_e / Z system."""
    n = len(d)
    w, x, z = (pair_map(d, e, m, e0) for m in ("w", "exp", "z"))
    return (qybe_holds(n, w) and qybe_holds(n, x) and qybe_holds(n, z)
            and word_holds(n, [(x, 23), (x, 13), (w, 12)],
                           [(w, 12), (x, 13), (x, 23)])
            and word_holds(n, [(x, 12), (x, 13), (z, 23)],
                           [(z, 23), (x, 13), (x, 12)]))


# ------------------------------------------------------------ census

# Labeled counts and isomorphism-class counts from the known classification.
RACK_COUNTS = {1: (1, 1), 2: (2, 2), 3: (13, 6), 4: (114, 19)}
WEAK_RACK_COUNTS = {1: 1, 2: 45, 3: 13352}


# ------------------------------------------------------------ matrix sums

def mat_mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def brute_sum(a, terms: int):
    """sum_{k=1}^{terms} a^k by multiply-accumulate."""
    total = (0, 0, 0, 0)
    power = (1, 0, 0, 1)
    for _ in range(terms):
        power = mat_mul(power, a)
        total = tuple(s + p for s, p in zip(total, power))
    return tuple(Fraction(v) for v in total)


def shear_sum(level: int):
    """[[1,1],[0,1]]^k = [[1,k],[0,1]]: an arithmetic series."""
    m = 3 ** level
    return tuple(Fraction(v) for v in (m, m * (m + 1) // 2, 0, m))


def diagonal_sum(level: int):
    """diag(2, 1/2)^k = diag(2^k, 2^-k): two geometric series."""
    m = 3 ** level
    return (Fraction(2 ** (m + 1) - 2), Fraction(0), Fraction(0),
            1 - Fraction(1, 2 ** m))


def trace_factors(t0, level: int) -> list:
    """tr(A^(3^j)) + 1 for j < level from tr(A^3) = tr(A)^3 - 3 tr(A),
    which holds for every determinant-1 2x2 matrix."""
    out, t = [], t0
    for _ in range(level):
        out.append(t + 1)
        t = t ** 3 - 3 * t
    return out

