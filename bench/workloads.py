"""The benchmark's workloads: fixed job lists built from a seed.

A job is one call into rackwork whose result is a verdict.  Its expected
answer comes from bench/oracle.py or from a mathematical fact named next to
it, never from rackwork, and is computed lazily after the job's first timed
call so that it costs neither set-up nor verdict time.  Jobs run in list
order; later jobs may use what earlier jobs of the same round built.

Building a job list is the workload's set-up: it imports what the jobs call
and builds their fixtures (group tables, random tables, structure files).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import oracle


class Job:
    """One timed call.  `run` is the measured call; `traced` replays the
    same request in-process for the traced run (by default the same call).
    `view` turns the result into plain data that must equal `expected`."""

    def __init__(self, name, run, expect, view, traced=None):
        self.name = name
        self.run = run
        self.traced = traced or run
        self._expect = expect
        self.view = view

    @functools.cached_property
    def expected(self):
        return self._expect()


def _transpose(t):
    return [list(col) for col in zip(*t)]


def _structure_view(s):
    return (s.kind, s.dot.entries.tolist(), s.diamond.entries.tolist())


def _axiom_view(rep):
    return (bool(rep.passed),
            [(name, tuple(int(v) for v in w)) for name, w in rep.failures])


def _expected_axioms(failures):
    return (not failures, failures)


PASS = (True, [])


def _trig_view(rep):
    return {p.name: (bool(p.passed), [tuple(int(v) for v in w) for w in p.witnesses],
                     bool(p.rack_only))
            for p in rep.properties}


def _expected_trig(d, e, e0, o, weak):
    return {name: (not wits, wits, weak and name in oracle.RACK_ONLY)
            for name, wits in oracle.trig_expectation(d, e, e0, o).items()}


def _system_view(rep):
    return [(name, _axiom_view(r)) for name, r in rep.named()]


SYSTEM_PASS = [(name, PASS) for name in
               ("qybe_W", "qybe_X", "qybe_Z", "mixed_WXX", "mixed_XXZ")]


def scan_large(seed: int, small: bool, workdir: str) -> list[Job]:
    """Library checks at the sizes the roadmap names: conj(S5) on 120
    points, Boolean weak racks on 256 points, and a random table pair on
    256 points whose axiom scans fail almost everywhere."""
    import numpy as np
    import rackwork as rw

    k_group, k_bool, n_rand = (4, 4, 16) if small else (5, 8, 128)
    rnd = random.Random(seed)
    mul, identity, inv = oracle.symmetric_group(k_group)
    n = len(mul)
    table = rw.make_op_table(n, [v for row in mul for v in row])
    nb = 1 << k_bool
    e_s, o_s, e_b, o_b = (rnd.randrange(n), rnd.randrange(n),
                          rnd.randrange(nb), rnd.randrange(nb))
    gen = np.random.default_rng(seed)
    rand_dot = gen.integers(0, n_rand, (n_rand, n_rand))
    rand_diamond = gen.integers(0, n_rand, (n_rand, n_rand))

    conj = functools.cache(lambda: oracle.conjugation_tables(mul, inv))
    boolean = functools.cache(lambda: oracle.boolean_implication_tables(k_bool))
    rand = functools.cache(lambda: (rand_dot.tolist(), rand_diamond.tolist()))
    st = {}

    def keep(key, fn):
        def run():
            st[key] = fn()
            return st[key]
        return run

    def lattice_expected():
        dot = oracle.boolean_lattice_dot(k_bool)
        return ("weak_rack", dot, [[a & b for b in range(nb)] for a in range(nb)])

    return [
        # conj(S5): a rack, so every axiom, trig property and Euler clause
        # holds, exp_e is a box-product homomorphism (left and right
        # self-distributivity), and the Yang-Baxter system holds (see README).
        Job("s5.validate_group", keep("g", lambda: rw.validate_group(table)),
            lambda: (identity, inv), lambda g: (int(g.identity), g.inv.tolist())),
        Job("s5.conjugation_rack", keep("conj", lambda: rw.conjugation_rack(st["g"])),
            lambda: ("rack",) + conj(), _structure_view),
        Job("s5.dual_rack", lambda: rw.dual_rack(st["conj"]),
            lambda: ("rack", _transpose(conj()[1]), _transpose(conj()[0])),
            _structure_view),
        Job("s5.check_rack_axioms", lambda: rw.check_rack_axioms(st["conj"]),
            lambda: PASS, _axiom_view),
        Job("s5.check_trig_properties",
            lambda: rw.check_trig_properties(rw.make_trig_context(st["conj"], e_s, o_s)),
            lambda: _expected_trig(*conj(), e_s, o_s, False), _trig_view),
        Job("s5.check_euler_formula",
            lambda: rw.check_euler_formula(rw.make_trig_context(st["conj"], e_s, o_s)),
            lambda: _expected_axioms(oracle.euler_failures(*conj(), e_s, o_s)),
            _axiom_view),
        Job("s5.check_hyperbolic_factorization",
            lambda: rw.check_hyperbolic_factorization(
                rw.make_trig_context(st["conj"], e_s, o_s)),
            lambda: True, bool),
        Job("s5.check_exp_homomorphism",
            lambda: rw.check_exp_homomorphism(st["conj"], e_s), lambda: PASS, _axiom_view),
        Job("s5.check_yb_system", lambda: rw.check_yb_system(st["conj"], e_s),
            lambda: SYSTEM_PASS, _system_view),
        # Boolean implication: a weak rack, so both self-distributivities
        # hold; cancellation fails and is witnessed by the plain scan.
        Job("bool.build", keep("bool", lambda: rw.boolean_weak_rack_implication(k_bool)),
            lambda: ("weak_rack",) + boolean(), _structure_view),
        Job("bool.check_weak_rack_axioms", lambda: rw.check_weak_rack_axioms(st["bool"]),
            lambda: PASS, _axiom_view),
        Job("bool.check_rack_axioms", lambda: rw.check_rack_axioms(st["bool"]),
            lambda: _expected_axioms(oracle.axiom_failures(
                *boolean(), oracle.RACK_AXIOMS,
                known_to_hold=(oracle.LEFT_DISTRIB, oracle.RIGHT_DISTRIB))),
            _axiom_view),
        Job("bool.check_trig_properties",
            lambda: rw.check_trig_properties(rw.make_trig_context(st["bool"], e_b, o_b)),
            lambda: _expected_trig(*boolean(), e_b, o_b, True), _trig_view),
        Job("bool.check_euler_formula",
            lambda: rw.check_euler_formula(rw.make_trig_context(st["bool"], e_b, o_b)),
            lambda: _expected_axioms(oracle.euler_failures(*boolean(), e_b, o_b)),
            _axiom_view),
        Job("bool.check_exp_homomorphism",
            lambda: rw.check_exp_homomorphism(st["bool"], e_b), lambda: PASS, _axiom_view),
        Job("bool.w_map", keep("w", lambda: rw.w_map(st["bool"])),
            lambda: [[x, boolean()[0][x][y]] for x in range(nb) for y in range(nb)],
            lambda f: f.out.tolist()),
        # QYBE(W) holds iff the dot table is left self-distributive.
        Job("bool.check_qybe_w", lambda: rw.check_qybe(st["w"]), lambda: PASS, _axiom_view),
        Job("lattice.build", lambda: rw.boolean_weak_rack_lattice(k_bool),
            lattice_expected, _structure_view),
        Job("random.make_structure",
            keep("rand", lambda: rw.make_structure(rw.OpTable(n_rand, rand_dot),
                                                   rw.OpTable(n_rand, rand_diamond))),
            lambda: ("unchecked",) + rand(), _structure_view),
        Job("random.check_rack_axioms", lambda: rw.check_rack_axioms(st["rand"]),
            lambda: _expected_axioms(oracle.axiom_failures(*rand(), oracle.RACK_AXIOMS)),
            _axiom_view),
        Job("random.check_weak_rack_axioms",
            lambda: rw.check_weak_rack_axioms(st["rand"]),
            lambda: _expected_axioms(oracle.axiom_failures(*rand(), oracle.WEAK_AXIOMS)),
            _axiom_view),
    ]


def census(seed: int, small: bool, workdir: str) -> list[Job]:
    """Complete enumeration on tiny carriers; there are no random inputs,
    so the seed is unused."""
    import rackwork as rw

    racks, weak = (3, 2) if small else (4, 3)
    # rw.<name> is looked up at call time so that the traced run sees the
    # wrapped function
    jobs = [Job(f"racks.{n}", lambda n=n: rw.enumerate_racks(n),
                lambda n=n: oracle.RACK_COUNTS[n], lambda r: (r.count, r.iso_count))
            for n in range(1, racks + 1)]
    jobs += [Job(f"weak.{n}", lambda n=n: rw.enumerate_weak_racks(n),
                 lambda n=n: oracle.WEAK_RACK_COUNTS[n], lambda r: r.count)
             for n in range(1, weak + 1)]
    return jobs


SWEEP_MATRICES = 20
SWEEP_LEVELS = range(1, 7)   # 3^6 = 729 terms, the oracle's range


def _det_one_power_view(r):
    """det(closed form) = scalar^2 iff the power matrix has determinant 1."""
    a, b, c, d = r.closed_form.entries()
    scalar = 1
    for f in r.factors:
        scalar *= f
    return (list(r.factors), r.power_exponent, a * d - b * c == scalar * scalar)


def series(seed: int, small: bool, workdir: str) -> list[Job]:
    """trace_product_sum on three fixed matrices whose entries grow at
    different rates, then a seeded sweep checked against a brute-force sum.
    The seed picks only the sweep matrices: random matrices at the top level
    cost from milliseconds to seconds."""
    import rackwork as rw

    level = 6 if small else 12
    count = 3 if small else SWEEP_MATRICES
    exponent = (3 ** level + 1) // 2
    shear, diagonal, growing = (rw.mat2(1, 1, 0, 1), rw.mat2(2, 0, 0, "1/2"),
                                rw.mat2(1, -2, -1, 3))
    sweep = [rw.random_unimodular(seed * 1000 + i, 3, 2) for i in range(count)]

    def sums_view(r):
        return (r.closed_form.entries(), list(r.factors), r.power_exponent)

    def sweep_job(i, m):
        def run():
            return [rw.trace_product_sum(m, lv, with_oracle=True) for lv in SWEEP_LEVELS]

        def expect():
            ints = tuple(v.numerator for v in m.entries())   # shears of integers
            out = []
            for lv in SWEEP_LEVELS:
                total = oracle.brute_sum(ints, 3 ** lv)
                out.append((total, total, True))
            return out

        return Job(f"sweep.{i}", run, expect,
                   lambda rs: [(r.closed_form.entries(), r.oracle.entries(),
                                r.oracle_matches) for r in rs])

    return [
        Job("shear", lambda: rw.trace_product_sum(shear, level),
            lambda: (oracle.shear_sum(level), [3] * level, exponent), sums_view),
        Job("diagonal", lambda: rw.trace_product_sum(diagonal, level),
            lambda: (oracle.diagonal_sum(level),
                     oracle.trace_factors(Fraction(5, 2), level), exponent),
            sums_view),
        Job("growing", lambda: rw.trace_product_sum(growing, level),
            lambda: (oracle.trace_factors(4, level), exponent, True),
            _det_one_power_view),
    ] + [sweep_job(i, m) for i, m in enumerate(sweep)]


# ------------------------------------------------------------ cli_small

def _structure_text(kind, dot, diamond) -> str:
    """A structure file in the canonical layout: one table row per line."""
    n = len(dot)
    rows = {key: ",\n".join(f"    {json.dumps(r)}" for r in t)
            for key, t in (("dot", dot), ("diamond", diamond))}
    return (f'{{\n  "kind": {json.dumps(kind)},\n  "n": {n},\n'
            f'  "dot": [\n{rows["dot"]}\n  ],\n'
            f'  "diamond": [\n{rows["diamond"]}\n  ]\n}}\n')


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cli_subprocess(argv):
    proc = subprocess.run([sys.executable, "-m", "rackwork.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    return proc.returncode, proc.stdout


def _cli_in_process(argv):
    from rackwork import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _exit_code(failures) -> int:
    return 1 if failures else 0


def _trig_code(d, e, e0, o) -> int:
    return _exit_code([w for ws in oracle.trig_expectation(d, e, e0, o).values()
                       for w in ws])


def _euler_code(d, e, e0, o) -> int:
    # the hyperbolic factorization holds by definition
    return _exit_code(oracle.euler_failures(d, e, e0, o)
                      + oracle.exp_hom_failures(d, e, e0))


def _ybe_code(d, e, which, e0) -> int:
    return 0 if oracle.qybe_holds(len(d), oracle.pair_map(d, e, which, e0)) else 1


def _system_code(d, e, e0) -> int:
    return 0 if oracle.system_holds(d, e, e0) else 1


def cli_small(seed: int, small: bool, workdir: str) -> list[Job]:
    """Sequential `python -m rackwork.cli` processes on small files: one
    client in a closed loop, each request started when the last returned.
    Set-up writes the input files in plain Python and imports nothing from
    rackwork."""
    k_big = 4 if small else 8
    rnd = random.Random(seed)
    e_c, o_c, e_b, o_b = (rnd.randrange(6), rnd.randrange(6),
                          rnd.randrange(8), rnd.randrange(8))
    e_big, o_big = rnd.randrange(1 << k_big), rnd.randrange(1 << k_big)

    def path(name):
        return os.path.join(workdir, name)

    mul, _, inv = oracle.symmetric_group(3)
    conj = oracle.conjugation_tables(mul, inv)
    boolean = oracle.boolean_implication_tables(3)
    big = oracle.boolean_implication_tables(k_big)
    broken = ([row[:] for row in conj[0]], conj[1])
    broken[0][0][0], broken[0][0][1] = broken[0][0][1], broken[0][0][0]
    conj_text = _structure_text("rack", *conj)
    _write(path("s3.json"), json.dumps({"n": 6, "mul": mul}))
    _write(path("big.json"), _structure_text("weak_rack", *big))
    _write(path("broken.json"), _structure_text("rack", *broken))
    _write(path("truncated.json"), conj_text[:100])

    files = {"conj": (conj, e_c, o_c), "bool": (boolean, e_b, o_b)}
    jobs = []

    def add(argv, expect, view=lambda r: r[0]):
        argv = [str(a) for a in argv]
        name = " ".join(os.path.basename(a) for a in argv if not a.startswith("--"))
        jobs.append(Job(name, functools.partial(_cli_subprocess, argv),
                        expect, view, functools.partial(_cli_in_process, argv)))

    def zero():
        return 0

    # constructions of racks and weak racks verify and exit 0
    add(["make", "trivial", "--n", 4, "--out", path("trivial.json")], zero)
    add(["make", "conj", "--group", path("s3.json"), "--out", path("conj.json")], zero)
    add(["make", "boolean", "--atoms", 3, "--variant", "implication",
         "--out", path("bool.json")], zero)
    add(["make", "dual", path("conj.json"), "--out", path("dual.json")], zero)
    add(["make", "trig-derived", path("conj.json"), "--e", e_c, "--o", o_c,
         "--out", path("derived.json")], zero)
    add(["make", "product-dual", path("conj.json"), "--out", path("product.json")], zero)
    for name in ("conj", "bool", "dual", "product"):
        add(["check", path(f"{name}.json")], zero)
    for name, ((d, e), e0, o) in files.items():
        file = path(f"{name}.json")
        add(["trig", file, "--e", e0, "--o", o], functools.partial(_trig_code, d, e, e0, o))
        add(["euler", file, "--e", e0, "--o", o],
            functools.partial(_euler_code, d, e, e0, o))
        for which in ("exp", "cosh", "sinh", "w", "z"):
            add(["ybe", file, "--map", which, "--e", e0],
                functools.partial(_ybe_code, d, e, which, e0))
        add(["system", file, "--e", e0], functools.partial(_system_code, d, e, e0))
    add(["trig", path("big.json"), "--e", e_big, "--o", o_big],
        functools.partial(_trig_code, *big, e_big, o_big))
    for a, level in (((1, 1, 0, 1), 2), ((2, 0, 0, "1/2"), 3), ((1, -2, -1, 3), 4)):
        entries = tuple(Fraction(v) for v in a)
        add(["mat", "--a", ",".join(map(str, a)), "--n", level, "--brute", "--json"],
            functools.partial(lambda m, lv: (0, oracle.brute_sum(m, 3 ** lv)),
                              entries, level),
            lambda r: (r[0], tuple(Fraction(v) for row in
                                   json.loads(r[1])["data"]["closed_form"] for v in row)))
    add(["enum", "--n", 3, "--json"], lambda: (0, oracle.RACK_COUNTS[3]),
        lambda r: (r[0], (json.loads(r[1])["data"]["racks"],
                          json.loads(r[1])["data"]["isomorphism classes"])))
    add(["check", path("broken.json")],
        lambda: _exit_code(oracle.axiom_failures(*broken, oracle.RACK_AXIOMS)))
    add(["check", path("truncated.json")], lambda: 2)   # unusable input
    return jobs


WORKLOADS = {
    "scan_large": scan_large,
    "census": census,
    "cli_small": cli_small,
    "series": series,
}
