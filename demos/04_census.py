#!/usr/bin/env python3
"""A complete census of tiny racks and weak racks.

The enumerator searches every dot table whose rows are permutations (the
cancellation axioms force that), prunes on left self-distributivity while
rows are being chosen, derives the companion operation, and verifies
every candidate through the axiom checkers' own law lists, a stack of
tables at a time; the result holds the verified tables as stacks.  Weak
racks drop cancellation, so there the search runs over both tables.  The
isomorphism classes are counted by Burnside's lemma over the complete
labeled census.
"""

import time

import rackwork as rw

print("== racks on 1..4 points ==")
print(f"{'n':>2} {'labeled tables':>15} {'isomorphism classes':>21}")
for n in range(1, 5):
    t0 = time.perf_counter()
    res = rw.enumerate_racks(n)
    dt = (time.perf_counter() - t0) * 1000
    print(f"{n:>2} {res.count:>15} {res.iso_count:>21}   ({dt:.1f} ms)")
print("class counts 1, 2, 6, 19 match the known classification of racks")
print("on up to four points; the labeled counts expand each class by its")
print("orbit under relabeling (e.g. 19 classes -> 114 tables at n = 4).")

print("\n== the two racks on two points ==")
res = rw.enumerate_racks(2)
for dot, diamond in zip(res.dots, res.diamonds):
    print(f"  dot = {dot.tolist()}  diamond = {diamond.tolist()}")
print("the first is the trivial rack ab = b; the second is ab = 1 - b.")

print("\n== weak racks: cancellation dropped ==")
for n in (1, 2, 3):
    t0 = time.perf_counter()
    res = rw.enumerate_weak_racks(n)
    dt = (time.perf_counter() - t0) * 1000
    print(f"  n = {n}: {res.count} labeled pairs, "
          f"{res.iso_count} classes   ({dt:.0f} ms)")

print("\nthe Boolean examples really are members of the n = 2 census:")
res = rw.enumerate_weak_racks(2)
keys = {(tuple(map(tuple, d.tolist())), tuple(map(tuple, e.tolist())))
        for d, e in zip(res.dots, res.diamonds)}
for title, s in (
    ("implication / difference", rw.boolean_weak_rack_implication(1)),
    ("join / meet", rw.boolean_weak_rack_lattice(1)),
    ("trivial rack", rw.trivial_rack(2)),
):
    key = (tuple(map(tuple, s.dot.tolist())),
           tuple(map(tuple, s.diamond.tolist())))
    print(f"  {title}: {'found' if key in keys else 'MISSING'}")
