"""Cross-validate the structural recognizers against the exhaustive oracle.

The oracle enumerates every subset, keeps the convex ones, and insists each
equals the hull of its extreme points.  It is exponential and trusted; the
recognizers are fast and checked against it here on every connected graph
with up to five vertices plus a seeded random chordal ensemble.
"""

from __future__ import annotations

import time

from lkconvex import generators, recognize_l2, recognize_l3, verify_geometry

t0 = time.perf_counter()
total = 0
mismatches = 0
accepted = {2: 0, 3: 0}
for n in range(1, 6):
    for g in generators.all_connected_graphs(n):
        total += 1
        for k, recognize in ((2, recognize_l2), (3, recognize_l3)):
            fast = recognize(g).accepted
            slow = verify_geometry(g, k).is_geometry
            accepted[k] += fast
            if fast != slow:
                mismatches += 1
                print(f"MISMATCH k={k}: {g.edges()}")
print(f"exhaustive sweep: {total} connected graphs with n <= 5")
print(f"  accepted at k=2: {accepted[2]}, at k=3: {accepted[3]}")
print(f"  recognizer vs oracle mismatches: {mismatches}")
print()

random_total = 0
random_mismatches = 0
for i in range(60):
    g = generators.random_connected_chordal(4 + i % 7, (i % 5) / 5, seed=i)
    random_total += 1
    if recognize_l3(g).accepted != verify_geometry(g, 3).is_geometry:
        random_mismatches += 1
        print(f"MISMATCH on seeded instance {i}: {g.edges()}")
print(f"random chordal sweep: {random_total} instances, "
      f"{random_mismatches} mismatches")
print(f"done in {time.perf_counter() - t0:.2f}s")
