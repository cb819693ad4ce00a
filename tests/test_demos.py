"""Run the demo scripts in-process and pin what they print.

The demos walk intervals, hulls, recognizer certificates and the oracle
cross-check end to end, so their output also pins the order in which
induced paths and gems are found.  Demo 03 ends with a timing line, which
is dropped before comparing.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

EXPECTED = {
    "01_intervals_and_hulls": """\
graph: 7 vertices, 11 edges
edges: [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)]

pair intervals with the length bound k=3:
  I[0,6] = 0,1,4,6
  I[0,4] = 0,1,2,3,4
  I[3,4] = 3,4

one interval-operator step on {0, 6}: 0,1,4,6
hull of {0, 6} reaches the fixed point in 2 steps:
  iterate 0: 0,6
  iterate 1: 0,1,4,6
  iterate 2: 0,1,2,3,4,5,6

the whole vertex set is convex; its extreme points are the two ends:
  extremes: 0,6

a tighter convex set and its extremes:
  1,2,3,4 convex: True; extremes: 2,4

k=2 tells a different story: the interval of (0, 6) is just the pair,
  I[0,6] at k=2 = 0,6 (no induced path that short)
""",
    "02_recognizers_and_certificates": """\
== triangle strip (7 vertices) ==
  k=2: rejected [p4]
    induced P4 (0, 1, 3, 5) revalidates: True
  k=3: accepted

== 6-cycle (6 vertices) ==
  k=2: rejected [hole]
    hole (0, 1, 2, 3, 4, 5) revalidates: True
  k=3: rejected [hole]
    hole (0, 1, 2, 3, 4, 5) revalidates: True

== path on 6 (6 vertices) ==
  k=2: rejected [p4]
    induced P4 (0, 1, 2, 3) revalidates: True
  k=3: rejected [far_pair]
    far pair (0,4) at distance 4 revalidates: True

== gem(4) (6 vertices) ==
  k=2: rejected [p4]
    induced P4 (0, 1, 2, 3) revalidates: True
  k=3: rejected [unsolved_gem]
    unsolved gem base=(0, 1, 2, 3, 4) apex=5 revalidates: True

== gem(3) (5 vertices) ==
  k=2: rejected [p4]
    induced P4 (0, 1, 2, 3) revalidates: True
  k=3: accepted

== star on 7 (7 vertices) ==
  k=2: accepted
  k=3: accepted

== random trivially perfect (8 vertices) ==
  k=2: accepted
  k=3: accepted

""",
    "03_oracle_crosscheck": """\
exhaustive sweep: 772 connected graphs with n <= 5
  accepted at k=2: 210, at k=3: 522
  recognizer vs oracle mismatches: 0

random chordal sweep: 60 instances, 0 mismatches
""",
    "04_non_hereditary": """\
base strip: recognizer accepts=True, oracle accepts=True
  distance between the ends 0 and 6: 3

delete vertex 1: recognizer accepts=False, oracle accepts=False
  rejection certificate: FarPair(u=0, v=5, distance=4)
  ends now sit at distance 4
  extreme points of the whole graph (original ids): 0,6
  hull of those extremes: 0,6 in 0 steps: the rest is unreachable

delete vertex 4: recognizer accepts=False, oracle accepts=False
  rejection certificate: FarPair(u=0, v=5, distance=4)
  ends now sit at distance 4
  extreme points of the whole graph (original ids): 0,6
  hull of those extremes: 0,6 in 0 steps: the rest is unreachable

delete vertex 2: recognizer accepts=True, oracle accepts=True
  the property survived this deletion

""",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_output(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    if name.startswith("03"):
        lines = out.splitlines(keepends=True)
        assert lines[-1].startswith("done in ")
        out = "".join(lines[:-1])
    assert out == EXPECTED[name]
