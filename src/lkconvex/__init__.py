"""Convexity over short induced paths on finite graphs.

The interval of a vertex pair collects the vertices on induced paths of
length at most k between them; iterating that operator gives hulls, convex
sets, and extreme points.  The package provides those operators, an
exhaustive convex-geometry oracle, certificate-producing recognizers for
the k=2 and k=3 geometry classes, instance generators, and a CLI.
"""

from .chordal import ChordalityResult, is_chordal, lex_bfs
from .convexity import (
    HullTrace,
    NotConvexError,
    extreme_points,
    hull,
    interval,
    interval_of_set,
    is_convex,
)
from .formats import (
    FormatError,
    ParsedGraph,
    format_graph,
    format_vertex_set,
    load_graph,
    parse_graph,
)
from .geometry import (
    GeometryVerdict,
    MkmViolation,
    SizeCapError,
    mkm_check_set,
    verify_geometry,
)
from .graph import (
    Graph,
    GraphError,
    HoleWitness,
    InducedPath,
    InducedSubgraph,
    distance,
    induced_paths_between,
    induced_subgraph,
    is_connected,
)
from .recognizers import (
    FarPair,
    GemWitness,
    RecognitionVerdict,
    certificate_holds,
    certificate_json,
    enumerate_gems,
    necessary_conditions,
    recognize_l2,
    recognize_l3,
    solved_gems,
)

__version__ = "0.1.0"

__all__ = [
    "ChordalityResult",
    "FarPair",
    "FormatError",
    "GemWitness",
    "GeometryVerdict",
    "Graph",
    "GraphError",
    "HoleWitness",
    "HullTrace",
    "InducedPath",
    "InducedSubgraph",
    "MkmViolation",
    "NotConvexError",
    "ParsedGraph",
    "RecognitionVerdict",
    "SizeCapError",
    "certificate_holds",
    "certificate_json",
    "distance",
    "enumerate_gems",
    "extreme_points",
    "format_graph",
    "format_vertex_set",
    "hull",
    "induced_paths_between",
    "induced_subgraph",
    "interval",
    "interval_of_set",
    "is_chordal",
    "is_connected",
    "is_convex",
    "lex_bfs",
    "load_graph",
    "mkm_check_set",
    "necessary_conditions",
    "parse_graph",
    "recognize_l2",
    "recognize_l3",
    "solved_gems",
    "verify_geometry",
]
