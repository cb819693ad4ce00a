"""Convexity over short induced paths on finite graphs.

The interval of a vertex pair collects the vertices on induced paths of
length at most k between them; iterating that operator gives hulls, convex
sets, and extreme points.  The package provides those operators, an
exhaustive convex-geometry oracle, certificate-producing recognizers for
the k=2 and k=3 geometry classes, instance generators, and a CLI.
"""

from .chordal import ChordalityResult, is_chordal, is_elimination_ordering, lex_bfs
from .convexity import (
    DEFAULT_ENUMERATION_CAP,
    HullTrace,
    NotConvexError,
    SizeCapError,
    enumerate_convex_sets,
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
    MkmCheck,
    MkmViolation,
    mkm_check_set,
    verify_geometry,
)
from .graph import (
    Graph,
    GraphError,
    HoleWitness,
    InducedPath,
    InducedSubgraph,
    bfs_distances,
    contains_induced_path,
    diameter,
    distance,
    induced_paths_between,
    induced_subgraph,
    is_connected,
    simplicial_vertices,
)
from .recognizers import (
    FarPair,
    GemWitness,
    RecognitionVerdict,
    certificate_holds,
    certificate_json,
    enumerate_gems,
    is_gem_solved,
    necessary_conditions,
    recognize_l2,
    recognize_l3,
)

__version__ = "0.1.0"

__all__ = [
    "ChordalityResult",
    "DEFAULT_ENUMERATION_CAP",
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
    "MkmCheck",
    "MkmViolation",
    "NotConvexError",
    "ParsedGraph",
    "RecognitionVerdict",
    "SizeCapError",
    "bfs_distances",
    "certificate_holds",
    "certificate_json",
    "contains_induced_path",
    "diameter",
    "distance",
    "enumerate_convex_sets",
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
    "is_elimination_ordering",
    "is_gem_solved",
    "lex_bfs",
    "load_graph",
    "mkm_check_set",
    "necessary_conditions",
    "parse_graph",
    "recognize_l2",
    "recognize_l3",
    "simplicial_vertices",
    "verify_geometry",
]
