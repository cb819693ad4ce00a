"""The runtime needs only the standard library and reads no environment.

Every lkconvex module is imported in a fresh isolated interpreter
(python -I -S: no PYTHONPATH, no user site, and no site module, so no
site-packages and none of their .pth start-up hooks), and every top-level
module that ends up loaded must be part of the standard library or
lkconvex itself.  No module names os.environ or os.getenv, so every
setting of a run is on its command line.  Only geometry names the oracle's
lane tables.  The package holds exactly the modules listed here and
exports exactly the names listed here, each read by the package itself,
a demo or the benchmark, except parse_graph.
"""

from __future__ import annotations

import ast
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import lkconvex

SCRIPT = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    importlib.import_module(name)
loaded = {m.split(".")[0] for m in sys.modules}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"__main__"})))
"""


def test_package_imports_only_the_standard_library():
    src = str(Path(lkconvex.__file__).parent.parent)
    names = ["lkconvex"] + [
        f"lkconvex.{m.name}" for m in pkgutil.iter_modules(lkconvex.__path__)
    ]
    assert "lkconvex.cli" in names and "lkconvex.convexity" in names
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", SCRIPT, src, *names],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(proc.stdout) == ["lkconvex"]


ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def _names(path: Path):
    """(name, line) for every name, attribute and imported name in a module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def _package_modules() -> list[Path]:
    return sorted(Path(lkconvex.__file__).parent.rglob("*.py"))


def test_package_reads_no_environment():
    found = [
        f"{path.name}:{line}: {name}"
        for path in _package_modules()
        for name, line in _names(path)
        if name in ENV_READERS
    ]
    assert found == []


def test_one_module_knows_the_lane_tables():
    # The oracle's tables, their 32-bit lane layout and the reversed ids they
    # index belong to geometry.
    found = [
        f"{path.name}:{line}: {name}"
        for path in _package_modules()
        if path.name != "geometry.py"
        for name, line in _names(path)
        if name in ("span_table", "scan_convex", "_lanes", "reverse_bits")
    ]
    assert found == []


MODULES = [
    "chordal", "cli", "convexity", "formats", "generators", "geometry", "graph",
    "recognizers",
]


def test_module_list_is_pinned():
    # Adding or dropping a module is an edit to this list.
    assert sorted(m.name for m in pkgutil.iter_modules(lkconvex.__path__)) == MODULES


PUBLIC = [
    "ChordalityResult", "FarPair", "FormatError", "GemWitness", "GeometryVerdict",
    "Graph", "GraphError", "HoleWitness", "HullTrace", "InducedPath",
    "InducedSubgraph", "MkmViolation", "NotConvexError", "ParsedGraph",
    "RecognitionVerdict", "SizeCapError", "certificate_holds", "certificate_json",
    "distance", "enumerate_gems", "extreme_points", "format_graph",
    "format_vertex_set", "hull", "induced_paths_between", "induced_subgraph",
    "interval", "interval_of_set", "is_chordal", "is_connected", "is_convex",
    "lex_bfs", "load_graph", "mkm_check_set", "necessary_conditions", "parse_graph",
    "recognize_l2", "recognize_l3", "solved_gems", "verify_geometry",
]


def test_public_surface_is_pinned():
    # Adding or dropping an export is an edit to this list.
    assert sorted(lkconvex.__all__) == PUBLIC
    assert all(hasattr(lkconvex, name) for name in PUBLIC)


def test_every_public_name_has_a_reader():
    # An export that only tests read is retired with its own code path.  The
    # one exception, parse_graph, is load_graph's in-memory twin.
    root = Path(__file__).resolve().parent.parent
    readers = [p for p in _package_modules() if p.name != "__init__.py"]
    readers += sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    read = {name for path in readers for name, _ in _names(path)}
    assert sorted(set(lkconvex.__all__) - read) == ["parse_graph"]
