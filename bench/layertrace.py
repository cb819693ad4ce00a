"""Per-layer tracing for the traced run.

Wrappers are installed around the program's public entry points, at the
names where their callers look them up (``recognizers.is_chordal`` is the
name ``recognize_l3`` calls, ``cli.load_graph`` the one the commands
call).  Each wrapper opens a span with its name, start, end, parent span
and operation id, and a span's self time is its duration minus the time
its child spans cover.  Self times are summed per reference window so the
workload can normalise them like every other time.  Counters are kept at
the same boundaries.  A target that no longer exists is reported as
absent instead of failing the run.  Wrappers return what the wrapped
function returned, unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# Spans kept for the trace file; self times and counts cover all of them.
MAX_KEPT_SPANS = 50_000

# (module, attribute, span name).  An attribute "Class.method" wraps a method.
CALL_TARGETS = [
    ("lkconvex.cli", "main", "cli"),
    ("lkconvex.cli", "load_graph", "formats.parse"),
    ("lkconvex.cli", "recognize_l2", "recognizers.recognize"),
    ("lkconvex.cli", "recognize_l3", "recognizers.recognize"),
    ("lkconvex.recognizers", "recognize_l2", "recognizers.recognize"),
    ("lkconvex.recognizers", "recognize_l3", "recognizers.recognize"),
    ("lkconvex.recognizers", "is_chordal", "chordal.is_chordal"),
    ("lkconvex.chordal", "find_hole", "chordal.find_hole"),
    ("lkconvex.recognizers", "bfs_distances", "recognizers.far_pair"),
    ("lkconvex.recognizers", "contains_induced_path", "recognizers.p4_search"),
    ("lkconvex.recognizers", "is_gem_solved", "recognizers.gem_solve"),
    ("lkconvex.cli", "is_gem_solved", "recognizers.gem_solve"),
    ("lkconvex.cli", "interval", "convexity.interval"),
    ("lkconvex.cli", "hull", "convexity.hull"),
    ("lkconvex.cli", "extreme_points", "convexity.extremes"),
    ("lkconvex.convexity", "_interval_mask", "convexity.interval_fill"),
    ("lkconvex.convexity", "IntervalCache.violation", "convexity.violation"),
    ("lkconvex.geometry", "verify_geometry", "geometry.oracle"),
    ("lkconvex.geometry", "_reconstructs", "geometry.reconstruct"),
]
GEN_TARGETS = [
    ("lkconvex.recognizers", "enumerate_gems", "recognizers.gem_enum"),
    ("lkconvex.cli", "enumerate_gems", "recognizers.gem_enum"),
]
COUNT_TARGETS = [
    ("lkconvex.convexity", "IntervalCache.pair_mask", "pair_mask_calls"),
]

# per-layer time metric -> the span whose self time it reports
TIME_METRICS = {
    "formats.parse_ms": "formats.parse",
    "cli.self_ms": "cli",
    "chordal.is_chordal_ms": "chordal.is_chordal",
    "chordal.find_hole_ms": "chordal.find_hole",
    "recognizers.far_pair_ms": "recognizers.far_pair",
    "recognizers.p4_search_ms": "recognizers.p4_search",
    "recognizers.gem_enum_ms": "recognizers.gem_enum",
    "recognizers.gem_solve_ms": "recognizers.gem_solve",
    "convexity.interval_fill_ms": "convexity.interval_fill",
    "convexity.hull_ms": "convexity.hull",
    "convexity.extremes_ms": "convexity.extremes",
    "convexity.violation_ms": "convexity.violation",
    "geometry.oracle_ms": "geometry.oracle",
    "geometry.reconstruct_ms": "geometry.reconstruct",
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, child time, span id]
        self.window: dict[str, float] = defaultdict(float)
        self.windows: list[dict[str, float]] = []
        self.counts: Counter = Counter()
        self.kept: list[tuple] = []
        self.dropped = 0
        self.op = 0
        self.next_id = 0
        self.absent: list[str] = []
        self._triples: set = set()

    # --- spans --------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.next_id += 1
        self.stack.append([name, time.perf_counter(), 0.0, self.next_id])

    def leave(self) -> None:
        end = time.perf_counter()
        name, start, child, sid = self.stack.pop()
        dur = end - start
        self.window[name] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.kept) < MAX_KEPT_SPANS:
            self.kept.append((sid, name, start, end, parent[3] if parent else 0, self.op))
        else:
            self.dropped += 1

    def parent_name(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    # --- operations and windows ---------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._triples = set()

    def end_op(self) -> None:
        self.counts["gem_triples"] += len(self._triples)

    def close_window(self) -> None:
        """Start a new reference window; self times are summed per window."""
        self.windows.append(dict(self.window))
        self.window = defaultdict(float)

    # --- wrappers -----------------------------------------------------------

    def _wrap_call(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "convexity.violation":
                tracer.counts["violation_calls"] += 1
                if tracer.parent_name() == "geometry.oracle":
                    tracer.counts["subsets_scanned"] += 1
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            tracer._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        c = self.counts
        if name == "convexity.interval_fill":
            c["intervals_computed"] += 1
        elif name == "recognizers.gem_solve":
            c["gem_solve_calls"] += 1
        elif name == "convexity.hull":
            c["hull_steps"] += result.steps
        elif name == "geometry.reconstruct":
            c["convex_sets"] += 1

    def _wrap_gen(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.leave()
                tracer.counts["gems_enumerated"] += 1
                base = item.base.vertices
                tracer._triples.add((base[0], base[-1], item.apex))
                yield item

        return wrapper

    def _wrap_count(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> list:
        """Install every wrapper; returns what to restore afterwards."""
        undo = []
        plans = [(t, self._wrap_call) for t in CALL_TARGETS]
        plans += [(t, self._wrap_gen) for t in GEN_TARGETS]
        plans += [(t, self._wrap_count) for t in COUNT_TARGETS]
        for (modname, attr, label), make in plans:
            owner, leaf = _resolve(modname, attr)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            setattr(owner, leaf, make(original, label))
            undo.append((owner, leaf, original))
        return undo

    # --- results ------------------------------------------------------------

    def metrics(self, factors: list[float], ops: int, output_bytes: int) -> dict:
        """Per-layer metrics per operation; times scaled window by window."""
        per = max(ops, 1)
        out = {}
        for metric, span in TIME_METRICS.items():
            total = sum(w.get(span, 0.0) * f for w, f in zip(self.windows, factors))
            out[metric] = (total * 1000 / per, "ref-ms/op")
        c = self.counts
        out["cli.output_kb"] = (output_bytes / 1024 / per, "KB/op")
        for metric, key in (
            ("recognizers.gems_enumerated", "gems_enumerated"),
            ("recognizers.gem_solve_calls", "gem_solve_calls"),
            ("recognizers.gem_triples", "gem_triples"),
            ("convexity.pair_mask_calls", "pair_mask_calls"),
            ("convexity.intervals_computed", "intervals_computed"),
            ("convexity.hull_steps", "hull_steps"),
            ("convexity.violation_calls", "violation_calls"),
            ("geometry.subsets_scanned", "subsets_scanned"),
            ("geometry.convex_sets", "convex_sets"),
        ):
            out[metric] = (c[key] / per, "count/op")
        out["recognizers.gems_per_triple"] = (
            c["gems_enumerated"] / c["gem_triples"] if c["gem_triples"] else 0.0, "ratio")
        out["convexity.cache_hit_ratio"] = (
            1 - c["intervals_computed"] / c["pair_mask_calls"] if c["pair_mask_calls"] else 0.0,
            "ratio")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.kept:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _resolve(modname: str, attr: str):
    """The object holding the attribute and the attribute's last part."""
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None, attr
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, leaf
    return owner, leaf


def uninstall(undo: list) -> None:
    for owner, leaf, original in reversed(undo):
        setattr(owner, leaf, original)
