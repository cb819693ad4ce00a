"""Command-line front end.

Every subcommand reads the plain-text graph formats, honors the labels the
file used (DIMACS input stays 1-based in reports), and exits 0 for an
affirmative answer, 1 for a negative answer that carries a certificate, and
2 for operational problems.  Each command returns its exit code and its
result fields, and main renders them once: with --json, one JSON object
with sorted keys on one line of stdout, which ``python3 -m json.tool``
pretty-prints; otherwise text built from the same fields.  Certificates
and solving paths are re-checked right before being printed; one that
fails its check is an internal error, not a verdict, and so is an oracle
whose one-point test and hull replay disagree.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import sys
import time
from collections.abc import Iterator
from itertools import islice
from pathlib import Path

from . import formats, generators
from .convexity import NotConvexError, effective_k, extreme_points, hull, interval
from .formats import (
    FormatError,
    ParsedGraph,
    format_graph,
    format_vertex_set,
    graph_lines,
    load_graph,
)
from .geometry import (
    MAX_SCAN_N,
    OracleDisagreementError,
    SizeCapError,
    mkm_check_set,
    verify_geometry,
)
from .graph import Graph, GraphError, induced_paths_between, induced_subgraph
from .recognizers import (
    certificate_holds,
    certificate_json,
    gem_json,
    recognize_l2,
    recognize_l3,
    solved_gems,
)

_FAMILIES = {
    "triangle-strip7": ("", generators.triangle_strip7),
    "path": ("n", generators.path),
    "cycle": ("n", generators.cycle),
    "complete": ("n", generators.complete),
    "star": ("n", generators.star),
    "gem": ("n", generators.gem),
    "trivially-perfect": ("n seed", generators.random_trivially_perfect),
    "chordal": ("n density seed", generators.random_connected_chordal),
    "connected": ("n density seed", generators.random_connected),
}


class _InternalCheckError(Exception):
    """A certificate failed its own re-check; refuse to print it."""


def _write(text: str) -> None:
    """Write text to stdout and flush it.  When that fails (a closed pipe, a
    full disk) the OSError goes on to main, and fd 1 is pointed at os.devnull
    so that the interpreter's own last flush cannot fail a second time."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        # left as it is when stdout has no descriptor (a StringIO) or is closed
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise


def _check(g: Graph, k: int, cert) -> None:
    if cert is not None and not certificate_holds(g, k, cert):
        raise _InternalCheckError(f"certificate failed re-validation: {cert!r}")


def _check_solving_paths(g: Graph, pairs) -> None:
    """Re-check the (gem, solving path) pairs, each end pair's path once: an
    induced 3-edge path between its gem's base ends.  The apex needs no
    check, since it sees both ends and each inner vertex of an induced
    3-edge path misses one of them."""
    checked = {}  # base ends -> the path last checked for them
    for w, p in pairs:
        ends = w.base.vertices[0], w.base.vertices[-1]
        if p is not None and checked.get(ends) is not p:
            if not (p.length == 3 and (p.vertices[0], p.vertices[-1]) == ends and p.is_induced_in(g)):
                raise _InternalCheckError(f"solving path failed re-validation: {p!r} for {w!r}")
            checked[ends] = p


def _check_refusal(g: Graph, k: int, vertices: list[int], exc: NotConvexError) -> None:
    """Re-check a set's refusal: a pair of distinct vertices of the set with
    an induced path of at most k edges through the escaped vertex, which is
    not in the set."""
    (u, v), x = exc.pair, exc.escaped
    if not (u != v and u in vertices and v in vertices and x not in vertices
            and any(x in p.vertices for p in induced_paths_between(g, u, v, k))):
        raise _InternalCheckError(f"refusal failed re-validation: {exc.pair!r} escapes to {x!r}")


def _labels(parsed: ParsedGraph, vertices) -> list[int]:
    """The labels of a vertex set, ascending, each once."""
    return sorted({parsed.labels[v] for v in vertices})


def _dashed(seq) -> str:
    return "-".join(str(x) for x in seq)


def _parse_id_list(parsed: ParsedGraph, text: str, what: str) -> list[int]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            label = int(tok)
        except ValueError:
            raise FormatError(f"{what} must be comma-separated integers, got {tok!r}") from None
        out.append(parsed.vertex_of(label))
    if not out:
        raise FormatError(f"{what} must name at least one vertex")
    return out


def _note_clamp(args: argparse.Namespace, g: Graph, k: int) -> None:
    eff = effective_k(g, k)
    if getattr(args, "verbose", False) and eff != k:
        print(f"note: k={k} exceeds n-1={g.n - 1}; using k={eff}", file=sys.stderr)


def cmd_recognize(args: argparse.Namespace, parsed: ParsedGraph) -> tuple[int, dict]:
    g = parsed.graph
    verdict = recognize_l2(g) if args.k == 2 else recognize_l3(g)
    _check(g, args.k, verdict.certificate)
    _check_solving_paths(g, verdict.solved_gems)
    fields = {"k": args.k, "solved_gems": [], **verdict.to_json_dict(parsed.labels)}
    return (0 if verdict.accepted else 1), fields


def _certificate_text(cert: dict) -> str:
    kind = cert["kind"]
    if kind == "hole":
        return f"hole (induced cycle): {format_vertex_set(cert['cycle'])}"
    if kind == "p4":
        return "induced 4-vertex path: " + _dashed(cert["path"])
    if kind == "far_pair":
        return f"far pair: ({cert['u']}, {cert['v']}) at distance {cert['distance']}"
    return f"unsolved gem: base {_dashed(cert['base'])}, apex {cert['apex']}"


def text_recognize(f: dict) -> list[str]:
    if not f["accepted"]:
        return [f"rejected: not a convex geometry for k={f['k']}",
                "certificate: " + _certificate_text(f["certificate"])]
    return [f"accepted: convex geometry for k={f['k']}"] + [
        f"  gem base {_dashed(s['base'])} apex {s['apex']} solved via {_dashed(s['solving_path'])}"
        for s in f["solved_gems"]
    ]


def cmd_interval(args: argparse.Namespace, parsed: ParsedGraph) -> tuple[int, dict]:
    g = parsed.graph
    pair = _parse_id_list(parsed, args.pair, "--pair")
    if len(pair) != 2:
        raise FormatError(f"--pair needs exactly two vertices, got {args.pair!r}")
    _note_clamp(args, g, args.k)
    result = interval(g, args.k, pair[0], pair[1])
    return 0, {
        "k": args.k,
        "pair": [parsed.labels[v] for v in pair],
        "interval": _labels(parsed, result),
    }


def text_interval(f: dict) -> list[str]:
    u, v = f["pair"]
    return [f"interval k={f['k']} of ({u}, {v}): {format_vertex_set(f['interval'])}"]


def cmd_hull(args: argparse.Namespace, parsed: ParsedGraph) -> tuple[int, dict]:
    g = parsed.graph
    seed_ids = _parse_id_list(parsed, args.set, "--set")
    _note_clamp(args, g, args.k)
    trace = hull(g, args.k, seed_ids).to_json_dict(parsed.labels)
    return 0, {
        "k": args.k,
        "set": _labels(parsed, seed_ids),
        "trace": trace,
        "hull": trace["iterates"][-1],
    }


def text_hull(f: dict) -> list[str]:
    trace = f["trace"]
    return [f"hull k={f['k']} of {format_vertex_set(f['set'])}: steps={trace['steps']}"] + [
        f"  iterate {i}: {format_vertex_set(it)}" for i, it in enumerate(trace["iterates"])
    ]


def cmd_extremes(args: argparse.Namespace, parsed: ParsedGraph) -> tuple[int, dict]:
    g = parsed.graph
    seed_ids = _parse_id_list(parsed, args.set, "--set")
    _note_clamp(args, g, args.k)
    fields = {"k": args.k, "set": _labels(parsed, seed_ids), "extremes": None, "not_convex": None}
    try:
        fields["extremes"] = _labels(parsed, extreme_points(g, args.k, seed_ids))
    except NotConvexError as exc:
        _check_refusal(g, args.k, seed_ids, exc)
        u, v = exc.pair
        fields["not_convex"] = {
            "pair": [parsed.labels[u], parsed.labels[v]],
            "escaped": parsed.labels[exc.escaped],
        }
        return 1, fields
    return 0, fields


def text_extremes(f: dict) -> list[str]:
    bad = f["not_convex"]
    if bad is not None:
        u, v = bad["pair"]
        return [f"set is not convex: interval of ({u}, {v}) escapes to {bad['escaped']}"]
    return [f"extreme points (k={f['k']}) of {format_vertex_set(f['set'])}: "
            f"{format_vertex_set(f['extremes'])}"]


def cmd_gems(args: argparse.Namespace, parsed: ParsedGraph) -> tuple[int, dict]:
    pairs = list(solved_gems(parsed.graph, args.min_n))
    _check_solving_paths(parsed.graph, pairs)
    rows = [{**gem_json(w, p, parsed.labels), "n": w.n, "solved": p is not None}
            for w, p in pairs]
    solved = sum(row["solved"] for row in rows)
    counts = {"total": len(rows), "solved": solved, "unsolved": len(rows) - solved}
    return 0, {"min_n": args.min_n, "gems": rows, "counts": counts}


def text_gems(f: dict) -> list[str]:
    lines = [
        f"gem base {_dashed(row['base'])} apex {row['apex']}: "
        + (f"solved via {_dashed(row['solving_path'])}" if row["solved"] else "UNSOLVED")
        for row in f["gems"]
    ]
    c = f["counts"]
    lines.append(f"gems with n >= {f['min_n']}: {c['total']} total, "
                 f"{c['solved']} solved, {c['unsolved']} unsolved")
    return lines


def cmd_oracle(args: argparse.Namespace, parsed: ParsedGraph) -> tuple[int, dict]:
    g = parsed.graph
    _note_clamp(args, g, args.k)
    verdict = verify_geometry(g, args.k)
    _check(g, args.k, verdict.violation)
    return (0 if verdict.is_geometry else 1), {"k": args.k, **verdict.to_json_dict(parsed.labels)}


def text_oracle(f: dict) -> list[str]:
    if f["geometry"]:
        return [f"convex geometry for k={f['k']}: yes (every convex set is the hull of its extremes)"]
    c = f["certificate"]
    return [
        f"convex geometry for k={f['k']}: no",
        f"  convex set      : {format_vertex_set(c['set'])}",
        f"  extreme points  : {format_vertex_set(c['ext'])}",
        f"  hull of extremes: {format_vertex_set(c['hull'])}",
    ]


def cmd_crosscheck(args: argparse.Namespace) -> tuple[int, dict]:
    if args.random < 0:
        raise FormatError(f"--random must be a count of at least 0, got {args.random}")
    if args.exhaustive_n is None and not args.random:
        raise FormatError("nothing to do: pass --exhaustive-n and/or --random")
    if args.random and not 2 <= args.size <= MAX_SCAN_N:
        raise FormatError(f"--size must lie in 2..{MAX_SCAN_N}, got {args.size}")
    recognizer = recognize_l2 if args.k == 2 else recognize_l3
    dump_dir = Path(args.dump_dir)
    instances = 0
    mismatches = []

    def check(g: Graph, origin: str) -> None:
        nonlocal instances
        instances += 1
        rec = recognizer(g)
        orc = verify_geometry(g, args.k)
        if rec.accepted != orc.is_geometry:
            dump_dir.mkdir(parents=True, exist_ok=True)
            name = dump_dir / f"mismatch-k{args.k}-{len(mismatches)}.txt"
            comment = f"{origin}: recognizer={rec.accepted} oracle={orc.is_geometry}"
            name.write_text(format_graph(g, comment=comment))
            mismatches.append(str(name))

    if args.exhaustive_n is not None:
        if not 1 <= args.exhaustive_n <= 6:
            raise FormatError("--exhaustive-n must lie in 1..6")
        for n in range(1, args.exhaustive_n + 1):
            for g in generators.all_connected_graphs(n):
                check(g, f"exhaustive n={n}")
    if args.random:
        master = random.Random(args.seed)
        for i in range(args.random):
            n = master.randint(2, args.size)
            density = master.random()
            sub = master.randrange(2**31)
            check(generators.random_connected_chordal(n, density, sub), f"random #{i}")

    return (1 if mismatches else 0), {
        "k": args.k,
        "instances": instances,
        "mismatches": len(mismatches),
        "dumped": mismatches,
    }


def text_crosscheck(f: dict) -> list[str]:
    return [f"crosscheck k={f['k']}: {f['instances']} instances, {f['mismatches']} mismatches"] + [
        f"  dumped {name}" for name in f["dumped"]
    ]


def cmd_generate(args: argparse.Namespace) -> int:
    spec, make = _FAMILIES[args.family]
    needed = spec.split()
    for field in needed:
        if getattr(args, field) is None:
            raise FormatError(f"family {args.family!r} needs --{field}")
    if "n" in needed:
        # gem(n) has n + 1 base vertices and an apex
        count = args.n + 2 if args.family == "gem" else args.n
        if count > formats.MAX_VERTICES:
            built = "" if count == args.n else f" ({count} vertices)"
            raise FormatError(f"--n {args.n}{built} exceeds the vertex limit of {formats.MAX_VERTICES}")
    g = make(*(getattr(args, field) for field in needed))
    pieces = [f"family={args.family}"]
    for field in needed:
        pieces.append(f"{field}={getattr(args, field)}")
    chunks = _chunks(graph_lines(g, comment=" ".join(pieces)))
    if args.output:
        with open(args.output, "w") as fh:
            fh.writelines(chunks)
        print(f"wrote {g.n} vertices / {g.m} edges to {args.output}", file=sys.stderr)
    else:
        for chunk in chunks:
            _write(chunk)
    return 0


def _chunks(lines: Iterator[str]) -> Iterator[str]:
    """The lines joined into text 4096 lines at a time, each ending in a newline."""
    while batch := list(islice(lines, 4096)):
        batch.append("")
        yield "\n".join(batch)


def cmd_demo_non_hereditary(args: argparse.Namespace) -> tuple[int, dict]:
    g = generators.triangle_strip7()
    checks: list[bool] = []
    steps = []

    def examine(graph: Graph, labels, title: str, expect_accept: bool):
        rec = recognize_l3(graph)
        orc = verify_geometry(graph, 3)
        checks.append(rec.accepted == orc.is_geometry == expect_accept)
        entry = {
            "graph": title,
            "recognizer_accepts": rec.accepted,
            "oracle_accepts": orc.is_geometry,
        }
        if rec.certificate is not None:
            _check(graph, 3, rec.certificate)
            entry["certificate"] = certificate_json(rec.certificate, labels)
        return entry

    steps.append(examine(g, None, "triangle strip (7 vertices)", True))
    for victim in (1, 4):
        sub = induced_subgraph(g, set(range(7)) - {victim})
        entry = examine(sub.graph, sub.parent_ids, f"strip minus vertex {victim}", False)
        v = mkm_check_set(sub.graph, 3, range(sub.graph.n))
        if v is not None:
            entry["extremes_of_all"] = sorted(sub.parent_ids[x] for x in v.extreme_points)
            entry["hull_of_extremes"] = sorted(sub.parent_ids[x] for x in v.hull_of_extremes)
        checks.append(v is not None and v.hull_of_extremes == v.extreme_points and len(v.extreme_points) == 2)
        steps.append(entry)

    ok = all(checks)
    return (0 if ok else 1), {"pattern_holds": ok, "steps": steps}


def text_demo_non_hereditary(f: dict) -> list[str]:
    lines = ["k=3 convex geometries are not closed under induced subgraphs:"]
    for entry in f["steps"]:
        rec = "accepts" if entry["recognizer_accepts"] else "rejects"
        orc = "accepts" if entry["oracle_accepts"] else "rejects"
        lines.append(f"  {entry['graph']}: recognizer {rec}, oracle {orc}")
        if "certificate" in entry:
            lines.append(f"    rejection certificate: {entry['certificate']}")
        if "extremes_of_all" in entry:
            lines.append("    extreme points of the whole vertex set: "
                         f"{format_vertex_set(entry['extremes_of_all'])}")
            lines.append(f"    hull of those extremes: "
                         f"{format_vertex_set(entry['hull_of_extremes'])} (stuck, misses the rest)")
    lines.append("pattern holds" if f["pattern_holds"] else "pattern FAILED")
    return lines


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call
    to main; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lkconvex",
        description="Convexity over short induced paths: intervals, hulls, geometries, recognizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_k=True, k_choices=None):
        p.add_argument("file", help="graph file (canonical 'n m' or DIMACS 'p edge')")
        if with_k:
            p.add_argument("--k", type=int, required=True, choices=k_choices,
                           help="induced-path length bound")
        p.add_argument("--json", action="store_true", help="emit one JSON object on stdout")
        p.add_argument("--verbose", "-v", action="store_true", help="extra notes on stderr")

    p = sub.add_parser("recognize", help="structural recognizer for k=2 or k=3")
    common(p, k_choices=[2, 3])
    p.set_defaults(func=cmd_recognize, text=text_recognize)

    p = sub.add_parser("interval", help="interval of one vertex pair")
    common(p)
    p.add_argument("--pair", required=True, help="two vertex labels, e.g. 1,7")
    p.set_defaults(func=cmd_interval, text=text_interval)

    p = sub.add_parser("hull", help="hull of a set with the iteration trace")
    common(p)
    p.add_argument("--set", required=True, help="comma-separated vertex labels")
    p.set_defaults(func=cmd_hull, text=text_hull)

    p = sub.add_parser("extremes", help="extreme points of a convex set")
    common(p)
    p.add_argument("--set", required=True, help="comma-separated vertex labels")
    p.set_defaults(func=cmd_extremes, text=text_extremes)

    p = sub.add_parser("gems", help="list induced gems and their solved status")
    common(p, with_k=False)
    p.add_argument("--min-n", type=int, default=3, dest="min_n",
                   help="smallest gem base length to report (default 3)")
    p.set_defaults(func=cmd_gems, text=text_gems)

    p = sub.add_parser("oracle", help="exhaustive convex-geometry check",
                       description="Exhaustive convex-geometry check over all 2^n vertex "
                                   f"subsets; graphs with more than {MAX_SCAN_N} vertices "
                                   "are refused (exit 2).")
    common(p)
    p.set_defaults(func=cmd_oracle, text=text_oracle)

    p = sub.add_parser("crosscheck", help="recognizer vs oracle over instance ensembles")
    p.add_argument("--k", type=int, required=True, choices=[2, 3])
    p.add_argument("--exhaustive-n", type=int, default=None, dest="exhaustive_n",
                   help="check all connected graphs up to this many vertices (<= 6)")
    p.add_argument("--random", type=int, default=0, metavar="COUNT",
                   help="also check COUNT random connected chordal graphs")
    p.add_argument("--size", type=int, default=10,
                   help=f"max vertices of random instances (2..{MAX_SCAN_N})")
    p.add_argument("--seed", type=int, default=0, help="seed for the random ensemble")
    p.add_argument("--dump-dir", default=".", dest="dump_dir",
                   help="where mismatching graphs are written")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_crosscheck, text=text_crosscheck)

    p = sub.add_parser("generate", help="write a generated graph in canonical format")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--density", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("demo-non-hereditary",
                       help="show the k=3 class failing on induced subgraphs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_demo_non_hereditary, text=text_demo_non_hereditary)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        t0 = time.perf_counter()
        report = {"command": args.command}
        if "file" in args:
            parsed = load_graph(args.file)
            report["input"] = {"vertices": parsed.graph.n, "edges": parsed.graph.m}
            code, fields = args.func(args, parsed)
        else:
            code, fields = args.func(args)
        if args.json:
            report.update(fields, wall_time_s=round(time.perf_counter() - t0, 6))
            _write(json.dumps(report, sort_keys=True) + "\n")
        else:
            _write("\n".join(args.text(fields)) + "\n")
    except (FormatError, GraphError, SizeCapError, NotConvexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_InternalCheckError, OracleDisagreementError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
