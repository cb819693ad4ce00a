"""Command-line front end.

Every subcommand reads the plain-text graph formats, honors the labels the
file used (DIMACS input stays 1-based in reports), and exits 0 for an
affirmative answer, 1 for a negative answer that carries a certificate, and
2 for operational problems.  With --json a single JSON object goes to
stdout and everything else to stderr.  Certificates are re-validated right
before being printed; a certificate that fails its own check is an internal
error, not a verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

from . import generators
from .chordal import is_chordal
from .convexity import (
    DEFAULT_ENUMERATION_CAP,
    MAX_SCAN_N,
    NotConvexError,
    SizeCapError,
    effective_k,
    extreme_points,
    hull,
    interval,
)
from .formats import FormatError, ParsedGraph, format_graph, format_vertex_set, load_graph
from .geometry import verify_geometry
from .graph import Graph, GraphError, bfs_distances, induced_subgraph
from .recognizers import (
    FarPair,
    GemWitness,
    HoleWitness,
    InducedPath,
    RecognitionVerdict,
    enumerate_gems,
    is_gem_solved,
    recognize_l2,
    recognize_l3,
)

_FAMILIES = {
    "triangle-strip7": ("", lambda a, rng: generators.triangle_strip7()),
    "path": ("n", lambda a, rng: generators.path(a.n)),
    "cycle": ("n", lambda a, rng: generators.cycle(a.n)),
    "complete": ("n", lambda a, rng: generators.complete(a.n)),
    "star": ("n", lambda a, rng: generators.star(a.n)),
    "gem": ("n", lambda a, rng: generators.gem(a.n)),
    "trivially-perfect": ("n seed", lambda a, rng: generators.random_trivially_perfect(a.n, a.seed)),
    "chordal": ("n density seed", lambda a, rng: generators.random_connected_chordal(a.n, a.density, a.seed)),
    "connected": ("n density seed", lambda a, rng: generators.random_connected(a.n, a.density, a.seed)),
}


class _InternalCheckError(Exception):
    """A certificate failed its own re-validation; refuse to print it."""


def _say(args: argparse.Namespace, text: str) -> None:
    stream = sys.stderr if args.json else sys.stdout
    print(text, file=stream)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _labels(parsed: ParsedGraph, vertices) -> list[int]:
    return sorted(parsed.labels[v] for v in vertices)


def _labeled_seq(parsed: ParsedGraph, seq) -> list[int]:
    return [parsed.labels[v] for v in seq]


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


def _report(args: argparse.Namespace, g: Graph, t0: float, **fields) -> dict:
    out = {
        "command": args.command,
        "input": {"vertices": g.n, "edges": g.m},
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    out.update(fields)
    return out


def _certificate_json(parsed: ParsedGraph, cert) -> dict:
    if isinstance(cert, HoleWitness):
        return {"kind": "hole", "cycle": _labeled_seq(parsed, cert.cycle)}
    if isinstance(cert, InducedPath):
        return {"kind": "p4", "path": _labeled_seq(parsed, cert.vertices)}
    if isinstance(cert, FarPair):
        return {
            "kind": "far_pair",
            "u": parsed.labels[cert.u],
            "v": parsed.labels[cert.v],
            "distance": cert.distance,
        }
    if isinstance(cert, GemWitness):
        return {
            "kind": "unsolved_gem",
            "base": _labeled_seq(parsed, cert.base.vertices),
            "apex": parsed.labels[cert.apex],
        }
    raise _InternalCheckError(f"unknown certificate {cert!r}")


def _certificate_text(parsed: ParsedGraph, cert) -> str:
    info = _certificate_json(parsed, cert)
    kind = info["kind"]
    if kind == "hole":
        return f"hole (induced cycle): {format_vertex_set(info['cycle'])}"
    if kind == "p4":
        return "induced 4-vertex path: " + "-".join(str(x) for x in info["path"])
    if kind == "far_pair":
        return f"far pair: ({info['u']}, {info['v']}) at distance {info['distance']}"
    base = "-".join(str(x) for x in info["base"])
    return f"unsolved gem: base {base}, apex {info['apex']}"


def _revalidate_certificate(g: Graph, cert, k: int | None) -> None:
    ok = True
    if isinstance(cert, HoleWitness):
        ok = cert.is_hole_in(g)
    elif isinstance(cert, InducedPath):
        ok = cert.is_induced_in(g) and cert.length == 3
    elif isinstance(cert, FarPair):
        d = bfs_distances(g, cert.u)[cert.v]
        ok = d == cert.distance and k is not None and d > k
    elif isinstance(cert, GemWitness):
        ok = cert.is_valid_in(g) and not is_gem_solved(g, cert)[0]
    if not ok:
        raise _InternalCheckError(f"certificate failed re-validation: {cert!r}")


def cmd_recognize(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    parsed = load_graph(args.file)
    g = parsed.graph
    verdict = recognize_l2(g) if args.k == 2 else recognize_l3(g)
    if verdict.certificate is not None:
        _revalidate_certificate(g, verdict.certificate, args.k)
    cert_json = (
        None if verdict.certificate is None else _certificate_json(parsed, verdict.certificate)
    )
    if args.json:
        solved = [
            {
                "base": _labeled_seq(parsed, w.base.vertices),
                "apex": parsed.labels[w.apex],
                "solving_path": _labeled_seq(parsed, p.vertices),
            }
            for w, p in verdict.solved_gems
        ]
        _emit_json(
            _report(
                args, g, t0,
                k=args.k,
                accepted=verdict.accepted,
                certificate=cert_json,
                solved_gems=solved,
            )
        )
    elif verdict.accepted:
        _say(args, f"accepted: convex geometry for k={args.k}")
        for w, p in verdict.solved_gems:
            base = "-".join(str(x) for x in _labeled_seq(parsed, w.base.vertices))
            via = "-".join(str(x) for x in _labeled_seq(parsed, p.vertices))
            _say(args, f"  gem base {base} apex {parsed.labels[w.apex]} solved via {via}")
    else:
        _say(args, f"rejected: not a convex geometry for k={args.k}")
        _say(args, "certificate: " + _certificate_text(parsed, verdict.certificate))
    return 0 if verdict.accepted else 1


def cmd_interval(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    parsed = load_graph(args.file)
    g = parsed.graph
    pair = _parse_id_list(parsed, args.pair, "--pair")
    if len(pair) != 2:
        raise FormatError(f"--pair needs exactly two vertices, got {args.pair!r}")
    _note_clamp(args, g, args.k)
    result = interval(g, args.k, pair[0], pair[1])
    shown = _labels(parsed, result)
    if args.json:
        _emit_json(
            _report(
                args, g, t0,
                k=args.k,
                pair=[parsed.labels[pair[0]], parsed.labels[pair[1]]],
                interval=shown,
            )
        )
    else:
        u, v = parsed.labels[pair[0]], parsed.labels[pair[1]]
        _say(args, f"interval k={args.k} of ({u}, {v}): {format_vertex_set(shown)}")
    return 0


def cmd_hull(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    parsed = load_graph(args.file)
    g = parsed.graph
    seed_ids = _parse_id_list(parsed, args.set, "--set")
    _note_clamp(args, g, args.k)
    trace = hull(g, args.k, seed_ids)
    iterates = [_labels(parsed, s) for s in trace.iterates]
    if args.json:
        _emit_json(
            _report(
                args, g, t0,
                k=args.k,
                set=_labels(parsed, seed_ids),
                trace={"iterates": iterates, "steps": trace.steps},
                hull=iterates[-1],
            )
        )
    else:
        _say(args, f"hull k={args.k} of {format_vertex_set(_labels(parsed, seed_ids))}: steps={trace.steps}")
        for i, it in enumerate(iterates):
            _say(args, f"  iterate {i}: {format_vertex_set(it)}")
    return 0


def cmd_extremes(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    parsed = load_graph(args.file)
    g = parsed.graph
    seed_ids = _parse_id_list(parsed, args.set, "--set")
    _note_clamp(args, g, args.k)
    try:
        ext = extreme_points(g, args.k, seed_ids)
    except NotConvexError as exc:
        u, v = exc.pair
        if args.json:
            _emit_json(
                _report(
                    args, g, t0,
                    k=args.k,
                    set=_labels(parsed, seed_ids),
                    extremes=None,
                    not_convex={
                        "pair": [parsed.labels[u], parsed.labels[v]],
                        "escaped": parsed.labels[exc.escaped],
                    },
                )
            )
        else:
            _say(args, "set is not convex: interval of "
                 f"({parsed.labels[u]}, {parsed.labels[v]}) escapes to {parsed.labels[exc.escaped]}")
        return 1
    if args.json:
        _emit_json(
            _report(
                args, g, t0,
                k=args.k,
                set=_labels(parsed, seed_ids),
                extremes=_labels(parsed, ext),
                not_convex=None,
            )
        )
    else:
        _say(args, f"extreme points (k={args.k}) of {format_vertex_set(_labels(parsed, seed_ids))}: "
             f"{format_vertex_set(_labels(parsed, ext))}")
    return 0


def cmd_gems(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    parsed = load_graph(args.file)
    g = parsed.graph
    rows = []
    solved_count = 0
    for w in enumerate_gems(g, args.min_n):
        ok, p = is_gem_solved(g, w)
        solved_count += ok
        rows.append(
            {
                "base": _labeled_seq(parsed, w.base.vertices),
                "apex": parsed.labels[w.apex],
                "n": w.n,
                "solved": ok,
                "solving_path": None if p is None else _labeled_seq(parsed, p.vertices),
            }
        )
    counts = {"total": len(rows), "solved": solved_count, "unsolved": len(rows) - solved_count}
    if args.json:
        _emit_json(_report(args, g, t0, min_n=args.min_n, gems=rows, counts=counts))
    else:
        for row in rows:
            base = "-".join(str(x) for x in row["base"])
            if row["solved"]:
                via = "-".join(str(x) for x in row["solving_path"])
                _say(args, f"gem base {base} apex {row['apex']}: solved via {via}")
            else:
                _say(args, f"gem base {base} apex {row['apex']}: UNSOLVED")
        _say(args, f"gems with n >= {args.min_n}: {counts['total']} total, "
             f"{counts['solved']} solved, {counts['unsolved']} unsolved")
    return 0


def _oracle_cap(args: argparse.Namespace) -> int:
    if args.max_n is not None:
        return args.max_n
    env = os.environ.get("CONVEXITY_MAX_N")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise FormatError(f"CONVEXITY_MAX_N must be an integer, got {env!r}") from None
    return DEFAULT_ENUMERATION_CAP


def cmd_oracle(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    parsed = load_graph(args.file)
    g = parsed.graph
    _note_clamp(args, g, args.k)
    verdict = verify_geometry(g, args.k, max_n=_oracle_cap(args))
    cert = None
    if verdict.violation is not None:
        v = verdict.violation
        cert = {
            "set": _labels(parsed, v.convex_set),
            "ext": _labels(parsed, v.extreme_points),
            "hull": _labels(parsed, v.hull_of_extremes),
        }
    if args.json:
        _emit_json(_report(args, g, t0, k=args.k, geometry=verdict.is_geometry, certificate=cert))
    elif verdict.is_geometry:
        _say(args, f"convex geometry for k={args.k}: yes (every convex set is the hull of its extremes)")
    else:
        _say(args, f"convex geometry for k={args.k}: no")
        _say(args, f"  convex set      : {format_vertex_set(cert['set'])}")
        _say(args, f"  extreme points  : {format_vertex_set(cert['ext'])}")
        _say(args, f"  hull of extremes: {format_vertex_set(cert['hull'])}")
    return 0 if verdict.is_geometry else 1


def _recognizer_for(k: int):
    return recognize_l2 if k == 2 else recognize_l3


def cmd_crosscheck(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.exhaustive_n is None and not args.random:
        raise FormatError("nothing to do: pass --exhaustive-n and/or --random")
    if args.random and not 2 <= args.size <= MAX_SCAN_N:
        raise FormatError(f"--size must lie in 2..{MAX_SCAN_N}, got {args.size}")
    recognizer = _recognizer_for(args.k)
    dump_dir = Path(args.dump_dir)
    instances = 0
    mismatches = []

    def check(g: Graph, origin: str) -> None:
        nonlocal instances
        instances += 1
        rec = recognizer(g)
        orc = verify_geometry(g, args.k, max_n=max(DEFAULT_ENUMERATION_CAP, g.n))
        if rec.accepted != orc.is_geometry:
            dump_dir.mkdir(parents=True, exist_ok=True)
            name = dump_dir / f"mismatch-k{args.k}-{len(mismatches)}.txt"
            name.write_text(
                format_graph(
                    g,
                    comment=f"{origin}: recognizer={rec.accepted} oracle={orc.is_geometry}",
                )
            )
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

    if args.json:
        _emit_json(
            {
                "command": args.command,
                "k": args.k,
                "instances": instances,
                "mismatches": len(mismatches),
                "dumped": mismatches,
                "wall_time_s": round(time.perf_counter() - t0, 6),
            }
        )
    else:
        _say(args, f"crosscheck k={args.k}: {instances} instances, {len(mismatches)} mismatches")
        for name in mismatches:
            _say(args, f"  dumped {name}")
    return 0 if not mismatches else 1


def cmd_generate(args: argparse.Namespace) -> int:
    spec = _FAMILIES[args.family]
    needed = spec[0].split()
    for field in needed:
        if getattr(args, field) is None:
            raise FormatError(f"family {args.family!r} needs --{field}")
    g = spec[1](args, None)
    pieces = [f"family={args.family}"]
    for field in needed:
        pieces.append(f"{field}={getattr(args, field)}")
    text = format_graph(g, comment=" ".join(pieces))
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {g.n} vertices / {g.m} edges to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_demo_non_hereditary(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    g = generators.triangle_strip7()
    parsed = ParsedGraph(g, tuple(range(g.n)))
    checks: list[bool] = []
    steps = []

    def examine(graph: Graph, labels: tuple[int, ...], title: str, expect_accept: bool):
        rec = recognize_l3(graph)
        orc = verify_geometry(graph, 3)
        agree = rec.accepted == orc.is_geometry
        checks.append(agree and rec.accepted == expect_accept)
        entry = {
            "graph": title,
            "recognizer_accepts": rec.accepted,
            "oracle_accepts": orc.is_geometry,
        }
        if rec.certificate is not None:
            entry["certificate"] = _certificate_json(ParsedGraph(graph, labels), rec.certificate)
        return entry

    steps.append(examine(g, tuple(range(7)), "triangle strip (7 vertices)", True))
    for victim in (1, 4):
        sub = induced_subgraph(g, set(range(7)) - {victim})
        title = f"strip minus vertex {victim}"
        entry = examine(sub.graph, sub.parent_ids, title, False)
        ext = extreme_points(sub.graph, 3, range(sub.graph.n))
        trace = hull(sub.graph, 3, ext)
        entry["extremes_of_all"] = sorted(sub.parent_ids[x] for x in ext)
        entry["hull_of_extremes"] = sorted(sub.parent_ids[x] for x in trace.hull)
        checks.append(trace.hull == ext and len(ext) == 2)
        steps.append(entry)

    ok = all(checks)
    if args.json:
        _emit_json(
            {
                "command": args.command,
                "pattern_holds": ok,
                "steps": steps,
                "wall_time_s": round(time.perf_counter() - t0, 6),
            }
        )
    else:
        _say(args, "k=3 convex geometries are not closed under induced subgraphs:")
        for entry in steps:
            _say(args, f"  {entry['graph']}: recognizer "
                 f"{'accepts' if entry['recognizer_accepts'] else 'rejects'}, oracle "
                 f"{'accepts' if entry['oracle_accepts'] else 'rejects'}")
            if "certificate" in entry:
                c = entry["certificate"]
                _say(args, f"    rejection certificate: {c}")
            if "extremes_of_all" in entry:
                _say(args, f"    extreme points of the whole vertex set: "
                     f"{format_vertex_set(entry['extremes_of_all'])}")
                _say(args, f"    hull of those extremes: "
                     f"{format_vertex_set(entry['hull_of_extremes'])} (stuck, misses the rest)")
        _say(args, "pattern holds" if ok else "pattern FAILED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("recognize", help="polynomial recognizer for k=2 or k=3")
    common(p, k_choices=[2, 3])
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("interval", help="interval of one vertex pair")
    common(p)
    p.add_argument("--pair", required=True, help="two vertex labels, e.g. 1,7")
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("hull", help="hull of a set with the iteration trace")
    common(p)
    p.add_argument("--set", required=True, help="comma-separated vertex labels")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("extremes", help="extreme points of a convex set")
    common(p)
    p.add_argument("--set", required=True, help="comma-separated vertex labels")
    p.set_defaults(func=cmd_extremes)

    p = sub.add_parser("gems", help="list induced gems and their solved status")
    common(p, with_k=False)
    p.add_argument("--min-n", type=int, default=3, dest="min_n",
                   help="smallest gem base length to report (default 3)")
    p.set_defaults(func=cmd_gems)

    p = sub.add_parser("oracle", help="exhaustive convex-geometry check")
    common(p)
    p.add_argument("--max-n", type=int, default=None, dest="max_n",
                   help=f"vertex cap for the subset scan (default {DEFAULT_ENUMERATION_CAP}, "
                        f"at most {MAX_SCAN_N}; overrides env CONVEXITY_MAX_N)")
    p.set_defaults(func=cmd_oracle)

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
    p.set_defaults(func=cmd_crosscheck)

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
    p.set_defaults(func=cmd_demo_non_hereditary)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, GraphError, SizeCapError, NotConvexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
