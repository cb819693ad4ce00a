"""Run one workload in this process and print its figures as one JSON line.

Usage (normally started by run.py, from the root of a checkout):

    python3 bench/workload.py --workload NAME --seed N --seconds S
        --workdir DIR [--trace] [--setup-only]

Set-up imports ``lkconvex`` from ``src/``, builds round 0 of the seeded
workload and writes its instance files under DIR.  The process then runs
whole rounds until S seconds have passed, timing each call from outside,
checking each answer outside the timed region, and sampling the reference
loop between operations.  Each later round's instances are built and
written between rounds, outside any timed region.  With ``--setup-only``
the process stops at the moment the first operation would start.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import refloop  # noqa: E402  (lives next to this file)

# A new reference sample is taken once this much wall time has passed.
REF_EVERY_S = 0.05
# Tail percentile: in 30-second runs every workload does well over 1000
# operations, so at least ten lie beyond it (see README.md).
TAIL_PCT = 99.0


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import lkconvex

    where = Path(lkconvex.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"lkconvex was imported from {where}, not from this checkout")
    return lkconvex


def percentile(sorted_xs: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_xs)))
    return sorted_xs[rank - 1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        raise SystemExit("run without -O: the program's assertions are part of the work")

    _import_program()
    import workloads

    build = workloads.BUILDERS[args.workload]

    def round_ops(rnd: int) -> tuple[Path, list]:
        where = Path(args.workdir) / f"round{rnd}"
        where.mkdir()
        return where, build(args.seed, rnd, where)

    where, ops = round_ops(0)
    ready = time.monotonic()
    ref_setup = refloop.sample()
    if args.setup_only:
        print(json.dumps({"ready": ready, "ref_setup": ref_setup}))
        return 0

    tracer = undo = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        undo = tracer.install()

    refs = [ref_setup]
    last_ref = time.perf_counter()
    records: list[tuple[float, int]] = []  # (raw seconds, reference window)
    failures: dict[str, int] = {}
    correct = True
    output_bytes = 0
    deadline = last_ref + args.seconds
    rounds = 0
    while True:
        for op in ops:
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(refloop.sample())
                last_ref = time.perf_counter()
                if tracer:
                    tracer.close_window()
            if tracer:
                tracer.begin_op(len(records))
            err = None
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # any escape from the program is a failed operation
                err = type(exc).__name__
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            records.append((dt, len(refs) - 1))
            if err is None:
                if isinstance(result, workloads.CliRun):
                    output_bytes += len(result.out)
                try:
                    op.check(result)
                except Exception as exc:  # an answer the checker cannot read fails too
                    err = f"check: {type(exc).__name__}: {exc}"
            if err is not None:
                key = f"{op.kind}: {err}"
                failures[key] = failures.get(key, 0) + 1
                # the deep-path intervals fail this way until the walker is iterative
                correct = correct and op.deep and err == "RecursionError"
        rounds += 1
        shutil.rmtree(where)
        if time.perf_counter() >= deadline:
            break
        where, ops = round_ops(rounds)
    refs.append(refloop.sample())
    if tracer:
        tracer.close_window()
        layertrace.uninstall(undo)

    # Each window's speed is the mean of the samples on either side of it.
    factors = [refloop.NOMINAL_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])]
    norm = sorted(dt * factors[w] for dt, w in records)
    attempted = len(records)
    failed = sum(failures.values())
    raw_total = sum(dt for dt, _ in records)
    out = {
        "ready": ready,
        "ref_setup": ref_setup,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "correct": correct,
        "ops_per_s": (attempted - failed) / sum(norm),
        "op_p50_ms": percentile(norm, 50) * 1000,
        "op_tail_ms": percentile(norm, TAIL_PCT) * 1000,
        "tail_pct": TAIL_PCT,
        "raw_ops_per_s": (attempted - failed) / raw_total,
        "raw_op_p50_ms": percentile(sorted(dt for dt, _ in records), 50) * 1000,
        "ref_samples": len(refs),
        "ref_median_s": sorted(refs)[len(refs) // 2],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["layers"] = tracer.metrics(factors, attempted, output_bytes)
        out["absent"] = tracer.absent
        out["spans_kept"] = len(tracer.kept)
        out["spans_dropped"] = tracer.dropped
        tracer.write_spans(Path(args.workdir) / "spans.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
