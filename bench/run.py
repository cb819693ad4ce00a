"""Benchmark entry point: one workload, one seed, one line of JSON at the end.

    python3 bench/run.py --workload {recognize,crosscheck,queries}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a process of its own
(bench/workload.py).  With ``--trace 0`` the end-to-end metrics are
printed; set-up is timed in that process and in SETUP_SAMPLES more that
stop where the first operation would start, and the median is reported.
With ``--trace 1`` the same workload runs with the per-layer wrappers
installed and the per-layer metrics are printed.  Every time is
reference-normalised (see refloop.py).  The result is also written to
bench/out/, and the traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refloop  # noqa: E402

WORKLOADS = ("recognize", "crosscheck", "queries")
SETUP_SAMPLES = 4
# Time limits per process, so a run ends within 180 s even if one hangs.
SETUP_TIMEOUT_S = 20
MAIN_GRACE_S = 60


class ChildFailed(RuntimeError):
    pass


def run_child(args, workdir: Path, *, setup_only: bool) -> tuple[float, dict]:
    """Start bench/workload.py and wait for it; returns (spawn time, its JSON)."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        cmd.append("--trace")
    timeout = SETUP_TIMEOUT_S if setup_only else args.seconds + MAIN_GRACE_S
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"workload process timed out after {exc.timeout:.0f}s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(spawned: float, child: dict) -> float:
    """Spawn to first operation, scaled by the reference loop sampled then."""
    return (child["ready"] - spawned) * refloop.NOMINAL_S / child["ref_setup"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lkconvex" / "__init__.py").is_file():
        print(f"error: no lkconvex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_root = HERE / ".work"
    out_dir = HERE / "out"
    work_root.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                workdir = Path(tempfile.mkdtemp(dir=work_root))
                try:
                    setups.append(setup_seconds(*run_child(args, workdir, setup_only=True)))
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
        workdir = Path(tempfile.mkdtemp(dir=work_root))
        try:
            spawned, child = run_child(args, workdir, setup_only=False)
            if args.trace and (workdir / "spans.jsonl").exists():
                shutil.move(str(workdir / "spans.jsonl"), out_dir / f"spans-{stem}.jsonl")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        setups.append(setup_seconds(spawned, child))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in child["layers"].items()}
        if child["absent"]:
            print(f"trace: wrapper targets absent: {', '.join(child['absent'])}")
        print(f"trace: {child['spans_kept']} spans kept, {child['spans_dropped']} dropped")
    else:
        metrics = {
            "ops_per_s": {"value": child["ops_per_s"], "unit": "1/ref-s"},
            "op_p50_ms": {"value": child["op_p50_ms"], "unit": "ref-ms"},
            "op_tail_ms": {"value": child["op_tail_ms"], "unit": "ref-ms"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(f"{args.workload} seed {args.seed}: {child['rounds']} rounds of "
          f"{child['ops_per_round']} ops, {child['attempted']} attempted, "
          f"{child['failed']} failed, tail = p{child['tail_pct']:g}")
    kinds = sorted(child["failures"].items())
    for key, count in kinds[:20]:
        print(f"  failed x{count}: {key}")
    if len(kinds) > 20:
        print(f"  ... and {len(kinds) - 20} more kinds of failure")
    print(f"reference-normalised: {child['ops_per_s']:.2f} ops/s, p50 {child['op_p50_ms']:.3f} ms, "
          f"p{child['tail_pct']:g} {child['op_tail_ms']:.2f} ms")
    print(f"raw wall clock: {child['raw_ops_per_s']:.2f} ops/s, p50 {child['raw_op_p50_ms']:.3f} ms; "
          f"reference loop median {child['ref_median_s'] * 1e6:.0f} us "
          f"(nominal {refloop.NOMINAL_S * 1e6:.0f} us) over {child['ref_samples']} samples")
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
