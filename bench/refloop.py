"""The fixed reference loop that removes machine-speed drift from timings.

The CPU speed of a small shared machine moves in plateaus lasting seconds,
so every timed quantity is divided by the speed of this loop measured next
to it.  The loop is pure Python and mixes the kinds of work the program
does: integer bitmask algebra, dict and list traffic, tuple building and
function calls.  Its body and ``NOMINAL_S`` must never change once set:
every figure the benchmark reports is scaled to a machine on which one
``sample()`` takes ``NOMINAL_S`` seconds.
"""

from __future__ import annotations

import gc
import time

# Wall time of one sample on the machine the nominal scale refers to.
NOMINAL_S = 0.0006
_REPS = 160
_TRIES = 3


def _bits(mask: int) -> int:
    count = 0
    while mask:
        low = mask & -mask
        count += low.bit_length()
        mask ^= low
    return count


def _body(reps: int) -> int:
    table: dict[int, tuple[int, int]] = {}
    acc = 0x9E3779B97F4A7C15
    out: list[int] = []
    for i in range(reps):
        acc = (acc * 6364136223846793005 + 1442695040888963407) & ((1 << 96) - 1)
        key = acc >> 80
        prev = table.get(key)
        table[key] = (i, acc & 0xFFFF)
        if prev is not None:
            out.append(prev[1] ^ i)
        out.append(_bits(acc & 0xFFFFFFFF))
    return sum(out) + len(table)


def sample() -> float:
    """Seconds one pass of the loop takes now: the best of a few tries,
    with the cyclic garbage collector paused so the program's heap cannot
    slow the loop down."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(_TRIES):
            t0 = time.perf_counter()
            _body(_REPS)
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best
