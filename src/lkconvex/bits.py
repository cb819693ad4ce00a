"""Bitmask helpers: a set of vertices drawn from 0..n-1 is stored as an int."""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(mask: int) -> frozenset[int]:
    """Bitmask to a frozenset of vertex ids."""
    return frozenset(iter_bits(mask))
