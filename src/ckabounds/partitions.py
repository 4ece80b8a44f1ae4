"""Set-partition enumeration by growing blocks one item at a time."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .secrecy import EXHAUSTIVE_LIMIT, integer


def set_partitions(items: Sequence) -> Iterator[list[list]]:
    """Yield every partition of `items` as a list of blocks.

    Each item in turn joins every open block, then opens a new one, so
    blocks appear in order of their smallest member and the partitions in
    lexicographic order of their restricted-growth strings.  The number of
    partitions is the Bell number of len(items), so keep the argument small.
    """
    items = list(items)
    blocks: list[list] = []

    def grow(i: int) -> Iterator[list[list]]:
        if i == len(items):
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(items[i])
            yield from grow(i + 1)
            b.pop()
        blocks.append([items[i]])
        yield from grow(i + 1)
        blocks.pop()

    yield from grow(0)


@lru_cache(maxsize=None)
def partitions_as_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of range(n), n in 0..EXHAUSTIVE_LIMIT, each block encoded as a bitmask.

    The brute-force reference that tests hold the channel search's DP to."""
    return tuple(tuple(sum(1 << i for i in block) for block in blocks)
                 for blocks in set_partitions(range(integer(n, "n", 0, EXHAUSTIVE_LIMIT))))
