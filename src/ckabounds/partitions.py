"""Set-partition enumeration via restricted-growth strings."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence


def set_partitions(items: Sequence) -> Iterator[list[list]]:
    """Yield every partition of `items` as a list of blocks.

    Blocks appear in order of their smallest member.  The number of
    partitions is the Bell number of len(items), so keep the argument small.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        yield []
        return
    a = [0] * n  # restricted-growth string: a[i] <= max(a[:i]) + 1
    prefix_max = [0] * n
    while True:
        blocks: list[list] = [[] for _ in range(max(a) + 1)]
        for x, label in zip(items, a):
            blocks[label].append(x)
        yield blocks
        i = n - 1
        while i > 0 and a[i] > prefix_max[i - 1]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        prefix_max[i] = max(prefix_max[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            prefix_max[j] = prefix_max[i]


@lru_cache(maxsize=None)
def partitions_as_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of range(n), each block encoded as a bitmask.

    The brute-force reference that tests hold the channel search's DP to."""
    out = []
    for blocks in set_partitions(range(n)):
        out.append(tuple(sum(1 << i for i in block) for block in blocks))
    return tuple(out)
