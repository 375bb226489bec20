"""Convolution form of 3SUM: is A(i) + A(j) = A(i+j) for some i, j?

The blocked solver cuts the implicit (unsorted) sum matrix A+A into
index-aligned boxes and runs the grouped-search kernel of :mod:`core` on
them: :func:`difference_ticks` pays once for the within-block difference
lists, :func:`box_order` deduces a box's order for free, and two counted
bounds locate each A(k) only in the boxes its antidiagonal crosses.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence

from .core import (ComparisonLedger, as_reals, box_order, difference_ticks, lower_bound,
                   upper_bound)


def oracle_conv3sum(values: Sequence[float]) -> Optional[tuple[int, int]]:
    """First (i, j) in lexicographic order with A(i) + A(j) = A(i+j)."""
    arr = [float(v) for v in values]
    n = len(arr)
    for i in range(n):
        for j in range(n - i):
            if arr[i] + arr[j] == arr[i + j]:
                return (i, j)
    return None


def antidiagonal_cells(n: int, k: int) -> list[tuple[int, int]]:
    """All in-range cells (i, k-i); rows and columns are pairwise distinct."""
    lo = max(0, k - (n - 1))
    hi = min(k, n - 1)
    return [(i, k - i) for i in range(lo, hi + 1)]


def solve_conv_blocked(values: Sequence[float], group_size: Optional[int],
                       ledger: ComparisonLedger, probe_log: Optional[dict] = None):
    """Blocked search; returns a witness (i, j) or None.

    For each k the key A(k) is located inside each crossed box via a pair
    of boundary binary searches over the box's deduced order (3-linear
    ticks per probe); the matching run is then filtered to antidiagonal
    cells by index arithmetic alone.  When several cells on one
    antidiagonal match, the lexicographically least pair is reported.

    `probe_log`, when given, maps k to the list of candidate cells
    examined for that key.
    """
    arr = as_reals(values)
    n = len(arr)
    if n == 0:
        return None
    g = group_size if group_size is not None else max(1, math.ceil(math.sqrt(n)))
    if g < 1:
        raise ValueError("group size must be >= 1")
    m = -(-n // g)

    blocks = [arr[b * g:(b + 1) * g] for b in range(m)]
    difference_ticks([(blk, range(len(blk)), role)
                      for role in ("row", "col") for blk in blocks], ledger)
    ledger.snapshot("differences_sorted")

    @lru_cache(maxsize=None)
    def box(bi, bj):
        return box_order(blocks[bi], blocks[bj])

    for k in range(n):
        key = arr[k]
        cells = antidiagonal_cells(n, k)
        if probe_log is not None:
            probe_log[k] = list(cells)
        hits = []
        idx = 0
        while idx < len(cells):
            bi, bj = cells[idx][0] // g, cells[idx][1] // g
            run = [cells[idx]]
            idx += 1
            while idx < len(cells) and cells[idx][0] // g == bi and cells[idx][1] // g == bj:
                run.append(cells[idx])
                idx += 1
            order, raws = box(bi, bj)
            lb = lower_bound(raws, key, ledger)
            ub = upper_bound(raws, key, ledger)
            if lb >= ub:
                continue
            matched = {(bi * g + x, bj * g + y) for (x, y) in order[lb:ub]}
            hits.extend(cell for cell in run if cell in matched)
        if hits:
            return min(hits)
    return None
