"""Convolution form of 3SUM: is A(i) + A(j) = A(i+j) for some i, j?

The blocked solver cuts the implicit (unsorted) sum matrix A+A into
index-aligned boxes and runs the grouped-search kernel of :mod:`core` on
them: :func:`sort_segments` sorts each block once, at arity 2;
:func:`difference_ticks` then merges each block's difference list from its
rows once, for its row and its column role alike, and places the column
copy by equal-value runs; every box's order follows from them for free;
and two bisections, priced in closed form, locate each A(k) in the boxes
its antidiagonal crosses.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .core import (ComparisonLedger, _bound_depths, as_reals, cut_groups, difference_ticks,
                   sort_segments)


def oracle_conv3sum(values: Sequence[float]) -> Optional[tuple[int, int]]:
    """First (i, j) in lexicographic order with A(i) + A(j) = A(i+j)."""
    arr = [float(v) for v in values]
    n = len(arr)
    for i in range(n):
        for j in range(n - i):
            if arr[i] + arr[j] == arr[i + j]:
                return (i, j)
    return None


def default_block_size(n: int) -> int:
    return max(1, math.ceil(math.sqrt(n)))


def solve_conv_naive(values: Sequence[float], ledger: ComparisonLedger):
    """The quadratic scan: :func:`oracle_conv3sum`, with one 3-linear tick per
    pair (i, j) it tests in lexicographic order, up to the first witness."""
    arr = as_reals(values)
    witness = oracle_conv3sum(arr)
    i, j = witness or (len(arr), -1)
    ledger.tick(3, i * len(arr) - i * (i - 1) // 2 + j + 1)
    return witness


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
    ticks per probe); a match counts only on the antidiagonal.  The search
    stops at the first k with a match and reports its lexicographically
    least pair.  Boxes go band by band (``bi + bj`` ascending): no box
    after band b crosses a k below ``(b + 1) g``.

    `probe_log`, when given, maps k to the list of candidate cells
    examined for that key.
    """
    a = np.array(as_reals(values))
    n = len(a)
    g = group_size if group_size is not None else default_block_size(n)
    blocks = cut_groups(a, g)
    m = len(blocks)
    difference_ticks(sort_segments([(blk, range(len(blk)), "both") for blk in blocks], ledger),
                     ledger)

    probes = np.zeros(n, dtype=np.int64)
    matched = np.zeros(n, dtype=bool)  # some crossed box holds a sum equal to A(k)
    last, witness = n - 1, None
    for band in range(m):
        k0 = band * g
        for bi in range(band + 1):
            row, col = blocks[bi], blocks[band - bi]
            k1 = min(n, k0 + len(row) + len(col) - 1)
            sums = np.add.outer(row, col).ravel()
            sums.sort()
            left = sums.searchsorted(a[k0:k1], "left")
            right = sums.searchsorted(a[k0:k1], "right")
            depth = _bound_depths(len(sums))
            probes[k0:k1] += depth[left] + depth[right]
            matched[k0:k1] |= left < right
        for k in k0 + np.flatnonzero(matched[k0:k0 + g]):
            i = np.flatnonzero(a[:k + 1] + a[k::-1] == a[k])  # cells (i, k - i)
            if len(i):
                last, witness = int(k), (int(i[0]), int(k - i[0]))
                break
        if witness is not None:
            break
    ledger.tick(3, int(probes[:last + 1].sum()))
    if probe_log is not None:
        for k in range(last + 1):
            probe_log[k] = antidiagonal_cells(n, k)
    return witness
