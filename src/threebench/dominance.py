"""Bichromatic dominating-pairs reporting by divide and conquer.

Reports every (red p, blue q) with p >= q coordinatewise (non-strict).
Coordinates only need to be totally ordered and mutually comparable, so
callers may use floats, lexicographic tuples, or integer ranks of either.
Tie-broken (perturbed) reals are emulated exactly by lexicographic
(value, row tag, col tag) triples, and the solvers pass their ranks.

Solvers certify sorted orders by Fredman's trick in one of two ways.  The
contour catalog's ``threesum.match_boxes`` ranks the triples of every
difference column once, builds points from each catalog entry's columns,
and calls :func:`report_dominating_pairs` once per entry.
:func:`sorting_permutations` certifies the permutations of a short sum
vector for the permutation matchers, as one array kernel that evaluates
the same coordinate comparisons for all pairs at once and builds no points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

RED = "red"
BLUE = "blue"

BRUTE_FORCE_CUTOFF = 16


@dataclass(frozen=True)
class LabeledPoint:
    coords: tuple
    color: str
    id: int


def c_epsilon(epsilon: float) -> float:
    """Cost constant of the divide and conquer: c = 2^eps / (2^eps - 1)."""
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    num = 2.0 ** epsilon
    return num / (num - 1.0)


def report_dominating_pairs(points: Sequence[LabeledPoint],
                            sink: Callable[[LabeledPoint, LabeledPoint], None]
                            ) -> int:
    """Invoke sink once per dominating (red, blue) pair; return the count.

    Recursion: dimension 0 reports every red/blue pair; otherwise split at
    the median of the last coordinate (blue points precede red points on
    ties) and recurse on the two halves plus a cross call in one dimension
    fewer on the left blues against the right reds.
    """
    if not points:
        return 0
    dim = len(points[0].coords)
    for p in points:
        if len(p.coords) != dim:
            raise ValueError("all points must share one dimension")
    reds = [p for p in points if p.color == RED]
    blues = [p for p in points if p.color == BLUE]
    if len({p.id for p in reds}) != len(reds) or len({p.id for p in blues}) != len(blues):
        raise ValueError("ids must be unique per color")
    if not reds or not blues:
        return 0
    return _report(reds, blues, dim, sink)


def _brute(reds, blues, dim, sink) -> int:
    count = 0
    for red in reds:
        rc = red.coords
        for blue in blues:
            bc = blue.coords
            ok = True
            for t in range(dim):
                if rc[t] < bc[t]:
                    ok = False
                    break
            if ok:
                sink(red, blue)
                count += 1
    return count


def _report(reds, blues, dim, sink) -> int:
    if not reds or not blues:
        return 0
    if dim == 0:
        # every red dominates every blue vacuously
        for red in reds:
            for blue in blues:
                sink(red, blue)
        return len(reds) * len(blues)
    n = len(reds) + len(blues)
    if n <= BRUTE_FORCE_CUTOFF or dim <= 1:
        return _brute(reds, blues, dim, sink)

    # Median split on the last coordinate; among equal coordinates blue
    # points precede red points, so no dominating pair has its red point
    # left of its blue point.
    last = dim - 1
    merged = sorted(reds + blues,
                    key=lambda p: (p.coords[last], 0 if p.color == BLUE else 1))
    mid = (n + 1) // 2
    left, right = merged[:mid], merged[mid:]
    assert len(left) <= mid and len(right) <= mid
    reds_l = [p for p in left if p.color == RED]
    blues_l = [p for p in left if p.color == BLUE]
    reds_r = [p for p in right if p.color == RED]
    blues_r = [p for p in right if p.color == BLUE]

    count = _report(reds_l, blues_l, dim, sink)
    count += _report(reds_r, blues_r, dim, sink)
    count += _report(reds_r, blues_l, dim - 1, sink)
    return count


# -- certification by Fredman's trick ------------------------------------------


def sorting_permutations(reds, blues, width: int):
    """For every pair ``(r, b)``, the permutation of ``range(width)`` that
    sorts ``reds[r][k] + blues[b][k]``, ties broken by k.

    Fredman's trick: a permutation ``pi`` sorts the sums exactly when, for
    every ``x``, the red difference ``reds[r][pi[x+1]] - reds[r][pi[x]]``
    dominates the negated blue difference ``blues[b][pi[x]] - blues[b][pi[x+1]]``,
    a tie counting only when ``pi[x+1] > pi[x]`` (the lexicographic
    ``(dv, dk) >= (-dv, 0)`` of the tie-broken reals).  Each consecutive
    index pair is compared once, over all (r, b) pairs at once.

    Returns ``(perms, index)``: the ``(width!, width)`` table of permutations
    in ``itertools.permutations`` order, and the ``(len(reds), len(blues))``
    array whose entry ``[r, b]`` is the row of `perms` matched by that pair.
    Raises ValueError unless every row holds `width` values and every pair
    matches exactly one permutation (rounded differences can match several).
    """
    reds, blues = _rows(reds, width), _rows(blues, width)
    perms = np.array(list(permutations(range(width))), dtype=np.intp)
    before = {}
    for p in range(width):
        for q in range(width):
            if p != q:
                red = (reds[:, q] - reds[:, p])[:, None]
                blue = (blues[:, p] - blues[:, q])[None, :]
                before[p, q] = red >= blue if q > p else red > blue

    shape = (len(reds), len(blues))
    index = np.zeros(shape, dtype=np.intp)
    count = np.zeros(shape, dtype=np.intp)
    for row, pi in enumerate(perms.tolist()):
        match = np.ones(shape, dtype=bool)
        for p, q in zip(pi, pi[1:]):
            match &= before[p, q]
        count += match
        np.copyto(index, row, where=match)
    if (count == 0).any():
        raise ValueError("a pair matched no permutation")
    if (count > 1).any():
        raise ValueError("two permutations matched one pair: its rounded "
                         "differences order no single permutation")
    return perms, index


def _rows(rows, width: int) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    if arr.size == 0 and arr.ndim == 1:
        arr = arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"every row must hold width = {width} values")
    return arr
