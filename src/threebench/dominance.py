"""Bichromatic dominating-pairs reporting by divide and conquer.

Reports every (red p, blue q) with p >= q coordinatewise (non-strict).
Coordinates only need to be totally ordered and mutually comparable, so
callers may use floats or lexicographic tuples; the latter is how the
solvers emulate tie-broken (perturbed) reals exactly.

Every solver certifies sorted orders through the two helpers at the end:
:func:`match_candidates` matches candidate certificates to (red, blue)
pairs, and :func:`sorting_permutations` applies it to the permutations
of a short sum vector.  No solver builds points or calls
:func:`report_dominating_pairs` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

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


def match_candidates(candidates, red_ids, blue_ids, coords,
                     report=report_dominating_pairs) -> dict:
    """Certify candidates by bichromatic dominance, one report per candidate.

    For each candidate ``c``, every ``i`` in `red_ids` becomes the red point
    ``coords(c, RED, i)`` and every ``j`` in `blue_ids` the blue point
    ``coords(c, BLUE, j)``.  Returns ``{(red_id, blue_id): [candidates]}``
    listing, in candidate order, every candidate whose red point dominates
    its blue point.
    """
    matched: dict = {}
    for cand in candidates:
        points = [LabeledPoint(coords(cand, RED, i), RED, i) for i in red_ids]
        points += [LabeledPoint(coords(cand, BLUE, j), BLUE, j) for j in blue_ids]

        def sink(red, blue, cand=cand):
            matched.setdefault((red.id, blue.id), []).append(cand)

        report(points, sink)
    return matched


def sorting_permutations(reds, blues, width: int) -> dict:
    """For every pair ``(r, b)``, the permutation of ``range(width)`` that
    sorts ``reds[r][k] + blues[b][k]``, ties broken by k.

    Fredman's trick: the permutation sorts the sums exactly when each
    consecutive red difference ``(dv, dk)`` dominates the negated blue
    difference ``(-dv, 0)``, compared lexicographically.  Returns
    ``{(r, b): permutation}``.
    """

    def coords(pi, color, i):
        if color == RED:
            v = reds[i]
            return tuple((v[pi[x + 1]] - v[pi[x]], pi[x + 1] - pi[x])
                         for x in range(width - 1))
        v = blues[i]
        return tuple((v[pi[x]] - v[pi[x + 1]], 0) for x in range(width - 1))

    matched = match_candidates(permutations(range(width)), range(len(reds)),
                               range(len(blues)), coords)
    assert len(matched) == len(reds) * len(blues), "a pair matched no permutation"
    assert all(len(perms) == 1 for perms in matched.values()), \
        "two permutations matched one pair"
    return {pair: perms[0] for pair, perms in matched.items()}
