"""Bichromatic dominating-pairs reporting by divide and conquer.

Reports every (red p, blue q) with p >= q coordinatewise (non-strict).
Coordinates are all ints or all floats without NaN, which compare exactly;
anything else is refused.  Tie-broken (perturbed) reals are emulated
exactly by lexicographic (value, row tag, col tag) triples, and the solvers
pass their integer ranks.

:func:`report_dominating_pairs` runs the recursion on point indices, each
colour kept sorted on the coordinate it splits, so that only a call one
dimension down sorts.  It only records its leaves; their candidate pairs
are then tested together in a few array passes, and the dominating ones
go to the sink as arrays of positions, one call per batch.

Solvers certify sorted orders by Fredman's trick in one of two ways.  The
contour catalog's ``threesum.match_boxes`` ranks the triples of every
difference column once, builds points from each catalog entry's columns,
calls :func:`report_dominating_pairs` once per entry, turns each batch into
box codes, and groups the reported pairs by box in one sort.
:func:`sorting_permutations` certifies the permutations of a short sum
vector for the permutation matchers, as one array kernel that evaluates
the same coordinate comparisons for all pairs at once and builds no points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations
from typing import Callable, Sequence

import numpy as np

RED = "red"
BLUE = "blue"

BRUTE_FORCE_CUTOFF = 16

# candidate pairs the pending leaves may hold before they are tested
_FLUSH_PAIRS = 1 << 16


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
                            sink: Callable[[np.ndarray, np.ndarray], None]) -> int:
    """Send every dominating (red, blue) pair to `sink`; return the count.

    Recursion: split at the median of the last coordinate (blue points
    precede red points on ties) and recurse on the two halves plus a cross
    call in one dimension fewer on the left blues against the right reds.
    A call on at most ``BRUTE_FORCE_CUTOFF`` points or in at most one
    dimension is a leaf: each of its reds against each of its blues, the
    pair dominating unless some coordinate of the red is ``<`` the blue's
    (in dimension 0, every pair).  Leaves are tested in batches, and each
    batch with a dominating pair is one call ``sink(red_at, blue_at)``: two
    aligned integer arrays of the pairs' red and blue positions in
    `points`.  Batches run leaf by leaf in recursion order, red-major.
    Refuses, with ValueError, a colour other than ``RED`` and ``BLUE``, and
    coordinates that are not all ints or all floats without NaN.
    """
    if not points:
        return 0
    dim = len(points[0].coords)
    reds, blues = [], []
    for at, p in enumerate(points):
        if len(p.coords) != dim:
            raise ValueError("all points must share one dimension")
        if p.color == RED:
            reds.append(at)
        elif p.color == BLUE:
            blues.append(at)
        else:
            raise ValueError(f"colour must be {RED!r} or {BLUE!r}, got {p.color!r}")
    for side in (reds, blues):
        if len({points[at].id for at in side}) != len(side):
            raise ValueError("ids must be unique per color")
    if not reds or not blues:
        return 0
    call = _Report(points, reds + blues, sink)
    call.split(list(range(len(reds))), list(range(len(reds), len(points))), dim)
    return call.flush()


def _table(rows) -> np.ndarray:
    """The ``(point, dimension)`` array of the coordinates the leaves compare;
    refuses, with ValueError, any but all ints or all floats without NaN.
    Those are totally ordered, so the median split can merge the two
    colours' stable sorts on one coordinate, blue before red on ties."""
    table = np.array(rows)  # nested coordinates of unequal lengths raise ValueError here
    floats = table.dtype.kind == "f" and not np.isnan(table).any() \
        and all(isinstance(v, float) for v in chain.from_iterable(rows))
    if table.ndim != 2 or not (floats or table.dtype.kind in "iu"):
        raise ValueError("coordinates must be all ints or all floats without NaN")
    return table


class _Report:
    """One call's recursion on point indices, the points being the caller's
    at positions `order`, reds before blues, and its pending leaves: tested
    together, and their dominating pairs sent to the sink as positions in
    the caller's points, whenever their candidate pairs reach
    ``_FLUSH_PAIRS``."""

    def __init__(self, points, order, sink):
        coords = [points[at].coords for at in order]
        self.order = np.array(order)
        self.sink = sink
        self.columns = np.ascontiguousarray(_table(coords).T)
        self.keys = list(zip(*coords))
        self.reds: list = []
        self.blues: list = []
        self.shapes: list = []
        self.size = 0
        self.count = 0

    def split(self, reds, blues, dim, ordered=False) -> None:
        """Recurse on `reds` against `blues` in `dim` dimensions; `ordered`
        says each list is already stably sorted on coordinate ``dim - 1``."""
        if dim <= 1 or len(reds) + len(blues) <= BRUTE_FORCE_CUTOFF:
            self.add(reds, blues, dim)
            return
        # Median split on the last coordinate; among equal coordinates blue
        # points precede red points, so no dominating pair has its red point
        # left of its blue point.  The left half of that merge is a prefix
        # of each colour's sort, `a` reds and `mid - a` blues, and each half
        # is already sorted for its same-dimension child.
        key = self.keys[dim - 1]
        if not ordered:
            reds = sorted(reds, key=key.__getitem__)
            blues = sorted(blues, key=key.__getitem__)
        mid = (len(reds) + len(blues) + 1) // 2
        a, hi = max(0, mid - len(blues)), min(mid, len(reds))
        while a < hi:  # the fewest reds whose next red is not before the last blue
            t = (a + hi) // 2
            if key[reds[t]] < key[blues[mid - t - 1]]:
                a = t + 1
            else:
                hi = t
        reds_l, reds_r = reds[:a], reds[a:]
        blues_l, blues_r = blues[:mid - a], blues[mid - a:]
        if reds_l and blues_l:
            self.split(reds_l, blues_l, dim, True)
        if reds_r and blues_r:
            self.split(reds_r, blues_r, dim, True)
        if reds_r and blues_l:
            self.split(reds_r, blues_l, dim - 1)

    def add(self, reds, blues, dim) -> None:
        self.reds += reds
        self.blues += blues
        self.shapes.append((len(reds), len(blues), dim))
        self.size += len(reds) * len(blues)
        if self.size >= _FLUSH_PAIRS:
            self.flush()

    def flush(self) -> int:
        """Test the pending leaves; return the pairs reported so far."""
        if self.shapes:
            red, blue = _dominating(self.columns, self.reds, self.blues, self.shapes)
            self.reds, self.blues, self.shapes, self.size = [], [], [], 0
            self.count += len(red)
            if len(red):
                self.sink(self.order[red], self.order[blue])
        return self.count


def _dominating(columns, reds, blues, shapes):
    """The dominating pairs among the leaves' candidate pairs, as arrays of
    red and blue points, indices into each row of the ``(dimension, point)``
    table `columns`.  The leaves' reds and blues are listed leaf after leaf,
    and ``shapes`` holds each leaf's red count, blue count and dimension.
    Candidates run leaf after leaf, red-major, and a pair fails where, in
    one of its leaf's dimensions, its red coordinate is ``<`` its blue one;
    the dimensions are tested one at a time."""
    nr, nb, dims = np.array(shapes).T
    run = nb.repeat(nr)  # each red's run of candidates: its leaf's blues
    red = np.array(reds).repeat(run)
    # a candidate's blue: its leaf's first blue plus its place in the run
    first = (nb.cumsum() - nb).repeat(nr) - (run.cumsum() - run)
    blue = np.array(blues)[first.repeat(run) + np.arange(len(red))]
    width, low = dims.max(), dims.min()
    if low < width:
        dim_of = dims.repeat(nr * nb)
    ok = np.ones(len(red), dtype=bool)
    for k, column in enumerate(columns[:width]):
        holds = column[red] >= column[blue]
        if k >= low:
            holds |= dim_of <= k  # past its leaf's dimensions
        ok &= holds
    return red[ok], blue[ok]


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
    Raises ValueError unless every row holds `width` values.  On exact
    differences, which the solvers' boundaries ensure, the tie rule makes
    (sum, index) a strict order: each pair matches one permutation.
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
    assert (count == 1).all(), "a pair did not match exactly one permutation"
    return perms, index


def _rows(rows, width: int) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    if arr.size == 0 and arr.ndim == 1:
        arr = arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"every row must hold width = {width} values")
    return arr
