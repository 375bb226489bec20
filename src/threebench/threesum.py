"""3SUM solvers with instrumented comparison counts.

Four solver families share the same staircase search over a grid of
group-pair boxes:

* ``solve_quadratic`` - the classic two-pointer walk, one 3-linear tick
  per step, stepped for many keys at once up to the first witness.
* ``solve_decision_tree`` - groups the sorted input, pays for one sorted
  difference list, deduces every box's order from it for free, then
  binary-searches boxes.
* ``solve_subquadratic_simple`` - sorts boxes by enumerating all sorting
  permutations of a tiny box and matching boxes to permutations through
  bichromatic dominance.
* ``solve_subquadratic`` - the contour-catalog algorithm: boxes are
  certified piecewise by pairs of search contours anchored at a fixed
  position set, legal pairs are enumerated once per parameter choice, each
  with every order of the gap between its contours that a box with
  ascending rows and columns can take (the linear extensions of the gap's
  product order), and dominance matching, on integer ranks of the tagged
  differences, assigns a certified layer structure to every box.

The decision-tree solver runs one vectorised path at every n and on every
input: it prices each box probe from the depth tables of the canonical
binary search, ties included, without materialising tagged objects.  Every
box order that is known before the walk, whether deduced free from the
difference list (the decision tree's reference mode) or certified by a
contour catalog or a whole-box permutation, goes to one walk, which
searches every visited box at once, one probe per array step.  The test
suite holds it to per-box searchers walked visit by visit, and the fast
path to it, with identical ledger counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import (
    ComparisonLedger,
    _binsearch_depths,  # unused here; perfbench's fill_caches reads it
    _staircase,
    as_reals,
    box_order,
    cut_groups,
    difference_ticks,
    mergesort_tick_count,
    search_visits,
    sort_differences,
    sorted_counted,
    ternary_search,  # unused here; perfbench's tracer wraps it by this name
)
from .dominance import BLUE, RED, LabeledPoint, report_dominating_pairs, sorting_permutations

# largest n that solve_decision_tree sends to the pure-Python reference by
# default: none, the fast path runs at every n; perfbench's fill_caches reads it
_REFERENCE_LIMIT = 0

# guards against enumerations too large to finish: catalog entries for
# enumerate_legal_pairs, box-sorting permutations for solve_subquadratic_simple
CATALOG_BUDGET = 1_000_000
PERM_BUDGET = 400_000


def default_group_size(n: int) -> int:
    """Group size sqrt(n log2(n+2)), the sweet spot for the grouped search."""
    if n <= 1:
        return 1
    return max(1, math.ceil(math.sqrt(n * math.log2(n + 2))))


def default_simple_group_size(n: int) -> int:
    return 1 if n < 4 else 2


# ---------------------------------------------------------------------------
# contours


@dataclass(frozen=True)
class Contour:
    """The staircase a two-pointer search traces through a box.

    ``steps`` are the visited positions starting at the NE corner;
    ``moves[t]`` is 'S' (value <= key, row pointer advances) or 'W'
    (value > key, column pointer retreats) at ``steps[t]``.
    """

    steps: tuple[tuple[int, int], ...]
    moves: tuple[str, ...]
    nrows: int
    ncols: int

    def __post_init__(self):
        if len(self.steps) != len(self.moves) or not self.steps:
            raise ValueError("steps and moves must align and be nonempty")
        if self.steps[0] != (0, self.ncols - 1):
            raise ValueError("contour must start at the NE corner")
        for t in range(len(self.steps) - 1):
            lo, hi = self.steps[t]
            nxt = (lo + 1, hi) if self.moves[t] == "S" else (lo, hi - 1)
            if self.steps[t + 1] != nxt:
                raise ValueError("contour steps must follow the moves")
        lo, hi = self.steps[-1]
        end = (lo + 1, hi) if self.moves[-1] == "S" else (lo, hi - 1)
        if not (end[0] == self.nrows or end[1] == -1):
            raise ValueError("contour must terminate off-grid")


def leq_positions(contour: Contour) -> frozenset:
    """Positions whose value is <= the contour's key.

    Each row the path leaves by its 'S' step at column c holds ``(r, 0..c)``
    on the <= side: the row ascends, so nothing west of ``(r, c)`` is
    larger.  The row the path leaves the grid from, westward, holds none,
    and so does a row it never reaches.
    """
    return frozenset((r, j) for (r, c), mv in zip(contour.steps, contour.moves) if mv == "S"
                     for j in range(c + 1))


# ---------------------------------------------------------------------------
# oracle and quadratic baseline


def oracle_3sum(values: Sequence[float]) -> Optional[tuple[float, float, float]]:
    """Exhaustive scan over all ordered triples (repeats allowed), one n x n
    slab of sums per first value; the first zero triple in index order."""
    arr = np.asarray(values, dtype=np.float64)
    if len(arr) > 400:
        raise ValueError("oracle capped at n=400")
    for x in arr:
        idx = np.argwhere((x + arr[:, None]) + arr[None, :] == 0.0)
        if len(idx):
            j, k = idx[0]
            return (float(x), float(arr[j]), float(arr[k]))
    return None


def _sort_unique_counted(values, ledger) -> np.ndarray:
    """Sort, then drop each value equal to its predecessor: one 2-linear tick
    per comparison of the sort and per adjacent pair, all booked to
    ``sort_input``."""
    svals = np.array(sorted_counted(values, ledger))
    ledger.tick(2, max(len(svals) - 1, 0), "sort_input")
    return svals[np.append(True, svals[1:] != svals[:-1])] if len(svals) else svals


# row strips of solve_quadratic's walk; it walks len(keys) / _STRIPS keys at
# a time
_STRIPS = 4


def _walk_length(lo, hi, end_lo, end_hi):
    """Steps of a two-pointer walk from (lo, hi) to (end_lo, end_hi): each
    step moves one pointer by one."""
    return (end_lo - lo) + (hi - end_hi)


def _walk_end(ua, ub, keys, lend, r0, r1):
    """Where the walk of each key through rows [r0, r1) leaves them when it
    starts in row r0 at or right of that row's last column with sum <= key:
    through column -1 at the first row whose sum with ub[0] exceeds the key
    (``lend``, at least r0), else below row r1 - 1 at that row's last column
    with sum <= key."""
    last = np.searchsorted(ua[r1 - 1] + ub, keys, side="right") - 1
    by_col = lend < r1
    return np.where(by_col, np.maximum(lend, r0), r1), np.where(by_col, -1, last)


def solve_quadratic(a_vals, b_vals, c_vals, ledger: ComparisonLedger):
    """Two-pointer walk over the sorted, deduplicated a and b for every key
    -c; returns the first ``(a, b, c)`` it steps on with a + b == -c, or None.

    One 3-linear tick per step of every walk run to its end, booked in
    closed form: the step's sign query answers both the equality test and
    the direction choice, and an equal sum advances the low pointer.  The
    walk itself is stepped on raw sums for a chunk of keys at once
    (:func:`_walk_strips`) up to its first hit, which need not be the first
    witness in input order."""
    ua = _sort_unique_counted(as_reals(a_vals), ledger)
    ub = _sort_unique_counted(as_reals(b_vals), ledger)
    keys = -np.asarray(as_reals(c_vals))
    if len(ua) == 0 or len(ub) == 0 or len(keys) == 0:
        return None
    na, nb = len(ua), len(ub)
    strips = min(_STRIPS, na)
    cuts = np.arange(strips + 1) * na // strips
    chunk = -(-len(keys) // _STRIPS)
    lend = np.searchsorted(ua + ub[0], keys, side="right")
    walk = _walk_length(0, nb - 1, *_walk_end(ua, ub, keys, lend, 0, na))
    ledger.tick(3, int(walk.sum()))
    chunks = (_walk_strips(ua, ub, keys[i:i + chunk], lend[i:i + chunk], cuts)
              for i in range(0, len(keys), chunk))
    return next((witness for witness in chunks if witness is not None), None)


def quadratic_tick_count(a_vals, b_vals, c_vals, ledger: ComparisonLedger) -> bool:
    """:func:`solve_quadratic`'s decision as a bool.  It stays because the
    benchmark calls and traces it by this name, and puts the bool in one set
    with the other solvers' decisions."""
    return solve_quadratic(a_vals, b_vals, c_vals, ledger) is not None


def _walk_strips(ua, ub, keys, lend, cuts):
    """Step the walk of every key through every row strip [cuts[s],
    cuts[s + 1]) at once; return ``(a, b, c)`` at the first step with a sum
    equal to its key ``-c``, or None.

    A strip's walk starts in its first row at the last column with sum <=
    key: the walk from the NE corner reaches that cell, and every cell it
    passes on the way has a sum above the key.  Each walk then takes its
    closed-form length in steps, the longest first, so the live walks are a
    prefix.  A -inf row after every strip and a +inf column -1 push a walk
    that overruns its strip further off it, so a walk that ends anywhere but
    at its closed-form end trips the final assertion.
    """
    uax = np.insert(ua, cuts[1:], -np.inf)  # row r of strip s sits at r + s
    ubx = np.append(ub, np.inf)
    walks = []
    for s, (r0, r1) in enumerate(zip(cuts[:-1], cuts[1:])):
        end_lo, end_hi = _walk_end(ua, ub, keys, lend, r0, r1)
        h0 = np.searchsorted(ua[r0] + ub, keys, side="right") - 1
        walks.append((np.full(len(keys), r0 + s), h0, end_lo + s, end_hi))
    lo, hi, end_lo, end_hi = (np.concatenate(v) for v in zip(*walks))
    steps = _walk_length(lo, hi, end_lo, end_hi)
    order = np.argsort(-steps)
    lo, hi, end_lo, end_hi = lo[order], hi[order], end_lo[order], end_hi[order]
    key = np.tile(keys, len(walks))[order]
    for m in (len(steps) - np.cumsum(np.bincount(steps))[:-1]).tolist():
        l, h, k = lo[:m], hi[:m], key[:m]
        # "wrap" keeps an overrun in bounds, for the assertion to report
        sums = uax.take(l, mode="wrap") + ubx.take(h, mode="wrap")
        hit = sums == k
        if hit.any():
            t = hit.argmax()
            return float(uax[l[t]]), float(ubx[h[t]]), float(-k[t])
        up = sums <= k
        l += up
        h -= ~up
    assert ((lo == end_lo) & (hi == end_hi)).all(), "a walk ended off its closed-form end"
    return None


# ---------------------------------------------------------------------------
# decision-tree solver


def solve_decision_tree(values, group_size: Optional[int], ledger: ComparisonLedger,
                        mode: str = "fast"):
    """Grouped 3SUM search: sort, pay once for the difference list, deduce
    all box orders for free, then walk the group grid binary-searching
    each visited box.

    The ledger books the input sort to ``sort_input``, the difference list
    to ``diff_sort`` and the walk's probes to ``walk``; deducing the box
    orders books nothing.  Returns a witness triple or None.
    ``mode="fast"`` prices every probe from depth tables;
    ``mode="reference"`` sorts the differences in pure Python and hands
    every visited box's free :func:`box_order` to the shared walk
    (:func:`_catalog_walk`); the tests hold the two modes to the same
    ledger counts.
    """
    walk = {"fast": _decision_tree_fast, "reference": _decision_tree_reference}.get(mode)
    if walk is None:
        raise ValueError(f"unknown mode {mode!r}")
    arr = as_reals(values)
    g = group_size if group_size is not None else default_group_size(len(arr))
    svals = sorted_counted(arr, ledger)
    groups = cut_groups(svals, g)
    return walk(svals, groups, g, ledger) if groups else None


def _decision_tree_reference(svals, groups, g, ledger):
    sort_differences([(v, range(len(v)), "both") for v in groups], ledger)
    # every box's sorted order follows from the sorted differences for free
    return _catalog_walk(svals, groups, g, lambda i, j: _box_layout(groups[i], groups[j], g),
                         ledger)


def _decision_tree_fast(svals, groups, g: int, ledger: ComparisonLedger):
    arr = np.array(svals)
    if len(groups) >= (1 << 20):
        raise ValueError("too many groups for the fast path")
    difference_ticks([(seg, np.arange(len(seg)), "both") for seg in groups], ledger)
    k, lo, hi = _triangle_visits(arr, g)
    ticks3, first = search_visits(groups, groups, lo, hi, -arr[k])
    witness = None
    if first is not None:
        c, seg_r, seg_c = arr[k[first]], groups[lo[first]], groups[hi[first]]
        x, y = np.argwhere(np.add.outer(seg_r, seg_c) == -c)[0]
        witness = (float(seg_r[x]), float(seg_c[y]), float(c))
    ledger.tick(3, ticks3)
    return witness


# ---------------------------------------------------------------------------
# position sets


@dataclass(frozen=True)
class PointSet:
    """Anchor positions in a width x width box; both corners are mandatory."""

    width: int
    positions: frozenset

    def __post_init__(self):
        g = self.width
        if g < 1:
            raise ValueError("width must be >= 1")
        for (x, y) in self.positions:
            if not (0 <= x < g and 0 <= y < g):
                raise ValueError(f"position {(x, y)} out of range")
        if (0, 0) not in self.positions or (g - 1, g - 1) not in self.positions:
            raise ValueError("corner positions are mandatory")

    @property
    def count(self) -> int:
        return len(self.positions)


def random_point_set(width: int, count: int, rng: np.random.Generator) -> PointSet:
    """Corners plus count-2 distinct uniform positions."""
    corners = {(0, 0), (width - 1, width - 1)}
    if count < len(corners) or count > width * width:
        raise ValueError(f"count {count} infeasible for width {width}")
    rest = sorted({(x, y) for x in range(width) for y in range(width)} - corners)
    need = count - len(corners)
    chosen = rng.choice(len(rest), size=need, replace=False) if need else []
    positions = corners | {rest[int(t)] for t in chosen}
    return PointSet(width, frozenset(positions))


def grid_spacing(width: int, grid_side: int) -> int:
    return -(-(width + 1) // (grid_side + 1))


def grid_span(width: int, grid_side: int) -> int:
    """Largest between-region size any legal contour pair can have when the
    anchor set is the evenly spaced grid; with this span no box is ever bad."""
    return 2 * width * (grid_spacing(width, grid_side) - 1)


def deterministic_point_set(width: int, grid_side: int) -> PointSet:
    """Corners plus an evenly spaced grid_side x grid_side grid."""
    if grid_side < 0:
        raise ValueError("grid side must be >= 0")
    positions = {(0, 0), (width - 1, width - 1)}
    if grid_side > 0:
        delta = grid_spacing(width, grid_side)
        top = grid_side * delta - 1
        if top > width - 1:
            raise ValueError(f"grid {grid_side}x{grid_side} does not fit width {width}")
        for k in range(1, grid_side + 1):
            for l in range(1, grid_side + 1):
                positions.add((k * delta - 1, l * delta - 1))
    return PointSet(width, frozenset(positions))


def default_point_count(width: int, span: int) -> int:
    """Random-mode anchor count making a box bad with probability <~ 1/width."""
    g = width
    if g <= 1:
        return 1
    raw = 2 + math.ceil(3.0 * g * g * math.log(max(g, 2)) / (span + 1))
    return max(min(4, g * g), min(raw, g * g))


# ---------------------------------------------------------------------------
# legal contour-pair catalog


@lru_cache(maxsize=16)
def _all_contours(width: int) -> tuple[Contour, ...]:
    out = []

    def walk(lo, hi, steps, moves):
        steps.append((lo, hi))
        for mv in ("S", "W"):
            moves.append(mv)
            nlo, nhi = (lo + 1, hi) if mv == "S" else (lo, hi - 1)
            if nlo == width or nhi == -1:
                out.append(Contour(tuple(steps), tuple(moves), width, width))
            else:
                walk(nlo, nhi, steps, moves)
            moves.pop()
        steps.pop()

    walk(0, width - 1, [], [])
    return tuple(out)


@dataclass(frozen=True)
class CatalogEntry:
    tau: Contour
    tau_prime: Contour
    anchor: tuple[int, int]
    anchor_prime: tuple[int, int]
    order: tuple  # mid-region positions in claimed ascending order


@dataclass
class LegalPairCatalog:
    """All legal anchored contour pairs, each with every order of the between
    region that a box can take (:func:`enumerate_legal_pairs`); immutable
    after construction and reusable across instances."""

    width: int
    point_set: PointSet
    span: int
    entries: list


def _linear_extensions(cells):
    """Every order of the sorted tuple `cells` in which no cell comes before a
    cell it dominates componentwise, lazily and in lexicographic order: each
    minimal remaining cell, in sorted order, followed by every such order of
    the rest."""
    if not cells:
        yield ()
    for c in cells:
        if not any(x <= c[0] and y <= c[1] and (x, y) != c for x, y in cells):
            rest = tuple(d for d in cells if d != c)
            for tail in _linear_extensions(rest):
                yield (c,) + tail


def enumerate_legal_pairs(width: int, point_set: PointSet, span: int) -> LegalPairCatalog:
    """Enumerate every (tau, tau', pi) with tau above tau', both anchored at
    point-set positions, and a between region avoiding the point set with at
    most `span` cells; for each, every order of the between region that a
    box can take.

    A box's rows and columns ascend, so its cells sorted by tagged sum
    (sum, x, y) list each cell after every cell it dominates componentwise:
    the orders are the linear extensions of the region's product order, in
    lexicographic order (:func:`_linear_extensions`).  No other order can
    match a box."""
    if span < 0:
        raise ValueError("span must be >= 0")
    if point_set.width != width:
        raise ValueError("point set width mismatch")
    g = width
    contours = _all_contours(g)
    pset = point_set.positions
    masks = []
    anchors = []
    for ct in contours:
        leq = leq_positions(ct)
        bits = 0
        for (x, y) in leq:
            bits |= 1 << (x * g + y)
        masks.append((leq, bits))
        anchors.append([pos for pos, mv in zip(ct.steps, ct.moves)
                        if mv == "S" and pos in pset])

    entries: list[CatalogEntry] = []
    for a, tau in enumerate(contours):
        if not anchors[a]:
            continue
        leq1, bits1 = masks[a]
        for b, tau_p in enumerate(contours):
            if not anchors[b]:
                continue
            leq2, bits2 = masks[b]
            if bits1 & ~bits2:
                continue  # tau must lie weakly above tau'
            mid_base = leq2 - leq1
            for anchor in anchors[a]:
                for anchor_p in anchors[b]:
                    if anchor == anchor_p or anchor_p in leq1:
                        continue
                    mid = mid_base - {anchor_p}
                    if len(mid) > span or mid & pset:
                        continue
                    for pi in _linear_extensions(tuple(sorted(mid))):
                        entries.append(CatalogEntry(tau, tau_p, anchor, anchor_p, pi))
                        if len(entries) > CATALOG_BUDGET:
                            raise ValueError(
                                f"catalog exceeds budget of {CATALOG_BUDGET} entries; "
                                "reduce width or span")
    return LegalPairCatalog(g, point_set, span, entries)


_catalog_cache: dict = {}


def cached_catalog(width: int, point_set: PointSet, span: int) -> LegalPairCatalog:
    key = (width, point_set.positions, span)
    cat = _catalog_cache.get(key)
    if cat is None:
        cat = enumerate_legal_pairs(width, point_set, span)
        _catalog_cache[key] = cat
    return cat


def _entry_map(entry):
    """Columns, red then blue, of the dominance coordinates certifying
    `entry`'s contours as the search paths of the values at its anchors, and
    its order as the between region's sorted order.  In a width-g box,
    column ``(s * g + a) * g + b`` of a group with values v is the difference
    ``sign * (v[a] - v[b])`` with ``sign = 2 * s - 1``, tagged ``sign * (a -
    b)``: red points come from column groups and carry the column tag, blue
    points from row groups and carry the row tag, so lexicographic (value,
    row tag, col tag) triples keep the certificate exact under ties.
    """
    g = entry.tau.nrows
    red, blue = [], []
    for contour, (l, m) in ((entry.tau, entry.anchor), (entry.tau_prime, entry.anchor_prime)):
        for (tr, tc), mv in zip(contour.steps, contour.moves):
            if (tr, tc) != (l, m):
                s = g if mv == "W" else 0
                red.append((s + tc) * g + m)
                blue.append((s + l) * g + tr)
    for (x0, y0), (x1, y1) in zip(entry.order, entry.order[1:]):
        red.append((g + y1) * g + y0)
        blue.append((g + x0) * g + x1)
    return red, blue


def _dense_ranks(*keys) -> np.ndarray:
    """Each position's rank among the tuples ``(keys[0][t], keys[1][t],
    ...)`` in lexicographic order, equal tuples sharing a rank: one lexsort,
    then a running count of the tuples that differ from their predecessor."""
    order = np.lexsort(keys[::-1])
    fresh = np.zeros(len(order), dtype=bool)
    for key in keys:
        fresh[1:] |= key[order[1:]] != key[order[:-1]]
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.cumsum(fresh)
    return ranks


def match_boxes(groups, catalog: LegalPairCatalog,
                report=report_dominating_pairs) -> dict:
    """Assign catalog entries to boxes via bichromatic dominance.

    ``groups`` are the sorted input's groups (:func:`cut_groups`); a full
    group that does not ascend is a ``ValueError``, since the catalog lists
    only the gap orders of boxes whose rows and columns ascend.  For each
    entry, every full column group becomes a red point and every full row
    group a blue point, one `report` call per entry; a dominating pair
    certifies that the entry's contours and ordering are correct for that
    box.  A point's coordinates are ranks: every column :func:`_entry_map`
    can name is ranked once, red and blue together, by its (value, row tag,
    col tag) triple, equal triples alike, so each comparison the matcher
    makes has the triples' outcome.  Each entry's pairs become one array of
    box codes, and one lexsort groups the matched entries by box.  Returns
    {(i, j): {(anchor, anchor'): entry}}, one dict shared by all boxes that
    the same entries matched.
    """
    g = catalog.width
    full = [i for i, grp in enumerate(groups) if len(grp) == g]
    if not full:
        return {}
    values = np.array([groups[i] for i in full], dtype=np.float64)
    if (values[:, 1:] < values[:, :-1]).any():
        raise ValueError("every full group must ascend")
    max_dim = 4 * g - 4 + max(0, catalog.span - 1)
    s, a, b = (ix.ravel() for ix in np.indices((2, g, g)))
    diffs = (2 * s - 1) * (values[:, a] - values[:, b])
    tags = np.broadcast_to((2 * s - 1) * (a - b), diffs.shape)
    zeros = np.zeros(diffs.shape, dtype=np.int64)
    red_ranks, blue_ranks = _dense_ranks(np.concatenate([diffs, diffs]).ravel(),
                                         np.concatenate([zeros, tags]).ravel(),
                                         np.concatenate([tags, zeros]).ravel()
                                         ).reshape(2, len(full), -1)
    colors, ids = [RED] * len(full) + [BLUE] * len(full), full + full
    m = len(groups)
    codes = []
    for entry in catalog.entries:
        red_cols, blue_cols = _entry_map(entry)
        assert len(red_cols) <= max_dim
        coords = np.concatenate([red_ranks[:, red_cols], blue_ranks[:, blue_cols]]).tolist()
        points = list(map(LabeledPoint, map(tuple, coords), colors, ids))
        found: list = []  # box (i, j), blue row group i and red column group j, as i * m + j
        report(points, lambda red, blue: found.append(blue.id * m + red.id))
        codes.append(np.array(found, dtype=np.int64))
    if not codes:
        return {}
    entry_of = np.repeat(np.arange(len(codes)), [len(c) for c in codes])
    codes = np.concatenate(codes)
    order = np.lexsort((entry_of, codes))
    codes, entry_of = codes[order], entry_of[order].tolist()
    starts = np.flatnonzero(np.diff(codes, prepend=-1)).tolist()
    shared: dict = {}
    assignments: dict = {}
    for code, lo, hi in zip(codes[starts].tolist(), starts, starts[1:] + [len(codes)]):
        row = tuple(entry_of[lo:hi])  # the box's matched entries, in catalog order
        slot = shared.get(row)
        if slot is None:
            entries = [catalog.entries[e] for e in row]
            slot = shared[row] = {(e.anchor, e.anchor_prime): e for e in entries}
            assert len(slot) == len(entries), "two catalog entries matched one box layer"
        assignments[divmod(code, m)] = slot
    return assignments


# ---------------------------------------------------------------------------
# certified box orders and the walk over them


def _box_layout(rows, cols, g):
    """Box ``(rows, cols)``'s order read off its sums (:func:`box_order`), as
    the cells ``x * g + y`` of one list and that list's bounds."""
    order = box_order(rows, cols)[0]
    return np.array([x * g + y for x, y in order], dtype=np.int64), [0, len(order)]


def _sort_ticks(rows, cols) -> int:
    """Comparisons of the mergesort of a box's row-major tagged sums."""
    sums = np.add.outer(rows, cols).ravel()
    return mergesort_tick_count(sums, np.arange(len(sums)))


def _certified_layout(links, point_set):
    """A full box's certified order, from its matched layers ``links``
    (:func:`match_boxes`), as the cells ``x * g + y`` of its anchor chain
    from (0, 0) to the far corner followed by each gap's positions in
    order, and the bounds of the chain and of each gap among them.  None
    unless the chain runs through every anchor with one layer per link."""
    g = point_set.width
    nxt = {a: (b, e) for (a, b), e in links.items()}
    chain = [(0, 0)]
    entries = []
    while chain[-1] != (g - 1, g - 1) and len(chain) <= point_set.count:
        step = nxt.get(chain[-1])
        if step is None:
            break
        chain.append(step[0])
        entries.append(step[1])
    complete = (chain[-1] == (g - 1, g - 1)
                and len(chain) == point_set.count
                and len(links) == point_set.count - 1)
    if not complete:
        return None
    order = chain + [pos for e in entries for pos in e.order]
    bounds = np.cumsum([0, len(chain)] + [len(e.order) for e in entries]).tolist()
    return np.array([x * g + y for x, y in order], dtype=np.int64), bounds


def _ternary_steps(flat, starts, lengths, keys):
    """:func:`ternary_search` for every ``keys[t]`` on its list
    ``flat[starts[t]:starts[t] + lengths[t]]``, all at once, one probe per
    step: each search's probes, whether it hits, and its hit index or
    insertion point.  It reads each list as the scalar search does, so the
    two agree probe for probe whether or not the list ascends."""
    pos = np.zeros(len(keys), dtype=np.int64)
    hi = np.asarray(lengths, dtype=np.int64) - 1
    probes = np.zeros(len(keys), dtype=np.int64)
    hit = np.zeros(len(keys), dtype=bool)
    live = np.flatnonzero(hi >= 0)
    while len(live):
        lo, top, key = pos[live], hi[live], keys[live]
        mid = (lo + top) // 2
        value = flat[starts[live] + mid]
        probes[live] += 1
        eq, up = value == key, value < key
        pos[live] = lo = np.where(eq, mid, np.where(up, mid + 1, lo))
        hi[live] = top = np.where(eq | up, top, mid - 1)
        hit[live[eq]] = True
        live = live[~eq & (lo <= top)]
    return probes, hit, pos


def _catalog_walk(svals, groups, g, layout, ledger):
    """The grouped staircase walk over boxes whose order is known before it
    starts: every visit is searched at once, and the searches up to the
    first hit are booked.

    ``layout(i, j)`` is asked once for every visited box ``(i, j)``, short
    boxes included.  It gives the box's order as the cells ``x * g + y`` of
    its lists laid end to end, with the bounds of the first list and of each
    gap after it among them, or None if it knows no order for the box.  A
    box is searched along its first list and, on a miss strictly inside it,
    along the gap at its insertion point.  A box without a layout is
    searched along its stably sorted sums, and the mergesort of those is
    booked to ``deduce`` if the walk reaches the box by its first hit.
    Every box's lists lie in one flat array of sums.  Returns a witness
    triple or None.
    """
    svals = np.asarray(svals, dtype=np.float64)
    k, lo, hi = _triangle_visits(svals, g)
    boxes, first_visit, box_of = np.unique(lo * len(groups) + hi, return_index=True,
                                           return_inverse=True)
    box_lo, box_hi = np.divmod(boxes, len(groups))
    cells, bounds, fallback = [], [], []
    for b, (i, j) in enumerate(zip(box_lo.tolist(), box_hi.tolist())):
        certified = layout(i, j)
        if certified is None:
            fallback.append(b)
            certified = _box_layout(groups[i], groups[j], g)
        cells.append(certified[0])
        bounds.append(certified[1])
    lengths = np.array([len(c) for c in cells])
    ngaps = np.array([len(b) - 2 for b in bounds])
    width = max(map(len, bounds))
    bounds = np.array([b + [0] * (width - len(b)) for b in bounds]) \
        + (np.cumsum(lengths) - lengths)[:, None]
    x, y = np.divmod(np.concatenate(cells), g)
    flat = svals[np.repeat(box_lo * g, lengths) + x] + svals[np.repeat(box_hi * g, lengths) + y]

    keys = -svals[k]
    start = bounds[box_of, 0]
    probes, hit, at = _ternary_steps(flat, start, bounds[box_of, 1] - start, keys)
    gap = np.flatnonzero(~hit & (at > 0) & (at <= ngaps[box_of]))
    start[gap] = bounds[box_of[gap], at[gap]]
    more, hit[gap], at[gap] = _ternary_steps(
        flat, start[gap], bounds[box_of[gap], at[gap] + 1] - start[gap], keys[gap])
    probes[gap] += more

    found = bool(hit.any())
    last = int(np.argmax(hit)) if found else len(k) - 1  # the last visit searched
    ledger.tick(4, sum(_sort_ticks(groups[box_lo[b]], groups[box_hi[b]])
                       for b in fallback if first_visit[b] <= last), "deduce")
    ledger.tick(3, int(probes[:last + 1].sum()) + last + (not found))
    if not found:
        return None
    t = start[last] + at[last]
    return (float(svals[lo[last] * g + x[t]]), float(svals[hi[last] * g + y[t]]),
            float(svals[k[last]]))


# ---------------------------------------------------------------------------
# subquadratic solvers


@dataclass
class SubquadraticParams:
    """Knobs for :func:`solve_subquadratic`.

    Deterministic mode anchors boxes at an evenly spaced grid (never bad);
    randomized mode draws one random anchor set from the seed.
    """

    group_size: Optional[int] = None
    span: Optional[int] = None
    mode: str = "deterministic"
    seed: int = 0
    point_count: Optional[int] = None
    grid_side: Optional[int] = None


def _fit_grid_side(width: int, wanted: Optional[int]) -> int:
    q = wanted if wanted is not None else math.ceil(math.sqrt(width))
    while q > 0 and q * grid_spacing(width, q) - 1 > width - 1:
        q -= 1
    return q


def resolve_subquadratic_params(n: int, params: Optional[SubquadraticParams] = None
                                ) -> SubquadraticParams:
    """A copy of `params` with the group size, span and anchor count or
    grid side that :func:`solve_subquadratic` uses at input size n."""
    params = params or SubquadraticParams()
    g = params.group_size if params.group_size is not None else (2 if n < 512 else 3)
    if g < 1:
        raise ValueError("group size must be >= 1")
    if params.mode == "deterministic":
        q = _fit_grid_side(g, params.grid_side)
        span = params.span if params.span is not None else grid_span(g, q)
        return replace(params, group_size=g, span=span, grid_side=q)
    if params.mode == "randomized":
        span = params.span if params.span is not None else g
        count = params.point_count if params.point_count is not None \
            else default_point_count(g, span)
        return replace(params, group_size=g, span=span, point_count=count)
    raise ValueError(f"unknown mode {params.mode!r}")


def _triangle_visits(svals, g):
    """Boxes the grouped 3SUM walk visits, as arrays ``(k, lo, hi)``: the walk
    for ``-svals[k]`` starts at box ``(0, k // g)`` and ends below ``lo <= hi``."""
    svals = np.asarray(svals, dtype=np.float64)
    n = len(svals)
    firsts = np.arange(0, n, g)
    return _staircase(svals[np.minimum(firsts + g, n) - 1], svals[firsts], -svals,
                      np.arange(n) // g, diagonal=True)


def _anchor_set(params: SubquadraticParams) -> PointSet:
    """The anchor set of resolved `params`: the evenly spaced grid in
    deterministic mode, one draw from the seed in randomized mode."""
    if params.mode == "deterministic":
        return deterministic_point_set(params.group_size, params.grid_side)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(params.seed)))
    return random_point_set(params.group_size, params.point_count, rng)


def solve_subquadratic(values, params: Optional[SubquadraticParams],
                       ledger: ComparisonLedger):
    """Contour-catalog 3SUM.

    Pipeline: sort, group, pick the anchor point set, enumerate the legal
    contour-pair catalog (cached across calls), assign certified layers to
    boxes via dominance, then run the grouped staircase walk answering
    membership queries through each box's chain of anchors and ordered
    gaps (:func:`_catalog_walk`).  Uncertified (bad) and short boxes are
    sorted directly at 4-linear cost.
    """
    arr = as_reals(values)
    params = resolve_subquadratic_params(len(arr), params)
    if not arr:
        return None
    point_set = _anchor_set(params)
    catalog = cached_catalog(params.group_size, point_set, params.span)

    svals = sorted_counted(arr, ledger)
    groups = cut_groups(svals, params.group_size)
    assignments = match_boxes(groups, catalog)
    unmatched: dict = {}
    layouts: dict = {}

    def layout(i, j):
        # boxes the same entries matched share one dict (match_boxes)
        links = assignments.get((i, j), unmatched)
        if id(links) not in layouts:
            layouts[id(links)] = _certified_layout(links, point_set)
        return layouts[id(links)]

    return _catalog_walk(svals, groups, params.group_size, layout, ledger)


def solve_subquadratic_simple(values, group_size: Optional[int],
                              ledger: ComparisonLedger):
    """Whole-box permutation matching: certify, for every pair of full
    groups, the one permutation of the box's g*g positions whose
    consecutive differences dominate (``sorting_permutations``), then walk
    the matched orders (:func:`_catalog_walk`).  Boxes with the short group
    are sorted directly at 4-linear cost.

    Feasible only for tiny group sizes ((g*g)! permutations)."""
    arr = as_reals(values)
    g = group_size if group_size is not None else default_simple_group_size(len(arr))
    if math.factorial(g * g) > PERM_BUDGET:
        raise ValueError(f"group size {g} needs {math.factorial(g*g)} permutations; "
                         f"at most {PERM_BUDGET} are enumerated")

    svals = sorted_counted(arr, ledger)
    groups = cut_groups(svals, g)
    if not groups:
        return None
    full = len(svals) // g
    # spread each full group over the g*g row-major positions t = x*g + y:
    # column groups are red (value at y = t % g), row groups blue (x = t // g),
    # and ties in t order like the (row, col) tags
    square = np.reshape(groups[:full], (full, g))
    cells = np.arange(g * g)
    perms, index = sorting_permutations(square[:, cells % g], square[:, cells // g], g * g)

    # a matched permutation lists the cells t = x*g + y of box (i, j), red
    # column group j with blue row group i, in sorted order
    return _catalog_walk(svals, groups, g, lambda i, j: (perms[index[j, i]], [0, g * g])
                         if max(i, j) < full else None, ledger)
