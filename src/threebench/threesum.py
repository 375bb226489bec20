"""3SUM solvers with instrumented comparison counts.

Four solver families share the same staircase search over a grid of
group-pair boxes:

* ``solve_quadratic`` - the classic two-pointer walk, one 3-linear tick
  per step.
* ``solve_decision_tree`` - groups the sorted input, pays for one sorted
  difference list, deduces every box's order from it for free, then
  binary-searches boxes.
* ``solve_subquadratic_simple`` - sorts boxes by enumerating all sorting
  permutations of a tiny box and matching boxes to permutations through
  bichromatic dominance.
* ``solve_subquadratic`` - the contour-catalog algorithm: boxes are
  certified piecewise by pairs of search contours anchored at a fixed
  position set, legal pairs are enumerated once per parameter choice, and
  dominance matching assigns a certified layer structure to every box.

The decision-tree solver runs one vectorised path at every n and on every
input: it prices each box probe from the depth tables of the canonical
binary search, ties included, without materialising tagged objects.  The
pure-Python walk stays as its reference; the test suite asserts that both
book identical ledger counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import permutations
from typing import Optional, Sequence

import numpy as np

from .core import (
    ComparisonLedger,
    TaggedReal,
    _binsearch_depths,
    as_reals,
    box_order,
    difference_ticks,
    mergesort_tick_count,
    sort_differences,
    sorted_counted,
    staircase_visits,
    tag_cols,
    tag_rows,
    ternary_search,
)
from .dominance import RED, match_candidates, report_dominating_pairs, sorting_permutations

SOUTHERN = "southern"
WESTERN = "western"

# largest n that solve_decision_tree sends to the pure-Python reference by
# default: none, the fast path runs at every n; perfbench's fill_caches reads it
_REFERENCE_LIMIT = 0


def default_group_size(n: int) -> int:
    """Group size sqrt(n log2(n+2)), the sweet spot for the grouped search."""
    if n <= 1:
        return 1
    return max(1, math.ceil(math.sqrt(n * math.log2(n + 2))))


# ---------------------------------------------------------------------------
# groups and boxes


@dataclass(frozen=True)
class Grouping:
    """Sorted input values cut into runs of `group_size` (last may be short)."""

    values: tuple[float, ...]
    group_size: int

    def __post_init__(self):
        if self.group_size < 1:
            raise ValueError("group size must be >= 1")
        if any(self.values[i] > self.values[i + 1] for i in range(len(self.values) - 1)):
            raise ValueError("values must be sorted ascending")

    @property
    def num_groups(self) -> int:
        n = len(self.values)
        return max(0, -(-n // self.group_size))

    def bounds(self, i: int) -> tuple[int, int]:
        n = len(self.values)
        start = i * self.group_size
        if not (0 <= start < n):
            raise IndexError(f"group {i} out of range")
        return start, min(start + self.group_size, n)

    def group_len(self, i: int) -> int:
        a, b = self.bounds(i)
        return b - a

    def group_values(self, i: int) -> tuple[float, ...]:
        a, b = self.bounds(i)
        return self.values[a:b]

    def gmin(self, i: int) -> float:
        a, _ = self.bounds(i)
        return self.values[a]

    def gmax(self, i: int) -> float:
        _, b = self.bounds(i)
        return self.values[b - 1]


class BoxView:
    """One group-pair box of a Cartesian sum, totally ordered via tags.

    The tagged oracle for contours and badness; the solvers search raw
    sums read off the group values instead.
    """

    def __init__(self, rows: Sequence[TaggedReal], cols: Sequence[TaggedReal]):
        self.rows = list(rows)
        self.cols = list(cols)

    @classmethod
    def from_grouping(cls, grouping: Grouping, i: int, j: int) -> "BoxView":
        return cls(tag_rows(grouping.group_values(i)), tag_cols(grouping.group_values(j)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.cols)

    def tagged(self, x: int, y: int) -> TaggedReal:
        return self.rows[x] + self.cols[y]

    def positions(self):
        for x in range(self.nrows):
            for y in range(self.ncols):
                yield (x, y)


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

    @property
    def exit(self) -> str:
        return SOUTHERN if self.moves[-1] == "S" else WESTERN


def compute_contour(box: BoxView, key: TaggedReal) -> Contour:
    """Trace the two-pointer search for `key` through a tagged box.

    Every occurrence of the key lies on the returned path; positions the
    path classifies as <= key / > key match the box contents exactly.
    """
    steps = []
    moves = []
    lo, hi = 0, box.ncols - 1
    while lo < box.nrows and hi >= 0:
        steps.append((lo, hi))
        if key < box.tagged(lo, hi):
            moves.append("W")
            hi -= 1
        else:
            moves.append("S")
            lo += 1
    return Contour(tuple(steps), tuple(moves), box.nrows, box.ncols)


def leq_positions(contour: Contour) -> frozenset:
    """Positions whose value is <= the contour's key.

    On-path positions follow their move (S means <=); a column the path
    never reached (possible only on a southern exit) lies entirely on the
    <= side; otherwise everything above the path's rows in that column is
    <= and everything below is >.
    """
    move_at = dict(zip(contour.steps, contour.moves))
    col_rows: dict[int, list[int]] = {}
    for (r, c) in contour.steps:
        span = col_rows.setdefault(c, [r, r])
        span[0] = min(span[0], r)
        span[1] = max(span[1], r)
    min_col = min(col_rows)
    out = set()
    for i in range(contour.nrows):
        for j in range(contour.ncols):
            mv = move_at.get((i, j))
            if mv is not None:
                if mv == "S":
                    out.add((i, j))
            elif j < min_col:
                out.add((i, j))
            elif i < col_rows[j][0]:
                out.add((i, j))
    return frozenset(out)


@dataclass(frozen=True)
class Tripartition:
    """Box positions split by two nested contours: <= lower key, strictly
    between the keys, >= upper key."""

    low: frozenset
    mid: frozenset
    high: frozenset

    def validate(self, nrows: int, ncols: int) -> None:
        every = {(i, j) for i in range(nrows) for j in range(ncols)}
        if self.low | self.mid | self.high != every:
            raise ValueError("tripartition must cover the box")
        if self.low & self.mid or self.mid & self.high or self.low & self.high:
            raise ValueError("tripartition parts must be disjoint")


# ---------------------------------------------------------------------------
# oracle and quadratic baseline


def oracle_3sum(values: Sequence[float]) -> Optional[tuple[float, float, float]]:
    """Exhaustive scan over all ordered triples (repeats allowed)."""
    arr = np.asarray(values, dtype=np.float64)
    n = len(arr)
    if n == 0:
        return None
    if n > 400:
        raise ValueError("oracle capped at n=400")
    sums = arr[:, None, None] + arr[None, :, None] + arr[None, None, :]
    idx = np.argwhere(sums == 0.0)
    if len(idx) == 0:
        return None
    i, j, k = idx[0]
    return (float(arr[i]), float(arr[j]), float(arr[k]))


def _sort_unique_counted(values, ledger):
    """Sort then deduplicate, both instrumented at arity 2."""
    svals = sorted_counted(values, ledger)
    if not svals:
        return []
    out = [svals[0]]
    for t in range(1, len(svals)):
        ledger.tick(2)
        if svals[t] != svals[t - 1]:
            out.append(svals[t])
    return out


def solve_quadratic(a_vals, b_vals, c_vals, ledger: ComparisonLedger):
    """Two-pointer walk; returns the list of witness value triples.

    One 3-linear tick per walk step (the step's sign query answers both
    the equality test and the direction choice).  Equal sums report a
    witness and advance the low pointer.  Inputs are deduplicated so rows
    and columns of the implicit sum matrix hold distinct values, which
    makes the witness list complete.
    """
    ua = _sort_unique_counted(as_reals(a_vals), ledger)
    ub = _sort_unique_counted(as_reals(b_vals), ledger)
    witnesses = []
    if not ua or not ub:
        return witnesses
    for c in as_reals(c_vals):
        key = -c
        lo, hi = 0, len(ub) - 1
        while lo < len(ua) and hi >= 0:
            ledger.tick(3)
            s = ua[lo] + ub[hi]
            if s == key:
                witnesses.append((ua[lo], ub[hi], c))
                lo += 1
            elif key < s:
                hi -= 1
            else:
                lo += 1
    return witnesses


def quadratic_tick_count(a_vals, b_vals, c_vals, ledger: ComparisonLedger) -> bool:
    """Fast twin of :func:`solve_quadratic`: identical ledger counts and
    decision, no witness enumeration."""
    a, b, c = (np.asarray(as_reals(v)) for v in (a_vals, b_vals, c_vals))
    for arr in (a, b):
        ledger.tick(2, mergesort_tick_count(arr))
        if len(arr) > 1:
            ledger.tick(2, len(arr) - 1)
    ua = np.unique(a)
    ub = np.unique(b)
    if len(ua) == 0 or len(ub) == 0 or len(c) == 0:
        return False
    na, nb = len(ua), len(ub)
    keys = -c
    lend = np.searchsorted(ua, keys - ub[0], side="right")
    hend = np.searchsorted(ub, keys - ua[-1], side="right") - 1
    iters = np.where(lend < na, lend + nb, na + (nb - 1) - hend)
    ledger.tick(3, int(iters.sum()))
    found = False
    chunk = max(1, (1 << 22) // max(1, na))
    for base in range(0, len(keys), chunk):
        diff = keys[base:base + chunk, None] - ua[None, :]
        pos = np.searchsorted(ub, diff.ravel())
        ok = pos < nb
        if np.any(ub[np.minimum(pos, nb - 1)][ok] == diff.ravel()[ok]):
            found = True
            break
    return found


# ---------------------------------------------------------------------------
# decision-tree solver


def solve_decision_tree(values, group_size: Optional[int], ledger: ComparisonLedger,
                        mode: str = "fast", debug: bool = False):
    """Grouped 3SUM search: sort, pay once for the difference list, deduce
    all box orders for free, then walk the group grid binary-searching
    each visited box.

    Snapshot labels step1_sorted / step2_differences / step3_boxes /
    step4_done mark the phases; the step2 -> step3 ledger delta is always
    zero.  Returns a witness triple or None.  ``mode="fast"`` prices every
    probe from depth tables; ``mode="reference"`` runs the pure-Python walk
    that the tests hold it to, with the same ledger counts.
    """
    arr = as_reals(values)
    n = len(arr)
    if n == 0:
        return None
    g = group_size if group_size is not None else default_group_size(n)
    if g < 1:
        raise ValueError("group size must be >= 1")
    if mode == "reference":
        return _decision_tree_reference(arr, g, ledger, debug)
    if mode == "fast":
        return _decision_tree_fast(np.asarray(arr, dtype=np.float64), g, ledger)
    raise ValueError(f"unknown mode {mode!r}")


def _decision_tree_reference(arr, g, ledger, debug):
    svals = sorted_counted(arr, ledger)
    ledger.snapshot("step1_sorted")
    grouping = Grouping(tuple(svals), g)
    m = grouping.num_groups
    groups = [grouping.group_values(i) for i in range(m)]
    sort_differences([tag_rows(v) for v in groups] + [tag_cols(v) for v in groups], ledger)
    ledger.snapshot("step2_differences")
    # every box's sorted order follows from the sorted differences for free
    boxes = {(i, j): _OrderSearch(*box_order(groups[i], groups[j]))
             for i in range(m) for j in range(m)}
    ledger.snapshot("step3_boxes")
    witness = _staircase_walk(svals, g, boxes.__getitem__, ledger, debug)
    ledger.snapshot("step4_done")
    return witness


def _assert_walk_invariant(svals, k, g, lo, hi):
    # Any remaining witness value pair with both summands <= A(k) must keep
    # a representative of each value inside groups lo..hi.
    key = -svals[k]
    limit = svals[k]
    groups_of: dict = {}
    for idx, v in enumerate(svals):
        if v <= limit:
            groups_of.setdefault(v, set()).add(idx // g)
    for va, pgroups in groups_of.items():
        qgroups = groups_of.get(key - va)
        if qgroups is None:
            continue
        assert any(lo <= p <= hi for p in pgroups) \
            and any(lo <= q <= hi for q in qgroups), \
            f"walk invariant violated at k={k} lo={lo} hi={hi}"


def _decision_tree_fast(arr0: np.ndarray, g: int, ledger: ComparisonLedger):
    n = len(arr0)
    ledger.tick(2, mergesort_tick_count(arr0))
    arr = np.sort(arr0, kind="stable")
    ledger.snapshot("step1_sorted")

    m = -(-n // g)
    if m >= (1 << 20):
        raise ValueError("too many groups for the fast path")
    groups = [arr[i * g:min((i + 1) * g, n)] for i in range(m)]
    difference_ticks([(seg, np.arange(len(seg)), role)
                      for role in ("row", "col") for seg in groups], ledger)
    ledger.snapshot("step2_differences")
    ledger.snapshot("step3_boxes")

    visits = list(staircase_visits(arr.tolist(), g))

    nv = len(visits)
    probes = np.zeros(nv, dtype=np.int64)
    hits = np.zeros(nv, dtype=bool)
    by_box: dict[tuple[int, int], list[int]] = {}
    for vi, (k, lo, hi) in enumerate(visits):
        by_box.setdefault((lo, hi), []).append(vi)
    for (lo, hi), vidx in by_box.items():
        sums = np.sort(np.add.outer(groups[lo], groups[hi]).ravel())
        keys = -arr[[visits[vi][0] for vi in vidx]]
        vidx = np.asarray(vidx)
        node, gap = _binsearch_depths(len(sums))
        left = np.searchsorted(sums, keys, "left")
        right = np.searchsorted(sums, keys, "right")
        # a miss follows the path of its insertion point; a hit stops at the
        # first probe inside its run of equal sums, the run's shallowest node
        h = left < right
        bounds = np.column_stack((left[h], right[h])).ravel()
        probes[vidx] = gap[left]
        probes[vidx[h]] = np.minimum.reduceat(np.append(node, 0), bounds)[::2]
        hits[vidx] = h

    witness = None
    if hits.any():
        first = int(np.argmax(hits))
        ticks3 = int(probes[:first].sum()) + first + int(probes[first])
        k, lo, hi = visits[first]
        seg_r, seg_c = groups[lo], groups[hi]
        x, y = np.argwhere(np.add.outer(seg_r, seg_c) == -arr[k])[0]
        witness = (float(seg_r[x]), float(seg_c[y]), float(arr[k]))
    else:
        ticks3 = int(probes.sum()) + nv
    ledger.tick(3, ticks3)
    ledger.snapshot("step4_done")
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


def _order_is_bad(order, positions, span) -> bool:
    run = 0
    for pos in order:
        if pos in positions:
            run = 0
        else:
            run += 1
            if run > span:
                return True
    return False


def is_bad(box: BoxView, point_set: PointSet, span: int) -> bool:
    """True iff more than `span` consecutive elements of the box's sorted
    order avoid the point set."""
    order = sorted(box.positions(), key=lambda p: box.tagged(*p).key())
    return _order_is_bad(order, point_set.positions, span)


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
    parts: Tripartition
    key: bytes


@dataclass
class LegalPairCatalog:
    """All legal anchored contour pairs with all orderings of the between
    region; immutable after construction and reusable across instances."""

    width: int
    point_set: PointSet
    span: int
    entries: dict


def enumerate_legal_pairs(width: int, point_set: PointSet, span: int,
                          budget: int = 1_000_000) -> LegalPairCatalog:
    """Enumerate every (tau, tau', pi) with tau above tau', both anchored at
    point-set positions, and a between region avoiding the point set with at
    most `span` cells; for each, every ordering of the between region."""
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

    entries: dict[bytes, CatalogEntry] = {}
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
                    parts = Tripartition(leq1, frozenset(mid),
                                         frozenset(
                                             (i, j) for i in range(g) for j in range(g)
                                             if (i, j) not in leq2 or (i, j) == anchor_p))
                    for pi in permutations(sorted(mid)):
                        key = repr((tau.moves, anchor, tau_p.moves, anchor_p, pi)).encode()
                        entries[key] = CatalogEntry(tau, tau_p, anchor, anchor_p,
                                                    pi, parts, key)
                        if len(entries) > budget:
                            raise ValueError(
                                f"catalog exceeds budget of {budget} entries; "
                                "reduce width or span")
    return LegalPairCatalog(g, point_set, span, entries)


_catalog_cache: dict = {}


def cached_catalog(width: int, point_set: PointSet, span: int,
                   budget: int = 1_000_000) -> LegalPairCatalog:
    key = (width, point_set.positions, span, budget)
    cat = _catalog_cache.get(key)
    if cat is None:
        cat = enumerate_legal_pairs(width, point_set, span, budget)
        _catalog_cache[key] = cat
    return cat


def _contour_coords(contour, anchor, vals, color):
    """Dominance coordinates certifying `contour` as the search path of the
    value at `anchor`.  Lexicographic (value, row tag, col tag) triples keep
    the certificate exact under ties."""
    l, m_ = anchor
    red = color == RED  # red points come from column groups, blue from rows
    out = []
    for (pos, mv) in zip(contour.steps, contour.moves):
        if pos == anchor:
            continue
        tr, tc = pos
        sigma = 1 if mv == "W" else -1
        if red:
            out.append((sigma * (vals[tc] - vals[m_]), 0, sigma * (tc - m_)))
        else:
            out.append((sigma * (vals[l] - vals[tr]), sigma * (l - tr), 0))
    return out


def _order_coords(order, vals, color):
    red = color == RED
    out = []
    for t in range(len(order) - 1):
        (x0, y0), (x1, y1) = order[t], order[t + 1]
        if red:
            out.append((vals[y1] - vals[y0], 0, y1 - y0))
        else:
            out.append((vals[x0] - vals[x1], x0 - x1, 0))
    return out


def _entry_coords(entry, vals, color):
    coords = _contour_coords(entry.tau, entry.anchor, vals, color)
    coords += _contour_coords(entry.tau_prime, entry.anchor_prime, vals, color)
    coords += _order_coords(entry.order, vals, color)
    return tuple(coords)


def match_boxes(grouping: Grouping, catalog: LegalPairCatalog,
                report=report_dominating_pairs) -> dict:
    """Assign catalog entries to boxes via bichromatic dominance.

    For each entry, every full column group becomes a red point and every
    full row group a blue point; a dominating pair certifies that the
    entry's contours and ordering are correct for that box.  Returns
    {(i, j): {(anchor, anchor'): entry}}.
    """
    g = catalog.width
    m = grouping.num_groups
    full = [i for i in range(m) if grouping.group_len(i) == g]
    if not full:
        return {}
    vals = {i: grouping.group_values(i) for i in full}
    max_dim = 4 * g - 4 + max(0, catalog.span - 1)

    def coords(entry, color, i):
        out = _entry_coords(entry, vals[i], color)
        assert len(out) <= max_dim
        return out

    matched = match_candidates(catalog.entries.values(), full, full, coords, report)
    assignments: dict = {}
    for (j, i), entries in matched.items():
        slot = assignments[(i, j)] = {}
        for entry in entries:
            pair = (entry.anchor, entry.anchor_prime)
            assert pair not in slot, "two catalog entries matched one box layer"
            slot[pair] = entry
    return assignments


# ---------------------------------------------------------------------------
# per-box searchers for the catalog solvers


def _raws(rows, cols, positions) -> list[float]:
    return [rows[x] + cols[y] for (x, y) in positions]


class _OrderSearch:
    """A box's positions in ascending order: binary search their raw sums.

    A certified box passes its anchor chain as the order, and ``gaps[t]``
    searches the between-region of anchors t and t + 1.
    """

    def __init__(self, order, raws, gaps=()):
        self.order = order
        self.raws = raws
        self.gaps = gaps

    def search(self, key, ledger):
        res, pos = ternary_search(self.raws, key, ledger)
        if res == "hit":
            return self.order[pos]
        if 0 < pos <= len(self.gaps):
            return self.gaps[pos - 1].search(key, ledger)
        return None


def _sorted_search(rows, cols, ledger: ComparisonLedger) -> _OrderSearch:
    """Fallback for short or uncertified boxes: sort outright, charging one
    4-linear tick per comparison the mergesort of the tagged sums makes.
    Row-major indices order like the (row, col) tags."""
    order, raws = box_order(rows, cols)
    sums = np.add.outer(rows, cols).ravel()
    ledger.tick(4, mergesort_tick_count(sums, np.arange(len(sums))))
    return _OrderSearch(order, raws)


def _build_box_searcher(grouping, i, j, point_set, assignments, ledger):
    g = grouping.group_size
    rows, cols = grouping.group_values(i), grouping.group_values(j)
    if len(rows) != g or len(cols) != g:
        return _sorted_search(rows, cols, ledger)
    links = assignments.get((i, j), {})
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
        # bad box: its layer structure was not certified, sort it directly
        return _sorted_search(rows, cols, ledger)
    gaps = [_OrderSearch(e.order, _raws(rows, cols, e.order)) for e in entries]
    return _OrderSearch(chain, _raws(rows, cols, chain), gaps)


# ---------------------------------------------------------------------------
# subquadratic solvers


@dataclass
class SubquadraticParams:
    """Knobs for :func:`solve_subquadratic`.

    Deterministic mode anchors boxes at an evenly spaced grid (never bad);
    randomized mode draws the anchors, optionally screening several
    candidate sets against a sample of the recorded query list.
    """

    group_size: Optional[int] = None
    span: Optional[int] = None
    mode: str = "deterministic"
    seed: int = 0
    point_count: Optional[int] = None
    grid_side: Optional[int] = None
    candidates: int = 1
    samples: int = 64
    catalog_budget: int = 1_000_000


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


def _staircase_walk(svals, g, searcher, ledger, debug=False):
    """Search every box the walk visits for its key, building each box's
    searcher on first visit; one 3-linear tick per visit that misses.
    Returns a witness triple or None."""
    searchers: dict = {}
    for k, lo, hi in staircase_visits(svals, g):
        if debug:
            _assert_walk_invariant(svals, k, g, lo, hi)
        s = searchers.get((lo, hi))
        if s is None:
            s = searchers[(lo, hi)] = searcher((lo, hi))
        hit = s.search(-svals[k], ledger)
        if hit is not None:
            x, y = hit
            return (svals[lo * g + x], svals[hi * g + y], svals[k])
        ledger.tick(3)
    return None


def solve_subquadratic(values, params: Optional[SubquadraticParams],
                       ledger: ComparisonLedger):
    """Contour-catalog 3SUM.

    Pipeline: sort, group, pick the anchor point set, enumerate the legal
    contour-pair catalog (cached across calls), assign certified layers to
    boxes via dominance, then run the grouped staircase walk answering
    membership queries through each box's chain of anchors and ordered
    gaps.  Uncertified (bad) and short boxes are sorted directly at
    4-linear cost.
    """
    arr = as_reals(values)
    n = len(arr)
    if n == 0:
        return None
    params = resolve_subquadratic_params(n, params)
    g, span = params.group_size, params.span
    if params.mode == "deterministic":
        point_set = deterministic_point_set(g, params.grid_side)
    else:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(params.seed)))
        if params.candidates > 1:
            point_set = select_best_point_set(arr, g, params.point_count, span,
                                              params.candidates, params.samples, rng)
        else:
            point_set = random_point_set(g, params.point_count, rng)

    catalog = cached_catalog(g, point_set, span, params.catalog_budget)

    svals = sorted_counted(arr, ledger)
    ledger.snapshot("step1_sorted")
    grouping = Grouping(tuple(svals), g)
    assignments = match_boxes(grouping, catalog)
    ledger.snapshot("matched_boxes")

    witness = _staircase_walk(
        svals, g,
        lambda box: _build_box_searcher(grouping, *box, point_set, assignments, ledger),
        ledger)
    ledger.snapshot("step4_done")
    return witness


def solve_subquadratic_simple(values, group_size: Optional[int],
                              ledger: ComparisonLedger, perm_budget: int = 400_000):
    """Whole-box permutation matching: enumerate every sorting permutation
    of a full box and match boxes to permutations via dominance, then walk.

    Feasible only for tiny group sizes ((g*g)! permutations)."""
    arr = as_reals(values)
    n = len(arr)
    if n == 0:
        return None
    g = group_size if group_size is not None else (1 if n < 4 else 2)
    if g < 1:
        raise ValueError("group size must be >= 1")
    if math.factorial(g * g) > perm_budget:
        raise ValueError(f"group size {g} needs {math.factorial(g*g)} permutations; "
                         "raise perm_budget or shrink the group")

    svals = sorted_counted(arr, ledger)
    ledger.snapshot("step1_sorted")
    grouping = Grouping(tuple(svals), g)
    m = grouping.num_groups
    full = [grouping.group_values(i) for i in range(m) if grouping.group_len(i) == g]
    # spread each group over the g*g row-major positions t = x*g + y: column
    # groups are red (value at y = t % g), row groups blue (x = t // g), and
    # ties in t order like the (row, col) tags
    cells = range(g * g)
    perms = sorting_permutations([[v[t % g] for t in cells] for v in full],
                                 [[v[t // g] for t in cells] for v in full], g * g)
    assigned = {(i, j): [divmod(t, g) for t in pi] for (j, i), pi in perms.items()}
    ledger.snapshot("matched_boxes")

    def searcher(ij):
        rows, cols = grouping.group_values(ij[0]), grouping.group_values(ij[1])
        order = assigned.get(ij)
        if order is None:
            return _sorted_search(rows, cols, ledger)
        return _OrderSearch(order, _raws(rows, cols, order))

    witness = _staircase_walk(svals, g, searcher, ledger)
    ledger.snapshot("step4_done")
    return witness


def select_best_point_set(values, group_size: int, count: int, span: int,
                          candidates: int, samples: int,
                          rng: np.random.Generator) -> PointSet:
    """Draw several random anchor sets and keep the one whose estimated bad
    fraction over the recorded query list is smallest.

    The truncated run records every membership query (k, i, j) the walk
    would ask without answering it; each candidate is scored by sampling
    queries and sorting the sampled box to test badness.
    """
    if candidates < 1 or samples < 1:
        raise ValueError("candidates and samples must be >= 1")
    g = group_size
    svals = sorted(float(v) for v in values)
    grouping = Grouping(tuple(svals), g)

    queries = list(staircase_visits(svals, g))

    cands = [random_point_set(g, count, rng) for _ in range(candidates)]
    if not queries:
        return cands[0]

    @lru_cache(maxsize=None)
    def order(i, j):
        return box_order(grouping.group_values(i), grouping.group_values(j))[0]

    best = None
    for idx, ps in enumerate(cands):
        picks = rng.integers(0, len(queries), size=samples)
        bad = 0
        for t in picks:
            _, i, j = queries[int(t)]
            if _order_is_bad(order(i, j), ps.positions, span):
                bad += 1
        estimate = bad / samples
        if best is None or estimate < best[0]:
            best = (estimate, idx, ps)
    return best[2]
