"""Substrate shared by every solver: tie-broken reals, the comparison
ledger, the counted mergesort with its vectorised tick counter, and the
grouped-search kernel every solver runs.

A solver's "cost" here is the number of sign queries it issues on linear
forms of the input reals.  Every such query must go through a
:class:`ComparisonLedger` tick; index arithmetic and tie-breaking tag
comparisons are free.  The tag scheme makes every Cartesian sum totally
ordered, so downstream search logic never branches on equality.

The grouped search (Fredman's trick) has four steps, one kernel each:
:func:`difference_ticks` charges the one sort of the within-group
difference lists; :func:`box_order` reads a box's sorted order off that
sort for free; :func:`staircase_visits` lists the boxes a key's walk
visits; and :func:`ternary_search`, :func:`lower_bound` and
:func:`upper_bound` search a box at one tick per probe.  Solvers accept
input reals through :func:`as_reals`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np


def as_reals(values) -> list[float]:
    """Input reals as Python floats; NaN and +-inf are refused."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("input reals must form a flat list")
    if not np.isfinite(arr).all():
        raise ValueError("input reals must be finite (no NaN or inf)")
    return arr.tolist()


@dataclass(frozen=True, order=True)
class TaggedReal:
    """A real number with two integer tie-break tags.

    Ordering is lexicographic on ``(u, r, c)`` and addition/subtraction is
    pointwise, so a list tagged as rows ``(u, i, 0)`` plus a list tagged as
    columns ``(u, 0, j)`` yields pairwise-distinct sums whose order extends
    the raw order of the untagged sums.
    """

    u: float
    r: int = 0
    c: int = 0

    def __add__(self, other: "TaggedReal") -> "TaggedReal":
        return TaggedReal(self.u + other.u, self.r + other.r, self.c + other.c)

    def __sub__(self, other: "TaggedReal") -> "TaggedReal":
        return TaggedReal(self.u - other.u, self.r - other.r, self.c - other.c)

    def __neg__(self) -> "TaggedReal":
        return TaggedReal(-self.u, -self.r, -self.c)

    def key(self) -> tuple[float, int, int]:
        return (self.u, self.r, self.c)


def tag_rows(values: Sequence[float]) -> list[TaggedReal]:
    """Tag a list for use as Cartesian-sum rows: value i becomes (v, i, 0)."""
    return [TaggedReal(float(v), i, 0) for i, v in enumerate(values)]


def tag_cols(values: Sequence[float]) -> list[TaggedReal]:
    """Tag a list for use as Cartesian-sum columns: value j becomes (v, 0, j)."""
    return [TaggedReal(float(v), 0, j) for j, v in enumerate(values)]


def sign(x: float) -> int:
    if x < 0:
        return -1
    if x > 0:
        return 1
    return 0


def cmp_tagged(a: TaggedReal, b: TaggedReal) -> int:
    if a < b:
        return -1
    if b < a:
        return 1
    return 0


class ComparisonLedger:
    """Counts sign queries on linear forms of input reals, by arity.

    Arity is the number of distinct input reals appearing in the queried
    form.  Counts are monotone; :meth:`snapshot` freezes a labelled copy so
    phases of an algorithm can be audited after the fact.
    """

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}
        self.snapshots: list[tuple[str, dict[int, int]]] = []

    def tick(self, arity: int, n: int = 1) -> None:
        if n < 0:
            raise ValueError("ledger counts are monotone")
        if n:
            self._counts[arity] = self._counts.get(arity, 0) + n

    @property
    def count_3linear(self) -> int:
        return self._counts.get(3, 0)

    @property
    def count_4linear(self) -> int:
        return self._counts.get(4, 0)

    @property
    def count_klinear(self) -> dict[int, int]:
        return dict(self._counts)

    def count(self, arity: int) -> int:
        return self._counts.get(arity, 0)

    def total(self) -> int:
        return sum(self._counts.values())

    def other_total(self) -> int:
        """Ticks at every arity other than 3 and 4."""
        return sum(v for k, v in self._counts.items() if k not in (3, 4))

    def snapshot(self, label: str) -> dict[int, int]:
        counts = dict(self._counts)
        self.snapshots.append((label, counts))
        return counts

    def snapshot_counts(self, label: str) -> dict[int, int]:
        for name, counts in self.snapshots:
            if name == label:
                return counts
        raise KeyError(label)

    def delta(self, label_from: str, label_to: str) -> dict[int, int]:
        a = self.snapshot_counts(label_from)
        b = self.snapshot_counts(label_to)
        return {k: b.get(k, 0) - a.get(k, 0) for k in set(a) | set(b)}


def merge_sort_counted(items: Sequence, compare: Callable) -> list:
    """Canonical bottom-up stable mergesort; `compare` is charged per call.

    This is the reference sorting procedure for every instrumented sort in
    the package: runs double from width 1, merges take the left element on
    ties, and the trailing run is flushed without comparisons.  The
    vectorised tick counters mirror exactly this procedure.
    """
    out = list(items)
    n = len(out)
    width = 1
    buf = [None] * n
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            if mid >= hi:
                continue
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if compare(out[i], out[j]) <= 0:
                    buf[k] = out[i]
                    i += 1
                else:
                    buf[k] = out[j]
                    j += 1
                k += 1
            while i < mid:
                buf[k] = out[i]
                i += 1
                k += 1
            while j < hi:
                buf[k] = out[j]
                j += 1
                k += 1
            out[lo:hi] = buf[lo:hi]
        width *= 2
    return out


def sorted_counted(values: Sequence[float], ledger: ComparisonLedger,
                   arity: int = 2) -> list[float]:
    """Sort raw input reals, charging one tick of `arity` per comparison."""

    def compare(x, y):
        ledger.tick(arity)
        return sign(x - y)

    return merge_sort_counted(values, compare)


def sort_differences(groups: Sequence[Sequence[TaggedReal]],
                     ledger: ComparisonLedger, arity: int = 4) -> list[TaggedReal]:
    """Sort the union of all within-group difference lists.

    The reference for :func:`difference_ticks`: group by group, each
    contributes ``grp[x] - grp[y]`` for every ``(x, y)`` in row-major order.
    Every comparison made during the sort is a sign query on a difference
    of differences and ticks the ledger once; for plain inputs that form
    touches four reals, for composite inputs the caller passes the wider
    arity.
    """
    if not groups:
        raise ValueError("groups must be nonempty")
    diffs = [gx - gy for grp in groups for gx in grp for gy in grp]

    def compare(a, b):
        ledger.tick(arity)
        return cmp_tagged(a, b)

    return merge_sort_counted(diffs, compare)


# -- vectorised tick counting -------------------------------------------------
#
# The fast solver paths never run the Python mergesort above; they compute
# the exact number of comparisons it would make.  For a stable two-way merge
# of sorted runs L and R (ties go left), the comparison count is
# |L| + |R| - t where t is the length of the run flushed after the other
# side empties.  Both t and run maxima are permutation-invariant, so the
# count needs only the *unsorted* chunk contents at every width.


def _merge_comparisons(lu, lt, ru, rt) -> int:
    """Comparisons of merging each row's left run with its right run, summed
    over rows; the runs are given unsorted as 2-D (value, tag) arrays."""
    lowest = np.iinfo(np.int64).min
    lmax_u = lu.max(axis=1, keepdims=True)
    lmax_t = np.where(lu == lmax_u, lt, lowest).max(axis=1, keepdims=True)
    rmax_u = ru.max(axis=1, keepdims=True)
    rmax_t = np.where(ru == rmax_u, rt, lowest).max(axis=1, keepdims=True)
    left_first = ((lmax_u < rmax_u) | ((lmax_u == rmax_u) & (lmax_t <= rmax_t)))[:, 0]
    cnt_r = ((ru < lmax_u) | ((ru == lmax_u) & (rt < lmax_t))).sum(axis=1)
    cnt_l = ((lu < rmax_u) | ((lu == rmax_u) & (lt <= rmax_t))).sum(axis=1)
    return int(np.where(left_first, lu.shape[1] + cnt_r, ru.shape[1] + cnt_l).sum())


def mergesort_tick_count(u: np.ndarray, tags: Optional[np.ndarray] = None) -> int:
    """Comparisons the canonical mergesort makes on (u, tags) lex keys.

    Matches :func:`merge_sort_counted` with a comparator ordering by value
    then tag.  ``tags=None`` means all ties compare equal, which is what an
    instrumented raw-value comparator reports.
    """
    u = np.asarray(u, dtype=np.float64)
    n = len(u)
    if tags is None:
        tags = np.zeros(n, dtype=np.int64)
    else:
        tags = np.asarray(tags, dtype=np.int64)
    total = 0
    width = 1
    while width < n:
        step = 2 * width
        full = n - n % step
        if full:
            bu = u[:full].reshape(-1, step)
            bt = tags[:full].reshape(-1, step)
            total += _merge_comparisons(bu[:, :width], bt[:, :width], bu[:, width:], bt[:, width:])
        # trailing block: left run of `width`, right run short
        mid = full + width
        if mid < n:
            total += _merge_comparisons(u[None, full:mid], tags[None, full:mid],
                                        u[None, mid:], tags[None, mid:])
        width = step
    return total


# -- the grouped-search kernel -------------------------------------------------


def difference_ticks(segments, ledger: ComparisonLedger, arity: int = 4) -> int:
    """Charge the canonical mergesort of within-group difference lists.

    ``segments`` is an ordered list of ``(values, index_tags, role)`` with
    role ``"row"`` or ``"col"``.  Each contributes ``values[x] - values[y]``
    tagged ``index_tags[x] - index_tags[y]`` for every ``(x, y)`` in
    row-major order, in segment order; the count depends on that order.
    Row tags are scaled by a base above twice any column tag, so the one
    integer tag orders like the ``(row, col)`` tag pair of
    :class:`TaggedReal` and the count equals :func:`sort_differences` on
    the same groups.  Ticks the count at `arity` and returns it.
    """
    if not segments:
        return 0
    spans = [int(np.ptp(tags)) for _, tags, role in segments if role == "col" and len(tags)]
    base = 2 * max(spans, default=0) + 2
    values, tags = [], []
    for vals, idx, role in segments:
        vals = np.asarray(vals, dtype=np.float64)
        idx = np.asarray(idx, dtype=np.int64)
        values.append(np.subtract.outer(vals, vals).ravel())
        diff = np.subtract.outer(idx, idx).ravel()
        tags.append(diff * base if role == "row" else diff)
    count = mergesort_tick_count(np.concatenate(values), np.concatenate(tags))
    ledger.tick(arity, count)
    return count


def box_order(row_vals, col_vals) -> tuple[list, list]:
    """Sorted order of the box ``row_vals[x] + col_vals[y]``, free of ticks.

    Ties break by row index, then column index: the order of the tagged
    sums ``(v, x, 0) + (w, 0, y)``, which Fredman's trick reads off the
    sorted difference lists.  A stable sort of the row-major sums is that
    lexicographic order.  Returns the positions ``(x, y)`` and their raw
    sums, both as lists.
    """
    cols = np.asarray(col_vals, dtype=np.float64)
    sums = np.add.outer(np.asarray(row_vals, dtype=np.float64), cols).ravel()
    idx = np.argsort(sums, kind="stable")
    rows_of, cols_of = np.divmod(idx, len(cols))
    return list(zip(rows_of.tolist(), cols_of.tolist())), sums[idx].tolist()


def staircase_visits(svals: Sequence[float], g: int):
    """Boxes the grouped 3SUM walk visits, in order, as ``(k, lo, hi)``.

    ``svals`` is sorted and cut into groups of ``g``.  The walk for the key
    ``-svals[k]`` starts at box ``(0, k // g)`` and moves west when the
    box's largest row value plus smallest column value exceeds the key,
    south otherwise, until it leaves the upper triangle.  Touches no
    ledger: the caller ticks one 3-linear query per visit that misses.
    """
    n = len(svals)
    m = -(-n // g)
    gmins = [svals[i * g] for i in range(m)]
    gmaxs = [svals[min((i + 1) * g, n) - 1] for i in range(m)]
    for k in range(n):
        key = -svals[k]
        lo, hi = 0, k // g
        while lo <= hi:
            yield k, lo, hi
            if gmaxs[lo] + gmins[hi] > key:
                hi -= 1
            else:
                lo += 1


def ternary_search(raws: Sequence[float], key: float, ledger: ComparisonLedger,
                   arity: int = 3):
    """Canonical three-way binary search; one tick per probe.

    Returns ('hit', index) or ('miss', insertion_point).
    """
    lo, hi = 0, len(raws) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        ledger.tick(arity)
        v = raws[mid]
        if v == key:
            return ("hit", mid)
        if v < key:
            lo = mid + 1
        else:
            hi = mid - 1
    return ("miss", lo)


@lru_cache(maxsize=32)
def _binsearch_depths(length: int):
    """Probe counts of `ternary_search` on a length-`length` array of
    distinct values: per hit index and per miss insertion point."""
    node = np.zeros(length, dtype=np.int32)
    gap = np.zeros(length + 1, dtype=np.int32)
    stack = [(0, length - 1, 0)]
    while stack:
        lo, hi, made = stack.pop()
        if lo > hi:
            gap[lo] = made
            continue
        mid = (lo + hi) // 2
        node[mid] = made + 1
        stack.append((lo, mid - 1, made + 1))
        stack.append((mid + 1, hi, made + 1))
    return node, gap


@lru_cache(maxsize=64)
def _bound_depths(length: int) -> tuple[int, ...]:
    """Probe counts of the two-way ``lo < hi`` bisection on a length-`length`
    list, per result index.  The result fixes the probe path, whatever the
    list holds."""
    depth = [0] * (length + 1)
    stack = [(0, length, 0)]
    while stack:
        lo, hi, made = stack.pop()
        if lo == hi:
            depth[lo] = made
            continue
        mid = (lo + hi) // 2
        stack.append((lo, mid, made + 1))
        stack.append((mid + 1, hi, made + 1))
    return tuple(depth)


def lower_bound(raws: Sequence[float], key: float, ledger: ComparisonLedger,
                arity: int = 3) -> int:
    """``bisect_left``: on a sorted list, the first index whose value is
    >= key.  One tick per probe."""
    idx = bisect_left(raws, key)
    ledger.tick(arity, _bound_depths(len(raws))[idx])
    return idx


def upper_bound(raws: Sequence[float], key: float, ledger: ComparisonLedger,
                arity: int = 3) -> int:
    """``bisect_right``: on a sorted list, the first index whose value is
    > key.  One tick per probe."""
    idx = bisect_right(raws, key)
    ledger.tick(arity, _bound_depths(len(raws))[idx])
    return idx
