"""Substrate shared by every solver: the comparison ledger, the counted
mergesort with its vectorised tick counter, and the grouped-search kernel
every solver runs.

A solver's "cost" here is the number of sign queries it issues on linear
forms of the input reals.  Every such query must go through a
:class:`ComparisonLedger` tick; index arithmetic and tie-breaking tag
comparisons are free.  Pointwise ``(value, row, col)`` tags make every
Cartesian sum totally ordered, so search logic never branches on equality.

The grouped search (Fredman's trick) has four steps, one kernel each:
:func:`difference_ticks` charges the one sort of the within-group
difference lists; :func:`box_order` reads a box's sorted order off that
sort for free; :func:`staircase_visits` lists the boxes every key's walk
visits; and :func:`search_visits` prices, in closed form, the search of
each visited box at one tick per probe of :func:`ternary_search`, up to
the first hit.  A key outside its box's range is priced without the box,
no box is sorted whose keys in range all come after a hit, and
:func:`ternary_probes` prices each search from the key's ranks among the
box's sums.
Solvers accept input reals through :func:`as_reals`, sort them with
:func:`sorted_counted` and cut the sorted list into groups with
:func:`cut_groups`.  :func:`as_reals` admits only integers of magnitude at
most 2^51, so every sum and difference the kernels form is exact, and every
sign query has the one answer it has over the reals, as in the paper's
decision trees; no kernel guards against rounding.

The difference sort has one path.  Every segment handed to it ascends in
(value, tag) order: groups cut from a sorted list do, and solvers whose
segments are unsorted pay for :func:`sort_segments` first, at arity 2.
Then each row ``x`` of a segment's difference list, read for ``y = x-1``
down to 0, is already a sorted run, the differences being exact, so the
counted mergesort merges the upper halves ``x > y`` from their rows, and
the lower half (the upper half negated) and the diagonal follow without
comparisons.  A segment whose
reals serve as rows and as columns alike (role ``"both"``) is merged once:
its column differences have its row differences' values, so one equality
query per adjacent pair of the merged list finds the equal-value runs, and
each column difference joins its run by tag.  Merging still costs about
log n comparisons per difference, one log factor above Fredman's bound
that the paper's depth rests on.  The kernel never runs that merge: it
writes each row of every equal-length segment straight into the list, and
since every run ascends, it counts each merge level by bisecting the rows
against the level's thresholds, or, where the rows are short, by one pass
over the level's values.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np


# Doubles hold every integer of magnitude up to EXACT, and every form of up to
# four reals of magnitude up to EXACT_INPUT, a + b - c - d included, lies there.
EXACT, EXACT_INPUT = 2.0 ** 53, 2.0 ** 51


def as_reals(values) -> list[float]:
    """Input reals as Python floats.

    Refuses, with one ValueError, a value that is NaN, infinite, not
    integer-valued, or larger in magnitude than 2^51.  Every form of up to
    four accepted reals that a ledger charges is then an integer of
    magnitude at most 2^53, which a double holds exactly, so every sign
    query has the answer it has over the reals."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("input reals must form a flat list")
    exact = (np.abs(arr) <= EXACT_INPUT) & (arr == np.trunc(arr))
    if not exact.all():
        raise ValueError("input reals must be integers of magnitude at most 2^51, "
                         f"got {float(arr[~exact][0])!r}")
    return arr.tolist()


# The phases a ledger books ticks to, in the order the grouped search runs them
PHASES = ("sort_input", "diff_sort", "deduce", "walk")


class ComparisonLedger:
    """Counts sign queries on linear forms of input reals, by phase and arity.

    Arity is the number of distinct input reals appearing in the queried
    form.  Each tick is booked to one of :data:`PHASES` where it is made:
    the kernels that sort input reals book ``sort_input``, those that sort
    difference lists ``diff_sort``, the charged sort of a box ``deduce``,
    and every other tick is a walk tick.  Counts are monotone.
    """

    def __init__(self) -> None:
        self._books: dict[str, dict[int, int]] = {phase: {} for phase in PHASES}

    def tick(self, arity: int, n: int = 1, phase: str = "walk") -> None:
        try:
            book = self._books[phase]
        except KeyError:
            raise ValueError(f"unknown phase {phase!r}") from None
        if n < 0:
            raise ValueError("ledger counts are monotone")
        if n:
            book[arity] = book.get(arity, 0) + n

    def phases(self) -> dict[str, dict[int, int]]:
        """Ticks by arity per phase, in :data:`PHASES` order, for the phases
        that booked any."""
        return {phase: dict(book) for phase, book in self._books.items() if book}

    @property
    def count_3linear(self) -> int:
        return self.count(3)

    @property
    def count_4linear(self) -> int:
        return self.count(4)

    @property
    def count_klinear(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for book in self._books.values():
            for arity, n in book.items():
                counts[arity] = counts.get(arity, 0) + n
        return counts

    def count(self, arity: int) -> int:
        return sum(book.get(arity, 0) for book in self._books.values())

    def total(self) -> int:
        return sum(sum(book.values()) for book in self._books.values())

    def other_total(self) -> int:
        """Ticks at every arity other than 3 and 4."""
        return self.total() - self.count(3) - self.count(4)


_NOT_ASCENDING = "a segment does not ascend in (value, tag) order"


def merge_sort_counted(items: Sequence, compare: Callable,
                       starts: Optional[Sequence[int]] = None) -> list:
    """Canonical bottom-up stable mergesort; `compare` is charged per call.

    This is the reference sorting procedure for every instrumented sort in
    the package.  The merge starts from the sorted runs that begin at
    `starts` (ascending, from 0), by default one run per element.  Each
    level merges runs (0, 1), (2, 3), ..., taking the left element on ties;
    an unpaired last run moves up without comparisons.  The vectorised tick
    counter mirrors exactly this procedure.
    """
    out = list(items)
    n = len(out)
    bounds = [*(range(n) if starts is None else starts), n]
    buf = [None] * n
    while len(bounds) > 2:
        for t in range(0, len(bounds) - 2, 2):
            lo, mid, hi = bounds[t:t + 3]
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if compare(out[i], out[j]) <= 0:
                    buf[k] = out[i]
                    i += 1
                else:
                    buf[k] = out[j]
                    j += 1
                k += 1
            buf[k:hi] = out[i:mid] if i < mid else out[j:hi]
            out[lo:hi] = buf[lo:hi]
        bounds = [*bounds[:-1:2], n]
    return out


def sort_differences(segments, ledger: ComparisonLedger, arity: int = 4) -> list[tuple]:
    """Sort the union of all within-segment difference lists.

    The reference for :func:`difference_ticks`, on the same ``(values,
    index_tags, role)`` segments.  A ``"row"`` segment's reals are keyed
    ``(v, i, 0)``, a ``"col"`` segment's ``(v, 0, i)``, and a ``"both"``
    segment stands for the two: a row copy and a column copy of the same
    reals.  Each copy contributes ``seg[x] - seg[y]`` for every ``(x, y)``.
    Every comparison made is a sign query on a difference of differences;
    they are tallied and booked to ``diff_sort`` in one tick.  For plain
    inputs that form touches four reals, for composite inputs the caller
    passes the wider arity.

    Every segment must ascend in (value, tag) order, else an assertion
    trips.  Then only the upper half ``x > y`` of a segment's row copy (or
    of its one copy) is sorted: on exact differences row ``x``, read for
    ``y = x-1`` down to 0, is already a sorted run (a row that rounding
    makes fall is refused with a ``ValueError``), and the runs come
    segment by segment, then ``x = 1 .. m-1``.  When a segment serves both
    roles, one equality query per adjacent pair of the merged list finds
    its equal-value runs, and each column difference joins the run of its
    row twin, which has the same value, in tag order.  The lower half is the
    upper half negated and reversed and the diagonal sits between the two,
    both placed without comparisons.
    """
    ticks = 0

    def compare(a, b):
        nonlocal ticks
        ticks += 1
        return (a[0] > b[0]) - (a[0] < b[0])

    def equal(a, b):
        nonlocal ticks
        ticks += 1
        return a[0] == b[0]

    upper, rows, diagonal = [], [], 0
    for vals, idx, role in segments:
        grp = [(float(v), 0, int(i)) if role == "col" else (float(v), int(i), 0)
               for v, i in zip(vals, idx)]
        assert all(a < b for a, b in zip(grp, grp[1:])), _NOT_ASCENDING
        diagonal += len(grp) * (2 if role == "both" else 1)
        for x, (v, r, c) in enumerate(grp[1:], 1):
            run = [(v - w, r - s, c - t) for w, s, t in reversed(grp[:x])]
            if run != sorted(run):
                raise ValueError("each run must ascend in (value, tag) order")
            rows.append(len(upper))
            upper.extend(zip(run, repeat(role == "both")))
    upper = merge_sort_counted(upper, compare, rows)
    if any(role == "both" for _, _, role in segments):
        # a column difference (d, 0, r) has its row twin (d, r, 0)'s value: it joins that run
        cuts = [0, *(t for t in range(1, len(upper)) if not equal(upper[t - 1][0], upper[t][0])),
                len(upper)]
        upper = [item for a, b in zip(cuts, cuts[1:]) for item in sorted(
            upper[a:b] + [((d, 0, r), False) for (d, r, _), twin in upper[a:b] if twin],
            key=lambda item: item[0][1:])]
    ledger.tick(arity, ticks, "diff_sort")
    upper = [d for d, _ in upper]
    return [(-d, -r, -c) for d, r, c in reversed(upper)] + [(0.0, 0, 0)] * diagonal + upper


# -- vectorised tick counting -------------------------------------------------
#
# The fast solver paths never run the Python mergesort above; they compute
# the exact number of comparisons it would make.  For a stable two-way merge
# of sorted runs L and R (ties go left), the run with the larger (value,
# tag) maximum outlasts the other: if max L <= max R, L empties first after
# |L| + #{r in R : r < max L} comparisons; otherwise R does, after
# |R| + #{l in L : l <= max R}.  The maximum of a merged run is the larger
# of its halves' maxima, so each level carries one (value, tag) maximum per
# run up from the level below at O(runs) cost, and counts only the values of
# the run that outlasts that lie below a threshold key, the maximum of the
# run that empties.  A run of any level is a contiguous slice of the input
# made of whole input runs, each ascending, so that count is the sum of
# every input run's lower bound of its threshold.  Where the input runs are
# long, one vectorised bisection over all (input run, threshold) queries
# finds those bounds: a run whose last key lies below its threshold counts
# in full, one whose first key does not counts nothing, and only the rest
# are bisected.  Where they are short, a level pass over the values counts
# instead: one compare of the N values with their run's threshold, one
# count, and one equality test whose sparse hits alone are resolved by tag.
# The rows of a (k, n) stack are sorted each on its own, from one run
# layout, so that equal-length segments are counted in one call.

# Input runs this long or longer, on average, are counted by bisection, and
# shorter ones by level passes; CHANGES.md has the measurement behind it.
_BISECT_RUN = 32


def _level_pass_count(u, tags, thr, key_tag, bounds) -> int:
    """How many values of one merge level lie below their run's threshold
    key ``(thr, key_tag)``: those below `thr`, and those equal to it whose
    tag is below `key_tag`.  A run whose `thr` is NaN counts nothing.  The
    runs lie between `bounds` along each row of the stack `u`.  A function
    of its own so that a level's temporaries, some as large as `u`, are
    freed before the next level allocates its own."""
    rep = np.repeat(thr, np.diff(bounds), axis=1)
    below = int(np.count_nonzero(u < rep))
    row, pos = np.divmod(np.flatnonzero(u == rep), u.shape[1])
    run = np.searchsorted(bounds, pos, "right") - 1
    return below + int(np.count_nonzero(tags[row, pos] < key_tag[row, run]))


def _bisected_count(u, tags, first, last, thr, key_tag) -> int:
    """How many values of the flat (u, tags) lie below the threshold key
    ``(thr[q], key_tag[q])`` of their input run ``q``, which ascends from
    position ``first[q]`` to ``last[q]``; a NaN `thr` counts nothing."""
    def below(at, thr, key_tag):
        at_u = u[at]
        fewer = at_u < thr
        tied = np.flatnonzero(at_u == thr)  # sparse: only these read their tags
        fewer[tied] = tags[at[tied]] < key_tag[tied]
        return fewer

    live = np.flatnonzero(~np.isnan(thr))
    first, last, thr, key_tag = first[live], last[live], thr[live], key_tag[live]
    whole = below(last, thr, key_tag)
    total = int((last - first + 1)[whole].sum())
    rest = np.flatnonzero(~whole)
    cut = rest[below(first[rest], thr[rest], key_tag[rest])]
    base, thr, key_tag = first[cut], thr[cut], key_tag[cut]
    lo, hi = base + 1, last[cut]  # the bound lies in (first, last]
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) // 2  # lo == hi stays put: hi never lies below
        go = below(mid, thr, key_tag)
        lo, hi = np.where(go, mid + 1, lo), np.where(go, hi, mid)
    return total + int((lo - base).sum())


def _tick_count(u, tags, bounds) -> int:
    """Comparisons the canonical mergesort makes on each row of the (k, n)
    stack of (u, tags) lex keys, from the ascending runs between `bounds`,
    the same for every row."""
    k, n = u.shape
    top_u, top_t = u[:, bounds[1:] - 1], tags[:, bounds[1:] - 1]  # each run's maximum
    inputs = bounds  # the input runs; `bounds` moves up one level per merge level
    bisect = n >= _BISECT_RUN * (len(inputs) - 1)
    owner = np.arange(len(inputs) - 1)  # the run of this level that holds each input run
    queries = []  # with `bisect`, each level's threshold key per input run
    total = 0
    while top_u.shape[1] > 1:
        runs = top_u.shape[1]
        two = runs - runs % 2  # an unpaired last run moves up unmerged
        lu, ru, lt, rt = top_u[:, :two:2], top_u[:, 1:two:2], top_t[:, :two:2], top_t[:, 1:two:2]
        left_first = (lu < ru) | ((lu == ru) & (lt <= rt))  # the left run empties first
        sizes = np.diff(bounds)
        total += int(np.where(left_first, sizes[:two:2], sizes[1:two:2]).sum())
        # the run that outlasts counts below the maximum of the one that empties
        thr = np.full((k, runs), np.nan)
        thr[:, :two:2] = np.where(left_first, np.nan, ru)
        thr[:, 1:two:2] = np.where(left_first, lu, np.nan)
        key_tag = np.zeros((k, runs), dtype=tags.dtype)
        key_tag[:, :two:2], key_tag[:, 1:two:2] = rt + 1, lt
        if bisect:
            queries.append((thr[:, owner], key_tag[:, owner]))
            owner = owner // 2
        else:
            total += _level_pass_count(u, tags, thr, key_tag, bounds)
        top_u = np.concatenate([np.where(left_first, ru, lu), top_u[:, two:]], axis=1)
        top_t = np.concatenate([np.where(left_first, rt, lt), top_t[:, two:]], axis=1)
        bounds = np.append(bounds[:-1:2], n)
    if queries:  # into the flattened stack, row by row, for every level at once
        thr, key_tag = (np.concatenate(side, axis=None) for side in zip(*queries))
        first, last = (np.tile(np.add.outer(np.arange(k) * n, ends).ravel(), len(queries))
                       for ends in (inputs[:-1], inputs[1:] - 1))
        total += _bisected_count(u.reshape(-1), tags.reshape(-1), first, last, thr, key_tag)
    return total


def mergesort_tick_count(u: np.ndarray, tags: Optional[np.ndarray] = None,
                         starts: Optional[np.ndarray] = None) -> int:
    """Comparisons the canonical mergesort makes on (u, tags) lex keys.

    Matches :func:`merge_sort_counted` with a comparator ordering by value
    then tag, from the runs that begin at `starts` (default: one run per
    element).  ``tags=None`` means positional tags, which count exactly
    like a raw-value comparator: in every merge the left run's elements come
    first.  Refuses a `u` that is not one-dimensional, `tags` of another
    length, `starts` that do not rise strictly from 0 below ``len(u)``, and
    runs that do not ascend in (value, tag) order.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError("u must be one-dimensional")
    tags = np.arange(len(u)) if tags is None else np.asarray(tags)
    if tags.shape != u.shape:
        raise ValueError("tags must be as long as u")
    if starts is None:
        bounds = np.arange(len(u) + 1)
    else:
        bounds = np.append(np.asarray(starts, dtype=np.int64), len(u))
        if bounds[0] != 0 or (np.diff(bounds) <= 0).any():
            raise ValueError("starts must rise strictly from 0 below len(u)")
        fall = (u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (tags[1:] < tags[:-1]))
        fall[bounds[1:-1] - 1] = False  # a run may start below the end of the last
        if fall.any():
            raise ValueError("each run must ascend in (value, tag) order")
    return _tick_count(u[None], tags[None], bounds)


def sorted_counted(values: Sequence[float], ledger: ComparisonLedger,
                   arity: int = 2) -> list[float]:
    """Sort raw input reals stably, booking to ``sort_input`` one tick of
    `arity` per comparison :func:`merge_sort_counted` would make on them."""
    arr = np.asarray(values, dtype=np.float64)
    ledger.tick(arity, mergesort_tick_count(arr), "sort_input")
    return np.sort(arr, kind="stable").tolist()


def cut_groups(values: Sequence[float], g: int) -> list[np.ndarray]:
    """Consecutive runs of `g` values as float64 arrays; the last may be short."""
    if g < 1:
        raise ValueError("group size must be >= 1")
    arr = np.asarray(values, dtype=np.float64)
    return [arr[i:i + g] for i in range(0, len(arr), g)]


# -- the grouped-search kernel -------------------------------------------------


def _stacks(segments):
    """The ``(values, index_tags, role)`` segments grouped by length: per
    length, their positions in `segments`, then their values, index tags
    and roles side by side."""
    by_length: dict[int, list[int]] = {}
    for k, (vals, _, _) in enumerate(segments):
        by_length.setdefault(len(vals), []).append(k)
    for m, ks in by_length.items():
        vals, idx, roles = zip(*(segments[k] for k in ks))
        yield (m, ks, np.array(vals, dtype=np.float64).reshape(len(ks), m),
               np.array(idx, dtype=np.int64).reshape(len(ks), m), np.array(roles))


def sort_segments(segments, ledger: ComparisonLedger) -> list:
    """Sort each ``(values, index_tags, role)`` segment by (value, index
    tag), the order :func:`difference_ticks` requires, keeping its role.

    Segments hold raw input reals, so each comparison the canonical
    mergesort of a segment makes ticks arity 2, booked to ``sort_input``.
    Segments of one length are counted together, as one stack.
    """
    out = [None] * len(segments)
    for m, ks, vals, idx, roles in _stacks(segments):
        ledger.tick(2, _tick_count(vals, idx, np.arange(m + 1)), "sort_input")
        order = np.lexsort((idx, vals), axis=-1)
        r = np.arange(len(ks))[:, None]
        for k, *segment in zip(ks, vals[r, order], idx[r, order], roles):
            out[k] = tuple(segment)
    return out


def difference_ticks(segments, ledger: ComparisonLedger, arity: int = 4) -> int:
    """Charge the canonical mergesort of within-group difference lists.

    ``segments`` is an ordered list of ``(values, index_tags, role)`` with
    role ``"row"``, ``"col"`` or ``"both"``, each ascending in (value, index
    tag) order: cut from a sorted list, or sorted by :func:`sort_segments`.
    A segment that does not ascend trips an assertion.  Each contributes its
    upper half ``values[x] - values[y]``, ``x > y``, tagged ``index_tags[x]
    - index_tags[y]``, as one sorted run per row ``x = 1 .. m-1``, which
    exact differences make ascend (a row that falls is refused with
    ValueError); a ``"both"`` segment contributes it once, as rows.  Row
    tags are scaled by a base above twice any column tag, so the one integer
    tag orders like the ``(row, col)`` pair of a ``(value, row, col)`` key.
    When any segment serves both roles, each adjacent pair of the merged
    list adds one equality query, which places the column copies by tag.
    The count equals :func:`sort_differences` on the same segments.  Books
    the count at `arity` to ``diff_sort`` and returns it.
    """
    if not segments:
        return 0
    sizes = np.array([len(vals) * (len(vals) - 1) // 2 for vals, _, _ in segments])
    offsets = np.cumsum(sizes) - sizes
    stacks = [stack for stack in _stacks(segments) if stack[0] > 1]
    span = reach = 0
    for m, ks, vals, idx, roles in stacks:
        rise, climb = np.diff(vals), np.diff(idx)
        assert ((rise > 0) | ((rise == 0) & (climb > 0))).all(), _NOT_ASCENDING
        reach = max(reach, int(np.ptp(idx, axis=1).max()))
        cols = roles == "col"
        if cols.any():
            span = max(span, int(np.ptp(idx[cols], axis=1).max()))
    values = np.empty(int(sizes.sum()))
    # no tag exceeds `reach` times the row base; 32 bits halve the list's tags where they fit
    tags = np.empty(len(values), np.int32 if reach * (2 * span + 2) < 2**31 - 1 else np.int64)
    starts = np.zeros(len(values), dtype=bool)  # each row's first difference
    for m, ks, vals, idx, roles in stacks:
        idx[roles != "col"] *= 2 * span + 2
        x = np.arange(1, m)
        starts[(offsets[ks][:, None] + x * (x - 1) // 2).ravel()] = True
        # segments adjacent in `segments` fill one slice of the list
        cuts = [0, *(np.flatnonzero(np.diff(ks) != 1) + 1).tolist(), len(ks)]
        half = m * (m - 1) // 2
        idx = idx.astype(tags.dtype)
        if (idx == idx[0]).all():  # segments tagged alike, say 0 .. m-1, share their tag rows
            idx = idx[:1]
        for flat, stack in ((values, vals), (tags, idx)):
            if len(cuts) == 2 and len(stack) == len(ks):  # one slice: rows written in place
                at = offsets[ks[0]]
                _upper_rows(stack, flat[at:at + len(ks) * half].reshape(len(ks), half))
                continue
            rows = np.broadcast_to(_upper_rows(stack, np.empty((len(stack), half), flat.dtype)),
                                   (len(ks), half))
            for a, b in zip(cuts, cuts[1:]):
                at = offsets[ks[a]]
                flat[at:at + (b - a) * half].reshape(b - a, half)[:] = rows[a:b]
    count = mergesort_tick_count(values, tags, np.flatnonzero(starts))
    if any(role == "both" for _, _, role in segments):
        count += max(len(values) - 1, 0)  # the equality queries that place the column copies
    ledger.tick(arity, count, "diff_sort")
    return count


def _upper_rows(stack, out):
    """Write the upper halves of the (k, m) `stack`'s rows into the (k, m(m-1)/2)
    `out`, row ``x = 1 .. m-1`` of each upper half read for ``y = x-1`` down to 0, and
    return `out`."""
    for x in range(1, stack.shape[1]):
        np.subtract(stack[:, x:x + 1], stack[:, x - 1::-1],
                    out=out[:, x * (x - 1) // 2:x * (x + 1) // 2])
    return out


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


def staircase_visits(row_max, col_min, keys, start):
    """Boxes the walks visit, key by key, as arrays ``(key index, lo, hi)``.

    The walk for ``keys[t]`` starts at box ``(0, start)`` (``start`` may
    differ per key) and moves west when the row group's largest value plus
    the column group's smallest exceeds the key, south otherwise, until it
    leaves the grid.  All walks take each step together.  Touches no ledger.
    """
    return _staircase(row_max, col_min, keys, start, diagonal=False)


def _staircase(row_max, col_min, keys, start, diagonal: bool):
    """:func:`staircase_visits`, whose walks end where they leave the grid,
    or with `diagonal` where they first cross below it, at ``lo > hi``."""
    row_max, col_min, keys = (np.asarray(v, dtype=np.float64) for v in (row_max, col_min, keys))
    idx = np.arange(len(keys))
    lo = np.zeros(len(keys), dtype=np.int64)
    hi = np.broadcast_to(start, keys.shape)
    steps = []  # ends with the empty step after the last walk leaves
    while True:
        live = lo <= hi if diagonal else (lo < len(row_max)) & (hi >= 0)
        idx, lo, hi = idx[live], lo[live], hi[live]
        steps.append((idx, lo, hi))
        if not len(idx):
            break
        west = row_max[lo] + col_min[hi] > keys[idx]
        lo, hi = lo + ~west, hi - west
    idx, lo, hi = (np.concatenate(col) for col in zip(*steps))
    order = np.argsort(idx, kind="stable")
    return idx[order], lo[order], hi[order]


def ternary_search(raws: Sequence[float], key: float, ledger: ComparisonLedger,
                   arity: int = 3):
    """Canonical three-way binary search; one tick per probe, counted as it
    goes and booked in one call before it returns.

    Returns ('hit', index) or ('miss', insertion_point).
    """
    lo, hi = 0, len(raws) - 1
    probes = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        probes += 1
        v = raws[mid]
        if v == key:
            ledger.tick(arity, probes)
            return ("hit", mid)
        if v < key:
            lo = mid + 1
        else:
            hi = mid - 1
    ledger.tick(arity, probes)
    return ("miss", lo)


def _tree_depths(length: int, lean: int):
    """Depths in the bisection tree over `length` positions: per position,
    the probes up to and including the one made there, and per gap, the
    probes made before reaching it, both read-only.  The tree is built level
    by level from one array of half-open ``(lo, hi)`` intervals: a nonempty
    one is probed at ``(lo + hi - lean) // 2`` and split around that probe,
    and an empty one is the gap at `lo`."""
    node = np.zeros(length, dtype=np.int32)
    gap = np.zeros(length + 1, dtype=np.int32)
    lo, hi = np.zeros(1, dtype=np.int64), np.full(1, length, dtype=np.int64)
    made = 0
    while len(lo):
        empty = lo == hi
        gap[lo[empty]] = made
        lo, hi = lo[~empty], hi[~empty]
        mid = (lo + hi - lean) // 2
        made += 1
        node[mid] = made
        lo, hi = np.concatenate([lo, mid + 1]), np.concatenate([mid, hi])
    node.flags.writeable = gap.flags.writeable = False
    return node, gap


@lru_cache(maxsize=32)
def _binsearch_depths(length: int):
    """Probe counts of `ternary_search` on a length-`length` array of
    distinct values: per hit index and per miss insertion point (read-only)."""
    return _tree_depths(length, 1)


def ternary_probes(left: np.ndarray, right: np.ndarray, length: int):
    """Probes :func:`ternary_search` makes per key on a sorted list of
    `length` sums, and whether it hits, from each key's ranks in that list:
    `left` sums lie below the key and `right` at or below it.  A miss follows
    the path of its insertion point; a hit stops at the first probe inside
    its run of equal sums, the run's shallowest node."""
    node, gap = _binsearch_depths(length)
    hit = left < right
    probes = gap[left].astype(np.int64)
    if hit.any():
        bounds = np.column_stack((left[hit], right[hit])).ravel()
        probes[hit] = np.minimum.reduceat(np.append(node, 0), bounds)[::2]
    return probes, hit


def search_visits(row_groups, col_groups, lo, hi, keys):
    """Price the ternary search of box ``row_groups[lo[t]] + col_groups[hi[t]]``
    for ``keys[t]``, visit by visit up to the first hit.

    Returns the queries (every probe, plus one per miss to choose the move)
    and the index of the first hit, or None.  Touches no ledger.

    A key below or above every sum of its box misses at an end, priced
    without the box.  The boxes of the other visits are sorted in the order
    of their earliest such visit, until one's comes after the earliest hit
    found so far, and each ranks only its visits before that hit.
    """
    nv = len(lo)
    row_min, row_max, row_len = _group_ends(row_groups)
    col_min, col_max, col_len = _group_ends(col_groups)
    length = row_len[lo] * col_len[hi]
    above = keys > row_max[lo] + col_max[hi]
    outside = above | (keys < row_min[lo] + col_min[hi])
    probes = np.zeros(nv, dtype=np.int64)
    edge = np.where(above, length, 0)
    for size in np.unique(length[outside]).tolist():
        at = np.flatnonzero(outside & (length == size))
        probes[at] = ternary_probes(edge[at], edge[at], size)[0]
    inside = np.flatnonzero(~outside)
    box = lo[inside] * len(col_groups) + hi[inside]
    by_box = np.argsort(box, kind="stable")  # visit order kept within each box
    order, starts = inside[by_box], np.flatnonzero(np.diff(box[by_box], prepend=-1))
    ends = np.append(starts[1:], len(order))
    first = nv  # the earliest hit so far
    for b in np.argsort(order[starts]):  # boxes by their earliest visit
        seg = order[starts[b]:ends[b]]
        seg = seg[:np.searchsorted(seg, first)]
        if not len(seg):
            break  # so do all later boxes: none holds a visit before `first`
        sums = np.sort(np.add.outer(row_groups[lo[seg[0]]], col_groups[hi[seg[0]]]), axis=None)
        probes[seg], hit = ternary_probes(np.searchsorted(sums, keys[seg], "left"),
                                          np.searchsorted(sums, keys[seg], "right"), len(sums))
        if hit.any():
            first = int(seg[np.argmax(hit)])  # below `first`, as all of `seg` is
    if first < nv:
        return int(probes[:first + 1].sum()) + first, first
    return int(probes.sum()) + nv, None


def _group_ends(groups):
    """Each group's smallest value, largest value and length, as arrays."""
    sizes = np.array([len(grp) for grp in groups])
    flat, starts = np.concatenate(groups), np.cumsum(sizes) - sizes
    return np.minimum.reduceat(flat, starts), np.maximum.reduceat(flat, starts), sizes


@lru_cache(maxsize=64)
def _bound_depths(length: int) -> np.ndarray:
    """Probe counts of the two-way ``lo < hi`` bisection on a length-`length`
    list, per result index (read-only).  The result fixes the probe path,
    whatever the list holds."""
    return _tree_depths(length, 0)[1]
