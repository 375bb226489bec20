from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threebench import core, harness
from threebench.core import (
    ComparisonLedger,
    _binsearch_depths,
    _bound_depths,
    _tick_count,
    as_reals,
    box_order,
    cut_groups,
    difference_ticks,
    merge_sort_counted,
    mergesort_tick_count,
    search_visits,
    sort_differences,
    sort_segments,
    sorted_counted,
    staircase_visits,
    ternary_search,
)
from threebench.threesum import _triangle_visits, solve_decision_tree


def _add(a, b):
    """Pointwise sum of two ``(value, row, col)`` keys."""
    return tuple(p + q for p, q in zip(a, b))


def _sub(a, b):
    """Pointwise difference of two ``(value, row, col)`` keys."""
    return tuple(p - q for p, q in zip(a, b))


def test_tagged_cartesian_sums_are_pairwise_distinct():
    rows = [(v, i, 0) for i, v in enumerate([1.0, 1.0, 2.0])]
    cols = [(v, 0, j) for j, v in enumerate([0.0, 1.0, 1.0])]
    sums = [_add(r, c) for r in rows for c in cols]
    assert len(set(sums)) == len(sums)


def test_tagging_is_a_linear_extension():
    # raw strict order between sums must survive tagging; checked
    # exhaustively over all sum pairs for many random lists
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a = rng.integers(-4, 5, size=n).astype(float)
        b = rng.integers(-4, 5, size=n).astype(float)
        rows = [(v, i, 0) for i, v in enumerate(a)]
        cols = [(v, 0, j) for j, v in enumerate(b)]
        sums = [(_add(r, c), r[0] + c[0]) for r in rows for c in cols]
        for t1, (s1, raw1) in enumerate(sums):
            for s2, raw2 in sums[t1 + 1:]:
                if raw1 < raw2:
                    assert s1 < s2
                elif raw2 < raw1:
                    assert s2 < s1


def _copies(segments):
    """Each ``(values, index_tags, role)`` segment's reals as key lists:
    rows ``(v, i, 0)``, columns ``(v, 0, i)``, both roles the two."""
    out = []
    for vals, idx, role in segments:
        if role != "col":
            out.append([(float(v), int(i), 0) for v, i in zip(vals, idx)])
        if role != "row":
            out.append([(float(v), 0, int(i)) for v, i in zip(vals, idx)])
    return out


def _difference_union(segments):
    """Sorted keys of every copy's full difference list, what
    :func:`sort_differences` must return."""
    return sorted(_sub(a, b) for grp in _copies(segments) for a in grp for b in grp)


def test_sort_differences_single_group():
    led = ComparisonLedger()
    diffs = sort_differences([([1.0, 2.0, 4.0], [1, 2, 0], "row")], led)
    assert [d[0] for d in diffs] == [-3.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0]
    assert led.count_klinear == {4: 1}


def test_sort_differences_singleton():
    led = ComparisonLedger()
    diffs = sort_differences([([0.0], [0], "row")], led)
    assert diffs == [(0.0, 0, 0)]


def test_sort_differences_matches_materialized_oracle():
    rng = np.random.default_rng(2)
    for trial in range(30):
        segments = sort_segments([(rng.integers(-9, 10, size=4).astype(float), range(4),
                                   ("row", "col", "both")[trial % 3]) for _ in range(3)],
                                 ComparisonLedger())
        diffs = sort_differences(segments, ComparisonLedger())
        assert diffs == _difference_union(segments)


def test_ledger_counts_are_monotone_and_booked_by_phase():
    led = ComparisonLedger()
    led.tick(3)
    first = led.phases()
    led.tick(3, 5)
    led.tick(4, 2, "deduce")
    led.tick(2, 0, "sort_input")
    led.tick(2, 7, "sort_input")
    assert first == {"walk": {3: 1}}
    first["walk"][3] = 99  # a copy: the ledger's books stay as they are
    assert led.phases() == {"sort_input": {2: 7}, "deduce": {4: 2}, "walk": {3: 6}}
    assert list(led.phases()) == ["sort_input", "deduce", "walk"]  # in PHASES order
    assert led.count_klinear == {2: 7, 3: 6, 4: 2}
    assert led.count_3linear == 6 and led.count_4linear == 2 and led.count(2) == 7
    assert led.total() == 15 and led.other_total() == 7
    with pytest.raises(ValueError):
        led.tick(3, -1)


@pytest.mark.parametrize("phase", ["match", "step1_sorted", "sort-input", "Walk"])
def test_ledger_refuses_an_unknown_phase(phase):
    led = ComparisonLedger()
    for n in (0, 1):
        with pytest.raises(ValueError, match="unknown phase"):
            led.tick(3, n, phase)
    assert led.phases() == {} and led.total() == 0


def test_ledger_counting_is_deterministic():
    def run():
        led = ComparisonLedger()
        segments = [([1.0, 2.0, 3.0], [1, 2, 0], "row"), ([0.0, 0.0, 5.0], [0, 1, 2], "both")]
        sort_differences(segments, led)
        return led.count_klinear

    assert run() == run()


@given(st.lists(st.integers(-8, 8), max_size=40))
@settings(max_examples=100, deadline=None)
def test_merge_sort_counted_sorts(values):
    def cmp(a, b):
        return -1 if a < b else (1 if a > b else 0)

    assert merge_sort_counted(values, cmp) == sorted(values)


@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3)), max_size=48))
@settings(max_examples=150, deadline=None)
def test_vectorised_tick_count_matches_instrumented_mergesort(pairs):
    counter = {"n": 0}

    def cmp(a, b):
        counter["n"] += 1
        return -1 if a < b else (1 if a > b else 0)

    merge_sort_counted(pairs, cmp)
    u = np.array([p[0] for p in pairs], dtype=np.float64)
    tags = np.array([p[1] for p in pairs], dtype=np.int64)
    assert mergesort_tick_count(u, tags) == counter["n"]


@given(st.lists(st.integers(-5, 5), max_size=48))
@settings(max_examples=150, deadline=None)
def test_vectorised_tick_count_untagged(values):
    counter = {"n": 0}

    def cmp(a, b):
        counter["n"] += 1
        return -1 if a < b else (1 if a > b else 0)

    merge_sort_counted(values, cmp)
    assert mergesort_tick_count(np.array(values, dtype=np.float64)) == counter["n"]


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


def _tick_count_by_levels(u, tags=None) -> int:
    """Second oracle for :func:`mergesort_tick_count`: both runs' maxima
    recomputed and both sides counted in full at every level."""
    n = len(u)
    tags = np.zeros(n, dtype=np.int64) if tags is None else np.asarray(tags, dtype=np.int64)
    total = 0
    width = 1
    while width < n:
        step = 2 * width
        full = n - n % step
        if full:
            bu = u[:full].reshape(-1, step)
            bt = tags[:full].reshape(-1, step)
            total += _merge_comparisons(bu[:, :width], bt[:, :width], bu[:, width:], bt[:, width:])
        mid = full + width
        if mid < n:
            total += _merge_comparisons(u[None, full:mid], tags[None, full:mid],
                                        u[None, mid:], tags[None, mid:])
        width = step
    return total


@pytest.mark.parametrize("n", sorted({0, 1} | {2 ** k + d for k in range(1, 13) for d in (-1, 0, 1)}))
def test_tick_count_matches_the_level_oracle_at_every_trailing_run(n):
    rng = np.random.default_rng(n)
    g = 7
    base = 2 * (g - 1) + 2
    diffs = rng.integers(1 - g, g, size=n)
    row_base = np.where(rng.random(n) < 0.5, diffs * base, diffs)
    for u in (rng.integers(-2, 3, size=n).astype(float), rng.normal(size=n), np.zeros(n)):
        assert mergesort_tick_count(u) == _tick_count_by_levels(u)
        assert mergesort_tick_count(u, None, np.arange(n)) == _tick_count_by_levels(u)
        for tags in (rng.permutation(n), row_base):
            assert mergesort_tick_count(u, tags) == _tick_count_by_levels(u, tags)
            assert mergesort_tick_count(u, tags, np.arange(n)) == _tick_count_by_levels(u, tags)


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), max_size=60),
       st.sets(st.integers(1, 59)))
@settings(max_examples=300, deadline=None)
def test_run_merge_count_matches_the_python_merge_from_the_same_runs(pairs, cuts):
    starts = [0] + sorted(c for c in cuts if c < len(pairs)) if pairs else []
    items = [p for a, b in zip(starts, [*starts[1:], len(pairs)]) for p in sorted(pairs[a:b])]
    counter = {"n": 0}

    def cmp(a, b):
        counter["n"] += 1
        return -1 if a < b else (1 if a > b else 0)

    assert merge_sort_counted(items, cmp, starts) == sorted(items)
    u = np.array([p[0] for p in items], dtype=np.float64)
    tags = np.array([p[1] for p in items], dtype=np.int64)
    assert mergesort_tick_count(u, tags, starts) == counter["n"]
    counter["n"] = 0
    merge_sort_counted([p[0] for p in items], cmp, starts)
    assert mergesort_tick_count(u, None, starts) == counter["n"]


def _with_cutoffs(count):
    """`count()` with every input run counted by level passes, then by
    bisection; both must agree, and the common count is returned."""
    counts = []
    for cutoff in (np.inf, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_BISECT_RUN", cutoff)
            counts.append(count())
    assert counts[0] == counts[1]
    return counts[0]


_LONG_RUN = st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)), min_size=1, max_size=300)


@given(st.sampled_from([1, 3, 5, 7, 9, 11]).flatmap(
    lambda k: st.lists(_LONG_RUN, min_size=k, max_size=k)))
@settings(max_examples=60, deadline=None)
def test_long_run_merge_count_matches_the_python_merge_on_both_paths(runs):
    # keys tie across runs, and an odd run count leaves a run unpaired at several levels
    runs = [sorted(run) for run in runs]
    items = [p for run in runs for p in run]
    starts = np.cumsum([0] + [len(run) for run in runs[:-1]])
    counter = {"n": 0}

    def cmp(a, b):
        counter["n"] += 1
        return -1 if a < b else (1 if a > b else 0)

    merge_sort_counted(items, cmp, starts.tolist())
    u = np.array([p[0] for p in items], dtype=np.float64)
    tags = np.array([p[1] for p in items], dtype=np.int64)
    assert _with_cutoffs(lambda: mergesort_tick_count(u, tags, starts)) == counter["n"]
    # a two-row stack, the second row each run negated and re-sorted, counts each row alone
    twin = [p for run in runs for p in sorted((-v, t) for v, t in run)]
    twin_u = np.array([p[0] for p in twin], dtype=np.float64)
    twin_tags = np.array([p[1] for p in twin], dtype=np.int64)
    bounds = np.append(starts, len(u))
    assert _with_cutoffs(lambda: _tick_count(np.stack([u, twin_u]), np.stack([tags, twin_tags]),
                                             bounds)) == \
        counter["n"] + mergesort_tick_count(twin_u, twin_tags, starts)


def test_tick_count_refuses_malformed_input():
    with pytest.raises(ValueError):
        mergesort_tick_count(np.arange(5.0), np.arange(7))
    with pytest.raises(ValueError):
        mergesort_tick_count(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        mergesort_tick_count(np.arange(5.0), np.zeros((5, 1), dtype=np.int64))
    for starts in ([], [1, 3], [0, 2, 2], [0, 5], [0, 3, 1]):
        with pytest.raises(ValueError):
            mergesort_tick_count(np.arange(5.0), None, starts)
    # a run that falls in value, or in tag between equal values, is refused
    u = np.array([0.0, 2.0, 1.0, 3.0, 3.0])
    for tags, starts in (([0, 0, 0, 1, 0], [0]), ([0, 0, 0, 1, 0], [0, 2]),
                         ([0, 0, 0, 1, 0], [0, 3]), (None, [0])):
        with pytest.raises(ValueError, match="ascend"):
            mergesort_tick_count(u, tags, starts)
    # a fall is fine where a run starts
    counter = {"n": 0}

    def cmp(a, b):
        counter["n"] += 1
        return -1 if a < b else (1 if a > b else 0)

    merge_sort_counted(list(zip(u.tolist(), [0, 0, 0, 1, 0])), cmp, [0, 2, 4])
    assert mergesort_tick_count(u, [0, 0, 0, 1, 0], [0, 2, 4]) == counter["n"]


def test_dt_difference_count_at_n_1024_is_pinned():
    values = harness.generate("3sum", 1024, "uniform", 10007)
    led = ComparisonLedger()
    solve_decision_tree(values, None, led)
    # 487,940 to merge the rows, 51,515 to place the column copies
    assert led.phases()["diff_sort"] == {4: 539_455}


def _sorted_counted_reference(values, ledger, arity=2):
    """The Python mergesort that :func:`sorted_counted` reproduces."""

    def compare(x, y):
        ledger.tick(arity)
        d = x - y
        return (d > 0) - (d < 0)

    return merge_sort_counted(values, compare)


def test_sorted_counted_matches_the_python_mergesort():
    # repr tells -0.0 from 0.0, so the order inside runs of equal values counts
    rng = np.random.default_rng(3)
    pools = (
        lambda n: rng.integers(-3, 4, size=n).astype(float),
        lambda n: rng.choice([-0.0, 0.0, 1.0, -1.0], size=n),
        lambda n: rng.choice([1e16, 1e16 + 2, -1e16, -1e16 - 2, 0.0], size=n),
        lambda n: rng.normal(size=n),
    )
    for pool in pools:
        for _ in range(100):
            values = pool(int(rng.integers(0, 50))).tolist()
            for arity in (2, 4):
                want_led, got_led = ComparisonLedger(), ComparisonLedger()
                want = _sorted_counted_reference(values, want_led, arity)
                assert repr(sorted_counted(values, got_led, arity)) == repr(want)
                assert got_led.count_klinear == want_led.count_klinear


def test_cut_groups_bounds_and_extremes():
    groups = cut_groups([float(v) for v in range(10)], 4)
    assert [grp.tolist() for grp in groups] == [[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0],
                                                [8.0, 9.0]]  # short last group
    assert all(grp.dtype == np.float64 for grp in groups)
    assert cut_groups([], 3) == []
    assert [grp.tolist() for grp in cut_groups([2.0, 1.0], 5)] == [[2.0, 1.0]]  # g > n
    for g in (0, -1):
        with pytest.raises(ValueError, match="group size must be >= 1"):
            cut_groups([1.0, 2.0], g)


# -- the grouped-search kernel -------------------------------------------------


def _counted_bound(raws, key, upper):
    """The two-way bisection written out, one probe counted per step."""
    lo, hi, probes = 0, len(raws), 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if (raws[mid] <= key) if upper else (raws[mid] < key):
            lo = mid + 1
        else:
            hi = mid
    return lo, probes


@given(st.lists(st.integers(-6, 6), max_size=40), st.integers(-8, 8),
       st.sampled_from(["sorted", "unsorted"]))
@settings(max_examples=300, deadline=None)
def test_bounds_match_a_counted_loop_on_sorted_tied_and_unsorted_lists(values, key, kind):
    # the depth table that conv, tmp dt and sampled price their bisections from
    raws = [float(v) for v in (sorted(values) if kind == "sorted" else values)]
    depth = _bound_depths(len(raws))
    assert not depth.flags.writeable
    for bound, upper in ((bisect_left, False), (bisect_right, True)):
        idx, probes = _counted_bound(raws, float(key), upper)
        assert bound(raws, float(key)) == idx
        assert depth[idx] == probes


def _binsearch_depths_by_stack(length):
    """The probe counts of `ternary_search`, one tree node at a time."""
    node, gap = [0] * length, [0] * (length + 1)
    stack = [(0, length - 1, 0)]
    while stack:
        lo, hi, made = stack.pop()
        if lo > hi:
            gap[lo] = made
            continue
        mid = (lo + hi) // 2
        node[mid] = made + 1
        stack += [(lo, mid - 1, made + 1), (mid + 1, hi, made + 1)]
    return node, gap


def _bound_depths_by_stack(length):
    """The probe counts of the two-way bisection, one tree node at a time."""
    depth = [0] * (length + 1)
    stack = [(0, length, 0)]
    while stack:
        lo, hi, made = stack.pop()
        if lo == hi:
            depth[lo] = made
            continue
        mid = (lo + hi) // 2
        stack += [(lo, mid, made + 1), (mid + 1, hi, made + 1)]
    return depth


def test_depth_tables_equal_the_stack_loops():
    for length in [*range(2049), 189 ** 2, 279 ** 2]:
        node, gap = _binsearch_depths(length)
        want_node, want_gap = _binsearch_depths_by_stack(length)
        assert node.tolist() == want_node and gap.tolist() == want_gap
        depth = _bound_depths(length)
        assert depth.tolist() == _bound_depths_by_stack(length)
        assert not (node.flags.writeable or gap.flags.writeable or depth.flags.writeable)


def _inline_staircase(svals, g):
    visits = []
    for k in range(len(svals)):
        key = -svals[k]
        lo, hi = 0, k // g
        while lo <= hi:
            visits.append((k, lo, hi))
            a, b = lo * g, hi * g
            gmax = svals[min(a + g, len(svals)) - 1]
            if gmax + svals[b] > key:
                hi -= 1
            else:
                lo += 1
    return visits


def _visits(idx, lo, hi):
    return list(zip(idx.tolist(), lo.tolist(), hi.tolist()))


def test_staircase_visits_match_the_inline_walk():
    # the 3SUM walk is the prefix of each key's walk that stays in lo <= hi
    for gen in harness.GENERATORS:
        for n in (1, 2, 17, 40):
            svals = sorted(harness.generate("3sum", n, gen, 4).tolist())
            for g in (1, 3, 7, n):
                firsts = list(range(0, n, g))
                row_max = [svals[min(i + g, n) - 1] for i in firsts]
                col_min = [svals[i] for i in firsts]
                visits = _visits(*staircase_visits(row_max, col_min, [-v for v in svals],
                                                   np.arange(n) // g))
                assert [v for v in visits if v[1] <= v[2]] == _inline_staircase(svals, g)
                assert _visits(*_triangle_visits(svals, g)) == _inline_staircase(svals, g)


def _inline_unbalanced(row_max, col_min, keys):
    visits = []
    for t, key in enumerate(keys):
        lo, hi = 0, len(col_min) - 1
        while lo < len(row_max) and hi >= 0:
            visits.append((t, lo, hi))
            if row_max[lo] + col_min[hi] > key:
                hi -= 1
            else:
                lo += 1
    return visits


def test_staircase_visits_walk_unbalanced_grids_to_their_edge():
    rng = np.random.default_rng(5)
    for _ in range(200):
        ma, mb = (int(x) for x in rng.integers(1, 9, size=2))
        uni = int(rng.choice([3, 30, 10 ** 6]))
        row_max = np.sort(rng.integers(-uni, uni + 1, size=ma)).astype(float)
        col_min = np.sort(rng.integers(-uni, uni + 1, size=mb)).astype(float)
        keys = rng.integers(-2 * uni, 2 * uni + 1, size=int(rng.integers(0, 12))).astype(float)
        got = _visits(*staircase_visits(row_max, col_min, keys, mb - 1))
        assert got == _inline_unbalanced(row_max.tolist(), col_min.tolist(), keys.tolist())


def test_search_visits_equal_a_ternary_search_per_visit():
    # probes up to and including the first hit, plus one per earlier miss
    rng = np.random.default_rng(6)
    for _ in range(300):
        uni = int(rng.choice([2, 9, 10 ** 6]))
        rows = [rng.integers(-uni, uni + 1, size=int(rng.integers(1, 6))).astype(float)
                for _ in range(int(rng.integers(1, 4)))]
        cols = [rng.integers(-uni, uni + 1, size=int(rng.integers(1, 6))).astype(float)
                for _ in range(int(rng.integers(1, 4)))]
        nv = int(rng.integers(0, 25))
        lo = rng.integers(0, len(rows), size=nv)
        hi = rng.integers(0, len(cols), size=nv)
        keys = rng.integers(-2 * uni, 2 * uni + 1, size=nv).astype(float)
        led, first = ComparisonLedger(), None
        for t in range(nv):
            raws = box_order(rows[lo[t]], cols[hi[t]])[1]
            if ternary_search(raws, keys[t], led)[0] == "hit":
                first = t
                break
            led.tick(3)
        assert search_visits(rows, cols, lo, hi, keys) == (led.count_3linear, first)


def test_search_visits_equal_the_per_visit_oracle_over_hundreds_of_visits():
    # hits are rare, so boxes hold keys past the first hit and the search
    # stops early; the cases that exercises are tallied and all required
    rng = np.random.default_rng(16)
    seen = set()
    for _ in range(80):
        uni = int(rng.choice([3, 6, 40]))
        rows = [np.sort(rng.integers(-uni, uni + 1, size=int(rng.integers(1, 13)))).astype(float)
                for _ in range(int(rng.integers(1, 4)))]
        cols = [np.sort(rng.integers(-uni, uni + 1, size=int(rng.integers(1, 13)))).astype(float)
                for _ in range(int(rng.integers(1, 4)))]
        nv = int(rng.integers(200, 700))
        lo = rng.integers(0, len(rows), size=nv)
        hi = rng.integers(0, len(cols), size=nv)
        raws = {(i, j): box_order(rows[i], cols[j])[1]
                for i in range(len(rows)) for j in range(len(cols))}
        keys = np.empty(nv)
        for t in range(nv):
            box = raws[lo[t], hi[t]]
            pick = rng.random()
            if pick < 0.01:
                keys[t] = box[0] if pick < 0.005 else box[-1]
            elif pick < 0.02:
                keys[t] = box[int(rng.integers(len(box)))]
            elif pick < 0.1:
                keys[t] = box[0] - 1 if pick < 0.06 else box[-1] + 1
            else:
                keys[t] = rng.integers(box[0] - 1, box[-1] + 1) + 0.5
        hits = [keys[t] in raws[lo[t], hi[t]] for t in range(nv)]
        led, first = ComparisonLedger(), None
        for t in range(nv):
            if ternary_search(raws[lo[t], hi[t]], keys[t], led)[0] == "hit":
                first = t
                break
            led.tick(3)
        assert search_visits(rows, cols, lo, hi, keys) == (led.count_3linear, first)
        if first is None:
            continue
        visits = {}
        for t, b in enumerate(zip(lo.tolist(), hi.tolist())):
            visits.setdefault(b, []).append(t)
        box, key = raws[lo[first], hi[first]], keys[first]
        hit_after = [min((t for t in ts if hits[t]), default=nv) for ts in visits.values()]
        in_range = [raws[b][0] <= keys[t] <= raws[b][-1] for t, b in enumerate(zip(lo, hi))]
        cases = {
            "revisited": any(ts[0] < first < ts[-1] for ts in visits.values()),
            "hit on a box's least sum": key == box[0],
            "hit on a box's greatest sum": key == box[-1],
            "tied hit": box.count(key) > 1,
            "box entered out of range, searched later": any(
                not in_range[ts[0]] and any(in_range[t] for t in ts if t <= first)
                for ts in visits.values()),
            "below a box": any(keys[t] < raws[lo[t], hi[t]][0] for t in range(first)),
            "above a box": any(keys[t] > raws[lo[t], hi[t]][-1] for t in range(first)),
            "box entered before the first hit, hit after it":
                any(ts[0] < first < h < nv for ts, h in zip(visits.values(), hit_after)),
            "hit in a box first visited after the first hit":
                any(first < ts[0] and h < nv for ts, h in zip(visits.values(), hit_after)),
        }
        seen |= {name for name, held in cases.items() if held}
    assert seen == set(cases)


def test_box_order_equals_the_fredman_comparator_order():
    # a + b < a' + b'  iff  a - a' < b' - b, answered on tagged reals
    for gen in harness.GENERATORS:
        for seed in range(6):
            vals = harness.generate("3sum", 24, gen, seed).tolist()
            for rv, cv in ((vals[:5], vals[5:9]), (vals[9:16], vals[16:24]),
                           (vals[:1], vals[1:6]), (vals[6:12], vals[6:12])):
                r = [(v, i, 0) for i, v in enumerate(rv)]
                c = [(v, 0, j) for j, v in enumerate(cv)]
                cells = [(x, y) for x in range(len(rv)) for y in range(len(cv))]

                def cmp(p, q):
                    lhs, rhs = _sub(r[p[0]], r[q[0]]), _sub(c[q[1]], c[p[1]])
                    return (lhs > rhs) - (lhs < rhs)

                want = merge_sort_counted(cells, cmp)
                order, raws = box_order(rv, cv)
                assert order == want
                assert raws == [rv[x] + cv[y] for (x, y) in want]


def test_box_order_single_row_follows_column_order():
    order, raws = box_order([5.0], [3.0, -2.0])
    assert order == [(0, 1), (0, 0)]
    assert raws == [3.0, 8.0]


def test_box_order_full_small_box_values():
    order, raws = box_order([1.0, 3.0], [0.0, 10.0])
    assert order == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert raws == [1.0, 3.0, 11.0, 13.0]


def test_box_order_matches_the_tagged_sum_oracle_on_random_boxes():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a = rng.integers(-9, 10, size=int(rng.integers(1, 7))).astype(float)
        b = rng.integers(-9, 10, size=int(rng.integers(1, 7))).astype(float)
        rows = [(v, i, 0) for i, v in enumerate(a)]
        cols = [(v, 0, j) for j, v in enumerate(b)]
        oracle = sorted(((x, y) for x in range(len(a)) for y in range(len(b))),
                        key=lambda p: _add(rows[p[0]], cols[p[1]]))
        assert box_order(a, b)[0] == oracle


def test_box_order_breaks_ties_by_row_then_column():
    order, raws = box_order([1.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    assert order == [(0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert raws == [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0]


# duplicates, signed zeros, and magnitudes near the edge of the exact range,
# whose differences of differences still reach 2^53 exactly
_POOL = [-2.0 ** 50, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0, 2.0 ** 50, 2.0 ** 50 + 2]


@given(st.lists(st.tuples(st.one_of(st.lists(st.integers(-4, 4), max_size=5),
                                    st.lists(st.sampled_from(_POOL), max_size=40)),
                          st.sampled_from(["row", "col", "both"])), max_size=5),
       st.sampled_from([4, 7]))
@example([], 4)  # no segments: neither sort asks anything
@settings(max_examples=150, deadline=None)
def test_difference_ticks_count_the_reference_sort(groups, arity):
    # groups of up to 40 values have rows long enough to bisect, and _POOL's
    # duplicates tie differences; both counting paths must agree
    segments = sort_segments([(np.array(grp, dtype=float), range(len(grp)), role)
                              for grp, role in groups], ComparisonLedger())
    led = ComparisonLedger()
    sort_differences(segments, led, arity)

    def charged():
        led2 = ComparisonLedger()
        return difference_ticks(segments, led2, arity), led2.phases()

    assert _with_cutoffs(charged) == (led.count(arity), led.phases())


def test_sort_segments_is_each_segments_lexsort_at_the_counted_price():
    rng = np.random.default_rng(5)
    counter = {"n": 0}

    def cmp(a, b):
        counter["n"] += 1
        return -1 if a < b else (1 if a > b else 0)

    for _ in range(300):
        lengths = rng.choice([0, 1, 2, 3, 7, 8, 9], size=int(rng.integers(1, 7)))
        segments = [(rng.choice(_POOL, size=m), rng.permutation(m + 3)[:m], role)
                    for m, role in zip(lengths, rng.choice(["row", "col"], size=len(lengths)))]
        led = ComparisonLedger()
        got = sort_segments(segments, led)
        counter["n"] = 0
        for (vals, idx, role), (svals, sidx, srole) in zip(segments, got):
            want = merge_sort_counted(list(zip(vals.tolist(), idx.tolist())), cmp)
            order = np.lexsort((idx, vals))
            assert want == list(zip(vals[order].tolist(), idx[order].tolist()))
            assert (svals.tolist(), sidx.tolist(), srole) == \
                (vals[order].tolist(), idx[order].tolist(), role)
        assert led.count_klinear == ({2: counter["n"]} if counter["n"] else {})


def _ascending_groups(rng, n, g):
    """Groups of g values cut from a sorted draw of n; the last may be short."""
    return [grp.tolist() for grp in cut_groups(np.sort(rng.choice(_POOL, size=n)), g)]


def test_sort_differences_of_ascending_groups_is_the_lexsort_at_the_counted_price():
    rng = np.random.default_rng(11)
    for trial in range(1000):
        n, m = (int(x) for x in rng.integers(1, 25, size=2))
        g = int(rng.choice([1, 2, 3, 5, n]))
        rows = [(grp, range(len(grp))) for grp in _ascending_groups(rng, n, g)]
        # the dt shape: one list's groups as rows and as columns, given
        # twice or once in both roles; the kldt shape: row groups and column
        # groups cut from two lists; the blocked, sampled and sparse shape:
        # values with permuted index tags, each segment sorted by (value,
        # tag), given twice or once
        shape = trial % 5
        if shape in (0, 3):
            cols = rows
        elif shape == 1:
            cols = [(grp, range(len(grp))) for grp in _ascending_groups(rng, m, g)]
        else:
            rows, cols = ([(vals, idx) for vals, idx, _ in sort_segments(
                [(rng.choice(_POOL, size=g), rng.permutation(2 * g)[:g], "row")
                 for _ in range(-(-k // g))], ComparisonLedger())] for k in (n, m))
        segments = [(*grp, "row") for grp in rows] + [(*grp, "col") for grp in cols]
        if shape >= 3:
            segments = [(*grp, "both") for grp in rows]
        led = ComparisonLedger()
        got = sort_differences(segments, led)
        assert got == _difference_union(segments)
        led2 = ComparisonLedger()
        assert difference_ticks(segments, led2) == led.count(4)
        assert led2.count_klinear == led.count_klinear
        if shape >= 3:
            # the rows' merge, then one equality query per adjacent pair
            merge = difference_ticks([(*grp, "row") for grp in rows], ComparisonLedger())
            n_up = sum(len(vals) * (len(vals) - 1) // 2 for vals, _ in rows)
            assert led.count(4) == merge + max(n_up - 1, 0)


@pytest.mark.parametrize("values,index,ascends", [
    ([1.0, 3.0, 2.0], [0, 1, 2], False),   # values fall
    ([1.0, 1.0, 2.0], [1, 0, 2], False),   # a value tie whose tags fall
    ([1.0, 1.0, 2.0], [0, 0, 2], False),   # a value tie whose tags tie
    ([1.0, 2.0, 3.0], [2, 1, 0], True),    # tags that fall across rising values
])
def test_a_segment_declared_ascending_that_does_not_ascend_trips_an_assertion(values, index,
                                                                             ascends):
    segments = [([0.0, 1.0], [0, 1], "row"), (values, index, "col")]
    if ascends:
        led = ComparisonLedger()
        got = sort_differences(segments, led)
        assert got == _difference_union(segments)
        assert difference_ticks(segments, ComparisonLedger()) == led.count(4) > 0
        return
    for role in ("col", "both"):
        segments[1] = (values, index, role)
        with pytest.raises(AssertionError, match="does not ascend"):
            difference_ticks(segments, ComparisonLedger())
        with pytest.raises(AssertionError, match="does not ascend"):
            sort_differences(segments, ComparisonLedger())


def test_a_row_that_rounding_makes_fall_is_refused():
    # 1e16 - 1 rounds to 1e16 - 0, and the tags of that tie fall: only reals
    # past the exact range make a row fall, both difference sorts refuse the
    # row, and the solvers' boundary refuses the reals
    segment = ([0.0, 1.0, 1e16], [2, 1, 0], "row")
    for sort in (difference_ticks, sort_differences):
        for role in ("row", "both"):
            with pytest.raises(ValueError, match="each run must ascend"):
                sort([(*segment[:2], role)], ComparisonLedger())
    with pytest.raises(ValueError, match="at most 2\\^51"):
        as_reals(segment[0])


def test_as_reals_refuses_non_finite_values():
    # and every value that is not an integer of magnitude at most 2^51
    assert as_reals(np.array([1, 2, -3])) == [1.0, 2.0, -3.0]
    assert as_reals([2.0 ** 51, -2.0 ** 51, -0.0]) == [2.0 ** 51, -2.0 ** 51, -0.0]
    assert as_reals([]) == []
    for bad in ([1.0, float("nan")], [float("inf")], [0.0, -float("inf")], [1.0, 2.5],
                [2.0 ** 51 + 2], [-2.0 ** 51 - 2]):
        with pytest.raises(ValueError, match="integers of magnitude at most 2\\^51"):
            as_reals(bad)
