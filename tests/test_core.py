import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threebench import harness
from threebench.core import (
    ComparisonLedger,
    TaggedReal,
    as_reals,
    box_order,
    cmp_tagged,
    difference_ticks,
    lower_bound,
    merge_sort_counted,
    mergesort_tick_count,
    sort_differences,
    staircase_visits,
    tag_cols,
    tag_rows,
    upper_bound,
)


def test_tagged_real_orders_lexicographically():
    assert TaggedReal(1.0, 0, 5) < TaggedReal(1.0, 1, 0)
    assert TaggedReal(1.0, 2, 0) < TaggedReal(2.0, 0, 0)
    assert TaggedReal(1.0, 2, 3) < TaggedReal(1.0, 2, 4)
    assert not TaggedReal(1.0, 2, 3) < TaggedReal(1.0, 2, 3)


def test_tagged_real_arithmetic_is_pointwise():
    a = TaggedReal(2.0, 1, 0)
    b = TaggedReal(3.0, 0, 4)
    assert a + b == TaggedReal(5.0, 1, 4)
    assert a - b == TaggedReal(-1.0, 1, -4)
    assert -a == TaggedReal(-2.0, -1, 0)


def test_tagged_cartesian_sums_are_pairwise_distinct():
    rows = tag_rows([1.0, 1.0, 2.0])
    cols = tag_cols([0.0, 1.0, 1.0])
    sums = [r + c for r in rows for c in cols]
    assert len(set(sums)) == len(sums)


def test_tagging_is_a_linear_extension():
    # raw strict order between sums must survive tagging; checked
    # exhaustively over all sum pairs for many random lists
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a = rng.integers(-4, 5, size=n).astype(float)
        b = rng.integers(-4, 5, size=n).astype(float)
        rows = tag_rows(a)
        cols = tag_cols(b)
        sums = [(r + c, r.u + c.u) for r in rows for c in cols]
        for t1, (s1, raw1) in enumerate(sums):
            for s2, raw2 in sums[t1 + 1:]:
                if raw1 < raw2:
                    assert s1 < s2
                elif raw2 < raw1:
                    assert s2 < s1


def test_sort_differences_single_group():
    led = ComparisonLedger()
    group = tag_rows([1.0, 2.0])
    diffs = sort_differences([group], led)
    assert [d.u for d in diffs] == [-1.0, 0.0, 0.0, 1.0]
    assert set(led.count_klinear) == {4}


def test_sort_differences_singleton():
    led = ComparisonLedger()
    diffs = sort_differences([tag_rows([0.0])], led)
    assert [d.u for d in diffs] == [0.0]


def test_sort_differences_matches_materialized_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        groups = [tag_rows(rng.integers(-9, 10, size=4).astype(float))
                  for _ in range(3)]
        led = ComparisonLedger()
        diffs = sort_differences(groups, led)
        explicit = sorted((g[x] - g[y]).key()
                          for g in groups for x in range(4) for y in range(4))
        assert [d.key() for d in diffs] == explicit


def test_ledger_counts_are_monotone_and_snapshots_frozen():
    led = ComparisonLedger()
    led.tick(3)
    first = led.snapshot("a")
    led.tick(3, 5)
    led.tick(4, 2)
    second = led.snapshot("b")
    assert first == {3: 1}
    assert second == {3: 6, 4: 2}
    assert led.delta("a", "b") == {3: 5, 4: 2}
    assert led.count_3linear == 6 and led.count_4linear == 2
    assert led.other_total() == 0
    with pytest.raises(ValueError):
        led.tick(3, -1)


def test_ledger_counting_is_deterministic():
    def run():
        led = ComparisonLedger()
        groups = [tag_rows([3.0, 1.0, 2.0]), tag_rows([0.0, 0.0, 5.0])]
        sort_differences(groups, led)
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
    raws = [float(v) for v in (sorted(values) if kind == "sorted" else values)]
    for fn, upper in ((lower_bound, False), (upper_bound, True)):
        led = ComparisonLedger()
        idx, probes = _counted_bound(raws, float(key), upper)
        assert fn(raws, float(key), led, arity=5) == idx
        assert led.count_klinear == ({5: probes} if probes else {})


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


def test_staircase_visits_match_the_inline_walk():
    for gen in harness.GENERATORS:
        for n in (1, 2, 17, 40):
            svals = sorted(harness.generate("3sum", n, gen, 4).tolist())
            for g in (1, 3, 7, n):
                assert list(staircase_visits(svals, g)) == _inline_staircase(svals, g)


def test_box_order_equals_the_fredman_comparator_order():
    # a + b < a' + b'  iff  a - a' < b' - b, answered on tagged reals
    for gen in harness.GENERATORS:
        for seed in range(6):
            vals = harness.generate("3sum", 24, gen, seed).tolist()
            for rv, cv in ((vals[:5], vals[5:9]), (vals[9:16], vals[16:24]),
                           (vals[:1], vals[1:6]), (vals[6:12], vals[6:12])):
                r, c = tag_rows(rv), tag_cols(cv)
                cells = [(x, y) for x in range(len(rv)) for y in range(len(cv))]
                want = merge_sort_counted(
                    cells, lambda p, q: cmp_tagged(r[p[0]] - r[q[0]], c[q[1]] - c[p[1]]))
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
        rows, cols = tag_rows(a), tag_cols(b)
        oracle = sorted(((x, y) for x in range(len(a)) for y in range(len(b))),
                        key=lambda p: (rows[p[0]] + cols[p[1]]).key())
        assert box_order(a, b)[0] == oracle


def test_box_order_breaks_ties_by_row_then_column():
    order, raws = box_order([1.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    assert order == [(0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert raws == [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0]


@given(st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=5), min_size=1, max_size=5),
       st.integers(0, 5), st.sampled_from([4, 7]))
@settings(max_examples=150, deadline=None)
def test_difference_ticks_count_the_reference_sort(groups, n_rows, arity):
    n_rows = min(n_rows, len(groups))
    tagged = [tag_rows(grp) if t < n_rows else tag_cols(grp) for t, grp in enumerate(groups)]
    led = ComparisonLedger()
    sort_differences(tagged, led, arity)
    segments = [(grp, range(len(grp)), "row" if t < n_rows else "col")
                for t, grp in enumerate(groups)]
    led2 = ComparisonLedger()
    assert difference_ticks(segments, led2, arity) == led.count(arity)
    assert led2.count_klinear == led.count_klinear


def test_as_reals_refuses_non_finite_values():
    assert as_reals(np.array([1, 2.5, -3])) == [1.0, 2.5, -3.0]
    assert as_reals([]) == []
    for bad in ([1.0, float("nan")], [float("inf")], [0.0, -float("inf")]):
        with pytest.raises(ValueError):
            as_reals(bad)
