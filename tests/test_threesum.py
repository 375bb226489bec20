import bisect
import math
import warnings

import numpy as np
import pytest

from box_oracles import compute_contour, tagged_sum
from threebench import threesum
from threebench.core import ComparisonLedger, as_reals, box_order
from threebench.threesum import (
    default_group_size,
    leq_positions,
    oracle_3sum,
    quadratic_tick_count,
    solve_decision_tree,
    solve_quadratic,
    ternary_search,
    _triangle_visits,
)

# A 10x10 block whose row generators and column generators are frozen; the
# block's (3,5) entry is 446 and its (8,6) entry is 578.
BLOCK_ROWS = [250.0, 289.0, 299.0, 311.0, 325.0, 331.0, 363.0, 384.0, 412.0, 415.0]
BLOCK_COLS = [0.0, 22.0, 112.0, 118.0, 122.0, 135.0, 166.0, 296.0, 299.0, 356.0]


def test_oracle_finds_zero_self_triple():
    assert oracle_3sum([0.0]) == (0.0, 0.0, 0.0)


def test_oracle_all_positive_has_no_witness():
    assert oracle_3sum([1.0, 2.0, 3.0]) is None


def test_oracle_direct_witness():
    assert oracle_3sum([-3.0, 1.0, 2.0]) is not None


def _quadratic_scalar(a_vals, b_vals, c_vals, ledger):
    """The two-pointer walk in plain Python, the oracle of solve_quadratic:
    one 3-linear tick per step, and every witness triple.  Equal sums report
    a witness and advance the low pointer.  Inputs are deduplicated so rows
    and columns of the implicit sum matrix hold distinct values, which makes
    the witness list complete."""
    ua = threesum._sort_unique_counted(as_reals(a_vals), ledger).tolist()
    ub = threesum._sort_unique_counted(as_reals(b_vals), ledger).tolist()
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


def _quadratic_pair(a, b, c):
    """solve_quadratic against the scalar walk: the same decision and ledger
    counts, and a witness from the walk's list.  Returns the witness list."""
    l1, l2 = ComparisonLedger(), ComparisonLedger()
    wits = _quadratic_scalar(a, b, c, l1)
    witness = solve_quadratic(a, b, c, l2)
    assert (witness is not None) == bool(wits)
    assert witness is None or witness in wits
    assert l1.count_klinear == l2.count_klinear
    return wits


def test_quadratic_single_zero():
    assert _quadratic_pair([0.0], [0.0], [0.0]) == [(0.0, 0.0, 0.0)]
    assert solve_quadratic([0.0], [0.0], [0.0], ComparisonLedger()) == (0.0, 0.0, 0.0)


def test_quadratic_forced_witness():
    assert _quadratic_pair([1.0], [2.0], [-3.0]) == [(1.0, 2.0, -3.0)]
    assert solve_quadratic([1.0], [2.0], [-3.0], ComparisonLedger()) == (1.0, 2.0, -3.0)


def test_quadratic_matches_exhaustive_three_set_scan():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.integers(-15, 16, size=40).astype(float)
        b = rng.integers(-15, 16, size=40).astype(float)
        c = rng.integers(-15, 16, size=40).astype(float)
        led = ComparisonLedger()
        got = set(_quadratic_scalar(a, b, c, led))
        want = {(float(x), float(y), float(z))
                for x in set(a) for y in set(b) for z in set(c)
                if x + y + z == 0}
        assert got == want
        assert set(_quadratic_pair(a, b, c)) == want
        assert led.count_3linear <= len(c) * (len(set(a)) + len(set(b)))


def test_quadratic_tick_bound_and_fast_twin():
    rng = np.random.default_rng(6)
    for _ in range(30):
        na, nb, nc = (int(rng.integers(1, 50)) for _ in range(3))
        uni = int(rng.choice([4, 30, 10 ** 6]))
        a = rng.integers(-uni, uni + 1, size=na).astype(float).tolist()
        b = rng.integers(-uni, uni + 1, size=nb).astype(float).tolist()
        c = rng.integers(-uni, uni + 1, size=nc).astype(float).tolist()
        _quadratic_pair(a, b, c)
        led = ComparisonLedger()
        assert quadratic_tick_count(a, b, c, led) is \
            (solve_quadratic(a, b, c, ComparisonLedger()) is not None)
        assert led.count_3linear <= nc * (len(set(a)) + len(set(b)))


def test_quadratic_twin_reads_no_witness_from_an_overflowed_difference():
    # -c - a overflows to +inf above every b, then to -inf below every b
    b = [1.0, 2.0]
    for a, c in (([-1.7e308], [-1.7e308]), ([1.7e308], [1.7e308])):
        with np.errstate(over="ignore"):
            assert _quadratic_pair(a, b, c) == []


def test_quadratic_twin_decides_a_planted_last_key():
    # 1 to 4 row strips, 1 to 4 key chunks, the witness in any strip
    rng = np.random.default_rng(12)
    strips, chunks = set(), set()
    for trial in range(400):
        # a + b is even and every c odd, so only the planted last c closes
        # a triple
        a = (2.0 * rng.integers(-20, 21, size=int(rng.integers(1, 9)))).tolist()
        b = (2.0 * rng.integers(-20, 21, size=int(rng.integers(1, 9)))).tolist()
        c = (2.0 * rng.integers(-41, 41, size=int(rng.integers(0, 30))) + 1.0).tolist()
        planted = trial % 2 == 0
        if planted:
            c.append(-(rng.choice(a) + rng.choice(b)))
        assert bool(_quadratic_pair(a, b, c)) is planted
        strips.add(min(threesum._STRIPS, len(set(a))))
        if c:
            chunk = math.ceil(len(c) / threesum._STRIPS)
            chunks.add(math.ceil(len(c) / chunk))
    assert strips == chunks == {1, 2, 3, 4}


@pytest.mark.parametrize("strips", [1, 5, 64])
def test_quadratic_twin_decides_keys_past_the_last_full_chunk(monkeypatch, strips):
    # len(c) / strips keys a chunk, rounded up: the last chunk is often short
    monkeypatch.setattr(threesum, "_STRIPS", strips)
    rng = np.random.default_rng(strips)
    for trial in range(40):
        a = rng.integers(-40, 41, size=int(rng.integers(1, 9))).astype(float).tolist()
        b = rng.integers(-40, 41, size=int(rng.integers(1, 9))).astype(float).tolist()
        # every c is at least 200 and |a + b| <= 80, so only the planted
        # last c closes a triple
        c = rng.integers(200, 300, size=int(rng.integers(0, 30))).astype(float).tolist()
        planted = trial % 2 == 0
        if planted:
            c.append(-(a[-1] + b[0]))
        assert bool(_quadratic_pair(a, b, c)) is planted


def test_quadratic_twin_decides_on_raw_sums_like_the_walk():
    # -0.9 + 0.1 == -0.8 while -0.8 - -0.9 != 0.1, and the reverse
    assert _quadratic_pair([-0.9], [0.1], [0.8]) == [(-0.9, 0.1, 0.8)]
    assert _quadratic_pair([-0.9], [0.7], [0.2]) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _quadratic_pair([1.7e308], [1.7e308, 1.0], [-1.0]) == []
    rng = np.random.default_rng(13)
    for _ in range(1500):
        a, b, c = (np.round(rng.normal(size=int(rng.integers(1, 41))), 1) for _ in range(3))
        _quadratic_pair(a, b, c)


def _one_step_past(through_column):
    """Patch for ``_walk_end``: move each walk's end, and with it the length,
    one step past the true end, down a row or left a column."""
    def patch(exact):
        def end(*args):
            lo, hi = exact(*args)
            if through_column:
                return np.where(hi < 0, lo + 1, lo), hi
            return lo, np.where(hi >= 0, hi - 1, hi)
        return end
    return patch


@pytest.mark.parametrize("name,patch", [
    ("_walk_length", lambda exact: lambda *args: np.maximum(exact(*args) - 1, 0)),
    ("_walk_length", lambda exact: lambda *args: exact(*args) + 1),
    ("_walk_end", _one_step_past(through_column=True)),
    ("_walk_end", _one_step_past(through_column=False)),
])
def test_quadratic_twin_trips_on_a_walk_length_off_by_one(monkeypatch, name, patch):
    monkeypatch.setattr(threesum, name, patch(getattr(threesum, name)))
    rng = np.random.default_rng(14)
    for _ in range(20):
        # a + b is even and every c odd: no witness, so every walk runs out;
        # keys -81 and 81 leave every strip through column -1 and below
        a = 2.0 * rng.integers(-20, 21, size=int(rng.integers(1, 12)))
        b = 2.0 * rng.integers(-20, 21, size=int(rng.integers(1, 12)))
        c = np.append(2.0 * rng.integers(-40, 40, size=int(rng.integers(0, 12))) + 1.0,
                      [-81.0, 81.0])
        with pytest.raises(AssertionError, match="closed-form end"):
            solve_quadratic(a, b, c, ComparisonLedger())


def test_contour_below_minimum_marches_west_along_row_zero():
    ct = compute_contour(([1.0, 2.0], [10.0, 20.0]), (-100.0, 0, 0))
    assert ct.steps == ((0, 1), (0, 0))
    assert ct.moves[-1] == "W"


def test_contour_above_maximum_marches_south_along_last_column():
    ct = compute_contour(([1.0, 2.0], [10.0, 20.0]), (1000.0, 0, 0))
    assert ct.steps == ((0, 1), (1, 1))
    assert ct.moves[-1] == "S"


def test_contour_passes_through_its_key_position():
    box = (BLOCK_ROWS, BLOCK_COLS)
    assert tagged_sum(box, 3, 5) == (446.0, 3, 5)
    assert (3, 5) in compute_contour(box, tagged_sum(box, 3, 5)).steps
    assert tagged_sum(box, 8, 6) == (578.0, 8, 6)
    assert (8, 6) in compute_contour(box, tagged_sum(box, 8, 6)).steps


def test_contour_classification_matches_values_exhaustively():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = int(rng.integers(1, 11))
        rows = np.sort(rng.integers(-9, 10, size=g)).astype(float)
        cols = np.sort(rng.integers(-9, 10, size=g)).astype(float)
        box = (rows, cols)
        order = box_order(rows, cols)[0]
        for rank, (l, m) in enumerate(order):
            ct = compute_contour(box, tagged_sum(box, l, m))
            assert (l, m) in ct.steps
            assert leq_positions(ct) == set(order[:rank + 1])


def test_decision_tree_finds_planted_witness():
    led = ComparisonLedger()
    w = solve_decision_tree([-3.0, 1.0, 2.0], 2, led)
    assert w is not None and sum(w) == 0.0


def test_decision_tree_no_witness():
    for g in (1, 2, 3):
        led = ComparisonLedger()
        assert solve_decision_tree([1.0, 2.0, 3.0], g, led) is None


def test_decision_tree_agrees_with_oracle_across_group_sizes():
    rng = np.random.default_rng(8)
    for trial in range(120):
        n = int(rng.integers(1, 65))
        if trial % 2:
            vals = rng.integers(-10 ** 6, 10 ** 6, size=n).astype(float)
            if n >= 3:
                x, y = float(rng.integers(-50, 50)), float(rng.integers(-50, 50))
                vals[:3] = (x, y, -x - y)
        else:
            vals = rng.integers(-max(2, n), max(2, n), size=n).astype(float)
        g = int(rng.integers(1, n + 1))
        led = ComparisonLedger()
        w = solve_decision_tree(vals.tolist(), g, led, mode="reference")
        expect = oracle_3sum(vals) is not None
        assert (w is not None) == expect
        if w is not None:
            assert sum(w) == 0.0


def test_decision_tree_tick_bound_at_default_group_size():
    # constant frozen from pilot runs over mixed instances at n <= 64
    rng = np.random.default_rng(9)
    for trial in range(120):
        n = int(rng.integers(1, 65))
        if trial % 3 == 0:
            vals = rng.integers(-max(1, n // 2), max(1, n // 2) + 1, size=n)
        else:
            vals = rng.integers(-10 ** 6, 10 ** 6, size=n)
        led = ComparisonLedger()
        solve_decision_tree(vals.astype(float).tolist(), None, led)
        bound = 26.0 * n ** 1.5 * math.sqrt(math.log2(n + 2))
        assert led.total() <= bound


def test_decision_tree_step3_is_free():
    # the reference deduces every box's order, the fast path none: their
    # books match, and neither books anything under deduce
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        vals = rng.integers(-30, 31, size=n).astype(float).tolist()
        ref, fast = ComparisonLedger(), ComparisonLedger()
        solve_decision_tree(vals, None, ref, mode="reference")
        solve_decision_tree(vals, None, fast, mode="fast")
        assert ref.phases() == fast.phases()
        assert "deduce" not in ref.phases()


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


def test_staircase_walk_keeps_every_remaining_witness_pair():
    # checked at every visit up to and including the first box that holds
    # its key, where the grouped solvers stop
    rng = np.random.default_rng(11)
    g = 3
    for _ in range(10):
        n = int(rng.integers(2, 25))
        svals = sorted(rng.integers(-8, 9, size=n).astype(float).tolist())
        for k, lo, hi in zip(*(col.tolist() for col in _triangle_visits(svals, g))):
            _assert_walk_invariant(svals, k, g, lo, hi)
            rows, cols = svals[lo * g:(lo + 1) * g], svals[hi * g:(hi + 1) * g]
            if any(a + b == -svals[k] for a in rows for b in cols):
                break


def test_triangle_walk_keeps_k_over_g_plus_one_visits_per_key():
    rng = np.random.default_rng(21)
    for _ in range(400):
        n = int(rng.integers(1, 80))
        uni = int(rng.choice([3, 30, 10 ** 6]))
        svals = np.sort(rng.integers(-uni, uni + 1, size=n)).astype(float)
        g = int(rng.integers(1, n + 2))
        k, _, _ = _triangle_visits(svals, g)
        assert np.bincount(k, minlength=n).tolist() == (np.arange(n) // g + 1).tolist()


def test_fast_path_replicates_reference_ledger_exactly():
    rng = np.random.default_rng(12)
    for trial in range(50):
        n = int(rng.integers(2, 140))
        uni = int(rng.choice([6, 60, 10 ** 7]))
        vals = rng.integers(-uni, uni + 1, size=n).astype(float).tolist()
        g = int(rng.integers(1, n + 1))
        l1, l2 = ComparisonLedger(), ComparisonLedger()
        w1 = solve_decision_tree(vals, g, l1, mode="reference")
        w2 = solve_decision_tree(vals, g, l2, mode="fast")
        assert l1.phases() == l2.phases()
        assert (w1 is None) == (w2 is None)
        if w1 is not None:
            assert sum(w1) == 0.0 and sum(w2) == 0.0


def test_ternary_search_probe_counts_match_tree_depths():
    # the canonical probe rule is what the fast path's depth tables encode
    from threebench.threesum import _binsearch_depths

    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 60))
        raws = sorted(set(rng.integers(-80, 80, size=n).astype(float).tolist()))
        node, gap = _binsearch_depths(len(raws))
        for key in [float(k) for k in range(-85, 86, 3)]:
            led = ComparisonLedger()
            res, pos = ternary_search(raws, key, led)
            if res == "hit":
                assert led.count_3linear == node[pos]
            else:
                assert led.count_3linear == gap[pos]

    # with ties, a hit stops at the shallowest node of its run of equal
    # values and a miss follows the path of its insertion point
    lists = [[5.0] * n for n in range(1, 12)]
    lists += [[1.0] * a + [2.0, 3.0] + [4.0] * b for a in range(4) for b in range(4)]
    for _ in range(200):
        n = int(rng.integers(1, 40))
        lists.append(sorted(rng.integers(-4, 5, size=n).astype(float).tolist()))
    for raws in lists:
        node, gap = _binsearch_depths(len(raws))
        keys = sorted(set(raws) | {v + 0.5 for v in raws} | {raws[0] - 0.5})
        for key in keys:
            led = ComparisonLedger()
            res, pos = ternary_search(raws, key, led)
            left, right = bisect.bisect_left(raws, key), bisect.bisect_right(raws, key)
            if left < right:
                assert res == "hit" and raws[pos] == key
                assert led.count_3linear == min(node[left:right])
            else:
                assert res == "miss" and pos == left
                assert led.count_3linear == gap[left]


def test_default_group_size_formula():
    assert default_group_size(1) == 1
    assert default_group_size(512) == math.ceil(math.sqrt(512 * math.log2(514)))


def test_empty_input():
    led = ComparisonLedger()
    assert solve_decision_tree([], None, led) is None
    assert solve_quadratic([], [], [], led) is None
    assert _quadratic_scalar([], [], [], led) == []
