import numpy as np
import pytest

from threebench.core import ComparisonLedger, TaggedReal
from threebench.threesum import (
    BoxView,
    Grouping,
    SubquadraticParams,
    _all_contours,
    cached_catalog,
    compute_contour,
    default_point_count,
    deterministic_point_set,
    enumerate_legal_pairs,
    grid_span,
    grid_spacing,
    is_bad,
    leq_positions,
    match_boxes,
    oracle_3sum,
    random_point_set,
    resolve_subquadratic_params,
    select_best_point_set,
    solve_subquadratic,
    solve_subquadratic_simple,
)


def _random_box(rng, g, lo=-9, hi=10):
    rows = np.sort(rng.integers(lo, hi, size=g)).astype(float)
    cols = np.sort(rng.integers(lo, hi, size=g)).astype(float)
    return BoxView([TaggedReal(v, i, 0) for i, v in enumerate(rows)],
                   [TaggedReal(v, 0, j) for j, v in enumerate(cols)])


# ---------------------------------------------------------------------------
# point sets


def test_grid_point_set_15_by_3():
    ps = deterministic_point_set(15, 3)
    assert grid_spacing(15, 3) == 4
    grid = {(k * 4 - 1, l * 4 - 1) for k in range(1, 4) for l in range(1, 4)}
    assert ps.positions == grid | {(0, 0), (14, 14)}
    rows = sorted({x for (x, _) in ps.positions if (x, x) in grid})
    assert rows == [3, 7, 11]


def test_grid_side_zero_gives_corners_only():
    ps = deterministic_point_set(5, 0)
    assert ps.positions == {(0, 0), (4, 4)}


def test_grid_overflow_rejected():
    with pytest.raises(ValueError):
        deterministic_point_set(3, 2)  # 2*2-1 = 3 > 2


def test_random_point_set_is_reproducible_and_contains_corners():
    ps1 = random_point_set(8, 6, np.random.default_rng(42))
    ps2 = random_point_set(8, 6, np.random.default_rng(42))
    assert ps1.positions == ps2.positions
    assert {(0, 0), (7, 7)} <= ps1.positions
    assert ps1.count == 6
    with pytest.raises(ValueError):
        random_point_set(2, 5, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# bad boxes


def test_full_point_set_is_never_bad():
    rng = np.random.default_rng(0)
    g = 4
    full = deterministic_point_set(g, 0)
    every = type(full)(g, frozenset((x, y) for x in range(g) for y in range(g)))
    for _ in range(20):
        assert not is_bad(_random_box(rng, g), every, 0)


def test_corners_only_is_bad_for_generic_boxes():
    rng = np.random.default_rng(1)
    g = 4
    corners = deterministic_point_set(g, 0)
    boxes = [_random_box(rng, g, -1000, 1000) for _ in range(20)]
    span = g * g - 3  # interior of size g^2-2 exceeds this
    assert all(is_bad(b, corners, span) for b in boxes)
    assert not any(is_bad(b, corners, g * g - 2) for b in boxes)


def test_grid_span_prevents_badness_on_samples():
    rng = np.random.default_rng(2)
    for g, q in ((4, 2), (6, 3), (9, 3)):
        ps = deterministic_point_set(g, q)
        span = grid_span(g, q)
        for _ in range(50):
            assert not is_bad(_random_box(rng, g, -10 ** 6, 10 ** 6), ps, span)


def test_random_point_set_bad_rate_is_low():
    rng = np.random.default_rng(3)
    g = 6
    span = g
    count = default_point_count(g, span)
    bad = 0
    trials = 400
    for _ in range(trials):
        ps = random_point_set(g, count, rng)
        if is_bad(_random_box(rng, g, -10 ** 6, 10 ** 6), ps, span):
            bad += 1
    assert bad / trials <= 2.0 / g


# ---------------------------------------------------------------------------
# the catalog


def _entry_is_legal(entry, point_set, span, g):
    leq1 = leq_positions(entry.tau)
    leq2 = leq_positions(entry.tau_prime)
    assert leq1 <= leq2                      # lower contour above upper
    assert entry.anchor in entry.tau.steps
    assert entry.anchor_prime in entry.tau_prime.steps
    assert entry.anchor in point_set.positions
    assert entry.anchor_prime in point_set.positions
    mid = set(entry.parts.mid)
    assert not (mid & point_set.positions)
    assert len(mid) <= span
    assert set(entry.order) == mid
    entry.parts.validate(g, g)


def test_enumerated_pairs_satisfy_legality():
    ps = deterministic_point_set(2, 0)  # corners only
    cat = enumerate_legal_pairs(2, ps, 4)
    assert cat.entries
    for entry in cat.entries.values():
        _entry_is_legal(entry, ps, 4, 2)


def test_width_one_catalog_is_empty():
    ps = deterministic_point_set(1, 0)
    cat = enumerate_legal_pairs(1, ps, 4)
    assert cat.entries == {}


def test_pair_count_is_bounded():
    for g in (2, 3, 4):
        ps = deterministic_point_set(g, 1 if g == 3 else 0)
        span = min(4, grid_span(g, 1 if g == 3 else 0)) if g == 3 else 3
        cat = enumerate_legal_pairs(g, ps, span)
        pairs = {(e.tau.moves, e.anchor, e.tau_prime.moves, e.anchor_prime)
                 for e in cat.entries.values()}
        assert len(pairs) <= 2 ** (4 * g)


def test_catalog_budget_guard():
    ps = deterministic_point_set(4, 2)
    with pytest.raises(ValueError):
        enumerate_legal_pairs(4, ps, grid_span(4, 2), budget=100)


def test_grid_catalog_covers_every_realizable_consecutive_pair():
    # the true contour pair of any two value-consecutive anchors must pass
    # the span filter when the span is the grid bound
    rng = np.random.default_rng(4)
    for g, q in ((3, 1), (4, 2), (6, 3)):
        ps = deterministic_point_set(g, q)
        span = grid_span(g, q)
        for _ in range(20):
            box = _random_box(rng, g, -10 ** 6, 10 ** 6)
            order = sorted(box.positions(), key=lambda p: box.tagged(*p).key())
            anchors = [p for p in order if p in ps.positions]
            for a, b in zip(anchors, anchors[1:]):
                tau = compute_contour(box, box.tagged(*a))
                tau_p = compute_contour(box, box.tagged(*b))
                mid = leq_positions(tau_p) - leq_positions(tau) - {b}
                assert len(mid) <= span
                assert not (mid & ps.positions)


# ---------------------------------------------------------------------------
# matching


def test_matched_entries_are_the_true_contours():
    rng = np.random.default_rng(5)
    g, q, span = 4, 2, 3  # reduced span keeps the catalog small; some boxes bad
    ps = deterministic_point_set(g, q)
    cat = cached_catalog(g, ps, span)
    vals = np.sort(rng.integers(-10 ** 6, 10 ** 6, size=64)).astype(float)
    grouping = Grouping(tuple(vals), g)
    assignments = match_boxes(grouping, cat)
    assert assignments
    for (i, j), slots in assignments.items():
        box = BoxView.from_grouping(grouping, i, j)
        for (anchor, anchor_p), entry in slots.items():
            assert compute_contour(box, box.tagged(*anchor)).moves == entry.tau.moves
            assert compute_contour(box, box.tagged(*anchor_p)).moves == entry.tau_prime.moves
            true_mid = sorted(entry.parts.mid, key=lambda p: box.tagged(*p).key())
            assert list(entry.order) == true_mid


def test_non_bad_boxes_receive_full_chains():
    rng = np.random.default_rng(6)
    g, q = 3, 1
    ps = deterministic_point_set(g, q)
    span = grid_span(g, q)
    cat = cached_catalog(g, ps, span)
    vals = np.sort(rng.integers(-10 ** 6, 10 ** 6, size=63)).astype(float)
    grouping = Grouping(tuple(vals), g)
    assignments = match_boxes(grouping, cat)
    m = grouping.num_groups
    for i in range(m):
        for j in range(m):
            if grouping.group_len(i) == g and grouping.group_len(j) == g:
                box = BoxView.from_grouping(grouping, i, j)
                assert not is_bad(box, ps, span)
                assert len(assignments[(i, j)]) == ps.count - 1


def test_corner_anchored_pair_matches_direct_contours():
    rng = np.random.default_rng(7)
    g = 2
    ps = deterministic_point_set(g, 0)
    cat = cached_catalog(g, ps, 2)
    vals = np.sort(rng.integers(-50, 50, size=8)).astype(float)
    grouping = Grouping(tuple(vals), g)
    assignments = match_boxes(grouping, cat)
    for (i, j), slots in assignments.items():
        box = BoxView.from_grouping(grouping, i, j)
        entry = slots[((0, 0), (g - 1, g - 1))]
        assert compute_contour(box, box.tagged(0, 0)).moves == entry.tau.moves


# ---------------------------------------------------------------------------
# solvers


def test_subquadratic_deterministic_matches_oracle_with_zero_bad_boxes():
    rng = np.random.default_rng(8)
    g, q = 3, 1
    ps = deterministic_point_set(g, q)
    span = grid_span(g, q)
    for trial in range(25):
        vals = rng.integers(-10 ** 5, 10 ** 5, size=64).astype(float)
        if trial % 2:
            x, y = float(rng.integers(-99, 99)), float(rng.integers(-99, 99))
            vals[:3] = (x, y, -x - y)
        led = ComparisonLedger()
        params = SubquadraticParams(group_size=g, grid_side=q)
        w = solve_subquadratic(vals.tolist(), params, led)
        assert (w is not None) == (oracle_3sum(vals) is not None)
        if w is not None:
            assert sum(w) == 0.0
        grouping = Grouping(tuple(sorted(vals.tolist())), g)
        m = grouping.num_groups
        for i in range(m):
            for j in range(m):
                if grouping.group_len(i) == g == grouping.group_len(j):
                    assert not is_bad(BoxView.from_grouping(grouping, i, j), ps, span)


def test_subquadratic_randomized_matches_oracle():
    rng = np.random.default_rng(9)
    for trial in range(25):
        n = int(rng.integers(1, 65))
        vals = rng.integers(-40, 41, size=n).astype(float).tolist()
        led = ComparisonLedger()
        params = SubquadraticParams(group_size=4, mode="randomized",
                                    point_count=8, span=4, seed=trial)
        w = solve_subquadratic(vals, params, led)
        assert (w is not None) == (oracle_3sum(vals) is not None)


def test_subquadratic_trivial_sizes():
    led = ComparisonLedger()
    assert solve_subquadratic([], None, led) is None
    assert solve_subquadratic([1.0], None, led) is None
    assert solve_subquadratic([0.0], None, led) == (0.0, 0.0, 0.0)


def test_simple_width_one_degenerates_to_per_cell_walk():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(1, 30))
        vals = rng.integers(-10, 11, size=n).astype(float).tolist()
        led = ComparisonLedger()
        w = solve_subquadratic_simple(vals, 1, led)
        assert (w is not None) == (oracle_3sum(vals) is not None)


def test_simple_finds_planted_witness_with_unique_box_permutations():
    rng = np.random.default_rng(11)
    vals = rng.integers(-10 ** 4, 10 ** 4, size=16).astype(float)
    vals[:3] = (7.0, 11.0, -18.0)
    led = ComparisonLedger()
    w = solve_subquadratic_simple(vals.tolist(), 2, led)
    assert w is not None and sum(w) == 0.0


def test_simple_unplanted_matches_oracle():
    rng = np.random.default_rng(12)
    vals = rng.integers(10 ** 5, 10 ** 6, size=32).astype(float).tolist()
    led = ComparisonLedger()
    assert solve_subquadratic_simple(vals, 2, led) is None


def test_simple_rejects_oversized_groups():
    led = ComparisonLedger()
    with pytest.raises(ValueError):
        solve_subquadratic_simple(list(range(32)), 4, led)


# ---------------------------------------------------------------------------
# point-set selection


def test_select_best_single_candidate():
    rng = np.random.default_rng(13)
    vals = rng.integers(-50, 51, size=32).astype(float).tolist()
    ps = select_best_point_set(vals, 4, 6, 4, 1, 16, np.random.default_rng(1))
    assert ps.count == 6


def test_select_best_prefers_full_point_set():
    rng = np.random.default_rng(14)
    vals = rng.integers(-50, 51, size=32).astype(float).tolist()
    g = 3
    ps = select_best_point_set(vals, g, g * g, 1, 4, 32, np.random.default_rng(2))
    assert ps.count == g * g  # the only candidate shape, estimate 0


def test_select_best_is_near_optimal_among_candidates():
    rng = np.random.default_rng(15)
    vals = rng.integers(-10 ** 6, 10 ** 6, size=128).astype(float).tolist()
    g, count, span = 4, 6, 2
    sel_rng = np.random.default_rng(3)
    chosen = select_best_point_set(vals, g, count, span, 8, 64, sel_rng)

    # exhaustive true bad fractions over the recorded query list
    svals = sorted(vals)
    grouping = Grouping(tuple(svals), g)
    queries = []
    for k in range(len(svals)):
        key = -svals[k]
        lo, hi = 0, k // g
        while lo <= hi:
            queries.append((lo, hi))
            if grouping.gmax(lo) + grouping.gmin(hi) > key:
                hi -= 1
            else:
                lo += 1

    def true_fraction(ps):
        bad = 0
        cache = {}
        for (i, j) in queries:
            if (i, j) not in cache:
                cache[(i, j)] = is_bad(BoxView.from_grouping(grouping, i, j), ps, span)
            bad += cache[(i, j)]
        return bad / len(queries)

    cand_rng = np.random.default_rng(3)
    candidates = [random_point_set(g, count, cand_rng) for _ in range(8)]
    fractions = [true_fraction(ps) for ps in candidates]
    chosen_fraction = true_fraction(chosen)
    assert chosen_fraction <= min(fractions) + 2.0 / g


def test_contour_count_grows_as_expected():
    assert len(_all_contours(1)) == 2
    assert len(_all_contours(2)) == 6


@pytest.mark.parametrize("mode", ["deterministic", "randomized"])
def test_reused_params_are_left_unmodified_and_resolve_per_size(mode):
    shared = SubquadraticParams(mode=mode, seed=5)
    before = repr(shared)
    rng = np.random.default_rng(17)
    for n in (100, 600, 100):
        vals = rng.integers(-10 ** 6, 10 ** 6, size=n).astype(float).tolist()
        reused, fresh = ComparisonLedger(), ComparisonLedger()
        w1 = solve_subquadratic(vals, shared, reused)
        w2 = solve_subquadratic(vals, SubquadraticParams(mode=mode, seed=5), fresh)
        assert w1 == w2
        assert reused.count_klinear == fresh.count_klinear
        assert repr(shared) == before
        assert resolve_subquadratic_params(n, shared).group_size == (2 if n < 512 else 3)


# ---------------------------------------------------------------------------
# fallback sorts: exact ledger counts
#
# The golden tick grid never reaches a bad box, so these pin the counts of
# the direct box sort (one 4-linear tick per mergesort comparison of the
# tagged box sums).  The randomized instances hit 9 to 33 bad boxes each,
# three of them on a narrow range with many repeated values; the
# odd-length inputs to the permutation solver end in a short group, the
# last one with two equal sums in it.

PINNED_RANDOMIZED = [
    (100, 48, (-10 ** 6, 10 ** 6), 0, {2: 214, 3: 1659, 4: 513}, None),
    (101, 48, (-10 ** 6, 10 ** 6), 1, {2: 215, 3: 1630, 4: 491}, None),
    (104, 48, (-10 ** 6, 10 ** 6), 4, {2: 209, 3: 1696, 4: 1294}, None),
    (0, 60, (-300, 301), 0, {2: 282, 3: 667, 4: 351}, (-58.0, 33.0, 25.0)),
    (1, 60, (-300, 301), 1, {2: 281, 3: 964, 4: 723}, (-46.0, 23.0, 23.0)),
    (2, 60, (-300, 301), 2, {2: 275, 3: 654, 4: 633}, (7.0, 7.0, -14.0)),
]


@pytest.mark.parametrize("data_seed,n,bounds,seed,ticks,witness", PINNED_RANDOMIZED)
def test_randomized_bad_box_sorts_keep_their_pinned_ticks(data_seed, n, bounds, seed,
                                                          ticks, witness):
    rng = np.random.default_rng(data_seed)
    vals = rng.integers(*bounds, size=n).astype(float)
    led = ComparisonLedger()
    params = SubquadraticParams(group_size=4, mode="randomized", point_count=8,
                                span=4, seed=seed)
    assert solve_subquadratic(vals.tolist(), params, led) == witness
    assert led.count_klinear == ticks


@pytest.mark.parametrize("vals,ticks", [
    (np.random.default_rng(200).integers(-10 ** 4, 10 ** 4, size=17).astype(float).tolist(),
     {2: 61, 3: 292, 4: 1}),
    (np.random.default_rng(201).integers(-10 ** 4, 10 ** 4, size=17).astype(float).tolist(),
     {2: 62, 3: 265, 4: 1}),
    ([3.0, 1.0, 2.0, 1.0, 3.0, 2.0, 5.0, 4.0, 4.0], {2: 22, 3: 74, 4: 1}),
])
def test_simple_short_box_sorts_keep_their_pinned_ticks(vals, ticks):
    led = ComparisonLedger()
    assert solve_subquadratic_simple(vals, 2, led) is None
    assert led.count_klinear == ticks
