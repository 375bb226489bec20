from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from box_oracles import (build_box_searcher, compute_contour, is_bad, is_linear_extension,
                         per_pair_match_boxes, permutation_catalog,
                         scalar_decision_tree_reference, scalar_subquadratic_simple,
                         staircase_walk, tagged_sum)
from threebench import harness, threesum
from threebench.core import (ComparisonLedger, as_reals, box_order, cut_groups, sorted_counted,
                             ternary_search)
from threebench.dominance import BLUE, RED
from threebench.threesum import (
    SubquadraticParams,
    _all_contours,
    cached_catalog,
    default_point_count,
    deterministic_point_set,
    enumerate_legal_pairs,
    grid_span,
    grid_spacing,
    leq_positions,
    match_boxes,
    oracle_3sum,
    random_point_set,
    resolve_subquadratic_params,
    solve_decision_tree,
    solve_subquadratic,
    solve_subquadratic_simple,
)


def _random_box(rng, g, lo=-9, hi=10):
    rows = np.sort(rng.integers(lo, hi, size=g)).astype(float)
    cols = np.sort(rng.integers(lo, hi, size=g)).astype(float)
    return rows, cols


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


def _entry_is_legal(entry, point_set, span):
    leq1 = leq_positions(entry.tau)
    leq2 = leq_positions(entry.tau_prime)
    assert leq1 <= leq2                      # lower contour above upper
    assert entry.anchor in entry.tau.steps
    assert entry.anchor_prime in entry.tau_prime.steps
    assert entry.anchor in point_set.positions
    assert entry.anchor_prime in point_set.positions
    assert entry.anchor_prime not in leq1
    mid = leq2 - leq1 - {entry.anchor_prime}
    assert not (mid & point_set.positions)
    assert len(mid) <= span
    assert set(entry.order) == mid
    assert is_linear_extension(entry.order)


def test_enumerated_pairs_satisfy_legality():
    ps = deterministic_point_set(2, 0)  # corners only
    cat = enumerate_legal_pairs(2, ps, 4)
    assert cat.entries
    for entry in cat.entries:
        _entry_is_legal(entry, ps, 4)


def test_width_one_catalog_is_empty():
    ps = deterministic_point_set(1, 0)
    cat = enumerate_legal_pairs(1, ps, 4)
    assert cat.entries == []


def test_pair_count_is_bounded():
    for g in (2, 3, 4):
        ps = deterministic_point_set(g, 1 if g == 3 else 0)
        span = min(4, grid_span(g, 1 if g == 3 else 0)) if g == 3 else 3
        cat = enumerate_legal_pairs(g, ps, span)
        pairs = {(e.tau.moves, e.anchor, e.tau_prime.moves, e.anchor_prime)
                 for e in cat.entries}
        assert len(pairs) <= 2 ** (4 * g)


def test_catalog_budget_guard(monkeypatch):
    monkeypatch.setattr(threesum, "CATALOG_BUDGET", 100)
    ps = deterministic_point_set(4, 2)
    with pytest.raises(ValueError):
        enumerate_legal_pairs(4, ps, grid_span(4, 2))


def _parts(catalog):
    return {(e.tau, e.tau_prime, e.anchor, e.anchor_prime) for e in catalog.entries}


def test_catalog_sizes_are_pinned():
    det3 = enumerate_legal_pairs(3, deterministic_point_set(3, 1), grid_span(3, 1))
    assert (len(det3.entries), len(_parts(det3))) == (61, 22)
    det4 = enumerate_legal_pairs(4, deterministic_point_set(4, 2), grid_span(4, 2))
    assert (len(det4.entries), len(_parts(det4))) == (2712, 295)
    # at its defaults the randomized mode anchors all 9 positions of a 3 x 3
    # box, so every gap is empty and each part has one entry
    params = resolve_subquadratic_params(100, SubquadraticParams(group_size=3, mode="randomized"))
    rand3 = enumerate_legal_pairs(3, threesum._anchor_set(params), params.span)
    assert params.point_count == 9
    assert len(rand3.entries) == len(_parts(rand3)) == 65
    assert all(e.order == () for e in rand3.entries)


def test_linear_extensions_are_lazy():
    # a 5 x 5 box has about 7 * 10^8 orders; the first few come at once, the
    # row-major order first
    cells = tuple((x, y) for x in range(5) for y in range(5))
    first = list(islice(threesum._linear_extensions(cells), 3))
    assert first[0] == cells and len(first) == 3
    assert all(is_linear_extension(order) for order in first)


# catalogs with non-empty gaps: deterministic at the grid span and at a
# reduced one, randomized with anchors left out
ORACLE_PARAMS = [
    SubquadraticParams(group_size=3),
    SubquadraticParams(group_size=4, grid_side=2, span=4),
    SubquadraticParams(group_size=3, mode="randomized", point_count=5, span=3, seed=2),
    SubquadraticParams(group_size=4, mode="randomized", point_count=8, span=4, seed=1),
]


def _oracle_case(params, generator, n=110):
    params = resolve_subquadratic_params(n, params)
    assert n % params.group_size  # the last group is short
    catalog = cached_catalog(params.group_size, threesum._anchor_set(params), params.span)
    groups = cut_groups(np.sort(harness.generate("3sum", n, generator, 4)), params.group_size)
    return catalog, groups


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=range(len(ORACLE_PARAMS)))
def test_catalog_is_the_permutation_catalog_filtered(params):
    catalog, _ = _oracle_case(params, "uniform")
    oracle = permutation_catalog(catalog)
    assert any(len(e.order) > 1 for e in catalog.entries)
    assert len(oracle.entries) > len(catalog.entries)
    assert catalog.entries == [e for e in oracle.entries if is_linear_extension(e.order)]


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=range(len(ORACLE_PARAMS)))
@pytest.mark.parametrize("generator", ["uniform", "duplicate-heavy", "planted"])
def test_match_boxes_equals_the_permutation_catalog(params, generator):
    catalog, groups = _oracle_case(params, generator)
    got = match_boxes(groups, catalog)
    assert got and got == match_boxes(groups, permutation_catalog(catalog))


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=range(len(ORACLE_PARAMS)))
@pytest.mark.parametrize("generator", ["duplicate-heavy", "planted"])
def test_pruned_gap_orders_match_no_box(params, generator):
    catalog, groups = _oracle_case(params, generator)
    kept = set(catalog.entries)
    dead = [e for e in permutation_catalog(catalog).entries if e not in kept]
    assert dead and match_boxes(groups, catalog)
    assert match_boxes(groups, replace(catalog, entries=dead)) == {}


def test_match_boxes_refuses_groups_that_do_not_ascend():
    catalog = cached_catalog(3, deterministic_point_set(3, 1), grid_span(3, 1))
    groups = cut_groups(np.arange(14.0), 3)
    assert match_boxes(groups, catalog)
    groups[1] = groups[1][::-1]
    with pytest.raises(ValueError, match="ascend"):
        match_boxes(groups, catalog)
    groups[1], groups[-1] = groups[1][::-1], groups[-1][::-1]  # a short group is not read
    assert match_boxes(groups, catalog)


def test_grid_catalog_covers_every_realizable_consecutive_pair():
    # the true contour pair of any two value-consecutive anchors must pass
    # the span filter when the span is the grid bound
    rng = np.random.default_rng(4)
    for g, q in ((3, 1), (4, 2), (6, 3)):
        ps = deterministic_point_set(g, q)
        span = grid_span(g, q)
        for _ in range(20):
            box = _random_box(rng, g, -10 ** 6, 10 ** 6)
            anchors = [p for p in box_order(*box)[0] if p in ps.positions]
            for a, b in zip(anchors, anchors[1:]):
                tau = compute_contour(box, tagged_sum(box, *a))
                tau_p = compute_contour(box, tagged_sum(box, *b))
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
    groups = cut_groups(vals, g)
    assignments = match_boxes(groups, cat)
    assert assignments
    for (i, j), slots in assignments.items():
        box = (groups[i], groups[j])
        for (anchor, anchor_p), entry in slots.items():
            assert compute_contour(box, tagged_sum(box, *anchor)).moves == entry.tau.moves
            assert compute_contour(box, tagged_sum(box, *anchor_p)).moves == entry.tau_prime.moves
            mid = leq_positions(entry.tau_prime) - leq_positions(entry.tau) - {anchor_p}
            true_mid = [p for p in box_order(*box)[0] if p in mid]
            assert list(entry.order) == true_mid


def test_non_bad_boxes_receive_full_chains():
    rng = np.random.default_rng(6)
    g, q = 3, 1
    ps = deterministic_point_set(g, q)
    span = grid_span(g, q)
    cat = cached_catalog(g, ps, span)
    vals = np.sort(rng.integers(-10 ** 6, 10 ** 6, size=63)).astype(float)
    groups = cut_groups(vals, g)
    assignments = match_boxes(groups, cat)
    m = len(groups)
    for i in range(m):
        for j in range(m):
            if len(groups[i]) == g and len(groups[j]) == g:
                assert not is_bad((groups[i], groups[j]), ps, span)
                assert len(assignments[(i, j)]) == ps.count - 1


def test_corner_anchored_pair_matches_direct_contours():
    rng = np.random.default_rng(7)
    g = 2
    ps = deterministic_point_set(g, 0)
    cat = cached_catalog(g, ps, 2)
    vals = np.sort(rng.integers(-50, 50, size=8)).astype(float)
    groups = cut_groups(vals, g)
    assignments = match_boxes(groups, cat)
    for (i, j), slots in assignments.items():
        box = (groups[i], groups[j])
        entry = slots[((0, 0), (g - 1, g - 1))]
        assert compute_contour(box, tagged_sum(box, 0, 0)).moves == entry.tau.moves


# the per-coordinate builders that match_boxes' index maps replaced: the oracle


def _contour_coords(contour, anchor, vals, color):
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


def _sign(a, b):
    return (a > b) - (a < b)


@pytest.mark.parametrize("g, point_set, span", [
    (2, deterministic_point_set(2, 2), grid_span(2, 2)),
    (3, deterministic_point_set(3, 1), grid_span(3, 1)),
    (3, random_point_set(3, default_point_count(3, 3), np.random.default_rng(3)), 3),
])
@pytest.mark.parametrize("duplicates", [False, True])
def test_match_boxes_points_equal_the_per_coordinate_builders(g, point_set, span, duplicates):
    # every coordinate of a point is a rank that compares with the same
    # coordinate of any other point of the entry as the builders' (value,
    # row tag, col tag) triples do; with duplicates, tied values leave the
    # tags to decide
    rng = np.random.default_rng(g)
    draw = rng.integers(-2, 3, size=8 * g + 1).astype(float) if duplicates \
        else rng.normal(size=8 * g + 1)
    groups = cut_groups(np.sort(draw), g)
    full = [(i, grp.tolist()) for i, grp in enumerate(groups) if len(grp) == g]
    cat = cached_catalog(g, point_set, span)
    seen = []
    match_boxes(groups, cat, report=lambda points, sink: seen.append(points))
    assert len(seen) == len(cat.entries) > 0
    for entry, points in zip(cat.entries, seen):
        want = [(_entry_coords(entry, vals, color), color, i)
                for color in (RED, BLUE) for i, vals in full]
        assert [(p.color, p.id) for p in points] == [(color, i) for _, color, i in want]
        assert all(type(c) is int for p in points for c in p.coords)
        for t in range(len(want[0][0])):
            for p, (triples_p, _, _) in zip(points, want):
                for q, (triples_q, _, _) in zip(points, want):
                    assert _sign(p.coords[t], q.coords[t]) == _sign(triples_p[t], triples_q[t])


@pytest.mark.parametrize("mode", ["deterministic", "randomized"])
@pytest.mark.parametrize("generator", ["uniform", "duplicate-heavy", "planted"])
def test_match_boxes_equals_the_per_pair_fold(mode, generator):
    n = 110
    params = resolve_subquadratic_params(n, SubquadraticParams(group_size=3, mode=mode, seed=4))
    assert n % params.group_size  # the last group is short
    catalog = cached_catalog(params.group_size, threesum._anchor_set(params), params.span)
    groups = cut_groups(np.sort(harness.generate("3sum", n, generator, 4)), params.group_size)
    got = match_boxes(groups, catalog)
    assert got and got == per_pair_match_boxes(groups, catalog)
    # boxes share one dict exactly when the same entries matched them
    assert (len({id(slot) for slot in got.values()})
            == len({frozenset(map(id, slot.values())) for slot in got.values()}))


def test_two_entries_matching_one_box_layer_trip_the_assertion():
    catalog = cached_catalog(3, deterministic_point_set(3, 1), grid_span(3, 1))
    by_anchors: dict = {}
    for entry in catalog.entries:
        by_anchors.setdefault((entry.anchor, entry.anchor_prime), []).append(entry)
    twins = next(entries for entries in by_anchors.values() if len(entries) > 1)[:2]

    def report_every_pair(points, sink):
        reds = [p for p in points if p.color == RED]
        blues = [p for p in points if p.color == BLUE]
        for red in reds:
            for blue in blues:
                sink(red, blue)
        return len(reds) * len(blues)

    groups = cut_groups(np.arange(12.0), 3)
    with pytest.raises(AssertionError, match="two catalog entries matched one box layer"):
        match_boxes(groups, replace(catalog, entries=twins), report=report_every_pair)


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
        groups = cut_groups(np.sort(vals), g)
        for i in range(len(groups)):
            for j in range(len(groups)):
                if len(groups[i]) == g == len(groups[j]):
                    assert not is_bad((groups[i], groups[j]), ps, span)


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


def _scalar_subquadratic(values, params, ledger):
    """`solve_subquadratic` with every visited box searched by the per-box
    searcher oracle, one visit at a time."""
    params = resolve_subquadratic_params(len(values), params)
    point_set = threesum._anchor_set(params)
    catalog = cached_catalog(params.group_size, point_set, params.span)
    svals = sorted_counted(as_reals(values), ledger)
    groups = cut_groups(svals, params.group_size)
    assignments = match_boxes(groups, catalog)
    return staircase_walk(
        svals, params.group_size,
        lambda box: build_box_searcher(groups, *box, point_set, assignments, ledger), ledger)


WALK_PARAMS = [
    SubquadraticParams(group_size=3),  # anchor chain and gaps
    SubquadraticParams(group_size=3, grid_side=1, span=2),  # bad boxes
    SubquadraticParams(group_size=2, mode="randomized", seed=1),
    SubquadraticParams(group_size=3, mode="randomized", point_count=5, span=3, seed=2),
    SubquadraticParams(group_size=4, mode="randomized", point_count=8, span=2, seed=0),
]


@pytest.mark.parametrize("params", WALK_PARAMS, ids=range(len(WALK_PARAMS)))
def test_catalog_walk_books_what_the_scalar_walk_books(params):
    rng = np.random.default_rng(30 + WALK_PARAMS.index(params))
    g = params.group_size
    bad = found = 0
    for trial in range(12):
        n = g * int(rng.integers(3, 16)) + trial % 2  # odd trials end in a short group
        kind = trial % 3
        if kind == 0:
            vals = rng.integers(-10 ** 6, 10 ** 6, size=n)
        elif kind == 1:  # duplicate-heavy
            vals = rng.integers(-(n // 4) - 1, n // 4 + 2, size=n)
        else:  # planted
            vals = rng.integers(-10 ** 4, 10 ** 4, size=n)
            vals[:3] = (int(vals[3]), int(vals[4]), -int(vals[3]) - int(vals[4]))
        vals = vals.astype(float).tolist()
        fast, ref = ComparisonLedger(), ComparisonLedger()
        w = solve_subquadratic(vals, params, fast)
        w_ref = _scalar_subquadratic(vals, params, ref)
        assert fast.phases() == ref.phases()
        assert w == w_ref  # the same visit, and the same position in its box
        if w is not None:
            found += 1
            assert sum(w) == 0.0 and set(w) <= set(vals)
        bad += "deduce" in ref.phases() and n % g == 0
    assert found
    if params.span is not None:
        assert bad  # reduced spans leave boxes uncertified


def test_ternary_steps_follow_the_scalar_search_on_any_list():
    # lists that ascend, with ties, and lists that do not
    rng = np.random.default_rng(31)
    lists = [rng.integers(-4, 5, size=int(rng.integers(0, 12))).astype(float).tolist()
             for _ in range(300)]
    lists = [sorted(v) if t % 2 else v for t, v in enumerate(lists)]
    flat = np.array([x for v in lists for x in v])
    lengths = np.array([len(v) for v in lists])
    starts = np.cumsum(lengths) - lengths
    for key in np.arange(-5.0, 5.5, 0.5):
        probes, hit, pos = threesum._ternary_steps(flat, starts, lengths,
                                                   np.full(len(lists), key))
        for t, raws in enumerate(lists):
            led = ComparisonLedger()
            assert ternary_search(raws, key, led) == ("hit" if hit[t] else "miss", pos[t])
            assert led.count_3linear == probes[t]


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


def _assert_walks_book_alike(solve, scalar, group_size, seed, trials):
    """`solve`, which walks through ``threesum._catalog_walk``, against
    `scalar`, its walk one visit at a time, on the four generators and on
    one-decimal reals times ten, integers in [-50, 50] with many ties: the
    same phases and the same witness.  The group size is
    ``group_size(trial, n, rng)``."""
    rng = np.random.default_rng(seed)
    kinds = harness.GENERATORS + ("one-decimal times ten",)
    found = 0
    for trial in range(trials):
        kind = kinds[trial % len(kinds)]
        n = int(rng.integers(1, 200)) | (trial // 10 % 2)  # every other run of ten is odd
        g = group_size(trial, n, rng)
        if kind == "one-decimal times ten":
            vals = np.round(10 * rng.uniform(-5, 5, size=n)).tolist()
        else:
            vals = harness.generate("3sum", n, kind, trial)
        fast, ref = ComparisonLedger(), ComparisonLedger()
        w = solve(vals, g, fast)
        w_ref = scalar(vals, g, ref)
        assert fast.phases() == ref.phases(), (kind, g, n)
        assert w == w_ref  # the same visit, and the same position in its box
        found += w is not None
    assert found


def test_simple_catalog_walk_books_what_the_scalar_walk_books():
    _assert_walks_book_alike(solve_subquadratic_simple, scalar_subquadratic_simple,
                             lambda trial, n, rng: 1 + trial // 5 % 2, 32, 320)


def test_reference_catalog_walk_books_what_the_scalar_walk_books():
    # random g leaves a short last group on most inputs, and every box's
    # free order then reaches the walk through its layout
    short = 0

    def group_size(trial, n, rng):
        nonlocal short
        g = int(rng.integers(1, min(n, 40) + 1))
        short += n % g != 0
        return g

    def solve(vals, g, ledger):
        return solve_decision_tree(vals, g, ledger, mode="reference")

    _assert_walks_book_alike(solve, scalar_decision_tree_reference, group_size, 33, 120)
    assert short


def test_simple_rejects_oversized_groups():
    led = ComparisonLedger()
    with pytest.raises(ValueError):
        solve_subquadratic_simple(list(range(32)), 4, led)


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
