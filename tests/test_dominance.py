import math
from itertools import chain, permutations

import numpy as np
import pytest

from threebench import dominance
from threebench.core import ComparisonLedger
from threebench.dominance import (
    BLUE,
    BRUTE_FORCE_CUTOFF,
    RED,
    LabeledPoint,
    c_epsilon,
    report_dominating_pairs,
    sorting_permutations,
)
from threebench.threesum import solve_subquadratic_simple
from threebench.trimatrix import target_min_plus_dominance


def _collect(points):
    pairs = set()

    def sink(red, blue):
        key = (red.id, blue.id)
        assert key not in pairs, "pair reported twice"
        pairs.add(key)

    count = report_dominating_pairs(points, sink)
    assert count == len(pairs)
    return pairs


def _brute_pairs(reds, blues):
    out = set()
    for r in reds:
        for b in blues:
            if all(rc >= bc for rc, bc in zip(r.coords, b.coords)):
                out.add((r.id, b.id))
    return out


def test_equal_points_dominate_non_strictly():
    pts = [LabeledPoint((1.0, 2.0, 3.0), RED, 0),
           LabeledPoint((1.0, 2.0, 3.0), BLUE, 0)]
    assert _collect(pts) == {(0, 0)}


def test_strictly_below_red_reports_nothing():
    pts = [LabeledPoint((0.0, 0.0), RED, 0), LabeledPoint((1.0, 1.0), BLUE, 0)]
    assert _collect(pts) == set()


def test_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(0)
    for trial in range(60):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(2, 60))
        universe = int(rng.choice([2, 5, 1000]))
        pts = []
        for i in range(n):
            coords = tuple(float(v) for v in rng.integers(0, universe, size=d))
            color = RED if rng.random() < 0.5 else BLUE
            pts.append(LabeledPoint(coords, color, i))
        reds = [p for p in pts if p.color == RED]
        blues = [p for p in pts if p.color == BLUE]
        assert _collect(pts) == _brute_pairs(reds, blues)


def test_all_ties_reports_every_pair():
    pts = [LabeledPoint((7.0, 7.0, 7.0), RED, i) for i in range(20)]
    pts += [LabeledPoint((7.0, 7.0, 7.0), BLUE, i) for i in range(20)]
    assert len(_collect(pts)) == 400


def test_zero_dimension_reports_every_pair():
    pts = [LabeledPoint((), RED, 0), LabeledPoint((), BLUE, 0),
           LabeledPoint((), BLUE, 1)]
    assert _collect(pts) == {(0, 0), (0, 1)}


def _ranked(coords):
    """Each coordinate replaced by its rank among all of them, equal ones
    alike, the way ``match_boxes`` ranks its (value, row tag, col tag)
    triples."""
    rank = {c: r for r, c in enumerate(sorted(set(chain.from_iterable(coords))))}
    return [tuple(rank[c] for c in point) for point in coords]


def test_tuple_coordinates_compare_lexicographically():
    # through their ranks; the tuples themselves are refused
    tuples = [((1.0, 0, 2),), ((1.0, 0, 1),), ((1.0, 1, 0),)]

    def points(coords):
        return [LabeledPoint(coords[0], RED, 0), LabeledPoint(coords[1], BLUE, 0),
                LabeledPoint(coords[2], BLUE, 1)]

    with pytest.raises(ValueError, match="all ints or all floats"):
        report_dominating_pairs(points(tuples), lambda r, b: None)
    assert _collect(points(_ranked(tuples))) == {(0, 0)}


def test_nan_coordinates_are_refused():
    for nan in ([math.nan, 0.0], [0.0, math.nan]):
        pts = [LabeledPoint((nan[0], 1.0), RED, 0), LabeledPoint((nan[1], 0.0), BLUE, 0)]
        with pytest.raises(ValueError, match="without NaN"):
            report_dominating_pairs(pts, lambda r, b: None)


def test_single_color_inputs_report_nothing():
    assert _collect([LabeledPoint((1.0,), RED, 0)]) == set()
    assert _collect([]) == set()


def test_dimension_mismatch_rejected():
    pts = [LabeledPoint((1.0,), RED, 0), LabeledPoint((1.0, 2.0), BLUE, 0)]
    with pytest.raises(ValueError):
        report_dominating_pairs(pts, lambda r, b: None)


def test_duplicate_ids_rejected():
    pts = [LabeledPoint((1.0,), RED, 0), LabeledPoint((2.0,), RED, 0),
           LabeledPoint((0.0,), BLUE, 0)]
    with pytest.raises(ValueError):
        report_dominating_pairs(pts, lambda r, b: None)


# the scalar recursion whose leaves report_dominating_pairs batches: the oracle


def _scalar_report(points, sink):
    reds = [p for p in points if p.color == RED]
    blues = [p for p in points if p.color == BLUE]
    return _scalar_split(reds, blues, len(points[0].coords) if points else 0, sink)


def _scalar_brute(reds, blues, dim, sink):
    count = 0
    for red in reds:
        rc = red.coords
        for blue in blues:
            bc = blue.coords
            ok = True
            for t in range(dim):
                if rc[t] < bc[t]:
                    ok = False
                    break
            if ok:
                sink(red, blue)
                count += 1
    return count


def _scalar_split(reds, blues, dim, sink):
    if not reds or not blues:
        return 0
    if dim == 0:
        for red in reds:
            for blue in blues:
                sink(red, blue)
        return len(reds) * len(blues)
    n = len(reds) + len(blues)
    if n <= BRUTE_FORCE_CUTOFF or dim <= 1:
        return _scalar_brute(reds, blues, dim, sink)
    last = dim - 1
    merged = sorted(reds + blues,
                    key=lambda p: (p.coords[last], 0 if p.color == BLUE else 1))
    mid = (n + 1) // 2
    left, right = merged[:mid], merged[mid:]
    reds_l = [p for p in left if p.color == RED]
    blues_l = [p for p in left if p.color == BLUE]
    reds_r = [p for p in right if p.color == RED]
    blues_r = [p for p in right if p.color == BLUE]
    count = _scalar_split(reds_l, blues_l, dim, sink)
    count += _scalar_split(reds_r, blues_r, dim, sink)
    count += _scalar_split(reds_r, blues_l, dim - 1, sink)
    return count


def _draw_coordinate(rng, kind):
    if kind == "int":
        return int(rng.integers(0, 6))
    if kind == "tied float":
        return float(rng.choice([0.5, 1.25, 2.0]))
    if kind == "wide int":
        return int(rng.integers(-3, 3)) * 2 ** 61 + int(rng.integers(0, 2))
    return (float(rng.integers(0, 3)), int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))


@pytest.mark.parametrize("flush_pairs", [None, 1])
def test_batched_leaves_equal_the_scalar_recursion(monkeypatch, flush_pairs):
    # same pairs in the same sink order and the same count: the batched
    # leaves run the scalar recursion's tree and `<` tests
    if flush_pairs is not None:
        monkeypatch.setattr(dominance, "_FLUSH_PAIRS", flush_pairs)
    rng = np.random.default_rng(21)
    cut = BRUTE_FORCE_CUTOFF
    sizes = [1, 2, cut - 1, cut, cut + 1, cut + 2, 2 * cut + 1, 100, 400]
    for trial in range(160):
        kind = ("int", "tied float", "wide int", "ranked tuple")[trial % 4]
        n = sizes[trial % len(sizes)] if trial % 3 else int(rng.integers(1, 120))
        d = int(rng.integers(0, 7))
        red_share = (0.0, 1.0)[trial % 2] if trial % 11 == 0 else 0.5  # one colour
        coords = [tuple(_draw_coordinate(rng, kind) for _ in range(d)) for _ in range(n)]
        if kind == "ranked tuple":
            coords = _ranked(coords)
        points = [LabeledPoint(c, RED if rng.random() < red_share else BLUE, i)
                  for i, c in enumerate(coords)]
        got, want = [], []
        count = report_dominating_pairs(points, lambda r, b: got.append((r, b)))
        assert count == _scalar_report(points, lambda r, b: want.append((r, b)))
        assert count == len(got)
        assert [(r.id, b.id) for r, b in got] == [(r.id, b.id) for r, b in want], (trial, kind)
        assert all(r is points[r.id] and b is points[b.id] for r, b in got)


def test_mixed_and_unbounded_numbers_compare_exactly():
    # or are refused: an int beyond float precision against a float, and
    # ints beyond int64; ints within int64 compare exactly
    for pts in ([LabeledPoint((float(2 ** 53), 0), RED, 0),
                 LabeledPoint((2 ** 53 + 1, 0), BLUE, 0)],
                [LabeledPoint((2 ** 70, 1), RED, 0), LabeledPoint((2 ** 70 + 1, 0), BLUE, 0),
                 LabeledPoint((2 ** 70 + 1, 0), RED, 1)]):
        with pytest.raises(ValueError, match="all ints or all floats"):
            report_dominating_pairs(pts, lambda r, b: None)
    assert _collect([LabeledPoint((2 ** 53, 0), RED, 0), LabeledPoint((2 ** 53 + 1, 0), BLUE, 0),
                     LabeledPoint((2 ** 62 + 1, 1), RED, 1)]) == {(1, 0)}


def test_c_epsilon_values():
    assert abs(c_epsilon(0.5) - 3.414213562373095) < 1e-12
    assert c_epsilon(1.0) == 2.0
    expected = 2 ** 0.25 / (2 ** 0.25 - 1)
    assert abs(c_epsilon(0.25) - expected) < 1e-12
    with pytest.raises(ValueError):
        c_epsilon(0.0)
    with pytest.raises(ValueError):
        c_epsilon(1.5)


# ---------------------------------------------------------------------------
# certification helpers


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_sorting_permutations_equal_a_stable_argsort(width):
    rng = np.random.default_rng(width)
    for universe in (3, 1000):
        reds = rng.integers(0, universe, size=(4, width)).astype(float)
        blues = rng.integers(0, universe, size=(3, width)).astype(float)
        perms, index = sorting_permutations(reds.tolist(), blues.tolist(), width)
        assert index.shape == (4, 3)
        assert np.array_equal(perms[index], np.argsort(reds[:, None] + blues[None, :],
                                                       axis=2, kind="stable"))


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_sorting_permutations_of_all_ties_are_the_identity(width):
    perms, index = sorting_permutations([[2.0] * width] * 3, [[-1.0] * width] * 2, width)
    assert perms[0].tolist() == list(range(width))
    assert index.tolist() == [[0, 0]] * 3


def _dominance_route(reds, blues, width):
    """The reference: one divide-and-conquer dominance report per permutation
    on the ranks of lexicographic (value, tag) coordinates;
    ``{(r, b): [permutations]}``."""
    matched = {}
    for pi in permutations(range(width)):
        steps = list(zip(pi, pi[1:]))
        coords = _ranked([tuple((v[q] - v[p], q - p) for p, q in steps) for v in reds]
                         + [tuple((v[p] - v[q], 0) for p, q in steps) for v in blues])
        points = [LabeledPoint(c, RED, i) for i, c in enumerate(coords[:len(reds)])]
        points += [LabeledPoint(c, BLUE, j) for j, c in enumerate(coords[len(reds):])]
        report_dominating_pairs(
            points, lambda red, blue, pi=pi: matched.setdefault((red.id, blue.id), []).append(pi))
    return matched


def test_sorting_permutations_equal_the_dominance_route():
    rng = np.random.default_rng(8)
    universes = (lambda size: rng.integers(-1, 2, size=size).astype(float),
                 lambda size: rng.integers(0, 4, size=size).astype(float),
                 lambda size: rng.choice([1.0, 2.0, 3.0, 7.0], size=size),
                 lambda size: rng.integers(-2 ** 51, 2 ** 51, size=size).astype(float))
    for trial in range(320):
        width = int(rng.integers(1, 7))
        most = 3 if width == 6 else 8
        r, b = (int(x) for x in rng.integers(0, most + 1, size=2))
        draw = universes[trial % len(universes)]
        reds, blues = draw((r, width)), draw((b, width))
        want = _dominance_route(reds.tolist(), blues.tolist(), width)
        perms, index = sorting_permutations(reds, blues, width)
        assert perms.tolist() == [list(pi) for pi in permutations(range(width))]
        assert index.shape == (r, b)
        got = {(i, j): [tuple(perms[index[i, j]].tolist())] for i in range(r) for j in range(b)}
        assert got == want, (trial, width)


@pytest.mark.parametrize("reds, blues", [
    ([[1.0, 2.0, 3.0]], [[0.0, 0.0, 0.0]]),
    ([[1.0]], [[0.0, 0.0]]),
    ([[1.0, 2.0]], [[0.0, 0.0], [0.0]]),
])
def test_sorting_permutations_reject_rows_of_another_width(reds, blues):
    with pytest.raises(ValueError):
        sorting_permutations(reds, blues, 2)


@pytest.mark.parametrize("reds, blues, defect", [
    # 1e16 + 2 - 3 rounds to 1e16, so the rounded differences order the three
    # sums cyclically and three permutations match
    ([[3.0, 1e16 + 2, 1.0]], [[0.1, -1e16, 0.6]], "two permutations"),
    # NaN compares false both ways, so no permutation matches
    ([[math.nan, 0.0]], [[0.0, 0.0]], "no permutation"),
])
def test_sorting_permutations_refuse_a_pair_not_matched_exactly_once(reds, blues, defect):
    # only differences that are not exact leave a pair without exactly one
    # permutation: the kernel asserts, and the solvers refuse such reals
    with pytest.raises(AssertionError, match="exactly one permutation"):
        sorting_permutations(reds, blues, len(reds[0]))
    with pytest.raises(ValueError, match="at most 2\\^51"):
        solve_subquadratic_simple(reds[0] + blues[0], 2, ComparisonLedger())
    with pytest.raises(ValueError, match="at most 2\\^40"):
        target_min_plus_dominance(reds, np.transpose(blues), [[0.0]], len(reds[0]))
