import numpy as np
import pytest

from threebench.dominance import (
    BLUE,
    RED,
    LabeledPoint,
    c_epsilon,
    match_candidates,
    report_dominating_pairs,
    sorting_permutations,
)


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


def test_tuple_coordinates_compare_lexicographically():
    pts = [LabeledPoint(((1.0, 0, 2),), RED, 0),
           LabeledPoint(((1.0, 0, 1),), BLUE, 0),
           LabeledPoint(((1.0, 1, 0),), BLUE, 1)]
    assert _collect(pts) == {(0, 0)}


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
        got = sorting_permutations(reds.tolist(), blues.tolist(), width)
        assert set(got) == {(r, b) for r in range(4) for b in range(3)}
        for (r, b), pi in got.items():
            assert list(pi) == np.argsort(reds[r] + blues[b], kind="stable").tolist()


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_sorting_permutations_of_all_ties_are_the_identity(width):
    got = sorting_permutations([[2.0] * width] * 3, [[-1.0] * width] * 2, width)
    assert got == {(r, b): tuple(range(width)) for r in range(3) for b in range(2)}


def test_match_candidates_equals_per_candidate_brute_force():
    rng = np.random.default_rng(1)
    # 22 points per candidate: past the brute-force cutoff of the recursion
    red_ids, blue_ids = list(range(0, 24, 2)), list(range(1, 20, 2))
    table = {(c, color, i): tuple(float(v) for v in rng.integers(0, 4, size=3))
             for c in range(12) for color in (RED, BLUE) for i in range(24)}

    def coords(c, color, i):
        return table[(c, color, i)]

    want = {}
    for c in range(12):
        for i in red_ids:
            for j in blue_ids:
                if all(x >= y for x, y in zip(coords(c, RED, i), coords(c, BLUE, j))):
                    want.setdefault((i, j), []).append(c)
    assert match_candidates(range(12), red_ids, blue_ids, coords) == want
