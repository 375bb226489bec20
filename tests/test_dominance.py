import numpy as np
import pytest

from threebench.dominance import (
    BLUE,
    RED,
    LabeledPoint,
    c_epsilon,
    report_dominating_pairs,
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
