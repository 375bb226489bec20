import itertools

import numpy as np
import pytest

from threebench import harness
from threebench.core import (ComparisonLedger, as_reals, box_order, difference_ticks,
                             sorted_counted, ternary_search)
from threebench.ldt import LinearForm, oracle_kldt, reduce_kldt, solve_kldt
from threebench.threesum import default_group_size


def _brute(phi, values):
    k = phi.arity
    for combo in itertools.product(values, repeat=k):
        if phi.evaluate(combo) == 0.0:
            return True
    return False


def _kldt_scalar(phi, values, group_size, ledger):
    """The walk written out: each key of C walks the unbalanced grid from
    its NE box, ternary-searching every box it visits."""
    k = phi.arity
    a_list, b_list, c_list = reduce_kldt(phi, as_reals(values))
    if not a_list or not b_list or not c_list:
        return False
    a_sorted = sorted_counted(a_list, ledger, arity=k - 1)
    b_sorted = sorted_counted(b_list, ledger, arity=k - 1)
    g = group_size if group_size is not None else default_group_size(len(c_list))
    if g < 1:
        raise ValueError("group size must be >= 1")
    a_groups = [a_sorted[i:i + g] for i in range(0, len(a_sorted), g)]
    b_groups = [b_sorted[j:j + g] for j in range(0, len(b_sorted), g)]
    ma, mb = len(a_groups), len(b_groups)
    difference_ticks([(grp, range(len(grp)), "row") for grp in a_groups]
                     + [(grp, range(len(grp)), "col") for grp in b_groups],
                     ledger, arity=2 * k - 2)
    boxes = {}
    for c in c_list:
        key = -c
        lo, hi = 0, mb - 1
        while lo < ma and hi >= 0:
            if (lo, hi) not in boxes:
                boxes[lo, hi] = box_order(a_groups[lo], b_groups[hi])[1]
            res, _ = ternary_search(boxes[lo, hi], key, ledger, arity=k)
            if res == "hit":
                return True
            ledger.tick(k)
            if a_groups[lo][-1] + b_groups[hi][0] > key:
                hi -= 1
            else:
                lo += 1
    return False


def test_solver_equals_the_scalar_walk():
    rng = np.random.default_rng(7)
    sizes, decisions = set(), set()
    for trial in range(500):
        k = (3, 5)[trial % 2]
        n = int(rng.integers(0, 25 if k == 3 else 9))
        uni = int(rng.choice([1, 3, 12, 10 ** 6]))
        coeffs = [float(rng.integers(-2, 3))]
        coeffs += [float(x) if x else 1.0 for x in rng.integers(-3, 4, size=k)]
        phi = LinearForm(tuple(coeffs))
        values = rng.integers(-uni, uni + 1, size=n).astype(float).tolist()
        size = n ** ((k - 1) // 2)
        g = None if trial % 5 == 0 or size == 0 else int(rng.integers(1, size + 1))
        sizes.add((n, g is not None and size % g != 0))
        l1, l2 = ComparisonLedger(), ComparisonLedger()
        found = solve_kldt(phi, values, g, l1)
        assert found == _kldt_scalar(phi, values, g, l2)
        assert l1.phases() == l2.phases()
        decisions.add(found)
    assert {0, 1} <= {n for n, _ in sizes} and any(short for _, short in sizes)
    assert decisions == {False, True}


def test_solver_equals_the_scalar_walk_over_hundreds_of_visits():
    # a few large boxes, each visited by many keys; the universes make the
    # first zero come early, late or never
    rng = np.random.default_rng(17)
    decisions = set()
    for trial in range(24):
        k = (3, 5)[trial % 4 == 3]
        n = int(rng.integers(80, 200)) if k == 3 else int(rng.integers(9, 15))
        size = n ** ((k - 1) // 2)
        g = int(rng.integers(size // 5, size // 2 + 1))
        uni = int(rng.choice([20, 10 ** 4, 10 ** 5, 10 ** 6]))
        coeffs = [float(rng.integers(-2, 3))]
        coeffs += [float(x) if x else 1.0 for x in rng.integers(-3, 4, size=k)]
        phi = LinearForm(tuple(coeffs))
        values = rng.integers(-uni, uni + 1, size=n).astype(float).tolist()
        l1, l2 = ComparisonLedger(), ComparisonLedger()
        found = solve_kldt(phi, values, g, l1)
        assert found == _kldt_scalar(phi, values, g, l2)
        assert l1.phases() == l2.phases()
        decisions.add(found)
    assert decisions == {False, True}


def test_form_validation():
    with pytest.raises(ValueError):
        LinearForm((0.0, 1.0, 1.0))  # even arity
    with pytest.raises(ValueError):
        LinearForm((0.0, 1.0, 0.0, 1.0))  # zero coefficient
    phi = LinearForm((1.0, 2.0, 3.0, -1.0))
    assert phi.arity == 3
    assert phi.evaluate((1.0, 1.0, 1.0)) == 5.0


def test_reduction_with_identity_coefficients_reproduces_the_set():
    phi = LinearForm((0.0, 1.0, 1.0, 1.0))
    s = [-3.0, 1.0, 2.0]
    a, b, c = reduce_kldt(phi, s)
    assert a == s and b == s and c == s
    led = ComparisonLedger()
    assert solve_kldt(phi, s, None, led)


def test_reduction_constant_offset_blocks_zero():
    phi = LinearForm((1.0, 1.0, 1.0, 1.0))
    a, b, c = reduce_kldt(phi, [0.0])
    assert a == [1.0] and b == [0.0] and c == [0.0]
    led = ComparisonLedger()
    assert not solve_kldt(phi, [0.0], None, led)


def test_reduction_sizes_are_exact():
    rng = np.random.default_rng(0)
    phi = LinearForm((2.0, 1.0, -2.0, 3.0, 1.0, -1.0))
    s = rng.integers(-5, 6, size=6).astype(float).tolist()
    a, b, c = reduce_kldt(phi, s)
    assert len(a) == len(b) == len(s) ** 2
    assert len(c) == len(s)
    assert oracle_kldt(phi, s) == _brute(phi, s)


def test_oracle_zero_constant_all_zero_set():
    phi = LinearForm((0.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    assert oracle_kldt(phi, [0.0])


def test_solver_agrees_with_oracle_for_k3():
    rng = np.random.default_rng(1)
    for trial in range(60):
        n = int(rng.integers(1, 24))
        coeffs = [float(rng.integers(-3, 4))]
        coeffs += [float(x) if x else 1.0 for x in rng.integers(-3, 4, size=3)]
        phi = LinearForm(tuple(coeffs))
        s = rng.integers(-8, 9, size=n).astype(float).tolist()
        led = ComparisonLedger()
        assert solve_kldt(phi, s, None, led) == oracle_kldt(phi, s)


def test_solver_finds_planted_zero_for_k5():
    rng = np.random.default_rng(2)
    coeffs = [0.0] + [float(x) if x else 1.0 for x in rng.integers(-3, 4, size=5)]
    phi = LinearForm(tuple(coeffs))
    s = rng.integers(-9, 10, size=7).astype(float).tolist()
    xs = [float(rng.integers(-9, 10)) for _ in range(4)]
    # solve alpha_0 + sum(alpha_i x_i) = 0 for the last variable on the lattice
    target = -(phi.coefficients[0] + sum(a * x for a, x in zip(phi.coefficients[1:], xs)))
    if target % phi.coefficients[5] == 0:
        s.extend(xs + [target / phi.coefficients[5]])
    else:
        s.extend(xs + [0.0])
    led = ComparisonLedger()
    assert solve_kldt(phi, s, None, led) == oracle_kldt(phi, s)


# k = 5 ledger counts and decisions at the default g (set from |C| = n) and
# the difference sort from row runs; the golden CSV runs k = 3 only
K5_PINNED = [
    ((0.0, 1.0, 1.0, 1.0, 1.0, 1.0), 8, "uniform", False, {4: 604, 8: 1809, 5: 986}),
    ((0.0, 1.0, 1.0, 1.0, 1.0, 1.0), 8, "duplicate-heavy", True, {4: 552, 8: 1847, 5: 20}),
    ((0.0, 1.0, 1.0, 1.0, 1.0, 1.0), 12, "uniform", False, {4: 1812, 8: 5827, 5: 3191}),
    ((0.0, 1.0, 1.0, 1.0, 1.0, 1.0), 12, "duplicate-heavy", True, {4: 1778, 8: 5846, 5: 33}),
    ((1.0, 2.0, -1.0, 1.0, -1.0, -2.0), 8, "uniform", False, {4: 549, 8: 1775, 5: 972}),
    ((1.0, 2.0, -1.0, 1.0, -1.0, -2.0), 8, "duplicate-heavy", True, {4: 578, 8: 1798, 5: 19}),
    ((1.0, 2.0, -1.0, 1.0, -1.0, -2.0), 12, "uniform", False, {4: 1768, 8: 5846, 5: 2962}),
    ((1.0, 2.0, -1.0, 1.0, -1.0, -2.0), 12, "duplicate-heavy", True,
     {4: 1750, 8: 5928, 5: 3}),
]


@pytest.mark.parametrize("alphas,n,generator,found,counts", K5_PINNED)
def test_k5_ledger_counts_and_decisions_are_pinned(alphas, n, generator, found, counts):
    values = harness.generate("ldt", n, generator, 3).tolist()
    led = ComparisonLedger()
    assert solve_kldt(LinearForm(alphas), values, None, led) == found
    assert led.count_klinear == counts


def test_singleton_set_reduces_to_direct_evaluation():
    phi = LinearForm((0.0, 2.0, 1.0, -4.0))  # evaluates to -x on a diagonal point
    led = ComparisonLedger()
    assert solve_kldt(phi, [0.0], None, led)
    led = ComparisonLedger()
    assert not solve_kldt(phi, [1.0], None, led)


def test_difference_comparisons_stay_within_arity_bound():
    rng = np.random.default_rng(3)
    for k in (3, 5):
        coeffs = (1.0,) + (1.0,) * k
        phi = LinearForm(coeffs)
        s = rng.integers(-5, 6, size=6 if k == 5 else 16).astype(float).tolist()
        led = ComparisonLedger()
        solve_kldt(phi, s, None, led)
        # the lists' sort, the difference sort, then membership probes at arity k
        assert {phase: set(book) for phase, book in led.phases().items()} == \
            {"sort_input": {k - 1}, "diff_sort": {2 * k - 2}, "walk": {k}}


def test_group_size_below_one_is_refused():
    phi = LinearForm((0.0, 1.0, 1.0, 1.0))
    for g in (0, -2):
        with pytest.raises(ValueError, match="group size must be >= 1"):
            solve_kldt(phi, [1.0, -2.0, 3.0], g, ComparisonLedger())


def test_memory_guard():
    phi = LinearForm((0.0,) + (1.0,) * 7)
    with pytest.raises(ValueError):
        reduce_kldt(phi, list(range(250)))  # 250^3 exceeds the element cap
