import math

import numpy as np

from threebench.conv3sum import oracle_conv3sum, solve_conv_blocked
from threebench.core import ComparisonLedger, as_reals, box_order, sort_differences, sort_segments


def _counted_bound(raws, key, ledger, upper):
    """``bisect_left`` (``bisect_right`` when `upper`) written out, one
    3-linear tick per probe."""
    lo, hi = 0, len(raws)
    while lo < hi:
        mid = (lo + hi) // 2
        ledger.tick(3)
        if (raws[mid] <= key) if upper else (raws[mid] < key):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _conv_scalar(values, group_size, ledger):
    """The blocked search written out: the reference difference sort, then
    key by key, box by box along the antidiagonal, two counted bisections
    per crossed box."""
    arr = as_reals(values)
    n = len(arr)
    if n == 0:
        return None
    g = group_size if group_size is not None else max(1, math.ceil(math.sqrt(n)))
    if g < 1:
        raise ValueError("group size must be >= 1")
    blocks = [arr[b * g:(b + 1) * g] for b in range(-(-n // g))]
    sort_differences(sort_segments([(blk, range(len(blk)), "both") for blk in blocks], ledger),
                     ledger)
    for k in range(n):
        key = arr[k]
        cells = [(i, k - i) for i in range(max(0, k - (n - 1)), min(k, n - 1) + 1)]
        hits = []
        idx = 0
        while idx < len(cells):
            bi, bj = cells[idx][0] // g, cells[idx][1] // g
            run = [cells[idx]]
            idx += 1
            while idx < len(cells) and cells[idx][0] // g == bi and cells[idx][1] // g == bj:
                run.append(cells[idx])
                idx += 1
            order, raws = box_order(blocks[bi], blocks[bj])
            lb = _counted_bound(raws, key, ledger, upper=False)
            ub = _counted_bound(raws, key, ledger, upper=True)
            matched = {(bi * g + x, bj * g + y) for (x, y) in order[lb:ub]}
            hits.extend(cell for cell in run if cell in matched)
        if hits:
            return min(hits)
    return None


def test_oracle_zero_singleton():
    assert oracle_conv3sum([0.0]) == (0, 0)


def test_oracle_no_witness():
    assert oracle_conv3sum([1.0, 2.0, 3.0]) is None


def test_oracle_finds_shifted_sum():
    # (1,1) precedes (1,2) lexicographically: A(1)+A(1) = 2 = A(2)
    assert oracle_conv3sum([5.0, 1.0, 2.0, 3.0]) == (1, 1)
    assert oracle_conv3sum([9.0, 1.0, 8.0, 9.0]) == (1, 2)  # 1 + 8 = A(3) = 9


def test_blocked_width_one_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        vals = rng.integers(-10, 11, size=n).astype(float).tolist()
        led = ComparisonLedger()
        got = solve_conv_blocked(vals, 1, led)
        assert (got is None) == (oracle_conv3sum(vals) is None)


def test_blocked_finds_planted_witness():
    rng = np.random.default_rng(1)
    vals = rng.integers(-10 ** 6, 10 ** 6, size=64).astype(float)
    vals[40] = vals[15] + vals[25]
    led = ComparisonLedger()
    got = solve_conv_blocked(vals.tolist(), 4, led)
    assert got is not None
    i, j = got
    assert vals[i] + vals[j] == vals[i + j]


def test_blocked_matches_oracle_across_widths():
    rng = np.random.default_rng(2)
    for trial in range(60):
        n = int(rng.integers(1, 80))
        uni = int(rng.choice([4, 25, 10 ** 6]))
        vals = rng.integers(-uni, uni + 1, size=n).astype(float).tolist()
        g = (1, 2, 4, 8)[trial % 4]
        led = ComparisonLedger()
        got = solve_conv_blocked(vals, g, led)
        want = oracle_conv3sum(vals)
        assert (got is None) == (want is None)
        if got is not None:
            i, j = got
            assert vals[i] + vals[j] == vals[i + j]


def test_blocked_equals_the_scalar_search():
    rng = np.random.default_rng(5)
    witnesses, sizes = 0, set()
    for trial in range(500):
        n = int(rng.integers(0, 60))
        uni = int(rng.choice([1, 3, 20, 10 ** 6]))
        values = rng.integers(-uni, uni + 1, size=n).astype(float).tolist()
        g = None if trial % 5 == 0 or n == 0 else int(rng.integers(1, n + 1))
        sizes.add((n, g is not None and n % g != 0))
        l1, l2 = ComparisonLedger(), ComparisonLedger()
        got = solve_conv_blocked(values, g, l1)
        assert got == _conv_scalar(values, g, l2)
        assert l1.phases() == l2.phases()
        witnesses += got is not None
    assert 0 < witnesses < 500
    assert {0, 1} <= {n for n, _ in sizes} and any(short for _, short in sizes)


def test_only_3linear_probes_after_difference_sort():
    rng = np.random.default_rng(4)
    vals = rng.integers(-50, 51, size=32).astype(float).tolist()
    led = ComparisonLedger()
    solve_conv_blocked(vals, 4, led)
    # the blocks' sort, then their differences', then the probes
    assert {phase: set(book) for phase, book in led.phases().items()} == \
        {"sort_input": {2}, "diff_sort": {4}, "walk": {3}}


def test_empty_input():
    led = ComparisonLedger()
    assert solve_conv_blocked([], 2, led) is None
