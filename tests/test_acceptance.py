"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
criteria execute.  The scaling criterion is the long pole (a few minutes);
everything else finishes quickly.
"""

import math
import time

import numpy as np

from threebench import harness
from threebench.conv3sum import antidiagonal_cells, oracle_conv3sum, solve_conv_blocked
from threebench.core import ComparisonLedger, TaggedReal
from threebench.dominance import BLUE, RED, LabeledPoint, c_epsilon, report_dominating_pairs
from threebench.ldt import LinearForm, oracle_kldt, solve_kldt
from threebench.threesum import (
    BoxView,
    SubquadraticParams,
    default_point_count,
    deterministic_point_set,
    grid_span,
    is_bad,
    oracle_3sum,
    random_point_set,
    solve_decision_tree,
    solve_quadratic,
    solve_subquadratic,
    solve_subquadratic_simple,
)
from threebench.trimatrix import (
    INF,
    acyclic_orient,
    oracle_zero_triangle,
    target_min_plus_dominance,
    target_min_plus_dt,
    target_min_plus_sampled,
    target_min_plus_trivial,
    zero_triangle_core,
    zero_triangle_dense,
    zero_triangle_sparse,
)

GENERATORS = ("uniform", "planted", "duplicate-heavy", "integer-universe")


def _report(num: int, ok: bool, detail: str = ""):
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_oracle_equivalence_3sum():
    start = time.time()
    rng = np.random.default_rng(2024)
    mismatches = 0
    count = 1000
    for trial in range(count):
        n = int(rng.integers(1, 65))
        mode = GENERATORS[trial % 4]
        vals = harness.generate("3sum", n, mode, trial)
        expect = oracle_3sum(vals) is not None
        arr = vals.tolist()

        results = []
        led = ComparisonLedger()
        results.append(solve_quadratic(arr, arr, arr, led) is not None)
        led = ComparisonLedger()
        results.append(solve_decision_tree(arr, None, led) is not None)
        led = ComparisonLedger()
        results.append(
            solve_subquadratic_simple(arr, 1 if n < 4 else 2, led) is not None)
        led = ComparisonLedger()
        results.append(solve_subquadratic(arr, None, led) is not None)
        led = ComparisonLedger()
        params = SubquadraticParams(group_size=3, mode="randomized", seed=trial)
        results.append(solve_subquadratic(arr, params, led) is not None)

        mismatches += sum(1 for got in results if got != expect)
    elapsed = time.time() - start
    _report(1, mismatches == 0 and elapsed < 120.0,
            f"{count} instances x 5 solvers, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_02_step3_of_the_grouped_search_is_free():
    rng = np.random.default_rng(7)
    checked = 0
    bad = 0
    for trial in range(60):
        n = int(rng.integers(2, 65))
        vals = harness.generate("3sum", n, GENERATORS[trial % 4], trial).tolist()
        led = ComparisonLedger()
        solve_decision_tree(vals, None, led, mode="reference")
        delta = led.delta("step2_differences", "step3_boxes")
        bad += any(v != 0 for v in delta.values())
        checked += 1
    for trial in range(10):  # vectorised path at larger sizes
        vals = harness.generate("3sum", 400 + 50 * trial, "uniform", trial).tolist()
        led = ComparisonLedger()
        solve_decision_tree(vals, None, led, mode="fast")
        delta = led.delta("step2_differences", "step3_boxes")
        bad += any(v != 0 for v in delta.values())
        checked += 1
    _report(2, bad == 0, f"{checked} runs, zero-tick step 3 on all")


def test_criterion_03_tick_scaling_windows():
    start = time.time()
    cfg = harness.ExperimentConfig(
        problem="3sum", algos=("dt", "quadratic"),
        sizes=(512, 1024, 2048, 4096, 8192, 16384),
        trials=5, seed=42, generator="uniform")
    records = harness.run_experiment(cfg)
    fits = harness.fit_exponent(records)
    dt_slope = fits[("3sum", "dt")].slope
    quad_slope = fits[("3sum", "quadratic")].slope
    elapsed = time.time() - start
    ok = 1.40 <= dt_slope <= 1.75 and 1.90 <= quad_slope <= 2.05 and elapsed < 600.0
    _report(3, ok,
            f"dt slope {dt_slope:.3f} in [1.40,1.75], "
            f"quadratic slope {quad_slope:.3f} in [1.90,2.05], {elapsed:.0f}s")


def test_criterion_04_grid_point_sets_leave_no_bad_boxes():
    rng = np.random.default_rng(11)
    instances = 0
    boxes = 0
    bad = 0
    for g in (4, 6, 9, 12):
        q = math.ceil(math.sqrt(g))
        ps = deterministic_point_set(g, q)
        span = grid_span(g, q)
        for _ in range(50):
            rows = np.sort(rng.integers(-10 ** 9, 10 ** 9, size=g)).astype(float)
            cols_groups = [np.sort(rng.integers(-10 ** 9, 10 ** 9, size=g)).astype(float)
                           for _ in range(4)]
            for cols in cols_groups:
                box = BoxView([TaggedReal(v, i, 0) for i, v in enumerate(rows)],
                              [TaggedReal(v, 0, j) for j, v in enumerate(cols)])
                boxes += 1
                bad += is_bad(box, ps, span)
            instances += 1
    _report(4, bad == 0, f"{instances} instances, {boxes} boxes, {bad} bad")


def test_criterion_05_random_point_sets_keep_bad_rate_low():
    rng = np.random.default_rng(12)
    g = 6
    span = g
    count = default_point_count(g, span)
    total = 10_000
    bad = 0
    for _ in range(total):
        rows = np.sort(rng.integers(-10 ** 9, 10 ** 9, size=g)).astype(float)
        cols = np.sort(rng.integers(-10 ** 9, 10 ** 9, size=g)).astype(float)
        box = BoxView([TaggedReal(v, i, 0) for i, v in enumerate(rows)],
                      [TaggedReal(v, 0, j) for j, v in enumerate(cols)])
        ps = random_point_set(g, count, rng)
        bad += is_bad(box, ps, span)
    rate = bad / total
    _report(5, rate <= 2.0 / g,
            f"g={g} p={count} span={span}: bad fraction {rate:.4f} <= {2.0/g:.4f}")


def test_criterion_06_dominance_matches_brute_force():
    rng = np.random.default_rng(13)
    sets = 500
    bad = 0
    for trial in range(sets):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(2, 301))
        if trial % 10 == 0:
            coords = np.full((n, d), 3.0)  # all ties everywhere
        else:
            universe = int(rng.choice([2, 4, 100]))
            coords = rng.integers(0, universe, size=(n, d)).astype(float)
        colors = rng.random(n) < 0.5
        pts = [LabeledPoint(tuple(coords[i]), RED if colors[i] else BLUE, i)
               for i in range(n)]
        got = set()
        report_dominating_pairs(pts, lambda r, b: got.add((r.id, b.id)))
        reds = coords[colors]
        blues = coords[~colors]
        rid = np.flatnonzero(colors)
        bid = np.flatnonzero(~colors)
        if len(reds) and len(blues):
            dom = (reds[:, None, :] >= blues[None, :, :]).all(axis=2)
            want = {(int(rid[i]), int(bid[j])) for i, j in np.argwhere(dom)}
        else:
            want = set()
        bad += got != want
    ce = c_epsilon(0.5)
    formula = 2 ** 0.5 / (2 ** 0.5 - 1)
    ok = bad == 0 and abs(ce - formula) < 1e-6
    _report(6, ok, f"{sets} point sets, {bad} mismatches; c(1/2)={ce:.9f}")


def test_criterion_07_target_product_variants_agree():
    rng = np.random.default_rng(14)
    triples = 300
    mismatches = 0
    sampled_runs = 0
    for trial in range(triples):
        square = trial % 2 == 0
        if square:
            r = s = t = int(rng.integers(1, 33))
        else:
            r, s, t = (int(rng.integers(1, 33)) for _ in range(3))
        a = rng.integers(-1000, 1001, size=(r, s)).astype(float)
        b = rng.integers(-1000, 1001, size=(s, t)).astype(float)
        a[rng.random((r, s)) < 0.1] = INF
        b[rng.random((s, t)) < 0.1] = INF
        tt = rng.integers(-2000, 2001, size=(r, t)).astype(float)
        marks = rng.random((r, t))
        tt[marks < 0.06] = INF
        tt[marks > 0.94] = -INF

        ref = target_min_plus_trivial(a, b, tt)

        def same(res):
            return np.array_equal(ref.values, res.values) \
                and np.array_equal(ref.witnesses, res.witnesses)

        led = ComparisonLedger()
        mismatches += not same(target_min_plus_dt(a, b, tt, None, led))
        mismatches += not same(target_min_plus_dominance(a, b, tt, min(3, s)))
        if square:
            for seed in range(10):
                led = ComparisonLedger()
                res = target_min_plus_sampled(a, b, tt, None,
                                              np.random.default_rng(seed), led)
                mismatches += not same(res)
                sampled_runs += 1
    _report(7, mismatches == 0,
            f"{triples} triples, {sampled_runs} sampled runs, {mismatches} mismatches")


def test_criterion_08_zero_triangle_solvers_agree():
    rng = np.random.default_rng(15)
    graphs = 200
    mismatches = 0
    orientation_failures = 0
    for trial in range(graphs):
        n = int(rng.integers(4, 41))
        mode = "planted" if trial % 2 == 0 else "uniform"
        graph = harness.generate("zerotri", n, mode, trial)
        if graph.m > 400:
            continue
        expect = oracle_zero_triangle(graph) is not None
        for variant in ("trivial", "dt", "dominance", "sampled"):
            got = zero_triangle_dense(graph, variant, seed=trial) is not None
            mismatches += got != expect
        led = ComparisonLedger()
        mismatches += (zero_triangle_sparse(graph, None, led, seed=trial)
                       is not None) != expect
        mismatches += (zero_triangle_core(graph) is not None) != expect
        if graph.m:
            o = acyclic_orient(graph)
            if not o.max_outdegree() < math.sqrt(2 * graph.m):
                orientation_failures += 1
            rank = {v: i for i, v in enumerate(o.removal_order)}
            if not all(rank[u] < rank[v] for (u, v, _) in o.directed):
                orientation_failures += 1
    ok = mismatches == 0 and orientation_failures == 0
    _report(8, ok, f"{graphs} graphs, {mismatches} mismatches, "
                   f"{orientation_failures} orientation failures")


def test_criterion_09_ldt_agrees_and_stays_within_arity():
    rng = np.random.default_rng(16)
    mismatches = 0
    arity_violations = 0
    for k, max_n, count in ((3, 64, 200), (5, 12, 200)):
        for trial in range(count):
            n = int(rng.integers(1, max_n + 1))
            coeffs = [float(rng.integers(-4, 5))]
            coeffs += [float(x) if x else 1.0 for x in rng.integers(-4, 5, size=k)]
            phi = LinearForm(tuple(coeffs))
            uni = int(rng.choice([3, 9, 1000]))
            vals = rng.integers(-uni, uni + 1, size=n).astype(float).tolist()
            led = ComparisonLedger()
            got = solve_kldt(phi, vals, None, led)
            if got != oracle_kldt(phi, vals):
                mismatches += 1
            diff_phase = led.snapshot_counts("differences_sorted")
            if diff_phase and max(diff_phase) > 2 * k - 2:
                arity_violations += 1
    ok = mismatches == 0 and arity_violations == 0
    _report(9, ok, f"400 instances, {mismatches} mismatches, "
                   f"{arity_violations} arity violations")


def test_criterion_10_convolution_solver_agrees_with_coverage():
    rng = np.random.default_rng(17)
    instances = 300
    mismatches = 0
    coverage_failures = 0
    for trial in range(instances):
        n = int(rng.integers(1, 129))
        mode = GENERATORS[trial % 4]
        vals = harness.generate("conv", n, mode, trial).tolist()
        g = (1, 2, 4, 8)[trial % 4]
        log: dict = {}
        led = ComparisonLedger()
        got = solve_conv_blocked(vals, g, led, probe_log=log)
        want = oracle_conv3sum(vals)
        if (got is None) != (want is None):
            mismatches += 1
        if got is not None and vals[got[0]] + vals[got[1]] != vals[got[0] + got[1]]:
            mismatches += 1
        for k, cells in log.items():
            expect_cells = set(antidiagonal_cells(n, k))
            rows = [i for (i, _) in cells]
            cols = [j for (_, j) in cells]
            if set(cells) != expect_cells or len(set(rows)) != len(rows) \
                    or len(set(cols)) != len(cols):
                coverage_failures += 1
    ok = mismatches == 0 and coverage_failures == 0
    _report(10, ok, f"{instances} instances, {mismatches} mismatches, "
                    f"{coverage_failures} coverage failures")


def test_criterion_11_csv_reproducibility(tmp_path):
    def run(name):
        path = tmp_path / name
        cfg = harness.ExperimentConfig(
            problem="3sum", algos=("quadratic", "dt", "subq-det"),
            sizes=(8, 16, 32), trials=3, seed=9,
            generator="planted", csv_path=str(path))
        harness.run_experiment(cfg)
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    first = run("first.csv")
    second = run("second.csv")
    ok = first == second and len(first) == 1 + 3 * 3 * 3
    _report(11, ok, f"{len(first) - 1} rows identical across two runs "
                    "(wall-time column excluded)")
