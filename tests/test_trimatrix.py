import io
import math

import numpy as np
import pytest

from threebench.core import ComparisonLedger
from threebench.trimatrix import (
    INF,
    WeightedGraph,
    acyclic_orient,
    as_operand,
    build_sample_hierarchy,
    fmt_real,
    graph_matrices,
    oracle_zero_triangle,
    parse_real,
    read_graph,
    read_matrix,
    target_min_plus_dominance,
    target_min_plus_dt,
    target_min_plus_sampled,
    target_min_plus_trivial,
    write_graph,
    write_matrix,
    zero_triangle_core,
    zero_triangle_dense,
    zero_triangle_sparse,
)


def _same(a, b):
    return np.array_equal(a.values, b.values) \
        and np.array_equal(a.witnesses, b.witnesses)


def _random_triple(rng, r, s, t, inf_frac=0.15):
    a = rng.integers(-20, 21, size=(r, s)).astype(float)
    b = rng.integers(-20, 21, size=(s, t)).astype(float)
    a[rng.random((r, s)) < inf_frac] = INF
    b[rng.random((s, t)) < inf_frac] = INF
    tt = rng.integers(-40, 41, size=(r, t)).astype(float)
    marks = rng.random((r, t))
    tt[marks < 0.08] = INF
    tt[marks > 0.92] = -INF
    return a, b, tt


# ---------------------------------------------------------------------------
# trivial scan


def test_trivial_one_by_one_feasible():
    res = target_min_plus_trivial([[2.0]], [[3.0]], [[0.0]])
    assert res.value(0, 0) == 5.0 and res.witness(0, 0) == 0


def test_trivial_one_by_one_infeasible_target():
    res = target_min_plus_trivial([[2.0]], [[3.0]], [[6.0]])
    assert res.value(0, 0) == INF and res.witness(0, 0) == -1


def test_trivial_reverts_to_min_plus_on_bottom_targets():
    rng = np.random.default_rng(0)
    a = rng.integers(-9, 10, size=(10, 10)).astype(float)
    b = rng.integers(-9, 10, size=(10, 10)).astype(float)
    t = np.full((10, 10), -INF)
    res = target_min_plus_trivial(a, b, t)
    # independent plain min-plus
    for i in range(10):
        for j in range(10):
            want = min(a[i, k] + b[k, j] for k in range(10))
            assert res.value(i, j) == want


def test_operand_validation():
    with pytest.raises(ValueError):
        as_operand(np.array([[-INF]]))
    with pytest.raises(ValueError):
        as_operand(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        target_min_plus_trivial([[1.0]], [[1.0, 2.0]], [[0.0]])


# ---------------------------------------------------------------------------
# strip variant


def test_dt_single_strip_equals_oracle():
    rng = np.random.default_rng(1)
    a, b, t = _random_triple(rng, 4, 4, 4, inf_frac=0.0)
    led = ComparisonLedger()
    assert _same(target_min_plus_trivial(a, b, t),
                 target_min_plus_dt(a, b, t, 4, led))


def test_dt_matches_oracle_across_strip_widths():
    rng = np.random.default_rng(2)
    for g in (2, 4, 8):
        a, b, t = _random_triple(rng, 24, 24, 24, inf_frac=0.0)
        led = ComparisonLedger()
        assert _same(target_min_plus_trivial(a, b, t),
                     target_min_plus_dt(a, b, t, g, led))


def test_dt_handles_infinity_heavy_operands():
    rng = np.random.default_rng(3)
    a, b, t = _random_triple(rng, 12, 12, 12, inf_frac=0.5)
    led = ComparisonLedger()
    res = target_min_plus_dt(a, b, t, 4, led)
    assert _same(target_min_plus_trivial(a, b, t), res)
    finite = np.isfinite(res.values)
    assert np.all(res.witnesses[~finite] == -1)


# ---------------------------------------------------------------------------
# dominance variant


def test_dominance_width_one():
    rng = np.random.default_rng(4)
    a, b, t = _random_triple(rng, 6, 5, 7)
    assert _same(target_min_plus_trivial(a, b, t),
                 target_min_plus_dominance(a, b, t, 1))


def test_dominance_matches_oracle():
    rng = np.random.default_rng(5)
    a, b, t = _random_triple(rng, 16, 16, 16)
    assert _same(target_min_plus_trivial(a, b, t),
                 target_min_plus_dominance(a, b, t, 3))


def test_dominance_handles_heavy_ties():
    rng = np.random.default_rng(6)
    a = rng.integers(0, 3, size=(9, 9)).astype(float)
    b = rng.integers(0, 3, size=(9, 9)).astype(float)
    t = rng.integers(0, 6, size=(9, 9)).astype(float)
    assert _same(target_min_plus_trivial(a, b, t),
                 target_min_plus_dominance(a, b, t, 3))


def test_dominance_rejects_oversized_width():
    with pytest.raises(ValueError):
        target_min_plus_dominance([[1.0]], [[1.0]], [[0.0]], 7)


# ---------------------------------------------------------------------------
# sampled variant


def test_sampled_single_interval_is_pure_binary_search():
    rng = np.random.default_rng(7)
    a, b, t = _random_triple(rng, 5, 5, 5)
    led = ComparisonLedger()
    res = target_min_plus_sampled(a, b, t, 5, np.random.default_rng(0), led)
    assert _same(target_min_plus_trivial(a, b, t), res)


def test_sampled_matches_oracle_across_seeds():
    rng = np.random.default_rng(8)
    a, b, t = _random_triple(rng, 32, 32, 32)
    ref = target_min_plus_trivial(a, b, t)
    for seed in range(10):
        led = ComparisonLedger()
        res = target_min_plus_sampled(a, b, t, 4, np.random.default_rng(seed), led)
        assert _same(ref, res)


def test_sampled_boundary_targets():
    rng = np.random.default_rng(9)
    a, b, _ = _random_triple(rng, 12, 12, 12, inf_frac=0.0)
    base = target_min_plus_trivial(a, b, np.full((12, 12), -INF))
    t = base.values.copy()  # targets sit exactly on the optimum
    ref = target_min_plus_trivial(a, b, t)
    led = ComparisonLedger()
    res = target_min_plus_sampled(a, b, t, 3, np.random.default_rng(1), led)
    assert _same(ref, res)
    assert np.array_equal(ref.values, t)


def test_sampled_requires_square():
    with pytest.raises(ValueError):
        target_min_plus_sampled(np.zeros((2, 3)), np.zeros((3, 2)),
                                np.zeros((2, 2)), 2,
                                np.random.default_rng(0), ComparisonLedger())


def test_hierarchy_shape_and_nesting():
    h = build_sample_hierarchy(32, 4, np.random.default_rng(2))
    h.validate(32)
    assert h.levels >= 2
    assert all(len(mem) == 4 for mem in h.members[1][:-1])


def test_hint_distance_stays_small_on_average():
    rng = np.random.default_rng(10)
    stats = []
    while len(stats) < 10_000:
        a, b, t = _random_triple(rng, 24, 24, 24, inf_frac=0.1)
        led = ComparisonLedger()
        target_min_plus_sampled(a, b, t, 3, np.random.default_rng(len(stats)),
                                led, hint_stats=stats)
    assert np.mean(stats) <= 2.0


# ---------------------------------------------------------------------------
# zero triangles


def _graph(n, edges):
    return WeightedGraph(n, tuple(edges))


def test_dense_finds_zero_triangle():
    g = _graph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, -3.0)])
    for variant in ("trivial", "dt", "dominance", "sampled"):
        hit = zero_triangle_dense(g, variant)
        assert hit is not None
        u, v, x = hit
        wm = g.weight_map()
        assert wm[(u, v)] + wm[(u, x)] + wm[(v, x)] == 0.0


def test_dense_rejects_nonzero_triangle():
    g = _graph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    for variant in ("trivial", "dt", "dominance", "sampled"):
        assert zero_triangle_dense(g, variant) is None


def test_dense_variants_agree_with_enumeration():
    from threebench.harness import generate

    for trial in range(30):
        graph = generate("zerotri", 4 + trial % 14, GENS[trial % len(GENS)], trial)
        expect = oracle_zero_triangle(graph) is not None
        for variant in ("trivial", "dt", "dominance", "sampled"):
            got = zero_triangle_dense(graph, variant, seed=trial) is not None
            assert got == expect, (variant, trial)


GENS = ("uniform", "planted", "duplicate-heavy")


def test_oracle_empty_graph():
    assert oracle_zero_triangle(_graph(0, [])) is None
    assert oracle_zero_triangle(_graph(5, [])) is None


def test_graph_validation():
    with pytest.raises(ValueError):
        _graph(2, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        _graph(2, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValueError):
        _graph(1, [(0, 1, 1.0)])


def test_orientation_star_and_path():
    star = _graph(5, [(0, i, 1.0) for i in range(1, 5)])
    o = acyclic_orient(star)
    # leaves go first, each sending its one edge toward the centre
    assert o.max_outdegree() <= 1
    path = _graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    o = acyclic_orient(path)
    assert o.max_outdegree() == 1


def test_orientation_bound_and_acyclicity():
    from threebench.harness import generate

    for trial in range(50):
        graph = generate("zerotri", 3 + trial % 20, "uniform", trial)
        if graph.m == 0:
            continue
        o = acyclic_orient(graph)
        assert o.max_outdegree() < math.sqrt(2 * graph.m)
        rank = {v: i for i, v in enumerate(o.removal_order)}
        assert all(rank[u] < rank[v] for (u, v, _) in o.directed)


def test_sparse_single_triangle_one_color():
    g = _graph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, -3.0)])
    led = ComparisonLedger()
    hit = zero_triangle_sparse(g, 1, led)
    assert hit is not None
    wm = g.weight_map()
    u, v, x = hit
    assert wm[(u, v)] + wm[(u, x)] + wm[(v, x)] == 0.0


def test_sparse_triangle_free_graph():
    g = _graph(6, [(i, j, 1.0) for i in range(3) for j in range(3, 6)])
    led = ComparisonLedger()
    assert zero_triangle_sparse(g, None, led) is None
    assert zero_triangle_core(g) is None


def test_sparse_agrees_with_enumeration():
    from threebench.harness import generate

    for trial in range(40):
        graph = generate("zerotri", 4 + trial % 20, GENS[trial % len(GENS)], trial)
        expect = oracle_zero_triangle(graph) is not None
        led = ComparisonLedger()
        assert (zero_triangle_sparse(graph, None, led, seed=trial) is not None) == expect
        assert (zero_triangle_core(graph) is not None) == expect


def test_every_triangle_has_exactly_one_type():
    from threebench.harness import generate

    for trial in range(20):
        graph = generate("zerotri", 6 + trial, "uniform", 100 + trial)
        if graph.m == 0:
            continue
        orientation = acyclic_orient(graph)
        out = {u: {v for (v, _) in nbrs} for u, nbrs in orientation.out_edges().items()}
        adj = graph.adjacency()
        for u in range(graph.n):
            for v in adj[u]:
                if v <= u:
                    continue
                for x in adj[u] & adj[v]:
                    if x <= v:
                        continue
                    sources = [a for a, b, c in ((u, v, x), (v, u, x), (x, u, v))
                               if b in out.get(a, set()) and c in out.get(a, set())]
                    assert len(sources) == 1


# ---------------------------------------------------------------------------
# file formats


def test_graph_roundtrip(tmp_path):
    g = _graph(4, [(0, 1, 1.5), (1, 2, -2.0), (2, 3, 7.0)])
    path = tmp_path / "graph.txt"
    write_graph(path, g)
    back = read_graph(path)
    assert back.n == g.n and back.edges == g.edges


def test_matrix_roundtrip_with_infinities():
    mat = np.array([[1.0, INF], [-INF, 2.5]])
    buf = io.StringIO()
    write_matrix(buf, mat)
    tokens = buf.getvalue().split()
    back, pos = read_matrix(tokens, 0)
    assert pos == len(tokens)
    assert np.array_equal(back, mat)


def test_real_formatting():
    assert fmt_real(INF) == "inf" and fmt_real(-INF) == "-inf"
    assert fmt_real(3.0) == "3"
    assert parse_real("inf") == INF and parse_real("-2.5") == -2.5


def test_graph_matrices_layout():
    g = _graph(3, [(0, 1, 4.0)])
    a, b, t = graph_matrices(g)
    assert a[0, 1] == 4.0 and a[1, 0] == 4.0 and a[0, 2] == INF
    assert t[0, 1] == -4.0 and t[0, 2] == INF
    assert np.array_equal(a, b)
