import io
import math

import numpy as np
import pytest

from threebench import trimatrix
from threebench.core import ComparisonLedger, difference_ticks, sort_segments
from threebench.harness import GENERATORS, generate
from threebench.trimatrix import (
    BIG_CUT,
    INF,
    NO_WITNESS,
    Orientation,
    WeightedGraph,
    _encode,
    acyclic_orient,
    as_operand,
    as_target,
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
    # finite entries must be integers of magnitude at most 2^40, +inf or all
    for bad in (0.5, 2.0 ** 40 + 1, -2.0 ** 40 - 1):
        for check in (as_operand, as_target):
            with pytest.raises(ValueError, match="integers of magnitude at most 2\\^40"):
                check(np.array([[1.0, bad]]))
    assert as_target([[-INF, 2.0 ** 40]]).tolist() == [[-INF, 2.0 ** 40]]
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


def _lower_bound(raws, key, ledger):
    """``bisect_left`` written out, one 3-linear tick per probe."""
    lo, hi = 0, len(raws)
    while lo < hi:
        mid = (lo + hi) // 2
        ledger.tick(3)
        if raws[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _sampled_scalar(A, B, T, group_size, rng, ledger, hint_stats):
    """Per-cell reference of the sampled variant: sorts each interval of
    each cell in Python, binary-searches the top level and walks every
    hinted child down from its hint one probe at a time."""
    a, b, t = as_operand(A), as_operand(B), as_target(T)
    n = a.shape[0]
    ae, be = _encode(a), _encode(b)
    g = group_size if group_size is not None else max(1, math.ceil(math.sqrt(n)))
    hierarchy = build_sample_hierarchy(n, g, rng)
    segments = []
    for level in hierarchy.members:
        for mem in level:
            segments += [(row[mem], mem, "row") for row in ae]
            segments += [(col[mem], mem, "col") for col in be.T]
    difference_ticks(sort_segments(segments, ledger), ledger)

    c_out = np.full((n, n), INF)
    w_out = np.full((n, n), NO_WITNESS, dtype=np.int64)
    top = hierarchy.levels - 1
    for i in range(n):
        for j in range(n):
            sums = ae[i] + be[:, j]
            tgt = t[i, j]
            orders = {}

            def get_order(l, p):
                if (l, p) not in orders:
                    order = sorted(hierarchy.members[l][p].tolist(),
                                   key=lambda k: (sums[k], k))
                    orders[(l, p)] = order, [sums[k] for k in order]
                return orders[(l, p)]

            kappas = []
            for p in range(len(hierarchy.members[top])):
                order, raws = get_order(top, p)
                idx = _lower_bound(raws, tgt, ledger)
                kappas.append(order[idx] if idx < len(order) else None)

            for l in range(top - 1, -1, -1):
                width = g << l
                nxt = []
                for p, kappa in enumerate(kappas):
                    porder, _ = get_order(l + 1, p)
                    for child in (2 * p, 2 * p + 1):
                        if child >= len(hierarchy.members[l]):
                            continue
                        corder, craws = get_order(l, child)
                        hint = None
                        if kappa is not None:
                            for k in porder[porder.index(kappa):]:
                                if child * width <= k < (child + 1) * width:
                                    hint = k
                                    break
                        if hint is None:
                            idx = _lower_bound(craws, tgt, ledger)
                            nxt.append(corder[idx] if idx < len(corder) else None)
                            continue
                        pos = corder.index(hint)
                        steps = pos
                        while steps > 0:
                            ledger.tick(3)
                            if craws[steps - 1] >= tgt:
                                steps -= 1
                            else:
                                break
                        hint_stats.append(pos - steps)
                        nxt.append(corder[steps])
                kappas = nxt

            best_val = best_k = None
            for kappa in kappas:
                if kappa is None:
                    continue
                if best_val is None:
                    best_val, best_k = sums[kappa], kappa
                else:
                    ledger.tick(4)
                    if sums[kappa] < best_val:
                        best_val, best_k = sums[kappa], kappa
            if best_val is not None and best_val < BIG_CUT:
                c_out[i, j] = float(best_val)
                w_out[i, j] = best_k
    return c_out, w_out


def _small_triple(rng, r, s, t):
    """Entries in -6..6 with about 10 % +inf; targets mix +-inf, values on
    the unconstrained optimum, and random values around it."""
    a = rng.integers(-6, 7, size=(r, s)).astype(float)
    b = rng.integers(-6, 7, size=(s, t)).astype(float)
    a[rng.random((r, s)) < 0.1] = INF
    b[rng.random((s, t)) < 0.1] = INF
    tt = rng.integers(-13, 14, size=(r, t)).astype(float)
    optimum = target_min_plus_trivial(a, b, np.full((r, t), -INF)).values
    marks = rng.random((r, t))
    tt[marks < 0.3] = optimum[marks < 0.3]
    tt[marks > 0.92] = INF
    tt[(marks > 0.84) & (marks <= 0.92)] = -INF
    return a, b, tt


def test_sampled_equals_the_scalar_oracle():
    rng = np.random.default_rng(21)
    depths = set()
    for trial in range(300):
        n = int(rng.integers(1, 31))
        g = None if trial % 6 == 0 else int(rng.integers(1, n + 1))
        a, b, t = _small_triple(rng, n, n, n)
        seed = int(rng.integers(0, 2 ** 32))
        want_led, got_led = ComparisonLedger(), ComparisonLedger()
        want_stats, got_stats = [], []
        want = _sampled_scalar(a, b, t, g, np.random.default_rng(seed), want_led, want_stats)
        got = target_min_plus_sampled(a, b, t, g, np.random.default_rng(seed), got_led,
                                      hint_stats=got_stats)
        cell = (trial, n, g)
        assert got_led.count_klinear == want_led.count_klinear, cell
        assert got_stats == want_stats, cell
        assert np.array_equal(got.values, want[0]), cell
        assert np.array_equal(got.witnesses, want[1]), cell
        depths.add(build_sample_hierarchy(n, g or max(1, math.ceil(math.sqrt(n))),
                                          np.random.default_rng(seed)).levels)
    assert {1, 2, 3} <= depths


def test_dominance_cell_merge_matches_oracle_on_rectangles():
    rng = np.random.default_rng(22)
    for trial in range(200):
        r, s, t = (int(x) for x in rng.integers(1, 20, size=3))
        a, b, tt = _small_triple(rng, r, s, t)
        width = int(rng.integers(1, min(4, s) + 1))
        assert _same(target_min_plus_trivial(a, b, tt),
                     target_min_plus_dominance(a, b, tt, width)), (trial, r, s, t, width)


def test_every_variant_returns_an_empty_product_on_empty_matrices():
    a = b = t = np.zeros((0, 0))
    results = [target_min_plus_trivial(a, b, t),
               target_min_plus_dt(a, b, t, None, ComparisonLedger()),
               target_min_plus_dominance(a, b, t),
               target_min_plus_sampled(a, b, t, None, np.random.default_rng(0),
                                       ComparisonLedger())]
    for res in results:
        assert res.values.shape == (0, 0) and res.witnesses.shape == (0, 0)


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
    for w in (1.5, 2.0 ** 40 + 1, -2.0 ** 40 - 1, math.nan, INF, -INF):
        with pytest.raises(ValueError, match="integers of magnitude at most 2\\^40"):
            _graph(2, [(0, 1, w)])


def test_orientation_star_and_path():
    star = _graph(5, [(0, i, 1.0) for i in range(1, 5)])
    o = acyclic_orient(star)
    # leaves go first, each sending its one edge toward the centre
    assert o.max_outdegree() <= 1
    path = _graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    o = acyclic_orient(path)
    assert o.max_outdegree() == 1


def test_orientation_bound_and_acyclicity():
    for trial in range(50):
        graph = generate("zerotri", 3 + trial % 20, "uniform", trial)
        if graph.m == 0:
            continue
        o = acyclic_orient(graph)
        assert o.max_outdegree() < math.sqrt(2 * graph.m)
        rank = {v: i for i, v in enumerate(o.removal_order)}
        assert all(rank[u] < rank[v] for (u, v, _) in o.directed)


def _orient_linear_min(graph):
    """Reference peel: picks each minimum-degree vertex by a linear scan."""
    adj = [dict() for _ in range(graph.n)]
    for (u, v, w) in graph.edges:
        adj[u][v] = float(w)
        adj[v][u] = float(w)
    alive = set(range(graph.n))
    directed, order = [], []
    while alive:
        u = min(alive, key=lambda v: (len(adj[v]), v))
        order.append(u)
        alive.discard(u)
        for v, w in sorted(adj[u].items()):
            directed.append((u, v, w))
            del adj[v][u]
        adj[u].clear()
    return Orientation(tuple(directed), tuple(order))


def test_orientation_equals_the_linear_min_peel():
    for generator in GENERATORS:
        for n in range(1, 81, 3):
            graph = generate("zerotri", n, generator, n)
            want = _orient_linear_min(graph)
            got = acyclic_orient(graph)
            assert got.removal_order == want.removal_order, (generator, n)
            assert got.directed == want.directed, (generator, n)


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


def test_core_peel_books_one_sign_query_per_closed_out_pair():
    # each triangle closes exactly one out-pair (v, x) of its source u
    edges = [(u, v, 1.0 + u + v) for u in range(7) for v in range(u + 1, 7) if (u * v) % 3 != 1]
    g = _graph(7, edges)
    adj = g.adjacency()
    triangles = sum(1 for u in range(7) for v in adj[u] for x in adj[u] & adj[v] if u < v < x)
    led = ComparisonLedger()
    assert zero_triangle_core(g, led) is None
    assert triangles > 0 and led.count_klinear == {3: triangles}


def _complete_graph(n, seed, span=10 ** 6):
    rng = np.random.default_rng(seed)
    return _graph(n, [(u, v, float(rng.integers(-span, span + 1)))
                      for u in range(n) for v in range(u + 1, n)])


def test_core_books_every_triangle_of_a_complete_graph_without_a_zero_one():
    g = _complete_graph(40, 40)
    assert oracle_zero_triangle(g) is None
    led = ComparisonLedger()
    assert zero_triangle_core(g, led) is None
    assert led.count_klinear == {3: math.comb(40, 3)}


def test_core_agrees_with_enumeration_on_complete_graphs():
    # weights in +-n close a zero triangle on most of these graphs
    found = set()
    for n in range(3, 65):
        for span in (n, 10 ** 6):
            g = _complete_graph(n, n, span)
            hit = zero_triangle_core(g)
            assert (hit is None) == (oracle_zero_triangle(g) is None), (n, span)
            if hit is not None:
                wm = g.weight_map()
                u, v, x = hit
                assert wm[(u, v)] + wm[(u, x)] + wm[(v, x)] == 0.0, (n, span)
            found.add(hit is not None)
    assert found == {False, True}


def test_sparse_agrees_with_enumeration():
    for trial in range(40):
        graph = generate("zerotri", 4 + trial % 20, GENS[trial % len(GENS)], trial)
        expect = oracle_zero_triangle(graph) is not None
        led = ComparisonLedger()
        assert (zero_triangle_sparse(graph, None, led, seed=trial) is not None) == expect
        assert (zero_triangle_core(graph) is not None) == expect


def test_sparse_greedy_coloring_fallback(monkeypatch):
    # with no random draw allowed, every solve colors first-fit; the coloring
    # must keep the monochromatic out-pairs within the random expectation
    monkeypatch.setattr(trimatrix, "MAX_COLOR_DRAWS", 0)
    greedy = trimatrix._greedy_coloring
    bounded = []

    def checked(graph, orientation, n_colors):
        colors = greedy(graph, orientation, n_colors)
        out = orientation.out_edges()
        pairs = sum(len(nbrs) * (len(nbrs) - 1) / 2 for nbrs in out.values())
        assert trimatrix._mono_pair_count(out, colors, n_colors) <= pairs / n_colors
        bounded.append(n_colors)
        return colors

    monkeypatch.setattr(trimatrix, "_greedy_coloring", checked)
    found = set()
    for trial in range(40):
        graph = generate("zerotri", 4 + trial % 20, GENS[trial % len(GENS)], trial)
        expect = oracle_zero_triangle(graph) is not None
        for k in (None, 1, 2, 5):
            got = zero_triangle_sparse(graph, k, ComparisonLedger(), seed=trial)
            assert (got is not None) == expect, (trial, k)
        found.add(expect)
    assert found == {False, True} and len(bounded) == 160 and max(bounded) == 5


def test_every_triangle_has_exactly_one_type():
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
    g = _graph(4, [(0, 1, 2.0 ** 40), (1, 2, -2.0), (2, 3, 7.0)])
    path = tmp_path / "graph.txt"
    write_graph(path, g)
    back = read_graph(path)
    assert back.n == g.n and back.edges == g.edges
    # a weight the graph refuses is refused as it is read
    path.write_text("4 1\n0 1 1.5\n")
    with pytest.raises(ValueError, match="integers of magnitude at most 2\\^40"):
        read_graph(path)


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
