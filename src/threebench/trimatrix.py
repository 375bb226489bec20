"""Target-constrained min-plus matrix products and zero-triangle search.

The product keeps, per output cell, the smallest A(i,k) + B(k,j) that is
still >= T(i,j), together with the witness k.  Setting T to -infinity
recovers the plain min-plus product; encoding a weighted graph's adjacency
into A, B and T turns "is there a zero-weight triangle" into "does C touch
its target anywhere".

Four variants share one contract: a trivial full scan (the oracle), an
instrumented difference-list variant, a permutation/dominance variant, and
a sampled hierarchy variant whose per-level witnesses hint the next level.
Infinite entries ride through the Fredman machinery as a huge finite
sentinel; anything at or above ``BIG_CUT`` is reported as infeasible.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import takewhile
from typing import Optional

import numpy as np

from .core import (ComparisonLedger, _bound_depths, difference_ticks, lower_bound,
                   ternary_search)
from .dominance import sorting_permutations

INF = math.inf
# The Fredman machinery rides +inf through as a huge finite sentinel.  With
# integer-valued entries below 2^40 every sum and difference involving the
# sentinel stays exact in float64, so deduced orders never contradict the
# direct sums.
BIG = float(2 ** 52)
BIG_CUT = float(2 ** 51)
FINITE_LIMIT = float(2 ** 40)
NO_WITNESS = -1


@dataclass(frozen=True)
class ExtMatrix:
    """A real matrix extended with +inf entries (targets also allow -inf)."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2:
            raise ValueError("matrix must be two-dimensional")


@dataclass
class TargetProductResult:
    values: ExtMatrix
    witnesses: np.ndarray  # NO_WITNESS where no feasible index exists

    def value(self, i: int, j: int) -> float:
        return float(self.values.data[i, j])

    def witness(self, i: int, j: int) -> int:
        return int(self.witnesses[i, j])


def as_operand(matrix) -> np.ndarray:
    arr = matrix.data if isinstance(matrix, ExtMatrix) else np.asarray(matrix, dtype=np.float64)
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if np.isnan(arr).any() or np.isneginf(arr).any():
        raise ValueError("operands allow only finite entries and +inf")
    if np.any(np.abs(arr[np.isfinite(arr)]) > FINITE_LIMIT):
        raise ValueError(f"finite entries must stay within +-{FINITE_LIMIT:g}")
    return arr


def as_target(matrix) -> np.ndarray:
    arr = matrix.data if isinstance(matrix, ExtMatrix) else np.asarray(matrix, dtype=np.float64)
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if np.isnan(arr).any():
        raise ValueError("targets must not contain NaN")
    if np.any(np.abs(arr[np.isfinite(arr)]) > FINITE_LIMIT):
        raise ValueError(f"finite entries must stay within +-{FINITE_LIMIT:g}")
    return arr


def _check_dims(a, b, t):
    if a.shape[1] != b.shape[0] or t.shape != (a.shape[0], b.shape[1]):
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape} vs {t.shape}")


def _encode(arr: np.ndarray) -> np.ndarray:
    inf_mask = np.isinf(arr)
    if inf_mask.any():
        finite = arr[~inf_mask]
        if np.any(finite != np.round(finite)):
            raise ValueError("infinite entries require integer-valued finite entries")
    return np.where(inf_mask, BIG, arr)


def _result(c: np.ndarray, w: np.ndarray) -> TargetProductResult:
    return TargetProductResult(ExtMatrix(c), w)


def default_strip_width(s: int) -> int:
    if s <= 1:
        return 1
    return max(1, math.ceil(math.sqrt(s * math.log2(s + 2))))


# ---------------------------------------------------------------------------
# trivial scan (the oracle for everything else)


def target_min_plus_trivial(A, B, T) -> TargetProductResult:
    """Exhaustive scan; ties broken toward the smallest witness index."""
    a, b, t = as_operand(A), as_operand(B), as_target(T)
    _check_dims(a, b, t)
    r, tcols = a.shape[0], b.shape[1]
    c_out = np.full((r, tcols), INF)
    w_out = np.full((r, tcols), NO_WITNESS, dtype=np.int64)
    for i in range(r):
        sums = a[i][:, None] + b  # s x t
        ok = (sums >= t[i][None, :]) & np.isfinite(sums)
        cand = np.where(ok, sums, INF)
        if cand.size == 0:
            continue
        ks = np.argmin(cand, axis=0)
        vals = cand[ks, np.arange(tcols)]
        fin = np.isfinite(vals)
        c_out[i] = np.where(fin, vals, INF)
        w_out[i] = np.where(fin, ks, NO_WITNESS)
    return _result(c_out, w_out)


# ---------------------------------------------------------------------------
# instrumented strip variant


def target_min_plus_dt(A, B, T, group_size: Optional[int],
                       ledger: ComparisonLedger) -> TargetProductResult:
    """Strip-wise product: one sorted difference list per strip deduces all
    per-cell candidate orders, each answered by one binary search."""
    a, b, t = as_operand(A), as_operand(B), as_target(T)
    _check_dims(a, b, t)
    ae, be = _encode(a), _encode(b)
    r, s = a.shape
    tcols = b.shape[1]
    g = group_size if group_size is not None else default_strip_width(s)
    if g < 1:
        raise ValueError("strip width must be >= 1")

    c_out = np.full((r, tcols), INF)
    w_out = np.full((r, tcols), NO_WITNESS, dtype=np.int64)
    for k0 in range(0, s, g):
        k1 = min(k0 + g, s)
        w = k1 - k0
        # the strip's difference list: all A-row diffs, then all B-column diffs
        local = np.arange(w)
        difference_ticks([(row[k0:k1], local, "row") for row in ae]
                         + [(col[k0:k1], local, "col") for col in be.T], ledger)
        # per-cell candidate order, deduced (free): stable argsort equals
        # the (value, index) tie-broken order the difference ranks define
        block = ae[:, k0:k1][:, :, None] + be[k0:k1, :][None, :, :]
        orders = np.argsort(block, axis=1, kind="stable")
        svals = np.take_along_axis(block, orders, axis=1)
        # per cell, the lower bound of its target: the counted bisection's
        # result is the number of smaller candidates, its probes fixed by it
        idx = (svals < t[:, None, :]).sum(axis=1)
        ledger.tick(3, int(np.asarray(_bound_depths(w))[idx].sum()))
        at = np.minimum(idx, w - 1)[:, None, :]
        val = np.take_along_axis(svals, at, axis=1)[:, 0, :]
        ok = (idx < w) & (val < BIG_CUT)
        # a feasible candidate met after an earlier strip's costs one 4-linear comparison
        ledger.tick(4, int((ok & (w_out != NO_WITNESS)).sum()))
        better = ok & (val < c_out)
        c_out[better] = val[better]
        w_out[better] = k0 + np.take_along_axis(orders, at, axis=1)[:, 0, :][better]
    return _result(c_out, w_out)


# ---------------------------------------------------------------------------
# permutation/dominance variant


def target_min_plus_dominance(A, B, T, group_size: Optional[int] = None
                              ) -> TargetProductResult:
    """Strip-wise product where each cell's candidate order is identified by
    matching row points against column points, one dominance call per
    (strip, permutation)."""
    a, b, t = as_operand(A), as_operand(B), as_target(T)
    _check_dims(a, b, t)
    ae, be = _encode(a), _encode(b)
    r, s = a.shape
    tcols = b.shape[1]
    g = group_size if group_size is not None else min(3, max(1, s))
    if not (1 <= g <= 6):
        raise ValueError("permutation enumeration needs 1 <= width <= 6")

    c_out = np.full((r, tcols), INF)
    w_out = np.full((r, tcols), NO_WITNESS, dtype=np.int64)
    for k0 in range(0, s, g):
        k1 = min(k0 + g, s)
        w = k1 - k0
        # rows of the A strip are red, columns of the B strip blue
        assigned = sorting_permutations(ae[:, k0:k1].tolist(), be[k0:k1, :].T.tolist(), w)
        for i in range(r):
            for j in range(tcols):
                pi = assigned[(i, j)]
                raws = [ae[i, k0 + kk] + be[k0 + kk, j] for kk in pi]
                idx = bisect_left(raws, t[i, j])  # uncharged
                if idx == w:
                    continue
                val = float(raws[idx])
                if val >= BIG_CUT:
                    continue
                wit = k0 + pi[idx]
                if w_out[i, j] == NO_WITNESS or val < c_out[i, j]:
                    c_out[i, j] = val
                    w_out[i, j] = wit
    return _result(c_out, w_out)


# ---------------------------------------------------------------------------
# sampled hierarchy variant


@dataclass
class SampleHierarchy:
    """Nested index samples: level-l intervals have width base * 2^l and
    each holds exactly base sampled indices (short tails hold what fits)."""

    base: int
    levels: int
    members: list  # members[l][p] = sorted np.ndarray of sampled indices

    def interval_bounds(self, level: int, p: int) -> tuple[int, int]:
        width = self.base * (1 << level)
        return p * width, (p + 1) * width

    def validate(self, n: int) -> None:
        for l in range(self.levels):
            width = self.base * (1 << l)
            for p, mem in enumerate(self.members[l]):
                lo, hi = p * width, min((p + 1) * width, n)
                if len(mem) != min(self.base, hi - lo):
                    raise ValueError("per-interval sample size violated")
                if any(not (lo <= k < hi) for k in mem):
                    raise ValueError("sample outside its interval")
                if l > 0:
                    parent = set(self.members[l - 1][2 * p].tolist())
                    sib = 2 * p + 1
                    if sib < len(self.members[l - 1]):
                        parent |= set(self.members[l - 1][sib].tolist())
                    if not set(mem.tolist()) <= parent:
                        raise ValueError("samples must be nested")


def build_sample_hierarchy(n: int, base: int, rng: np.random.Generator) -> SampleHierarchy:
    if base < 1 or base > n:
        raise ValueError("base width must be in [1, n]")
    nominal = 1 if n <= 2 else math.ceil(math.log2(max(2.0, math.log2(n))))
    cap = 1 + math.ceil(math.log2(max(1, -(-n // base))))
    levels = max(1, min(nominal, cap))
    members = [[np.arange(p * base, min((p + 1) * base, n))
                for p in range(-(-n // base))]]
    for l in range(1, levels):
        width = base * (1 << l)
        level = []
        for p in range(-(-n // width)):
            pool = members[l - 1][2 * p]
            if 2 * p + 1 < len(members[l - 1]):
                pool = np.concatenate([pool, members[l - 1][2 * p + 1]])
            take = min(base, len(pool))
            picked = rng.choice(pool, size=take, replace=False)
            level.append(np.sort(picked))
        members.append(level)
    return SampleHierarchy(base, levels, members)


def target_min_plus_sampled(A, B, T, group_size: Optional[int],
                            rng: np.random.Generator, ledger: ComparisonLedger,
                            hint_stats: Optional[list] = None) -> TargetProductResult:
    """Hierarchy variant for square matrices.

    Top-level witnesses come from binary searches; each lower level's
    witness is found by a linear walk down from the hint its parent's
    witness induces, which takes O(1) probes in expectation.  The result
    equals the trivial scan for every seed; only the probe pattern is
    randomized.
    """
    a, b, t = as_operand(A), as_operand(B), as_target(T)
    _check_dims(a, b, t)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, n) or t.shape != (n, n):
        raise ValueError("sampled variant needs square matrices")
    ae, be = _encode(a), _encode(b)
    g = group_size if group_size is not None else max(1, math.ceil(math.sqrt(n)))
    hierarchy = build_sample_hierarchy(n, g, rng)
    # per sampled interval: its A-row diffs, then its B-column diffs
    segments = []
    for level in hierarchy.members:
        for mem in level:
            segments += [(row[mem], mem, "row") for row in ae]
            segments += [(col[mem], mem, "col") for col in be.T]
    difference_ticks(segments, ledger)

    c_out = np.full((n, n), INF)
    w_out = np.full((n, n), NO_WITNESS, dtype=np.int64)
    top = hierarchy.levels - 1
    for i in range(n):
        row = ae[i]
        for j in range(n):
            sums = row + be[:, j]
            tgt = t[i, j]

            def ordered(mem):
                order = sorted(mem.tolist(), key=lambda k: (sums[k], k))
                return order, [sums[k] for k in order]

            orders = {}

            def get_order(l, p):
                key = (l, p)
                if key not in orders:
                    orders[key] = ordered(hierarchy.members[l][p])
                return orders[key]

            kappas = []
            for p in range(len(hierarchy.members[top])):
                order, raws = get_order(top, p)
                idx = lower_bound(raws, tgt, ledger)
                kappas.append(order[idx] if idx < len(order) else None)

            for l in range(top - 1, -1, -1):
                nxt: list = []
                for p, kappa in enumerate(kappas):
                    porder, praws = get_order(l + 1, p)
                    for child in (2 * p, 2 * p + 1):
                        if child >= len(hierarchy.members[l]):
                            continue
                        clo, chi = hierarchy.interval_bounds(l, child)
                        corder, craws = get_order(l, child)
                        hint = None
                        if kappa is not None:
                            for k in porder[porder.index(kappa):]:
                                if clo <= k < chi:
                                    hint = k
                                    break
                        if hint is None:
                            idx = lower_bound(craws, tgt, ledger)
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
                        if hint_stats is not None:
                            hint_stats.append(pos - steps)
                        nxt.append(corder[steps])
                kappas = nxt

            best_val = None
            best_k = None
            for kappa in kappas:
                if kappa is None:
                    continue
                val = sums[kappa]
                if best_val is None:
                    best_val, best_k = val, kappa
                else:
                    ledger.tick(4)
                    if val < best_val:
                        best_val, best_k = val, kappa
            if best_val is not None and best_val < BIG_CUT:
                c_out[i, j] = float(best_val)
                w_out[i, j] = best_k
    return _result(c_out, w_out)


# ---------------------------------------------------------------------------
# weighted graphs and zero triangles


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with real edge weights."""

    n: int
    edges: tuple

    def __post_init__(self):
        seen = set()
        for (u, v, w) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"vertex out of range in edge {(u, v)}")
            if u == v:
                raise ValueError("self-loops are not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[set]:
        adj = [set() for _ in range(self.n)]
        for (u, v, _) in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def weight_map(self) -> dict:
        wm = {}
        for (u, v, w) in self.edges:
            wm[(u, v)] = float(w)
            wm[(v, u)] = float(w)
        return wm


def oracle_zero_triangle(graph: WeightedGraph):
    """Enumerate all triangles and test each raw weight sum."""
    adj = graph.adjacency()
    wm = graph.weight_map()
    for (u, v, w) in sorted((min(u, v), max(u, v), w) for (u, v, w) in graph.edges):
        for x in sorted(adj[u] & adj[v]):
            if x > v and wm[(u, v)] + wm[(u, x)] + wm[(v, x)] == 0.0:
                return (u, v, x)
    return None


def graph_matrices(graph: WeightedGraph):
    """Dense encoding: A = B = weights (+inf off-edges), T = -w on edges."""
    n = graph.n
    a = np.full((n, n), INF)
    t = np.full((n, n), INF)
    for (u, v, w) in graph.edges:
        a[u, v] = a[v, u] = w
        t[u, v] = t[v, u] = -w
    return a, a.copy(), t


def zero_triangle_dense(graph: WeightedGraph, variant: str = "trivial",
                        group_size: Optional[int] = None,
                        ledger: Optional[ComparisonLedger] = None,
                        seed: int = 0):
    """Zero-triangle via the target product: a triangle closes at (i, j)
    exactly when the product value meets the target there."""
    if graph.n == 0:
        return None
    a, b, t = graph_matrices(graph)
    ledger = ledger if ledger is not None else ComparisonLedger()
    if variant == "trivial":
        res = target_min_plus_trivial(a, b, t)
    elif variant == "dt":
        res = target_min_plus_dt(a, b, t, group_size, ledger)
    elif variant == "dominance":
        res = target_min_plus_dominance(a, b, t, group_size)
    elif variant == "sampled":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        res = target_min_plus_sampled(a, b, t, group_size, rng, ledger)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    for (u, v, _) in sorted((min(u, v), max(u, v), w) for (u, v, w) in graph.edges):
        if res.value(u, v) == t[u, v]:
            x = res.witness(u, v)
            return (u, v, x)
    return None


@dataclass(frozen=True)
class Orientation:
    """Acyclic orientation from repeatedly deleting a minimum-degree vertex."""

    directed: tuple  # (u, v, w) oriented u -> v
    removal_order: tuple

    def out_edges(self) -> dict:
        out: dict = {}
        for (u, v, w) in self.directed:
            out.setdefault(u, []).append((v, w))
        return out

    def max_outdegree(self) -> int:
        out = self.out_edges()
        return max((len(v) for v in out.values()), default=0)


def acyclic_orient(graph: WeightedGraph) -> Orientation:
    """Orient edges away from iteratively removed minimum-degree vertices;
    the maximum outdegree stays below sqrt(2m)."""
    n = graph.n
    adj = [dict() for _ in range(n)]
    for (u, v, w) in graph.edges:
        adj[u][v] = float(w)
        adj[v][u] = float(w)
    alive = set(range(n))
    directed = []
    order = []
    while alive:
        u = min(alive, key=lambda v: (len(adj[v]), v))
        order.append(u)
        alive.discard(u)
        for v, w in sorted(adj[u].items()):
            directed.append((u, v, w))
            del adj[v][u]
        adj[u].clear()
    orientation = Orientation(tuple(directed), tuple(order))
    if graph.m:
        assert orientation.max_outdegree() < math.sqrt(2 * graph.m)
    return orientation


def default_color_count(m: int) -> int:
    if m <= 1:
        return 1
    return max(1, math.ceil(m ** 0.25 / math.sqrt(math.log2(m + 2))))


def _mono_pair_count(out_neighbors, colors, n_colors):
    total = 0
    for u, nbrs in out_neighbors.items():
        counts = [0] * n_colors
        for (v, _) in nbrs:
            counts[colors[v]] += 1
        total += sum(c * (c - 1) // 2 for c in counts)
    return total


def _greedy_coloring(graph, orientation, n_colors):
    """First-fit: give each vertex the color minimizing new monochromatic
    out-neighbor pairs; never worse than the random expectation."""
    colors = [0] * graph.n
    into: dict = {}
    for (u, v, _) in orientation.directed:
        into.setdefault(v, []).append(u)
    per_source: dict = {}
    for x in range(graph.n):
        costs = [0] * n_colors
        for u in into.get(x, []):
            cnt = per_source.setdefault(u, [0] * n_colors)
            for c in range(n_colors):
                costs[c] += cnt[c]
        best = min(range(n_colors), key=lambda c: costs[c])
        colors[x] = best
        for u in into.get(x, []):
            per_source[u][best] += 1
    return colors


def zero_triangle_sparse(graph: WeightedGraph, color_count: Optional[int],
                         ledger: ComparisonLedger, seed: int = 0,
                         max_draws: int = 32):
    """Type-directed search: orient, color, sort one difference list over
    same-colored out-neighbor pairs, then binary-search each (edge, color)
    type for the closing weight."""
    if graph.m == 0:
        return None
    k_colors = color_count if color_count is not None else default_color_count(graph.m)
    if k_colors < 1:
        raise ValueError("need at least one color")
    orientation = acyclic_orient(graph)
    out = orientation.out_edges()

    expectation = sum(len(nbrs) * (len(nbrs) - 1) / 2 for nbrs in out.values()) / k_colors
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    colors = None
    for _ in range(max_draws):
        cand = rng.integers(0, k_colors, size=graph.n).tolist()
        if _mono_pair_count(out, cand, k_colors) <= expectation:
            colors = cand
            break
    if colors is None:
        colors = _greedy_coloring(graph, orientation, k_colors)
        assert _mono_pair_count(out, colors, k_colors) <= expectation

    # difference list over same-colored out-neighbor pairs, both roles
    wm = graph.weight_map()
    pairs = []
    for u in sorted(out):
        by_color: dict = {}
        for (v, w) in sorted(out[u]):
            by_color.setdefault(colors[v], []).append((v, w))
        for c in sorted(by_color):
            members = by_color[c]
            pairs.append(([w for (_, w) in members], [v for (v, _) in members]))
    difference_ticks([(ws, vs, role) for role in ("row", "col") for ws, vs in pairs], ledger)
    ledger.snapshot("differences_sorted")

    common_cache: dict = {}
    for (u, v, w_uv) in sorted(orientation.directed):
        candidates = common_cache.get((u, v))
        if candidates is None:
            out_u = {x for (x, _) in out.get(u, [])}
            out_v = {x for (x, _) in out.get(v, [])}
            candidates = sorted(out_u & out_v)
            common_cache[(u, v)] = candidates
        if not candidates:
            continue
        key = -w_uv
        by_color: dict = {}
        for x in candidates:
            by_color.setdefault(colors[x], []).append(x)
        for c in sorted(by_color):
            xs = by_color[c]
            # order deduced from the difference list: (sum, index) keys
            xs = sorted(xs, key=lambda x: (wm[(u, x)] + wm[(v, x)], x))
            raws = [wm[(u, x)] + wm[(v, x)] for x in xs]
            res, pos = ternary_search(raws, key, ledger)
            if res == "hit":
                return (u, v, xs[pos])
    return None


def zero_triangle_core(graph: WeightedGraph, delta: Optional[int] = None,
                       dense_variant: str = "dt",
                       ledger: Optional[ComparisonLedger] = None,
                       seed: int = 0):
    """Split solve: orient greedily until every remaining vertex has degree
    >= delta, enumerate out-pairs of the oriented part, and hand the dense
    remainder (the high-degree core) to a dense backend."""
    if graph.m == 0:
        return None
    d = delta if delta is not None else max(2, math.ceil(math.sqrt(graph.m)))
    ledger = ledger if ledger is not None else ComparisonLedger()
    orientation = acyclic_orient(graph)
    out = orientation.out_edges()
    # the peel is the removal prefix whose out-degree stays below delta
    peeled = list(takewhile(lambda u: len(out.get(u, ())) < d, orientation.removal_order))
    alive = set(range(graph.n)).difference(peeled)
    wm = graph.weight_map()

    for u in sorted(peeled):
        nbrs = out.get(u, [])
        for ai in range(len(nbrs)):
            v, wv = nbrs[ai]
            for bi in range(ai + 1, len(nbrs)):
                x, wx = nbrs[bi]
                wvx = wm.get((v, x))
                if wvx is not None and wv + wx + wvx == 0.0:
                    return (u, v, x)

    core_vertices = sorted(alive)
    if not core_vertices:
        return None
    remap = {v: i for i, v in enumerate(core_vertices)}
    core_edges = []
    for (u, v, w) in graph.edges:
        if u in alive and v in alive:
            core_edges.append((remap[u], remap[v], w))
    core = WeightedGraph(len(core_vertices), tuple(core_edges))
    hit = zero_triangle_dense(core, dense_variant, ledger=ledger, seed=seed)
    if hit is None:
        return None
    return tuple(sorted(core_vertices[x] for x in hit))


# ---------------------------------------------------------------------------
# file formats


def write_graph(path, graph: WeightedGraph) -> None:
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {graph.m}\n")
        for (u, v, w) in graph.edges:
            fh.write(f"{u} {v} {fmt_real(w)}\n")


def read_graph(path) -> WeightedGraph:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("graph file needs an 'n m' header")
    n, m = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != 3 * m:
        raise ValueError(f"expected {3 * m} edge tokens, found {len(body)}")
    edges = tuple((int(body[3 * i]), int(body[3 * i + 1]), parse_real(body[3 * i + 2]))
                  for i in range(m))
    return WeightedGraph(n, edges)


def fmt_real(x: float) -> str:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


def parse_real(token: str) -> float:
    t = token.strip().lower()
    if t in ("inf", "+inf", "infinity"):
        return INF
    if t in ("-inf", "-infinity"):
        return -INF
    return float(token)


def write_matrix(fh, matrix) -> None:
    arr = matrix.data if isinstance(matrix, ExtMatrix) else np.asarray(matrix, dtype=np.float64)
    fh.write(f"{arr.shape[0]} {arr.shape[1]}\n")
    for row in arr:
        fh.write(" ".join(fmt_real(v) for v in row) + "\n")


def read_matrix(tokens, pos: int = 0):
    """Read one 'r c' headed matrix block from a token list; returns
    (array, next position)."""
    if pos + 2 > len(tokens):
        raise ValueError("matrix block needs an 'r c' header")
    r, c = int(tokens[pos]), int(tokens[pos + 1])
    need = r * c
    body = tokens[pos + 2:pos + 2 + need]
    if len(body) != need:
        raise ValueError(f"expected {need} entries, found {len(body)}")
    arr = np.array([parse_real(t) for t in body], dtype=np.float64).reshape(r, c)
    return arr, pos + 2 + need
