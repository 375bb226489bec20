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

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ComparisonLedger, _bound_depths, difference_ticks, sort_segments, ternary_search
from .dominance import sorting_permutations
# the dt variant's strip width is the grouped search's sqrt(s log s) group size
from .threesum import default_group_size as default_strip_width

INF = math.inf
# The Fredman machinery rides +inf through as a huge finite sentinel.  The
# operands' and targets' finite entries are integers of magnitude at most
# 2^40 (as_operand, as_target), so every sum and difference involving the
# sentinel stays exact in float64, and deduced orders never contradict the
# direct sums.
BIG = float(2 ** 52)
BIG_CUT = float(2 ** 51)
FINITE_LIMIT = float(2 ** 40)
NO_WITNESS = -1
# random colorings zero_triangle_sparse tries before its greedy fallback
MAX_COLOR_DRAWS = 32


@dataclass
class TargetProductResult:
    values: np.ndarray  # +inf where no feasible index exists
    witnesses: np.ndarray  # NO_WITNESS where no feasible index exists

    def value(self, i: int, j: int) -> float:
        return float(self.values[i, j])

    def witness(self, i: int, j: int) -> int:
        return int(self.witnesses[i, j])


def _exact_matrix(matrix, infinities) -> np.ndarray:
    """`matrix` as a float64 array; refuses a matrix that is not
    two-dimensional, and an entry that is neither an integer of magnitude at
    most 2^40 nor one of `infinities`."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    exact = np.isin(arr, infinities) | ((np.abs(arr) <= FINITE_LIMIT) & (arr == np.trunc(arr)))
    if not exact.all():
        raise ValueError("entries must be integers of magnitude at most 2^40, or "
                         + " or ".join(map(fmt_real, infinities)))
    return arr


def as_operand(matrix) -> np.ndarray:
    return _exact_matrix(matrix, (INF,))


def as_target(matrix) -> np.ndarray:
    return _exact_matrix(matrix, (INF, -INF))


def _check_dims(a, b, t):
    if a.shape[1] != b.shape[0] or t.shape != (a.shape[0], b.shape[1]):
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape} vs {t.shape}")


def _encode(arr: np.ndarray) -> np.ndarray:
    return np.where(np.isinf(arr), BIG, arr)


def default_dominance_width(s: int) -> int:
    return min(3, max(1, s))


def default_sample_base(n: int) -> int:
    return max(1, math.ceil(math.sqrt(n)))


def _cell_sums(ae: np.ndarray, be: np.ndarray, ks) -> np.ndarray:
    """Per output cell (i, j), the candidate sums ae[i, k] + be[k, j] over
    the indices `ks`, along the last axis."""
    return ae[:, ks][:, None, :] + be[ks, :].T[None, :, :]


def _lower_bounds(block: np.ndarray, order: np.ndarray, t: np.ndarray):
    """Per cell of a rows x cols x width candidate `block` read in `order`
    along its last axis: the lower bound of the cell's target, and the value
    and candidate position there (clipped to the last candidate)."""
    svals = np.take_along_axis(block, order, axis=2)
    idx = (svals < t[:, :, None]).sum(axis=2)
    at = np.minimum(idx, block.shape[2] - 1)[:, :, None]
    return (idx, np.take_along_axis(svals, at, axis=2)[:, :, 0],
            np.take_along_axis(order, at, axis=2)[:, :, 0])


def _keep_smaller(c_out, w_out, ok, val, wit) -> None:
    """Merge one strip's feasible candidates into the running result; a tie
    keeps the earlier strip's witness."""
    better = ok & (val < c_out)
    c_out[better] = val[better]
    w_out[better] = wit[better]


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
    return TargetProductResult(c_out, w_out)


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
        difference_ticks(sort_segments([(row[k0:k1], local, "row") for row in ae]
                                       + [(col[k0:k1], local, "col") for col in be.T], ledger),
                         ledger)
        # per-cell candidate order, deduced (free): stable argsort equals
        # the (value, index) tie-broken order the difference ranks define
        block = _cell_sums(ae, be, slice(k0, k1))
        order = np.argsort(block, axis=2, kind="stable")
        # per cell, the lower bound of its target: the counted bisection's
        # result is the number of smaller candidates, its probes fixed by it
        idx, val, pick = _lower_bounds(block, order, t)
        ledger.tick(3, int(_bound_depths(w)[idx].sum()))
        ok = (idx < w) & (val < BIG_CUT)
        # a feasible candidate met after an earlier strip's costs one 4-linear comparison
        ledger.tick(4, int((ok & (w_out != NO_WITNESS)).sum()))
        _keep_smaller(c_out, w_out, ok, val, k0 + pick)
    return TargetProductResult(c_out, w_out)


# ---------------------------------------------------------------------------
# permutation/dominance variant


def target_min_plus_dominance(A, B, T, group_size: Optional[int] = None
                              ) -> TargetProductResult:
    """Strip-wise product where each cell's candidate order is the one
    permutation whose consecutive row differences dominate the column
    differences, certified for every cell of a strip by one
    ``sorting_permutations`` call.  Neither the certification nor the
    lower bound of each cell's target in its matched order is charged
    (ROADMAP item 2)."""
    a, b, t = as_operand(A), as_operand(B), as_target(T)
    _check_dims(a, b, t)
    ae, be = _encode(a), _encode(b)
    r, s = a.shape
    tcols = b.shape[1]
    g = group_size if group_size is not None else default_dominance_width(s)
    if not (1 <= g <= 6):
        raise ValueError("permutation enumeration needs 1 <= width <= 6")

    c_out = np.full((r, tcols), INF)
    w_out = np.full((r, tcols), NO_WITNESS, dtype=np.int64)
    for k0 in range(0, s, g):
        k1 = min(k0 + g, s)
        w = k1 - k0
        # rows of the A strip are red, columns of the B strip blue
        perms, index = sorting_permutations(ae[:, k0:k1], be[k0:k1, :].T, w)
        block = _cell_sums(ae, be, slice(k0, k1))
        idx, val, pick = _lower_bounds(block, perms[index], t)  # uncharged
        _keep_smaller(c_out, w_out, (idx < w) & (val < BIG_CUT), val, k0 + pick)
    return TargetProductResult(c_out, w_out)


# ---------------------------------------------------------------------------
# sampled hierarchy variant


@dataclass
class SampleHierarchy:
    """Nested index samples: level-l intervals have width base * 2^l and
    each holds exactly base sampled indices (short tails hold what fits)."""

    base: int
    levels: int
    members: list  # members[l][p] = sorted np.ndarray of sampled indices


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


def target_min_plus_sampled(A, B, T, group_size: Optional[int], rng: np.random.Generator,
                            ledger: ComparisonLedger) -> TargetProductResult:
    """Hierarchy variant for square matrices.

    Top-level witnesses come from binary searches; each lower level's
    witness is found by a linear walk down from the hint its parent's
    witness induces, which takes O(1) probes in expectation.  The result
    equals the trivial scan for every seed; only the probe pattern is
    randomized.

    A hint is the first parent member, in the parent's (sum, index) order
    from the parent's witness on, that lies in the child interval.  Its
    sum is >= the target, so every level's witness is the plain lower
    bound of its target, and the walk is priced in closed form: from the
    hint's position ``pos`` down to the lower bound ``lb`` it makes
    ``pos - lb`` successful probes plus one failing probe when ``lb > 0``.
    (The dominance variant's per-cell lower bound, by contrast, is still
    uncharged: ROADMAP item 2.)
    """
    a, b, t = as_operand(A), as_operand(B), as_target(T)
    _check_dims(a, b, t)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, n) or t.shape != (n, n):
        raise ValueError("sampled variant needs square matrices")
    c_out = np.full((n, n), INF)
    w_out = np.full((n, n), NO_WITNESS, dtype=np.int64)
    g = group_size if group_size is not None else default_sample_base(n)
    if n == 0 < g:  # build_sample_hierarchy refuses g < 1 and needs n >= g
        return TargetProductResult(c_out, w_out)
    ae, be = _encode(a), _encode(b)
    hierarchy = build_sample_hierarchy(n, g, rng)
    # per sampled interval: its A-row diffs, then its B-column diffs
    segments = []
    for level in hierarchy.members:
        for mem in level:
            segments += [(row[mem], mem, "row") for row in ae]
            segments += [(col[mem], mem, "col") for col in be.T]
    difference_ticks(sort_segments(segments, ledger), ledger)

    top = hierarchy.levels - 1
    found = np.zeros((n, n), dtype=np.int64)
    for l in range(top, -1, -1):
        for p, mem in enumerate(hierarchy.members[l]):
            m = len(mem)
            # per cell, the interval's (sum, index) order, deduced (free),
            # and the lower bound of the target in it
            block = _cell_sums(ae, be, mem)
            order = np.argsort(block, axis=2, kind="stable")
            lb, val, pick = _lower_bounds(block, order, t)
            probes = _bound_depths(m)[lb]
            if l < top:
                # sorted positions, from the lower bound on, of parent members
                hints = np.isin(mem, hierarchy.members[l + 1][p // 2])[order]
                hints &= np.arange(m) >= lb[:, :, None]
                hinted = hints.any(axis=2)
                walk = hints.argmax(axis=2) - lb
                probes = np.where(hinted, walk + (lb > 0), probes)
            ledger.tick(3, int(probes.sum()))
            if l == 0:
                # the first strict minimum over the level-0 witnesses
                found += lb < m
                _keep_smaller(c_out, w_out, (lb < m) & (val < BIG_CUT), val, mem[pick])
    # each level-0 witness after a cell's first costs one 4-linear comparison
    ledger.tick(4, int(np.maximum(found - 1, 0).sum()))
    return TargetProductResult(c_out, w_out)


# ---------------------------------------------------------------------------
# weighted graphs and zero triangles


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with integer edge weights of magnitude <= 2^40."""

    n: int
    edges: tuple

    def __post_init__(self):
        seen = set()
        for (u, v, w) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"vertex out of range in edge {(u, v)}")
            if not (abs(w) <= FINITE_LIMIT and float(w).is_integer()):
                raise ValueError(f"edge {(u, v)} weighs {float(w)!r}: weights must be integers "
                                 "of magnitude at most 2^40")
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


# each target-product variant and the rule that sets its strip width or
# sample base when given None; the trivial scan reads neither
TARGET_VARIANTS = {"trivial": None, "dt": default_strip_width,
                   "dominance": default_dominance_width, "sampled": default_sample_base}


def target_product(A, B, T, variant: str, group_size: Optional[int],
                   ledger: ComparisonLedger, rng: np.random.Generator) -> TargetProductResult:
    """The target product computed by one of :data:`TARGET_VARIANTS`."""
    if variant == "trivial":
        return target_min_plus_trivial(A, B, T)
    if variant == "dt":
        return target_min_plus_dt(A, B, T, group_size, ledger)
    if variant == "dominance":
        return target_min_plus_dominance(A, B, T, group_size)
    if variant == "sampled":
        return target_min_plus_sampled(A, B, T, group_size, rng, ledger)
    raise ValueError(f"unknown variant {variant!r}")


def zero_triangle_dense(graph: WeightedGraph, variant: str = "trivial",
                        group_size: Optional[int] = None,
                        ledger: Optional[ComparisonLedger] = None,
                        seed: int = 0):
    """Zero-triangle via the target product: a triangle closes at (i, j)
    exactly when the product value meets the target there."""
    a, b, t = graph_matrices(graph)
    ledger = ledger if ledger is not None else ComparisonLedger()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    res = target_product(a, b, t, variant, group_size, ledger, rng)
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


def acyclic_orient(graph: WeightedGraph) -> Orientation:
    """Orient edges away from iteratively removed minimum-degree vertices
    (ties to the smallest vertex); the maximum outdegree stays below
    sqrt(2m)."""
    n = graph.n
    adj = [dict() for _ in range(n)]
    for (u, v, w) in graph.edges:
        adj[u][v] = float(w)
        adj[v][u] = float(w)
    # lazy heap: an entry is live while its degree is its vertex's current one
    heap = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    removed = [False] * n
    directed = []
    order = []
    max_out = 0
    while heap:
        deg, u = heapq.heappop(heap)
        if removed[u] or deg != len(adj[u]):
            continue
        removed[u] = True
        order.append(u)
        max_out = max(max_out, deg)
        for v, w in sorted(adj[u].items()):
            directed.append((u, v, w))
            del adj[v][u]
            heapq.heappush(heap, (len(adj[v]), v))
        adj[u].clear()
    if graph.m:
        assert max_out < math.sqrt(2 * graph.m)
    return Orientation(tuple(directed), tuple(order))


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
                         ledger: ComparisonLedger, seed: int = 0):
    """Type-directed search: orient, color, sort one difference list over
    same-colored out-neighbor pairs, then binary-search each (edge, color)
    type for the closing weight."""
    k_colors = color_count if color_count is not None else default_color_count(graph.m)
    if k_colors < 1:
        raise ValueError("need at least one color")
    orientation = acyclic_orient(graph)
    out = orientation.out_edges()

    expectation = sum(len(nbrs) * (len(nbrs) - 1) / 2 for nbrs in out.values()) / k_colors
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    colors = None
    for _ in range(MAX_COLOR_DRAWS):
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
    difference_ticks(sort_segments([(ws, vs, "both") for ws, vs in pairs], ledger), ledger)

    out_sets = {u: {x for (x, _) in nbrs} for u, nbrs in out.items()}
    for (u, v, w_uv) in sorted(orientation.directed):
        candidates = sorted(out_sets[u] & out_sets.get(v, set()))
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


def zero_triangle_core(graph: WeightedGraph, ledger: Optional[ComparisonLedger] = None):
    """Out-pair enumeration (Chiba and Nishizeki): orient the graph acyclically
    and test, per source vertex, each pair of its out-neighbors that an edge
    joins.  Every out-degree stays below sqrt(2m), so the tests number under
    m*sqrt(2m)/2."""
    ledger = ledger if ledger is not None else ComparisonLedger()
    wm = graph.weight_map()
    for u, nbrs in sorted(acyclic_orient(graph).out_edges().items()):
        for ai, (v, wv) in enumerate(nbrs):
            for x, wx in nbrs[ai + 1:]:
                wvx = wm.get((v, x))
                if wvx is not None:
                    ledger.tick(3)  # the sign of wv + wx + wvx
                    if wv + wx + wvx == 0.0:
                        return (u, v, x)
    return None


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
    arr = np.asarray(matrix, dtype=np.float64)
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
