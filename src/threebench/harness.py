"""Benchmark harness: seeded instance generators, a solver registry, oracle
cross-checking, CSV emission, and scaling-exponent fits.

Every run is reproducible from (problem, algo, n, seed, parameters); CSV
output is byte-identical across runs except for the wall-time column.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import conv3sum as conv_mod
from . import ldt as ldt_mod
from . import threesum as ts
from . import trimatrix as tm
from .core import ComparisonLedger

PROBLEMS = ("3sum", "ldt", "tmp", "zerotri", "conv")
GENERATORS = ("uniform", "planted", "duplicate-heavy", "integer-universe")

PARAMS = ("g", "s", "p", "q", "K")
CSV_HEADER = f"problem,algo,n,seed,{','.join(PARAMS)},found,ticks3,ticks4,ticksK,wall_ns"

DEFAULT_ORACLE_CAPS = {"3sum": 128, "conv": 128, "ldt": 64, "zerotri": 64, "tmp": 32}
# per problem whose planted instances hold a witness whatever the options, the
# smallest n at which the generator plants one
PLANTED_FROM = {"3sum": 1, "conv": 1, "zerotri": 3}


class OracleMismatch(AssertionError):
    """A solver's decision disagreed with the brute-force oracle."""


@dataclass
class ExperimentConfig:
    problem: str
    algos: tuple
    sizes: tuple
    trials: int = 1
    seed: int = 0
    generator: str = "uniform"
    csv_path: Optional[str] = None
    oracle_cap: Optional[int] = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.sizes or any(s <= 0 for s in self.sizes):
            raise ValueError("sizes must be positive")
        if any(a >= b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("sizes must be strictly ascending")
        for algo in self.algos:
            _runner(self.problem, algo)


@dataclass
class RunRecord:
    problem: str
    algo: str
    n: int
    seed: int
    found: bool
    ticks3: int
    ticks4: int
    ticks_other: int
    wall_ns: int
    params: dict = field(default_factory=dict)

    @property
    def total_ticks(self) -> int:
        return self.ticks3 + self.ticks4 + self.ticks_other

    def csv_row(self) -> str:
        cells = [self.problem, self.algo, str(self.n), str(self.seed)]
        for key in PARAMS:
            v = self.params.get(key)
            cells.append("" if v is None else str(v))
        cells.extend(["1" if self.found else "0", str(self.ticks3),
                      str(self.ticks4), str(self.ticks_other), str(self.wall_ns)])
        return ",".join(cells)


# ---------------------------------------------------------------------------
# instance generation


def _rng(*entropy) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _int_values(rng, n, universe) -> np.ndarray:
    u = int(max(1, min(universe, 1e15)))
    return rng.integers(-u, u + 1, size=n).astype(np.float64)


def _vector_instance(n, mode, rng, planted_conv=False) -> np.ndarray:
    if n == 0:
        return np.zeros(0)
    if mode == "duplicate-heavy":
        return _int_values(rng, n, max(1, n // 2))
    if mode == "integer-universe":
        return _int_values(rng, n, max(8, n) ** 3)
    values = _int_values(rng, n, 50 * max(8, n) ** 3)
    if mode == "planted":
        if planted_conv:
            if n <= 2:
                values[0] = 0.0
            else:
                i = int(rng.integers(1, n - 1))
                j = int(rng.integers(1, n - i))
                values[i + j] = values[i] + values[j]
        else:
            if n == 1:
                values[0] = 0.0
            elif n == 2:
                x = float(values[0])
                values[1] = -2.0 * x
            else:
                pos = rng.choice(n, size=3, replace=False)
                x = float(rng.integers(-10 ** 9, 10 ** 9))
                y = float(rng.integers(-10 ** 9, 10 ** 9))
                values[pos[0]], values[pos[1]], values[pos[2]] = x, y, -x - y
    return values


def _graph_instance(n, mode, rng) -> tm.WeightedGraph:
    if n < 2:
        return tm.WeightedGraph(n, ())
    max_m = n * (n - 1) // 2
    m = min(max_m, max(1, 3 * n))
    picks = rng.choice(max_m, size=m, replace=False)
    pairs = []
    for t in np.sort(picks):
        # unrank the t-th pair (u < v)
        u = int((2 * n - 1 - math.sqrt((2 * n - 1) ** 2 - 8 * t)) // 2)
        v = int(t - u * (2 * n - u - 1) // 2 + u + 1)
        pairs.append((u, v))
    universe = max(1, m) if mode == "duplicate-heavy" else 10 ** 9
    weights = _int_values(rng, len(pairs), universe)
    edges = {p: float(w) for p, w in zip(pairs, weights)}
    if mode == "planted" and n >= 3:
        verts = sorted(int(v) for v in rng.choice(n, size=3, replace=False))
        a, b, c = verts
        w1 = float(rng.integers(-10 ** 6, 10 ** 6))
        w2 = float(rng.integers(-10 ** 6, 10 ** 6))
        edges[(a, b)] = w1
        edges[(a, c)] = w2
        edges[(b, c)] = -w1 - w2
    return tm.WeightedGraph(n, tuple((u, v, w) for (u, v), w in sorted(edges.items())))


def _tmp_instance(n, mode, rng):
    universe = max(1, n) if mode == "duplicate-heavy" else 10 ** 9
    a = _int_values(rng, n * n, universe).reshape(n, n)
    b = _int_values(rng, n * n, universe).reshape(n, n)
    a[rng.random((n, n)) < 0.1] = tm.INF
    b[rng.random((n, n)) < 0.1] = tm.INF
    t = _int_values(rng, n * n, 2 * universe).reshape(n, n)
    r = rng.random((n, n))
    t[r < 0.05] = tm.INF
    t[r > 0.95] = -tm.INF
    if mode == "planted":
        ks = rng.integers(0, n, size=(n, n))
        plantmask = rng.random((n, n)) < 0.3
        for i in range(n):
            for j in range(n):
                if plantmask[i, j]:
                    s = a[i, ks[i, j]] + b[ks[i, j], j]
                    if np.isfinite(s):
                        t[i, j] = s
    return a, b, t


def generate(problem: str, n: int, mode: str, seed: int):
    """Deterministic instance for (problem, n, mode, seed)."""
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    if mode not in GENERATORS:
        raise ValueError(f"unknown generator {mode!r}")
    rng = _rng(seed, PROBLEMS.index(problem), GENERATORS.index(mode), n)
    if problem in ("3sum", "ldt"):
        return _vector_instance(n, mode, rng)
    if problem == "conv":
        return _vector_instance(n, mode, rng, planted_conv=True)
    if problem == "zerotri":
        return _graph_instance(n, mode, rng)
    return _tmp_instance(n, mode, rng)


# ---------------------------------------------------------------------------
# solvers: (problem, algo) -> runner(instance, options, ledger, seed), which
# returns (found, payload, params).  A runner looks its solver up in the
# solver's module when it runs, so a span that rebinds the module attribute
# sees the call.  `params` holds every parameter the solver reads, the seed
# included when the solver draws from it; one left out of `options` is
# resolved by the rule the solver's module applies to None.


def _default_form(options) -> ldt_mod.LinearForm:
    k, alphas = options.get("k"), options.get("alphas")
    if alphas is None:
        alphas = (0.0,) + (1.0,) * (3 if k is None else k)
    elif k is not None and len(alphas) != k + 1:
        raise ValueError(f"arity k = {k} conflicts with {len(alphas)} coefficients a0..ak")
    return ldt_mod.LinearForm(tuple(float(a) for a in alphas))


def _given(options, key, rule, *size):
    value = options.get(key)
    return rule(*size) if value is None else value


def _witness(w, **params):
    return w is not None, w, params


def _quadratic(values, options, ledger, seed):
    return _witness(ts.solve_quadratic(values, values, values, ledger))


def _decision_tree(mode):
    def run(values, options, ledger, seed):
        g = _given(options, "g", ts.default_group_size, len(values))
        return _witness(ts.solve_decision_tree(values, g, ledger, mode=mode), g=g)
    return run


def _subquadratic_simple(values, options, ledger, seed):
    g = _given(options, "g", ts.default_simple_group_size, len(values))
    return _witness(ts.solve_subquadratic_simple(values, g, ledger), g=g)


def _subquadratic(mode):
    def run(values, options, ledger, seed):
        p = ts.resolve_subquadratic_params(len(values), ts.SubquadraticParams(
            options.get("g"), options.get("s"), mode, seed, options.get("p"), options.get("q")))
        extra = {"q": p.grid_side} if mode == "deterministic" \
            else {"p": p.point_count, "seed": seed}
        return _witness(ts.solve_subquadratic(values, p, ledger),
                        g=p.group_size, s=p.span, **extra)
    return run


def _conv_blocked(values, options, ledger, seed):
    g = _given(options, "g", conv_mod.default_block_size, len(values))
    return _witness(conv_mod.solve_conv_blocked(values, g, ledger), g=g)


def _conv_naive(values, options, ledger, seed):
    return _witness(conv_mod.solve_conv_naive(values, ledger))


def _kldt(values, options, ledger, seed):
    phi = _default_form(options)
    g = _given(options, "g", ldt_mod.default_kldt_group_size, len(values))
    return ldt_mod.solve_kldt(phi, values, g, ledger), None, {"g": g}


def _variant_params(variant, options, size, seed):
    """What a target-product variant reads: the width its rule sets, and the
    seed when the variant samples."""
    rule = tm.TARGET_VARIANTS[variant]
    params = {} if rule is None else {"g": _given(options, "g", rule, size)}
    return {**params, "seed": seed} if variant == "sampled" else params


def _dense(variant):
    def run(graph, options, ledger, seed):
        params = _variant_params(variant, options, graph.n, seed)
        w = tm.zero_triangle_dense(graph, variant, params.get("g"), ledger, seed)
        return _witness(w, **params)
    return run


def _sparse(graph, options, ledger, seed):
    k = _given(options, "K", tm.default_color_count, graph.m)
    return _witness(tm.zero_triangle_sparse(graph, k, ledger, seed), K=k, seed=seed)


def _sparse_core(graph, options, ledger, seed):
    return _witness(tm.zero_triangle_core(graph, ledger))


def _target(variant):
    def run(instance, options, ledger, seed):
        params = _variant_params(variant, options, instance[0].shape[1], seed)
        res = tm.target_product(*instance, variant, params.get("g"), ledger, _rng(seed, 99))
        return bool(np.isfinite(res.values).any()), res, params
    return run


SOLVERS = {
    ("3sum", "quadratic"): _quadratic,
    ("3sum", "dt"): _decision_tree("fast"),
    ("3sum", "dt-reference"): _decision_tree("reference"),
    ("3sum", "dt-fast"): _decision_tree("fast"),
    ("3sum", "subq-simple"): _subquadratic_simple,
    ("3sum", "subq-det"): _subquadratic("deterministic"),
    ("3sum", "subq-rand"): _subquadratic("randomized"),
    ("conv", "naive"): _conv_naive,
    ("conv", "blocked"): _conv_blocked,
    ("ldt", "kldt"): _kldt,
    **{("zerotri", "dense-" + v): _dense(v) for v in tm.TARGET_VARIANTS},
    ("zerotri", "sparse"): _sparse,
    ("zerotri", "sparse-core"): _sparse_core,
    **{("tmp", v): _target(v) for v in tm.TARGET_VARIANTS},
}


def _runner(problem, algo):
    runner = SOLVERS.get((problem, algo))
    if runner is None:
        raise ValueError(f"unknown {problem} algo {algo!r}")
    return runner


def run_solver(problem, algo, instance, options, ledger, seed):
    """Run one solver; returns (found, payload, params), params being the
    parameters the solver read, with their resolved values."""
    return _runner(problem, algo)(instance, options, ledger, seed)


# ---------------------------------------------------------------------------
# oracle cross-checks


def _instance_size(problem, instance) -> int:
    if problem == "zerotri":
        return instance.n
    if problem == "tmp":
        return max(instance[0].shape + instance[1].shape)
    return len(instance)


def _triple_holds(values, triple) -> bool:
    a, b, c = triple
    return a + b == -c and set(triple) <= set(np.asarray(values, dtype=np.float64).tolist())


def _conv_pair_holds(values, pair) -> bool:
    i, j = pair
    a = np.asarray(values, dtype=np.float64)
    return 0 <= min(i, j) and i + j < len(a) and a[i] + a[j] == a[i + j]


def _zero_triangle_holds(graph, triangle) -> bool:
    u, v, x = triangle
    wm = graph.weight_map()
    w = [wm.get(edge) for edge in ((u, v), (u, x), (v, x))]
    return None not in w and sum(w) == 0.0


_WITNESS_CHECKS = {"3sum": _triple_holds, "conv": _conv_pair_holds,
                  "zerotri": _zero_triangle_holds}


def check_witness(problem, instance, found, payload) -> None:
    """Abort unless a solver returned a witness exactly when it said found,
    and the witness holds: a 3SUM triple drawn from the input with
    a + b == -c, a conv pair (i, j) with A[i] + A[j] == A[i + j], or a
    triangle whose three edges exist and whose weights sum to zero.  Needs
    no oracle, so it runs at every n."""
    holds = _WITNESS_CHECKS.get(problem)
    if holds is None:
        return
    if payload is None and not found:
        return
    if payload is None or not found or not holds(instance, payload):
        raise OracleMismatch(f"{problem}: solver said {bool(found)} with witness {payload}")


def cross_check(problem, instance, found, payload, options) -> None:
    """Abort with a diagnostic when the solver's decision disagrees with
    the matching brute-force oracle."""
    if problem == "3sum":
        expect = ts.oracle_3sum(instance) is not None
    elif problem == "conv":
        expect = conv_mod.oracle_conv3sum(instance) is not None
    elif problem == "ldt":
        phi = _default_form(options)
        if len(instance) ** phi.arity > ldt_mod.ORACLE_CAP:
            return  # full scan infeasible at this size
        expect = ldt_mod.oracle_kldt(phi, instance)
    elif problem == "zerotri":
        expect = tm.oracle_zero_triangle(instance) is not None
    else:
        a, b, t = instance
        ref = tm.target_min_plus_trivial(a, b, t)
        same = np.array_equal(ref.values, payload.values) \
            and np.array_equal(ref.witnesses, payload.witnesses)
        if not same:
            raise OracleMismatch("tmp: result differs from the trivial scan")
        return
    if bool(found) != bool(expect):
        raise OracleMismatch(
            f"{problem}: solver said {bool(found)}, oracle said {bool(expect)}")


# ---------------------------------------------------------------------------
# experiments, CSV, fitting


def run_experiment(config: ExperimentConfig) -> list:
    """All (size, trial, algo) runs in deterministic order.

    Each 3SUM, conv and zero-triangle witness is checked, a planted one
    must be found, the algos run on one instance must agree on `found` (on
    the values and witnesses, for tmp), and each run under the oracle cap
    is cross-checked; a failure raises OracleMismatch.  Writes the CSV when
    the config names a path, which must be writable before the first run.
    """
    if config.csv_path:
        open(config.csv_path, "a").close()  # refuse an unwritable path now; keeps the contents
    cap = config.oracle_cap if config.oracle_cap is not None \
        else DEFAULT_ORACLE_CAPS[config.problem]
    records = []
    for n in config.sizes:
        for trial in range(config.trials):
            trial_seed = config.seed * 10007 + trial
            instance = generate(config.problem, n, config.generator, trial_seed)
            first = None  # the first algo's name and answer on this instance
            for algo in config.algos:
                ledger = ComparisonLedger()
                t0 = time.perf_counter_ns()
                found, payload, params = run_solver(
                    config.problem, algo, instance, config.options, ledger, trial_seed)
                wall = time.perf_counter_ns() - t0
                check_witness(config.problem, instance, found, payload)
                answer = (payload.values.tolist(), payload.witnesses.tolist()) \
                    if config.problem == "tmp" else bool(found)
                first = first or (algo, answer)
                if answer != first[1]:
                    raise OracleMismatch(f"{config.problem}: {algo} disagrees with {first[0]}")
                if config.generator == "planted" and not found \
                        and n >= PLANTED_FROM.get(config.problem, math.inf):
                    raise OracleMismatch(f"{config.problem}: {algo} missed the planted witness")
                if _instance_size(config.problem, instance) <= cap:
                    cross_check(config.problem, instance, found, payload, config.options)
                records.append(RunRecord(
                    config.problem, algo, n, trial_seed, bool(found),
                    ledger.count_3linear, ledger.count_4linear,
                    ledger.other_total(), wall, params))
    if config.csv_path:
        write_records(config.csv_path, records)
    return records


def write_records(path, records) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def read_records(path) -> list:
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError("unrecognized CSV header")
        width = header.count(",") + 1
        for lineno, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != width:
                raise ValueError(f"line {lineno}: {len(cells)} cells, the header has {width}")
            params = {}
            for key, cell in zip(PARAMS, cells[4:9]):
                if cell:
                    params[key] = int(cell)
            records.append(RunRecord(
                cells[0], cells[1], int(cells[2]), int(cells[3]),
                cells[9] == "1", int(cells[10]), int(cells[11]),
                int(cells[12]), int(cells[13]), params))
    return records


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    stderr: float
    ci_low: float
    ci_high: float
    sizes: tuple
    medians: tuple


def fit_exponent(records: Sequence[RunRecord]) -> dict:
    """Least-squares slope of log(ticks) against log(n) per (problem, algo),
    aggregating trials by the median tick count.

    Needs at least three distinct sizes per group; the interval is the
    normal-approximation 95% band of the slope.
    """
    groups: dict = {}
    for rec in records:
        groups.setdefault((rec.problem, rec.algo), {}).setdefault(rec.n, []).append(
            rec.total_ticks)
    out = {}
    for key, per_size in groups.items():
        sizes = sorted(per_size)
        if len(sizes) < 3:
            raise ValueError(f"{key}: need at least 3 distinct sizes to fit")
        medians = [float(np.median(per_size[n])) for n in sizes]
        x = np.log([float(n) for n in sizes])
        y = np.log([max(m, 1.0) for m in medians])
        if np.allclose(x, x[0]):
            raise ValueError(f"{key}: degenerate fit, all sizes equal")
        xm, ym = x.mean(), y.mean()
        sxx = float(((x - xm) ** 2).sum())
        slope = float(((x - xm) * (y - ym)).sum() / sxx)
        intercept = ym - slope * xm
        resid = y - (slope * x + intercept)
        dof = max(1, len(x) - 2)
        stderr = math.sqrt(float((resid ** 2).sum()) / dof / sxx)
        out[key] = FitResult(slope, float(intercept), stderr,
                             slope - 1.96 * stderr, slope + 1.96 * stderr,
                             tuple(sizes), tuple(medians))
    return out
