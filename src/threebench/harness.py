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
from .core import ComparisonLedger, as_reals

PROBLEMS = ("3sum", "ldt", "tmp", "zerotri", "conv")
GENERATORS = ("uniform", "planted", "duplicate-heavy", "integer-universe")

CSV_HEADER = "problem,algo,n,seed,g,s,p,q,K,found,ticks3,ticks4,ticksK,wall_ns"

DEFAULT_ORACLE_CAPS = {"3sum": 128, "conv": 128, "ldt": 64, "zerotri": 64, "tmp": 32}


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
        for key in ("g", "s", "p", "q", "K"):
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
# solver adapters: (instance, options, ledger, seed) -> (found, payload, params)


def _default_form(options) -> ldt_mod.LinearForm:
    k = int(options.get("k", 3))
    alphas = options.get("alphas")
    if alphas is None:
        alphas = (0.0,) + (1.0,) * k
    return ldt_mod.LinearForm(tuple(float(a) for a in alphas))


def _run_3sum(algo, values, options, ledger, seed):
    arr = list(values)
    n = len(arr)
    if algo == "quadratic":
        if n <= 400:
            wits = ts.solve_quadratic(arr, arr, arr, ledger)
            return bool(wits), (wits[0] if wits else None), {}
        found = ts.quadratic_tick_count(arr, arr, arr, ledger)
        return found, None, {}
    if algo in ("dt", "dt-reference", "dt-fast"):
        g = options.get("g") or ts.default_group_size(n)
        mode = "reference" if algo == "dt-reference" else "fast"
        w = ts.solve_decision_tree(arr, g, ledger, mode=mode)
        return w is not None, w, {"g": g}
    if algo == "subq-simple":
        g = options.get("g") or (1 if n < 4 else 2)
        w = ts.solve_subquadratic_simple(arr, g, ledger)
        return w is not None, w, {"g": g}
    if algo in ("subq-det", "subq-rand"):
        params = ts.SubquadraticParams(
            group_size=options.get("g"),
            span=options.get("s"),
            mode="deterministic" if algo == "subq-det" else "randomized",
            seed=seed,
            point_count=options.get("p"),
            grid_side=options.get("q"))
        w = ts.solve_subquadratic(arr, params, ledger)
        params = ts.resolve_subquadratic_params(n, params)
        used = {"g": params.group_size, "s": params.span}
        if algo == "subq-det":
            used["q"] = params.grid_side
        else:
            used["p"] = params.point_count
        return w is not None, w, used
    raise ValueError(f"unknown 3sum algo {algo!r}")


def _run_conv(algo, values, options, ledger, seed):
    arr = as_reals(values)
    n = len(arr)
    if algo == "blocked":
        g = options.get("g") or max(1, math.ceil(math.sqrt(max(1, n))))
        w = conv_mod.solve_conv_blocked(arr, g, ledger)
        return w is not None, w, {"g": g}
    if algo == "naive":
        found = None
        for i in range(n):
            for j in range(n - i):
                ledger.tick(3)
                if arr[i] + arr[j] == arr[i + j]:
                    found = (i, j)
                    break
            if found:
                break
        return found is not None, found, {}
    raise ValueError(f"unknown conv algo {algo!r}")


def _run_ldt(algo, values, options, ledger, seed):
    if algo != "kldt":
        raise ValueError(f"unknown ldt algo {algo!r}")
    phi = _default_form(options)
    arr = list(values)
    g = options.get("g")
    found = ldt_mod.solve_kldt(phi, arr, g, ledger)
    return found, None, {"g": g}


def _run_zerotri(algo, graph, options, ledger, seed):
    if algo.startswith("dense-"):
        variant = algo.split("-", 1)[1]
        w = tm.zero_triangle_dense(graph, variant, options.get("g"), ledger, seed)
        return w is not None, w, {"g": options.get("g")}
    if algo == "sparse":
        k = options.get("K") or tm.default_color_count(graph.m)
        w = tm.zero_triangle_sparse(graph, k, ledger, seed)
        return w is not None, w, {"K": k}
    if algo == "sparse-core":
        w = tm.zero_triangle_core(graph, options.get("K"), ledger=ledger, seed=seed)
        return w is not None, w, {"K": options.get("K")}
    raise ValueError(f"unknown zerotri algo {algo!r}")


def _run_tmp(algo, instance, options, ledger, seed):
    a, b, t = instance
    g = options.get("g")
    if algo == "trivial":
        res = tm.target_min_plus_trivial(a, b, t)
    elif algo == "dt":
        res = tm.target_min_plus_dt(a, b, t, g, ledger)
    elif algo == "dominance":
        res = tm.target_min_plus_dominance(a, b, t, g)
    elif algo == "sampled":
        res = tm.target_min_plus_sampled(a, b, t, g, _rng(seed, 99), ledger)
    else:
        raise ValueError(f"unknown tmp algo {algo!r}")
    found = bool(np.isfinite(res.values.data).any())
    return found, res, {"g": g}


_RUNNERS = {"3sum": _run_3sum, "conv": _run_conv, "ldt": _run_ldt,
            "zerotri": _run_zerotri, "tmp": _run_tmp}


def run_solver(problem, algo, instance, options, ledger, seed):
    return _RUNNERS[problem](algo, instance, options, ledger, seed)


# ---------------------------------------------------------------------------
# oracle cross-checks


def _instance_size(problem, instance) -> int:
    if problem == "zerotri":
        return instance.n
    if problem == "tmp":
        return max(instance[0].shape + instance[1].shape)
    return len(instance)


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
        same = np.array_equal(ref.values.data, payload.values.data) \
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

    Each run under the oracle cap is cross-checked; a mismatch raises
    OracleMismatch.  Writes the CSV when the config names a path.
    """
    cap = config.oracle_cap if config.oracle_cap is not None \
        else DEFAULT_ORACLE_CAPS[config.problem]
    records = []
    for n in config.sizes:
        for trial in range(config.trials):
            trial_seed = config.seed * 10007 + trial
            instance = generate(config.problem, n, config.generator, trial_seed)
            for algo in config.algos:
                ledger = ComparisonLedger()
                t0 = time.perf_counter_ns()
                found, payload, params = run_solver(
                    config.problem, algo, instance, config.options, ledger, trial_seed)
                wall = time.perf_counter_ns() - t0
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
        for line in fh:
            cells = line.rstrip("\n").split(",")
            params = {}
            for key, cell in zip(("g", "s", "p", "q", "K"), cells[4:9]):
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
