"""threebench benchmark: a closed-loop, single-thread runner over fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sum3_scale --seed 1 --seconds 24 --trace 0

One caller runs one solve after another through ``harness.run_solver``, each
only after the previous one returned.  A *pass* solves every cell of the
workload once and checks every decision.  Passes repeat until ``--seconds``
would be exceeded, with at least three.  Instances come from ``--seed``.
Times are calibrated against a fixed loop (see ``Stopwatch``) and taken from
each cell's fastest pass; README.md explains why.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the public
functions of each module (see ``tracing.py``), alternates traced and
untraced passes, and prints per-layer metrics taken from the traced passes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-cell rows in
``harness.CSV_HEADER`` form go to ``perfbench/out/``, and in trace mode the
spans too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

sys.path.insert(0, SRC)
try:
    import numpy as np
    import threebench
    from threebench import harness
    from threebench import threesum as ts
    from threebench.core import ComparisonLedger
except ImportError as exc:
    sys.exit(f"perfbench: cannot import threebench from {SRC}: {exc}")
if not os.path.abspath(threebench.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: threebench was imported from outside {SRC}")

import tracing  # noqa: E402  (needs threebench on the path)

MIN_PASSES = 3
SETUP_REPS = 5
NOMINAL_UNIT_S = 0.007   # one calibration unit on an idle core of a 2-core x86 VM


@dataclass(frozen=True)
class Cell:
    problem: str
    algo: str
    n: int
    generator: str = "uniform"
    trial: int = 0

    @property
    def instance_key(self) -> tuple:
        return (self.problem, self.n, self.generator, self.trial)

    @property
    def id(self) -> str:
        return f"{self.problem}/{self.algo}/{self.n}/{self.generator}/{self.trial}"

    def seed(self, run_seed: int) -> int:
        """Seed of this cell's instance and solver, as harness.run_experiment derives it."""
        return run_seed * 10007 + self.trial


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "sum3_scale": [Cell("3sum", algo, n)
                   for n in (1024, 2048, 4096, 6144) for algo in ("dt", "quadratic")],
    # two instances per size and generator: where a planted witness sits
    # decides when quadratic stops, and one instance made that vary by 10 %
    "sum3_ties": [Cell("3sum", algo, n, gen, trial)
                  for n in (1536, 3072) for gen in ("duplicate-heavy", "planted")
                  for trial in (0, 1) for algo in ("dt", "quadratic")],
    "reductions": [Cell("conv", "blocked", 384), Cell("ldt", "kldt", 192),
                   Cell("3sum", "dt-reference", 256), Cell("3sum", "subq-det", 512),
                   Cell("3sum", "subq-rand", 512)],
    # two instances per problem: the sampled variants draw from the seed
    "matrix_products": [Cell("tmp", algo, 48, trial=trial)
                        for trial in (0, 1) for algo in ("dt", "sampled", "dominance")]
    + [Cell("zerotri", algo, 72, trial=trial) for trial in (0, 1) for algo in
       ("dense-dt", "dense-sampled", "dense-dominance", "sparse", "sparse-core")],
}

END_TO_END_UNITS = {
    "setup_s": "s", "pass_s": "s", "solve_s": "s",
    "ticks3": "count", "ticks4": "count", "ticks": "count", "peak_rss_mb": "MB",
}

# (traced function, metrics taken from its spans)
SPAN_METRICS = (
    ("core.mergesort_tick_count", ("calls", "s", "ticks")),
    ("core.merge_sort_counted", ("calls", "s")),
    ("core.sort_differences", ("calls", "s", "ticks")),
    ("core.sorted_counted", ("calls", "s", "ticks")),
    ("threesum.quadratic_tick_count", ("calls", "s")),
    ("threesum.solve_decision_tree", ("s",)),
    ("threesum.ternary_search", ("calls", "s")),
    ("threesum.match_boxes", ("calls", "s")),
    ("threesum.solve_subquadratic", ("s",)),
    ("threesum.enumerate_legal_pairs", ("calls", "s")),
    ("dominance.report_dominating_pairs", ("calls", "s", "pairs")),
    ("trimatrix.target_min_plus_dt", ("s", "ticks")),
    ("trimatrix.target_min_plus_sampled", ("s", "ticks")),
    ("trimatrix.target_min_plus_dominance", ("s",)),
    ("trimatrix.build_sample_hierarchy", ("s",)),
    ("trimatrix.zero_triangle_dense", ("s",)),
    ("trimatrix.zero_triangle_sparse", ("s",)),
    ("ldt.reduce_kldt", ("s",)),
    ("ldt.solve_kldt", ("s", "ticks")),
    ("conv3sum.solve_conv_blocked", ("s", "ticks")),
    ("harness.run_solver", ("s",)),
)
KIND_UNITS = {"calls": "count", "s": "s", "ticks": "count", "pairs": "count"}
DT_PHASES = ("sort_input", "diff_sort", "walk")


def per_layer_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {f"{name}.{kind}": KIND_UNITS[kind]
             for name, kinds in SPAN_METRICS for kind in kinds}
    units.update({
        "dominance.report_dominating_pairs.yield": "ratio",
        "threesum.catalog.hit_ratio": "ratio",
        "harness.generate.s": "s",
        "harness.check_s": "s",
        "ledger.ticksK": "count",
        "fit.dt.slope": "exponent",
        "fit.quadratic.slope": "exponent",
        **{f"fit.dt.{phase}.slope": "exponent" for phase in DT_PHASES},
        "phase.dt.diff_sort.share": "ratio",
        "trace.pass_s": "s",
        "trace.overhead_s": "s",
    })
    return units


# ---------------------------------------------------------------------------
# calibrated time


def calibration_unit() -> None:
    """Fixed work mixing interpreter dict and tuple operations with a NumPy sort."""
    table = {}
    acc = 0
    for i in range(20000):
        key = (i, i & 7)
        table[key] = acc
        acc += (i * 31) % 17 if key < (i, 4) else 1
    np.sort(np.arange(20000, 0, -1, dtype=np.float64))


class Stopwatch:
    """Wall time rescaled to the machine's speed when it was measured.

    On shared cores the speed of one core drifts by up to 2.5x over seconds
    to minutes, longer than a run, so raw wall medians differ between runs
    by far more than any useful bound.  Each lap is bracketed by the median
    time of three calibration units, and its wall time is multiplied by
    NOMINAL_UNIT_S over the mean of the two brackets: the seconds it would
    take at the speed at which one unit takes NOMINAL_UNIT_S.
    """

    def __init__(self):
        self._unit_s = self._probe()

    @staticmethod
    def _probe() -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            calibration_unit()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def lap(self, *wall_s: float) -> list:
        """Calibrate wall durations measured since the previous lap."""
        unit_s = self._probe()
        scale = NOMINAL_UNIT_S / ((self._unit_s + unit_s) / 2)
        self._unit_s = unit_s
        return [w * scale for w in wall_s]


# ---------------------------------------------------------------------------
# set-up


def import_seconds() -> float:
    """Wall time of ``import threebench`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import threebench; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    return float(done.stdout)


def clear_caches() -> None:
    ts._catalog_cache.clear()
    ts._binsearch_depths.cache_clear()
    ts._all_contours.cache_clear()


def fill_caches(cells, seed: int) -> None:
    """Fill the per-process caches the first timed pass would otherwise fill.

    Mirrors how the solvers pick their cache keys; a solver that stops
    matching shows as a catalog hit ratio below 1 in the traced run.
    """
    for cell in cells:
        if cell.problem != "3sum":
            continue
        n = cell.n
        if cell.algo == "dt-fast" or (cell.algo == "dt" and n > ts._REFERENCE_LIMIT):
            g = ts.default_group_size(n)
            last = n - (-(-n // g) - 1) * g
            for length in {g * g, g * last, last * last}:
                ts._binsearch_depths(length)
        elif cell.algo in ("subq-det", "subq-rand"):
            g = 2 if n < 512 else 3
            if cell.algo == "subq-det":
                q = ts._fit_grid_side(g, None)
                point_set, span = ts.deterministic_point_set(g, q), ts.grid_span(g, q)
            else:
                span = g
                rng = np.random.Generator(
                    np.random.PCG64(np.random.SeedSequence(cell.seed(seed))))
                point_set = ts.random_point_set(g, ts.default_point_count(g, span), rng)
            ts.cached_catalog(g, point_set, span)


def set_up(cells, seed: int, stopwatch=None):
    """Generate every instance and fill the caches, SETUP_REPS times from
    cold caches; returns the instances and the calibrated seconds of each
    repetition (empty without a stopwatch)."""
    times = []
    for _ in range(SETUP_REPS):
        clear_caches()
        t0 = time.perf_counter()
        instances = {}
        for cell in cells:
            if cell.instance_key not in instances:
                instances[cell.instance_key] = harness.generate(
                    cell.problem, cell.n, cell.generator, cell.seed(seed))
        fill_caches(cells, seed)
        if stopwatch is not None:
            times += stopwatch.lap(time.perf_counter() - t0)
    return instances, times


# ---------------------------------------------------------------------------
# checks


def witness_ok(values, witness) -> bool:
    """A reported 3SUM witness must be three input values summing to zero."""
    present = set(np.asarray(values).tolist())
    return sum(witness) == 0.0 and all(float(v) in present for v in witness)


def check_cell(cell: Cell, instance, found, payload) -> bool:
    """Checks that need only this solve; 3SUM decisions are checked per
    instance by :func:`decisions_agree`."""
    if cell.problem == "3sum":
        return payload is None or witness_ok(instance, payload)
    try:
        harness.cross_check(cell.problem, instance, found, payload, {})
    except harness.OracleMismatch:
        return False
    return True


def decisions_agree(instance, generator: str, decisions: dict) -> bool:
    """All 3SUM decisions on one instance must agree, with an independent
    quadratic decision when no quadratic cell ran, and with True on a
    planted instance."""
    answers = set(decisions.values())
    if "quadratic" not in decisions:
        answers.add(ts.quadratic_tick_count(instance, instance, instance,
                                            ComparisonLedger()))
    if generator == "planted":
        answers.add(True)
    return len(answers) == 1


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    cell_s: dict        # cell id -> calibrated (solve, check) seconds
    decisions_s: float  # calibrated seconds of the per-instance 3SUM decision check
    wall_s: float       # raw wall seconds of the whole pass
    traced: bool
    failed: set
    rows: dict          # cell id -> harness.RunRecord (raw wall_ns)
    spans: tuple        # (lo, hi) into tracer.spans

    @property
    def solve_s(self) -> float:
        return sum(solve for solve, _ in self.cell_s.values())

    @property
    def check_s(self) -> float:
        return sum(check for _, check in self.cell_s.values()) + self.decisions_s

    @property
    def pass_s(self) -> float:
        return self.solve_s + self.check_s


def run_pass(cells, instances, seed: int, tracer=None, traced=False) -> Pass:
    failed = set()
    rows = {}
    decisions = defaultdict(dict)
    cell_s = {}
    lo = len(tracer.spans) if tracer is not None else 0
    t_pass = time.perf_counter()
    stopwatch = Stopwatch()
    for cell in cells:
        instance = instances[cell.instance_key]
        ledger = ComparisonLedger()
        found, payload, params, error = False, None, {}, None
        if tracer is not None:
            tracer.cell, tracer.active = cell.id, traced
        t0 = time.perf_counter_ns()
        try:
            found, payload, params = harness.run_solver(
                cell.problem, cell.algo, instance, {}, ledger, cell.seed(seed))
        except Exception:  # a failed solve is counted, and the run goes on
            error = traceback.format_exc()
        finally:
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.active = False
        if error is not None:
            print(f"# {cell.id} raised:\n{error}", file=sys.stderr)
            failed.add(cell.id)
        else:
            if not check_cell(cell, instance, found, payload):
                print(f"# {cell.id}: wrong output", file=sys.stderr)
                failed.add(cell.id)
            if cell.problem == "3sum":
                decisions[cell.instance_key][cell.id] = bool(found)
        rows[cell.id] = harness.RunRecord(
            cell.problem, cell.algo, cell.n, cell.seed(seed), bool(found),
            ledger.count_3linear, ledger.count_4linear, ledger.other_total(), t1 - t0, params)
        cell_s[cell.id] = stopwatch.lap((t1 - t0) / 1e9, (time.perf_counter_ns() - t1) / 1e9)
    t2 = time.perf_counter()
    for key, by_cell in decisions.items():
        algos = {cid.split("/")[1]: found for cid, found in by_cell.items()}
        if not decisions_agree(instances[key], key[2], algos):
            print(f"# 3sum {key}: decisions disagree {by_cell}", file=sys.stderr)
            failed.update(by_cell)
    decisions_s = stopwatch.lap(time.perf_counter() - t2)[0]
    hi = len(tracer.spans) if tracer is not None else 0
    return Pass(cell_s, decisions_s, time.perf_counter() - t_pass, traced, failed, rows,
                (lo, hi))


def exact(record) -> tuple:
    return (record.found, record.ticks3, record.ticks4, record.ticks_other)


def run_passes(cells, instances, seed: int, seconds: float, tracer=None) -> list:
    """At least MIN_PASSES passes; another only when it should end in time.
    With a tracer, passes alternate traced and untraced, traced first."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        p = run_pass(cells, instances, seed, tracer, tracer is not None and len(passes) % 2 == 0)
        if passes:
            first = passes[0].rows
            p.failed.update(cid for cid, rec in p.rows.items()
                            if exact(rec) != exact(first[cid]))
        passes.append(p)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + p.wall_s > seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics


def fastest(passes) -> tuple:
    """Solve and check seconds of a pass assembled from each cell's fastest
    calibrated times over `passes`.

    Other tenants on a shared core only ever slow a cell down, so the
    fastest of a run's passes is the steadiest estimate of its cost.
    """
    cells = passes[0].cell_s
    solve, check = (sum(min(p.cell_s[c][i] for p in passes) for c in cells) for i in (0, 1))
    return solve, check + min(p.decisions_s for p in passes)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes, setup_s: float) -> dict:
    rows = passes[0].rows.values()
    values = {
        "setup_s": setup_s,
        "pass_s": sum(fastest(passes)),
        "solve_s": fastest(passes)[0],
        "ticks3": sum(r.ticks3 for r in rows),
        "ticks4": sum(r.ticks4 for r in rows),
        "ticks": sum(r.total_ticks for r in rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def _slope(points) -> float:
    """Fitted exponent of (n, ticks) points; 0 with fewer than three sizes."""
    if len({n for n, _ in points}) < 3:
        return 0.0
    records = [harness.RunRecord("3sum", "fit", n, 0, False, ticks, 0, 0, 0)
               for n, ticks in points]
    return harness.fit_exponent(records)[("3sum", "fit")].slope


def dt_phases(spans, lo, hi, rows) -> dict:
    """Ticks of each decision-tree cell split into input sort, difference
    sort and walk, from the spans directly under solve_decision_tree."""
    phases = {}
    for i in range(lo, hi):
        s = spans[i]
        if s.name == "threesum.solve_decision_tree":
            phases[i] = {"cell": s.cell, "sort_input": 0, "diff_sort": 0}
    for i in range(lo, hi):
        s = spans[i]
        owner = phases.get(s.parent)
        if owner is None:
            continue
        if s.name == "core.sorted_counted" or (
                s.name == "core.mergesort_tick_count" and not s.extra):
            owner["sort_input"] += s.count
        elif s.name in ("core.sort_differences", "core.mergesort_tick_count"):
            owner["diff_sort"] += s.count
    out = {}
    for owner in phases.values():
        rec = rows[owner["cell"]]
        owner["walk"] = rec.total_ticks - owner["sort_input"] - owner["diff_sort"]
        out[owner["cell"]] = (rec.n, rec.total_ticks, owner)
    return out


def layer_metrics(tracer, p: Pass) -> dict:
    lo, hi = p.spans
    spans = tracer.spans
    acc = defaultdict(lambda: [0, 0, 0, 0])   # calls, self ns, count, extra
    for s, self_ns in zip(spans[lo:hi], tracing.self_times(spans, lo, hi)):
        a = acc[s.name]
        a[0] += 1
        a[1] += self_ns
        a[2] += s.count
        a[3] += s.extra
    values = {}
    for name, kinds in SPAN_METRICS:
        calls, self_ns, count, _ = acc[name]
        for kind in kinds:
            values[f"{name}.{kind}"] = {"calls": calls, "s": self_ns / 1e9,
                                        "ticks": count, "pairs": count}[kind]
    _, _, pairs, products = acc["dominance.report_dominating_pairs"]
    values["dominance.report_dominating_pairs.yield"] = pairs / products if products else 0.0
    lookups, _, _, hits = acc["threesum.cached_catalog"]
    values["threesum.catalog.hit_ratio"] = hits / lookups if lookups else 0.0
    values["harness.check_s"] = p.check_s
    values["ledger.ticksK"] = sum(r.ticks_other for r in p.rows.values())

    dt = dt_phases(spans, lo, hi, p.rows)
    values["fit.dt.slope"] = _slope([(n, total) for n, total, _ in dt.values()])
    for phase in DT_PHASES:
        values[f"fit.dt.{phase}.slope"] = _slope([(n, ph[phase]) for n, _, ph in dt.values()])
    total = sum(t for _, t, _ in dt.values())
    values["phase.dt.diff_sort.share"] = \
        sum(ph["diff_sort"] for _, _, ph in dt.values()) / total if total else 0.0
    values["fit.quadratic.slope"] = _slope([(r.n, r.total_ticks) for r in p.rows.values()
                                            if r.algo == "quadratic"])
    return values


def per_layer(tracer, passes, setup_spans) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = [layer_metrics(tracer, p) for p in traced]
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    lo, hi = setup_spans
    selfs = tracing.self_times(tracer.spans, lo, hi)
    generate_ns = sum(t for s, t in zip(tracer.spans[lo:hi], selfs)
                      if s.name == "harness.generate")
    values["harness.generate.s"] = generate_ns / 1e9 / SETUP_REPS
    values["trace.pass_s"] = statistics.median(p.pass_s for p in traced)
    values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(
        p.pass_s for p in plain)
    return {name: _metric(int(values[name]) if unit == "count" else values[name], unit)
            for name, unit in per_layer_units().items()}


# ---------------------------------------------------------------------------
# entry point


def write_rows(path, passes) -> None:
    """One row per cell: exact counts (identical in every pass) and the
    median wall time over passes."""
    records = []
    for cid, rec in passes[0].rows.items():
        wall = int(statistics.median(p.rows[cid].wall_ns for p in passes))
        records.append(harness.RunRecord(rec.problem, rec.algo, rec.n, rec.seed, rec.found,
                                         rec.ticks3, rec.ticks4, rec.ticks_other, wall,
                                         rec.params))
    harness.write_records(path, records)


def run_workload(cells, seed: int, seconds: float, trace: bool, name: str = "") -> dict:
    """Set up, run the passes and return the result object."""
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        if trace:
            # set-up is timed by the untraced run; here only its spans count
            tracer.cell = "setup"
            lo = len(tracer.spans)
            tracer.active = True
            instances, _ = set_up(cells, seed)
            tracer.active = False
            setup_spans = (lo, len(tracer.spans))
            passes = run_passes(cells, instances, seed, seconds, tracer)
            metrics = per_layer(tracer, passes, setup_spans)
        else:
            stopwatch = Stopwatch()
            imports = [stopwatch.lap(import_seconds())[0] for _ in range(SETUP_REPS)]
            instances, fills = set_up(cells, seed, stopwatch)
            passes = run_passes(cells, instances, seed, seconds)
            print(f"# setup_s = import {statistics.median(imports):.4f} s "
                  f"+ generate and fill {statistics.median(fills):.4f} s")
            metrics = end_to_end(passes, statistics.median(imports) + statistics.median(fills))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if name:
        os.makedirs(OUT, exist_ok=True)
        write_rows(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.csv"), passes)
        if tracer is not None:
            tracer.write(os.path.join(OUT, f"{name}-spans.csv"))
    failed = sum(len(p.failed) for p in passes)
    attempted = len(cells) * len(passes)
    print(f"# {name or 'cells'} seed={seed} trace={int(trace)} passes={len(passes)} "
          f"attempted={attempted} failed={failed} failed_frac={failed / attempted:.6f} "
          f"solve_s={[round(p.solve_s, 3) for p in passes]} "
          f"raw wall_s={[round(p.wall_s, 3) for p in passes]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
