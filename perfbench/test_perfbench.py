"""Self-tests of the benchmark on tiny sizes: python -m pytest perfbench"""

import json
import os

import pytest

import run
import tracing
from threebench import dominance, harness, threesum

Cell = run.Cell

TINY = [
    Cell("3sum", "dt-fast", 48), Cell("3sum", "quadratic", 48),
    Cell("3sum", "dt-fast", 64), Cell("3sum", "quadratic", 64),
    Cell("3sum", "dt", 96, "planted"), Cell("3sum", "quadratic", 96, "planted"),
    Cell("3sum", "subq-det", 24), Cell("3sum", "subq-rand", 24),
    Cell("conv", "blocked", 24), Cell("ldt", "kldt", 12),
    Cell("tmp", "dt", 6), Cell("tmp", "sampled", 6), Cell("tmp", "dominance", 6),
    Cell("zerotri", "dense-dt", 10), Cell("zerotri", "sparse-core", 10),
]

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    return tmp_path


def _rows(path):
    with open(path) as fh:
        return [line.rsplit(",", 1)[0] for line in fh]   # drop wall_ns


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_prints_with_its_unit(trace, section):
    result = run.run_workload(TINY, 5, 0, trace, "tiny")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TINY) * run.MIN_PASSES
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_and_untraced_runs_count_identical_ticks(scratch_out):
    run.run_workload(TINY, 7, 0, False, "tiny")
    traced = run.run_workload(TINY, 7, 0, True, "tiny")["metrics"]
    plain = _rows(scratch_out / "tiny-seed7-trace0.csv")
    assert plain[0] == harness.CSV_HEADER.rsplit(",", 1)[0]
    assert plain == _rows(scratch_out / "tiny-seed7-trace1.csv")
    assert len(plain) == len(TINY) + 1
    # match_boxes captures report_dominating_pairs as a default argument
    assert traced["dominance.report_dominating_pairs.calls"]["value"] > 0
    assert traced["threesum.catalog.hit_ratio"]["value"] == 1.0
    assert traced["fit.dt.slope"]["value"] > 0


@pytest.mark.parametrize("how", ["wrong", "raise"])
def test_a_wrong_or_failing_solve_counts_as_failed(monkeypatch, how):
    real = harness.run_solver

    def broken(problem, algo, instance, options, ledger, seed):
        if (problem, algo) != ("3sum", "dt"):
            return real(problem, algo, instance, options, ledger, seed)
        if how == "raise":
            raise RuntimeError("injected")
        found, payload, params = real(problem, algo, instance, options, ledger, seed)
        return not found, None, params

    monkeypatch.setattr(harness, "run_solver", broken)
    result = run.run_workload(TINY, 5, 0, False)
    assert not result["correct"]
    # the planted dt cell fails; on a disagreement its quadratic twin fails too
    assert result["failed"] >= run.MIN_PASSES
    assert result["failed"] / result["attempted"] > 0


def test_tracer_uninstall_restores_every_binding():
    originals = {m: dict(vars(m)) for m in tracing.MODULES}
    defaults = threesum.match_boxes.__defaults__
    tracer = tracing.Tracer()
    tracer.install()
    assert threesum.mergesort_tick_count is not originals[threesum]["mergesort_tick_count"]
    assert threesum.match_boxes.__wrapped__.__defaults__[0] is dominance.report_dominating_pairs
    tracer.uninstall()
    for module, names in originals.items():
        for name, value in names.items():
            assert getattr(module, name) is value
    assert threesum.match_boxes.__defaults__ == defaults
