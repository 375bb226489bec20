"""Golden ledger counts: every solver the harness accepts, on every
generator at two small sizes, must reproduce the committed rows exactly.

The rows are ``harness.CSV_HEADER`` rows without ``wall_ns``.  A change that
means to alter tick counts or decisions regenerates the file with

    PYTHONPATH=src python tests/test_golden_ticks.py

and says so; any other change must leave every row byte-identical.
"""

import os
import sys

import pytest

from threebench import harness
from threebench.core import ComparisonLedger

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_ticks.csv")
SEED = 3

ALGOS = {
    "3sum": ("quadratic", "dt", "dt-reference", "dt-fast", "subq-simple",
             "subq-det", "subq-rand"),
    "conv": ("blocked", "naive"),
    "ldt": ("kldt",),
    "zerotri": ("dense-trivial", "dense-dt", "dense-dominance", "dense-sampled",
                "sparse", "sparse-core"),
    "tmp": ("trivial", "dt", "dominance", "sampled"),
}
SIZES = {"3sum": (17, 48), "conv": (17, 40), "ldt": (7, 12), "zerotri": (9, 16),
         "tmp": (4, 7)}
# group size 3 is chosen from n = 512 on, and quadratic's walk is pinned at
# that size too; the dt rows on tie-heavy inputs pin probe counts on boxes
# whose sums repeat
LARGE = [("3sum", algo, 520, "uniform") for algo in ("subq-det", "subq-rand", "dt",
                                                      "quadratic")]
LARGE += [("3sum", "dt", 520, "duplicate-heavy"), ("3sum", "dt", 520, "planted")]
# the grid's matrix sizes build sample hierarchies of at most two levels;
# these sizes build three, so the chained hint walk of the sampled variant
# and the multi-strip merge of the dominance variant are pinned too
LARGE += [("tmp", algo, 48, "uniform") for algo in ("sampled", "dominance")]
LARGE += [("zerotri", algo, 72, "uniform") for algo in ("dense-sampled", "dense-dominance")]
# the benchmark's sizes: the grid's cut conv into at most 6 blocks and kldt
# into 2 groups a side
LARGE += [(problem, algo, n, generator)
          for problem, algo, n in (("conv", "blocked", 384), ("ldt", "kldt", 192))
          for generator in ("uniform", "duplicate-heavy")]


def grid():
    for problem, algos in ALGOS.items():
        for generator in harness.GENERATORS:
            for n in SIZES[problem]:
                for algo in algos:
                    yield problem, algo, n, generator
    yield from LARGE


def rows():
    header = harness.CSV_HEADER.rsplit(",", 1)[0]
    out = [header]
    for problem, algo, n, generator in grid():
        instance = harness.generate(problem, n, generator, SEED)
        ledger = ComparisonLedger()
        found, _, params = harness.run_solver(problem, algo, instance, {}, ledger, SEED)
        record = harness.RunRecord(problem, algo, n, SEED, bool(found),
                                   ledger.count_3linear, ledger.count_4linear,
                                   ledger.other_total(), 0, params)
        out.append(record.csv_row().rsplit(",", 1)[0])
    return out


def test_golden_ticks_are_unchanged():
    with open(GOLDEN) as fh:
        golden = fh.read().splitlines()
    assert golden[0] == harness.CSV_HEADER.rsplit(",", 1)[0]
    got = rows()
    assert len(got) == len(golden)
    for cell, want, have in zip(grid(), golden[1:], got[1:]):
        assert have == want, cell


def test_the_grid_covers_every_solver():
    assert {(p, a) for p, algos in ALGOS.items() for a in algos} == set(harness.SOLVERS)


# the parameters each solver reads; every other solver reads g alone
READS = {("3sum", "quadratic"): (), ("3sum", "subq-det"): ("g", "s", "q"),
         ("3sum", "subq-rand"): ("g", "s", "p", "seed"), ("conv", "naive"): (),
         ("zerotri", "dense-trivial"): (), ("zerotri", "dense-sampled"): ("g", "seed"),
         ("zerotri", "sparse"): ("K", "seed"), ("zerotri", "sparse-core"): ("K",),
         ("tmp", "trivial"): (), ("tmp", "sampled"): ("g", "seed")}


def _run(problem, algo, instance, options):
    ledger = ComparisonLedger()
    found, _, params = harness.run_solver(problem, algo, instance, options, ledger, SEED)
    return found, ledger.count_klinear, params


@pytest.mark.parametrize("problem,algo", sorted(harness.SOLVERS))
def test_reported_params_are_the_ones_that_ran(problem, algo):
    instance = harness.generate(problem, SIZES[problem][0], "uniform", SEED)
    first = _run(problem, algo, instance, {})
    params = first[2]
    assert sorted(params) == sorted(READS.get((problem, algo), ("g",)))
    assert all(type(v) is int for v in params.values()), params
    assert _run(problem, algo, instance, params) == first


if __name__ == "__main__":
    with open(GOLDEN, "w", newline="\n") as fh:
        fh.write("\n".join(rows()) + "\n")
    sys.exit(0)
