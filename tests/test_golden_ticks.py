"""Golden ledger counts: every solver the harness accepts, on every
generator at two small sizes, must reproduce the committed rows exactly.

The rows are ``harness.CSV_HEADER`` rows without ``wall_ns``.  A change that
means to alter tick counts or decisions regenerates the file with

    PYTHONPATH=src python tests/test_golden_ticks.py

and says so; any other change must leave every row byte-identical.
"""

import os
import sys

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
# group size 3 is chosen from n = 512 on, and quadratic's fast twin
# switches on above 400; the dt rows on tie-heavy inputs pin probe counts on
# boxes whose sums repeat
LARGE = [("3sum", algo, 520, "uniform") for algo in ("subq-det", "subq-rand", "dt",
                                                      "quadratic")]
LARGE += [("3sum", "dt", 520, "duplicate-heavy"), ("3sum", "dt", 520, "planted")]


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


if __name__ == "__main__":
    with open(GOLDEN, "w", newline="\n") as fh:
        fh.write("\n".join(rows()) + "\n")
    sys.exit(0)
