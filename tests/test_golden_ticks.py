"""Golden ledger counts: every solver the harness accepts, on every
generator at two small sizes, must reproduce the committed rows exactly.

The rows are ``harness.CSV_HEADER`` rows without ``wall_ns``.  A change that
means to alter tick counts or decisions regenerates the file with

    PYTHONPATH=src python tests/test_golden_ticks.py

and says so; any other change must leave every row byte-identical.  Before
it overwrites the file it prints, per (problem, algo), the old -> new sums
of ticks3, ticks4 and ticksK, and every cell whose parameters (g, s, p, q,
K) or ``found`` flag change; a grid that only grows is compared on the rows
it keeps, and its appended cells are listed with their counts.
"""

import csv
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
# each LARGE cell is (problem, algo, n, generator, options), the options
# passed to the runner as given.  Group size 3 is chosen from n = 512 on, and
# quadratic's walk is pinned at that size too; the dt rows on tie-heavy inputs
# pin probe counts on boxes whose sums repeat
LARGE = [("3sum", algo, 520, "uniform", {}) for algo in ("subq-det", "subq-rand", "dt",
                                                          "quadratic")]
LARGE += [("3sum", "dt", 520, "duplicate-heavy", {}), ("3sum", "dt", 520, "planted", {})]
# the grid's matrix sizes build sample hierarchies of at most two levels;
# these sizes build three, so the chained hint walk of the sampled variant
# and the multi-strip merge of the dominance variant are pinned too
LARGE += [("tmp", algo, 48, "uniform", {}) for algo in ("sampled", "dominance")]
LARGE += [("zerotri", algo, 72, "uniform", {}) for algo in ("dense-sampled", "dense-dominance")]
# the benchmark's sizes: the grid's cut conv into at most 6 blocks and kldt
# into 2 groups a side
LARGE += [(problem, algo, n, generator, {})
          for problem, algo, n in (("conv", "blocked", 384), ("ldt", "kldt", 192))
          for generator in ("uniform", "duplicate-heavy")]
# subq-simple above the grid's sizes, with a short last group at 521: the
# uniform cell books the short group's sorts to deduce, the other two find
# witnesses
LARGE += [("3sum", "subq-simple", n, generator, {})
          for n, generator in ((521, "uniform"), (520, "duplicate-heavy"), (521, "planted"))]
# the contour catalog above the default group sizes: subq-det at g = 4 (a 2 x 2
# anchor grid with gaps of up to 8 cells) and subq-rand at g = 5, the first
# group size at which its default anchor set leaves positions out
LARGE += [("3sum", "subq-det", 130, generator, {"g": 4}) for generator in ("uniform", "planted")]
LARGE += [("3sum", "subq-rand", 130, "uniform", {"g": 5})]

def grid():
    for problem, algos in ALGOS.items():
        for generator in harness.GENERATORS:
            for n in SIZES[problem]:
                for algo in algos:
                    yield problem, algo, n, generator, {}
    yield from LARGE


def label(cell) -> str:
    """A grid cell as the summary names it: its options follow its generator."""
    problem, algo, n, generator, options = cell
    return " ".join([problem, algo, f"n={n}", generator, *(f"{k}={v}" for k, v in options.items())])


def rows():
    header = harness.CSV_HEADER.rsplit(",", 1)[0]
    out = [header]
    for problem, algo, n, generator, options in grid():
        instance = harness.generate(problem, n, generator, SEED)
        ledger = ComparisonLedger()
        found, _, params = harness.run_solver(problem, algo, instance, options, ledger, SEED)
        record = harness.RunRecord(problem, algo, n, SEED, bool(found),
                                   ledger.count_3linear, ledger.count_4linear,
                                   ledger.other_total(), 0, params)
        out.append(record.csv_row().rsplit(",", 1)[0])
    return out


TICKS = ("ticks3", "ticks4", "ticksK")


def summary(old, new):
    """What moves from the `old` golden lines to the `new` (both with their
    header): per (problem, algo), the sums of ticks3, ticks4 and ticksK that
    differ, then each grid cell whose parameters or found flag change.  When
    `new` only appends rows, the rows both share are compared and the
    appended cells listed after them."""
    def sums(lines):
        out = {}
        for row in csv.DictReader(lines):
            total = out.setdefault((row["problem"], row["algo"]), dict.fromkeys(TICKS, 0))
            for col in TICKS:
                total[col] += int(row[col])
        return out

    shared = new[:len(old)]
    before, after = sums(old), sums(shared)
    lines = []
    for key in dict.fromkeys([*before, *after]):
        a, b = before.get(key, dict.fromkeys(TICKS, 0)), after.get(key, dict.fromkeys(TICKS, 0))
        moved = [f"{col} {a[col]:,} -> {b[col]:,}" for col in TICKS if a[col] != b[col]]
        if moved:
            lines.append(f"{key[0]} {key[1]}: " + ", ".join(moved))
    if len(old) > len(new):
        return lines + [f"the grid went from {len(old) - 1} to {len(new) - 1} rows; "
                        "found flags not compared"]
    cells = list(grid())
    for cell, was, now in zip(cells, csv.DictReader(old), csv.DictReader(shared)):
        moved = [f"{col} {was[col] or '(none)'} -> {now[col] or '(none)'}"
                 for col in (*harness.PARAMS, "found") if was[col] != now[col]]
        if moved:
            lines.append(f"{label(cell)}: " + ", ".join(moved))
    lines = lines or ["no row changed"]
    for cell, row in zip(cells[len(old) - 1:], csv.DictReader(new[:1] + new[len(old):])):
        lines.append(f"appended {label(cell)}: found {row['found']}, "
                     + ", ".join(f"{col} {int(row[col]):,}" for col in TICKS))
    return lines


def test_summary_names_the_moved_sums_and_flipped_flags():
    cells = list(grid())
    assert cells[:2] == [("3sum", "quadratic", 17, "uniform", {}),
                         ("3sum", "dt", 17, "uniform", {})]
    old = [harness.CSV_HEADER.rsplit(",", 1)[0]] \
        + [f"{problem},{algo},{n},3,,,,,,1,10,20,0" for problem, algo, n, *_ in cells]
    new = [old[0], old[1].replace(",20,0", ",25,0"), old[2].replace(",1,10,20,0", ",0,10,20,1"),
           *old[3:]]
    quadratic = sum(cell[:2] == ("3sum", "quadratic") for cell in cells)
    assert summary(old, new) == [f"3sum quadratic: ticks4 {20 * quadratic:,} -> "
                                 f"{20 * quadratic + 5:,}",
                                 "3sum dt: ticksK 0 -> 1",
                                 "3sum dt n=17 uniform: found 1 -> 0"]
    assert summary(old, old) == ["no row changed"]
    # a parameter cell that changes alone is listed, blanked or filled
    reparam = [old[0], old[1].replace("3,,,,,,1", "3,,,,,6,1"),
               old[2].replace("3,,,,,,1", "3,9,,,4,,1"), *old[3:]]
    assert summary(old, reparam) == ["3sum quadratic n=17 uniform: K (none) -> 6",
                                     "3sum dt n=17 uniform: g (none) -> 9, q (none) -> 4"]
    assert summary(reparam, old) == ["3sum quadratic n=17 uniform: K 6 -> (none)",
                                     "3sum dt n=17 uniform: g 9 -> (none), q 4 -> (none)"]
    assert summary(old, old[:-1])[-1] == \
        f"the grid went from {len(cells)} to {len(cells) - 1} rows; found flags not compared"
    assert label(cells[-1]) == "3sum subq-rand n=130 uniform g=5"
    appended = f"appended {label(cells[-1])}: found 1, ticks3 10, ticks4 20, ticksK 0"
    assert summary(old[:-1], old) == ["no row changed", appended]
    assert summary(old[:-1], new) == summary(old, new) + [appended]


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
         ("zerotri", "sparse"): ("K", "seed"), ("zerotri", "sparse-core"): (),
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
    fresh = rows()
    with open(GOLDEN) as fh:
        print("\n".join(summary(fh.read().splitlines(), fresh)))
    with open(GOLDEN, "w", newline="\n") as fh:
        fh.write("\n".join(fresh) + "\n")
    sys.exit(0)
