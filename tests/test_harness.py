import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threebench import cli, conv3sum, harness, trimatrix
from threebench import threesum as ts
from threebench.conv3sum import oracle_conv3sum, solve_conv_blocked
from threebench.core import PHASES, ComparisonLedger
from threebench.ldt import LinearForm, solve_kldt
from threebench.threesum import oracle_3sum
from threebench.trimatrix import WeightedGraph, write_graph, write_matrix


def test_generate_is_deterministic():
    a = harness.generate("3sum", 32, "uniform", 7)
    b = harness.generate("3sum", 32, "uniform", 7)
    assert np.array_equal(a, b)
    c = harness.generate("3sum", 32, "uniform", 8)
    assert not np.array_equal(a, c)


def test_planted_instances_carry_witnesses():
    for seed in range(15):
        vals = harness.generate("3sum", 10, "planted", seed)
        assert oracle_3sum(vals) is not None
        conv = harness.generate("conv", 12, "planted", seed)
        assert oracle_conv3sum(conv) is not None


def test_uniform_large_universe_rarely_has_witnesses():
    hits = 0
    for seed in range(20):
        vals = harness.generate("3sum", 10, "uniform", seed)
        if oracle_3sum(vals) is not None:
            hits += 1
    assert hits <= 1


def test_empty_instances_have_no_witnesses():
    vals = harness.generate("3sum", 0, "uniform", 0)
    assert len(vals) == 0
    led = ComparisonLedger()
    found, _, _ = harness.run_solver("3sum", "dt", vals, {}, led, 0)
    assert not found


def test_generated_graphs_are_valid():
    for seed in range(10):
        g = harness.generate("zerotri", 4 + seed, "planted", seed)
        assert isinstance(g, WeightedGraph)
        assert g.m >= 1


def test_run_experiment_and_csv_roundtrip(tmp_path):
    path = tmp_path / "out.csv"
    cfg = harness.ExperimentConfig(
        problem="3sum", algos=("quadratic", "dt"), sizes=(8, 16, 24),
        trials=2, seed=5, generator="planted", csv_path=str(path))
    records = harness.run_experiment(cfg)
    assert len(records) == 3 * 2 * 2
    assert all(r.found for r in records)  # planted instances
    back = harness.read_records(path)
    assert [(r.problem, r.algo, r.n, r.seed, r.found, r.ticks3, r.ticks4,
             r.ticks_other) for r in back] == \
        [(r.problem, r.algo, r.n, r.seed, r.found, r.ticks3, r.ticks4,
          r.ticks_other) for r in records]


def test_records_are_reproducible_modulo_wall_time(tmp_path):
    def run(name):
        path = tmp_path / name
        cfg = harness.ExperimentConfig(
            problem="3sum", algos=("dt",), sizes=(8, 16), trials=2,
            seed=1, generator="uniform", csv_path=str(path))
        harness.run_experiment(cfg)
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    assert run("a.csv") == run("b.csv")


def test_run_experiment_refuses_an_unwritable_csv_before_the_first_run(tmp_path, monkeypatch):
    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_solver", no_run)
    cfg = harness.ExperimentConfig(problem="3sum", algos=("dt",), sizes=(8,),
                                   csv_path=str(tmp_path / "missing" / "x.csv"))
    with pytest.raises(OSError):
        harness.run_experiment(cfg)
    kept = tmp_path / "kept.csv"  # a writable path keeps its contents until the rows land
    kept.write_text("old\n")
    with pytest.raises(AssertionError, match="a run started"):
        harness.run_experiment(dataclasses.replace(cfg, csv_path=str(kept)))
    assert kept.read_text() == "old\n"


def test_fit_exponent_recovers_known_slopes():
    records = []
    for n in (64, 128, 256, 512):
        for t in range(3):
            records.append(harness.RunRecord("3sum", "square", n, t, False,
                                             n * n, 0, 0, 1))
            records.append(harness.RunRecord("3sum", "flat", n, t, False,
                                             0, 500, 0, 1))
    fits = harness.fit_exponent(records)
    assert abs(fits[("3sum", "square")].slope - 2.0) < 1e-9
    assert abs(fits[("3sum", "flat")].slope) < 1e-9


def test_fit_requires_three_sizes():
    records = [harness.RunRecord("3sum", "x", n, 0, False, n, 0, 0, 1)
               for n in (8, 16)]
    with pytest.raises(ValueError):
        harness.fit_exponent(records)


def test_cross_check_catches_lies():
    vals = harness.generate("3sum", 12, "planted", 3)
    with pytest.raises(harness.OracleMismatch):
        harness.cross_check("3sum", vals, False, None, {})


def test_cross_check_catches_a_wrong_target_product():
    a, b, t = harness.generate("tmp", 5, "uniform", 3)
    res = trimatrix.target_min_plus_trivial(a, b, t)
    harness.cross_check("tmp", (a, b, t), True, res, {})
    cell = tuple(np.argwhere(np.isfinite(res.values))[0])
    for field in ("values", "witnesses"):
        wrong = dataclasses.replace(res, **{field: getattr(res, field).copy()})
        getattr(wrong, field)[cell] += 1
        with pytest.raises(harness.OracleMismatch, match="differs from the trivial scan"):
            harness.cross_check("tmp", (a, b, t), True, wrong, {})


def test_config_validation():
    with pytest.raises(ValueError):
        harness.ExperimentConfig("3sum", ("dt",), (16, 8))
    with pytest.raises(ValueError):
        harness.ExperimentConfig("nope", ("dt",), (8,))
    with pytest.raises(ValueError, match="bogus"):
        harness.ExperimentConfig("3sum", ("dt", "bogus"), (8,))
    with pytest.raises(ValueError, match="blocked"):
        harness.ExperimentConfig("3sum", ("blocked",), (8,))


@pytest.mark.parametrize("problem,algo", [("tmp", "trivial"), ("zerotri", "dense-trivial")])
def test_a_parameter_the_solver_ignores_is_not_reported(problem, algo):
    instance = harness.generate(problem, 6, "planted", 1)
    _, _, params = harness.run_solver(problem, algo, instance, {"g": 4}, ComparisonLedger(), 1)
    assert params == {}


# the size each problem's phase table is drawn at; 23 leaves a short last
# group, whose boxes the contour solvers sort at a charge
PHASE_SIZES = {"3sum": 23, "conv": 24, "ldt": 12, "zerotri": 12, "tmp": 8}


def _phase_cases():
    for problem, algo in harness.SOLVERS:
        for k in ((3, 5) if problem == "ldt" else (3,)):
            yield problem, algo, k


def test_every_solver_books_each_phase_at_its_arities():
    seen = set()
    for problem, algo, k in _phase_cases():
        # the input sort, the difference sort, a charged box sort, the walk:
        # tmp's candidate comparisons, in zerotri's dense backends too, are 4-linear
        allowed = {"sort_input": {2, k - 1}, "diff_sort": {4, 2 * k - 2}, "deduce": {4},
                   "walk": {3, 4} if problem in ("tmp", "zerotri") else {k}}
        n = PHASE_SIZES[problem] // (2 if k == 5 else 1)
        options = {"k": k} if problem == "ldt" else {}
        for seed, mode in enumerate(harness.GENERATORS):
            instance = harness.generate(problem, n, mode, seed)
            led = ComparisonLedger()
            harness.run_solver(problem, algo, instance, options, led, seed)
            phases = led.phases()
            total: dict = {}
            for book in phases.values():
                for arity, ticks in book.items():
                    total[arity] = total.get(arity, 0) + ticks
            assert total == led.count_klinear, (problem, algo, mode)
            for phase, book in phases.items():
                assert set(book) <= allowed[phase], (problem, algo, mode, phase)
            seen |= set(phases)
    assert seen == set(PHASES)


# ---------------------------------------------------------------------------
# inexact inputs are refused at the boundary: non-integers, magnitudes above
# 2^51, NaN and infinities

VECTOR_SOLVERS = {
    "quadratic": lambda v, led: ts.solve_quadratic(v, v, v, led),
    "quadratic-count": lambda v, led: ts.quadratic_tick_count(v, v, v, led),
    "dt-reference": lambda v, led: ts.solve_decision_tree(v, 2, led, mode="reference"),
    "dt-fast": lambda v, led: ts.solve_decision_tree(v, 2, led, mode="fast"),
    "subq-simple": lambda v, led: ts.solve_subquadratic_simple(v, 2, led),
    "subq-det": lambda v, led: ts.solve_subquadratic(v, None, led),
    "subq-rand": lambda v, led: ts.solve_subquadratic(
        v, ts.SubquadraticParams(mode="randomized"), led),
    "conv-blocked": lambda v, led: solve_conv_blocked(v, 2, led),
    "kldt": lambda v, led: solve_kldt(LinearForm((0.0, 1.0, 1.0, 1.0)), v, 2, led),
    "conv-naive": lambda v, led: harness.run_solver("conv", "naive", v, {}, led, 0),
}


@given(st.lists(st.integers(-20, 20).map(float), max_size=12),
       st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.5, 2.0 ** 51 + 2]),
       st.integers(0, 12), st.sampled_from(sorted(VECTOR_SOLVERS)))
@settings(max_examples=200, deadline=None)
def test_every_vector_solver_refuses_non_finite_reals(values, bad, pos, solver):
    values.insert(pos, bad)
    with pytest.raises(ValueError, match="integers of magnitude at most 2\\^51"):
        VECTOR_SOLVERS[solver](values, ComparisonLedger())


# ---------------------------------------------------------------------------
# CLI


def _write_vector(path, values):
    path.write_text("".join(f"{v}\n" for v in values))


def test_cli_solve_3sum(tmp_path, capsys):
    path = tmp_path / "in.txt"
    _write_vector(path, [-3.0, 1.0, 2.0])
    rc = cli.main(["solve", "3sum", "--algo", "dt", "--input", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "decision: witness" in out
    assert "ticks4:" in out
    assert "params: g=3\n" in out  # default_group_size(3)
    assert cli.main(["solve", "3sum", "--algo", "subq-det", "--input", str(path), "--g", "1"]) == 0
    assert "params: g=1 s=0 q=1\n" in capsys.readouterr().out
    assert cli.main(["solve", "3sum", "--algo", "quadratic", "--input", str(path)]) == 0
    assert "params:\n" in capsys.readouterr().out


@pytest.mark.parametrize("algo", ["dt", "subq-det", "quadratic"])
def test_cli_solve_phases_sum_to_the_total(tmp_path, capsys, algo):
    path = tmp_path / "in.txt"
    _write_vector(path, harness.generate("3sum", 23, "planted", 4))
    assert cli.main(["solve", "3sum", "--algo", algo, "--input", str(path)]) == 0
    lines = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines())
    phases = dict(field.split("=") for field in lines["phases"].split())
    assert list(phases) == [phase for phase in PHASES if phase in phases]
    assert sum(int(ticks) for ticks in phases.values()) == int(lines["total"]) > 0


def test_cli_solve_all_problems(tmp_path, capsys):
    vec = tmp_path / "vec.txt"
    _write_vector(vec, [5.0, 1.0, 2.0, 3.0])
    assert cli.main(["solve", "conv", "--algo", "blocked", "--input", str(vec)]) == 0
    assert cli.main(["solve", "ldt", "--algo", "kldt", "--input", str(vec)]) == 0

    gpath = tmp_path / "graph.txt"
    write_graph(gpath, WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0), (0, 2, -3.0))))
    assert cli.main(["solve", "zerotri", "--algo", "sparse", "--input", str(gpath)]) == 0
    out = capsys.readouterr().out
    assert "decision: witness" in out

    mpath = tmp_path / "mats.txt"
    with open(mpath, "w") as fh:
        write_matrix(fh, np.array([[2.0]]))
        write_matrix(fh, np.array([[3.0]]))
        write_matrix(fh, np.array([[0.0]]))
    assert cli.main(["solve", "tmp", "--algo", "dt", "--input", str(mpath)]) == 0


def test_cli_usage_error_returns_one(capsys):
    assert cli.main(["solve", "3sum"]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "3sum", "--algo", "dt", "--input", "{tmp}/missing.txt"],
    ["solve", "3sum", "--algo", "dt", "--input", "{tmp}"],
    ["bench", "--config", "{tmp}/missing.conf"],
    ["fit", "--csv", "{tmp}/missing.csv"],
    ["bench", "--problem", "3sum", "--algos", "dt", "--sizes", "8",
     "--csv", "{tmp}/missing/x.csv"],
    ["fit", "--csv", "{tmp}/short.csv"],
], ids=["solve-missing-input", "solve-directory-input", "bench-missing-config",
        "fit-missing-csv", "bench-csv-in-missing-directory", "fit-short-csv-row"])
def test_cli_unreadable_input_is_an_error_not_a_traceback(tmp_path, argv):
    (tmp_path / "short.csv").write_text(harness.CSV_HEADER + "\n3sum,dt,8,0\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-m", "threebench.cli"]
                          + [arg.format(tmp=tmp_path) for arg in argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr


def test_cli_refuses_an_algo_of_another_problem_or_none(tmp_path, capsys, monkeypatch):
    path = tmp_path / "in.txt"
    _write_vector(path, [5.0, 1.0, 2.0, 3.0])
    assert cli.main(["solve", "conv", "--algo", "dt", "--input", str(path)]) == 1
    assert "unknown conv algo 'dt'" in capsys.readouterr().err
    assert cli.main(["solve", "conv", "--algo", "bogus", "--input", str(path)]) == 1
    assert "usage error" in capsys.readouterr().err

    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_solver", no_run)
    csv = tmp_path / "never.csv"
    assert cli.main(["bench", "--problem", "3sum", "--algos", "dt,bogus",
                     "--sizes", "8", "--csv", str(csv)]) == 1
    assert "bogus" in capsys.readouterr().err
    assert not csv.exists()


def test_cli_refuses_k_that_conflicts_with_alphas(tmp_path, capsys):
    path = tmp_path / "in.txt"
    _write_vector(path, [5.0, 1.0, -2.0, 3.0])
    args = ["solve", "ldt", "--algo", "kldt", "--input", str(path)]
    assert cli.main(args + ["--k", "5", "--alphas", "0,1,1,1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert cli.main(args + ["--k", "3", "--alphas", "0,1,1,1"]) == 0
    assert cli.main(args + ["--alphas", "0,1,1,1,1,1"]) == 0  # the arity of --alphas
    assert cli.main(args + ["--k", "5"]) == 0


def test_cli_refuses_a_parameter_the_solver_does_not_read(tmp_path, capsys):
    path = tmp_path / "in.txt"
    _write_vector(path, [5.0, 1.0, -2.0, 3.0])
    graph = tmp_path / "graph.txt"
    write_graph(graph, WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0), (0, 2, -3.0))))
    for problem, algo, flags, err in [
        ("3sum", "dt", ["--s", "5", "--k", "7"], "3sum dt reads no --k, --s"),
        ("3sum", "quadratic", ["--g", "2"], "--g"),
        ("3sum", "subq-det", ["--p", "4"], "--p"),
        ("3sum", "subq-rand", ["--q", "4"], "--q"),
        ("conv", "blocked", ["--alphas", "0,1,1,1"], "--alphas"),
        ("ldt", "kldt", ["--K", "2"], "--K"),
        ("3sum", "dt", ["--seed", "5"], "3sum dt reads no --seed"),
        ("3sum", "subq-det", ["--seed", "0"], "--seed"),
        ("zerotri", "sparse-core", ["--K", "3"], "zerotri sparse-core reads no --K"),
    ]:
        source = graph if problem == "zerotri" else path
        assert cli.main(["solve", problem, "--algo", algo, "--input", str(source)] + flags) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and err in captured.err
        assert captured.out == ""
    for problem, algo, flags in [
        ("3sum", "dt", ["--g", "2"]),
        ("3sum", "subq-det", ["--g", "1", "--s", "0", "--q", "1"]),
        ("3sum", "subq-rand", ["--p", "4"]),
        ("ldt", "kldt", ["--g", "2", "--k", "3", "--alphas", "0,1,1,1"]),
    ]:
        assert cli.main(["solve", problem, "--algo", algo, "--input", str(path)] + flags) == 0


def test_cli_solve_lists_the_seed_of_a_sampling_solver(tmp_path, capsys):
    path = tmp_path / "in.txt"
    _write_vector(path, [5.0, 1.0, -2.0, 3.0])
    solve = ["solve", "3sum", "--algo", "subq-rand", "--input", str(path)]
    assert cli.main(solve) == 0
    assert "params: g=2 s=2 p=4 seed=0\n" in capsys.readouterr().out
    assert cli.main(solve + ["--seed", "5"]) == 0
    assert "params: g=2 s=2 p=4 seed=5\n" in capsys.readouterr().out


def test_cli_non_finite_input_is_an_error(tmp_path, capsys):
    path = tmp_path / "in.txt"
    _write_vector(path, [1.0, float("nan"), -1.0, 0.5])
    assert cli.main(["solve", "3sum", "--algo", "dt", "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("problem,algo,flag", [
    ("3sum", "dt", "--g"),
    ("3sum", "subq-simple", "--g"),
    ("conv", "blocked", "--g"),
    ("ldt", "kldt", "--g"),
    ("zerotri", "dense-dt", "--g"),
    ("zerotri", "dense-sampled", "--g"),
    ("zerotri", "dense-dominance", "--g"),
    ("zerotri", "sparse", "--K"),
    # sparse-core reads no --K, so any value of it is refused
    ("zerotri", "sparse-core", "--K"),
])
def test_cli_zero_group_size_or_color_count_is_an_error(tmp_path, capsys, problem, algo, flag):
    path = tmp_path / "in.txt"
    if problem == "zerotri":
        write_graph(path, WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0), (0, 2, -3.0))))
    else:
        _write_vector(path, [5.0, 1.0, 2.0, 3.0, -3.0])
    assert cli.main(["solve", problem, "--algo", algo, "--input", str(path), flag, "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


_EMPTY_MATRIX = np.zeros((0, 0))


# (solver call on an empty instance or a graph with no edges, a valid value
# of one parameter, an invalid one)
EMPTY_CALLS = {
    "dt mode": (lambda m, led: ts.solve_decision_tree([], 3, led, mode=m), "reference", "bogus"),
    "dt g": (lambda g, led: ts.solve_decision_tree([], g, led), 1, 0),
    "subq-simple g": (lambda g, led: ts.solve_subquadratic_simple([], g, led), 2, 5),
    "subq mode": (lambda m, led: ts.solve_subquadratic([], ts.SubquadraticParams(mode=m), led),
                  "randomized", "bogus"),
    "subq g": (lambda g, led: ts.solve_subquadratic([], ts.SubquadraticParams(g), led), 2, 0),
    "conv g": (lambda g, led: solve_conv_blocked([], g, led), 1, 0),
    "kldt g": (lambda g, led: solve_kldt(LinearForm((0.0, 1.0, 1.0, 1.0)), [], g, led), 1, 0),
    "dense variant": (lambda v, led: trimatrix.zero_triangle_dense(WeightedGraph(0, ()), v,
                                                                   ledger=led), "dt", "bogus"),
    "sampled g": (lambda g, led: trimatrix.target_min_plus_sampled(
        _EMPTY_MATRIX, _EMPTY_MATRIX, _EMPTY_MATRIX, g, np.random.default_rng(0), led), 1, 0),
    "sparse K": (lambda k, led: trimatrix.zero_triangle_sparse(WeightedGraph(3, ()), k, led),
                 1, 0),
}


@pytest.mark.parametrize("name", EMPTY_CALLS)
def test_parameters_are_checked_on_empty_instances(name):
    call, good, bad = EMPTY_CALLS[name]
    ledger = ComparisonLedger()
    call(good, ledger)
    assert ledger.total() == 0
    with pytest.raises(ValueError):
        call(bad, ComparisonLedger())


def test_cli_refuses_an_invalid_parameter_on_an_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    solve = ["solve", "3sum", "--algo", "dt", "--input", str(path)]
    assert cli.main(solve) == 0
    assert "decision: no-witness\n" in capsys.readouterr().out
    assert cli.main(solve + ["--g", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# (command line, with {} for the input file; the file's text; what stderr
# must start with) for input that comes from outside and is refused
REFUSED_INPUTS = {
    "graph without header": (["solve", "zerotri", "--algo", "sparse", "--input", "{}"], "3\n",
                             "error: graph file needs an 'n m' header"),
    "graph short edge list": (["solve", "zerotri", "--algo", "sparse", "--input", "{}"],
                              "3 2\n0 1 1\n", "error: expected 6 edge tokens, found 3"),
    "matrix without header": (["solve", "tmp", "--algo", "dt", "--input", "{}"], "1 1 5\n1\n",
                              "error: matrix block needs an 'r c' header"),
    "matrix short block": (["solve", "tmp", "--algo", "dt", "--input", "{}"], "2 2\n1 2\n3\n",
                           "error: expected 4 entries, found 3"),
    "csv foreign header": (["fit", "--csv", "{}"], "problem,algo,n\n3sum,dt,8\n",
                           "error: unrecognized CSV header"),
    "csv ragged row": (["fit", "--csv", "{}"], harness.CSV_HEADER + "\n3sum,dt,8,0\n",
                       "error: line 2: 4 cells, the header has 14"),
    "config line without =": (["bench", "--config", "{}"], "problem = 3sum\nalgos dt\n",
                              "usage error: bad config line: 'algos dt'"),
    "bench without problem": (["bench", "--config", "{}"], "algos = dt\nsizes = 8\n",
                              "usage error: bench needs 'problem'"),
    "bench zero trials": (["bench", "--config", "{}", "--trials", "0"],
                          "problem = 3sum\nalgos = dt\nsizes = 8\n",
                          "usage error: trials must be >= 1"),
    "bench zero size": (["bench", "--config", "{}"], "problem = 3sum\nalgos = dt\nsizes = 0,8\n",
                        "usage error: sizes must be positive"),
}


@pytest.mark.parametrize("name", REFUSED_INPUTS)
def test_cli_refuses_malformed_outside_input(tmp_path, capsys, monkeypatch, name):
    argv, text, err = REFUSED_INPUTS[name]
    path = tmp_path / "input.txt"
    path.write_text(text)

    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_solver", no_run)
    assert cli.main([str(path) if arg == "{}" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(err) and captured.out == ""


def test_cli_oracle_mismatch_returns_two(tmp_path, capsys, monkeypatch):
    path = tmp_path / "in.txt"
    _write_vector(path, [-3.0, 1.0, 2.0])

    def lying_runner(problem, algo, instance, options, ledger, seed):
        return False, None, {}

    monkeypatch.setattr(harness, "run_solver", lying_runner)
    rc = cli.main(["solve", "3sum", "--algo", "dt", "--input", str(path)])
    assert rc == 2
    assert "oracle mismatch" in capsys.readouterr().err


def test_cli_quadratic_prints_a_witness_above_the_oracle_cap(tmp_path, capsys):
    values = harness.generate("3sum", 500, "planted", 1)
    path = tmp_path / "in.txt"
    _write_vector(path, values)
    assert cli.main(["solve", "3sum", "--algo", "quadratic", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    wits = [line.split()[1:] for line in out.splitlines() if line.startswith("witness: ")]
    assert len(wits) == 1
    a, b, c = (float(t) for t in wits[0])
    assert {a, b, c} <= set(values.tolist()) and a + b == -c


@pytest.mark.parametrize("tamper", [
    lambda a, b, c: (a + 1.0, b - 1.0, c),   # sums to zero, not drawn from the input
    lambda a, b, c: (a, a, c),               # drawn from the input, sum not zero
], ids=["not-drawn", "not-zero"])
def test_a_bad_witness_above_the_oracle_cap_is_a_mismatch(tmp_path, capsys, monkeypatch,
                                                          tamper):
    n = 200
    assert n > harness.DEFAULT_ORACLE_CAPS["3sum"]
    config = harness.ExperimentConfig("3sum", ("dt",), (n,), generator="planted")
    assert harness.run_experiment(config)[0].found
    real = ts.solve_decision_tree
    monkeypatch.setattr(ts, "solve_decision_tree",
                        lambda *args, **kwargs: tamper(*real(*args, **kwargs)))
    with pytest.raises(harness.OracleMismatch, match="witness"):
        harness.run_experiment(config)
    path = tmp_path / "in.txt"
    _write_vector(path, harness.generate("3sum", n, "planted", 0))
    solve = ["solve", "3sum", "--algo", "dt", "--input", str(path)]
    assert cli.main(solve) == 2
    assert "oracle mismatch" in capsys.readouterr().err
    assert cli.main(solve + ["--no-check"]) == 0


def test_a_decision_without_its_witness_is_a_mismatch():
    values = [-3.0, 1.0, 2.0]
    harness.check_witness("3sum", values, True, (1.0, 2.0, -3.0))
    harness.check_witness("3sum", values, False, None)
    for found, payload in ((True, None), (False, (1.0, 2.0, -3.0))):
        with pytest.raises(harness.OracleMismatch):
            harness.check_witness("3sum", values, found, payload)


def test_conv_pairs_and_zero_triangles_are_checked_exactly():
    conv = [1.0, 2.0, 4.0, 6.0]  # A[1] + A[1] == A[2], A[1] + A[2] == A[3]
    for pair in ((1, 1), (1, 2), (2, 1)):
        harness.check_witness("conv", conv, True, pair)
    graph = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 2.0), (0, 2, -3.0), (2, 3, 4.0)))
    for triangle in ((0, 1, 2), (2, 0, 1)):
        harness.check_witness("zerotri", graph, True, triangle)
    bad = [("conv", conv, (1, 3)),      # i + j out of range
           ("conv", conv, (0, 1)),      # 1 + 2 != A[1]
           ("conv", conv, (-1, 2)),
           ("zerotri", graph, (0, 1, 3)),   # no edge (0, 3)
           ("zerotri", WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0))), (0, 1, 2))]
    for problem, instance, payload in bad:
        with pytest.raises(harness.OracleMismatch, match="witness"):
            harness.check_witness(problem, instance, True, payload)
    with pytest.raises(harness.OracleMismatch):
        harness.check_witness("zerotri", graph, True, None)


@pytest.mark.parametrize("problem,algo,module,solver,tamper", [
    ("conv", "blocked", conv3sum, "solve_conv_blocked", lambda w: (w[0], w[1] + 1)),
    ("conv", "naive", conv3sum, "solve_conv_naive", lambda w: (w[1] + 1, w[0])),
    ("zerotri", "sparse", trimatrix, "zero_triangle_sparse", lambda w: (w[0], w[1], w[1])),
    ("zerotri", "dense-dt", trimatrix, "zero_triangle_dense", lambda w: (w[0], w[0], w[2])),
])
def test_a_wrong_witness_above_the_oracle_cap_is_a_mismatch(monkeypatch, problem, algo, module,
                                                           solver, tamper):
    n = 2 * harness.DEFAULT_ORACLE_CAPS[problem]
    config = harness.ExperimentConfig(problem, (algo,), (n,), generator="planted")
    assert harness.run_experiment(config)[0].found
    real = getattr(module, solver)
    monkeypatch.setattr(module, solver, lambda *args, **kwargs: tamper(real(*args, **kwargs)))
    with pytest.raises(harness.OracleMismatch, match="witness"):
        harness.run_experiment(config)


@pytest.mark.parametrize("problem,algos,module,solver,flip", [
    ("3sum", "quadratic,dt", ts, "solve_decision_tree", lambda w: None),
    ("conv", "naive,blocked", conv3sum, "solve_conv_blocked", lambda w: None),
    ("zerotri", "sparse,dense-dt", trimatrix, "zero_triangle_dense", lambda w: None),
    ("tmp", "trivial,dt", trimatrix, "target_min_plus_dt",
     lambda r: trimatrix.TargetProductResult(np.where(r.values < 0, r.values + 1, r.values),
                                             r.witnesses)),
])
def test_algos_that_disagree_above_the_oracle_cap_exit_two(capsys, monkeypatch, problem, algos,
                                                           module, solver, flip):
    n = 2 * harness.DEFAULT_ORACLE_CAPS[problem]
    bench = ["bench", "--problem", problem, "--algos", algos, "--sizes", str(n),
             "--generator", "planted"]
    assert cli.main(bench) == 0
    real = getattr(module, solver)
    monkeypatch.setattr(module, solver, lambda *args, **kwargs: flip(real(*args, **kwargs)))
    assert cli.main(bench) == 2
    assert f"{algos.split(',')[1]} disagrees with" in capsys.readouterr().err


@pytest.mark.parametrize("problem,algo,module,solver", [
    ("3sum", "dt", ts, "solve_decision_tree"),
    ("conv", "blocked", conv3sum, "solve_conv_blocked"),
    ("zerotri", "sparse", trimatrix, "zero_triangle_sparse"),
])
def test_a_planted_instance_reported_not_found_exits_two(capsys, monkeypatch, problem, algo,
                                                        module, solver):
    n = 2 * harness.DEFAULT_ORACLE_CAPS[problem]
    bench = ["bench", "--problem", problem, "--algos", algo, "--sizes", str(n),
             "--generator", "planted"]
    assert cli.main(bench) == 0
    monkeypatch.setattr(module, solver, lambda *args, **kwargs: None)
    assert cli.main(bench) == 2
    assert f"{algo} missed the planted witness" in capsys.readouterr().err


def test_cli_bench_and_fit(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    conf = tmp_path / "bench.conf"
    conf.write_text(
        "# tiny smoke benchmark\n"
        "problem = 3sum\n"
        "algos = quadratic,dt\n"
        "sizes = 8,16,32\n"
        "trials = 2\n"
        "seed = 3\n"
        f"csv = {csv}\n")
    assert cli.main(["bench", "--config", str(conf)]) == 0
    assert csv.exists()
    assert cli.main(["fit", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "slope=" in out


def test_cli_bench_flags_override(tmp_path):
    csv = tmp_path / "flags.csv"
    conf = tmp_path / "bench.conf"
    conf.write_text("problem = 3sum\nalgos = quadratic\nsizes = 8,12,16\nseed = 3\ntrials = 2\n")
    rc = cli.main(["bench", "--config", str(conf), "--problem", "conv", "--algos", "blocked",
                   "--seed", "0", "--trials", "1", "--csv", str(csv)])
    assert rc == 0
    records = harness.read_records(csv)
    assert {(r.problem, r.algo) for r in records} == {("conv", "blocked")}
    assert [(r.n, r.seed) for r in records] == [(8, 0), (12, 0), (16, 0)]
