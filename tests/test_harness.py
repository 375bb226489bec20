import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threebench import cli, harness
from threebench import threesum as ts
from threebench.conv3sum import oracle_conv3sum, solve_conv_blocked
from threebench.core import ComparisonLedger
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


# ---------------------------------------------------------------------------
# non-finite inputs are refused at the boundary

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
       st.sampled_from([float("nan"), float("inf"), -float("inf")]),
       st.integers(0, 12), st.sampled_from(sorted(VECTOR_SOLVERS)))
@settings(max_examples=200, deadline=None)
def test_every_vector_solver_refuses_non_finite_reals(values, bad, pos, solver):
    values.insert(pos, bad)
    with pytest.raises(ValueError):
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
    for problem, algo, flags, err in [
        ("3sum", "dt", ["--s", "5", "--k", "7"], "3sum dt reads no --k, --s"),
        ("3sum", "quadratic", ["--g", "2"], "--g"),
        ("3sum", "subq-det", ["--p", "4"], "--p"),
        ("3sum", "subq-rand", ["--q", "4"], "--q"),
        ("conv", "blocked", ["--alphas", "0,1,1,1"], "--alphas"),
        ("ldt", "kldt", ["--K", "2"], "--K"),
        ("3sum", "dt", ["--seed", "5"], "3sum dt reads no --seed"),
        ("3sum", "subq-det", ["--seed", "0"], "--seed"),
    ]:
        assert cli.main(["solve", problem, "--algo", algo, "--input", str(path)] + flags) == 1
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
    rc = cli.main(["bench", "--problem", "conv", "--algos", "blocked",
                   "--sizes", "8,12,16", "--trials", "1", "--seed", "2",
                   "--csv", str(csv)])
    assert rc == 0
    records = harness.read_records(csv)
    assert {r.algo for r in records} == {"blocked"}
