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


def test_cli_non_finite_input_is_an_error(tmp_path, capsys):
    path = tmp_path / "in.txt"
    _write_vector(path, [1.0, float("nan"), -1.0, 0.5])
    assert cli.main(["solve", "3sum", "--algo", "dt", "--input", str(path)]) == 1
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
