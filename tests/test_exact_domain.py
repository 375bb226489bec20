"""One exact input domain, checked where input enters.

The 3SUM, conv and k-LDT solvers accept integers of magnitude at most 2^51
(``core.as_reals``); k-LDT also needs integer coefficients, and values on
which no form it charges passes 2^53.  The target products accept integer
entries of magnitude at most 2^40 and +inf (targets -inf too), and zero
triangles integer weights of magnitude at most 2^40.  Anything else is
refused with ValueError, and `threebench solve` prints ``error: ...`` and
exits 1.  On every input a boundary accepts, the algos of one problem
decide alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threebench import cli, harness
from threebench.conv3sum import oracle_conv3sum, solve_conv_blocked
from threebench.core import ComparisonLedger
from threebench.ldt import LinearForm, oracle_kldt, solve_kldt
from threebench.threesum import oracle_3sum
from threebench.trimatrix import INF, TARGET_VARIANTS, WeightedGraph

ALGOS_3SUM = sorted(algo for problem, algo in harness.SOLVERS if problem == "3sum")
REFUSED = {"decimal": 0.5, "2^51 + 2": 2.0 ** 51 + 2, "nan": float("nan"), "inf": INF}


def _item14_instances():
    """ROADMAP item 14's 3000 instances, as the integers k of their values
    k/10: n = 6..39, k in [-60, 60), seed 5."""
    rng = np.random.default_rng(5)
    for _ in range(3000):
        yield rng.integers(-60, 60, size=int(rng.integers(6, 40))).astype(float)


def _run(problem, algo, instance, options=None):
    found, payload, _ = harness.run_solver(problem, algo, instance, options or {},
                                           ComparisonLedger(), 0)
    harness.check_witness(problem, instance, found, payload)
    return found


def test_item14_one_decimal_instances_are_refused_by_every_3sum_algo():
    refused = 0
    for ks in _item14_instances():
        assert (ks % 10).any()  # every instance holds a non-integer k/10
        for algo in ALGOS_3SUM:
            with pytest.raises(ValueError, match="integers of magnitude at most 2\\^51"):
                _run("3sum", algo, ks / 10)
        refused += 1
    assert refused == 3000


def test_item14_instances_as_integers_are_decided_alike_by_every_3sum_algo():
    """The oracle, `quadratic` and `dt` decide all 3000 instances; the
    other algos (`dt-reference`, `dt-fast`, which is `dt`'s runner under a
    second id, and the catalog routes `subq-simple`, `subq-det` and
    `subq-rand`) decide every tenth, instances 0, 10, ..., 2990, which keeps
    the test near 10 s."""
    witnesses = 0
    for t, ks in enumerate(_item14_instances()):
        want = oracle_3sum(ks) is not None
        witnesses += want
        algos = ALGOS_3SUM if t % 10 == 0 else ("quadratic", "dt")
        for algo in algos:
            assert _run("3sum", algo, ks) == want, (t, algo)
    assert witnesses == 2712


# integers up to 2^51 in magnitude, small ones often enough to repeat and to
# close triples, and the edges of the range
_EDGES = [2 ** 51, 2 ** 51 - 1, 2 ** 50, 2 ** 50 + 1, 2 ** 49]
_EXACT = st.one_of(st.integers(-8, 8), st.integers(-2 ** 51, 2 ** 51),
                   st.sampled_from(_EDGES + [-v for v in _EDGES])).map(float)


@given(st.lists(_EXACT, max_size=14))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_every_3sum_algo_agrees_with_the_oracle_on_exact_inputs(values):
    want = oracle_3sum(values) is not None
    for algo in ALGOS_3SUM:
        assert _run("3sum", algo, values) == want, algo


@given(st.lists(_EXACT, max_size=14), st.integers(1, 5))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_conv_blocked_agrees_with_the_oracle_on_exact_inputs(values, g):
    witness = solve_conv_blocked(values, g, ComparisonLedger())
    harness.check_witness("conv", values, witness is not None, witness)
    assert (witness is not None) == (oracle_conv3sum(values) is not None)


@given(st.lists(_EXACT, max_size=10), st.integers(-3, 3),
       st.lists(st.integers(-3, 3).filter(bool), min_size=3, max_size=3), st.integers(1, 5))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_kldt_agrees_with_the_oracle_on_exact_inputs(values, a0, alphas, g):
    # x1 + x2 + x3 over the whole range, and small forms on values below 2^48,
    # where no form kldt charges passes 2^53
    for phi, vals in ((LinearForm((0, 1, 1, 1)), values),
                      (LinearForm((a0, *alphas)), [v // 8 for v in values])):
        assert solve_kldt(phi, vals, g, ComparisonLedger()) == oracle_kldt(phi, vals)


@pytest.mark.parametrize("bad", REFUSED.values(), ids=REFUSED.keys())
def test_graphs_and_matrices_refuse_an_inexact_entry(bad):
    # the vector solvers' refusals are checked by test_harness's
    # test_every_vector_solver_refuses_non_finite_reals
    with pytest.raises(ValueError, match="at most 2\\^40"):
        WeightedGraph(3, ((0, 1, 1.0), (0, 2, bad)))
    matrix = [[1.0, -INF if bad == INF else bad]]  # +inf is a missing entry
    for variant in TARGET_VARIANTS:
        with pytest.raises(ValueError, match="at most 2\\^40"):
            _run("tmp", variant, (np.array(matrix), np.ones((2, 2)), np.zeros((1, 2))))


def test_a_form_with_a_fractional_coefficient_is_refused():
    for alphas in ((0, 0.5, 1, 1), (0.5, 1, 1, 1), (0, 1, 1, float("inf"))):
        with pytest.raises(ValueError, match="coefficients must be integers"):
            LinearForm(alphas)
        with pytest.raises(ValueError, match="coefficients must be integers"):
            _run("ldt", "kldt", [1.0, -2.0], {"alphas": alphas})


def test_kldt_refuses_values_on_which_a_charged_form_could_pass_2_53():
    # 2 x1 + x2 + x3: two differences of A = 2 x1 compared span 8 |x|
    phi = LinearForm((0, 2, 1, 1))
    assert solve_kldt(phi, [2.0 ** 50, -2.0 ** 50], 2, ComparisonLedger()) is True
    with pytest.raises(ValueError, match="could pass 2\\^53"):
        solve_kldt(phi, [2.0 ** 50 + 1, 1.0], 2, ComparisonLedger())
    # the constant term counts in the walk's sums
    assert solve_kldt(LinearForm((2 ** 51, 1, 1, 1)), [2.0 ** 50], 2, ComparisonLedger()) is False
    with pytest.raises(ValueError, match="could pass 2\\^53"):
        solve_kldt(LinearForm((2 ** 53, 1, 1, 1)), [1.0], 2, ComparisonLedger())


# ---------------------------------------------------------------------------
# the command line


_FILES = {
    "3sum": ("dt", lambda x: f"3\n-1\n{x!r}\n-2\n"),
    "conv": ("blocked", lambda x: f"3\n-1\n{x!r}\n-2\n"),
    "ldt": ("kldt", lambda x: f"3\n-1\n{x!r}\n-2\n"),
    "zerotri": ("sparse", lambda x: f"3 3\n0 1 1\n0 2 2\n1 2 {x!r}\n"),
    # +inf is a missing entry of an operand; -inf is not one
    "tmp": ("dt", lambda x: f"1 2\n1 {-INF if x == INF else x!r}\n2 1\n1\n1\n1 1\n0\n"),
}


@pytest.mark.parametrize("kind", REFUSED)
@pytest.mark.parametrize("problem", _FILES)
def test_cli_solve_refuses_an_inexact_input_file(tmp_path, capsys, problem, kind):
    algo, body = _FILES[problem]
    path = tmp_path / "in.txt"
    path.write_text(body(REFUSED[kind]))
    assert cli.main(["solve", problem, "--algo", algo, "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_cli_sparse_refuses_a_non_finite_edge_weight(tmp_path, capsys, weight):
    # a nan weight once crashed in the difference sort, and an inf weight ran
    # as a real edge where the dense solvers read it as no edge
    path = tmp_path / "g.graph"
    path.write_text(f"4 4\n0 1 {weight}\n0 2 -3\n1 2 3\n2 3 5\n")
    assert cli.main(["solve", "zerotri", "--algo", "sparse", "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: edge (0, 1) weighs")
