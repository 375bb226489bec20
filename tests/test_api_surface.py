"""The package's public names and the parameter names of every public
solver entry point, pinned.

A new knob on a solver, a new solver, a test-only helper back in the
package, or a new ledger method has to be added here on purpose.
"""

import dataclasses
import inspect
import re

import threebench
from threebench import conv3sum, ldt, threesum, trimatrix

PACKAGE_NAMES = [
    "BLUE", "ComparisonLedger", "Contour", "ExperimentConfig", "LabeledPoint",
    "LegalPairCatalog", "LinearForm", "OracleMismatch", "Orientation", "PointSet", "RED",
    "RunRecord", "SampleHierarchy", "SubquadraticParams",
    "TargetProductResult", "WeightedGraph", "acyclic_orient", "antidiagonal_cells",
    "as_reals", "box_order", "c_epsilon", "cut_groups", "default_group_size",
    "deterministic_point_set", "difference_ticks", "enumerate_legal_pairs", "fit_exponent",
    "generate", "grid_span", "leq_positions", "match_boxes", "merge_sort_counted",
    "mergesort_tick_count", "oracle_3sum", "oracle_conv3sum", "oracle_kldt",
    "oracle_zero_triangle", "random_point_set", "read_records", "reduce_kldt",
    "report_dominating_pairs", "resolve_subquadratic_params", "run_experiment",
    "search_visits", "solve_conv_blocked", "solve_decision_tree", "solve_kldt",
    "solve_quadratic", "solve_subquadratic", "solve_subquadratic_simple",
    "sort_differences", "sort_segments", "sorting_permutations", "staircase_visits",
    "target_min_plus_dominance", "target_min_plus_dt", "target_min_plus_sampled",
    "target_min_plus_trivial", "ternary_probes", "ternary_search", "write_records",
    "zero_triangle_core", "zero_triangle_dense", "zero_triangle_sparse",
]

ENTRY_POINTS = {
    (threesum, "solve_quadratic"): ["a_vals", "b_vals", "c_vals", "ledger"],
    (threesum, "solve_decision_tree"): ["values", "group_size", "ledger", "mode"],
    (threesum, "solve_subquadratic"): ["values", "params", "ledger"],
    (threesum, "solve_subquadratic_simple"): ["values", "group_size", "ledger"],
    (threesum, "enumerate_legal_pairs"): ["width", "point_set", "span"],
    (threesum, "cached_catalog"): ["width", "point_set", "span"],
    (trimatrix, "target_min_plus_trivial"): ["A", "B", "T"],
    (trimatrix, "target_min_plus_dt"): ["A", "B", "T", "group_size", "ledger"],
    (trimatrix, "target_min_plus_dominance"): ["A", "B", "T", "group_size"],
    (trimatrix, "target_min_plus_sampled"):
        ["A", "B", "T", "group_size", "rng", "ledger", "hint_stats"],
    (trimatrix, "zero_triangle_dense"): ["graph", "variant", "group_size", "ledger", "seed"],
    (trimatrix, "zero_triangle_sparse"): ["graph", "color_count", "ledger", "seed"],
    (trimatrix, "zero_triangle_core"): ["graph", "ledger"],
    (conv3sum, "solve_conv_blocked"): ["values", "group_size", "ledger", "probe_log"],
    (conv3sum, "solve_conv_naive"): ["values", "ledger"],
    (ldt, "solve_kldt"): ["phi", "values", "group_size", "ledger"],
}

# ticks are booked to a phase where they are made; the ledger has no other
# way to mark one
LEDGER_NAMES = ["count", "count_3linear", "count_4linear", "count_klinear", "other_total",
                "phases", "tick", "total"]

PUBLIC = re.compile(r"(solve_|target_min_plus_|zero_triangle_)\w+"
                    r"|enumerate_legal_pairs|cached_catalog")


def test_every_public_entry_point_is_pinned():
    found = {(module, name)
             for module in (threesum, trimatrix, conv3sum, ldt)
             for name, obj in vars(module).items()
             if PUBLIC.fullmatch(name) and inspect.isfunction(obj)
             and obj.__module__ == module.__name__}
    assert found == set(ENTRY_POINTS)


def test_package_public_names():
    got = sorted(name for name, obj in vars(threebench).items()
                 if not name.startswith("_") and not inspect.ismodule(obj))
    assert got == PACKAGE_NAMES


def test_ledger_public_names():
    got = sorted(name for name in dir(threebench.ComparisonLedger) if not name.startswith("_"))
    assert got == LEDGER_NAMES


def test_entry_point_parameter_names():
    for (module, name), params in ENTRY_POINTS.items():
        got = list(inspect.signature(getattr(module, name)).parameters)
        assert got == params, f"{module.__name__}.{name}"


def test_subquadratic_params_fields():
    assert [f.name for f in dataclasses.fields(threesum.SubquadraticParams)] == \
        ["group_size", "span", "mode", "seed", "point_count", "grid_side"]
