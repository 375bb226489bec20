"""Comparison-counted solvers for 3SUM and its relatives, plus a benchmark
harness that verifies the counts' scaling empirically."""

from .core import (
    ComparisonLedger,
    as_reals,
    box_order,
    cut_groups,
    difference_ticks,
    merge_sort_counted,
    mergesort_tick_count,
    search_visits,
    sort_differences,
    sort_segments,
    staircase_visits,
    ternary_probes,
    ternary_search,
)
from .dominance import (
    BLUE,
    RED,
    LabeledPoint,
    c_epsilon,
    report_dominating_pairs,
    sorting_permutations,
)
from .threesum import (
    Contour,
    LegalPairCatalog,
    PointSet,
    SubquadraticParams,
    default_group_size,
    deterministic_point_set,
    enumerate_legal_pairs,
    grid_span,
    leq_positions,
    match_boxes,
    oracle_3sum,
    random_point_set,
    resolve_subquadratic_params,
    solve_decision_tree,
    solve_quadratic,
    solve_subquadratic,
    solve_subquadratic_simple,
)
from .ldt import LinearForm, oracle_kldt, reduce_kldt, solve_kldt
from .trimatrix import (
    Orientation,
    SampleHierarchy,
    TargetProductResult,
    WeightedGraph,
    acyclic_orient,
    oracle_zero_triangle,
    target_min_plus_dominance,
    target_min_plus_dt,
    target_min_plus_sampled,
    target_min_plus_trivial,
    zero_triangle_core,
    zero_triangle_dense,
    zero_triangle_sparse,
)
from .conv3sum import antidiagonal_cells, oracle_conv3sum, solve_conv_blocked
from .harness import (
    ExperimentConfig,
    OracleMismatch,
    RunRecord,
    fit_exponent,
    generate,
    read_records,
    run_experiment,
    write_records,
)

__version__ = "0.1.0"
