"""Comparison-counted solvers for 3SUM and its relatives, plus a benchmark
harness that verifies the counts' scaling empirically."""

from .core import (
    ComparisonLedger,
    TaggedReal,
    as_reals,
    box_order,
    difference_ticks,
    lower_bound,
    merge_sort_counted,
    mergesort_tick_count,
    sort_differences,
    staircase_visits,
    tag_cols,
    tag_rows,
    ternary_search,
    upper_bound,
)
from .dominance import (
    BLUE,
    RED,
    LabeledPoint,
    c_epsilon,
    match_candidates,
    report_dominating_pairs,
    sorting_permutations,
)
from .threesum import (
    BoxView,
    Contour,
    Grouping,
    LegalPairCatalog,
    PointSet,
    SubquadraticParams,
    Tripartition,
    compute_contour,
    default_group_size,
    deterministic_point_set,
    enumerate_legal_pairs,
    grid_span,
    is_bad,
    leq_positions,
    match_boxes,
    oracle_3sum,
    random_point_set,
    resolve_subquadratic_params,
    select_best_point_set,
    solve_decision_tree,
    solve_quadratic,
    solve_subquadratic,
    solve_subquadratic_simple,
)
from .ldt import LinearForm, oracle_kldt, reduce_kldt, solve_kldt
from .trimatrix import (
    ExtMatrix,
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
