"""Exact rational engine for connected fair cake-cutting: piecewise-constant
value measures, axiom checkers, monotone and classic division rules, and
resource/population-monotonicity harnesses."""

from .cake_measure import (
    CakeError,
    Density,
    Interval,
    Problem,
    Rat,
    SliceGrid,
    append,
    leftmost_mark,
    maximal_mark,
    merge_components,
    problem,
    remove_agent,
    rightmost_mark,
    suffix_mark,
    total,
    value,
    value_piece,
)
from .divisions import (
    ABSOLUTE,
    ADDITIVE,
    CONNECTED,
    RELATIVE,
    Division,
    check_ef,
    check_equitable,
    check_esv,
    check_po_connected,
    check_prop,
    check_wpo_connected,
    division_from_cuts,
    greedy_fit,
    max_slack,
    nash_product,
    pivot_max,
    sup_uniform_feasible,
    utilities,
    validate_division,
)
from .rules_monotone import (
    equitable_for_ordering,
    equitable_value_oracle,
    exact_proportional,
    max_equitable,
    rightmost_mark_rule,
)
from .rules_classic import (
    banach_knaster,
    cut_and_choose,
    dubins_spanier,
    even_paz,
    fink,
    selfridge_conway,
    split_equal,
)
from .monotonicity_harness import (
    RULES,
    check_pm,
    check_rm,
    compute_grid,
    get_rule,
    run_all_fixtures,
    run_fixture,
)

__version__ = "0.1.0"
