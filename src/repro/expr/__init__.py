"""Boolean expression engine over stored bitmaps.

Every encoding scheme in the paper answers a query by combining a few
stored bitmaps with AND/OR/XOR/NOT (Equations 1, 2, 4-6).  This
subpackage provides the shared machinery:

* :mod:`repro.expr.nodes` — the expression AST (``Leaf``, ``Not``,
  ``And``, ``Or``, ``Xor``, ``Const``);
* :mod:`repro.expr.simplify` — algebraic simplification;
* :mod:`repro.expr.plan` — a query's rewritten constituents compiled
  once into the :class:`~repro.expr.plan.QueryPlan` that evaluation and
  cost accounting read;
* :mod:`repro.expr.evaluator` — evaluation against a bitmap fetcher,
  one destination-passing walk per word range, with scan/operation
  accounting;
* :mod:`repro.expr.planner` — a brute-force planner that finds the
  minimal number of bitmap scans needed to answer a query under an
  arbitrary bitmap catalog (used to validate the hand-derived evaluation
  equations and the optimality theorems).
"""

from repro.expr.evaluator import (
    BLOCK_WORDS,
    EvalStats,
    evaluate,
    expression_operation_count,
    expression_scan_count,
)
from repro.expr.nodes import (
    And,
    Const,
    Expr,
    Leaf,
    Not,
    Or,
    Xor,
    and_of,
    leaf,
    not_of,
    one,
    or_of,
    xor_of,
    zero,
)
from repro.expr.plan import QueryPlan, compile_query
from repro.expr.planner import minimal_scan_cost, plan_expression
from repro.expr.render import to_dot, to_tree
from repro.expr.simplify import simplify
from repro.expr.threshold import (
    AtLeast,
    Exactly,
    Majority,
    Threshold,
    at_least,
    exactly,
    lower_wide_ors,
    majority,
)

__all__ = [
    "Expr",
    "Leaf",
    "Not",
    "And",
    "Or",
    "Xor",
    "Const",
    "Threshold",
    "AtLeast",
    "Exactly",
    "Majority",
    "at_least",
    "exactly",
    "majority",
    "lower_wide_ors",
    "leaf",
    "not_of",
    "and_of",
    "or_of",
    "xor_of",
    "one",
    "zero",
    "simplify",
    "evaluate",
    "QueryPlan",
    "compile_query",
    "BLOCK_WORDS",
    "EvalStats",
    "expression_scan_count",
    "expression_operation_count",
    "minimal_scan_cost",
    "plan_expression",
    "to_tree",
    "to_dot",
]
