"""EI* — the space-reduced equality-interval hybrid (Section 5.4).

``EI* = I ∪ {P^1, ..., P^r}`` with ``r = ceil((C-4)/2)`` and
``P^i = E^i ∪ E^{i+m+1} = {i, i+m+1}`` (m as in interval encoding).
The design exploits the fact that ``I^0 = [0, m]`` is needed by most
range evaluations anyway: each pair bitmap intersected with ``I^0`` (or
its complement) isolates a single value, so equality queries cost two
scans of which one is the frequently cached ``I^0``.  The scheme
reduces to plain interval encoding when C <= 4.

The paper defers EI*'s evaluation expressions to the tech report; the
derivation used here (verified against the planner and naive scans):

* pairs cover the *low* values ``1..r`` and the *high* values
  ``m+2..m+1+r``;
* ``A = v`` with ``1 <= v <= r``:        ``P^v AND I^0``;
* ``A = v`` with ``m+2 <= v <= m+1+r``:  ``P^{v-m-1} AND NOT I^0``;
* the uncovered values (0; m and m+1 when not pair-covered; C-1) use
  the interval-encoding equality equation (also two scans);
* all range queries use the interval-encoding equations unchanged.

Slot labels are ``("I", j)`` and ``("P", i)``.
"""

from __future__ import annotations

from repro.encoding.base import EncodingScheme, LeafFn, LeafTable, SlotKey
from repro.encoding.interval import IntervalEncoding, interval_params
from repro.errors import QueryError
from repro.expr import Expr, leaf, not_of


def ei_star_params(cardinality: int) -> tuple[int, int]:
    """(pair count r, interval parameter m) for cardinality C."""
    _, m = interval_params(cardinality)
    r = max(0, (cardinality - 4 + 1) // 2)  # ceil((C-4)/2)
    return r, m


class EqualityIntervalStarEncoding(EncodingScheme):
    """The EI* hybrid scheme."""

    name = "EI*"
    prefers_equality = True

    def __init__(self, make_leaf: LeafFn = leaf) -> None:
        super().__init__(make_leaf)
        self._interval = IntervalEncoding(LeafTable("I", make_leaf))

    def _catalog(self, cardinality: int) -> dict[SlotKey, frozenset[int]]:
        catalog: dict[SlotKey, frozenset[int]] = {
            ("I", slot): values
            for slot, values in self._interval.catalog(cardinality).items()
        }
        r, m = ei_star_params(cardinality)
        for i in range(1, r + 1):
            catalog[("P", i)] = frozenset({i, i + m + 1})
        return catalog

    def eq_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        r, m = ei_star_params(cardinality)
        if r:
            if 1 <= value <= r:
                return self._leaf(("P", value)) & self._leaf(("I", 0))
            if m + 2 <= value <= m + 1 + r:
                return self._leaf(("P", value - m - 1)) & not_of(self._leaf(("I", 0)))
        return self._interval.eq_expr(cardinality, value)

    def le_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        return self._interval.le_expr(cardinality, value)

    def two_sided_expr(self, cardinality: int, low: int, high: int) -> Expr:
        if not 0 < low < high < cardinality - 1:
            raise QueryError(
                f"not a two-sided range for C={cardinality}: [{low}, {high}]"
            )
        return self._interval.two_sided_expr(cardinality, low, high)


__all__ = ["EqualityIntervalStarEncoding", "ei_star_params"]
