"""Equality encoding (the paper's E, Section 2, Equation 1).

C bitmaps ``E^v = {v}``; the i-th bit of ``E^v`` is set iff record i has
value v.  Following the paper's footnote, the degenerate case C = 2
stores only ``E^0`` (since ``E^1`` is its complement).

Interval queries are evaluated by Equation (1): OR the bitmaps inside
the interval if there are at most ``floor(C/2)`` of them, otherwise
complement the OR of the bitmaps outside it.
"""

from __future__ import annotations

from repro.encoding.base import EncodingScheme, SlotKey
from repro.errors import QueryError
from repro.expr import Expr, not_of, one, or_of


class EqualityEncoding(EncodingScheme):
    """The equality encoding scheme E."""

    name = "E"
    prefers_equality = True

    def _catalog(self, cardinality: int) -> dict[SlotKey, frozenset[int]]:
        if cardinality == 2:
            return {0: frozenset({0})}
        return {v: frozenset({v}) for v in range(cardinality)}

    def eq_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        if cardinality == 1:
            return one()
        if cardinality == 2:
            return self._leaf(0) if value == 0 else not_of(self._leaf(0))
        return self._leaf(value)

    def le_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        if value == cardinality - 1:
            return one()
        return self._interval(cardinality, 0, value)

    def two_sided_expr(self, cardinality: int, low: int, high: int) -> Expr:
        if not 0 < low < high < cardinality - 1:
            raise QueryError(
                f"not a two-sided range for C={cardinality}: [{low}, {high}]"
            )
        return self._interval(cardinality, low, high)

    def _interval(self, cardinality: int, low: int, high: int) -> Expr:
        """Equation (1): direct OR or complemented OR, whichever is smaller."""
        if cardinality == 2:
            # Only proper sub-domain interval here is a singleton.
            return self.eq_expr(cardinality, low)
        width = high - low + 1
        if width <= cardinality // 2:
            return or_of(self._leaf(v) for v in range(low, high + 1))
        outside = [self._leaf(v) for v in range(0, low)]
        outside += [self._leaf(v) for v in range(high + 1, cardinality)]
        return not_of(or_of(outside))


__all__ = ["EqualityEncoding"]
