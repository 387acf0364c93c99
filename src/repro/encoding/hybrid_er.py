"""Equality-range hybrid encoding (the paper's ER, Section 5.1).

``ER = E ∪ R``, but ``R^0`` and ``R^{C-2}`` are not materialized because
``R^0 = E^0`` and ``R^{C-2} = NOT E^{C-1}``.  Equality constituents are
evaluated with the equality bitmaps (one scan) and range constituents
with the range bitmaps (one scan per side), so the scheme is the most
time-efficient hybrid at roughly double the space of the basic schemes.

Slot labels are ``("E", v)`` for the equality part and ``("R", v)`` for
the materialized range part (``1 <= v <= C-3``).
"""

from __future__ import annotations

from repro.encoding.base import EncodingScheme, SlotKey
from repro.errors import QueryError
from repro.expr import Expr, not_of, one


class EqualityRangeEncoding(EncodingScheme):
    """The equality-range hybrid scheme ER."""

    name = "ER"
    prefers_equality = True

    def _catalog(self, cardinality: int) -> dict[SlotKey, frozenset[int]]:
        catalog: dict[SlotKey, frozenset[int]] = {}
        if cardinality == 2:
            catalog[("E", 0)] = frozenset({0})
            return catalog
        for v in range(cardinality):
            catalog[("E", v)] = frozenset({v})
        for v in range(1, cardinality - 2):
            catalog[("R", v)] = frozenset(range(v + 1))
        return catalog

    def eq_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        if cardinality == 1:
            return one()
        if cardinality == 2:
            return self._leaf(("E", 0)) if value == 0 else not_of(self._leaf(("E", 0)))
        return self._leaf(("E", value))

    def le_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        if value == cardinality - 1:
            return one()
        if value == 0:
            return self.eq_expr(cardinality, 0)
        if value == cardinality - 2:
            # R^{C-2} = NOT E^{C-1} is virtual.
            return not_of(self.eq_expr(cardinality, cardinality - 1))
        return self._leaf(("R", value))

    def two_sided_expr(self, cardinality: int, low: int, high: int) -> Expr:
        if not 0 < low < high < cardinality - 1:
            raise QueryError(
                f"not a two-sided range for C={cardinality}: [{low}, {high}]"
            )
        # XOR of the two prefixes when both are real range bitmaps;
        # otherwise fall back to the conjunction of one-sided forms.
        if 1 <= low - 1 <= cardinality - 3 and 1 <= high <= cardinality - 3:
            return self._leaf(("R", high)) ^ self._leaf(("R", low - 1))
        return self.le_expr(cardinality, high) & self.ge_expr(cardinality, low)


__all__ = ["EqualityRangeEncoding"]
