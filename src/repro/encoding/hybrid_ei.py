"""Equality-interval hybrid encoding (the paper's EI, Section 5.3).

``EI = E ∪ I``: equality constituents are answered from the equality
bitmaps (one scan) and range constituents from the interval bitmaps
(at most two scans).  Per the paper, EI reduces to plain equality
encoding when C < 3.

Slot labels are ``("E", v)`` and ``("I", j)``.
"""

from __future__ import annotations

from repro.encoding.base import EncodingScheme, LeafFn, LeafTable, SlotKey
from repro.encoding.equality import EqualityEncoding
from repro.encoding.interval import IntervalEncoding
from repro.errors import QueryError
from repro.expr import Expr, leaf


class EqualityIntervalEncoding(EncodingScheme):
    """The equality-interval hybrid scheme EI."""

    name = "EI"
    prefers_equality = True

    def __init__(self, make_leaf: LeafFn = leaf) -> None:
        super().__init__(make_leaf)
        self._equality = EqualityEncoding(LeafTable("E", make_leaf))
        self._interval = IntervalEncoding(LeafTable("I", make_leaf))

    def _uses_interval(self, cardinality: int) -> bool:
        return cardinality >= 3

    def _catalog(self, cardinality: int) -> dict[SlotKey, frozenset[int]]:
        catalog: dict[SlotKey, frozenset[int]] = {
            ("E", slot): values
            for slot, values in self._equality.catalog(cardinality).items()
        }
        if self._uses_interval(cardinality):
            for slot, values in self._interval.catalog(cardinality).items():
                catalog[("I", slot)] = values
        return catalog

    def eq_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        return self._equality.eq_expr(cardinality, value)

    def le_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        if not self._uses_interval(cardinality):
            return self._equality.le_expr(cardinality, value)
        return self._interval.le_expr(cardinality, value)

    def two_sided_expr(self, cardinality: int, low: int, high: int) -> Expr:
        if not 0 < low < high < cardinality - 1:
            raise QueryError(
                f"not a two-sided range for C={cardinality}: [{low}, {high}]"
            )
        return self._interval.two_sided_expr(cardinality, low, high)


__all__ = ["EqualityIntervalEncoding"]
