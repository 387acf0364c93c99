"""Range encoding (the paper's R, Section 2, Equation 2).

C - 1 bitmaps ``R^v = [0, v]`` for v in 0..C-2 (``R^{C-1}`` would be all
ones and is never stored).  Equation (2) evaluates every interval query
in at most two bitmap scans:

* ``A = 0``            -> ``R^0``
* ``A = v`` (interior) -> ``R^v XOR R^{v-1}``
* ``A = C-1``          -> ``NOT R^{C-2}``
* ``A <= v``           -> ``R^v``
* ``A >= v``           -> ``NOT R^{v-1}``
* ``v1 <= A <= v2``    -> ``R^{v2} XOR R^{v1-1}`` (valid because
  ``[0, v1-1]`` is a subset of ``[0, v2]``).
"""

from __future__ import annotations

from repro.encoding.base import EncodingScheme, SlotKey
from repro.errors import QueryError
from repro.expr import Expr, not_of, one


class RangeEncoding(EncodingScheme):
    """The range encoding scheme R."""

    name = "R"
    prefers_equality = False

    def _catalog(self, cardinality: int) -> dict[SlotKey, frozenset[int]]:
        return {
            v: frozenset(range(v + 1)) for v in range(cardinality - 1)
        }

    def eq_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        if cardinality == 1:
            return one()
        if value == 0:
            return self._leaf(0)
        if value == cardinality - 1:
            return not_of(self._leaf(cardinality - 2))
        return self._leaf(value) ^ self._leaf(value - 1)

    def le_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        if value == cardinality - 1:
            return one()
        return self._leaf(value)

    def two_sided_expr(self, cardinality: int, low: int, high: int) -> Expr:
        if not 0 < low < high < cardinality - 1:
            raise QueryError(
                f"not a two-sided range for C={cardinality}: [{low}, {high}]"
            )
        return self._leaf(high) ^ self._leaf(low - 1)


__all__ = ["RangeEncoding"]
