"""OREO encoding (Oscillating Range and Equality Organization, §5.2).

OREO interleaves range- and equality-flavoured bitmaps within the same
C - 1 bitmap budget as range encoding:

* ``O^i = R^i = [0, i]``        for odd i, ``1 <= i < C-1``;
* ``O^i = E^{i-1} OR E^i = {i-1, i}`` for even i, ``1 <= i < C-1``;
* ``O^{C-1} =`` the set of all even values (the *parity* bitmap).

The paper defers OREO's evaluation expressions to the tech report; the
derivation used here (verified against the brute-force planner) is:

one-sided ``A <= v`` (v < C-1):
    * v odd:  ``R^v``                                   (1 scan)
    * v = 0:  ``parity AND R^1`` (or ``parity`` when C = 2) (2 scans)
    * v even, v >= 2: ``R^{v-1} OR O^v``                 (2 scans;
      ``[0,v-1] ∪ {v-1,v} = [0,v]``)

equality ``A = v``:
    * v = 0:              ``parity AND R^1``  (``parity`` when C = 2)
    * v even, 0 < v < C-1: ``O^v AND parity``            (2 scans)
    * v odd, v+1 < C-1:    ``O^{v+1} AND NOT parity``    (2 scans)
    * v = 1 = C-2:         ``R^1 AND NOT parity``        (2 scans)
    * v odd, v = C-2 >= 3: ``(R^{C-2} XOR R^{C-4}) AND NOT parity``
      (3 scans; the even neighbour's pair bitmap does not exist because
      ``C-1`` is the parity slot)
    * v = C-1 odd (C even): ``NOT (R^{C-3} OR O^{C-2})``  (2 scans)
    * v = C-1 even (C odd): ``NOT R^{C-2}``               (1 scan)

two-sided ranges:
    * ``{v, v+1}`` with odd v is exactly the stored pair ``O^{v+1}``
      (1 scan);
    * both-prefixes-stored cases XOR two range bitmaps (2 scans);
    * otherwise the one-sided forms are conjoined (2-4 scans).
"""

from __future__ import annotations

from repro.encoding.base import EncodingScheme, SlotKey
from repro.errors import QueryError
from repro.expr import Expr, not_of, one

_PARITY = "parity"


def _parity_key(cardinality: int) -> SlotKey:
    """Slot label of the parity bitmap O^{C-1}."""
    return cardinality - 1


class OreoEncoding(EncodingScheme):
    """The OREO hybrid scheme O."""

    name = "O"
    prefers_equality = False

    def _catalog(self, cardinality: int) -> dict[SlotKey, frozenset[int]]:
        catalog: dict[SlotKey, frozenset[int]] = {}
        for i in range(1, cardinality - 1):
            if i % 2:
                catalog[i] = frozenset(range(i + 1))
            else:
                catalog[i] = frozenset({i - 1, i})
        if cardinality >= 2:
            catalog[cardinality - 1] = frozenset(
                v for v in range(cardinality) if v % 2 == 0
            )
        return catalog

    # ------------------------------------------------------------------

    def eq_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        c = cardinality
        if c == 1:
            return one()
        parity = self._leaf(_parity_key(c))
        if value == 0:
            if c == 2:
                return parity
            return parity & self._leaf(1)
        if value == c - 1:
            if value % 2 == 0:
                # C odd: R^{C-2} exists (C-2 is odd).
                return not_of(self._leaf(c - 2))
            if c == 2:
                return not_of(parity)
            # C even: complement of A <= C-2 (C-2 even, >= 2).
            return not_of(self._leaf(c - 3) | self._leaf(c - 2))
        if value % 2 == 0:
            # Interior even value: pair bitmap restricted to evens.
            return self._leaf(value) & parity
        # Interior odd value.
        if value + 1 < c - 1:
            return self._leaf(value + 1) & not_of(parity)
        # value == C-2 (odd, so C is odd) and the pair O^{C-1} is the
        # parity slot instead.
        if value == 1:
            return self._leaf(1) & not_of(parity)
        return (self._leaf(value) ^ self._leaf(value - 2)) & not_of(parity)

    # ------------------------------------------------------------------

    def le_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        c = cardinality
        if value == c - 1:
            return one()
        if value == 0:
            return self.eq_expr(c, 0)
        if value % 2:
            return self._leaf(value)
        return self._leaf(value - 1) | self._leaf(value)

    def two_sided_expr(self, cardinality: int, low: int, high: int) -> Expr:
        if not 0 < low < high < cardinality - 1:
            raise QueryError(
                f"not a two-sided range for C={cardinality}: [{low}, {high}]"
            )
        if high == low + 1 and low % 2 and high < cardinality - 1:
            # {low, low+1} with odd low is exactly the stored pair
            # bitmap O^{low+1}.
            return self._leaf(high)
        if low % 2 == 0 and high % 2:
            # Both prefixes are stored range bitmaps: XOR them.
            return self._leaf(high) ^ self._leaf(low - 1)
        return self.le_expr(cardinality, high) & self.ge_expr(cardinality, low)


__all__ = ["OreoEncoding"]
