"""Interval encoding (the paper's I, Section 4, Equations 4-6).

With m = floor(C/2) - 1, the scheme stores ceil(C/2) bitmaps
``I^j = [j, j + m]`` for j in 0..ceil(C/2)-1 — about half the space of
range encoding — while still answering every interval query in at most
two bitmap scans.

The equality and one-sided equations follow the paper's Equations (4)
and (5).  The two-sided case analysis (Equation 6; the paper defers the
full derivation to the tech report) is re-derived here.  Writing
``k = ceil(C/2)`` (so stored indexes are ``0..k-1``) and ``d = v2 - v1``
for a two-sided query ``[v1, v2]`` with ``0 < v1 < v2 < C-1``:

* ``d == m``: the query *is* a stored bitmap, ``I^{v1}`` (one scan;
  ``v1 = v2 - m <= C-2-m <= k-1`` so the index is valid);
* ``d > m``: ``I^{v1} OR I^{v2-m}`` — the two intervals overlap or abut
  because ``d <= C-3 <= 2m+1``, and their union is exactly ``[v1, v2]``;
* ``d < m``: exactly one of three two-scan forms applies:

  - ``I^{v1} AND I^{v2-m}``        when ``v1 <= k-1`` and ``v2 >= m``,
  - ``I^{v1} AND NOT I^{v2+1}``    when ``v1 <= k-1`` and ``v2 < m``
    (then ``v2+1 <= m <= k-1``),
  - ``I^{v2-m} AND NOT I^{v1-m-1}`` when ``v1 > k-1`` (then
    ``v1 >= m+1`` so both indexes are valid).

  Coverage: if ``v1 <= k-1`` one of the first two applies depending on
  ``v2 >= m``; otherwise the third does, so every legal (v1, v2) is
  answered in at most two scans.
"""

from __future__ import annotations

from repro.encoding.base import EncodingScheme, SlotKey
from repro.errors import QueryError
from repro.expr import Expr, not_of, one


def interval_params(cardinality: int) -> tuple[int, int]:
    """(number of bitmaps k, interval width parameter m) for cardinality C."""
    k = (cardinality + 1) // 2
    m = cardinality // 2 - 1
    return k, m


class IntervalEncoding(EncodingScheme):
    """The interval encoding scheme I."""

    name = "I"
    prefers_equality = False

    def _catalog(self, cardinality: int) -> dict[SlotKey, frozenset[int]]:
        if cardinality == 1:
            return {}
        k, m = interval_params(cardinality)
        return {
            j: frozenset(range(j, j + m + 1)) for j in range(k)
        }

    # ------------------------------------------------------------------
    # Equation (4): equality queries
    # ------------------------------------------------------------------

    def eq_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        if cardinality == 1:
            return one()
        k, m = interval_params(cardinality)
        if m == 0:
            # C = 2 or C = 3: each stored bitmap is a singleton.
            if value < k:
                return self._leaf(value)
            if cardinality == 2:
                return not_of(self._leaf(0))
            # C = 3, value = 2.
            return not_of(self._leaf(0) | self._leaf(1))
        if value == cardinality - 1:
            return not_of(self._leaf(k - 1) | self._leaf(0))
        if value < m:
            return self._leaf(value) & not_of(self._leaf(value + 1))
        if value == m:
            return self._leaf(m) & self._leaf(0)
        # m < value < C - 1: {v} = I^{v-m} \ I^{v-m-1}.
        return self._leaf(value - m) & not_of(self._leaf(value - m - 1))

    # ------------------------------------------------------------------
    # Equation (5): one-sided range queries
    # ------------------------------------------------------------------

    def le_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        if value == cardinality - 1:
            return one()
        if value == 0:
            return self.eq_expr(cardinality, 0)
        _, m = interval_params(cardinality)
        if value < m:
            return self._leaf(0) & not_of(self._leaf(value + 1))
        if value == m:
            return self._leaf(0)
        return self._leaf(0) | self._leaf(value - m)

    # ------------------------------------------------------------------
    # Equation (6): two-sided range queries (derivation in module docstring)
    # ------------------------------------------------------------------

    def two_sided_expr(self, cardinality: int, low: int, high: int) -> Expr:
        if not 0 < low < high < cardinality - 1:
            raise QueryError(
                f"not a two-sided range for C={cardinality}: [{low}, {high}]"
            )
        k, m = interval_params(cardinality)
        d = high - low
        if d == m:
            return self._leaf(low)
        if d > m:
            return self._leaf(low) | self._leaf(high - m)
        # d < m: one of three two-scan forms applies.
        if low <= k - 1:
            if high >= m:
                return self._leaf(low) & self._leaf(high - m)
            return self._leaf(low) & not_of(self._leaf(high + 1))
        return self._leaf(high - m) & not_of(self._leaf(low - m - 1))


__all__ = ["IntervalEncoding", "interval_params"]
