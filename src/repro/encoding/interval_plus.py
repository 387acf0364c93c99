"""The odd-cardinality interval-encoding variant (paper footnote 4).

The paper's Section 4 defines interval encoding with interval width
``m + 1`` where ``m = floor(C/2) - 1`` and notes that "another variant
of the interval encoding scheme for the case when C is odd is discussed
elsewhere [CI98a]".  Our exhaustive optimality search (Table 1
experiment) shows why the variant exists: at odd C the main-text scheme
is *not* on the 1RQ/RQ Pareto frontier, while the variant with

* ``m' = floor(C/2)`` (one wider interval),
* ``ceil(C/2)`` bitmaps ``I^j = [j, j + m']`` for ``j = 0..floor(C/2)``

is — e.g. at C = 5 the search's dominating catalog {[0,2], [1,3],
[2,4]} is exactly this variant.  For even C the two schemes coincide
(``m' = m + 1`` would overshoot; we keep ``m' = C/2 - 1``).

Evaluation equations are the same case analysis as the main scheme with
two differences at odd C: the last stored bitmap reaches C-1, so
``A = C-1`` is ``I^{m'} AND NOT I^{m'-1}`` rather than a complemented
union, and C = 3 needs no special-casing (m' = 1 there).
"""

from __future__ import annotations

from repro.encoding.base import EncodingScheme, LeafFn, SlotKey
from repro.encoding.interval import IntervalEncoding
from repro.errors import QueryError
from repro.expr import Expr, leaf, not_of, one


def interval_plus_params(cardinality: int) -> tuple[int, int]:
    """(number of bitmaps k, width parameter m') for cardinality C."""
    if cardinality % 2:
        m = cardinality // 2
    else:
        m = cardinality // 2 - 1
    k = (cardinality + 1) // 2
    return k, m


class IntervalPlusEncoding(EncodingScheme):
    """Interval encoding with the odd-C width variant (``"I+"``).

    Identical to :class:`~repro.encoding.interval.IntervalEncoding` for
    even C; strictly better expected 1RQ/RQ scans at odd C.
    """

    name = "I+"
    prefers_equality = False

    def __init__(self, make_leaf: LeafFn = leaf) -> None:
        super().__init__(make_leaf)
        self._even = IntervalEncoding(make_leaf)

    def _is_odd(self, cardinality: int) -> bool:
        return cardinality % 2 == 1 and cardinality >= 3

    def _catalog(self, cardinality: int) -> dict[SlotKey, frozenset[int]]:
        if not self._is_odd(cardinality):
            return dict(self._even.catalog(cardinality))
        k, m = interval_plus_params(cardinality)
        return {j: frozenset(range(j, j + m + 1)) for j in range(k)}

    # ------------------------------------------------------------------

    def eq_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        if not self._is_odd(cardinality):
            return self._even.eq_expr(cardinality, value)
        k, m = interval_plus_params(cardinality)
        if value < m:
            return self._leaf(value) & not_of(self._leaf(value + 1))
        if value == m:
            return self._leaf(m) & self._leaf(0)
        if value == cardinality - 1:
            # The last bitmap reaches C-1: {C-1} = I^{m} \ I^{m-1}.
            return self._leaf(m) & not_of(self._leaf(m - 1))
        # m < value < C-1: {v} = I^{v-m} \ I^{v-m-1}.
        return self._leaf(value - m) & not_of(self._leaf(value - m - 1))

    def le_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        if not self._is_odd(cardinality):
            return self._even.le_expr(cardinality, value)
        _, m = interval_plus_params(cardinality)
        if value == cardinality - 1:
            return one()
        if value < m:
            return self._leaf(0) & not_of(self._leaf(value + 1))
        if value == m:
            return self._leaf(0)
        return self._leaf(0) | self._leaf(value - m)

    def ge_expr(self, cardinality: int, value: int) -> Expr:
        """``A >= value`` using the odd-C catalog's reflection symmetry.

        At odd C the catalog is symmetric under ``x -> C-1-x`` (bitmap
        ``I^j`` maps to ``I^{m-j}``), so every ``>=`` query mirrors a
        ``<=`` query: ``[v, C-1]`` costs exactly what ``[0, C-1-v]``
        does, instead of paying the complement recursion's extra scan.
        """
        self._check_value(cardinality, value)
        if not self._is_odd(cardinality):
            return super().ge_expr(cardinality, value)
        _, m = interval_plus_params(cardinality)
        if value == 0:
            return one()
        if value == m:
            return self._leaf(m)
        if value == m + 1:
            return not_of(self._leaf(0))
        if value < m:
            return self._leaf(m) | self._leaf(value)
        # value > m + 1 (includes value == C-1).
        return self._leaf(m) & not_of(self._leaf(value - m - 1))

    def two_sided_expr(self, cardinality: int, low: int, high: int) -> Expr:
        if not 0 < low < high < cardinality - 1:
            raise QueryError(
                f"not a two-sided range for C={cardinality}: [{low}, {high}]"
            )
        if not self._is_odd(cardinality):
            return self._even.two_sided_expr(cardinality, low, high)
        _, m = interval_plus_params(cardinality)
        d = high - low
        if d == m:
            return self._leaf(low)
        if d > m:
            return self._leaf(low) | self._leaf(high - m)
        if low <= m:
            if high >= m:
                return self._leaf(low) & self._leaf(high - m)
            return self._leaf(low) & not_of(self._leaf(high + 1))
        return self._leaf(high - m) & not_of(self._leaf(low - m - 1))


__all__ = ["IntervalPlusEncoding", "interval_plus_params"]
