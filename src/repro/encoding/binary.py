"""Binary (bit-sliced) encoding — the §2 related-work design.

Wu and Buchmann's encoded bitmap index represents each attribute value
in binary: ``k = ceil(log2 C)`` bitmaps, where bitmap ``B_i`` marks the
records whose value has bit i set.  In the paper's framework this is
the equality-encoded index with the maximum number of components
(base <2, 2, ..., 2>); implementing it as a one-component scheme makes
it directly comparable in the Figure 3 performance field, where it is
the extreme low-space / high-time point.

Evaluation:

* equality — the conjunction of all k slices or their complements
  (k scans);
* ``A <= v`` — the classic bit-sliced range walk from the most
  significant slice down::

      le = OR over set bits i of v:   (AND of matching higher slices) AND NOT B_i
           OR (AND of all slices matching v)          -- the equality tail

  which also touches exactly the k slices (complements are free);
* two-sided ranges conjoin two one-sided walks over the *same* k
  slices, so every interval query costs exactly k scans.

With space ``ceil(log2 C)`` and time ``~log2 C`` this scheme is
Pareto-incomparable to E/R/I rather than dominated — the design-space
corner the paper's §2 discussion situates it in.
"""

from __future__ import annotations

from repro.encoding.base import EncodingScheme, SlotKey
from repro.errors import QueryError
from repro.expr import Expr, and_of, not_of, one, or_of
from repro.expr.nodes import And


def num_slices(cardinality: int) -> int:
    """Number of binary slices for cardinality C: ceil(log2 C)."""
    return max(0, (cardinality - 1).bit_length())


class BinaryEncoding(EncodingScheme):
    """The binary (bit-sliced) encoding scheme ``B``."""

    name = "B"
    prefers_equality = True

    def _catalog(self, cardinality: int) -> dict[SlotKey, frozenset[int]]:
        k = num_slices(cardinality)
        return {
            i: frozenset(
                v for v in range(cardinality) if (v >> i) & 1
            )
            for i in range(k)
        }

    def _slice(self, bit_index: int, bit_value: int) -> Expr:
        """``B_i`` or its complement."""
        node = self._leaf(bit_index)
        return node if bit_value else not_of(node)

    def eq_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        k = num_slices(cardinality)
        if k == 0:
            return one()
        return and_of(
            self._slice(i, (value >> i) & 1) for i in reversed(range(k))
        )

    def le_expr(self, cardinality: int, value: int) -> Expr:
        self._check_value(cardinality, value)
        if value == cardinality - 1:
            return one()
        k = num_slices(cardinality)
        # Evaluate as A < value+1 with the MSB-to-LSB walk: a record is
        # below w iff it matches w on some slice prefix and has a 0
        # where w has a 1.  Using w = value+1 (always < 2^k here since
        # value <= C-2) skips value's trailing one-bits for free — e.g.
        # "A <= 31" needs only the one slice B_5.
        w = value + 1
        terms: list[Expr] = []
        prefix: list[Expr] = []
        for i in reversed(range(k)):
            bit = (w >> i) & 1
            if bit:
                terms.append(and_of([*prefix, not_of(self._leaf(i))]))
            prefix.append(self._slice(i, bit))
        return or_of(terms)

    def two_sided_expr(self, cardinality: int, low: int, high: int) -> Expr:
        if not 0 < low < high < cardinality - 1:
            raise QueryError(
                f"not a two-sided range for C={cardinality}: [{low}, {high}]"
            )
        # One flat conjunction: the upper walk is itself an AND when it
        # has a single term, and nesting it would not be canonical.
        upper = self.le_expr(cardinality, high)
        terms = upper.operands if isinstance(upper, And) else (upper,)
        return and_of([*terms, self.ge_expr(cardinality, low)])


__all__ = ["BinaryEncoding", "num_slices"]
