"""Abstract interface shared by all encoding schemes.

A scheme is characterized by:

* its *catalog* — for attribute cardinality C, an ordered mapping from
  slot labels to the set of attribute values each stored bitmap
  represents (the paper's notational overload of a bitmap as a value
  set);
* its *evaluation equations* — expression builders for equality,
  one-sided and two-sided range queries, each returning an
  :class:`~repro.expr.Expr` whose leaves are slot labels.

Index construction and completeness checking are derived generically
from the catalog, so each concrete scheme only supplies its definition
and its (hand-derived, scan-minimal) evaluation equations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Hashable

import numpy as np

from repro.bitmap import BitVector
from repro.errors import EncodingSchemeError, QueryError
from repro.expr import BLOCK_WORDS, Expr, leaf, not_of, one, zero

SlotKey = Hashable
#: Builds the leaf an expression uses for a slot label.
LeafFn = Callable[[SlotKey], Expr]


class LeafTable(dict):
    """Interned leaves labelled ``(tag, slot)``, built through ``make_leaf``.

    Calling the table is a leaf constructor: a hybrid scheme tags its
    parts' slots with it, and the index rewriter tags each component's.
    """

    def __init__(self, tag: Hashable, make_leaf: LeafFn = leaf):
        super().__init__()
        self.tag = tag
        self.make_leaf = make_leaf

    def __missing__(self, slot: SlotKey) -> Expr:
        node = self[slot] = self.make_leaf((self.tag, slot))
        return node

    __call__ = dict.__getitem__


class EncodingScheme(ABC):
    """A bitmap encoding scheme for an attribute with cardinality C.

    Concrete schemes implement :meth:`catalog`, :meth:`eq_expr`,
    :meth:`le_expr` and (where they have a better plan than the default
    conjunction of one-sided queries) :meth:`two_sided_expr`.

    All expression builders assume the attribute domain is the integers
    ``[0, C)``, as in the paper, and build every leaf through the
    ``make_leaf`` the scheme was constructed with (by default a plain
    ``Leaf(slot)``; the index rewriter passes a :class:`LeafTable` of
    ``(component, slot)`` leaves, so no relabelling pass runs).
    """

    #: Registry name, e.g. ``"E"``, ``"R"``, ``"I"``.
    name: str = ""
    #: Whether the per-digit predicate ``alpha_k`` in the multi-component
    #: rewrite (Eq. 8) should be an equality (True) or a ``<=`` predicate
    #: (False) — schemes that evaluate equalities in one scan prefer the
    #: equality form (Section 6.2).
    prefers_equality: bool = False

    def __init__(self, make_leaf: LeafFn = leaf) -> None:
        self._leaf = make_leaf
        self._catalog_cache: dict[int, dict[SlotKey, frozenset[int]]] = {}
        self._membership_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Definition
    # ------------------------------------------------------------------

    def catalog(self, cardinality: int) -> dict[SlotKey, frozenset[int]]:
        """Ordered mapping of slot label -> represented value set.

        Memoized per cardinality; concrete schemes implement
        :meth:`_catalog`.
        """
        self._check_cardinality(cardinality)
        cached = self._catalog_cache.get(cardinality)
        if cached is None:
            cached = self._catalog(cardinality)
            self._catalog_cache[cardinality] = cached
        return cached

    @abstractmethod
    def _catalog(self, cardinality: int) -> dict[SlotKey, frozenset[int]]:
        """Build the catalog for ``cardinality`` (uncached)."""

    def num_bitmaps(self, cardinality: int) -> int:
        """Number of stored bitmaps (the paper's space cost)."""
        return len(self.catalog(cardinality))

    def slots(self, cardinality: int) -> list[SlotKey]:
        """Slot labels in storage order."""
        return list(self.catalog(cardinality))

    def _check_cardinality(self, cardinality: int) -> None:
        if cardinality < 1:
            raise EncodingSchemeError(
                f"cardinality must be >= 1, got {cardinality}"
            )

    def _check_value(self, cardinality: int, value: int) -> None:
        self._check_cardinality(cardinality)
        if not 0 <= value < cardinality:
            raise QueryError(
                f"value {value} outside domain [0, {cardinality})"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def membership(self, cardinality: int) -> np.ndarray:
        """``(slots, cardinality)`` boolean table: row ``i`` marks the
        values the ``i``-th catalog slot represents (memoized)."""
        table = self._membership_cache.get(cardinality)
        if table is None:
            catalog = self.catalog(cardinality)
            table = np.zeros((len(catalog), cardinality), dtype=bool)
            for row, value_set in enumerate(catalog.values()):
                table[row, list(value_set)] = True
            self._membership_cache[cardinality] = table
        return table

    def build(
        self, values: np.ndarray, cardinality: int
    ) -> dict[SlotKey, BitVector]:
        """Materialize the scheme's bitmaps for a value column.

        ``values`` holds one attribute value (in ``[0, cardinality)``)
        per record; the result maps each slot label to its bit vector of
        ``len(values)`` bits.  Every vector is one row of a single
        ``(slots, words)`` matrix, filled a block of at most
        :data:`~repro.expr.evaluator.BLOCK_WORDS` matrix words at a time:
        one gather of every slot's membership row through the block's
        values (a lookup table per slot), then ``np.packbits``.
        """
        self._check_cardinality(cardinality)
        vals = np.asarray(values)
        if vals.size and (vals.min() < 0 or vals.max() >= cardinality):
            raise EncodingSchemeError(
                f"column values outside domain [0, {cardinality}): "
                f"[{vals.min()}, {vals.max()}]"
            )
        table = self.membership(cardinality)
        length = int(vals.shape[0])
        num_words = -(-length // 64)
        matrix = np.zeros((table.shape[0], num_words), dtype=np.uint64)
        as_bytes = matrix.view(np.uint8)
        step = max(1, BLOCK_WORDS // max(1, table.shape[0]))
        for lo in range(0, num_words, step):
            # intp indices take numpy's fastest gather path.
            rows = vals[lo * 64 : (lo + step) * 64].astype(np.intp)
            start, stop = lo * 8, lo * 8 + -(-rows.size // 8)
            as_bytes[:, start:stop] = np.packbits(
                table.take(rows, axis=1), axis=1, bitorder="little"
            )
        return {
            slot: BitVector(length, matrix[row])
            for row, slot in enumerate(self.catalog(cardinality))
        }

    # ------------------------------------------------------------------
    # Evaluation equations
    # ------------------------------------------------------------------

    @abstractmethod
    def eq_expr(self, cardinality: int, value: int) -> Expr:
        """Expression for the equality query ``A = value``."""

    @abstractmethod
    def le_expr(self, cardinality: int, value: int) -> Expr:
        """Expression for the one-sided range query ``A <= value``.

        Must accept the full value range ``0 <= value <= C - 1``
        (``value == C - 1`` yields the all-ones constant).
        """

    def ge_expr(self, cardinality: int, value: int) -> Expr:
        """Expression for ``A >= value`` (via the complement of ``<=``)."""
        self._check_value(cardinality, value)
        if value == 0:
            return one()
        return not_of(self.le_expr(cardinality, value - 1))

    def two_sided_expr(self, cardinality: int, low: int, high: int) -> Expr:
        """Expression for ``low <= A <= high`` with ``0 < low < high < C-1``.

        The default conjoins the two one-sided queries; schemes with a
        cheaper plan (range: XOR, interval: the Eq. 6 case analysis)
        override this.
        """
        return self.le_expr(cardinality, high) & self.ge_expr(cardinality, low)

    def interval_expr(self, cardinality: int, low: int, high: int) -> Expr:
        """Expression for the interval query ``low <= A <= high``.

        Dispatches to the equality / one-sided / two-sided equations
        exactly as the paper classifies interval queries (Section 1).
        """
        self._check_value(cardinality, low)
        self._check_value(cardinality, high)
        if low > high:
            raise QueryError(f"empty interval [{low}, {high}]")
        if low == 0 and high == cardinality - 1:
            return one()
        if low == high:
            return self.eq_expr(cardinality, low)
        if low == 0:
            return self.le_expr(cardinality, high)
        if high == cardinality - 1:
            return self.ge_expr(cardinality, low)
        return self.two_sided_expr(cardinality, low, high)

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------

    def is_complete(self, cardinality: int) -> bool:
        """True iff every equality query is answerable from the catalog.

        A scheme is complete iff the membership-signature map
        ``v -> (v in B for each bitmap B)`` is injective (Section 3).
        """
        self._check_cardinality(cardinality)
        if cardinality == 1:
            return True
        catalog = self.catalog(cardinality)
        signatures = {
            tuple(v in s for s in catalog.values())
            for v in range(cardinality)
        }
        return len(signatures) == cardinality

    def update_cost(self, cardinality: int, value: int) -> int:
        """Bitmaps whose bit must be set when a record with ``value`` arrives.

        This is the §4.2 update-cost measure; the best/expected/worst
        figures quoted there are aggregations of this over the domain.
        """
        self._check_value(cardinality, value)
        return sum(
            1 for value_set in self.catalog(cardinality).values() if value in value_set
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def trivial_domain_expr(cardinality: int) -> Expr | None:
    """The universal answer for degenerate domains, or None.

    With ``cardinality == 1`` the only value is 0 and every non-empty
    query answer is the full relation; schemes share this guard.
    """
    if cardinality == 1:
        return one()
    return None


__all__ = ["EncodingScheme", "LeafFn", "LeafTable", "SlotKey", "trivial_domain_expr", "zero"]
