"""Cost-based expression selection (extension).

The paper's evaluation equations choose between alternative forms by
*bitmap count* — e.g. Equation (1) ORs whichever side of an interval
has fewer equality bitmaps.  With compressed storage, counts are a poor
proxy: ten near-empty bitmaps may be cheaper to read than three dense
ones.  :class:`CostBasedRewriter` re-decides those choices against the
*actual stored sizes* in a bitmap store, the way a cost-based optimizer
would:

* for each digit-level interval predicate, candidate expressions are
  generated (for equality encoding: the direct OR and the complemented
  OR, regardless of which side is narrower);
* each candidate is priced as the total encoded bytes of its distinct
  leaves (the I/O the query would read), with the count as tiebreak;
* the cheapest candidate wins.

For count-symmetric schemes (R, I, ...) there is a single candidate and
the rewriter behaves identically to the base class.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.encoding.base import EncodingScheme, LeafFn
from repro.encoding.equality import EqualityEncoding
from repro.expr import Expr, leaf, not_of, one, or_of
from repro.index.rewrite import QueryRewriter
from repro.storage.store import BitmapStore


def equality_interval_candidates(
    cardinality: int, low: int, high: int, make_leaf: LeafFn = leaf
) -> list[Expr]:
    """Both Equation (1) forms for an equality-encoded interval."""
    if cardinality <= 2 or (low == 0 and high == cardinality - 1):
        return []
    inside = or_of(make_leaf(v) for v in range(low, high + 1))
    outside_leaves = [make_leaf(v) for v in range(0, low)] + [
        make_leaf(v) for v in range(high + 1, cardinality)
    ]
    candidates = [inside]
    if outside_leaves:
        candidates.append(not_of(or_of(outside_leaves)))
    return candidates


class CostBasedRewriter(QueryRewriter):
    """A :class:`~repro.index.rewrite.QueryRewriter` that prices
    candidate expressions against a store's actual bitmap sizes."""

    def __init__(
        self,
        cardinality: int,
        bases: Sequence[int],
        scheme: EncodingScheme,
        store: BitmapStore,
    ):
        super().__init__(cardinality, bases, scheme)
        self._store = store
        self._size_cache: dict[Hashable, int] = {}

    def _leaf_bytes(self, key: Hashable) -> int:
        size = self._size_cache.get(key)
        if size is None:
            size = self._store.info(key).encoded_bytes if key in self._store else 0
            self._size_cache[key] = size
        return size

    def expression_cost(self, expr: Expr) -> tuple[int, int]:
        """(total encoded bytes, leaf count) of an expression's reads."""
        keys = expr.leaf_keys()
        return (sum(self._leaf_bytes(key) for key in keys), len(keys))

    def _digit_interval(self, component: int, low: int, high: int) -> Expr:
        base = self.bases[component]
        default = super()._digit_interval(component, low, high)
        if not isinstance(self.scheme, EqualityEncoding):
            return default
        candidates = equality_interval_candidates(
            base, low, high, self._leaves[component]
        )
        if not candidates:
            return default
        return min([default, *candidates], key=self.expression_cost)

    def _digit_le(self, component: int, digit: int) -> Expr:
        # Route digit prefixes through the interval pricing too.
        if digit >= self.bases[component] - 1:
            return one()
        return self._digit_interval(component, 0, digit)
