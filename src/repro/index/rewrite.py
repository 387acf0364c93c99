"""Query rewrite for multi-component indexes (Sections 6.1 and 6.2).

The rewrite pipeline takes a membership or interval query and produces
a bitmap-level expression whose leaves are ``(component, slot)`` pairs:

1. *membership rewrite* — a membership query becomes a disjunction of
   its minimal interval constituents
   (:func:`repro.queries.rewrite.minimal_intervals`);
2. *interval rewrite* — each interval constituent's endpoints are
   decomposed into digits (Equation 3) and the interval becomes a
   digit-level predicate tree: Equation (7) for equalities, the
   Equation (8) recursion for one-sided ranges (including the
   trailing-maximal-digit elision and the scheme-dependent choice of
   ``alpha_k``), and the common-prefix-plus-split form of §6.2 for
   two-sided ranges;
3. *predicate rewrite* — each digit-level predicate is expanded with
   the component scheme's one-component evaluation equations
   (Equations 1, 2, 4-6), bound to interned ``(component, slot)`` leaves.

A multi-component rewrite is normalized with :func:`~repro.expr.simplify`;
a one-component rewrite is the scheme's own equation, which every scheme
emits in canonical form (``tests/index/test_rewrite.py`` checks C <= 40).

Component positions follow the paper: component n is the most
significant.  Internally components are numbered by their position in
the base sequence tuple (index 0 = most significant); leaf keys use
those positions.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.encoding.base import EncodingScheme, LeafTable
from repro.errors import QueryError
from repro.expr import Expr, and_of, not_of, one, or_of, simplify
from repro.expr.threshold import Threshold
from repro.index.decompose import decompose_value, validate_bases
from repro.queries.model import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.queries.rewrite import minimal_intervals


class QueryRewriter:
    """Rewrites queries into bitmap expressions for one index layout.

    Parameters
    ----------
    cardinality:
        Attribute cardinality C.
    bases:
        Base sequence, most significant first (validated).
    scheme:
        Encoding scheme used by every component (as in the paper's
        experiments, where an index's components share one encoding).
    """

    def __init__(
        self,
        cardinality: int,
        bases: Sequence[int],
        scheme: EncodingScheme,
    ):
        self.cardinality = cardinality
        self.bases = validate_bases(bases, cardinality)
        self.scheme = scheme
        self.num_components = len(self.bases)
        self._leaves = [LeafTable(c) for c in range(self.num_components)]
        self._schemes = [type(scheme)(table) for table in self._leaves]

    # ------------------------------------------------------------------
    # Per-digit predicate expansion (rewrite step 3)
    # ------------------------------------------------------------------

    def _digit_eq(self, component: int, digit: int) -> Expr:
        return self._schemes[component].eq_expr(self.bases[component], digit)

    def _digit_le(self, component: int, digit: int) -> Expr:
        base = self.bases[component]
        if digit >= base - 1:
            return one()
        return self._schemes[component].le_expr(base, digit)

    def _digit_interval(self, component: int, low: int, high: int) -> Expr:
        return self._schemes[component].interval_expr(
            self.bases[component], low, high
        )

    def _alpha(self, component: int, digit: int) -> Expr:
        """The Eq. (8) ``alpha_k`` predicate: ``=`` or ``<=`` by scheme."""
        if self.scheme.prefers_equality:
            return self._digit_eq(component, digit)
        return self._digit_le(component, digit)

    # ------------------------------------------------------------------
    # Digit-level predicates (rewrite step 2)
    # ------------------------------------------------------------------

    def _eq_digits(self, digits: Sequence[int]) -> Expr:
        """Equation (7): conjunction of per-component equalities."""
        return and_of(
            self._digit_eq(component, digit)
            for component, digit in enumerate(digits)
        )

    def _le_digits(self, digits: Sequence[int], start: int = 0) -> Expr:
        """Equation (8): ``A_{start..} <= digits_{start..}``.

        ``start`` indexes into the base sequence (0 = most significant);
        the recursion proceeds toward less significant components.
        Trailing components whose digits are maximal are elided (the
        paper's ``LE(n, v) = LE(n', v)`` simplification).
        """
        # Elide least-significant digits that are all maximal.
        stop = len(digits)
        while stop - 1 > start and all(
            digits[i] == self.bases[i] - 1 for i in range(stop - 1, len(digits))
        ):
            stop -= 1
        # After elision, re-check: if every digit from `stop` on is
        # maximal, the predicate ends at stop - 1... handled by loop.
        return self._le_digits_rec(digits, start, stop)

    def _le_digits_rec(self, digits: Sequence[int], k: int, stop: int) -> Expr:
        base = self.bases[k]
        digit = digits[k]
        if k == stop - 1:
            return self._digit_le(k, digit)
        rest = self._le_digits_rec(digits, k + 1, stop)
        if digit == 0:
            return self._alpha(k, 0) & rest
        if digit == base - 1:
            return self._digit_le(k, digit - 1) | rest
        return self._digit_le(k, digit - 1) | (self._alpha(k, digit) & rest)

    def _ge_digits(self, digits_minus_one: Sequence[int], start: int = 0) -> Expr:
        """``A_{start..} >= v`` via ``NOT (A <= v - 1)``.

        The caller passes the digit decomposition of ``v - 1`` restricted
        to the suffix starting at ``start``; a ``v`` whose suffix is all
        zeros must be handled by the caller (it is the trivial ONE).
        """
        return not_of(self._le_digits(digits_minus_one, start))

    # ------------------------------------------------------------------
    # Interval rewrite (step 2 dispatch)
    # ------------------------------------------------------------------

    def rewrite_interval(self, query: IntervalQuery) -> Expr:
        """Bitmap expression for one interval query."""
        if query.cardinality != self.cardinality:
            raise QueryError(
                f"query domain C={query.cardinality} does not match index "
                f"domain C={self.cardinality}"
            )
        body = self._rewrite_interval_body(query.low, query.high)
        if self.num_components == 1:
            # Every scheme's one-component equations are already in
            # simplify's canonical form, and so is their complement.
            return not_of(body) if query.negated else body
        body = simplify(body)
        return simplify(not_of(body)) if query.negated else body

    def _rewrite_interval_body(self, low: int, high: int) -> Expr:
        c = self.cardinality
        if c == 1:
            return one()
        if low == 0 and high == c - 1:
            return one()
        if self.num_components == 1:
            # One-component indexes use the scheme equations directly.
            return self._digit_interval(0, low, high)

        low_digits = decompose_value(low, self.bases)
        high_digits = decompose_value(high, self.bases)

        if low == high:
            return self._eq_digits(low_digits)
        if low == 0:
            return self._le_digits(high_digits)
        if high == c - 1:
            return self._ge_from_value(low)

        # Two-sided: evaluate the common most-significant prefix as
        # equalities (§6.2) and split at the first differing digit.
        prefix = 0
        while low_digits[prefix] == high_digits[prefix]:
            prefix += 1
        prefix_expr = and_of(
            self._digit_eq(i, low_digits[i]) for i in range(prefix)
        )
        suffix_expr = self._two_sided_suffix(low_digits, high_digits, prefix)
        return prefix_expr & suffix_expr if prefix else suffix_expr

    def _ge_from_value(self, low: int) -> Expr:
        """``A >= low`` for ``low > 0`` via the complement of a prefix."""
        minus_one = decompose_value(low - 1, self.bases)
        return self._ge_digits(minus_one)

    def _two_sided_suffix(
        self,
        low_digits: Sequence[int],
        high_digits: Sequence[int],
        split: int,
    ) -> Expr:
        """Two-sided range over the suffix starting at ``split``.

        Implements the paper's split (the "4326 <= A <= 4377" example):
        a middle band where the split digit alone decides, plus boundary
        conjunctions that recurse into the remaining digits.  When the
        suffix is a single component the scheme's native interval
        equation applies directly.
        """
        lo_d = low_digits[split]
        hi_d = high_digits[split]

        if split == self.num_components - 1:
            return self._digit_interval(split, lo_d, hi_d)

        lo_rest_min = all(
            low_digits[i] == 0 for i in range(split + 1, self.num_components)
        )
        hi_rest_max = all(
            high_digits[i] == self.bases[i] - 1
            for i in range(split + 1, self.num_components)
        )
        mid_lo = lo_d if lo_rest_min else lo_d + 1
        mid_hi = hi_d if hi_rest_max else hi_d - 1

        terms: list[Expr] = []
        if mid_lo <= mid_hi:
            terms.append(self._digit_interval(split, mid_lo, mid_hi))
        if not lo_rest_min:
            low_suffix_ge = self._suffix_ge(low_digits, split + 1)
            terms.append(self._digit_eq(split, lo_d) & low_suffix_ge)
        if not hi_rest_max:
            high_suffix_le = self._le_digits(high_digits, split + 1)
            terms.append(self._digit_eq(split, hi_d) & high_suffix_le)
        return or_of(terms)

    def _suffix_ge(self, digits: Sequence[int], start: int) -> Expr:
        """``A_{start..} >= digits_{start..}`` (suffix known non-zero)."""
        suffix_value = 0
        for i in range(start, self.num_components):
            suffix_value = suffix_value * self.bases[i] + digits[i]
        minus_one = suffix_value - 1
        rebuilt = list(digits)
        for i in range(self.num_components - 1, start - 1, -1):
            minus_one, rebuilt[i] = divmod(minus_one, self.bases[i])
        return self._ge_digits(rebuilt, start)

    # ------------------------------------------------------------------
    # Membership rewrite (step 1)
    # ------------------------------------------------------------------

    def rewrite_membership(self, query: MembershipQuery) -> list[Expr]:
        """Constituent expressions of a membership query (one per interval)."""
        if query.cardinality != self.cardinality:
            raise QueryError(
                f"query domain C={query.cardinality} does not match index "
                f"domain C={self.cardinality}"
            )
        return [
            self.rewrite_interval(interval)
            for interval in minimal_intervals(query)
        ]

    # ------------------------------------------------------------------
    # Threshold rewrite
    # ------------------------------------------------------------------

    def rewrite_threshold(self, query: ThresholdQuery) -> Expr:
        """Bitmap expression for a k-of-N threshold query.

        Each predicate rewrites through the ordinary pipeline into its
        combined expression; the k-of-N count then sits directly above
        them as a single :class:`~repro.expr.threshold.Threshold` node —
        one constituent, evaluated as one multi-way counting pass by
        every engine.
        """
        if query.cardinality != self.cardinality:
            raise QueryError(
                f"query domain C={query.cardinality} does not match index "
                f"domain C={self.cardinality}"
            )
        children = tuple(self.rewrite(p) for p in query.predicates)
        return simplify(Threshold(query.k, children))

    def rewrite(
        self, query: IntervalQuery | MembershipQuery | ThresholdQuery
    ) -> Expr:
        """Single combined expression for any supported query."""
        if isinstance(query, IntervalQuery):
            return self.rewrite_interval(query)
        if isinstance(query, ThresholdQuery):
            return self.rewrite_threshold(query)
        return simplify(or_of(self.rewrite_membership(query)))
