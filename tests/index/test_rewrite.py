"""Tests for the Section 6.1/6.2 query rewriter."""

import numpy as np
import pytest

from repro.encoding import ALL_SCHEME_NAMES, EXTENDED_SCHEME_NAMES, get_scheme
from repro.errors import QueryError
from repro.expr import expression_scan_count, not_of, simplify
from repro.expr.nodes import And, Const, Leaf, Not
from repro.index import BitmapIndex, IndexSpec
from repro.index.costbased import CostBasedRewriter, equality_interval_candidates
from repro.index.rewrite import QueryRewriter
from repro.queries import IntervalQuery, MembershipQuery

DOMAIN = frozenset(range(100))


def value_set_of(rewriter: QueryRewriter, expr) -> frozenset[int]:
    """Interpret a rewritten expression back into attribute-value space."""
    catalog: dict = {}
    for component, base in enumerate(rewriter.bases):
        scheme_catalog = rewriter.scheme.catalog(base)
        for slot, digit_values in scheme_catalog.items():
            members = set()
            for value in range(rewriter.cardinality):
                digits = _digits(value, rewriter.bases)
                if digits[component] in digit_values:
                    members.add(value)
            catalog[(component, slot)] = frozenset(members)
    domain = frozenset(range(rewriter.cardinality))
    return expr.value_set(catalog, domain)


def _digits(value: int, bases) -> tuple[int, ...]:
    digits = [0] * len(bases)
    rest = value
    for i in range(len(bases) - 1, -1, -1):
        rest, digits[i] = divmod(rest, bases[i])
    return tuple(digits)


class TestPaperSection62Examples:
    def test_le_85_base_10_10_equality_encoded(self):
        """"A <= 85" on a base-<10,10> equality-encoded index becomes
        "(A2 <= 7) OR ((A2 = 8) AND (A1 <= 5))" and, at the bitmap level,
        needs the 8 + 1 + 6 = ... distinct bitmaps of Equation (1)."""
        rewriter = QueryRewriter(100, (10, 10), get_scheme("E"))
        expr = rewriter.rewrite_interval(IntervalQuery(0, 85, 100))
        assert value_set_of(rewriter, expr) == frozenset(range(86))
        # Top digit: [0,7] via complement of {8,9} = 2 bitmaps; equality
        # digit E_2^8 reuses one of them... count only distinctness:
        keys = expr.leaf_keys()
        assert all(key[0] in (0, 1) for key in keys)

    def test_le_499_drops_maximal_suffix(self):
        """"A <= 499" on base <10,10,10> simplifies to "A3 <= 4": only
        component 0 bitmaps are touched (the paper's elision rule)."""
        rewriter = QueryRewriter(1000, (10, 10, 10), get_scheme("R"))
        expr = rewriter.rewrite_interval(IntervalQuery(0, 499, 1000))
        assert {key[0] for key in expr.leaf_keys()} == {0}
        assert expression_scan_count(expr) == 1

    def test_equality_357_is_conjunction_per_component(self):
        rewriter = QueryRewriter(1000, (10, 10, 10), get_scheme("E"))
        expr = rewriter.rewrite_interval(IntervalQuery(357, 357, 1000))
        assert value_set_of(rewriter, expr) == frozenset({357})
        assert {key[0] for key in expr.leaf_keys()} == {0, 1, 2}
        assert expression_scan_count(expr) == 3

    def test_common_prefix_evaluated_as_equalities(self):
        """"4326 <= A <= 4377" shares the prefix digits 4 and 3."""
        rewriter = QueryRewriter(10_000, (10, 10, 10, 10), get_scheme("E"))
        expr = rewriter.rewrite_interval(IntervalQuery(4326, 4377, 10_000))
        assert value_set_of(rewriter, expr) == frozenset(range(4326, 4378))

    def test_ge_rewrites_via_complement(self):
        rewriter = QueryRewriter(100, (10, 10), get_scheme("R"))
        expr = rewriter.rewrite_interval(IntervalQuery(40, 99, 100))
        assert value_set_of(rewriter, expr) == frozenset(range(40, 100))
        # "A >= 40" == NOT (A <= 39) == NOT (A2 <= 3): one bitmap.
        assert expression_scan_count(expr) == 1


class TestOneComponentReduction:
    """With n = 1 the rewriter must reduce to the scheme equations."""

    @pytest.mark.parametrize("scheme_name", ["E", "R", "I", "ER", "O", "EI", "EI*"])
    def test_identical_to_scheme_expression(self, scheme_name):
        scheme = get_scheme(scheme_name)
        rewriter = QueryRewriter(20, (20,), scheme)
        for low in range(20):
            for high in range(low, 20):
                via_rewriter = simplify(
                    rewriter.rewrite_interval(IntervalQuery(low, high, 20))
                )
                direct = simplify(scheme.interval_expr(20, low, high))
                # Compare scan counts (leaf labels differ by the
                # component wrapper).
                assert expression_scan_count(via_rewriter) == (
                    expression_scan_count(direct)
                ), (scheme_name, low, high)


class TestSemantics:
    @pytest.mark.parametrize("scheme_name", ["E", "R", "I", "EI*"])
    @pytest.mark.parametrize("bases", [(10, 10), (4, 5, 5), (4, 25), (25, 2, 2)])
    def test_all_intervals_all_layouts(self, scheme_name, bases):
        scheme = get_scheme(scheme_name)
        rewriter = QueryRewriter(100, bases, scheme)
        for low, high in [
            (0, 0), (99, 99), (37, 37),
            (0, 57), (0, 99), (13, 99),
            (26, 77), (1, 98), (49, 51), (20, 29),
        ]:
            expr = rewriter.rewrite_interval(IntervalQuery(low, high, 100))
            assert value_set_of(rewriter, expr) == frozenset(
                range(low, high + 1)
            ), (scheme_name, bases, low, high)

    def test_negated_interval(self):
        rewriter = QueryRewriter(100, (10, 10), get_scheme("R"))
        expr = rewriter.rewrite_interval(
            IntervalQuery(20, 79, 100, negated=True)
        )
        assert value_set_of(rewriter, expr) == frozenset(range(20)) | frozenset(
            range(80, 100)
        )

    def test_membership_constituents(self):
        rewriter = QueryRewriter(100, (10, 10), get_scheme("E"))
        query = MembershipQuery.of({6, 19, 20, 21, 22, 35}, 100)
        constituents = rewriter.rewrite_membership(query)
        assert len(constituents) == 3
        union = frozenset()
        for expr in constituents:
            union |= value_set_of(rewriter, expr)
        assert union == query.values

    def test_combined_membership_expression(self):
        rewriter = QueryRewriter(100, (10, 10), get_scheme("I"))
        query = MembershipQuery.of({0, 50, 51, 52, 99}, 100)
        expr = rewriter.rewrite(query)
        assert value_set_of(rewriter, expr) == query.values

    def test_domain_mismatch_rejected(self):
        rewriter = QueryRewriter(100, (10, 10), get_scheme("E"))
        with pytest.raises(QueryError):
            rewriter.rewrite_interval(IntervalQuery(0, 5, 50))
        with pytest.raises(QueryError):
            rewriter.rewrite_membership(MembershipQuery.of({1}, 50))


def _relabel(expr, component: int):
    """Leaf keys ``slot -> (component, slot)``, node by node."""
    if isinstance(expr, Leaf):
        return Leaf((component, expr.key))
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Not):
        return Not(_relabel(expr.child, component))
    return type(expr)(tuple(_relabel(c, component) for c in expr.operands))


def _intervals(cardinality: int):
    for low in range(cardinality):
        for high in range(low, cardinality):
            yield low, high


class TestCanonicalForm:
    """One-component rewrites skip :func:`simplify`; that is exact only
    while every scheme's interval equations are its fixed points."""

    @pytest.mark.parametrize("scheme_name", ALL_SCHEME_NAMES + EXTENDED_SCHEME_NAMES)
    def test_scheme_equations_are_simplify_fixed_points(self, scheme_name):
        scheme = get_scheme(scheme_name)
        for cardinality in range(1, 41):
            for low, high in _intervals(cardinality):
                expr = scheme.interval_expr(cardinality, low, high)
                assert simplify(expr) == expr, (cardinality, low, high)
                negated = not_of(expr)
                assert simplify(negated) == negated, (cardinality, low, high)

    @pytest.mark.parametrize("scheme_name", ALL_SCHEME_NAMES + EXTENDED_SCHEME_NAMES)
    def test_one_component_rewrite_matches_simplified_pipeline(self, scheme_name):
        """Equal to relabel, then simplify (and simplify the complement)."""
        scheme = get_scheme(scheme_name)
        for cardinality in range(1, 41):
            rewriter = QueryRewriter(cardinality, (cardinality,), scheme)
            for low, high in _intervals(cardinality):
                if cardinality == 1 or (low, high) == (0, cardinality - 1):
                    body = Const(True)
                else:
                    body = simplify(
                        _relabel(scheme.interval_expr(cardinality, low, high), 0)
                    )
                got = rewriter.rewrite_interval(IntervalQuery(low, high, cardinality))
                assert got == body, (cardinality, low, high)
                got = rewriter.rewrite_interval(
                    IntervalQuery(low, high, cardinality, negated=True)
                )
                assert got == simplify(not_of(body)), (cardinality, low, high)

    def test_one_component_cost_based_matches_simplified_pipeline(self):
        """The cost-based choice, relabelled and simplified as before."""
        rng = np.random.default_rng(5)
        for cardinality in range(1, 41):
            # Skewed so that encoded sizes, and with them choices, vary.
            values = np.minimum(rng.zipf(1.3, size=400) - 1, cardinality - 1)
            index = BitmapIndex.build(
                values, IndexSpec(cardinality=cardinality, scheme="E", codec="bbc")
            )
            rewriter = CostBasedRewriter(
                cardinality, (cardinality,), index.scheme, index.store
            )
            for low, high in _intervals(cardinality):
                if cardinality == 1 or (low, high) == (0, cardinality - 1):
                    body = Const(True)
                else:
                    options = [
                        _relabel(index.scheme.interval_expr(cardinality, low, high), 0),
                        *(
                            simplify(_relabel(candidate, 0))
                            for candidate in equality_interval_candidates(
                                cardinality, low, high
                            )
                        ),
                    ]
                    body = simplify(min(options, key=rewriter.expression_cost))
                got = rewriter.rewrite_interval(IntervalQuery(low, high, cardinality))
                assert got == body, (cardinality, low, high)
                got = rewriter.rewrite_interval(
                    IntervalQuery(low, high, cardinality, negated=True)
                )
                assert got == simplify(not_of(body)), (cardinality, low, high)

    def test_binary_two_sided_is_one_flat_conjunction(self):
        """``B``'s upper walk is an AND when it has one term; the range
        must not nest it inside the outer AND."""
        expr = get_scheme("B").interval_expr(9, 1, 3)
        assert isinstance(expr, And)
        assert not any(isinstance(child, And) for child in expr.operands)

    def test_leaves_are_interned_per_component(self):
        rewriter = QueryRewriter(100, (10, 10), get_scheme("I"))
        first = rewriter.rewrite_interval(IntervalQuery(3, 3, 100))
        second = rewriter.rewrite_interval(IntervalQuery(13, 13, 100))
        shared = {leaf.key: leaf for leaf in first.leaves()}
        for leaf in second.leaves():
            if leaf.key in shared:
                assert leaf is shared[leaf.key]
