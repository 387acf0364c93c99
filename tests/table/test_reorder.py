"""Tests for the build-time row-reordering pass.

Unit coverage of :mod:`repro.table.reorder` (permutation mechanics,
histogram-aware column ordering, lexicographic sort) plus the
table-level differential suite: every predicate shape — including
negation, which must be applied to an answer already translated back
to original row order — is checked against a naive column-scan oracle
on reordered builds.
"""

import numpy as np
import pytest

from repro.bitmap import BitVector
from repro.errors import ReproError
from repro.index import BitmapIndex, IndexSpec
from repro.queries import IntervalQuery, MembershipQuery
from repro.table import (
    REORDER_STRATEGIES,
    ColumnConfig,
    RowReordering,
    Table,
    choose_column_order,
    reorder_rows,
)
from repro.table.reorder import (
    restore_by_compare,
    lexicographic_permutation,
    validate_strategy,
)


class TestStrategyValidation:
    def test_known_strategies(self):
        for strategy in REORDER_STRATEGIES:
            assert validate_strategy(strategy) == strategy

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ReproError):
            validate_strategy("random")


class TestRowReordering:
    def test_identity(self):
        reordering = RowReordering.identity(5)
        assert reordering.is_identity
        assert reordering.size == 5
        assert reordering.num_sorted == 5

    def test_from_sort_is_stable(self):
        values = np.array([2, 0, 1, 0, 2])
        reordering = RowReordering.from_sort(values)
        # Equal values keep arrival order: both 0s, then 1, then both 2s.
        assert reordering.permutation.tolist() == [1, 3, 2, 0, 4]
        assert not reordering.is_identity

    def test_apply_sorts_the_column(self):
        values = np.array([3, 1, 2])
        reordering = RowReordering.from_sort(values)
        assert reordering.apply(values).tolist() == [1, 2, 3]

    def test_apply_length_mismatch_rejected(self):
        reordering = RowReordering.identity(3)
        with pytest.raises(ReproError):
            reordering.apply(np.arange(4))

    def test_to_original_maps_and_sorts(self):
        reordering = RowReordering(np.array([2, 0, 1]))
        assert reordering.to_original(np.array([0, 2])).tolist() == [1, 2]

    def test_to_original_out_of_range_rejected(self):
        reordering = RowReordering.identity(3)
        with pytest.raises(ReproError):
            reordering.to_original(np.array([3]))
        with pytest.raises(ReproError):
            reordering.to_original(np.array([-1]))

    def test_restore_bitmap_round_trip(self, rng):
        values = rng.integers(0, 10, size=200)
        reordering = RowReordering.from_sort(values)
        mask = rng.random(200) < 0.3
        # A sorted-space answer for "mask of original rows" has bit p set
        # iff mask[permutation[p]]; restoring must give back mask.
        sorted_space = BitVector.from_bools(mask[reordering.permutation])
        restored = reordering.restore_bitmap(sorted_space)
        assert np.array_equal(restored.to_bools(), mask)

    def test_restore_bitmap_length_mismatch_rejected(self):
        reordering = RowReordering.identity(3)
        with pytest.raises(ReproError):
            reordering.restore_bitmap(BitVector.zeros(4))

    def test_extend_appends_identity_entries(self):
        reordering = RowReordering(np.array([1, 0]), 2)
        reordering.extend(np.array([0, 1, 0]))
        assert reordering.permutation.tolist() == [1, 0, 2, 3, 4]
        assert reordering.num_sorted == 2
        assert reordering.size == 5

    def test_extend_zero_is_noop(self):
        reordering = RowReordering.identity(2)
        reordering.extend(np.array([], dtype=np.int64))
        assert reordering.size == 2

    def test_extend_negative_rejected(self):
        with pytest.raises(ReproError):
            RowReordering.identity(2).extend(np.array([-1]))

    def test_is_identity_cache_survives_extend(self):
        reordering = RowReordering(np.array([1, 0]))
        assert not reordering.is_identity
        reordering.extend(np.array([0, 1]))
        # Identity entries never flip the answer either way.
        assert not reordering.is_identity
        identity = RowReordering.identity(2)
        assert identity.is_identity
        identity.extend(np.array([0, 1]))
        assert identity.is_identity

    def test_copy_is_independent(self):
        original = RowReordering(np.array([1, 0]), 2, "lexicographic")
        clone = original.copy()
        clone.extend(np.array([0]))
        assert original.size == 2
        assert clone.size == 3
        assert clone.strategy == "lexicographic"

    def test_validated_accepts_true_permutation(self):
        reordering = RowReordering.validated(
            np.array([2, 0, 1]), 3, "lexicographic", 3
        )
        assert reordering.num_sorted == 3

    def test_validated_rejects_wrong_size(self):
        with pytest.raises(ReproError):
            RowReordering.validated(np.array([0, 1]), 2, "lexicographic", 3)

    def test_validated_rejects_duplicates(self):
        with pytest.raises(ReproError):
            RowReordering.validated(
                np.array([0, 0, 2]), 3, "lexicographic", 3
            )

    def test_validated_rejects_out_of_range(self):
        with pytest.raises(ReproError):
            RowReordering.validated(
                np.array([0, 1, 3]), 3, "lexicographic", 3
            )

    def test_non_1d_permutation_rejected(self):
        with pytest.raises(ReproError):
            RowReordering(np.zeros((2, 2), dtype=np.int64))

    def test_bad_sorted_prefix_rejected(self):
        with pytest.raises(ReproError):
            RowReordering(np.array([0, 1]), num_sorted=3)

    def test_repr(self):
        text = repr(RowReordering.identity(4, "none"))
        assert "rows=4" in text and "sorted=4" in text


class TestColumnOrder:
    def test_lowest_cardinality_first(self, rng):
        columns = {
            "wide": rng.integers(0, 100, size=2000),
            "narrow": rng.integers(0, 3, size=2000),
            "mid": rng.integers(0, 20, size=2000),
        }
        assert choose_column_order(columns) == ["narrow", "mid", "wide"]

    def test_skew_breaks_cardinality_ties(self, rng):
        # Same distinct count; the skewed histogram sorts first.
        uniform = rng.integers(0, 4, size=4000)
        skewed = rng.choice(4, size=4000, p=[0.91, 0.03, 0.03, 0.03])
        assert set(np.unique(uniform)) == set(np.unique(skewed))
        order = choose_column_order({"a_uniform": uniform, "b_skewed": skewed})
        assert order == ["b_skewed", "a_uniform"]

    def test_name_breaks_full_ties(self):
        column = np.array([0, 1, 0, 1])
        order = choose_column_order({"beta": column, "alpha": column.copy()})
        assert order == ["alpha", "beta"]

    def test_empty_columns(self):
        assert choose_column_order({"a": np.array([], dtype=np.int64)}) == ["a"]

    def test_constant_column_sorts_first(self):
        order = choose_column_order(
            {"varied": np.arange(10) % 3, "const": np.zeros(10, np.int64)}
        )
        assert order == ["const", "varied"]


class TestLexicographicPermutation:
    def test_primary_key_dominates(self):
        columns = {
            "primary": np.array([1, 0, 1, 0]),
            "secondary": np.array([0, 1, 1, 0]),
        }
        perm = lexicographic_permutation(columns, ["primary", "secondary"])
        assert perm.tolist() == [3, 1, 0, 2]

    def test_empty_order_rejected(self):
        with pytest.raises(ReproError):
            lexicographic_permutation({"a": np.array([1])}, [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            lexicographic_permutation(
                {"a": np.arange(3), "b": np.arange(4)}, ["a", "b"]
            )


class TestReorderRows:
    def test_none_strategy_returns_identity(self, rng):
        columns = {"a": rng.integers(0, 5, size=50)}
        reordered, reordering = reorder_rows(columns, strategy="none")
        assert np.array_equal(reordered["a"], columns["a"])
        assert reordering.is_identity
        assert reordering.strategy == "none"

    def test_no_columns(self):
        reordered, reordering = reorder_rows({})
        assert reordered == {}
        assert reordering.size == 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ReproError):
            reorder_rows({"a": np.arange(3)}, strategy="bogus")

    def test_explicit_order_with_unknown_name_rejected(self):
        with pytest.raises(ReproError):
            reorder_rows({"a": np.arange(3)}, order=["a", "nope"])

    def test_rows_stay_aligned(self, rng):
        columns = {
            "x": rng.integers(0, 4, size=300),
            "y": rng.integers(0, 50, size=300),
        }
        reordered, reordering = reorder_rows(columns)
        for name in columns:
            assert np.array_equal(
                reordered[name], columns[name][reordering.permutation]
            )
        # Rows travel together: (x, y) pairs are preserved as a multiset.
        original_pairs = sorted(zip(columns["x"], columns["y"]))
        reordered_pairs = sorted(zip(reordered["x"], reordered["y"]))
        assert original_pairs == reordered_pairs

    def test_sorting_creates_runs(self, rng):
        values = rng.integers(0, 8, size=2000)
        reordered, _ = reorder_rows({"a": values})
        transitions = int((np.diff(reordered["a"]) != 0).sum())
        assert transitions <= 7  # sorted: at most C-1 value changes


# ---------------------------------------------------------------------------
# Table-level differential tests against a naive scan oracle
# ---------------------------------------------------------------------------


@pytest.fixture
def reordered_table(rng):
    columns = {
        "region": rng.integers(0, 6, size=1200),
        "amount": rng.integers(0, 32, size=1200),
        "grade": rng.choice(5, size=1200, p=[0.6, 0.2, 0.1, 0.05, 0.05]),
    }
    configs = {
        "region": ColumnConfig(cardinality=6, scheme="E", codec="wah"),
        "amount": ColumnConfig(cardinality=32, scheme="I", codec="bbc"),
        "grade": ColumnConfig(cardinality=5, scheme="R", codec="ewah"),
    }
    table = Table.from_columns(columns, configs, reorder="lexicographic")
    return table, columns


def naive_row_ids(columns, predicates, mode="and", negate=frozenset()):
    masks = []
    for name, query in predicates.items():
        mask = query.matches(columns[name])
        if name in negate:
            mask = ~mask
        masks.append(mask)
    out = masks[0]
    for mask in masks[1:]:
        out = (out & mask) if mode == "and" else (out | mask)
    return np.flatnonzero(out)


class TestReorderedTable:
    """Answers from reordered builds must be in original row order.

    These are the regression tests for the negated-predicate bug: a
    complement taken in sorted (permuted) space must be mapped back to
    original ids before it is combined or reported — comparing full
    row-id sets (not just counts) against a scan oracle catches any
    row-space mixup.
    """

    def test_table_records_reordering(self, reordered_table):
        table, _ = reordered_table
        assert table.reordering is not None
        assert table.reordering.strategy == "lexicographic"
        assert not table.reordering.is_identity

    def test_reorder_none_records_nothing(self, rng):
        table = Table.from_columns(
            {"a": rng.integers(0, 5, size=10)},
            {"a": ColumnConfig(5)},
        )
        assert table.reordering is None

    @pytest.mark.parametrize("mode", ["and", "or"])
    @pytest.mark.parametrize(
        "negate",
        [frozenset(), frozenset({"amount"}), frozenset({"region", "grade"})],
    )
    def test_not_and_or_mixes_match_naive_scan(
        self, reordered_table, mode, negate
    ):
        table, columns = reordered_table
        predicates = {
            "region": MembershipQuery.of({0, 2, 4}, 6),
            "amount": IntervalQuery(5, 20, 32),
            "grade": IntervalQuery(0, 1, 5),
        }
        result = table.select(predicates, mode=mode, negate=negate)
        expected = naive_row_ids(columns, predicates, mode, negate)
        assert result.row_ids().tolist() == expected.tolist()

    def test_single_negated_predicate(self, reordered_table):
        table, columns = reordered_table
        predicates = {"grade": IntervalQuery(0, 0, 5)}
        result = table.select(predicates, negate={"grade"})
        expected = naive_row_ids(columns, predicates, negate={"grade"})
        assert result.row_ids().tolist() == expected.tolist()

    def test_matches_unreordered_build(self, reordered_table, rng):
        table, columns = reordered_table
        configs = {
            "region": ColumnConfig(cardinality=6, scheme="E", codec="wah"),
            "amount": ColumnConfig(cardinality=32, scheme="I", codec="bbc"),
            "grade": ColumnConfig(cardinality=5, scheme="R", codec="ewah"),
        }
        plain = Table.from_columns(columns, configs)
        predicates = {
            "region": IntervalQuery(1, 4, 6),
            "amount": MembershipQuery.of({0, 7, 31}, 32),
        }
        for mode in ("and", "or"):
            for negate in (frozenset(), frozenset({"region"})):
                a = table.select(predicates, mode=mode, negate=negate)
                b = plain.select(predicates, mode=mode, negate=negate)
                assert a.row_ids().tolist() == b.row_ids().tolist()

    def test_nulls_on_reordered_column(self, rng):
        values = rng.integers(0, 8, size=400)
        valid = rng.random(400) < 0.8
        table = Table.from_columns(
            {"a": values, "b": rng.integers(0, 3, size=400)},
            {"a": ColumnConfig(8, codec="wah"), "b": ColumnConfig(3)},
            valid_masks={"a": valid},
            reorder="lexicographic",
        )
        query = IntervalQuery(2, 5, 8)
        expected = np.flatnonzero(query.matches(values) & valid)
        result = table.select({"a": query})
        assert result.row_ids().tolist() == expected.tolist()
        # Three-valued logic: NULLs match neither the predicate nor NOT.
        negated = table.select({"a": query}, negate={"a"})
        expected_neg = np.flatnonzero(~query.matches(values) & valid)
        assert negated.row_ids().tolist() == expected_neg.tolist()

    def test_reordered_index_shrinks_skewed_column(self, rng):
        values = rng.choice(16, size=20_000, p=np.array([0.5] + [0.5 / 15] * 15))
        config = ColumnConfig(cardinality=16, scheme="E", codec="wah")
        plain = Table.from_columns({"a": values}, {"a": config})
        sorted_build = Table.from_columns(
            {"a": values}, {"a": config}, reorder="lexicographic"
        )
        assert (
            sorted_build.total_index_bytes() < plain.total_index_bytes()
        )


class TestCodesRestore:
    """``restore_answer`` over codes equals the permutation scatter."""

    @staticmethod
    def both(values, answer_of_value):
        """(codes restore, permutation scatter) of the sorted-space answer
        that sets each row's bit by ``answer_of_value[row value]``."""
        reordering = RowReordering.from_sort(values)
        stored = BitVector.from_bools(answer_of_value[reordering.apply(values)])
        return reordering.restore_answer(stored), reordering.restore_bitmap(stored)

    @pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 1000])
    @pytest.mark.parametrize(
        "pattern", ["empty", "ones", "one_run", "two_runs", "many_runs", "edges"]
    )
    def test_every_answer_shape(self, rng, size, pattern):
        cardinality = 40
        values = rng.integers(0, cardinality, size=size)
        answer_of_value = np.zeros(cardinality, dtype=bool)
        if pattern == "ones":
            answer_of_value[:] = True
        elif pattern == "one_run":
            answer_of_value[5:17] = True
        elif pattern == "two_runs":
            answer_of_value[[0, 1, 2, 30, 31]] = True
        elif pattern == "many_runs":  # past the compare limit: the gather path
            answer_of_value[::2] = True
            assert not restore_by_compare(cardinality // 2, size)
        elif pattern == "edges":
            answer_of_value[[0, cardinality - 1]] = True
        codes_restore, scatter = self.both(values, answer_of_value)
        assert codes_restore == scatter
        assert codes_restore == BitVector.from_bools(answer_of_value[values])

    def test_run_count_around_the_crossover(self, rng):
        values = rng.integers(0, 200, size=5000)
        crossover = max(r for r in range(1, 60) if restore_by_compare(r, values.size))
        assert not restore_by_compare(crossover + 1, values.size)
        for runs in range(crossover - 1, crossover + 3):
            answer_of_value = np.zeros(200, dtype=bool)
            answer_of_value[3 : 3 + 3 * runs : 3] = True
            codes_restore, scatter = self.both(values, answer_of_value)
            assert codes_restore == scatter

    def test_wide_codes(self, rng):
        values = rng.integers(0, 70_000, size=3000)
        answer_of_value = rng.random(70_000) < 0.3
        codes_restore, scatter = self.both(values, answer_of_value)
        assert RowReordering.from_sort(values).codes.dtype == np.uint32
        assert codes_restore == scatter

    @pytest.mark.parametrize("scheme", ["E", "R", "I", "ER", "O", "EI", "EI*", "I+", "B"])
    @pytest.mark.parametrize("components", [1, 2, 3])
    def test_index_answers_every_scheme(self, rng, scheme, components):
        cardinality = 27
        values = rng.integers(0, cardinality, size=500)
        spec = IndexSpec(
            cardinality=cardinality,
            scheme=scheme,
            num_components=components,
            reorder="lexicographic",
        )
        index = BitmapIndex.build(values, spec)
        assert index.reordering.codes is not None
        queries = [
            IntervalQuery(0, 0, cardinality),
            IntervalQuery(4, 20, cardinality),
            IntervalQuery(0, cardinality - 1, cardinality),
            MembershipQuery.of(set(range(0, cardinality, 2)), cardinality),
        ]
        for query in queries:
            stored = BitVector.from_bools(query.matches(index.reordering.apply(values)))
            assert index.reordering.restore_answer(stored) == (
                index.reordering.restore_bitmap(stored)
            )
            assert index.query(query).bitmap == BitVector.from_bools(query.matches(values))

    def test_extend_by_codes(self):
        reordering = RowReordering.from_sort(np.array([3, 1, 3, 0]))
        reordering.extend(np.array([5, 1]))
        assert reordering.size == 6 and reordering.num_sorted == 4
        assert reordering.permutation.tolist() == [3, 1, 0, 2, 4, 5]
        with pytest.raises(ReproError):
            reordering.extend(2)  # the values, not their count
        clone = reordering.copy()
        clone.extend(np.array([2]))
        assert reordering.size == 6 and clone.size == 7

    def test_joint_sort_keeps_a_permutation(self, rng):
        columns = {"a": rng.integers(0, 4, 50), "b": rng.integers(0, 9, 50)}
        _, reordering = reorder_rows(columns)
        assert reordering.codes is None
        assert reordering.permutation.dtype == np.int64
