import hashlib
import json

import numpy as np
import pytest

from esrlcm.identifiability import (
    BudgetExceededError,
    check_conditions,
    exhaustive_search,
    greedy_search,
    kruskal_rank,
    numeric_verify,
    q_matrix_to_base,
)

from helpers import fixture_columns, is_merged_of, random_canonical_column

# Six-item, five-class worked example as (J, C) base columns, one row per
# item: two ternary items then four binary ones.
EXAMPLE_B = np.array([
    [1, 2, 3, 2, 1],
    [1, 2, 3, 1, 4],
    [1, 2, 3, 4, 4],
    [1, 2, 1, 3, 2],
    [1, 1, 1, 2, 3],
    [1, 2, 3, 3, 3],
])
EXAMPLE_M = np.array([3, 3, 2, 2, 2, 2])
EXAMPLE_PARTITION = ((0, 3), (1, 2), (4, 5))
EXAMPLE_MERGED1 = np.array([[1, 2, 3, 2, 1], [1, 2, 1, 1, 2]])
EXAMPLE_MERGED2 = np.array([[1, 2, 3, 1, 3], [1, 1, 1, 2, 2]])

# Six-class merge pair used for the ordering relation.
MERGE_LEFT = np.array([[1, 1, 2, 2, 3, 3], [1, 2, 1, 3, 1, 4], [1, 1, 1, 2, 2, 2]])
MERGE_RIGHT = np.array([[1, 1, 1, 1, 2, 2], [1, 2, 1, 3, 1, 2], [1, 1, 1, 2, 2, 2]])


def random_base(rng, n_classes, n_items):
    return np.array([random_canonical_column(rng, n_classes) for _ in range(n_items)])


class TestIsMergedOf:
    def test_identity_merge(self):
        assert is_merged_of(EXAMPLE_B, EXAMPLE_B)

    def test_total_merge(self):
        ones = np.ones((6, 5), dtype=int)
        assert is_merged_of(EXAMPLE_B, ones)

    def test_worked_pair_and_reverse(self):
        assert is_merged_of(MERGE_LEFT, MERGE_RIGHT)
        assert not is_merged_of(MERGE_RIGHT, MERGE_LEFT)

    def test_reflexive_transitive(self):
        from esrlcm.model import canonicalize

        rng = np.random.default_rng(1)
        for _ in range(50):
            n_classes = int(rng.integers(2, 7))
            base = random_base(rng, n_classes, int(rng.integers(1, 4)))
            assert is_merged_of(base, base)
            # coarsen twice by clipping labels: base -> mid -> top
            mid_cols, top_cols = [], []
            for col in base:
                mid = canonicalize(np.clip(col, 1, int(rng.integers(1, col.max() + 1))))
                mid_cols.append(mid)
                top_cols.append(canonicalize(np.clip(mid, 1, max(1, int(mid.max()) - 1))))
            mid_m, top_m = np.array(mid_cols), np.array(top_cols)
            assert is_merged_of(base, mid_m)
            assert is_merged_of(mid_m, top_m)
            assert is_merged_of(base, top_m)


class TestCheckConditions:
    def test_worked_example_passes(self):
        check = check_conditions(EXAMPLE_B, EXAMPLE_M, EXAMPLE_PARTITION,
                                 EXAMPLE_MERGED1, EXAMPLE_MERGED2)
        assert bool(check)

    def test_constant_merged_rows_fail(self):
        check = check_conditions(EXAMPLE_B, EXAMPLE_M, EXAMPLE_PARTITION,
                                 np.ones_like(EXAMPLE_MERGED1), EXAMPLE_MERGED2)
        assert not check
        assert check.diagnostics["unique_rows"][0] is False

    def test_small_identity_case(self):
        base = np.array([[1, 2], [1, 2], [1, 2]])
        check = check_conditions(base, [2, 2, 2], ((0,), (1,), (2,)), base[:1], base[1:2])
        assert bool(check)

    def test_malformed_partition(self):
        with pytest.raises(ValueError):
            check_conditions(EXAMPLE_B, EXAMPLE_M, ((0, 1), (1, 2), (3, 4, 5)),
                             EXAMPLE_MERGED1, EXAMPLE_MERGED2)


class TestGreedySearch:
    def test_worked_example_identifiable(self):
        report = greedy_search(EXAMPLE_B, EXAMPLE_M)
        assert report.identifiable
        check = check_conditions(EXAMPLE_B, EXAMPLE_M, report.witness.tripartition,
                                 report.witness.merged1, report.witness.merged2)
        assert bool(check)

    def test_too_few_items_unknown(self):
        base = np.array([[1, 2, 3], [1, 2, 3]])
        report = greedy_search(base, [2, 2])
        assert report.status == "Unknown"

    def test_block_diagonal_q_matrix(self):
        q = np.vstack([np.eye(2, dtype=int), np.eye(2, dtype=int), np.array([[1, 1]])])
        base = q_matrix_to_base(q)
        assert greedy_search(base, [2] * q.shape[0]).identifiable


class TestExhaustiveSearch:
    def test_worked_example(self):
        report = exhaustive_search(EXAMPLE_B, EXAMPLE_M)
        assert report.identifiable
        check = check_conditions(EXAMPLE_B, EXAMPLE_M, report.witness.tripartition,
                                 report.witness.merged1, report.witness.merged2)
        assert bool(check)

    def test_single_item_unknown(self):
        base = np.array([[1, 2]])
        assert exhaustive_search(base, [2]).status == "Unknown"

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            exhaustive_search(EXAMPLE_B, EXAMPLE_M, budget=10)

    def test_contains_greedy_on_random_fixtures(self):
        rng = np.random.default_rng(11)
        agreements = 0
        for _ in range(40):
            n_classes = int(rng.integers(2, 6))
            n_items = int(rng.integers(2, 8))
            base = random_base(rng, n_classes, n_items)
            levels = rng.integers(2, 4, size=n_items)
            greedy = greedy_search(base, levels)
            if greedy.identifiable:
                agreements += 1
                assert exhaustive_search(base, levels).identifiable
        assert agreements > 0

    def test_numeric_verify_accepts_exhaustive_witnesses(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 8:
            n_classes = int(rng.integers(2, 5))
            n_items = int(rng.integers(3, 7))
            base = random_base(rng, n_classes, n_items)
            levels = rng.integers(2, 4, size=n_items)
            report = exhaustive_search(base, levels)
            if report.identifiable:
                checked += 1
                assert numeric_verify(base, levels, report.witness.tripartition,
                                      rng, trials=10)


class TestKruskalRank:
    def test_identity(self):
        assert kruskal_rank(np.eye(3)) == 3

    def test_duplicate_columns(self):
        matrix = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert kruskal_rank(matrix) == 1

    def test_pairwise_independent_triple(self):
        assert kruskal_rank(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])) == 2

    def test_zero_column(self):
        assert kruskal_rank(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0

    def test_bounded_by_rank_and_generic_equality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            matrix = rng.normal(size=(int(rng.integers(2, 6)), int(rng.integers(1, 6))))
            kr = kruskal_rank(matrix)
            assert kr <= np.linalg.matrix_rank(matrix)
            assert kr == min(matrix.shape)  # generic matrices achieve the bound


class TestNumericVerify:
    def test_worked_example(self):
        rng = np.random.default_rng(4)
        assert numeric_verify(EXAMPLE_B, EXAMPLE_M, EXAMPLE_PARTITION, rng, trials=5)

    def test_duplicate_classes_fail(self):
        base = np.array([[1, 1, 2], [1, 1, 2]])
        rng = np.random.default_rng(5)
        assert not numeric_verify(base, [3, 3], ((0,), (1,), ()), rng, trials=2)

    def test_one_item_per_part(self):
        base = np.array([[1, 2], [1, 2], [1, 2]])
        rng = np.random.default_rng(6)
        assert numeric_verify(base, [2, 2, 2], ((0,), (1,), (2,)), rng, trials=5)

    def test_pattern_overflow_guard(self):
        base = np.tile([1, 2], (15, 1))
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            numeric_verify(base, [3] * 15, (tuple(range(15)), (), ()), rng)


class TestQMatrixImport:
    def test_no_attributes_item(self):
        base = q_matrix_to_base(np.array([[0, 0]]))
        assert base.tolist() == [[1, 1, 1, 1]]

    def test_first_attribute_item(self):
        base = q_matrix_to_base(np.array([[1, 0]]))
        assert base.tolist() == [[1, 2, 1, 2]]

    def test_both_attributes_item(self):
        base = q_matrix_to_base(np.array([[1, 1]]))
        assert base.tolist() == [[1, 2, 3, 4]]

    def test_attribute_guard(self):
        with pytest.raises(ValueError):
            q_matrix_to_base(np.zeros((2, 6), dtype=int))

    @pytest.mark.parametrize("n_attr", [1, 2, 3])
    def test_block_diagonal_identity_form_is_identifiable(self, n_attr):
        rng = np.random.default_rng(8)
        eye = np.eye(n_attr, dtype=int)
        for _ in range(5):
            extra = rng.integers(0, 2, size=(3, n_attr))
            for k in range(n_attr):  # each attribute active somewhere
                if not extra[:, k].any():
                    extra[rng.integers(0, 3), k] = 1
            q = np.vstack([eye, eye, extra])
            base = q_matrix_to_base(q)
            report = greedy_search(base, [2] * q.shape[0])
            assert report.identifiable


class TestItemLevels:
    def test_validation(self):
        base = np.array([[1, 2], [1, 2]])
        with pytest.raises(ValueError, match="at least 2"):
            greedy_search(base, [2, 1])
        assert greedy_search(base, [2, 3]) is not None

    @pytest.mark.parametrize("search", [
        greedy_search,
        exhaustive_search,
        lambda base, m: check_conditions(base, m, ((0,), (1,), ()), base[:1], base[1:]),
        lambda base, m: numeric_verify(base, m, ((0,), (1,), ()), np.random.default_rng(0)),
    ], ids=["greedy_search", "exhaustive_search", "check_conditions", "numeric_verify"])
    def test_non_canonical_columns_rejected(self, search):
        with pytest.raises(ValueError, match=r"base column \[2, 1\] is not canonical"):
            search(np.array([[1, 2], [2, 1]]), [2, 2])
        with pytest.raises(ValueError, match="items x classes block"):
            search(np.array([1, 2]), [2, 2])


# Recorded search reports: `check-id` output is part of the CLI contract, so
# a change to the search code must leave every one of them unchanged.
_TRUE_DIAGNOSTICS = {
    "level_bounds": [True, True], "merge_relation": [True, True],
    "pattern_capacity": [True, True], "third_part_rows_unique": True,
    "unique_rows": [True, True],
}
GOLDEN_EXAMPLE_GREEDY = {
    "diagnostics": _TRUE_DIAGNOSTICS, "status": "Identifiable",
    "witness": {
        "merged1": [[1, 1], [2, 1], [2, 2], [1, 2], [3, 2]],
        "merged2": [[1, 1], [2, 2], [3, 1], [2, 1], [1, 2]],
        "tripartition": [[1, 2], [0, 3], [4, 5]],
    },
}
GOLDEN_EXAMPLE_EXHAUSTIVE = {
    "diagnostics": _TRUE_DIAGNOSTICS, "status": "Identifiable",
    "witness": {
        "merged1": [[1, 1], [2, 1], [3, 2], [2, 2], [1, 2]],
        "merged2": [[1, 1], [2, 1], [3, 1], [1, 2], [3, 2]],
        "tripartition": [[0, 2], [1, 4], [3, 5]],
    },
}
GOLDEN_FIXTURES = {
    4: ([1, 6], [7, 8],
        "bfea7954785bfddde0a99fe2160bf7526aefbcbfefbd25e85179229efb6ea418"),
    5: ([1, 6, 7], [8, 11, 18],
        "f32cab9765901ebf74a4e6aa25a3973dd377bbdc2b7237435272628c229dcb44"),
    8: ([2, 7, 11], [14, 19, 24],
        "3314c6c2af50e37d8a96df68d0155c1416abf2d2816df7fd9a66bb43dd95d8fe"),
    11: ([2, 7, 11, 14, 19, 24], [9, 18, 21, 22, 26],
         "0cb042f03b02e452b3d4a9d009818a0806db49c06f9b73ee25fdf30ca8826d17"),
    16: ([2, 7, 11, 14, 19, 24], [0, 9, 18, 21, 22, 26, 30],
         "92ab3dd82f22062e200858a56f03d1bc9f9b10c09f1237ab2c0bbee2ab0e4d4c"),
}


class TestGoldenWitnesses:
    def test_worked_example_reports(self):
        assert greedy_search(EXAMPLE_B, EXAMPLE_M).to_dict() == GOLDEN_EXAMPLE_GREEDY
        assert exhaustive_search(EXAMPLE_B, EXAMPLE_M).to_dict() == GOLDEN_EXAMPLE_EXHAUSTIVE

    @pytest.mark.parametrize("n_classes", sorted(GOLDEN_FIXTURES))
    def test_fixture_greedy_reports(self, n_classes):
        part1, part2, digest = GOLDEN_FIXTURES[n_classes]
        part3 = sorted(set(range(32)) - set(part1) - set(part2))
        base = fixture_columns(n_classes)
        report = greedy_search(base, np.full(len(base), 2))
        payload = report.to_dict()
        assert payload["witness"]["tripartition"] == [part1, part2, part3]
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
