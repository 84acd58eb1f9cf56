from itertools import permutations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from fairclust.clustering import (
    contingency,
    distortion,
    hungarian_match,
    kmeans_pp_init,
    lloyd,
    max_assignment,
    nearest_assign,
)
from fairclust.metrics import acc
from fairclust.nn import Rng


def blob_pair(n_per=50, gap=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, 2))
    b = rng.standard_normal((n_per, 2)) + gap
    return np.vstack([a, b])


class TestKmeansPlusPlus:
    def test_k_equals_n_gives_zero_distortion(self):
        Z = np.random.default_rng(0).standard_normal((7, 3))
        centers = kmeans_pp_init(Z, 7, Rng(1).stream("kmeans"))
        assign = nearest_assign(Z, centers)
        assert distortion(Z, centers, assign) == pytest.approx(0.0)

    def test_duplicates_carry_no_selection_weight(self):
        p, q = np.array([0.0, 0.0]), np.array([5.0, 5.0])
        Z = np.stack([p, p, q, q])
        for seed in range(20):
            centers = kmeans_pp_init(Z, 2, Rng(seed).stream("kmeans"))
            got = {tuple(c) for c in centers}
            assert got == {tuple(p), tuple(q)}

    def test_separated_blobs_both_seeded(self):
        Z = blob_pair()
        hits = 0
        for seed in range(100):
            centers = kmeans_pp_init(Z, 2, Rng(seed).stream("kmeans"))
            sides = nearest_assign(centers, np.array([[0.0, 0.0], [10.0, 10.0]]))
            hits += len(set(sides.tolist())) == 2
        assert hits >= 95

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans_pp_init(np.zeros((3, 2)), 4, Rng(0).stream("kmeans"))


class TestLloyd:
    def test_fixed_point_at_blob_means(self):
        Z = blob_pair()
        init = np.stack([Z[:50].mean(axis=0), Z[50:].mean(axis=0)])
        centers, assign = lloyd(Z, init, max_iters=1)
        np.testing.assert_array_equal(assign, [0] * 50 + [1] * 50)
        np.testing.assert_allclose(centers, init)

    def test_one_dimensional_example(self):
        Z = np.array([[0.0], [1.0], [9.0], [10.0]])
        centers, assign = lloyd(Z, np.array([[0.0], [10.0]]))
        np.testing.assert_allclose(np.sort(centers[:, 0]), [0.5, 9.5])
        np.testing.assert_array_equal(assign, [0, 0, 1, 1])

    def test_zero_iterations_returns_init_and_induced_assignment(self):
        Z = np.array([[0.0], [4.0]])
        init = np.array([[1.0], [9.0]])
        centers, assign = lloyd(Z, init, max_iters=0)
        np.testing.assert_array_equal(centers, init)
        np.testing.assert_array_equal(assign, [0, 0])

    def test_distortion_non_increasing(self):
        Z = np.random.default_rng(3).standard_normal((120, 4))
        init = kmeans_pp_init(Z, 5, Rng(3).stream("kmeans"))
        costs = []
        for iters in range(1, 10):
            centers, assign = lloyd(Z, init, max_iters=iters)
            costs.append(distortion(Z, centers, assign))
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_empty_cluster_reseeded(self):
        Z = np.array([[0.0], [1.0], [2.0]])
        init = np.array([[10.0], [11.0]])  # everything lands on one side
        centers, assign = lloyd(Z, init, max_iters=5)
        assert len(set(assign.tolist())) == 2

    def test_nearest_ties_take_lowest_index(self):
        Z = np.array([[0.0]])
        centers = np.array([[1.0], [-1.0]])
        assert nearest_assign(Z, centers)[0] == 0


class TestHungarianMatch:
    def brute_force(self, table):
        k = table.shape[0]
        return max(sum(table[i, p[i]] for i in range(k)) for p in permutations(range(k)))

    def test_permuted_labels_fully_agree(self):
        rng = np.random.default_rng(4)
        truth = rng.integers(0, 4, size=200)
        relabel = np.array([2, 3, 1, 0])
        _, agreement = hungarian_match(relabel[truth], truth)
        assert agreement == 200

    def test_diagonal_table(self):
        pred = np.array([0] * 5 + [1] * 5)
        truth = pred.copy()
        mapping, agreement = hungarian_match(pred, truth)
        assert agreement == 10
        assert mapping == {0: 0, 1: 1}

    def test_small_table_matches_brute_force(self):
        pred = np.array([0] * 5 + [1] * 5)
        truth = np.array([0] * 4 + [1] + [0] * 2 + [1] * 3)
        mapping, agreement = hungarian_match(pred, truth)
        assert agreement == 7  # contingency [[4,1],[2,3]]
        assert mapping == {0: 0, 1: 1}

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(20, 60))
            pred = rng.integers(0, k, size=n)
            truth = rng.integers(0, k, size=n)
            table = np.zeros((k, k), dtype=int)
            np.add.at(table, (pred, truth), 1)
            _, agreement = hungarian_match(pred, truth)
            assert agreement == self.brute_force(table)

    def test_rectangular_tables_padded(self):
        pred = np.array([0, 0, 1, 1, 2, 2])
        truth = np.array([0, 0, 1, 1, 1, 1])
        _, agreement = hungarian_match(pred, truth)
        assert agreement == 4

    def test_same_assignment_as_scipy_on_tie_heavy_tables(self):
        # small entry ranges make many matchings equally good; zeroed last
        # rows and columns are the padding of a non-square label pair
        rng = np.random.default_rng(21)
        for _ in range(3000):
            side = int(rng.integers(1, 9))
            table = rng.integers(0, int(rng.integers(2, 6)), size=(side, side))
            if rng.random() < 0.3:
                table[int(rng.integers(1, side + 1)):] = 0
            if rng.random() < 0.3:
                table[:, int(rng.integers(1, side + 1)):] = 0
            rows, cols = linear_sum_assignment(table, maximize=True)
            assert rows.tolist() == list(range(side))
            assert max_assignment(table) == cols.tolist(), table

    @pytest.mark.parametrize("match", [hungarian_match, acc])
    @pytest.mark.parametrize("pred, truth, sizes", [
        ([], [], "0 and 0"), ([], [0, 1], "0 and 2"), ([1], [], "1 and 0"),
    ])
    def test_empty_labels_rejected(self, match, pred, truth, sizes):
        with pytest.raises(ValueError, match=f"^pred and truth must not be empty, got {sizes} "):
            match(np.array(pred, dtype=int), np.array(truth, dtype=int))


class TestContingency:
    def test_hand_count(self):
        table = contingency([0, 0, 1, 2, 2, 2], [1, 1, 0, 0, 1, 1])
        np.testing.assert_array_equal(table, [[0, 2], [1, 0], [1, 2]])

    def test_explicit_sizes_pad_with_zeros(self):
        table = contingency([0, 1], [1, 1], rows=3, cols=4)
        assert table.shape == (3, 4) and table.sum() == 2 and table[2].sum() == 0

    @pytest.mark.parametrize("a, b, message", [
        ([0, 5, 1], [0, 1, 1], r"row labels must lie in 0\.\.1, got 0\.\.5"),
        ([0, 1, 1], [0, 3, 1], r"column labels must lie in 0\.\.2, got 0\.\.3"),
        ([-1, 0, 1], [0, 0, 1], r"row labels must lie in 0\.\.1, got -1\.\.1"),
        ([0, 1, 1], [0, -2, 1], r"column labels must lie in 0\.\.2, got -2\.\.1"),
    ])
    def test_out_of_range_labels_name_the_range(self, a, b, message):
        with pytest.raises(ValueError, match=message):
            contingency(a, b, 2, 3)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match=r"equal length, got shapes \(3,\) and \(2,\)"):
            contingency([0, 1, 1], [0, 1])

    @pytest.mark.parametrize("rows, cols", [(None, None), (2, None), (None, 3)])
    def test_empty_labels_need_explicit_sizes(self, rows, cols):
        with pytest.raises(ValueError,
                           match="^label arrays are empty, so rows and cols must be given$"):
            contingency([], [], rows, cols)

    def test_empty_labels_with_explicit_sizes_count_nothing(self):
        table = contingency([], [], rows=2, cols=3)
        assert table.shape == (2, 3) and not table.any()

    def test_negative_prediction_is_not_wrapped(self):
        # indexing would wrap -1 onto the last cluster and score 2 of 3
        with pytest.raises(ValueError, match=r"row labels must lie in 0\.\.1, got -1\.\.1"):
            hungarian_match([-1, 0, 1], [0, 0, 1])
