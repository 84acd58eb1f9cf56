import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.special import rel_entr

import fairclust as fc
from fairclust.clustering import contingency
from fairclust.metrics import (
    acc,
    balance,
    cv_score,
    fwd,
    histograms_to_csv,
    hungarian_match,
    nmi,
    report_from_assignments,
)


def per_cluster(assignments, protected, K, T):
    return report_from_assignments(assignments, protected, T=T, K=K).per_cluster


class TestClusterHistograms:
    """A report's per-cluster counts and histograms, read off the rows of
    the cluster-by-state contingency table."""

    def test_even_split(self):
        (cluster,) = per_cluster([0, 0, 0, 0], [0, 0, 1, 1], K=1, T=2)
        assert cluster["histogram"] == [0.5, 0.5]
        assert cluster["size"] == 4 and cluster["counts"] == [2, 2]

    def test_monochromatic(self):
        (cluster,) = per_cluster([0, 0, 0], [1, 1, 1], K=1, T=3)
        assert cluster["histogram"] == [0.0, 1.0, 0.0]

    def test_two_cluster_hand_count(self):
        clusters = per_cluster([0, 0, 1], [0, 1, 1], K=2, T=2)
        assert [c["histogram"] for c in clusters] == [[0.5, 0.5], [0.0, 1.0]]
        np.testing.assert_array_equal(contingency([0, 0, 1], [0, 1, 1], 2, 2),
                                      [[1, 1], [0, 1]])

    def test_empty_cluster_flagged(self):
        clusters = per_cluster([0, 0], [0, 1], K=2, T=2)
        assert clusters[1] == {"cluster": 1, "size": 0, "counts": [0, 0]}

    @pytest.mark.parametrize("assignments, protected, message", [
        ([0, 1, 5], [0, 1, 1], r"row labels must lie in 0\.\.1, got 0\.\.5"),
        ([0, 1, 1], [0, 3, 1], r"column labels must lie in 0\.\.1, got 0\.\.3"),
        ([0, -1, 1], [0, 1, 1], r"row labels must lie in 0\.\.1, got -1\.\.1"),
        ([0, 1, 1], [0, 1, -1], r"column labels must lie in 0\.\.1, got -1\.\.1"),
        ([0, 1, 1], [0, 1], r"equal length"),
    ])
    def test_labels_outside_k_or_t_rejected(self, assignments, protected, message):
        with pytest.raises(ValueError, match=message):
            contingency(assignments, protected, 2, 2)
        with pytest.raises(ValueError, match=message):
            report_from_assignments(assignments, protected, T=2, K=2)


class TestFwd:
    def test_uniform_is_zero(self):
        assert fwd(np.full(5, 0.2)) == 0.0

    def test_monochromatic_maximum(self):
        # one bin holds everything: 0.5 * (0.75 + 3 * 0.25) = 0.75 for T=4
        assert fwd([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.75)

    def test_binary_example(self):
        assert fwd([0.8, 0.2]) == pytest.approx(0.3)

    def test_bounds_attained(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = int(rng.integers(2, 7))
            h = rng.dirichlet(np.ones(t))
            value = fwd(h)
            assert 0.0 <= value <= (t - 1) / t + 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        h = rng.dirichlet(np.ones(4))
        perm = rng.permutation(4)
        assert fwd(h) == pytest.approx(fwd(h[perm]))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            fwd([0.5, 0.4])

    def test_ordered_mode_differs_for_ordinal_bins(self):
        # all mass in the first of four ordered bins: transporting to
        # uniform walks 0.75 + 0.5 + 0.25 bins of mass
        h = np.array([1.0, 0.0, 0.0, 0.0])
        assert fwd(h) == pytest.approx(0.75)
        assert fwd(h, ordered=True) == pytest.approx(1.5)

    def test_uniform_iff_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            h = rng.dirichlet(np.ones(3))
            if fwd(h) == 0.0:
                np.testing.assert_allclose(h, 1 / 3)


class TestBalance:
    def test_perfect(self):
        assert balance([50, 50]) == 1.0

    def test_monochromatic(self):
        assert balance([0, 70]) == 0.0

    def test_uneven(self):
        assert balance([30, 70]) == pytest.approx(3 / 7)

    def test_only_binary(self):
        with pytest.raises(ValueError):
            balance([1, 2, 3])


class TestCvScore:
    def test_balanced(self):
        assert cv_score([0.5, 0.5]) == 0.0

    def test_example(self):
        assert cv_score([0.8, 0.2]) == pytest.approx(0.6)
        assert cv_score([0.8, 0.2]) == pytest.approx(2 * fwd([0.8, 0.2]))

    def test_extreme(self):
        assert cv_score([1.0, 0.0]) == 1.0

    def test_exactly_twice_fwd(self):
        # holds to machine precision across random binary histograms
        rng = np.random.default_rng(3)
        for _ in range(1000):
            h1 = rng.random()
            h = np.array([h1, 1.0 - h1])
            assert abs(cv_score(h) - 2.0 * fwd(h)) <= 1e-12

    def test_only_binary(self):
        with pytest.raises(ValueError):
            cv_score([0.2, 0.3, 0.5])


class TestAcc:
    def test_exact_match(self):
        truth = np.array([0, 1, 2, 0, 1, 2])
        assert acc(truth, truth) == 1.0

    def test_relabeling_invariant(self):
        rng = np.random.default_rng(4)
        truth = rng.integers(0, 3, size=120)
        relabel = np.array([2, 0, 1])
        assert acc(relabel[truth], truth) == 1.0

    def test_contingency_example(self):
        # table [[4,1],[2,3]] over 10 points: best matching scores 7
        pred = np.array([0] * 5 + [1] * 5)
        truth = np.array([0] * 4 + [1] + [0] * 2 + [1] * 3)
        assert acc(pred, truth) == pytest.approx(0.7)


class TestNmi:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert nmi(labels, labels) == 1.0

    def test_single_cluster_against_balanced_truth(self):
        assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_independent_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_both_trivial_partitions(self):
        assert nmi([0, 0, 0], [0, 0, 0]) == 1.0

    def test_one_cluster_partition_whose_marginals_round_above_one(self):
        # the 13 label shares sum to 1.0000000000000002, so an entropy
        # computed from them would be a tiny negative number
        assert nmi(np.zeros(13, int), np.arange(13) % 4) == 0.0
        assert nmi(np.arange(13) % 4, np.zeros(13, int)) == 0.0

    def test_report_of_one_cluster_is_strict_json(self):
        rep = report_from_assignments(np.zeros(13, int), np.arange(13) % 2, T=2, K=2,
                                      labels=np.arange(13) % 4)

        def refuse(constant):
            raise ValueError(f"{constant} is not strict JSON")

        assert json.loads(rep.to_json(), parse_constant=refuse)["nmi"] == 0.0

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            nmi([0, 1, 1], [0, 1])

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError, match="^label arrays are empty"):
            nmi([], [])

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 3, size=80)
        b = rng.integers(0, 4, size=80)
        assert nmi(a, b) == pytest.approx(nmi(b, a))

    def test_relabeling_invariant(self):
        rng = np.random.default_rng(6)
        truth = rng.integers(0, 3, size=90)
        pred = rng.integers(0, 3, size=90)
        relabel = np.array([1, 2, 0])
        assert nmi(relabel[pred], truth) == pytest.approx(nmi(pred, truth))


class TestReport:
    def test_perfect_uniform_clusters(self):
        assignments = np.array([0] * 4 + [1] * 4)
        protected = np.array([0, 0, 1, 1] * 2)
        labels = assignments
        rep = report_from_assignments(assignments, protected, T=2, K=2, labels=labels)
        assert rep.fwd_mean == 0.0 and rep.fwd_max == 0.0
        assert rep.acc == 1.0
        assert rep.balance_min == 1.0

    def test_single_non_empty_cluster(self):
        rep = report_from_assignments([0, 0, 0], [0, 1, 1], T=2, K=2)
        assert rep.K_effective == 1
        assert rep.fwd_mean == rep.fwd_max == pytest.approx(fwd([1 / 3, 2 / 3]))

    def test_monochromatic_blob_scenario(self):
        ds = fc.synth_blobs(fc.SynthSpec(n_points=1200, dims=5, n_blobs=3, T=3,
                                         correlation=1.0, seed=6))
        rep = report_from_assignments(ds.labels, ds.protected, T=3, K=3,
                                      labels=ds.labels)
        assert rep.fwd_max == pytest.approx((3 - 1) / 3)
        assert rep.acc == 1.0

    def test_fwd_max_at_least_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = 60
            assignments = rng.integers(0, 4, size=n)
            protected = rng.integers(0, 3, size=n)
            rep = report_from_assignments(assignments, protected, T=3, K=4)
            assert rep.fwd_max >= rep.fwd_mean >= 0.0

    def test_json_schema(self):
        rep = report_from_assignments([0, 0, 1, 1], [0, 1, 0, 1], T=2, K=2,
                                      labels=[0, 0, 1, 1])
        payload = json.loads(rep.to_json())
        for key in ("schema_version", "k", "t", "k_effective", "fwd_mean",
                    "fwd_max", "balance_min", "acc", "nmi", "per_cluster"):
            assert key in payload
        assert payload["schema_version"] == 1
        assert len(payload["per_cluster"]) == 2
        for entry in payload["per_cluster"]:
            assert {"cluster", "size", "counts", "histogram", "fwd",
                    "balance", "cv"} <= set(entry)

    def test_dict_keys(self):
        rep = report_from_assignments([0, 0, 1, 1], [0, 1, 0, 1], T=2, K=2)
        assert set(rep.to_dict()) == {"schema_version", "k", "t", "k_effective", "fwd_mean",
                                      "fwd_max", "balance_min", "acc", "nmi", "per_cluster"}

    def test_histograms_csv(self, tmp_path):
        rep = report_from_assignments([0, 0, 1, 1], [0, 1, 0, 1], T=2, K=2)
        path = histograms_to_csv(rep, tmp_path / "hists.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "cluster,size,fwd,h0,h1"
        assert len(lines) == 3

    def test_evaluates_trained_model(self):
        spec = fc.SynthSpec(n_points=300, dims=4, n_blobs=2, T=2,
                            correlation=0.9, blob_spread=0.08, seed=2)
        ds = fc.synth_blobs(spec)
        ae, _ = fc.pretrain(ds.features, fc.AeConfig(
            dims=(4, 8, 2), layerwise_epochs=8, global_epochs=8, batch=128, seed=0))
        model = fc.train(ds, ae, fc.TrainConfig(K=2, max_epochs=10, batch=128, seed=0))
        rep = fc.report(model, ds)
        assert rep.acc >= 0.98
        assert rep.K == 2 and rep.T == 2


class TestInvariantProperties:
    @given(st.lists(st.integers(0, 50), min_size=2, max_size=8).filter(any))
    def test_fwd_lies_in_zero_to_t_minus_one_over_t(self, counts):
        T = len(counts)
        value = fwd(np.array(counts, dtype=float) / sum(counts))
        assert 0.0 <= value <= (T - 1) / T + 1e-12

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_cv_is_twice_fwd_for_binary_attributes(self, n0, n1):
        if n0 + n1 == 0:
            return
        h = np.array([n0, n1], dtype=float) / (n0 + n1)
        assert abs(cv_score(h) - 2.0 * fwd(h)) <= 1e-15

    @given(st.integers(2, 6), st.data())
    def test_acc_and_nmi_ignore_a_relabeling_of_the_clusters(self, K, data):
        n = data.draw(st.integers(1, 60))
        pred = np.array(data.draw(st.lists(st.integers(0, K - 1), min_size=n, max_size=n)))
        truth = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        perm = np.array(data.draw(st.permutations(range(K))))
        assert acc(perm[pred], truth) == acc(pred, truth)
        assert nmi(perm[pred], truth) == pytest.approx(nmi(pred, truth), rel=1e-12, abs=1e-15)


def reference_table(pred, truth, shape, dtype):
    """A count table as indexed accumulation into zeros builds it."""
    table = np.zeros(shape, dtype=dtype)
    np.add.at(table, (pred, truth), 1)
    return table


def reference_nmi(pred, truth):
    joint = reference_table(pred, truth, (pred.max() + 1, truth.max() + 1), float)
    joint /= len(pred)
    p_pred, p_truth = joint.sum(axis=1), joint.sum(axis=0)

    def entropy(p):
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    mutual = float(rel_entr(joint, np.outer(p_pred, p_truth)).sum())
    return float(min(max(mutual / np.sqrt(entropy(p_pred) * entropy(p_truth)), 0.0), 1.0))


class TestAgainstSeparateTables:
    """Every metric read off the one contingency table equals the same
    metric built from a table of its own: per-cluster masks for the
    histograms, indexed accumulation for the matching and NMI."""

    @given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 6), st.data())
    def test_bit_identical(self, K, T, L, data):
        n = data.draw(st.integers(1, 80))

        def labels(count):
            return np.array(data.draw(st.lists(st.integers(0, count - 1),
                                               min_size=n, max_size=n)))

        pred, protected, truth = labels(K), labels(T), labels(L)

        clusters = per_cluster(pred, protected, K, T)
        for k, counts in enumerate(contingency(pred, protected, K, T)):
            members = protected[pred == k]
            expected = np.bincount(members, minlength=T)
            assert counts.dtype == expected.dtype
            assert counts.tobytes() == expected.tobytes()
            assert clusters[k]["counts"] == expected.tolist()
            assert clusters[k]["size"] == members.size
            if members.size:
                assert clusters[k]["histogram"] == (expected / members.size).tolist()

        n_pred = pred.max() + 1
        side = max(n_pred, truth.max() + 1)
        table = reference_table(pred, truth, (side, side), np.int64)
        rows, cols = linear_sum_assignment(table, maximize=True)
        expected_match = ({int(r): int(c) for r, c in zip(rows, cols) if r < n_pred},
                          int(table[rows, cols].sum()))
        assert hungarian_match(pred, truth) == expected_match
        assert acc(pred, truth).hex() == (expected_match[1] / n).hex()
        if len(set(pred.tolist())) > 1 and len(set(truth.tolist())) > 1:
            assert nmi(pred, truth).hex() == reference_nmi(pred, truth).hex()
