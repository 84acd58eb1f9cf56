import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fairclust as fc
from fairclust import nn
from fairclust.autoencoder import encode, init_params
from fairclust.clustering import nearest_assign
from fairclust.model import (
    CENTROIDS,
    TrainConfig,
    _refresh_targets,
    batch_centroids,
    compute_fairoids,
    fair_objective,
    init_centroids,
    kl_loss,
    load_model,
    predict,
    save_model,
    sharpen_target,
    smooth_target,
    soft_assign,
    train,
)
from fairclust.nn import AffineLayer, ParamSet, Rng, backward

from gradcheck import finite_diff_check


def row_stochastic(rng, rows, cols, low=0.05):
    m = rng.uniform(low, 1.0, size=(rows, cols))
    return m / m.sum(axis=1, keepdims=True)


class TestTrainConfig:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["gamma", "beta", "lr", "convergence_tol",
                                      "recon_weight"])
    def test_non_finite_float_refused(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            TrainConfig(K=2, **{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("gamma", -1.0, "gamma must be non-negative"),
        ("lr", 0.0, "lr must be positive"),
        ("convergence_tol", -1.0, "convergence_tol must be non-negative"),
        ("recon_weight", -1.0, "recon_weight must be non-negative"),
        ("seed", -1, "seed must be non-negative"),
        ("batch", 0, "batch must be positive"),
        ("max_epochs", -1, "max_epochs must be non-negative"),
    ])
    def test_out_of_range_messages(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(K=2, **{name: value})

    def test_zero_epochs_is_accepted(self):
        assert TrainConfig(K=2, max_epochs=0).max_epochs == 0


class TestTargetProperties:
    @given(st.integers(1, 12), st.integers(2, 5), st.integers(2, 4), st.integers(1, 4),
           st.floats(0.5, 5.0), st.floats(2.0, 1e4), st.data())
    def test_q_p_and_psi_are_row_stochastic(self, n, K, T, d, dof, beta, data):
        def matrix(rows):
            values = data.draw(st.lists(st.floats(-100, 100), min_size=rows * d,
                                        max_size=rows * d))
            return np.reshape(values, (rows, d))

        Z, M, fairoids = matrix(n), matrix(K), matrix(T)
        Q = soft_assign(Z, M, dof)
        P = sharpen_target(Q)
        Psi = smooth_target(soft_assign(M, fairoids, dof), beta, 1e-9)
        for R, rows, cols in ((Q, n, K), (P, n, K), (Psi, K, T)):
            assert R.shape == (rows, cols) and np.all(R >= 0)
            np.testing.assert_allclose(R.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestSoftAssign:
    def test_equidistant_point_gets_uniform_row(self):
        M = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        Q = soft_assign(np.zeros((1, 2)), M)
        np.testing.assert_allclose(Q, 0.25)

    def test_kernel_values_at_unit_distance(self):
        # distances (0, 1) with dof 1: kernels (1, 1/2), row (2/3, 1/3)
        Q = soft_assign(np.zeros((1, 1)), np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(Q[0], [2 / 3, 1 / 3])

    def test_kernel_values_at_distances_one_two(self):
        # kernels (1/2, 1/5) normalize to (5/7, 2/7)
        Q = soft_assign(np.zeros((1, 1)), np.array([[1.0], [-2.0]]))
        np.testing.assert_allclose(Q[0], [5 / 7, 2 / 7])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        Q = soft_assign(rng.standard_normal((40, 3)), rng.standard_normal((5, 3)),
                        dof=2.5)
        np.testing.assert_allclose(Q.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(Q > 0)

    def test_decreasing_in_distance(self):
        Z = np.array([[0.0, 0.0]])
        M = np.array([[0.5, 0.0], [1.5, 0.0], [3.0, 0.0]])
        row = soft_assign(Z, M)[0]
        assert row[0] > row[1] > row[2]


class TestSharpenTarget:
    def test_symmetric_row_is_fixed(self):
        P = sharpen_target(np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(P, [[0.5, 0.5]])

    def test_two_row_worked_example(self):
        Q = np.array([[0.9, 0.1], [0.5, 0.5]])
        f = Q.sum(axis=0)
        expected_row0 = np.array([0.81 / f[0], 0.01 / f[1]])
        expected_row0 /= expected_row0.sum()
        P = sharpen_target(Q)
        np.testing.assert_allclose(P[0], expected_row0)
        np.testing.assert_allclose(P[0], [0.9720, 0.0280], atol=5e-4)

    def test_one_hot_rows_are_fixed_points(self):
        Q = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(sharpen_target(Q), Q)

    def test_argmax_preserved_under_equal_frequencies(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            base = row_stochastic(rng, 1, k)[0]
            if len(np.unique(base)) < k:
                continue
            rows = np.stack([np.roll(base, shift) for shift in range(k)])
            P = sharpen_target(rows)
            np.testing.assert_array_equal(P.argmax(axis=1), rows.argmax(axis=1))


class TestFairoids:
    def test_singleton_groups(self):
        Z = np.array([[0.0, 0.0], [2.0, 2.0]])
        np.testing.assert_array_equal(compute_fairoids(Z, [0, 1], 2), Z)

    def test_group_mean(self):
        Z = np.array([[0.0, 0.0], [2.0, 0.0], [9.0, 9.0]])
        Pi = compute_fairoids(Z, [0, 0, 1], 2)
        np.testing.assert_array_equal(Pi[0], [1.0, 0.0])

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError, match="state 2"):
            compute_fairoids(np.zeros((2, 2)), [0, 1], 3)


class TestFairAssign:
    def test_equidistant_centroid_is_uniform(self):
        Pi = np.array([[1.0, 0.0], [-1.0, 0.0]])
        Phi = soft_assign(np.zeros((1, 2)), Pi)
        np.testing.assert_allclose(Phi, 0.5)

    def test_unit_distance_values(self):
        Phi = soft_assign(np.zeros((1, 1)), np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(Phi[0], [2 / 3, 1 / 3])

    def test_swapping_fairoids_permutes_columns(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((3, 2))
        Pi = rng.standard_normal((4, 2))
        Phi = soft_assign(M, Pi)
        swapped = soft_assign(M, Pi[[1, 0, 2, 3]])
        np.testing.assert_allclose(swapped, Phi[:, [1, 0, 2, 3]])

    def test_uniform_row_iff_equidistant(self):
        rng = np.random.default_rng(3)
        Pi = rng.standard_normal((3, 4))
        center = Pi.mean(axis=0)
        # the circumcenter direction: solve for a point equidistant to all
        from scipy.optimize import least_squares

        def gaps(m):
            d = np.sqrt(((m[None] - Pi) ** 2).sum(axis=1))
            return d[1:] - d[0]

        m_star = least_squares(gaps, center).x
        row = soft_assign(m_star[None], Pi)[0]
        np.testing.assert_allclose(row, 1 / 3, atol=1e-8)
        # and a strictly non-equidistant centroid gives a non-uniform row
        row2 = soft_assign((m_star + np.array([0.5, 0, 0, 0]))[None], Pi)[0]
        assert np.abs(row2 - 1 / 3).max() > 1e-3


class TestSmoothTarget:
    def test_uniform_phi_stays_uniform(self):
        Phi = np.full((3, 4), 0.25)
        np.testing.assert_allclose(smooth_target(Phi), 0.25)

    def test_large_beta_worked_example(self):
        Phi = np.array([[0.7, 0.3], [0.5, 0.5]])
        Psi = smooth_target(Phi, beta=1000.0, epsilon=1e-9)
        # column frequencies (1.2, 0.8); flattened similarities are ~1, so
        # every row lands near the normalized inverse frequencies (0.4, 0.6)
        np.testing.assert_allclose(Psi, [[0.4, 0.6], [0.4, 0.6]], atol=1e-3)

    def test_symmetric_rows_at_beta_two(self):
        Phi = np.array([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(smooth_target(Phi, beta=2.0), 0.5)

    def test_inverse_frequency_limit(self):
        rng = np.random.default_rng(4)
        Phi = row_stochastic(rng, 5, 3, low=0.1)
        freq = Phi.sum(axis=0)
        limit = (1 / freq) / (1 / freq).sum()
        Psi = smooth_target(Phi, beta=1e7)
        np.testing.assert_allclose(Psi, np.tile(limit, (5, 1)), atol=1e-6)

    def test_beta_below_two_rejected(self):
        with pytest.raises(ValueError):
            smooth_target(np.full((2, 2), 0.5), beta=1.5)


class TestKlLoss:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        P = row_stochastic(rng, 6, 4)
        P[0] = [0.0, 0.5, 0.5, 0.0]
        assert kl_loss(P, P) == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_entries_raise_no_warning(self):
        target = np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0]])
        model = np.array([[0.0, 0.5, 0.5], [0.2, 0.8, 0.0]])
        assert kl_loss(target, model) == pytest.approx(np.log(1.25))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_positive_target_against_zero_model_is_inf(self):
        assert kl_loss(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]])) == np.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("target, model", [
        ([[0.5, 0.5]], [[1.5, -0.5]]),
        ([[1.5, -0.5]], [[0.5, 0.5]]),
        ([[1.0, -0.0001]], [[1.0, 0.0]]),
    ])
    def test_negative_entry_is_nan(self, target, model):
        assert np.isnan(kl_loss(np.array(target), np.array(model)))

    @pytest.mark.parametrize("K", [2, 4, 10])
    def test_matches_scipy_rel_entr_on_row_stochastic_batches(self, K):
        from scipy.special import rel_entr

        rng = np.random.default_rng(K)
        sparse = rng.uniform(0.0, 1.0, size=(256, K))
        sparse[rng.random(sparse.shape) < 0.2] = 0.0
        sparse[:, 0] += 0.5
        P = sparse / sparse.sum(axis=1, keepdims=True)
        for Q in (row_stochastic(rng, 256, K), row_stochastic(rng, 256, K, low=1e-6)):
            expected = rel_entr(P, Q).sum()
            assert kl_loss(P, Q) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_one_hot_against_uniform(self):
        value = kl_loss(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))
        assert value == pytest.approx(np.log(2))

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            p = row_stochastic(rng, 1, 5)
            q = row_stochastic(rng, 1, 5)
            assert kl_loss(p, q) >= 0.0


class TestBatchCentroids:
    def test_one_hot_reduces_to_group_means(self):
        P = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        Z = np.array([[0.0, 0.0], [2.0, 2.0], [5.0, 5.0]])
        M, singular = batch_centroids(P, Z)
        np.testing.assert_allclose(M, [[1.0, 1.0], [5.0, 5.0]], atol=1e-10)
        assert not singular

    def test_soft_assignment_worked_example(self):
        P = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        Z = np.array([[0.0], [4.0], [2.0]])
        np.testing.assert_allclose(batch_centroids(P, Z)[0], [[0.0], [4.0]], atol=1e-12)

    def test_singular_system_retried_with_ridge(self):
        P = np.array([[1.0, 0.0], [1.0, 0.0]])  # cluster 1 empty: singular
        Z = np.array([[1.0], [3.0]])
        M, singular = batch_centroids(P, Z)
        assert singular
        assert np.all(np.isfinite(M))
        assert M[0, 0] == pytest.approx(2.0, abs=1e-3)
        assert abs(M[1, 0]) < 1e-3  # empty cluster pulled toward zero

    def test_matches_dense_least_squares(self):
        rng = np.random.default_rng(7)
        P = row_stochastic(rng, 30, 4)
        Z = rng.standard_normal((30, 3))
        expected = np.linalg.lstsq(P, Z, rcond=None)[0]
        np.testing.assert_allclose(batch_centroids(P, Z)[0], expected, atol=1e-8)


def tiny_setup(gamma=2.0, recon=0.0, seed=42):
    rng = np.random.default_rng(seed)
    N, D, d, K, T = 12, 4, 2, 2, 2
    X = rng.random((N, D))
    protected = np.arange(N) % T
    params = ParamSet([
        ("enc0", AffineLayer(0.6 * rng.standard_normal((D, 6)),
                             0.1 * rng.standard_normal(6), "relu")),
        ("enc1", AffineLayer(0.6 * rng.standard_normal((6, d)),
                             0.1 * rng.standard_normal(d), "identity")),
        ("dec0", AffineLayer(0.6 * rng.standard_normal((d, 6)),
                             0.1 * rng.standard_normal(6), "relu")),
        ("dec1", AffineLayer(0.6 * rng.standard_normal((6, D)),
                             0.1 * rng.standard_normal(D), "identity")),
        (CENTROIDS, rng.standard_normal((K, d))),
    ])
    M = params[CENTROIDS]
    Z = encode(params, X)
    Pi = compute_fairoids(Z, protected, T)
    Q = soft_assign(Z, M)
    P = sharpen_target(Q)
    Psi = smooth_target(soft_assign(M, Pi))
    cfg = TrainConfig(K=K, gamma=gamma, recon_weight=recon, seed=0)
    return params, X, P, Psi, Pi, cfg


class TestFairObjective:
    def test_gradients_match_finite_differences(self):
        params, X, P, Psi, Pi, cfg = tiny_setup(gamma=2.5)

        def fn(p):
            grads = p.zeros_like()
            comps = fair_objective(p, grads, X, P, Psi, Pi, cfg)
            return comps["loss"], grads

        assert finite_diff_check(fn, params, h=1e-5, sample=params.n_params) <= 1e-4

    def test_gradients_with_reconstruction_term(self):
        params, X, P, Psi, Pi, cfg = tiny_setup(gamma=1.5, recon=0.7)

        def fn(p):
            grads = p.zeros_like()
            comps = fair_objective(p, grads, X, P, Psi, Pi, cfg)
            return comps["loss"], grads

        assert finite_diff_check(fn, params, h=1e-5, sample=params.n_params) <= 1e-4

    def test_stationary_when_targets_met(self):
        # with the targets equal to the current assignments the objective
        # sits at its minimum and every gradient vanishes
        params, X, _, _, Pi, cfg = tiny_setup(gamma=0.0)
        Z = encode(params, X)
        Q = soft_assign(Z, params[CENTROIDS])
        Psi = soft_assign(params[CENTROIDS], Pi)
        grads = params.zeros_like()
        comps = fair_objective(params, grads, X, Q, Psi, Pi, cfg)
        assert comps["cluster"] == pytest.approx(0.0, abs=1e-12)
        flat = np.concatenate([grads[CENTROIDS].ravel()]
                              + [grads[n].weight.ravel() for n in grads.names()
                                 if n.startswith("enc")])
        assert np.abs(flat).max() < 1e-8

    @pytest.mark.parametrize("recon", [0.0, 0.7])
    def test_fills_the_callers_gradient_set(self, recon):
        params, X, P, Psi, Pi, cfg = tiny_setup(gamma=1.5, recon=recon)
        fresh = params.zeros_like()
        comps = fair_objective(params, fresh, X, P, Psi, Pi, cfg)
        assert set(comps) == {"loss", "cluster", "fairness", "recon"}
        stale = params.copy()
        fair_objective(params, stale, X, P, Psi, Pi, cfg)
        for name in params.names():
            reached = not name.startswith("dec") or recon > 0
            expected = fresh[name] if reached else params[name]
            if name == CENTROIDS:
                assert stale[name].tobytes() == expected.tobytes()
            else:
                assert stale[name].weight.tobytes() == expected.weight.tobytes()
                assert stale[name].bias.tobytes() == expected.bias.tobytes()
        if recon == 0:
            assert not any(fresh[n].weight.any() or fresh[n].bias.any() for n in ("dec0", "dec1"))

    def test_only_the_decoder_pass_forms_an_input_gradient(self, monkeypatch):
        import fairclust.autoencoder as ae_module
        import fairclust.model as model_module

        asked = []

        def recorded(*args, input_grad=False):
            asked.append(input_grad)
            return backward(*args, input_grad=input_grad)

        monkeypatch.setattr(model_module, "backward", recorded)
        monkeypatch.setattr(ae_module, "backward", recorded)
        for recon, expected in ((0.0, [False]), (0.7, [True, False])):
            params, X, P, Psi, Pi, cfg = tiny_setup(recon=recon)
            asked.clear()
            fair_objective(params, params.zeros_like(), X, P, Psi, Pi, cfg)
            assert asked == expected
        asked.clear()
        fc.pretrain(X, fc.AeConfig(dims=(4, 3, 2), layerwise_epochs=1, global_epochs=1,
                                   batch=5, seed=0))
        assert asked and not any(asked)

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((20, 3))
        M = rng.standard_normal((4, 3))
        Pi = rng.standard_normal((2, 3))
        shift = rng.standard_normal(3)
        np.testing.assert_allclose(soft_assign(Z, M), soft_assign(Z + shift, M + shift))
        np.testing.assert_allclose(soft_assign(M, Pi), soft_assign(M + shift, Pi + shift))
        P = sharpen_target(soft_assign(Z, M))
        assert kl_loss(P, soft_assign(Z, M)) == pytest.approx(
            kl_loss(P, soft_assign(Z + shift, M + shift)))


def small_blobs(gamma, seed, n=400, spread=0.08, max_epochs=12, K=2, T=2,
                corr=0.9, blobs=2, data_seed=1, tol=0.001, batch=128, **kw):
    spec = fc.SynthSpec(n_points=n, dims=4, n_blobs=blobs, T=T,
                        correlation=corr, blob_spread=spread, seed=data_seed)
    ds = fc.synth_blobs(spec)
    acfg = fc.AeConfig(dims=(4, 8, K), layerwise_epochs=10, global_epochs=10,
                       batch=128, seed=0)
    ae, _ = fc.pretrain(ds.features, acfg)
    cfg = TrainConfig(K=K, gamma=gamma, max_epochs=max_epochs, batch=batch,
                      convergence_tol=tol, seed=seed, **kw)
    model = train(ds, ae, cfg)
    return ds, model


class TestTrain:
    def test_baseline_perfect_on_separable_blobs(self):
        ds, model = small_blobs(gamma=0.0, seed=1)
        rep = fc.report(model, ds)
        assert rep.acc == 1.0

    def test_history_schema(self):
        ds, model = small_blobs(gamma=0.5, seed=2, max_epochs=4, tol=0.0)
        assert len(model.history) == 4
        for entry in model.history:
            for key in ("epoch", "L_cl", "L_fr", "L", "fwd_mean", "fwd_max",
                        "acc", "nmi"):
                assert key in entry

    def test_convergence_stops_early(self):
        ds, model = small_blobs(gamma=0.0, seed=3, max_epochs=40)
        assert len(model.history) < 40
        assert model.history[-1].get("converged")

    def test_k_larger_than_n_rejected(self):
        spec = fc.SynthSpec(n_points=6, dims=2, n_blobs=2, T=2, correlation=0.5, seed=0)
        ds = fc.synth_blobs(spec)
        ae = init_params((2, 2), Rng(0).stream("init"))
        with pytest.raises(ValueError, match="exceeds"):
            train(ds, ae, TrainConfig(K=8, seed=0, max_epochs=1))

    def test_autoencoder_without_encoder_refused_before_encoding(self, monkeypatch):
        spec = fc.SynthSpec(n_points=6, dims=2, n_blobs=2, T=2, correlation=0.5, seed=0)
        ds = fc.synth_blobs(spec)
        decoder = ParamSet([(name, layer) for name, layer
                            in init_params((2, 2), Rng(0).stream("init")).items()
                            if name.startswith("dec")])

        def no_encoding(*args):
            raise AssertionError("encoded")

        monkeypatch.setattr(fc.model, "encode", no_encoding)
        with pytest.raises(ValueError, match=r"^ae_params holds no encoder \(enc\*\) layers$"):
            train(ds, decoder, TrainConfig(K=2, seed=0, max_epochs=1))

    def test_encoder_with_dead_units_refused_before_training(self, monkeypatch):
        # zero enc0 weights and negative biases: every relu unit is dead on
        # every row, so every row encodes to the last layer's bias
        spec = fc.SynthSpec(n_points=30, dims=4, n_blobs=3, T=3, correlation=0.5, seed=0)
        ds = fc.synth_blobs(spec)
        ae = init_params((4, 8, 3), Rng(0).stream("init"))
        ae["enc0"].weight[...] = 0.0
        ae["enc0"].bias[...] = -np.linspace(0.1, 0.8, 8)
        assert np.all(encode(ae, ds.features) == ae["enc1"].bias)

        def no_seeding(*args):
            raise AssertionError("seeded centroids")

        monkeypatch.setattr(fc.model, "init_centroids", no_seeding)
        with pytest.raises(RuntimeError, match=r"^every row encodes to the same latent "
                                               r"vector; the autoencoder checkpoint is "
                                               r"unusable$"):
            train(ds, ae, TrainConfig(K=3, seed=0, max_epochs=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_rate_raises(self, monkeypatch):
        # the assignment kernel saturates instead of overflowing, so the
        # canonical divergence signal comes through the reconstruction term;
        # with no bound on the gradient norm, nothing holds the step back
        monkeypatch.setattr(nn, "CLIP_NORM", math.inf)
        with pytest.raises(RuntimeError, match="non-finite"):
            small_blobs(gamma=0.0, seed=4, max_epochs=5, lr=1e9, recon_weight=1.0, tol=0.0)

    def test_fairness_reduces_fwd_on_monochromatic_blobs(self):
        # correlation 1 with as many blobs as states: the fairness weight
        # must push the per-cluster fairness distance strictly below the
        # plain-clustering baseline (medians over 5 seeds)
        base, fair = [], []
        for seed in (1, 2, 3, 4, 5):
            kw = dict(n=600, spread=0.5, K=4, T=4, blobs=4, corr=1.0,
                      data_seed=42, max_epochs=25, recon_weight=0.1)
            ds, m0 = small_blobs(gamma=0.0, seed=seed, **kw)
            _, m1 = small_blobs(gamma=10.0, seed=seed, **kw)
            base.append(fc.report(m0, ds).fwd_mean)
            fair.append(fc.report(m1, ds).fwd_mean)
        assert np.median(fair) < np.median(base)

    def test_streaming_refresh_trains(self):
        ds, model = small_blobs(gamma=1.0, seed=5, max_epochs=6, refresh="streaming",
                                batch=64, tol=0.0)
        rep = fc.report(model, ds)
        assert rep.acc > 0.9
        assert np.isfinite(model.history[-1]["L"])

    def test_row_stochastic_invariants_during_training(self):
        ds, model = small_blobs(gamma=2.0, seed=6, max_epochs=3, tol=0.0)
        Z = encode(model.params, ds.features)
        Q = soft_assign(Z, model.centroids)
        P = sharpen_target(Q)
        Phi = soft_assign(model.centroids, model.fairoids)
        Psi = smooth_target(Phi)
        for mat in (Q, P, Phi, Psi):
            np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-9)


class TestRefreshTargets:
    def test_modes_share_p_and_fairoids_and_differ_only_in_phi(self):
        params, X, _, _, _, cfg = tiny_setup()
        protected, T = np.arange(len(X)) % 2, 2
        Z, M = encode(params, X), params[CENTROIDS]
        Q = soft_assign(Z, M)
        incore = _refresh_targets(Z, Q, M, protected, T, replace(cfg, batch=5))
        streaming = _refresh_targets(Z, Q, M, protected, T,
                                     replace(cfg, batch=5, refresh="streaming"))
        for P, fairoids, _ in (incore, streaming):
            np.testing.assert_array_equal(P, sharpen_target(Q))
            np.testing.assert_array_equal(fairoids, compute_fairoids(Z, protected, T))
        np.testing.assert_array_equal(incore[2], soft_assign(M, incore[1]))
        assert not np.allclose(streaming[2], incore[2])
        # one batch over all rows: the estimate is the least-squares solve on all of Z
        P, fairoids, Phi = _refresh_targets(Z, Q, M, protected, T,
                                            replace(cfg, batch=len(X), refresh="streaming"))
        M_est, _ = batch_centroids(P, Z)
        np.testing.assert_allclose(Phi, soft_assign(M_est, fairoids), rtol=0, atol=1e-12)

    def test_singular_batches_logged_once_per_refresh(self, caplog):
        _, _, _, _, _, cfg = tiny_setup()
        Z = np.arange(10.0)[:, None]
        # rows 0-6 in cluster 0, rows 7-9 in cluster 1: with batches of two
        # rows, all but rows 6-7 leave a cluster empty
        Q = np.eye(2)[[0] * 7 + [1] * 3]
        M, protected = np.array([[3.0], [8.0]]), np.arange(10) % 2
        with caplog.at_level("WARNING", logger="fairclust.model"):
            _refresh_targets(Z, Q, M, protected, 2, replace(cfg, batch=2))
            assert not caplog.records
            _, _, Phi = _refresh_targets(Z, Q, M, protected, 2,
                                         replace(cfg, batch=2, refresh="streaming"))
        assert np.all(np.isfinite(Phi))
        [record] = caplog.records
        assert record.levelname == "WARNING"
        assert "4 of 5" in record.getMessage() and "ridge 1e-6" in record.getMessage()


class TestEpochPass:
    @staticmethod
    def count_encodes(monkeypatch):
        import fairclust.model as model_module

        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return encode(*args)

        monkeypatch.setattr(model_module, "encode", counted)
        return calls

    def test_each_parameter_state_is_encoded_once(self, monkeypatch):
        calls = self.count_encodes(monkeypatch)
        ds, model = small_blobs(gamma=1.0, seed=2, max_epochs=3, tol=0.0)
        assert len(model.history) == 3 and not model.history[-1].get("converged")
        # the initial state, then one encoding after each of the three sweeps
        assert calls == [ds.n] * 4
        np.testing.assert_array_equal(
            model.fairoids, compute_fairoids(encode(model.params, ds.features),
                                             ds.protected, ds.T))

    def test_converged_run_encodes_once_per_history_entry(self, monkeypatch):
        calls = self.count_encodes(monkeypatch)
        ds, model = small_blobs(gamma=0.0, seed=3, max_epochs=40)
        assert model.history[-1].get("converged")
        assert len(calls) == len(model.history)

    def test_converged_run_skips_the_last_refresh(self, monkeypatch):
        import fairclust.model as model_module

        calls = []

        def counted(*args):
            calls.append(1)
            return _refresh_targets(*args)

        monkeypatch.setattr(model_module, "_refresh_targets", counted)
        ds, model = small_blobs(gamma=0.0, seed=3, max_epochs=40)
        assert model.history[-1].get("converged")
        # every history entry but the converged one is followed by a sweep
        assert len(calls) == len(model.history) - 1

    def test_one_gradient_set_per_run(self, monkeypatch):
        ds, ae, cfg = tiny_run(recon_weight=0.5)
        calls = []
        zeros_like = ParamSet.zeros_like

        def counted(self):
            calls.append(1)
            return zeros_like(self)

        monkeypatch.setattr(ParamSet, "zeros_like", counted)
        model = train(ds, ae, cfg)
        assert len(model.history) == 3
        # velocity and gradients
        assert len(calls) == 2

    @pytest.mark.parametrize("refresh", ["incore", "streaming"])
    def test_empty_protected_state_is_named_in_both_modes(self, refresh):
        spec = fc.SynthSpec(n_points=60, dims=4, n_blobs=2, T=2, correlation=0.9, seed=0)
        two = fc.synth_blobs(spec)
        ds = fc.Dataset(two.features, two.protected, labels=two.labels, T=3)
        ae = init_params((4, 3, 2), Rng(0).stream("init"))
        with pytest.raises(ValueError, match="protected state 2 has no members"):
            train(ds, ae, TrainConfig(K=2, refresh=refresh, max_epochs=1, seed=0))


class TestPredict:
    def test_matches_training_assignments(self):
        ds, model = small_blobs(gamma=0.0, seed=7)
        Z = encode(model.params, ds.features)
        expected = soft_assign(Z, model.centroids).argmax(axis=1)
        np.testing.assert_array_equal(predict(model, ds.features), expected)
        np.testing.assert_array_equal(predict(model, ds.features),
                                      nearest_assign(Z, model.centroids))

    def test_ties_take_lowest_index(self):
        ds, model = small_blobs(gamma=0.0, seed=8)
        mid = (model.centroids[0] + model.centroids[1]) / 2
        Z = encode(model.params, ds.features)
        # craft an input whose latent equals the midpoint is impractical;
        # check the rule directly on the assignment kernel instead
        Q = soft_assign(mid[None], model.centroids)
        assert Q[0].argmax() in (0, 1)
        np.testing.assert_allclose(Q[0, 0], Q[0, 1], atol=1e-12)
        assert predict(model, ds.features).min() >= 0

    def test_permuting_centroids_permutes_predictions(self):
        ds, model = small_blobs(gamma=0.0, seed=9)
        before = predict(model, ds.features)
        model.centroids = model.centroids[[1, 0]]
        after = predict(model, ds.features)
        np.testing.assert_array_equal(after, 1 - before)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        ds, model = small_blobs(gamma=1.0, seed=10, max_epochs=4, tol=0.0)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.centroids, model.centroids)
        np.testing.assert_array_equal(loaded.fairoids, model.fairoids)
        assert loaded.config == model.config
        np.testing.assert_array_equal(predict(loaded, ds.features),
                                      predict(model, ds.features))


class TestInitCentroids:
    def test_picks_lowest_distortion_restart(self):
        rng = np.random.default_rng(9)
        Z = np.vstack([rng.standard_normal((50, 2)),
                       rng.standard_normal((50, 2)) + 8.0])
        M = init_centroids(Z, 2, Rng(0).stream("kmeans"))
        assign = nearest_assign(Z, M)
        assert 0 < assign.sum() < 100
        gap = np.sqrt(((M[0] - M[1]) ** 2).sum())
        assert gap > 5.0


def tiny_run(recon_weight=0.0, max_epochs=3):
    spec = fc.SynthSpec(n_points=120, dims=4, n_blobs=2, T=2, correlation=0.9,
                        blob_spread=0.1, seed=1)
    ds = fc.synth_blobs(spec)
    ae, _ = fc.pretrain(ds.features, fc.AeConfig(dims=(4, 6, 2), layerwise_epochs=3,
                                                 global_epochs=3, batch=32, seed=0))
    cfg = TrainConfig(K=2, gamma=1.0, recon_weight=recon_weight, max_epochs=max_epochs,
                      convergence_tol=0.0, batch=32, seed=0)
    return ds, ae, cfg


class TestTrainingState:
    def test_caller_params_stay_byte_identical(self):
        ds, ae, cfg = tiny_run(recon_weight=0.5)
        before = ae.flatten().tobytes()
        train(ds, ae, cfg)
        assert ae.flatten().tobytes() == before

    def test_model_holds_the_trained_encoder_only(self):
        ds, ae, cfg = tiny_run(recon_weight=0.0)
        model = train(ds, ae, cfg)
        assert ae.names() == ["enc0", "enc1", "dec0", "dec1"]
        assert model.params.names() == ["enc0", "enc1"]
        assert model.params.buffer.flags.owndata
        assert not np.array_equal(model.params["enc0"].weight, ae["enc0"].weight)

    def test_reconstruction_term_trains_the_encoder_through_the_decoder(self):
        # the decoder the term trains is not returned, but its gradient
        # reaches the encoder
        ds, ae, cfg = tiny_run(recon_weight=0.5)
        model = train(ds, ae, cfg)
        without = train(ds, ae, replace(cfg, recon_weight=0.0))
        assert model.params.names() == without.params.names() == ["enc0", "enc1"]
        assert not np.array_equal(model.params.buffer, without.params.buffer)

    def test_identical_runs_give_identical_parameter_hex(self):
        runs = []
        for _ in range(2):
            ds, ae, cfg = tiny_run(recon_weight=0.5)
            model = train(ds, ae, cfg)
            runs.append([float(v).hex() for v in
                         np.concatenate([model.params.flatten(), model.centroids.ravel()])])
        assert runs[0] == runs[1]

    def test_failure_reports_the_real_cause(self, monkeypatch):
        import fairclust.model as model_module

        ds, ae, cfg = tiny_run()
        real = model_module.fair_objective
        losses = []

        def fails_on_fourth_batch(*args):
            if len(losses) == 3:
                raise ValueError("boom")
            components = real(*args)
            losses.append(components["loss"])
            return components

        monkeypatch.setattr(model_module, "fair_objective", fails_on_fourth_batch)
        with pytest.raises(RuntimeError) as info:
            train(ds, ae, cfg)
        message = str(info.value)
        assert "epoch 0, batch 3" in message and message.endswith(": boom")
        assert f"last finite mean loss {sum(losses) / 3}" in message
        assert "non-finite" not in message
        assert isinstance(info.value.__cause__, ValueError)


class TestTargetRefresh:
    BATCHES = 4  # tiny_run sweeps 120 rows in batches of 32

    def run(self, monkeypatch):
        """Trains tiny_run for 5 epochs; returns the epoch and P of each
        refresh, and for each batch the P rows it was given and the
        refresh count when it ran."""
        import fairclust.model as model_module

        ds, ae, cfg = tiny_run(max_epochs=5)
        row_of = {row.tobytes(): i for i, row in enumerate(ds.features)}
        refreshes, batches = [], []

        def counted_refresh(*args):
            out = _refresh_targets(*args)
            refreshes.append((len(batches) // self.BATCHES, out[0]))
            return out

        def recorded_objective(params, grads, X, P, *rest):
            idx = [row_of[row.tobytes()] for row in X]
            batches.append((len(refreshes), idx, P.copy()))
            return fair_objective(params, grads, X, P, *rest)

        monkeypatch.setattr(model_module, "_refresh_targets", counted_refresh)
        monkeypatch.setattr(model_module, "fair_objective", recorded_objective)
        model = train(ds, ae, cfg)
        assert len(model.history) == 5 and len(batches) == 5 * self.BATCHES
        return refreshes, batches

    def test_targets_refresh_at_the_start_of_every_epoch(self, monkeypatch):
        refreshes, _ = self.run(monkeypatch)
        assert [epoch for epoch, _ in refreshes] == [0, 1, 2, 3, 4]

    def test_each_sweep_uses_its_epochs_p(self, monkeypatch):
        refreshes, batches = self.run(monkeypatch)
        assert not np.array_equal(refreshes[0][1], refreshes[1][1])
        for n_refreshed, idx, P in batches:
            np.testing.assert_array_equal(P, refreshes[n_refreshed - 1][1][idx])
