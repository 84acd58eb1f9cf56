import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from fairclust import autoencoder
from fairclust.autoencoder import (
    AeConfig,
    decode,
    encode,
    finetune_global,
    init_params,
    pretrain,
    pretrain_layerwise,
    reconstruction_squared_error,
)
from fairclust.nn import AffineLayer, ParamSet, Rng, apply, squared_error


def toy_data(n=20, d=3, seed=0):
    return np.random.default_rng(seed).random((n, d))


class TestConfig:
    def test_valid(self):
        cfg = AeConfig(dims=(4, 8, 2), layerwise_epochs=1, global_epochs=1)
        assert cfg.dims == (4, 8, 2)

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            AeConfig(dims=(4,))
        with pytest.raises(ValueError):
            AeConfig(dims=(4, 0, 2))
        with pytest.raises(ValueError):
            AeConfig(dims=(4, 2), dropout=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["lr_pretrain", "dropout"])
    def test_non_finite_float_refused(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            AeConfig(dims=(4, 2), **{name: value})

    def test_out_of_range_messages(self):
        with pytest.raises(ValueError, match="^lr_pretrain must be positive$"):
            AeConfig(dims=(4, 2), lr_pretrain=0.0)
        with pytest.raises(ValueError, match=r"^dropout must lie in \[0, 1\)$"):
            AeConfig(dims=(4, 2), dropout=-0.5)
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            AeConfig(dims=(4, 2), seed=-1)

    def test_dims_must_match_data(self):
        cfg = AeConfig(dims=(5, 2), layerwise_epochs=1, global_epochs=0, batch=8)
        with pytest.raises(ValueError, match="dims start at 5"):
            pretrain_layerwise(toy_data(d=3), cfg)


class TestInit:
    def test_mirrored_architecture(self):
        params = init_params((6, 4, 2), Rng(0).stream("init"))
        assert params.names() == ["enc0", "enc1", "dec0", "dec1"]
        assert params["enc0"].activation == "relu"
        assert params["enc1"].activation == "identity"  # linear bottleneck
        assert params["dec0"].activation == "relu"
        assert params["dec1"].activation == "identity"  # linear output
        assert params["enc1"].weight.shape == (4, 2)
        assert params["dec0"].weight.shape == (2, 4)


class TestPretrainLayerwise:
    def test_single_layer_recovers_identity_capacity(self):
        # D == d autoencoder on 20 points: reconstruction error well below
        # the data variance once trained
        X = toy_data(20, 3, seed=1)
        cfg = AeConfig(dims=(3, 3), layerwise_epochs=300, global_epochs=0,
                       dropout=0.0, batch=20, seed=0)
        params, _ = pretrain_layerwise(X, cfg)
        assert reconstruction_squared_error(params, X) < 0.1 * X.var(axis=0).sum()

    def test_zero_epochs_returns_initialization(self):
        X = toy_data()
        cfg = AeConfig(dims=(3, 4, 2), layerwise_epochs=0, global_epochs=0, seed=3)
        params, log = pretrain_layerwise(X, cfg)
        fresh = init_params(cfg.dims, Rng(3).stream("init"))
        for name, layer in fresh.items():
            np.testing.assert_array_equal(params[name].weight, layer.weight)
        # each pair logs its starting loss, on the clean output of the
        # layers below it, and the rate its first epoch would start at
        h1 = apply([fresh["enc0"]], X)
        assert log == [
            {"stage": "layerwise", "layer": 0, "epoch": 0, "lr": cfg.lr_pretrain,
             "rollbacks": 0, "loss": reconstruction_squared_error(
                 ParamSet([("enc0", fresh["enc0"]), ("dec1", fresh["dec1"])]), X)},
            {"stage": "layerwise", "layer": 1, "epoch": 0, "lr": cfg.lr_pretrain,
             "rollbacks": 0, "loss": reconstruction_squared_error(
                 ParamSet([("enc1", fresh["enc1"]), ("dec0", fresh["dec0"])]), h1)},
        ]

    def test_earlier_layers_untouched_while_training_later_ones(self):
        X = toy_data(30, 4, seed=2)
        cfg = AeConfig(dims=(4, 3, 2), layerwise_epochs=4, global_epochs=0,
                       batch=10, seed=1)
        rng = Rng(cfg.seed)
        params = init_params(cfg.dims, rng.stream("init"))
        trained, _ = pretrain_layerwise(X, cfg)
        # enc0 is trained by the first pair only; if pair 1 touched it the
        # deterministic replay below would differ
        pair_cfg = AeConfig(dims=(4, 3, 2), layerwise_epochs=4, global_epochs=0,
                            batch=10, seed=1)
        replay, _ = pretrain_layerwise(X, pair_cfg)
        np.testing.assert_array_equal(trained["enc0"].weight, replay["enc0"].weight)

    def test_log_has_one_line_per_layer_epoch(self):
        X = toy_data(16, 3)
        cfg = AeConfig(dims=(3, 4, 2), layerwise_epochs=3, global_epochs=0,
                       batch=8, seed=0)
        _, log = pretrain_layerwise(X, cfg)
        assert [(e["layer"], e["epoch"]) for e in log] == [(l, e) for l in (0, 1)
                                                           for e in (0, 1, 2, 3)]
        for entry in log:
            assert set(entry) == {"stage", "layer", "epoch", "loss", "lr", "rollbacks"}
            assert entry["stage"] == "layerwise"

    def test_log_shows_a_rollback(self, monkeypatch):
        # the first sweep meets a non-finite gradient: epoch 1 of layer 0 is
        # rolled back once, so its rate is halved, the retry's loss logged
        # and the rollback counted
        real_sweep, calls = autoencoder._minibatch_sweep, []

        def sweep_failing_once(*args):
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("non-finite gradient")
            real_sweep(*args)

        monkeypatch.setattr(autoencoder, "_minibatch_sweep", sweep_failing_once)
        cfg = AeConfig(dims=(3, 4, 2), layerwise_epochs=2, global_epochs=0,
                       batch=8, lr_pretrain=0.1, seed=0)
        _, log = pretrain_layerwise(toy_data(16, 3), cfg)
        assert [e["lr"] for e in log] == [0.1, 0.05, 0.05, 0.1, 0.1, 0.1]
        assert [e["rollbacks"] for e in log] == [0, 1, 0, 0, 0, 0]
        assert len(calls) == 2 * 2 + 1

    def test_step_whose_squares_overflow_is_rolled_back_as_a_nan_step_is(self, monkeypatch):
        # the first batch's upstream gradient is scaled by spike: at 1e200
        # every gradient entry stays finite but their squares overflow, at
        # nan every entry is nan. The clip refuses both before any write, so
        # epoch 1 of layer 0 is rolled back and retried at half the rate,
        # and the two runs end in the same bytes.
        real_grad, real_step = autoencoder.squared_error_grad, autoencoder.sgd_step
        cfg = AeConfig(dims=(3, 4, 2), layerwise_epochs=2, global_epochs=0,
                       batch=8, lr_pretrain=0.1, seed=0)

        def run(spike):
            calls, refused = [], []

            def spiked_grad(*args):
                calls.append(None)
                return real_grad(*args) * (spike if len(calls) == 1 else 1.0)

            def step(*args):
                try:
                    real_step(*args)
                except RuntimeError as exc:
                    refused.append(str(exc))
                    raise

            with monkeypatch.context() as patch:
                patch.setattr(autoencoder, "squared_error_grad", spiked_grad)
                patch.setattr(autoencoder, "sgd_step", step)
                params, log = pretrain_layerwise(toy_data(16, 3), cfg)
            assert [e["lr"] for e in log] == [0.1, 0.05, 0.05, 0.1, 0.1, 0.1]
            return params, log, refused

        overflow, nan = run(1e200), run(np.nan)
        assert overflow[2] == ["non-finite gradient norm: the entries are finite, "
                               "but their squares overflow"]
        assert nan[2] == ["non-finite gradient for entry 'enc0'"]
        assert overflow[0].buffer.tobytes() == nan[0].buffer.tobytes()
        assert overflow[1] == nan[1]

    def test_int_rate_logs_as_a_float(self):
        # lr_pretrain=1 is stored as 1.0: every entry's rate is a float, so
        # one pretrain_log.jsonl column never mixes JSON ints and floats
        cfg = AeConfig(dims=(3, 4, 2), layerwise_epochs=1, global_epochs=1,
                       batch=8, lr_pretrain=1, seed=0)
        _, log = pretrain(toy_data(16, 3), cfg)
        assert [type(e["lr"]) for e in log] == [float] * len(log)
        assert json.dumps(log[0]["lr"]) == "1.0"

    @pytest.mark.parametrize("stage, message", [
        ("layerwise", "pretraining diverged at stage layerwise, layer 0, epoch 1"),
        ("global", "pretraining diverged at stage global, epoch 1"),
    ])
    def test_divergence_names_stage_layer_and_epoch(self, monkeypatch, stage, message):
        def sweep_that_fails(*args):
            raise RuntimeError("non-finite gradient")

        monkeypatch.setattr(autoencoder, "_minibatch_sweep", sweep_that_fails)
        X = toy_data(16, 3)
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            if stage == "layerwise":
                pretrain_layerwise(X, AeConfig(dims=(3, 2), layerwise_epochs=1,
                                               global_epochs=0, lr_pretrain=1e-8))
            else:
                finetune_global(X, init_params((3, 2), Rng(0).stream("init")),
                                epochs=1, lr=1e-8, batch=8, rng=Rng(0))


class TestFinetuneGlobal:
    def test_zero_epochs_unchanged(self):
        X = toy_data()
        params = init_params((3, 2), Rng(0).stream("init"))
        tuned, log = finetune_global(X, params, epochs=0, lr=0.1, batch=256, rng=Rng(0))
        np.testing.assert_array_equal(tuned["enc0"].weight, params["enc0"].weight)
        assert len(log) == 1  # starting loss only

    def test_loss_trend_is_monotone_enough(self):
        # linear 2-2-2 net, 50 points, 200 epochs: no 5-epoch window where
        # the loss rises by more than 10%
        X = toy_data(50, 2, seed=5)
        params = init_params((2, 2), Rng(1).stream("init"))
        _, log = finetune_global(X, params, epochs=200, lr=0.02, batch=25, rng=Rng(5))
        losses = [e["loss"] for e in log]
        for i in range(len(losses) - 5):
            # ignore float noise once the loss sits at the optimum
            assert losses[i + 5] <= 1.1 * losses[i] + 1e-8

    def test_final_loss_at_most_initial(self):
        X = toy_data(40, 4, seed=6)
        params = init_params((4, 3, 2), Rng(2).stream("init"))
        _, log = finetune_global(X, params, epochs=30, lr=0.05, batch=16, rng=Rng(6))
        assert log[-1]["loss"] <= log[0]["loss"]

    def test_backoff_halves_rate_instead_of_diverging(self):
        X = toy_data(40, 3, seed=7)
        params = init_params((3, 2), Rng(3).stream("init"))
        tuned, log = finetune_global(X, params, epochs=10, lr=50.0, batch=20, rng=Rng(7))
        assert np.isfinite(log[-1]["loss"])
        assert log[-1]["lr"] < 50.0
        # epoch 1 and its retry both fail: the rate is halved after each
        # attempt, so epoch 2 starts at a quarter, and epoch 1 is rolled back
        assert log[1]["lr"] == 12.5
        assert log[1]["loss"] == log[0]["loss"]

    def test_rollback_restores_the_epoch_start_and_restarts_momentum(self, monkeypatch):
        # global epoch 2's first sweep trains, then fails: its retry starts
        # from epoch 2's starting parameters and from zero velocity
        real_sweep, seen = autoencoder._minibatch_sweep, []

        def sweep_failing_at_epoch_2(params, velocity, *args):
            seen.append((params.buffer.copy(), velocity.buffer.copy()))
            real_sweep(params, velocity, *args)
            if len(seen) == 2:
                raise RuntimeError("non-finite gradient")

        monkeypatch.setattr(autoencoder, "_minibatch_sweep", sweep_failing_at_epoch_2)
        cfg = AeConfig(dims=(5, 4, 2), layerwise_epochs=0, global_epochs=3, batch=8,
                       lr_pretrain=0.05, seed=0)
        _, log = pretrain(toy_data(32, 5), cfg)
        assert len(seen) == 4
        (start_p, start_v), (retry_p, retry_v) = seen[1], seen[2]
        assert retry_p.tobytes() == start_p.tobytes()
        assert np.any(start_v != 0)
        assert not np.any(retry_v)
        assert [e["rollbacks"] for e in log if e["stage"] == "global"] == [0, 0, 1, 0]

    def test_an_error_that_is_not_divergence_propagates(self):
        X = toy_data(30, 3, seed=8)
        cfg = AeConfig(dims=(3, 2), layerwise_epochs=2, global_epochs=0, batch=10)
        with mock.patch.object(autoencoder, "forward", side_effect=ValueError("boom")):
            with pytest.raises(ValueError, match="^boom$"):
                pretrain(X, cfg)

    def test_recorded_loss_matches_reconstruction(self):
        X = toy_data(30, 3, seed=8)
        cfg = AeConfig(dims=(3, 4, 2), layerwise_epochs=5, global_epochs=8,
                       batch=10, seed=2)
        params, log = pretrain(X, cfg)
        final = [e for e in log if e["stage"] == "global"][-1]["loss"]
        assert reconstruction_squared_error(params, X) == final

    @pytest.mark.parametrize("dims, n", [((1, 1), 1), ((3, 2), 7), ((5, 4, 2), 30),
                                         ((12, 9, 6, 3), 101)])
    def test_reconstruction_error_is_the_squared_error_of_apply(self, dims, n):
        params = init_params(dims, Rng(n).stream("init"))
        X = toy_data(n, dims[0], seed=n)
        assert reconstruction_squared_error(params, X) == squared_error(
            apply(params.layers(), X), X)

    def test_reconstruction_error_holds_one_reconstruction(self):
        # a 2000-wide reconstruction of 500 rows is 8 MB; the residual and
        # its square are formed in it, so the pass holds about one of it
        params = init_params((2000, 10), Rng(0).stream("init"))
        X = toy_data(500, 2000, seed=1)
        tracemalloc.start()
        try:
            loss = reconstruction_squared_error(params, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * X.nbytes
        assert loss == squared_error(apply(params.layers(), X), X)


class TestSweepMemory:
    def test_a_batch_tape_is_dropped_before_the_next_forward(self):
        # a 3-batch sweep peaks less than half a tape above a 1-batch one:
        # each batch's tape is freed before the next batch's forward pass.
        # Many narrow layers make the tape large beside backward's scratch.
        dims, batch = (16, 128, 128, 128, 128, 128, 128, 4), 512
        outputs = sum(dims[1:]) + sum(dims[-2::-1])
        tape = 8 * batch * (dims[0] + outputs)
        peaks = {}
        for batches in (1, 3):
            params = init_params(dims, Rng(0).stream("init"))
            velocity, noise = params.zeros_like(), Rng(0).stream("dropout")
            X = toy_data(batches * batch, dims[0], seed=1)
            tracemalloc.start()
            try:
                autoencoder._minibatch_sweep(params, velocity, X, np.arange(len(X)), 0.01,
                                             batch, 0.2, noise)
                peaks[batches] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3] < peaks[1] + tape / 2


    def test_pretraining_holds_under_five_parameter_sets(self):
        # the global stage trains the layer-wise set in place beside its
        # velocity, one rollback copy and the gradients: 4 parameter-sized
        # sets, the data and the tapes being small at 16 rows
        cfg = AeConfig(dims=(256, 256, 2), layerwise_epochs=0, global_epochs=2, batch=8,
                       seed=0)
        X = toy_data(16, 256, seed=1)
        tracemalloc.start()
        try:
            params, _ = pretrain(X, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * params.buffer.nbytes


class TestDropoutCorruption:
    # pretraining corrupts each minibatch itself; `nn.forward` runs the
    # batch it is given

    def sweep_inputs(self, X, dropout, stream, batch=None):
        """The (forward input, reconstruction target) of each batch of one
        `_minibatch_sweep`, and each batch's tape."""
        seen, tapes = [], []
        real_forward, real_grad = autoencoder.forward, autoencoder.squared_error_grad

        def traced_forward(layers, x):
            out, tape = real_forward(layers, x)
            seen.append([x])
            tapes.append(tape)
            return out, tape

        def traced_grad(out, target):
            seen[-1].append(target)
            return real_grad(out, target)

        params = init_params((X.shape[1], 2), Rng(0).stream("init"))
        with mock.patch.object(autoencoder, "forward", traced_forward), \
                mock.patch.object(autoencoder, "squared_error_grad", traced_grad):
            autoencoder._minibatch_sweep(params, params.zeros_like(), X, np.arange(len(X)),
                                         0.01, batch or len(X), dropout, stream)
        return seen, tapes

    def test_survivor_fraction_and_scale(self):
        # rate 0.5 over 10,000 units: survivors within 0.5 +/- 0.02, scaled x2
        X = np.ones((100, 100))
        [(x, target)], [tape] = self.sweep_inputs(X, 0.5, Rng(3).stream("dropout"))
        survivors = x != 0
        assert abs(survivors.mean() - 0.5) < 0.02
        np.testing.assert_array_equal(x[survivors], 2.0)
        # the tape keeps the corrupted input for the backward pass; the
        # reconstruction target is the clean batch
        assert tape.steps[0][0] is x
        np.testing.assert_array_equal(target, X)

    def test_deterministic_given_seed(self):
        X = toy_data(20, 50, seed=1)
        runs = [self.sweep_inputs(X, 0.3, Rng(seed).stream("dropout"), batch=8)[0]
                for seed in (9, 9, 10)]
        inputs = [[x for x, _ in run] for run in runs]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs[0], inputs[1]))
        assert any(a.tobytes() != b.tobytes() for a, b in zip(inputs[0], inputs[2]))

    def test_no_corruption_and_no_stream_at_rate_zero(self):
        X = toy_data(20, 5, seed=2)
        seen, _ = self.sweep_inputs(X, 0.0, None, batch=8)
        assert [len(x) for x, _ in seen] == [8, 8, 4]
        for x, target in seen:
            assert x is target
        np.testing.assert_array_equal(np.vstack([x for x, _ in seen]), X)


class TestEncodeDecode:
    def test_identity_initialized_square_layers(self):
        params = ParamSet({
            "enc0": AffineLayer(np.eye(3), np.zeros(3), "identity"),
            "dec0": AffineLayer(np.eye(3), np.zeros(3), "identity"),
        })
        X = toy_data(10, 3)
        np.testing.assert_array_equal(encode(params, X), X)
        np.testing.assert_array_equal(decode(params, X), X)

    def test_duplicate_rows_have_duplicate_latents(self):
        params = init_params((4, 3, 2), Rng(4).stream("init"))
        x = toy_data(1, 4, seed=9)
        X = np.vstack([x, x, toy_data(1, 4, seed=10)])
        Z = encode(params, X)
        np.testing.assert_array_equal(Z[0], Z[1])

    def test_encode_is_deterministic_and_noise_free(self):
        params = init_params((5, 4, 2), Rng(5).stream("init"))
        X = toy_data(25, 5, seed=11)
        np.testing.assert_array_equal(encode(params, X), encode(params, X))


class TestCallerParamsUntouched:
    # SGD updates its buffers in place; the stages must work on copies

    def test_finetune_leaves_input_byte_identical(self):
        X = toy_data(40, 4, seed=11)
        params = init_params((4, 3, 2), Rng(5).stream("init"))
        before = params.flatten().tobytes()
        tuned, _ = finetune_global(X, params, epochs=3, lr=0.05, batch=16, rng=Rng(1))
        assert params.flatten().tobytes() == before
        assert tuned.flatten().tobytes() != before

    def test_layerwise_result_survives_later_stages(self):
        X = toy_data(40, 4, seed=12)
        cfg = AeConfig(dims=(4, 3, 2), layerwise_epochs=3, global_epochs=0,
                       batch=16, seed=3)
        params, _ = pretrain_layerwise(X, cfg)
        before = params.flatten().tobytes()
        again, _ = pretrain_layerwise(X, cfg)
        finetune_global(X, params, epochs=3, lr=0.05, batch=16, rng=Rng(2))
        assert params.flatten().tobytes() == before
        assert again.flatten().tobytes() == before
