import math
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairclust import nn
from fairclust.autoencoder import AeConfig, encode, init_params
from fairclust.ckpt import load_params, save_params
from fairclust.data import SynthSpec
from fairclust.model import TrainConfig
from fairclust.nn import (
    APPLY_ROWS,
    AffineLayer,
    ParamSet,
    Rng,
    apply,
    backward,
    clip_gradients,
    forward,
    init_layer,
    sgd_step,
    squared_error,
    squared_error_grad,
)

from gradcheck import finite_diff_check


def random_params(rng, dims=(5, 7, 3), last_identity=True):
    entries = []
    for i in range(len(dims) - 1):
        act = "identity" if (last_identity and i == len(dims) - 2) else "relu"
        entries.append((f"layer{i}", AffineLayer(
            rng.standard_normal((dims[i], dims[i + 1])),
            rng.standard_normal(dims[i + 1]),
            act,
        )))
    return ParamSet(entries)


class TestForward:
    def test_identity_layer_is_identity_map(self):
        layer = AffineLayer(np.eye(4), np.zeros(4), "identity")
        x = np.random.default_rng(0).standard_normal((6, 4))
        out, _ = forward([layer], x)
        np.testing.assert_array_equal(out, x)

    def test_relu_clamps_negatives(self):
        layer = AffineLayer(np.eye(2), np.zeros(2), "relu")
        out, _ = forward([layer], np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_shape_mismatch_names_layer(self):
        layers = [
            AffineLayer(np.eye(3), np.zeros(3), "relu"),
            AffineLayer(np.zeros((4, 2)), np.zeros(2), "identity"),
        ]
        with pytest.raises(ValueError, match="layer 1"):
            forward(layers, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="layer 1"):
            apply(layers, np.zeros((2, 3)))

    def test_tape_holds_each_layers_input_and_output(self):
        params = random_params(np.random.default_rng(4), dims=(5, 7, 6, 3))
        x = np.random.default_rng(5).standard_normal((9, 5))
        out, tape = forward(params.layers(), x)
        assert tape.steps[0][0] is x
        for (_, h_out), (h_in, _) in zip(tape.steps, tape.steps[1:]):
            assert h_in is h_out
        assert tape.steps[-1][1] is out
        # relu outputs are clamped: the tape keeps no pre-activation
        assert all(np.all(h_out >= 0) for (_, h_out), layer in zip(tape.steps, tape.layers)
                   if layer.activation == "relu")


class TestApply:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 24), min_size=2, max_size=5),
           st.lists(st.sampled_from(["identity", "relu"]), min_size=4, max_size=4),
           st.integers(0, APPLY_ROWS), st.integers(0, 2**32 - 1))
    def test_equals_forward_bit_for_bit_up_to_apply_rows(self, widths, acts, rows, seed):
        rng = np.random.default_rng(seed)
        layers = [AffineLayer(rng.standard_normal((n_in, n_out)), rng.standard_normal(n_out),
                              act)
                  for n_in, n_out, act in zip(widths, widths[1:], acts)]
        x = rng.standard_normal((rows, widths[0]))
        out = apply(layers, x)
        assert out.tobytes() == forward(layers, x)[0].tobytes()
        assert out.shape == (rows, widths[-1])

    def test_chunked_output_agrees_and_keeps_no_tape(self, monkeypatch):
        params = init_params((16, 256, 256, 2), Rng(0).stream("init"))
        x = np.random.default_rng(1).random((1000, 16))
        taped, _ = forward(params.layers("enc"), x)
        monkeypatch.setattr(nn, "APPLY_ROWS", 7)
        np.testing.assert_allclose(encode(params, x), taped, rtol=0, atol=1e-12)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the tape alone holds 4 activations of 1000 x 256 float64 (8 MB)
        assert peak(lambda: encode(params, x)) < peak(
            lambda: forward(params.layers("enc"), x)) / 10

    def test_layer_step_makes_one_activation_sized_array(self, monkeypatch):
        # each layer step forms its product and adds the bias and the relu
        # in place: the 2048-wide layer costs one 1000 x 2048 float64 array
        # (16.4 MB) on top of its 1000 x 256 input, not three. The 1000 rows
        # are one chunk, so the bound is on a full-height layer step.
        monkeypatch.setattr(nn, "APPLY_ROWS", 1000)
        params = init_params((16, 256, 2048, 2), Rng(0).stream("init"))
        x = np.random.default_rng(1).random((1000, 16))
        tracemalloc.start()
        try:
            encode(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 1000 * 2048 * 8

    def test_chunks_are_written_into_one_output(self, monkeypatch):
        # above APPLY_ROWS each chunk's rows are the stack's forward pass on
        # those rows, written into one preallocated output: the wide last
        # layer's output is held once, with one chunk's steps beside it, not
        # a list of chunks and then their concatenation (twice the output)
        rng = np.random.default_rng(6)
        layers = random_params(rng, dims=(8, 16, 1024)).layers()
        monkeypatch.setattr(nn, "APPLY_ROWS", 64)
        x = rng.standard_normal((10 * 64 + 5, 8))
        out = apply(layers, x)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert out.shape == (645, 1024)
        for start in range(0, len(x), 64):
            rows = slice(start, start + 64)
            assert out[rows].tobytes() == forward(layers, x[rows])[0].tobytes()
        tracemalloc.start()
        try:
            apply(layers, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk_steps = 64 * (16 + 1024) * 8
        # plus 128 KB for numpy's ufunc buffer (8192 float64 values, 64 KB)
        assert peak < out.nbytes + chunk_steps + 2**17


class TestBackward:
    def test_zero_gradient_at_loss_minimum(self):
        rng = np.random.default_rng(2)
        layer = AffineLayer(rng.standard_normal((3, 2)), rng.standard_normal(2), "identity")
        x = rng.standard_normal((5, 3))
        out, tape = forward([layer], x)
        # the gradient set starts non-zero, so the zeros below were written
        grads = ParamSet({"l": layer})
        dx = backward(tape, squared_error_grad(out, out), grads.layers(), input_grad=True)
        np.testing.assert_array_equal(grads["l"].weight, 0)
        np.testing.assert_array_equal(grads["l"].bias, 0)
        np.testing.assert_array_equal(dx, 0)

    def test_linear_layer_weight_gradient_identity(self):
        # y = x W with upstream g: dW = x^T g
        rng = np.random.default_rng(3)
        layer = AffineLayer(rng.standard_normal((4, 3)), np.zeros(3), "identity")
        x = rng.standard_normal((6, 4))
        g = rng.standard_normal((6, 3))
        _, tape = forward([layer], x)
        grads = ParamSet({"l": layer}).zeros_like()
        dx = backward(tape, g, grads.layers(), input_grad=True)
        np.testing.assert_allclose(grads["l"].weight, x.T @ g)
        np.testing.assert_allclose(grads["l"].bias, g.sum(axis=0))
        np.testing.assert_allclose(dx, g @ layer.weight.T)

    def test_three_layer_net_matches_central_differences(self):
        # independent finite-difference loop over every parameter
        rng = np.random.default_rng(4)
        params = random_params(rng, dims=(4, 6, 5, 3))
        x = rng.standard_normal((8, 4))
        target = rng.standard_normal((8, 3))

        def loss_of(p):
            out, _ = forward(p.layers(), x)
            return squared_error(out, target)

        out, tape = forward(params.layers(), x)
        grads = params.zeros_like()
        backward(tape, squared_error_grad(out, target), grads.layers())
        analytic = grads.flatten()
        flat = params.flatten()
        h = 1e-5
        worst = 0.0
        for i in range(flat.size):
            up = flat.copy(); up[i] += h
            down = flat.copy(); down[i] -= h
            numeric = (loss_of(params.unflatten(up)) - loss_of(params.unflatten(down))) / (2 * h)
            worst = max(worst, abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8))
        assert worst <= 1e-4

    def test_backward_leaves_unwritten_entries_zero(self):
        params = random_params(np.random.default_rng(12), dims=(3, 3, 3),
                               last_identity=False)
        params["layer0"].weight[...] = np.eye(3)  # relu passes x = 1 through
        params["layer0"].bias[...] = 0.0
        x = np.ones((4, 3))
        out, tape = forward(params.layers()[:1], x)
        grads = params.zeros_like()
        backward(tape, np.ones_like(out), grads.layers()[:1])
        np.testing.assert_array_equal(grads["layer0"].weight, np.full((3, 3), 4.0))
        np.testing.assert_array_equal(grads["layer0"].bias, np.full(3, 4.0))
        assert grads["layer1"].weight.sum() == 0
        assert grads["layer1"].bias.sum() == 0

    def test_gradient_layers_must_match_the_tape(self):
        params = random_params(np.random.default_rng(17), dims=(3, 3, 3))
        out, tape = forward(params.layers(), np.ones((2, 3)))
        with pytest.raises(ValueError, match="gradient layers"):
            backward(tape, np.ones_like(out), params.zeros_like().layers()[:1])

    def test_empty_tape_rejected(self):
        with pytest.raises(ValueError):
            backward(type("T", (), {"steps": [], "layers": []})(), np.zeros((1, 1)), [])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 24), min_size=2, max_size=5),
           st.lists(st.sampled_from(["identity", "relu"]), min_size=4, max_size=4),
           st.integers(1, 64), st.sampled_from([0.0, 0.2, 0.5]), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_writes_the_tape_formula_bit_for_bit(self, widths, acts, rows, noise,
                                                 input_grad, seed):
        rng = np.random.default_rng(seed)
        params = ParamSet((f"layer{i}", AffineLayer(rng.standard_normal((n_in, n_out)),
                                                    rng.standard_normal(n_out), act))
                          for i, (n_in, n_out, act) in enumerate(zip(widths, widths[1:], acts)))
        x = rng.standard_normal((rows, widths[0]))
        if noise:  # pretraining's corruption, as its tape records it
            x = x * ((rng.random(x.shape) >= noise) / (1.0 - noise))
        out, tape = forward(params.layers(), x)
        upstream = rng.standard_normal(out.shape)
        # the reference: every product formed from the tape, as new arrays
        g, expected = upstream, []
        for layer, (h_in, _) in reversed(list(zip(tape.layers, tape.steps))):
            pre = h_in @ layer.weight + layer.bias
            if layer.activation == "relu":
                g = g * (pre > 0)
            expected.append((h_in.T @ g, g.sum(axis=0)))
            g = g @ layer.weight.T
        grads = params.copy()  # non-zero, so every value checked below was written
        dx = backward(tape, upstream, grads.layers(), input_grad=input_grad)
        for layer, (dw, db) in zip(grads.layers(), expected[::-1]):
            assert layer.weight.tobytes() == dw.tobytes()
            assert layer.bias.tobytes() == db.tobytes()
        if input_grad:
            assert dx.tobytes() == g.tobytes()
        else:
            assert dx is None


class TestSgdStep:
    def one_param(self, value):
        return ParamSet({"p": AffineLayer(np.array([[value]]), np.zeros(1), "identity")})

    def test_plain_step(self):
        # from rest the velocity is the gradient: p = 1 - 0.1 * 2
        params = self.one_param(1.0)
        grads = self.one_param(2.0)
        assert sgd_step(params, grads, params.zeros_like(), 0.1) is None
        assert params["p"].weight[0, 0] == pytest.approx(0.8)

    def test_zero_gradient_is_fixed_point(self):
        params = self.one_param(3.5)
        sgd_step(params, params.zeros_like(), params.zeros_like(), 0.5)
        assert params["p"].weight[0, 0] == 3.5

    def test_momentum_accumulates(self):
        # two steps, g=1, lr=1, momentum 0.9: p goes 0 -> -1 -> -2.9
        assert nn.MOMENTUM == 0.9
        params = self.one_param(0.0)
        grads, vel = self.one_param(1.0), params.zeros_like()
        sgd_step(params, grads, vel, 1.0)
        assert params["p"].weight[0, 0] == pytest.approx(-1.0)
        sgd_step(params, grads, vel, 1.0)
        assert params["p"].weight[0, 0] == pytest.approx(-2.9)
        assert vel["p"].weight[0, 0] == pytest.approx(1.9)

    def test_non_finite_gradient_raises(self):
        params = self.one_param(1.0)
        grads = params.zeros_like()
        grads["p"].weight[0, 0] = np.nan
        with pytest.raises(RuntimeError, match="non-finite gradient for entry 'p'"):
            sgd_step(params, grads, params.zeros_like(), 0.1)
        assert params["p"].weight[0, 0] == 1.0

    def test_non_positive_learning_rate_rejected(self):
        params = self.one_param(1.0)
        with pytest.raises(ValueError, match="learning rate"):
            sgd_step(params, params.copy(), params.zeros_like(), 0.0)

    def test_clip_rescales_large_gradients(self):
        # one weight and a zero bias: the global norm is the weight itself
        assert nn.CLIP_NORM == 5.0
        grads = self.one_param(30.0)
        assert clip_gradients(grads) is grads
        assert grads["p"].weight[0, 0] == pytest.approx(5.0)
        for norm in (3.0, 5.0, np.nextafter(5.0, 6.0)):
            clipped = clip_gradients(self.one_param(norm))["p"].weight[0, 0]
            assert (clipped == norm) == (norm <= 5.0)

    def test_mismatched_gradient_layout_rejected(self):
        params = self.one_param(1.0)
        grads = ParamSet({"q": AffineLayer(np.array([[1.0]]), np.zeros(1), "identity")})
        with pytest.raises(ValueError, match="layout"):
            sgd_step(params, grads, params.zeros_like(), 0.1)

    def test_mismatched_velocity_layout_rejected_before_any_write(self):
        # 40,000 parameters and a 35,000-value velocity: left to numpy, the
        # broadcast would fail only after the first SGD_BLOCK were written
        params = ParamSet({"w": np.ones((200, 200))})
        grads, velocity = params.copy(), ParamSet({"w": np.zeros((175, 200))})
        with pytest.raises(ValueError, match="^velocity layout does not match the parameters$"):
            sgd_step(params, grads, velocity, 0.1)
        assert np.all(params.buffer == 1.0) and np.all(velocity.buffer == 0.0)
        assert np.all(grads.buffer == 1.0)  # not clipped either

    def test_finite_steps_run_no_element_wise_isfinite(self, monkeypatch):
        # the clip's flat dot proves a finite gradient finite, so neither a
        # step that cannot clip nor one that clips scans the buffer; only a
        # non-finite dot does, once
        isfinite, scanned = np.isfinite, []

        def counting_isfinite(x, *args, **kwargs):
            if isinstance(x, np.ndarray):
                scanned.append(x.size)
            return isfinite(x, *args, **kwargs)

        params = ParamSet({"v": np.zeros((3, 4)), "w": np.zeros((1, 5))})
        monkeypatch.setattr(nn, "SGD_BLOCK", 4)
        monkeypatch.setattr(np, "isfinite", counting_isfinite)
        for value, clips in ((1e-3, False), (30.0, True)):  # global norm 0.004, 124
            grads = params.copy()
            grads.buffer[:] = value
            sgd_step(params, grads, params.zeros_like(), 0.1)
            assert (grads.buffer[0] < value) == clips
        assert scanned == []
        grads.buffer[-1] = np.inf
        with pytest.raises(RuntimeError, match="non-finite gradient for entry 'w'"):
            sgd_step(params, grads, params.zeros_like(), 0.1)
        assert scanned == [params.n_params]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_in_a_later_block_writes_nothing(self, monkeypatch, bad):
        monkeypatch.setattr(nn, "SGD_BLOCK", 2)
        params = ParamSet({"v": np.ones((1, 2)), "w": np.ones((1, 5))})
        grads, velocity = params.copy(), params.copy()
        grads.buffer[-1] = bad
        before = grads.buffer.tobytes()
        with pytest.raises(RuntimeError, match="non-finite gradient for entry 'w'"):
            sgd_step(params, grads, velocity, 0.1)
        assert np.all(params.buffer == 1.0) and np.all(velocity.buffer == 1.0)
        assert grads.buffer.tobytes() == before

    def test_finite_gradient_whose_squares_overflow_is_refused_before_any_write(self):
        # 1e200 squared overflows, so the flat dot is inf although every
        # entry is finite: the step is refused as divergence, as a nan
        # gradient is. The dot warns of the overflow, which pretraining's
        # epochs silence the same way.
        params = ParamSet({"w": np.zeros((2, 3))})
        grads, velocity = params.copy(), params.zeros_like()
        grads.buffer[:] = [1e200, -1e200, 1.0, 0.0, 2.0, 1e-3]
        g = grads.buffer.copy()
        with np.errstate(over="ignore"):
            with pytest.raises(RuntimeError, match="^non-finite gradient norm: the entries "
                                                   "are finite, but their squares overflow$"):
                sgd_step(params, grads, velocity, 0.1)
        assert grads.buffer.tobytes() == g.tobytes()
        assert np.all(params.buffer == 0.0) and np.all(velocity.buffer == 0.0)

    def test_steps_allocate_no_parameter_sized_array(self, monkeypatch):
        from fairclust import autoencoder, model
        from fairclust.data import Dataset

        def step_peak(*args):
            tracemalloc.start()
            try:
                sgd_step(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 1M parameters, 8 MB per float64 copy; with clipping off, the
        # update's one temporary is a block of lr * v
        params = ParamSet({"w": np.zeros((1000, 1000))})
        grads, velocity = params.copy(), params.zeros_like()
        grads.buffer[:] = 1.0
        with monkeypatch.context() as patch:
            patch.setattr(nn, "CLIP_NORM", math.inf)
            assert step_peak(params, grads, velocity, 0.1) < 1_000_000
        np.testing.assert_array_equal(params.buffer, -0.1 * velocity.buffer)
        # a step that cannot clip (global norm 1 at CLIP_NORM 5) takes only
        # the flat dot of the buffer, never a squared copy of it
        grads.buffer[:] = 1e-3
        params.buffer[:], velocity.buffer[:] = 0.0, 0.0
        assert step_peak(params, grads, velocity, 0.1) < 1_000_000
        assert np.all(grads.buffer == 1e-3)
        np.testing.assert_array_equal(params.buffer, -0.1 * velocity.buffer)
        # a step that clips (global norm 1000 at CLIP_NORM 5) scales the
        # buffer in place by the flat dot's norm: no squared copy either
        grads.buffer[:] = 1.0
        params.buffer[:], velocity.buffer[:] = 0.0, 0.0
        assert step_peak(params, grads, velocity, 0.1) < 1_000_000
        assert np.all(grads.buffer == nn.CLIP_NORM / 1000.0)
        np.testing.assert_array_equal(params.buffer, -0.1 * velocity.buffer)

        # in the training loops, from the end of one step to the end of the
        # next, memory never rises by a parameter-sized array: batches of 8
        # rows through 300-wide layers are small next to 1.4 MB of parameters
        growth, ends = [], []

        def traced(*args):
            sgd_step(*args)
            current, peak = tracemalloc.get_traced_memory()
            if ends:
                growth.append(peak - ends[-1])
            ends.append(current)
            tracemalloc.reset_peak()

        monkeypatch.setattr(autoencoder, "sgd_step", traced)
        monkeypatch.setattr(model, "sgd_step", traced)
        ae = init_params((300, 300, 2), Rng(0).stream("init"))
        X = np.random.default_rng(0).random((40, 300))
        ds = Dataset(X, np.arange(40) % 2)
        cfg = model.TrainConfig(K=2, gamma=1.0, recon_weight=0.5, max_epochs=2,
                                convergence_tol=0.0, batch=8)
        tracemalloc.start()
        try:
            autoencoder._minibatch_sweep(ae.copy(), ae.zeros_like(), X, np.arange(40), 0.01, 8,
                                         0.2, Rng(0).stream("dropout"))
            sweep_steps = len(growth)
            ends.clear()
            model.train(ds, ae, cfg)
        finally:
            tracemalloc.stop()
        # 40 rows in batches of 8: 5 steps per sweep and per training epoch
        assert sweep_steps == 5 - 1 and len(growth) - sweep_steps == 2 * 5 - 1
        # the autoencoder's size; the trained set adds the (2, 2) centroids
        assert max(growth) < ae.n_params * 8
    def test_pretraining_frees_its_sweep_before_the_loss_pass(self, monkeypatch):
        from fairclust import autoencoder

        params = init_params((200, 300, 2), Rng(0).stream("init"))
        X = np.random.default_rng(0).random((16, 200))
        live_at_apply = []
        real_apply = autoencoder.apply

        def traced_apply(layers, x):
            live_at_apply.append(tracemalloc.get_traced_memory()[0])
            return real_apply(layers, x)

        monkeypatch.setattr(autoencoder, "apply", traced_apply)
        tracemalloc.start()
        try:
            autoencoder.finetune_global(X, params, 1, 0.01, 8, Rng(0))
        finally:
            tracemalloc.stop()
        # at the epoch's loss pass (the second apply; the first is the
        # starting loss) the velocity and the epoch's copies of params and
        # velocity are live; the sweep's gradient set (one more
        # parameter-sized array) is not
        assert live_at_apply[1] < 3.5 * params.n_params * 8

    @pytest.mark.parametrize("stage", ["global", "layerwise"])
    def test_pretraining_loss_pass_holds_no_array_of_the_sweep(self, monkeypatch, stage):
        # the last batch's forward output, tape and gradient set die with
        # the sweep, before the full-data loss pass; the velocity lives on
        import weakref

        from fairclust import autoencoder

        X = np.random.default_rng(0).random((24, 30))
        refs, dead_at_loss_pass = [], []
        real = {name: getattr(autoencoder, name) for name in ("apply", "forward", "sgd_step")}

        def traced_forward(layers, x):
            out, tape = real["forward"](layers, x)
            refs.extend(weakref.ref(a) for a in (out, tape, *(h for s in tape.steps for h in s)))
            return out, tape

        def traced_sgd_step(params, grads, velocity, lr):
            refs.extend((weakref.ref(grads), weakref.ref(grads.buffer)))
            real["sgd_step"](params, grads, velocity, lr)

        def traced_apply(layers, x):
            if len(dead_at_loss_pass) == 0 and refs:  # the epoch's loss pass
                dead_at_loss_pass.append([ref() is None for ref in refs])
            return real["apply"](layers, x)

        monkeypatch.setattr(autoencoder, "forward", traced_forward)
        monkeypatch.setattr(autoencoder, "sgd_step", traced_sgd_step)
        monkeypatch.setattr(autoencoder, "apply", traced_apply)
        if stage == "global":  # four layers
            params = init_params((30, 20, 2), Rng(0).stream("init"))
            autoencoder.finetune_global(X, params, 1, 0.01, 8, Rng(0))
            depth = 4
        else:  # the first layer pair, on corrupted batches
            cfg = autoencoder.AeConfig(dims=(30, 20, 2), layerwise_epochs=1,
                                       global_epochs=0, batch=8, dropout=0.2)
            autoencoder.pretrain_layerwise(X, cfg)
            depth = 2
        # 3 batches, each with its output, tape, a step of (input, output)
        # per layer and a gradient set with its buffer
        assert dead_at_loss_pass == [[True] * 3 * (2 + 2 * depth + 2)]


class TestRequireFinite:
    @pytest.mark.parametrize("make", [
        lambda: AeConfig(dims=(4, 2), lr_pretrain=20, dropout=0),
        lambda: TrainConfig(K=2, gamma=1, beta=1000, lr=1, convergence_tol=0, recon_weight=1),
        lambda: SynthSpec(n_points=10, dims=2, n_blobs=2, T=2, correlation=1, blob_spread=1),
    ])
    def test_float_fields_hold_floats(self, make):
        # an int given to a float field is stored as a float, so it logs
        # and serializes as one; int fields keep their ints
        config = make()
        for f in fields(config):
            value = getattr(config, f.name)
            assert type(value) is {"float": float, "int": int}.get(f.type, type(value)), f.name


class TestFiniteDiffCheck:
    def test_quadratic_loss_is_exact(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, dims=(4, 3))

        def loss_and_grad(p):
            flat = p.flatten()
            return 0.5 * float(flat @ flat), p.unflatten(flat)

        err = finite_diff_check(loss_and_grad, params, h=1e-4, sample=params.n_params)
        assert err <= 1e-7

    def test_constant_loss_reports_zero(self):
        params = random_params(np.random.default_rng(6), dims=(3, 2))

        def loss_and_grad(p):
            return 1.0, p.zeros_like()

        assert finite_diff_check(loss_and_grad, params, sample=5) == 0.0

    def test_sign_flip_bug_reports_error_two(self):
        params = random_params(np.random.default_rng(7), dims=(3, 2))

        def loss_and_grad(p):
            flat = p.flatten()
            return 0.5 * float(flat @ flat), p.unflatten(-flat)

        err = finite_diff_check(loss_and_grad, params, h=1e-4, sample=params.n_params)
        assert err == pytest.approx(2.0, rel=1e-3)

    def test_sample_bounded_by_parameter_count(self):
        params = random_params(np.random.default_rng(8), dims=(2, 2))
        with pytest.raises(ValueError):
            finite_diff_check(lambda p: (0.0, p.zeros_like()), params,
                              sample=params.n_params + 1)

    def test_step_size_range_enforced(self):
        params = random_params(np.random.default_rng(9), dims=(2, 2))
        with pytest.raises(ValueError):
            finite_diff_check(lambda p: (0.0, p.zeros_like()), params, h=1e-7, sample=1)


class TestParamSet:
    def test_flatten_unflatten_round_trip(self):
        rng = np.random.default_rng(10)
        for dims in [(3, 2), (5, 4, 3), (2, 8, 8, 1)]:
            params = random_params(rng, dims=dims)
            rebuilt = params.unflatten(params.flatten())
            for name, layer in params.items():
                np.testing.assert_array_equal(rebuilt[name].weight, layer.weight)
                np.testing.assert_array_equal(rebuilt[name].bias, layer.bias)
                assert rebuilt[name].activation == layer.activation

    def test_checkpoint_round_trip_is_exact(self, tmp_path):
        params = random_params(np.random.default_rng(11), dims=(7, 5, 2))
        path = tmp_path / "params.json"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.names() == params.names()
        for name, layer in params.items():
            np.testing.assert_array_equal(loaded[name].weight, layer.weight)
            np.testing.assert_array_equal(loaded[name].bias, layer.bias)

    def test_prefix_selection_preserves_order(self):
        params = ParamSet((name, AffineLayer(np.zeros((2, 2)), np.zeros(2), "identity"))
                          for name in ("enc0", "enc1", "dec0", "dec1"))
        assert len(params.layers("enc")) == 2
        dec = params.layers("dec")
        assert len(dec) == 2 and dec[0] is params["dec0"] and dec[1] is params["dec1"]

    def test_layers_are_views_into_one_buffer(self):
        params = random_params(np.random.default_rng(13), dims=(3, 4, 2))
        params["layer1"].bias[0] = 7.5
        assert params.flatten()[3 * 4 + 4 + 4 * 2] == 7.5
        params.buffer[0] = -1.0
        assert params["layer0"].weight[0, 0] == -1.0

    def test_copy_and_zeros_like_own_their_buffers(self):
        params = random_params(np.random.default_rng(14), dims=(3, 2))
        copy, zeros = params.copy(), params.zeros_like()
        params.buffer += 1.0
        assert not np.shares_memory(copy.buffer, params.buffer)
        np.testing.assert_array_equal(copy.buffer + 1.0, params.buffer)
        assert zeros.names() == params.names() and not zeros.buffer.any()

    def test_matrix_entry_has_no_bias(self):
        M = np.arange(6.0).reshape(3, 2)
        params = ParamSet([*random_params(np.random.default_rng(15), dims=(3, 2)).items(),
                           ("centroids", M)])
        assert params.n_params == 3 * 2 + 2 + 6
        np.testing.assert_array_equal(params["centroids"], M)
        np.testing.assert_array_equal(params.flatten()[-6:], M.ravel())
        with pytest.raises(ValueError, match="bare matrix"):
            params.to_payload()

    def test_insertion_validates_entries(self):
        with pytest.raises(ValueError, match="finite"):
            ParamSet({"m": np.array([[np.inf]])})
        with pytest.raises(ValueError, match="2-d"):
            ParamSet({"m": np.zeros(3)})
        with pytest.raises(ValueError, match="duplicate"):
            ParamSet([("a", np.zeros((1, 1))), ("a", np.zeros((1, 1)))])

    def test_layer_shape_validation(self):
        with pytest.raises(ValueError):
            AffineLayer(np.zeros((2, 3)), np.zeros(2), "identity")
        with pytest.raises(ValueError):
            AffineLayer(np.zeros((2, 2)), np.zeros(2), "sigmoid")


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(7).stream("init").random(100)
        b = Rng(7).stream("init").random(100)
        np.testing.assert_array_equal(a, b)

    def test_named_streams_are_independent(self):
        rng = Rng(7)
        a = rng.stream("init").random(100)
        b = rng.stream("shuffle").random(100)
        assert not np.array_equal(a, b)
        # consuming one stream does not disturb another
        fresh = Rng(7)
        fresh.stream("init").random(40)
        np.testing.assert_array_equal(fresh.stream("shuffle").random(100), b)

    def test_stream_is_cached_and_stateful(self):
        rng = Rng(7)
        first = rng.stream("kmeans").random(10)
        second = rng.stream("kmeans").random(10)
        assert not np.array_equal(first, second)

    def test_init_layer_scales_with_width(self):
        rng = np.random.default_rng(0)
        wide = init_layer(400, 10, "identity", rng)
        assert wide.weight.std() == pytest.approx(1 / np.sqrt(400), rel=0.15)
        assert np.all(wide.bias == 0)


finite = st.floats(-1e3, 1e3, allow_nan=False, width=64)


@st.composite
def param_sets(draw):
    """A ParamSet of 1-3 layers with random widths and an optional matrix."""
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    entries = []
    for i in range(len(widths) - 1):
        n_in, n_out = widths[i], widths[i + 1]
        values = draw(st.lists(finite, min_size=n_in * n_out + n_out,
                               max_size=n_in * n_out + n_out))
        act = draw(st.sampled_from(["identity", "relu"]))
        entries.append((f"layer{i}", AffineLayer(np.reshape(values[: n_in * n_out], (n_in, n_out)),
                                                 values[n_in * n_out:], act)))
    if draw(st.booleans()):
        rows = draw(st.integers(1, 3))
        values = draw(st.lists(finite, min_size=rows * widths[-1], max_size=rows * widths[-1]))
        entries.append(("centroids", np.reshape(values, (rows, widths[-1]))))
    return ParamSet(entries)


def same_layers(a, b):
    return a.names() == b.names() and all(
        isinstance(x, AffineLayer) == isinstance(y, AffineLayer) and (
            x.activation == y.activation and x.weight.tobytes() == y.weight.tobytes()
            and x.bias.tobytes() == y.bias.tobytes()
            if isinstance(x, AffineLayer) else x.tobytes() == y.tobytes())
        for (_, x), (_, y) in zip(a.items(), b.items()))


class TestProperties:
    @given(param_sets())
    def test_flatten_unflatten_round_trip_is_exact(self, params):
        rebuilt = params.unflatten(params.flatten())
        assert same_layers(rebuilt, params)
        assert not np.shares_memory(rebuilt.buffer, params.buffer)

    @settings(max_examples=30)
    @given(param_sets())
    def test_save_load_round_trip_is_exact(self, tmp_path_factory, params):
        layers = ParamSet((n, v) for n, v in params.items() if isinstance(v, AffineLayer))
        path = tmp_path_factory.mktemp("params") / "params.json"
        save_params(layers, path)
        assert same_layers(load_params(path), layers)

    @given(param_sets(), st.floats(1e-3, 1e3))
    def test_clipped_norm_is_at_most_clip_norm(self, grads, scale):
        # scaled by CLIP_NORM / scale, the set stands against CLIP_NORM as
        # it stood against a bound of scale: from far below it to far above
        grads.buffer *= nn.CLIP_NORM / scale
        g = grads.flatten()
        dot = np.dot(g, g)
        expected = g * (nn.CLIP_NORM / np.sqrt(dot)) if dot > nn.CLIP_NORM**2 else g
        before = np.linalg.norm(g)
        clipped = clip_gradients(grads)
        assert clipped is grads
        assert grads.buffer.tobytes() == expected.tobytes()
        after = np.linalg.norm(grads.flatten())
        # the rescaled norm may exceed CLIP_NORM by rounding only
        assert after <= nn.CLIP_NORM * (1 + 1e-12)
        if before <= nn.CLIP_NORM:
            assert after == before

    @given(param_sets(), st.floats(1e-4, 1.0), st.data())
    def test_sgd_step_is_the_momentum_update(self, params, lr, data):
        n, m = params.n_params, nn.MOMENTUM
        vectors = st.lists(finite, min_size=n, max_size=n)
        g, v = np.array(data.draw(vectors)), np.array(data.draw(vectors))
        p = params.flatten()
        velocity = params.unflatten(v)
        with mock.patch.object(nn, "CLIP_NORM", math.inf):  # clipping off
            sgd_step(params, params.unflatten(g), velocity, lr)
        np.testing.assert_array_equal(velocity.buffer, m * v + g)
        np.testing.assert_array_equal(params.buffer, p - lr * (m * v + g))

    @given(param_sets(), st.floats(1e-4, 1.0), st.floats(1e-3, 1e3), st.data())
    def test_sgd_step_clips_then_updates(self, params, lr, scale, data):
        n = params.n_params
        vectors = st.lists(finite, min_size=n, max_size=n)
        g = np.array(data.draw(vectors)) * (nn.CLIP_NORM / scale)
        stepped, grads = params.copy(), params.unflatten(g)
        velocity = params.zeros_like()
        sgd_step(stepped, grads, velocity, lr)
        clipped = clip_gradients(params.unflatten(g))
        assert grads.buffer.tobytes() == clipped.buffer.tobytes()
        expected, expected_v = params.copy(), params.zeros_like()
        with mock.patch.object(nn, "CLIP_NORM", math.inf):  # clipping off
            sgd_step(expected, clipped, expected_v, lr)
        assert stepped.buffer.tobytes() == expected.buffer.tobytes()
        assert velocity.buffer.tobytes() == expected_v.buffer.tobytes()

    @given(param_sets(), st.floats(1e-4, 1.0), st.integers(1, 8), st.data())
    def test_blocked_step_equals_the_whole_buffer_step(self, params, lr, block, data):
        n = params.n_params
        vectors = st.lists(finite, min_size=n, max_size=n)
        g, v = params.unflatten(data.draw(vectors)), np.array(data.draw(vectors))
        whole, blocked = params.copy(), params.copy()
        v_whole, v_blocked = params.unflatten(v), params.unflatten(v)
        sgd_step(whole, g.copy(), v_whole, lr)  # one block: n < SGD_BLOCK
        with mock.patch.object(nn, "SGD_BLOCK", block):
            sgd_step(blocked, g, v_blocked, lr)
        assert blocked.buffer.tobytes() == whole.buffer.tobytes()
        assert v_blocked.buffer.tobytes() == v_whole.buffer.tobytes()

    @given(st.integers(1, 6))
    def test_momentum_with_constant_gradient_has_closed_form(self, steps):
        momentum = nn.MOMENTUM
        params = ParamSet({"w": np.zeros((1, 1))})
        grads = ParamSet({"w": np.ones((1, 1))})
        velocity = params.zeros_like()
        for _ in range(steps):
            sgd_step(params, grads, velocity, 0.1)
        # v_k = (1 - m^k) / (1 - m);  p_k = -lr * sum_{j<=k} v_j
        v = [(1 - momentum**j) / (1 - momentum) for j in range(1, steps + 1)]
        assert velocity.buffer[0] == pytest.approx(v[-1], rel=1e-12)
        assert params.buffer[0] == pytest.approx(-0.1 * sum(v), rel=1e-12)
