"""Stacked denoising autoencoder: greedy layer-wise pretraining, global
fine-tuning, and encode/decode services.

The layer schedule lists the encoder half only (input D down to the
bottleneck d); the decoder mirrors it. Hidden layers use relu, the
bottleneck and the reconstruction output are linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import (
    ParamSet,
    Rng,
    apply,
    backward,
    forward,
    init_layer,
    require_finite,
    residual_squared_error,
    sgd_step,
    squared_error_grad,
)


@dataclass(frozen=True)
class AeConfig:
    dims: tuple
    layerwise_epochs: int = 150
    global_epochs: int = 100
    lr_pretrain: float = 0.1
    dropout: float = 0.2
    batch: int = 256
    seed: int = 0

    def __post_init__(self):
        require_finite(self)
        dims = tuple(int(w) for w in self.dims)
        if len(dims) < 2:
            raise ValueError("dims must list at least the input width and the bottleneck")
        if any(w < 1 for w in dims):
            raise ValueError("layer widths must be positive")
        if self.layerwise_epochs < 0 or self.global_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.lr_pretrain <= 0:
            raise ValueError("lr_pretrain must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.batch < 1:
            raise ValueError("batch must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        object.__setattr__(self, "dims", dims)


def init_params(dims, rng_stream):
    """Fresh encoder + mirrored decoder. Names are enc0..encH-1, dec0..decH-1."""
    dims = tuple(dims)
    depth = len(dims) - 1
    entries = []
    for prefix, widths in (("enc", dims), ("dec", dims[::-1])):
        for i in range(depth):
            act = "identity" if i == depth - 1 else "relu"
            entries.append((f"{prefix}{i}",
                            init_layer(widths[i], widths[i + 1], act, rng_stream)))
    return ParamSet(entries)


def encode(params, X):
    """Deterministic bottleneck representation, never corrupted."""
    return apply(params.layers("enc"), X)


def decode(params, Z):
    return apply(params.layers("dec"), Z)


def require_usable_latents(Z):
    """A RuntimeError if the latents Z, one row per data row, are not all
    finite or are the same vector for every row (an encoder whose units
    are all dead): no clustering can be learned from such an encoder."""
    if not np.all(np.isfinite(Z)):
        raise RuntimeError("non-finite latents; the autoencoder checkpoint is unusable")
    if np.all(Z == Z[0]):
        raise RuntimeError("every row encodes to the same latent vector; the autoencoder "
                           "checkpoint is unusable")


def reconstruction_squared_error(params, X):
    """`nn.squared_error` of the stack's reconstruction of X, bit for bit.
    The residual is formed in the reconstruction `apply` returns, which
    this function owns, so the pass holds X and one array of its size.
    params holds at least one layer, as every autoencoder does: `apply`
    of no layers would return a view of X itself."""
    X = np.asarray(X, dtype=float)
    residual = apply(params.layers(), X)
    residual -= X
    return residual_squared_error(residual)


def _minibatch_sweep(params, velocity, X, order, lr, batch, dropout, noise_stream):
    """The epoch's minibatch updates, in place. Each batch is corrupted
    with inverted dropout when dropout > 0: a unit is zeroed with
    probability dropout and survivors are scaled by 1/(1-dropout), so the
    clean passes need no rescaling; the tape records the corrupted batch.
    One gradient set serves every minibatch (`backward` overwrites all of
    it each step); it is freed on return, so the full-data loss pass after
    the sweep does not hold it. A batch's tape is dropped after its
    `backward`, so the next batch's forward pass does not run beside it."""
    grads = params.zeros_like()
    layers, grad_layers = params.layers(), grads.layers()
    for start in range(0, len(X), batch):
        xb = X[order[start : start + batch]]
        xin = xb
        if dropout:
            xin = xb * ((noise_stream.random(xb.shape) >= dropout) / (1.0 - dropout))
        out, tape = forward(layers, xin)
        backward(tape, squared_error_grad(out, xb), grad_layers)
        del xb, xin, out, tape
        sgd_step(params, grads, velocity, lr)


def _run_epochs(params, X, epochs, lr, batch, rng, dropout, stage):
    """Shared epoch loop with learning-rate backoff; trains params in place.
    Returns (params, log): one entry {**stage, "epoch", "loss", "lr",
    "rollbacks"} per epoch from epoch 0, the starting loss. Each loss is the
    clean full-data reconstruction error after the epoch, each rate the one
    the next epoch starts at, and rollbacks the epoch's failed attempts.
    stage holds the fixed fields of every entry ({"stage": "layerwise",
    "layer": i} or {"stage": "global"}), which also name a divergence.

    Each attempt copies the parameter buffer and runs one `_minibatch_sweep`.
    An attempt whose sweep meets a non-finite gradient (`sgd_step`'s
    RuntimeError), whose loss is not finite, or whose loss more than doubles
    the previous one is rolled back: the copy is written back, the velocity
    restarts at zero (O'Donoghue & Candes, 2015) and the rate is halved; the
    epoch is retried once. A retry that is still bad halves the rate again
    and leaves the epoch rolled back, so a quarter of the epoch's starting
    rate carries forward. A learning rate driven below 1e-8 is a
    RuntimeError naming the stage and epoch.
    """
    velocity = params.zeros_like()
    shuffle = rng.stream("shuffle")
    noise_stream = rng.stream("dropout") if dropout else None
    prev = reconstruction_squared_error(params, X)
    log = [{**stage, "epoch": 0, "loss": prev, "lr": lr, "rollbacks": 0}]
    for epoch in range(1, epochs + 1):
        order = shuffle.permutation(len(X))
        rollbacks = 0
        while rollbacks < 2:
            start = params.buffer.copy()
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                try:
                    _minibatch_sweep(params, velocity, X, order, lr, batch, dropout,
                                     noise_stream)
                    loss = reconstruction_squared_error(params, X)
                except RuntimeError:
                    loss = np.inf
            if loss <= 2.0 * prev:
                prev = loss
                break
            params.buffer[...] = start
            velocity.buffer[...] = 0.0
            rollbacks += 1
            lr *= 0.5
            if lr < 1e-8:
                where = ", ".join(f"{key} {value}" for key, value in stage.items())
                raise RuntimeError(f"pretraining diverged at {where}, epoch {epoch}")
        log.append({**stage, "epoch": epoch, "loss": prev, "lr": lr, "rollbacks": rollbacks})
    return params, log


def pretrain_layerwise(X, cfg, rng=None):
    """Greedy layer-wise pretraining of the full encoder/decoder stack.

    Each (encoder, decoder) layer pair trains as a denoising autoencoder on
    the clean output of the already-trained layers below it, corrupting
    only its own input with dropout noise and minimizing squared
    reconstruction error. Returns (params, log), the log holding each
    pair's `_run_epochs` entries in layer order, stage "layerwise". Each
    trained pair is written back into the one set `init_params` made.
    """
    X = np.asarray(X, dtype=float)
    cfg = _check_input(X, cfg)
    rng = rng or Rng(cfg.seed)
    params = init_params(cfg.dims, rng.stream("init"))
    depth = len(cfg.dims) - 1
    log, h = [], X
    for i in range(depth):
        names = (f"enc{i}", f"dec{depth - 1 - i}")
        pair, pair_log = _run_epochs(
            ParamSet((name, params[name]) for name in names), h,
            cfg.layerwise_epochs, cfg.lr_pretrain, cfg.batch, rng, cfg.dropout,
            {"stage": "layerwise", "layer": i})
        for name in names:
            params[name].weight[...] = pair[name].weight
            params[name].bias[...] = pair[name].bias
        del pair
        log += pair_log
        if i < depth - 1:  # the bottleneck's output trains nothing
            h = apply([params[names[0]]], h)
    return params, log


def finetune_global(X, params, epochs, lr, batch, rng):
    """End-to-end reconstruction training without corruption; params is
    left as it is: a copy of it is trained. batch is the minibatch size and
    rng the `Rng` whose "shuffle" stream orders each epoch. Returns
    (params, log), the log being `_run_epochs`'s entries, stage "global".
    """
    return _run_epochs(params.copy(), np.asarray(X, dtype=float), epochs, lr, batch, rng,
                       0.0, {"stage": "global"})


def pretrain(X, cfg):
    """Layer-wise pretraining followed by global fine-tuning, one seed. The
    global stage trains the layer-wise result in place, with the same Rng."""
    rng = Rng(cfg.seed)
    params, log = pretrain_layerwise(X, cfg, rng=rng)
    params, global_log = _run_epochs(params, np.asarray(X, dtype=float), cfg.global_epochs,
                                     cfg.lr_pretrain, cfg.batch, rng, 0.0, {"stage": "global"})
    return params, log + global_log


def _check_input(X, cfg):
    if X.ndim != 2:
        raise ValueError("training data must be a 2-d matrix")
    if X.shape[1] != cfg.dims[0]:
        raise ValueError(
            f"dims start at {cfg.dims[0]} but the data has {X.shape[1]} features"
        )
    return cfg
