"""Dense MLP kernel: affine layers with reverse-mode gradients, momentum SGD
and named deterministic random streams.

Tensors are plain float64 numpy arrays in row-major order; a data matrix is
(n_rows, n_features). A ParamSet keeps all of its entries in one contiguous
buffer, and its layers are views into that buffer; a gradient is a second
ParamSet with the same layout. A layer step makes one new array, its
output. `forward` keeps a tape of layer inputs and outputs for `backward`;
`apply`, for inference, keeps none and fills one output in row chunks; neither
corrupts its input, as dropout belongs to pretraining. `backward` writes
the layer gradients into the views its caller passes. `sgd_step` is the
one training step of both loops: it clips the gradients to the global
norm `CLIP_NORM`, then momentum `MOMENTUM`, block by block, in place. So a
training loop allocates its gradient and velocity sets once and copies a
set before training it when the original must survive. The clip's one
flat dot of the gradient buffer is the step's norm and its finiteness
test: only a non-finite dot scans the buffer. `squared_error` squares its
residual in place, and `residual_squared_error` lets a caller hand over a
residual it owns.

A ParamSet goes to and from a checkpoint's header and arrays
(`to_payload`, `from_payload`); the files themselves are `fairclust.ckpt`'s.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

ACTIVATIONS = ("identity", "relu")

# The `format` that `to_payload` writes; the files are `fairclust.ckpt`'s.
PARAMS_FORMAT = "fairclust-params"

# Momentum and global gradient-norm bound of `sgd_step`, in both training loops.
MOMENTUM = 0.9
CLIP_NORM = 5.0

# Rows per chunk of `apply`: an activation of a 2000-unit layer stays at
# 8.2 MB whatever the row count.
APPLY_ROWS = 512

# Values per `sgd_step` block: its one temporary, lr * v, stays at 256 KB.
SGD_BLOCK = 32768


class Rng:
    """Deterministic random streams keyed by purpose name.

    Each named stream is an independent Philox (counter-based) generator
    derived from (seed, name). Streams are cached, so repeated lookups
    continue the same sequence, and consuming one stream never perturbs
    another. Identical seeds replay identical streams.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self._streams = {}

    def stream(self, name):
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.blake2b(
                f"{self.seed}:{name}".encode(), digest_size=16
            ).digest()
            gen = np.random.Generator(
                np.random.Philox(key=int.from_bytes(digest, "little"))
            )
            self._streams[name] = gen
        return gen


@dataclass
class AffineLayer:
    """One dense layer: y = activation(x @ weight + bias).

    weight is (n_in, n_out), bias is (n_out,).
    """

    weight: np.ndarray
    bias: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weight must be 2-d and bias 1-d")
        if self.bias.shape[0] != self.weight.shape[1]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} != output width {self.weight.shape[1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters must be finite")

    @property
    def n_in(self):
        return self.weight.shape[0]

    @property
    def n_out(self):
        return self.weight.shape[1]

    @classmethod
    def _view(cls, weight, bias, activation):
        """Wrap arrays that were already validated, without copying or
        re-checking them."""
        layer = cls.__new__(cls)
        layer.weight, layer.bias, layer.activation = weight, bias, activation
        return layer


def init_layer(n_in, n_out, activation, rng):
    """Zero-mean Gaussian weights, zero biases.

    The std is scale aware, sqrt(2/n_in) for relu and sqrt(1/n_in)
    otherwise: a fixed small std starves narrow networks of signal and
    collapses the bottleneck.
    """
    std = np.sqrt((2.0 if activation == "relu" else 1.0) / n_in)
    return AffineLayer(std * rng.standard_normal((n_in, n_out)), np.zeros(n_out), activation)


class ParamSet:
    """Ordered, named parameters held in one contiguous float64 buffer.

    An entry is an affine layer, stored as its weight (row-major) then its
    bias, or a bare matrix such as the (K, d) cluster centroids. The layout
    maps each name to (offset, shape, activation), with activation None for
    a matrix. `params[name]` is an AffineLayer whose weight and bias are
    views into the buffer, or the matrix view, so writing through it
    changes the set. Entries are validated and copied in once, by the
    constructor; the layout is fixed from then on. Entry order is
    construction order and is kept by flatten and serialization.
    """

    def __init__(self, entries=None):
        items = entries.items() if isinstance(entries, dict) else (entries or ())
        layout, values, offset = {}, [], 0
        for name, value in items:
            if str(name) in layout:
                raise ValueError(f"duplicate entry {name!r}")
            weight, bias, activation = _entry_parts(value)
            layout[str(name)] = (offset, weight.shape, activation)
            values.append((weight, bias))
            offset += weight.size + (0 if bias is None else bias.size)
        self._attach(layout, np.empty(offset))
        for view, (weight, bias) in zip(self._views.values(), values):
            if bias is None:
                view[...] = weight
            else:
                view.weight[...] = weight
                view.bias[...] = bias

    def _attach(self, layout, buffer):
        self._layout, self.buffer, self._views = layout, buffer, {}
        for name, (offset, shape, activation) in layout.items():
            end = offset + shape[0] * shape[1]
            weight = buffer[offset:end].reshape(shape)
            self._views[name] = weight if activation is None else AffineLayer._view(
                weight, buffer[end : end + shape[1]], activation)
        return self

    def _like(self, buffer):
        return ParamSet.__new__(ParamSet)._attach(self._layout, buffer)

    def __contains__(self, name):
        return name in self._layout

    def __getitem__(self, name):
        return self._views[name]

    def names(self):
        return list(self._layout)

    def items(self):
        return list(self._views.items())

    def layers(self, prefix=None):
        """Entries in order, optionally filtered by name prefix."""
        return [v for name, v in self._views.items() if prefix is None or name.startswith(prefix)]

    def copy(self):
        return self._like(self.buffer.copy())

    def zeros_like(self):
        return self._like(np.zeros_like(self.buffer))

    @property
    def n_params(self):
        return self.buffer.size

    def flatten(self):
        return self.buffer.copy()

    def unflatten(self, vec):
        """New ParamSet with the same names/shapes, values taken from vec."""
        vec = np.array(vec, dtype=float)
        if vec.shape != (self.n_params,):
            raise ValueError(f"expected a flat vector of length {self.n_params}")
        return self._like(vec)

    def to_payload(self, prefix=""):
        """(header, arrays) of the version 3 checkpoint of the entries whose
        names start with prefix (all by default): their layer records, then
        their values as the one array `buffer`, a view of the set's buffer.
        So the chosen entries must lead the set, and they must be layers."""
        chosen = [name for name in self._layout if name.startswith(prefix)]
        if chosen != self.names()[: len(chosen)]:
            raise ValueError(f"the {prefix}* entries must lead the parameter set")
        layers = [self._views[name] for name in chosen]
        if any(not isinstance(l, AffineLayer) for l in layers):
            raise ValueError("checkpoints hold layers only, not bare matrix entries")
        records = [{"name": name, "activation": l.activation, "shape": [l.n_in, l.n_out]}
                   for name, l in zip(chosen, layers)]
        end = sum(l.weight.size + l.bias.size for l in layers)
        return {"format": PARAMS_FORMAT, "layers": records}, {"buffer": self.buffer[:end]}

    @classmethod
    def from_payload(cls, header, arrays):
        """The set of a checkpoint's header and arrays, in the one shape
        `ckpt.read_checkpoint` gives for every version: the layout comes
        from `layer_layout(header["layers"])`, and the set takes
        `arrays["buffer"]` as its buffer, which it then owns. A missing
        field or a buffer of another shape than the layers need is a
        ValueError naming it, and so is a buffer holding a nan or inf,
        which names the first entry that holds one."""
        require_fields(header, ("layers",))
        layout, size = layer_layout(header["layers"])
        require_fields(arrays, ("buffer",), "arrays: ")
        buffer = arrays["buffer"]
        if buffer.shape != (size,):
            raise ValueError(f"arrays: buffer: shape {list(buffer.shape)}, "
                             f"but the layers need [{size}]")
        out = cls.__new__(cls)._attach(layout, buffer)
        # min and max carry any nan and make no buffer-sized temporary
        if out.buffer.size and not (math.isfinite(out.buffer.min())
                                    and math.isfinite(out.buffer.max())):
            first = int(np.argmin(np.isfinite(out.buffer)))
            raise ValueError(f"{out._entry_at(first)}: values must be finite")
        return out

    def _entry_at(self, index):
        """Name of the entry that holds buffer[index]."""
        return [n for n, (offset, _, _) in self._layout.items() if offset <= index][-1]


def layer_layout(records):
    """(layout, buffer size) of a checkpoint's layer records, as
    `ParamSet.from_payload` and ckpt's JSON readers check them. Each record
    needs a name no earlier record uses, a shape of two positive ints and a
    known activation; a record that breaks this, or lacks a field, is a
    ValueError naming `layers[i]` and the field."""
    if not isinstance(records, list):
        raise ValueError(f"layers: must be a list, got {records!r}")
    layout, offset = {}, 0
    for i, rec in enumerate(records):
        where = f"layers[{i}]: "
        if not isinstance(rec, dict):
            raise ValueError(f"{where}must be an object, got {rec!r}")
        require_fields(rec, ("name", "shape", "activation"), where)
        name, shape, activation = rec["name"], rec["shape"], rec["activation"]
        if not isinstance(name, str):
            raise ValueError(f"{where}name: must be a string, got {name!r}")
        if name in layout:
            raise ValueError(f"{where}name: {name!r} is used by an earlier record")
        if not (isinstance(shape, list) and len(shape) == 2
                and all(type(n) is int and n > 0 for n in shape)):
            raise ValueError(f"{where}shape: must be two positive ints, got {shape!r}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"{where}activation: unknown activation {activation!r}")
        n_in, n_out = shape
        layout[name] = (offset, (n_in, n_out), activation)
        offset += n_in * n_out + n_out
    return layout, offset


def _entry_parts(value):
    """Validated (weight, bias, activation) of a layer, or (matrix, None, None)."""
    if isinstance(value, AffineLayer):
        layer = AffineLayer(value.weight, value.bias, value.activation)
        return layer.weight, layer.bias, layer.activation
    matrix = np.asarray(value, dtype=float)
    if matrix.ndim != 2 or not np.all(np.isfinite(matrix)):
        raise ValueError("a matrix entry must be a finite 2-d array")
    return matrix, None, None


def require_finite(config):
    """Make each int held by a float field of the dataclass instance config
    a float, so lr=20 logs as 20.0; then a ValueError naming the first
    float field whose value is nan or infinite. Range checks compare against
    bounds, and nan passes every comparison that reads "not out of range"."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "float" and isinstance(value, int):
            value = float(value)
            object.__setattr__(config, f.name, value)
        if f.type == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def require_fields(record, names, where=""):
    """A ValueError naming the first of names that record lacks, after the
    prefix where."""
    for name in names:
        if name not in record:
            raise ValueError(f"{where}{name}: missing")


@dataclass
class Tape:
    """Record of one forward pass for reverse mode: each layer's input and output."""

    layers: list
    steps: list = field(default_factory=list)  # (layer input, layer output) pairs


def _matrix(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("input must be a 2-d matrix")
    return x


def _layer_step(i, layer, h):
    """Output of layer i on input h: one new array, biased and rectified in place."""
    if h.shape[1] != layer.n_in:
        raise ValueError(
            f"layer {i}: input width {h.shape[1]} does not match weight rows {layer.n_in}"
        )
    out = h @ layer.weight
    out += layer.bias
    return np.maximum(out, 0.0, out=out) if layer.activation == "relu" else out


def forward(layers, x):
    """Run x through the layer stack, returning (output, tape).

    The tape holds each layer's (input, output); the last output is the
    array returned. Corruption is not applied here: a caller that trains
    on noisy inputs, as pretraining does, passes the corrupted batch.
    """
    steps = []
    h = _matrix(x)
    for i, layer in enumerate(layers):
        out = _layer_step(i, layer, h)
        steps.append((h, out))
        h = out
    return h, Tape(layers=list(layers), steps=steps)


def apply(layers, x):
    """The stack's output on x with no tape and no corruption, computed
    APPLY_ROWS rows at a time. Up to APPLY_ROWS rows it equals
    `forward(layers, x)[0]` bit for bit and is that pass's own output.
    Above, each chunk's output is written into one array preallocated from
    the first chunk's width, and each chunk is its own GEMM, whose float64
    rounding can differ from an unchunked pass in the last bits (about
    1e-15)."""
    x, out = _matrix(x), None
    for start in range(0, max(len(x), 1), APPLY_ROWS):
        h = x[start : start + APPLY_ROWS]
        for i, layer in enumerate(layers):
            h = _layer_step(i, layer, h)
        if len(h) == len(x):
            return h
        if out is None:
            out = np.empty((len(x), h.shape[1]))
        out[start : start + len(h)] = h
    return out


def backward(tape, upstream, out, input_grad=False):
    """Exact reverse-mode gradients of the traced forward pass.

    Writes each layer's (dweight, dbias) into out, a list of gradient
    layers in forward order such as `grads.layers("enc")`, overwriting what
    they held. Returns the gradient with respect to the input the tape
    recorded when input_grad is set; else the first layer's `g @ weight.T`
    is not formed and None is returned.
    relu's mask is read as `output > 0`, the same booleans as `pre > 0`.
    """
    g = np.asarray(upstream, dtype=float)
    if not tape.steps:
        raise ValueError("tape is empty")
    if len(out) != len(tape.layers):
        raise ValueError(f"{len(out)} gradient layers for a {len(tape.layers)}-layer tape")
    n_out = tape.layers[-1].n_out
    if g.shape != (tape.steps[0][0].shape[0], n_out):
        raise ValueError("upstream gradient shape does not match the traced output")
    for i in range(len(tape.layers) - 1, -1, -1):
        layer = tape.layers[i]
        h_in, h_out = tape.steps[i]
        if layer.activation == "relu":
            g = g * (h_out > 0)
        np.matmul(h_in.T, g, out=out[i].weight)
        g.sum(axis=0, out=out[i].bias)
        if i or input_grad:
            g = g @ layer.weight.T
    return g if input_grad else None


def clip_gradients(grads):
    """Scale grads in place so the global gradient norm is at most
    CLIP_NORM; returns grads. A fixed-threshold norm clip (Pascanu et al.,
    2013) that bounds the step when a batch or a loss term spikes; it is a
    guard of the optimizer, not part of the objective.

    One flat dot of the buffer is the squared norm and the finiteness
    test: a finite dot proves every entry finite, and one above CLIP_NORM²
    scales the buffer by CLIP_NORM / sqrt(dot). Only a non-finite dot
    scans the buffer; a nan or inf entry, or finite entries whose squares
    overflow, raise a RuntimeError before anything is scaled.
    """
    dot = np.dot(grads.buffer, grads.buffer)
    if not math.isfinite(dot):
        first = int(np.argmin(np.isfinite(grads.buffer)))
        if not math.isfinite(grads.buffer[first]):
            raise RuntimeError(f"non-finite gradient for entry {grads._entry_at(first)!r}")
        raise RuntimeError("non-finite gradient norm: the entries are finite, "
                           "but their squares overflow")
    if dot > CLIP_NORM * CLIP_NORM:
        grads.buffer *= CLIP_NORM / math.sqrt(dot)
    return grads


def sgd_step(params, grads, velocity, lr):
    """The training step of both loops, in place: clip grads to the global
    norm CLIP_NORM, then the classic momentum update
    v <- MOMENTUM*v + g; p <- p - lr*v.

    grads and velocity must share the layout of params; grads is scaled by
    the clip and velocity and params are updated. It runs SGD_BLOCK values
    at a time, so lr*v is never parameter-sized, and the clip scales grads
    in place, so no step makes a parameter-sized array. A mismatched
    layout, a nan or inf gradient (the usual divergence signal), or a
    finite gradient whose squared norm overflows raises before any write.
    """
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    for what, other in (("gradient", grads), ("velocity", velocity)):
        if other._layout is not params._layout and other._layout != params._layout:
            raise ValueError(f"{what} layout does not match the parameters")
    g = clip_gradients(grads).buffer
    for b in (slice(start, start + SGD_BLOCK) for start in range(0, g.size, SGD_BLOCK)):
        v = velocity.buffer[b]
        v *= MOMENTUM
        v += g[b]
        params.buffer[b] -= v * lr


def squared_error(pred, target):
    """Mean over rows of the feature-summed squared error.

    Summing over features keeps the gradient scale independent of the
    data width, so one learning rate works across feature counts.
    """
    return residual_squared_error(pred - target)


def residual_squared_error(residual):
    """`squared_error` of the residual pred - target, which the caller owns
    and gives up: it is squared in place, so the pass makes no array of
    its size."""
    np.square(residual, out=residual)
    return float(np.mean(np.sum(residual, axis=1)))


def squared_error_grad(pred, target):
    return 2.0 * (pred - target) / len(pred)
