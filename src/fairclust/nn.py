"""Dense MLP kernel: affine layers with reverse-mode gradients, momentum SGD,
named deterministic random streams, and a finite-difference gradient checker.

Tensors are plain float64 numpy arrays in row-major order; a data matrix is
(n_rows, n_features). A ParamSet keeps all of its entries in one contiguous
buffer, and its layers are views into that buffer; a gradient is a second
ParamSet with the same layout. A layer step makes one new array, its
output. `forward` keeps a tape of layer inputs and outputs for `backward`;
`apply`, for inference, keeps none and runs in row chunks. `backward`
writes the layer gradients into the views its caller passes, and
`clip_gradients` and `sgd_step` (block by block) update the ParamSets they
are given in place, so a training loop allocates its gradient set once and
copies a set before training it when the original must survive.

Checkpoints are JSON. Format version 2 stores each float array as a
`pack_array` record: base64 of its little-endian float64 bytes with its
dtype and shape, so a round trip is exact and a load decodes the text, in
slices, straight into the array. Version 1 files (JSON number lists) are
still read; only version 2 is written.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ACTIVATIONS = ("identity", "relu")

PARAMS_FORMAT = "fairclust-params"
PARAMS_VERSION = 2
ARRAY_DTYPE = "<f8"

# Rows per chunk of `apply`: an activation of a 2000-unit layer stays under
# 66 MB whatever the row count.
APPLY_ROWS = 4096

# Values per `sgd_step` block: its one temporary, lr * v, stays at 256 KB.
SGD_BLOCK = 32768
# Base64 characters per `unpack_array` slice, a multiple of 4. A slice in
# flight holds 2.75 times this: its text, its ASCII bytes and its bytes.
DECODE_CHARS = 1 << 18


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


def init_layer(n_in, n_out, activation, rng, std=None):
    """Zero-mean Gaussian weights, zero biases.

    The default std is scale aware (sqrt(2/n_in) for relu, sqrt(1/n_in)
    otherwise): a fixed small std starves narrow networks of signal and
    collapses the bottleneck.
    """
    if std is None:
        gain = 2.0 if activation == "relu" else 1.0
        std = np.sqrt(gain / n_in)
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

    def to_payload(self):
        """Version 2 checkpoint payload: the layout, then the whole buffer as
        one `pack_array` record."""
        if any(not isinstance(l, AffineLayer) for l in self._views.values()):
            raise ValueError("checkpoints hold layers only, not bare matrix entries")
        return {
            "format": PARAMS_FORMAT,
            "version": PARAMS_VERSION,
            "layers": [{"name": name, "activation": l.activation, "shape": [l.n_in, l.n_out]}
                       for name, l in self._views.items()],
            "buffer": pack_array(self.buffer),
        }

    @classmethod
    def from_payload(cls, payload):
        """Rebuilds the layout from the recorded shapes and lets the reader
        for the payload's version fill one new buffer, which the set owns."""
        if not isinstance(payload, dict) or payload.get("format") != PARAMS_FORMAT:
            raise ValueError("not a fairclust parameter checkpoint")
        read = _PARAMS_READERS.get(payload.get("version"))
        if read is None:
            raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
        layout, offset = {}, 0
        for rec in payload["layers"]:
            (n_in, n_out), activation = rec["shape"], rec["activation"]
            if activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation {activation!r}")
            layout[rec["name"]] = (offset, (n_in, n_out), activation)
            offset += n_in * n_out + n_out
        out = cls.__new__(cls)._attach(layout, read(payload, layout, offset))
        if not np.all(np.isfinite(out.buffer)):
            raise ValueError("layer parameters must be finite")
        return out


def _read_params_v1(payload, layout, size):
    """Version 1: each layer's weight and bias as JSON number lists."""
    buffer = np.empty(size)
    for rec in payload["layers"]:
        offset, (n_in, n_out), _ = layout[rec["name"]]
        end = offset + n_in * n_out
        buffer[offset:end] = rec["weight"]
        buffer[end : end + n_out] = rec["bias"]
    return buffer


# Parameter format version -> reader of the buffer: version 2 stores it as
# one `pack_array` record.
_PARAMS_READERS = {1: _read_params_v1,
                   2: lambda payload, layout, size: unpack_array(payload.get("buffer"), (size,))}


def pack_array(a):
    """JSON record of a float array: base64 of its little-endian float64
    bytes, with dtype and shape. `unpack_array` restores it bit for bit."""
    a = np.ascontiguousarray(a, dtype=ARRAY_DTYPE)
    return {"dtype": ARRAY_DTYPE, "shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def unpack_array(record, shape=None):
    """The float64 array of a `pack_array` record, decoded in slices into
    the one new writable array it returns, which the caller owns. shape,
    when given, is the one the caller expects. The record is checked
    before any decode, so a dtype, shape or data that does not hold up is
    a ValueError naming what is wrong; so is a slice the decoder rejects."""
    if not isinstance(record, dict):
        raise ValueError("expected a packed array record")
    if record.get("dtype") != ARRAY_DTYPE:
        raise ValueError(f"unsupported array dtype {record.get('dtype')!r}")
    stored = record.get("shape")
    if not isinstance(stored, list) or not all(
            isinstance(n, int) and n >= 0 for n in stored):
        raise ValueError(f"array shape must list non-negative integers, got {stored!r}")
    if shape is not None and tuple(stored) != tuple(shape):
        raise ValueError(f"array shape {stored} does not match the expected {list(shape)}")
    data, size = record.get("data"), math.prod(stored) * 8
    if not (isinstance(data, str) and data.isascii()):
        raise ValueError("array data is not base64: it must be an ASCII string")
    if len(data) % 4 or data.find("=", 0, len(data) - 2) >= 0:
        raise ValueError("array data is not base64: it must be whole 4-character groups "
                         "with '=' only in the last two places")
    held = len(data) // 4 * 3 - data.count("=", len(data) - 2)
    if held != size:
        raise ValueError(f"array data holds {held} bytes; shape {stored} needs {size}")
    out, at = np.empty(stored, dtype=ARRAY_DTYPE), 0
    dest = out.reshape(-1).view(np.uint8)
    for start in range(0, len(data), DECODE_CHARS):
        try:
            part = base64.b64decode(data[start : start + DECODE_CHARS], validate=True)
        except ValueError as exc:
            raise ValueError(f"array data is not base64: {exc}") from None
        dest[at : at + len(part)] = np.frombuffer(part, dtype=np.uint8)
        at += len(part)
    return out


def _entry_parts(value):
    """Validated (weight, bias, activation) of a layer, or (matrix, None, None)."""
    if isinstance(value, AffineLayer):
        layer = AffineLayer(value.weight, value.bias, value.activation)
        return layer.weight, layer.bias, layer.activation
    matrix = np.asarray(value, dtype=float)
    if matrix.ndim != 2 or not np.all(np.isfinite(matrix)):
        raise ValueError("a matrix entry must be a finite 2-d array")
    return matrix, None, None


def save_params(params, path):
    """Write params as a version 2 parameter checkpoint."""
    Path(path).write_text(json.dumps(params.to_payload()))


def load_params(path):
    """Read a version 1 or version 2 parameter checkpoint."""
    return ParamSet.from_payload(read_json(path))


def read_json(path):
    """The parsed JSON file at path; text that does not parse is a
    ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc


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


def forward(layers, x, noise=0.0, rng=None):
    """Run x through the layer stack, returning (output, tape).

    When noise > 0 the input is corrupted with inverted dropout: each unit
    is zeroed independently with probability `noise` and survivors are
    scaled by 1/(1-noise), so evaluation needs no rescaling. Corruption is
    only applied when a rate is passed (training mode). The tape holds
    each layer's (input, output); the last output is the array returned.
    """
    x = _matrix(x)
    if noise:
        if not 0.0 < noise < 1.0:
            raise ValueError("noise rate must lie in (0, 1)")
        if rng is None:
            raise ValueError("dropout corruption requires an rng stream")
        x = x * ((rng.random(x.shape) >= noise) / (1.0 - noise))
    steps = []
    h = x
    for i, layer in enumerate(layers):
        out = _layer_step(i, layer, h)
        steps.append((h, out))
        h = out
    return h, Tape(layers=list(layers), steps=steps)


def apply(layers, x):
    """The stack's output on x with no tape and no corruption, computed
    APPLY_ROWS rows at a time. Up to APPLY_ROWS rows it equals
    `forward(layers, x)[0]` bit for bit; above, each chunk is its own GEMM,
    whose float64 rounding can differ in the last bits (about 1e-15)."""
    x, chunks = _matrix(x), []
    for start in range(0, max(len(x), 1), APPLY_ROWS):
        h = x[start : start + APPLY_ROWS]
        for i, layer in enumerate(layers):
            h = _layer_step(i, layer, h)
        chunks.append(h)
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def backward(tape, upstream, out, input_grad=False):
    """Exact reverse-mode gradients of the traced forward pass.

    Writes each layer's (dweight, dbias) into out, a list of gradient
    layers in forward order such as `grads.layers("enc")`, overwriting what
    they held. Returns the gradient with respect to the input the tape
    recorded (after any dropout corruption) when input_grad is set; else
    the first layer's `g @ weight.T` is not formed and None is returned.
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


def _squared_norm(entry):
    if isinstance(entry, AffineLayer):
        return float(np.sum(entry.weight**2) + np.sum(entry.bias**2))
    return float(np.sum(entry**2))


def clip_gradients(grads, max_norm):
    """Scale grads in place so the global gradient norm is at most max_norm;
    returns grads. Bounds the step size when a batch or a loss term spikes;
    0 disables clipping. The squared norm is summed entry by entry, in entry
    order: that order is part of the float64 result, and one flat reduction
    over the buffer rounds differently, which training amplifies.
    """
    if max_norm <= 0:
        return grads
    total = np.sqrt(sum(_squared_norm(g) for _, g in grads.items()))
    if np.isfinite(total) and total > max_norm:
        grads.buffer *= max_norm / total
    return grads


def sgd_step(params, grads, lr, momentum=0.0, velocity=None):
    """Classic momentum update, in place: v <- m*v + g; p <- p - lr*v.

    Updates params and velocity (made as zeros when None) in place and
    returns (params, velocity); grads must share the layout of params. It
    runs SGD_BLOCK values at a time, so lr*v is never parameter-sized.
    Raises on non-finite gradients, the usual training divergence signal,
    before any value is written.
    """
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must lie in [0, 1)")
    if grads._layout is not params._layout and grads._layout != params._layout:
        raise ValueError("gradient layout does not match the parameters")
    g = grads.buffer
    blocks = [slice(start, start + SGD_BLOCK) for start in range(0, g.size, SGD_BLOCK)]
    if not all(np.isfinite(g[b]).all() for b in blocks):
        first = int(np.argmin(np.isfinite(g)))
        name = [n for n, (offset, _, _) in grads._layout.items() if offset <= first][-1]
        raise RuntimeError(f"non-finite gradient for entry {name!r}")
    if velocity is None:
        velocity = params.zeros_like()
    for b in blocks:
        v = velocity.buffer[b]
        v *= momentum
        v += g[b]
        params.buffer[b] -= v * lr
    return params, velocity


def finite_diff_check(loss_and_grad, params, h=1e-4, sample=30, rng=None):
    """Max relative error between analytic and central-difference gradients.

    loss_and_grad(params) must return (scalar loss, ParamSet gradients).
    A seeded random subset of `sample` coordinates is probed; the relative
    error denominator is max(|analytic|, |numeric|, 1e-8).
    """
    if not 1e-6 <= h <= 1e-2:
        raise ValueError("step h must lie in [1e-6, 1e-2]")
    if sample > params.n_params:
        raise ValueError("sample exceeds the parameter count")
    if rng is None:
        rng = np.random.default_rng(0)
    _, grads = loss_and_grad(params)
    flat = params.flatten()
    analytic = grads.flatten()
    idx = rng.choice(flat.size, size=sample, replace=False)
    worst = 0.0
    for i in idx:
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        up = loss_and_grad(params.unflatten(bumped))[0]
        bumped[i] = flat[i] - h
        down = loss_and_grad(params.unflatten(bumped))[0]
        numeric = (up - down) / (2.0 * h)
        err = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def squared_error(pred, target):
    """Mean over rows of the feature-summed squared error.

    Summing over features keeps the gradient scale independent of the
    data width, so one learning rate works across feature counts.
    """
    return float(np.mean(np.sum((pred - target) ** 2, axis=1)))


def squared_error_grad(pred, target):
    return 2.0 * (pred - target) / len(pred)
