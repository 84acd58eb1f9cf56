"""Dense MLP kernel: affine layers with reverse-mode gradients, momentum SGD,
named deterministic random streams, and a finite-difference gradient checker.

Tensors are plain float64 numpy arrays in row-major order; a data matrix is
(n_rows, n_features). A ParamSet keeps all of its entries in one contiguous
buffer, and its layers are views into that buffer; a gradient is a second
ParamSet with the same layout. A layer step makes one new array, its
output. `forward` keeps a tape of layer inputs and outputs for `backward`;
`apply`, for inference, keeps none and runs in row chunks; neither
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

Checkpoints are version 3 files (`write_checkpoint`, `read_checkpoint`):
an 8-byte magic, the header's length, a JSON header that gives each
float64 array's shape and offset, then the arrays' raw little-endian
bytes, which a load reads straight into the arrays it returns. So a round
trip is exact, and a load makes no text or bytes copy of the values. JSON
checkpoints are still read: version 1 (JSON number lists) and version 2
(base64 `unpack_array` records). Only version 3 is written.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

ACTIVATIONS = ("identity", "relu")

PARAMS_FORMAT = "fairclust-params"
ARRAY_DTYPE = "<f8"
# The first bytes of a version 3 checkpoint: no text file starts with 0x89.
MAGIC = b"\x89FCLUST\n"
CHECKPOINT_VERSION = 3

# Momentum and global gradient-norm bound of `sgd_step`, in both training loops.
MOMENTUM = 0.9
CLIP_NORM = 5.0

# Rows per chunk of `apply`: an activation of a 2000-unit layer stays under
# 66 MB whatever the row count.
APPLY_ROWS = 4096

# Values per `sgd_step` block: its one temporary, lr * v, stays at 256 KB.
SGD_BLOCK = 32768
# Base64 characters per slice of `unpack_array`, the version 2 reader, a
# multiple of 4. A slice in flight holds 2.75 times this: its text, its
# ASCII bytes and its bytes.
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
    def from_payload(cls, payload, arrays=None):
        """The set of a checkpoint: a JSON payload (version 1 or 2), whose
        reader fills one new buffer, or a version 3 header with the arrays
        read after it, whose `buffer` the set takes as it is. Either way
        the set owns its buffer. The layout comes from `_layer_layout`; a
        buffer of another size is a ValueError, and so is one holding a nan
        or inf, which names the first entry that holds one."""
        if arrays is None:
            if not isinstance(payload, dict) or payload.get("format") != PARAMS_FORMAT:
                raise ValueError("not a fairclust parameter checkpoint")
            read = _PARAMS_READERS.get(payload.get("version"))
            if read is None:
                raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
        else:
            read = lambda payload, layout, size: _stored_buffer(arrays, size)
        require_fields(payload, ("layers",))
        layout, size = _layer_layout(payload["layers"])
        out = cls.__new__(cls)._attach(layout, read(payload, layout, size))
        # min and max carry any nan and make no buffer-sized temporary
        if out.buffer.size and not (math.isfinite(out.buffer.min())
                                    and math.isfinite(out.buffer.max())):
            first = int(np.argmin(np.isfinite(out.buffer)))
            raise ValueError(f"{out._entry_at(first)}: values must be finite")
        return out

    def _entry_at(self, index):
        """Name of the entry that holds buffer[index]."""
        return [n for n, (offset, _, _) in self._layout.items() if offset <= index][-1]


def _layer_layout(records):
    """(layout, buffer size) of a checkpoint's layer records, for every
    version. Each record needs a name no earlier record uses, a shape of
    two positive ints and a known activation; a record that breaks this,
    or lacks a field, is a ValueError naming `layers[i]` and the field."""
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


def _stored_buffer(arrays, size):
    """The `buffer` array of a version 3 checkpoint, which its layers say
    holds size values."""
    require_fields(arrays, ("buffer",), "arrays: ")
    if arrays["buffer"].shape != (size,):
        raise ValueError(f"arrays: buffer: shape {list(arrays['buffer'].shape)}, "
                         f"but the layers need [{size}]")
    return arrays["buffer"]


def _read_params_v1(payload, layout, size):
    """Version 1: each layer's weight and bias as flat JSON number lists."""
    buffer = np.empty(size)
    for rec in payload["layers"]:
        offset, (n_in, n_out), _ = layout[rec["name"]]
        require_fields(rec, ("weight", "bias"), f"{rec['name']}: ")
        for name, needed in (("weight", n_in * n_out), ("bias", n_out)):
            values = np.asarray(rec[name], dtype=float)
            if values.shape != (needed,):
                raise ValueError(f"{rec['name']}: {name}: holds {values.size} values, "
                                 f"but a {n_in}x{n_out} layer needs {needed}")
            buffer[offset : offset + needed] = values
            offset += needed
    return buffer


# JSON parameter format version -> reader of the buffer: version 2 stores
# it as one `unpack_array` record.
_PARAMS_READERS = {1: _read_params_v1,
                   2: lambda payload, layout, size: unpack_array(payload.get("buffer"), (size,))}


def unpack_array(record, shape=None):
    """The float64 array of a version 2 packed array record, `{dtype,
    shape, data}` with data the base64 of its little-endian float64
    bytes, decoded in slices into the one new writable array it returns,
    which the caller owns. shape, when given, is the one the caller
    expects. The record is checked before any decode, so a dtype, shape or
    data that does not hold up is a ValueError naming what is wrong; so is
    a slice the decoder rejects."""
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


def write_checkpoint(path, header, arrays):
    """Write a version 3 checkpoint: MAGIC, the header's length as 8
    little-endian bytes, then header, a dict of JSON fields with
    `format`, as a JSON object to which `version` and `arrays` are added,
    padded with spaces to a multiple of 8 bytes. Then each of the named
    float64 arrays, in order and back to back, as its raw little-endian
    bytes, written from its own memory. `arrays` maps each name to
    `{dtype, shape, offset}`, offset counting from the end of the header,
    so every array starts at a multiple of 8 bytes."""
    arrays = {name: np.ascontiguousarray(a, dtype=ARRAY_DTYPE) for name, a in arrays.items()}
    records, end = {}, 0
    for name, a in arrays.items():
        records[name] = {"dtype": ARRAY_DTYPE, "shape": list(a.shape), "offset": end}
        end += a.nbytes
    text = json.dumps({**header, "version": CHECKPOINT_VERSION, "arrays": records},
                      sort_keys=True).encode()
    text += b" " * (-len(text) % 8)
    with open(path, "wb") as fh:
        fh.write(MAGIC + len(text).to_bytes(8, "little") + text)
        for a in arrays.values():
            fh.write(_bytes_of(a))


def read_checkpoint(path, fmt):
    """(header, arrays) of the checkpoint at path, read by the version its
    first bytes show. A file that starts with MAGIC is version 3: its
    header must be a JSON object of format fmt, and each of its arrays is
    read straight into the new array that holds it. A file that starts
    with `{` is JSON, version 1 or 2, and gives (payload, None): its
    arrays are in the payload. Anything else, or a version 3 file that
    does not hold up, is a ValueError that starts with the path; a fault
    of a version 3 file names the field. The file is closed on every
    path."""
    with open(path, "rb") as fh:
        lead = fh.read(len(MAGIC))
        if lead == MAGIC:
            try:
                return _read_v3(fh, fmt)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
    if lead.startswith(b"{"):
        return read_json(path), None
    raise ValueError(f"{path}: not a fairclust checkpoint")


def _read_v3(fh, fmt):
    """read_checkpoint of a version 3 file, positioned after MAGIC. Every
    record is checked against the file's size before any array is made."""
    size = os.fstat(fh.fileno()).st_size
    length = int.from_bytes(fh.read(8), "little")
    start = len(MAGIC) + 8 + length
    if start > size:
        raise ValueError(f"header length {length} runs past the end of the file "
                         f"({size} bytes)")
    try:
        header = json.loads(fh.read(length).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"header: not UTF-8: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"header: not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"header: must be a JSON object, got {type(header).__name__}")
    if header.get("format") != fmt:
        raise ValueError(f"format: expected {fmt!r}, got {header.get('format')!r}")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"version: expected {CHECKPOINT_VERSION} after the magic, "
                         f"got {header.get('version')!r}")
    require_fields(header, ("arrays",))
    if not isinstance(header["arrays"], dict):
        raise ValueError(f"arrays: must be an object, got {header['arrays']!r}")
    spans = []
    for name, rec in header["arrays"].items():
        where = f"arrays: {name}: "
        if not isinstance(rec, dict):
            raise ValueError(f"{where}must be an object, got {rec!r}")
        require_fields(rec, ("dtype", "shape", "offset"), where)
        shape, offset = rec["shape"], rec["offset"]
        if rec["dtype"] != ARRAY_DTYPE:
            raise ValueError(f"{where}dtype: must be {ARRAY_DTYPE!r}, got {rec['dtype']!r}")
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ValueError(f"{where}shape: must list non-negative ints, got {shape!r}")
        if type(offset) is not int:
            raise ValueError(f"{where}offset: must be an int, got {offset!r}")
        if offset < 0:
            raise ValueError(f"{where}offset: {offset} overlaps the header")
        if (start + offset) % 8:
            raise ValueError(f"{where}offset: file byte {start + offset} is not a multiple of 8")
        end = offset + 8 * math.prod(shape)
        if start + end > size:
            raise ValueError(f"{where}runs past the end of the file: it ends at byte "
                             f"{start + end}, the file has {size}")
        spans.append((offset, end, name))
    spans.sort()
    for (_, prev_end, prev), (offset, _, name) in zip(spans, spans[1:]):
        if offset < prev_end:
            raise ValueError(f"arrays: {name}: offset {offset} overlaps {prev}")
    last = start + (spans[-1][1] if spans else 0)
    if last != size:
        raise ValueError(f"the file has {size - last} bytes after the last array")
    arrays = {}
    for offset, end, name in spans:
        a = arrays[name] = np.empty(header["arrays"][name]["shape"], dtype=ARRAY_DTYPE)
        fh.seek(start + offset)
        got = fh.readinto(_bytes_of(a))
        if got != end - offset:
            raise ValueError(f"arrays: {name}: read {got} of {end - offset} bytes")
    return header, arrays


def _bytes_of(a):
    """The bytes of the contiguous array a, as a view (empty arrays too)."""
    return memoryview(a.reshape(-1).view(np.uint8))


def save_params(params, path):
    """Write params as a version 3 parameter checkpoint, `format`
    fairclust-params: its layer records and its buffer."""
    write_checkpoint(path, *params.to_payload())


def load_params(path):
    """Read a parameter checkpoint of version 1, 2 or 3; one that does not
    hold up is a ValueError naming the path."""
    payload, arrays = read_checkpoint(path, PARAMS_FORMAT)
    try:
        return ParamSet.from_payload(payload, arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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


def read_json(path):
    """The parsed JSON file at path; bytes that are not UTF-8, or text that
    does not parse, are a ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None
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
    return residual_squared_error(pred - target)


def residual_squared_error(residual):
    """`squared_error` of the residual pred - target, which the caller owns
    and gives up: it is squared in place, so the pass makes no array of
    its size."""
    np.square(residual, out=residual)
    return float(np.mean(np.sum(residual, axis=1)))


def squared_error_grad(pred, target):
    return 2.0 * (pred - target) / len(pred)
