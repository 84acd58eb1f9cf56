"""Checkpoint files: the version 3 container that every save writes, and
one reader that gives every version in version 3's shape.

Version 3 (`write_checkpoint`, `read_checkpoint`) is an 8-byte magic, the
header's length, a JSON header that gives each float64 array's shape and
offset, then the arrays' raw little-endian bytes, which a load reads
straight into the arrays it returns: a round trip is exact, and a load
makes no text or bytes copy of the values. The JSON files of version 1
(number lists) and version 2 (base64 `unpack_array` records) are checked
here and returned as version 3's (header, arrays), so `ParamSet.from_payload`
and `model.load_model` read one shape, and only this module knows them.
"""

from __future__ import annotations

import base64
import json
import math
import os
from pathlib import Path

import numpy as np

from .nn import PARAMS_FORMAT, ParamSet, layer_layout, require_fields

MODEL_FORMAT = "fairclust-model"
ARRAY_DTYPE = "<f8"
# The first bytes of a version 3 checkpoint: no text file starts with 0x89.
MAGIC = b"\x89FCLUST\n"
CHECKPOINT_VERSION = 3

# Base64 characters per slice of `unpack_array`, the version 2 reader, a
# multiple of 4. A slice in flight holds 2.75 times this: its text, its
# ASCII bytes and its bytes.
DECODE_CHARS = 1 << 18


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
    """(header, arrays) of the checkpoint of format fmt at path, in version
    3's shape whatever its version, which its first bytes show: MAGIC
    starts version 3, whose arrays are read straight into new arrays, and
    `{` a JSON file of version 1 or 2, which fmt's `_JSON_READERS` entry
    checks and converts. Anything else, or a file that does not hold up,
    is a ValueError that starts with the path and names the field. The
    file is closed on every path."""
    with open(path, "rb") as fh:
        lead = fh.read(len(MAGIC))
        if lead == MAGIC:
            try:
                return _read_v3(fh, fmt)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
    if not lead.startswith(b"{"):
        raise ValueError(f"{path}: not a fairclust checkpoint")
    payload = read_json(path)
    try:
        return _JSON_READERS[fmt](payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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


def _params_from_json(payload):
    """Version 3's (header, arrays) of a JSON parameter payload: the layer
    records that `layer_layout` accepts, and `buffer`, which version 1
    holds as each layer's weight and bias in flat JSON number lists and
    version 2 as one `unpack_array` record."""
    if not isinstance(payload, dict) or payload.get("format") != PARAMS_FORMAT:
        raise ValueError("not a fairclust parameter checkpoint")
    version = payload.get("version")
    if version not in (1, 2):
        raise ValueError(f"unsupported checkpoint version {version}")
    require_fields(payload, ("layers",))
    layout, size = layer_layout(payload["layers"])
    if version == 2:
        buffer = unpack_array(payload.get("buffer"), (size,))
    else:
        buffer = np.empty(size)
        for rec, (offset, (n_in, n_out), _) in zip(payload["layers"], layout.values()):
            require_fields(rec, ("weight", "bias"), f"{rec['name']}: ")
            for name, needed in (("weight", n_in * n_out), ("bias", n_out)):
                try:
                    values = np.asarray(rec[name], dtype=float)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{rec['name']}: {name}: {exc}") from None
                if values.shape != (needed,):
                    raise ValueError(f"{rec['name']}: {name}: holds {values.size} values, "
                                     f"but a {n_in}x{n_out} layer needs {needed}")
                buffer[offset : offset + needed] = values
                offset += needed
    records = [{"name": name, "activation": activation, "shape": list(shape)}
               for name, (_, shape, activation) in layout.items()]
    return {"format": PARAMS_FORMAT, "layers": records}, {"buffer": buffer}


def _model_from_json(payload):
    """Version 3's (header, arrays) of a JSON model payload: its network,
    a JSON parameter payload, read by `_params_from_json`, its `config`
    and `history`, and the `centroids` and `fairoids`, which version 1
    holds as nested JSON number lists and version 2 as `unpack_array`
    records."""
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError("not a fairclust model checkpoint")
    version = payload.get("version")
    if version not in (1, 2):
        raise ValueError(f"unsupported model version {version}")
    require_fields(payload, ("config", "network", "centroids", "fairoids", "history"))
    try:
        header, arrays = _params_from_json(payload["network"])
    except ValueError as exc:
        raise ValueError(f"network: {exc}") from None
    read = unpack_array if version == 2 else (lambda rows: np.asarray(rows, dtype=float))
    for name in ("centroids", "fairoids"):
        try:
            arrays[name] = read(payload[name])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None
    return {**header, "format": MODEL_FORMAT, "config": payload["config"],
            "history": payload["history"]}, arrays


_JSON_READERS = {PARAMS_FORMAT: _params_from_json, MODEL_FORMAT: _model_from_json}


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


def read_json(path):
    """The parsed JSON file at path; bytes that are not UTF-8, or text that
    does not parse, are a ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def save_params(params, path):
    """Write params as a version 3 parameter checkpoint, `format`
    fairclust-params: its layer records and its buffer."""
    write_checkpoint(path, *params.to_payload())


def load_params(path):
    """Read a parameter checkpoint of version 1, 2 or 3; one that does not
    hold up is a ValueError naming the path."""
    header, arrays = read_checkpoint(path, PARAMS_FORMAT)
    try:
        return ParamSet.from_payload(header, arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
