"""Checkpoint format: version 3 is a JSON header followed by the raw
float64 arrays; JSON files of version 2 (base64 float64 bytes) and version
1 (JSON number lists) are still read."""

import base64
import dataclasses
import json
import math
import os
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairclust import ckpt, cli, model
from fairclust.ckpt import (
    MAGIC,
    PARAMS_FORMAT,
    load_params,
    read_checkpoint,
    save_params,
    unpack_array,
    write_checkpoint,
)
from fairclust.model import MODEL_FORMAT
from fairclust.nn import AffineLayer, ParamSet

# Written by the last code that wrote version 1: a 4-6-2 autoencoder
# pretrained on data.csv, a K=2 model trained from it, and the report that
# `fairclust eval` printed for that model and file.
V1 = Path(__file__).parent / "data" / "v1"
# Written by the last code that wrote version 2, from V1's data.csv: a
# 4-6-2 autoencoder, a K=2 model trained from it with gamma 1 and
# reconstruction weight 0.5, and the report that `fairclust eval` printed.
V2 = Path(__file__).parent / "data" / "v2"

# -0.0, the smallest subnormal, the largest subnormal, the smallest normal
# and the largest finite magnitudes: the values a decimal round trip
# would most easily get wrong.
EDGE_VALUES = [-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7e308, -1.7e308, 1.7976931348623157e308]
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES)


def bit_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def owns_writable(array):
    return array.flags.owndata and array.flags.writeable


def pack(array):
    """A version 2 packed array record, as the version 2 writer made it."""
    array = np.ascontiguousarray(array, dtype="<f8")
    return {"dtype": "<f8", "shape": list(array.shape),
            "data": base64.b64encode(array.tobytes()).decode("ascii")}


def v2_params(params):
    """The version 2 payload of a ParamSet of layers."""
    header, arrays = params.to_payload()
    return {**header, "version": 2, "buffer": pack(arrays["buffer"])}


def v2_model(trained):
    """The version 2 payload of a TrainedModel."""
    return {"format": MODEL_FORMAT, "version": 2, "network": v2_params(trained.params),
            "centroids": pack(trained.centroids), "fairoids": pack(trained.fairoids),
            "config": dataclasses.asdict(trained.config), "history": trained.history}


def rewrite(src, dest, fmt, **fields):
    """Copy the version 3 checkpoint src to dest with fields replaced: an
    array replaces the array of that name, anything else the header field,
    and None drops the array or field."""
    header, arrays = read_checkpoint(src, fmt)
    header = {k: v for k, v in header.items() if k not in ("version", "arrays")}
    for name, value in fields.items():
        target = arrays if isinstance(value, np.ndarray) or name in arrays else header
        target[name] = value
        if value is None:
            del target[name]
    write_checkpoint(dest, header, arrays)
    return dest


class TestVersion1Files:
    def test_fixtures_are_version_1(self):
        assert json.loads((V1 / "ae.json").read_text())["version"] == 1
        saved = json.loads((V1 / "model.json").read_text())
        assert saved["version"] == 1 and saved["network"]["version"] == 1

    def test_load_into_owned_writable_buffers(self):
        ae = load_params(V1 / "ae.json")
        trained = model.load_model(V1 / "model.json")
        assert ae.names() == ["enc0", "enc1", "dec0", "dec1"]
        assert ae["enc0"].weight.shape == (4, 6) and ae["enc1"].activation == "identity"
        assert owns_writable(ae.buffer) and owns_writable(trained.params.buffer)
        saved = json.loads((V1 / "model.json").read_text())
        np.testing.assert_array_equal(trained.centroids, saved["centroids"])
        np.testing.assert_array_equal(trained.fairoids, saved["fairoids"])
        np.testing.assert_array_equal(trained.params["enc0"].weight.ravel(),
                                      saved["network"]["layers"][0]["weight"])

    def test_eval_report_is_byte_identical(self, tmp_path, capsys):
        code = cli.main(["eval", "--model", str(V1 / "model.json"),
                         "--data", str(V1 / "data.csv"), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report.json").read_bytes() == (V1 / "report.json").read_bytes()
        assert capsys.readouterr().out == (V1 / "report.json").read_text()

    def test_resaving_writes_version_3_with_the_same_bits(self, tmp_path):
        # the fixture holds the decoder of its day; a re-save drops it
        trained = model.load_model(V1 / "model.json")
        assert trained.params.names() == ["enc0", "enc1", "dec0", "dec1"]
        model.save_model(trained, tmp_path / "model.ckpt")
        assert (tmp_path / "model.ckpt").read_bytes().startswith(MAGIC)
        assert read_checkpoint(tmp_path / "model.ckpt", MODEL_FORMAT)[0]["version"] == 3
        again = model.load_model(tmp_path / "model.ckpt")
        assert again.params.names() == ["enc0", "enc1"]
        assert bit_equal(again.params.buffer, trained.params.buffer[: again.params.n_params])
        assert bit_equal(again.centroids, trained.centroids)
        assert bit_equal(again.fairoids, trained.fairoids)
        assert again.config == trained.config and again.history == trained.history

    def test_train_from_a_version_1_autoencoder(self, tmp_path):
        code = cli.main(["train", "--data", str(V1 / "data.csv"), "--pretrain",
                         str(V1 / "ae.json"), "--k", "2", "--max-epochs", "2",
                         "--batch", "16", "--recon-weight", "0.5", "--out", str(tmp_path)])
        assert code == 0
        trained = model.load_model(tmp_path / "seed_0" / "model.ckpt")
        assert trained.params.names() == ["enc0", "enc1"]
        assert load_params(V1 / "ae.json").names() == ["enc0", "enc1", "dec0", "dec1"]


def unpacked(record):
    """The array of a version 2 packed record, decoded here, not by the
    loader."""
    return np.frombuffer(base64.b64decode(record["data"]), dtype="<f8").reshape(
        record["shape"])


class TestVersion2Files:
    def test_fixtures_are_version_2(self):
        assert json.loads((V2 / "ae.json").read_text())["version"] == 2
        saved = json.loads((V2 / "model.json").read_text())
        assert saved["version"] == 2 and saved["network"]["version"] == 2

    def test_both_files_load_bit_exact(self):
        ae = load_params(V2 / "ae.json")
        saved_ae = json.loads((V2 / "ae.json").read_text())
        assert ae.names() == ["enc0", "enc1", "dec0", "dec1"]
        assert bit_equal(ae.buffer, unpacked(saved_ae["buffer"]))
        trained = model.load_model(V2 / "model.json")
        saved = json.loads((V2 / "model.json").read_text())
        assert bit_equal(trained.params.buffer, unpacked(saved["network"]["buffer"]))
        assert bit_equal(trained.centroids, unpacked(saved["centroids"]))
        assert bit_equal(trained.fairoids, unpacked(saved["fairoids"]))
        assert dataclasses.asdict(trained.config) == {
            name: value for name, value in saved["config"].items()
            if name not in model.RETIRED_CONFIG_FIELDS}
        assert trained.history == saved["history"]
        assert owns_writable(ae.buffer) and owns_writable(trained.params.buffer)

    def test_eval_report_is_byte_identical(self, tmp_path, capsys):
        code = cli.main(["eval", "--model", str(V2 / "model.json"),
                         "--data", str(V1 / "data.csv"), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report.json").read_bytes() == (V2 / "report.json").read_bytes()
        assert capsys.readouterr().out == (V2 / "report.json").read_text()

    def test_train_from_a_version_2_autoencoder(self, tmp_path):
        code = cli.main(["train", "--data", str(V1 / "data.csv"), "--pretrain",
                         str(V2 / "ae.json"), "--k", "2", "--max-epochs", "2",
                         "--batch", "16", "--recon-weight", "0.5", "--out", str(tmp_path)])
        assert code == 0
        trained = model.load_model(tmp_path / "seed_0" / "model.ckpt")
        assert trained.params.names() == ["enc0", "enc1"]
        assert load_params(V2 / "ae.json").names() == ["enc0", "enc1", "dec0", "dec1"]


class TestOneShape:
    # read_checkpoint gives a JSON file in version 3's shape: the same
    # header fields and arrays as the same checkpoint saved as version 3
    @pytest.mark.parametrize("fixture", [V1, V2], ids=["version_1", "version_2"])
    def test_params_read_as_version_3(self, tmp_path, fixture):
        save_params(load_params(fixture / "ae.json"), tmp_path / "ae.ckpt")
        old_header, old_arrays = read_checkpoint(fixture / "ae.json", PARAMS_FORMAT)
        header, arrays = read_checkpoint(tmp_path / "ae.ckpt", PARAMS_FORMAT)
        assert old_header["format"] == PARAMS_FORMAT
        assert old_header["layers"] == header["layers"]
        assert old_arrays.keys() == arrays.keys() == {"buffer"}
        assert bit_equal(old_arrays["buffer"], arrays["buffer"])

    @pytest.mark.parametrize("fixture", [V1, V2], ids=["version_1", "version_2"])
    def test_model_reads_as_version_3(self, tmp_path, fixture):
        # saved with every layer it holds, decoder included, as the
        # fixture holds them
        trained = model.load_model(fixture / "model.json")
        layers, buffer = trained.params.to_payload()
        saved = json.loads((fixture / "model.json").read_text())
        write_checkpoint(tmp_path / "model.ckpt",
                         {**layers, "format": MODEL_FORMAT, "config": saved["config"],
                          "history": saved["history"]},
                         {**buffer, "centroids": trained.centroids,
                          "fairoids": trained.fairoids})
        old_header, old_arrays = read_checkpoint(fixture / "model.json", MODEL_FORMAT)
        header, arrays = read_checkpoint(tmp_path / "model.ckpt", MODEL_FORMAT)
        assert old_header["format"] == MODEL_FORMAT
        assert [rec["name"] for rec in old_header["layers"]] == ["enc0", "enc1", "dec0", "dec1"]
        assert old_header["layers"] == header["layers"]
        assert old_header["config"] == header["config"] == saved["config"]
        assert old_header["history"] == header["history"] == saved["history"]
        assert old_arrays.keys() == arrays.keys() == {"buffer", "centroids", "fairoids"}
        for name, a in arrays.items():
            assert bit_equal(old_arrays[name], a), name


def assert_same_model(old, new):
    assert bit_equal(old.params.buffer, new.params.buffer)
    assert bit_equal(old.centroids, new.centroids)
    assert bit_equal(old.fairoids, new.fairoids)
    assert old.config == new.config and old.history == new.history


def eval_report(model_path, out):
    assert cli.main(["eval", "--model", str(model_path), "--data", str(V1 / "data.csv"),
                     "--out", str(out)]) == 0
    return (out / "report.json").read_bytes()


class TestRetiredConfigFields:
    # every checkpoint written while these were training settings records
    # them: the version 1 fixture all four, the version 2 fixture all but
    # clip_norm; a load drops them, whatever their value
    def test_fixtures_hold_every_retired_field(self):
        v1, v2 = (json.loads((d / "model.json").read_text())["config"] for d in (V1, V2))
        assert set(model.RETIRED_CONFIG_FIELDS) <= set(v1)
        assert set(model.RETIRED_CONFIG_FIELDS) - set(v2) == {"clip_norm"}

    @pytest.mark.parametrize("field", model.RETIRED_CONFIG_FIELDS)
    @pytest.mark.parametrize("value", [5.0, 0.0, "any value"])
    def test_stored_field_is_dropped_in_version_3(self, tmp_path, field, value):
        model.save_model(model.load_model(V1 / "model.json"), tmp_path / "model.ckpt")
        header, _ = read_checkpoint(tmp_path / "model.ckpt", MODEL_FORMAT)
        assert field not in header["config"]
        rewrite(tmp_path / "model.ckpt", tmp_path / "old.ckpt", MODEL_FORMAT,
                config={**header["config"], field: value})
        assert_same_model(*(model.load_model(tmp_path / name)
                            for name in ("old.ckpt", "model.ckpt")))
        assert (eval_report(tmp_path / "old.ckpt", tmp_path / "old")
                == eval_report(tmp_path / "model.ckpt", tmp_path / "model"))

    @pytest.mark.parametrize("fixture", [V1, V2], ids=["version_1", "version_2"])
    @pytest.mark.parametrize("field", model.RETIRED_CONFIG_FIELDS)
    @pytest.mark.parametrize("value", [0.0, "any value", None])
    def test_stored_field_is_dropped_in_json_versions(self, tmp_path, fixture, field, value):
        # None: the field is left out
        saved = json.loads((fixture / "model.json").read_text())
        config = {**saved["config"], field: value}
        if value is None:
            del config[field]
        (tmp_path / "old.json").write_text(json.dumps({**saved, "config": config}))
        assert_same_model(model.load_model(tmp_path / "old.json"),
                          model.load_model(fixture / "model.json"))
        assert (eval_report(tmp_path / "old.json", tmp_path / "old")
                == (fixture / "report.json").read_bytes())


def packed_json(array):
    return json.loads(json.dumps(pack(array)))


@st.composite
def layer_sets(draw):
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    entries = []
    for i in range(len(widths) - 1):
        n_in, n_out = widths[i], widths[i + 1]
        values = draw(st.lists(floats, min_size=n_in * n_out + n_out,
                               max_size=n_in * n_out + n_out))
        entries.append((f"enc{i}", AffineLayer(np.reshape(values[: n_in * n_out], (n_in, n_out)),
                                               values[n_in * n_out:],
                                               draw(st.sampled_from(["identity", "relu"])))))
    return ParamSet(entries)


class TestVersion2RoundTrip:
    @given(st.lists(floats, max_size=24), st.integers(1, 4),
           st.sampled_from([4, 8, 12, ckpt.DECODE_CHARS]))
    def test_packed_array_round_trip_is_bit_exact(self, values, cols, slice_chars):
        array = np.array(values[: len(values) // cols * cols], dtype=float).reshape(-1, cols)
        with mock.patch.object(ckpt, "DECODE_CHARS", slice_chars):
            back = unpack_array(packed_json(array))
        assert bit_equal(back, array) and owns_writable(back)

    def test_decode_holds_one_slice_beside_the_array(self):
        # 1M values: 8 MB of array, 10.7 MB of base64 text
        record = packed_json(np.random.default_rng(0).standard_normal(1_000_000))
        tracemalloc.start()
        try:
            back = unpack_array(record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000 + ckpt.DECODE_CHARS + 1_000_000
        assert owns_writable(back) and back.tobytes() == base64.b64decode(record["data"])

    def test_edge_values_survive(self):
        array = np.array(EDGE_VALUES)
        back = unpack_array(packed_json(array))
        assert bit_equal(back, array)
        assert np.signbit(back[0]) and back[1] == 5e-324 and back[-1] == 1.7976931348623157e308


class TestVersion2Errors:
    def record(self):
        return packed_json(np.arange(6.0).reshape(2, 3))  # 48 bytes, 64 base64 chars

    def test_truncated_data(self):
        rec = self.record()
        rec["data"] = rec["data"][:-12]
        with pytest.raises(ValueError, match=r"holds 39 bytes; shape \[2, 3\] needs 48"):
            unpack_array(rec)

    def test_over_long_data(self):
        rec = self.record()
        rec["data"] += "AAAAAAAAAAA="
        with pytest.raises(ValueError, match=r"holds 56 bytes; shape \[2, 3\] needs 48"):
            unpack_array(rec)

    @pytest.mark.parametrize("data", ["not base64!", "AAA", "ÄÄÄÄ", None])
    def test_data_that_is_not_base64(self, data):
        rec = self.record()
        rec["data"] = data
        with pytest.raises(ValueError, match="array data is not base64"):
            unpack_array(rec)

    @pytest.mark.parametrize("data", [
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",  # 3 values
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
        "AA==AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",  # padding early
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA=",
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA!AAAAAAAAAAAAAAAAAAAAAAAA",
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAÄÄ",
        b"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", 7,
    ])
    def test_slices_change_no_outcome(self, data):
        # the default slice is the reference: slices of 4 or 8 characters
        # accept what it accepts and fail with its message
        def outcome():
            try:
                return unpack_array({**self.record(), "data": data}).tobytes()
            except ValueError as exc:
                return str(exc)

        whole = outcome()
        for slice_chars in (4, 8):
            with mock.patch.object(ckpt, "DECODE_CHARS", slice_chars):
                assert outcome() == whole

    def test_wrong_dtype_and_shape(self):
        rec = self.record()
        with pytest.raises(ValueError, match=r"shape \[2, 3\] does not match the expected \[6\]"):
            unpack_array(rec, (6,))
        with pytest.raises(ValueError, match="non-negative integers"):
            unpack_array({**rec, "shape": [2, -3]})
        with pytest.raises(ValueError, match="unsupported array dtype '<f4'"):
            unpack_array({**rec, "dtype": "<f4"})
        with pytest.raises(ValueError, match="expected a packed array record"):
            unpack_array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])

    def test_unknown_versions(self, tmp_path):
        # version 3 is never JSON
        params = ParamSet({"enc0": AffineLayer(np.eye(2), np.zeros(2))})
        payload = v2_params(params)
        (tmp_path / "ae.json").write_text(json.dumps({**payload, "version": 3}))
        with pytest.raises(ValueError, match="unsupported checkpoint version 3"):
            load_params(tmp_path / "ae.json")
        trained = model.TrainedModel(params=params, centroids=np.eye(2), fairoids=np.eye(2),
                                     config=model.TrainConfig(K=2))
        saved = v2_model(trained)
        (tmp_path / "model.json").write_text(json.dumps({**saved, "version": 3}))
        with pytest.raises(ValueError, match="unsupported model version 3"):
            model.load_model(tmp_path / "model.json")

    def test_buffer_of_the_wrong_length_for_the_layers(self, tmp_path):
        payload = v2_params(ParamSet({"enc0": AffineLayer(np.eye(2), np.zeros(2))}))
        payload["buffer"] = pack(np.zeros(5))
        (tmp_path / "ae.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"shape \[5\] does not match the expected \[6\]"):
            load_params(tmp_path / "ae.json")


def starts_with_path(path, rest):
    return "^" + re.escape(f"{path}: ") + rest


class TestUnreadableFiles:
    @pytest.mark.parametrize("name, load", [("ae.json", load_params),
                                            ("model.json", model.load_model)])
    def test_truncated_json_names_the_file(self, tmp_path, name, load):
        text = (V1 / name).read_text()
        path = tmp_path / name
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match=starts_with_path(path, "not valid JSON: ")):
            load(path)

    def test_json_that_is_not_an_object(self, tmp_path):
        # only a file that starts with "{" is read as JSON
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match=starts_with_path(
                path, "not a fairclust checkpoint$")):
            model.load_model(path)
        path.write_text('{"format": "fairclust-params"}')
        with pytest.raises(ValueError, match=starts_with_path(
                path, "not a fairclust model checkpoint$")):
            model.load_model(path)
        saved = json.loads((V1 / "model.json").read_text())
        path.write_text(json.dumps({**saved, "network": [1, 2]}))
        with pytest.raises(ValueError, match="not a fairclust parameter checkpoint"):
            model.load_model(path)


class TestMissingAndShortFields:
    @pytest.mark.parametrize("field", ["history", "network", "config", "centroids",
                                       "fairoids"])
    def test_missing_model_field(self, tmp_path, field, capsys):
        saved = json.loads((V1 / "model.json").read_text())
        del saved[field]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(saved))
        with pytest.raises(ValueError, match=starts_with_path(path, f"{field}: missing$")):
            model.load_model(path)
        code = cli.main(["eval", "--model", str(path), "--data", str(V1 / "data.csv"),
                         "--out", str(tmp_path / "eval")])
        assert code != 0
        assert capsys.readouterr().err == f"error: {path}: {field}: missing\n"

    def test_params_without_layers(self, tmp_path):
        saved = json.loads((V1 / "ae.json").read_text())
        del saved["layers"]
        path = tmp_path / "ae.json"
        path.write_text(json.dumps(saved))
        with pytest.raises(ValueError, match=starts_with_path(path, "layers: missing$")):
            load_params(path)

    @pytest.mark.parametrize("value", [5, {"name": "enc0"}, "enc0"])
    def test_params_whose_layers_are_not_a_list(self, tmp_path, capsys, value):
        saved = json.loads((V1 / "ae.json").read_text())
        saved["layers"] = value
        path = tmp_path / "ae.json"
        path.write_text(json.dumps(saved))
        message = f"layers: must be a list, got {value!r}"
        with pytest.raises(ValueError, match=starts_with_path(path, re.escape(message) + "$")):
            load_params(path)
        code = cli.main(["train", "--data", str(V1 / "data.csv"), "--pretrain", str(path),
                         "--k", "2", "--out", str(tmp_path / "t")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_train_from_params_without_encoder_layers(self, tmp_path, capsys):
        saved = json.loads((V1 / "ae.json").read_text())
        saved["layers"] = [rec for rec in saved["layers"] if rec["name"].startswith("dec")]
        path = tmp_path / "ae.json"
        path.write_text(json.dumps(saved))
        assert load_params(path).names() == ["dec0", "dec1"]
        code = cli.main(["train", "--data", str(V1 / "data.csv"), "--pretrain", str(path),
                         "--k", "2", "--out", str(tmp_path / "t")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: no encoder layers\n"

    @pytest.mark.parametrize("field", ["name", "shape", "activation"])
    def test_layer_record_missing_a_field(self, tmp_path, field):
        saved = json.loads((V1 / "model.json").read_text())
        del saved["network"]["layers"][1][field]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(saved))
        with pytest.raises(ValueError, match=starts_with_path(
                path, f"network: layers\\[1\\]: {field}: missing$")):
            model.load_model(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize("i, field, value, message", [
        (0, "shape", 5, "shape: must be two positive ints, got 5"),
        (0, "shape", [4, "6"], "shape: must be two positive ints, got [4, '6']"),
        (0, "shape", [4.0, 6], "shape: must be two positive ints, got [4.0, 6]"),
        (0, "shape", [-4, 6], "shape: must be two positive ints, got [-4, 6]"),
        (0, "shape", [True, 6], "shape: must be two positive ints, got [True, 6]"),
        (0, "shape", [4, 6, 1], "shape: must be two positive ints, got [4, 6, 1]"),
        (0, "name", 7, "name: must be a string, got 7"),
        (1, "name", "enc0", "name: 'enc0' is used by an earlier record"),
        (1, "activation", "tanh", "activation: unknown activation 'tanh'"),
    ])
    def test_bad_layer_record(self, tmp_path, version, i, field, value, message):
        path = tmp_path / "ae.json"
        if version == 3:
            save_params(load_params(V1 / "ae.json"), tmp_path / "v3.ckpt")
            layers = read_checkpoint(tmp_path / "v3.ckpt", PARAMS_FORMAT)[0]["layers"]
            layers[i][field] = value
            rewrite(tmp_path / "v3.ckpt", path, PARAMS_FORMAT, layers=layers)
        else:
            saved = (json.loads((V1 / "ae.json").read_text()) if version == 1
                     else v2_params(load_params(V1 / "ae.json")))
            saved["layers"][i][field] = value
            path.write_text(json.dumps(saved))
        with pytest.raises(ValueError, match=starts_with_path(
                path, re.escape(f"layers[{i}]: {message}") + "$")):
            load_params(path)

    def test_layer_record_that_is_not_an_object(self, tmp_path):
        saved = json.loads((V1 / "ae.json").read_text())
        saved["layers"][2] = 5
        path = tmp_path / "ae.json"
        path.write_text(json.dumps(saved))
        with pytest.raises(ValueError, match=starts_with_path(
                path, re.escape("layers[2]: must be an object, got 5") + "$")):
            load_params(path)

    def test_eval_names_path_and_layer_record(self, tmp_path, capsys):
        saved = json.loads((V1 / "model.json").read_text())
        saved["network"]["layers"][0]["shape"] = 5
        path = tmp_path / "model.json"
        path.write_text(json.dumps(saved))
        code = cli.main(["eval", "--model", str(path), "--data", str(V1 / "data.csv")])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {path}: network: layers[0]: shape: "
                                           "must be two positive ints, got 5\n")

    @pytest.mark.parametrize("field, held, needed", [("weight", 23, 24), ("bias", 7, 6)])
    def test_version_1_layer_of_the_wrong_length(self, tmp_path, field, held, needed):
        # the fixture's enc0 is a 4x6 layer
        saved = json.loads((V1 / "model.json").read_text())
        values = saved["network"]["layers"][0][field]
        saved["network"]["layers"][0][field] = (values + [0.0])[:held]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(saved))
        with pytest.raises(ValueError, match=starts_with_path(
                path, f"network: enc0: {field}: holds {held} values, "
                      f"but a 4x6 layer needs {needed}$")):
            model.load_model(path)


    @pytest.mark.parametrize("value, cause", [("abc", "could not convert string to float"),
                                              ({"a": 1}, "float() argument must be")])
    def test_version_1_layer_values_that_are_not_numbers(self, tmp_path, value, cause):
        saved = json.loads((V1 / "ae.json").read_text())
        saved["layers"][0]["weight"] = value
        path = tmp_path / "ae.json"
        path.write_text(json.dumps(saved))
        with pytest.raises(ValueError, match=starts_with_path(
                path, "enc0: weight: " + re.escape(cause))):
            load_params(path)

def model_file(tmp_path, version, **fields):
    """The version 1 fixture model, as the given version, with fields
    replaced; an array is stored as that version stores it, and a network,
    given as a ParamSet, as version 2 (in a JSON file) or 3 stores it."""
    trained = model.load_model(V1 / "model.json")
    path = tmp_path / "model.json"
    if version == 3:
        model.save_model(trained, tmp_path / "v3.ckpt")
        if "network" in fields:
            header, arrays = fields.pop("network").to_payload()
            fields.update(layers=header["layers"], buffer=arrays["buffer"])
        return rewrite(tmp_path / "v3.ckpt", path, MODEL_FORMAT, **fields)
    saved = json.loads((V1 / "model.json").read_text()) if version == 1 else v2_model(trained)
    for name, value in fields.items():
        if isinstance(value, ParamSet):
            value = v2_params(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist() if version == 1 else pack(value)
        saved[name] = value
    path.write_text(json.dumps(saved))
    return path


@pytest.mark.parametrize("version", [1, 2, 3])
class TestModelFields:
    # the fixture: a 4-6-2 encoder, K=2, T=2

    def test_centroids_wider_than_the_encoder(self, tmp_path, version):
        path = model_file(tmp_path, version, centroids=np.zeros((2, 5)))
        with pytest.raises(ValueError, match=starts_with_path(
                path, "centroids: 5 wide, but the last encoder layer has n_out 2")):
            model.load_model(path)

    def test_non_finite_centroids(self, tmp_path, version):
        path = model_file(tmp_path, version, centroids=np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match=starts_with_path(
                path, "centroids: must be a finite 2-d array")):
            model.load_model(path)

    def test_fairoids_that_are_not_2_d(self, tmp_path, version):
        path = model_file(tmp_path, version, fairoids=np.zeros(2))
        with pytest.raises(ValueError, match=starts_with_path(
                path, "fairoids: must be a finite 2-d array")):
            model.load_model(path)

    def test_fairoids_wider_than_the_encoder(self, tmp_path, version):
        path = model_file(tmp_path, version, fairoids=np.zeros((2, 3)))
        with pytest.raises(ValueError, match=starts_with_path(
                path, "fairoids: 3 wide, but the last encoder layer has n_out 2")):
            model.load_model(path)

    def test_centroid_rows_other_than_k(self, tmp_path, version):
        path = model_file(tmp_path, version, centroids=np.zeros((3, 2)))
        with pytest.raises(ValueError, match=starts_with_path(
                path, "centroids: 3 rows, but config K is 2")):
            model.load_model(path)

    def test_network_without_encoder_layers(self, tmp_path, version):
        decoder = ParamSet({"dec0": AffineLayer(np.eye(2), np.zeros(2))})
        path = model_file(tmp_path, version, network=decoder)
        with pytest.raises(ValueError, match=starts_with_path(path, "network: no encoder layers")):
            model.load_model(path)

    def test_unknown_config_key(self, tmp_path, version):
        config = json.loads((V1 / "model.json").read_text())["config"]
        path = model_file(tmp_path, version, config={**config, "bogus": 1})
        with pytest.raises(ValueError, match=starts_with_path(
                path, "config: .*unexpected keyword argument 'bogus'")):
            model.load_model(path)

    def test_eval_refuses_non_finite_centroids(self, tmp_path, version, capsys):
        path = model_file(tmp_path, version, centroids=np.full((2, 2), np.nan))
        code = cli.main(["eval", "--model", str(path), "--data", str(V1 / "data.csv"),
                         "--out", str(tmp_path / "eval")])
        assert code != 0
        assert capsys.readouterr().err.startswith(f"error: {path}: centroids: ")
        assert not (tmp_path / "eval" / "report.json").exists()


@pytest.mark.parametrize("rows", [0, 1])
def test_version_3_fairoids_with_fewer_than_2_rows(tmp_path, rows, capsys):
    # the fixture's encoder is 4-6-2, so the rows are as wide as they must be
    path = model_file(tmp_path, 3, fairoids=np.zeros((rows, 2)))
    with pytest.raises(ValueError, match=starts_with_path(
            path, f"fairoids: {rows} rows, but a model has at least 2 protected states$")):
        model.load_model(path)
    code = cli.main(["eval", "--model", str(path), "--data", str(V1 / "data.csv"),
                     "--out", str(tmp_path / "eval")])
    assert code != 0
    assert capsys.readouterr().err.startswith(f"error: {path}: fairoids: ")
    assert not (tmp_path / "eval").exists()


def raw_file(path, header, body=b"", length=None):
    """A file of MAGIC, a header length (the header's own unless given),
    the header (JSON of a dict, or bytes as given) padded with spaces to a
    multiple of 8 bytes, then body."""
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    text += b" " * (-len(text) % 8)
    length = len(text) if length is None else length
    path.write_bytes(MAGIC + length.to_bytes(8, "little") + text + body)
    return path


def v3_ae(tmp_path):
    """The version 1 fixture autoencoder saved as version 3: (path, header,
    buffer)."""
    path = tmp_path / "v3.ckpt"
    save_params(load_params(V1 / "ae.json"), path)
    header, arrays = read_checkpoint(path, PARAMS_FORMAT)
    return path, header, arrays["buffer"]


configs = st.builds(model.TrainConfig, K=st.integers(2, 50),
                    gamma=st.floats(0, 1e300) | st.sampled_from([0.0, 5e-324, 1.7e308]),
                    lr=st.floats(5e-324, 1.7e308), seed=st.integers(0, 2**63))
histories = st.lists(st.fixed_dictionaries({"epoch": st.integers(0, 10**6),
                                            "L": floats | st.none(), "acc": floats}),
                     max_size=4)


class TestVersion3RoundTrip:
    def test_header_then_aligned_raw_buffer(self, tmp_path):
        params = load_params(V1 / "ae.json")
        save_params(params, tmp_path / "ae.ckpt")
        raw = (tmp_path / "ae.ckpt").read_bytes()
        length = int.from_bytes(raw[8:16], "little")
        assert raw[:8] == MAGIC and length % 8 == 0
        assert json.loads(raw[16 : 16 + length]) == {
            "format": PARAMS_FORMAT, "version": 3,
            "layers": [{"name": name, "activation": layer.activation,
                        "shape": [layer.n_in, layer.n_out]} for name, layer in params.items()],
            "arrays": {"buffer": {"dtype": "<f8", "shape": [params.n_params], "offset": 0}}}
        assert raw[16 + length :] == params.buffer.astype("<f8").tobytes()

    def test_model_arrays_lie_back_to_back_to_the_end(self, tmp_path):
        # the buffer holds the 4-6-2 encoder's 44 values, not the decoder's
        trained = model.load_model(V2 / "model.json")
        model.save_model(trained, tmp_path / "model.ckpt")
        header, _ = read_checkpoint(tmp_path / "model.ckpt", MODEL_FORMAT)
        n, k, t = 44, trained.centroids.size, trained.fairoids.size
        assert [rec["name"] for rec in header["layers"]] == ["enc0", "enc1"]
        assert header["arrays"] == {
            "buffer": {"dtype": "<f8", "shape": [n], "offset": 0},
            "centroids": {"dtype": "<f8", "shape": list(trained.centroids.shape),
                          "offset": 8 * n},
            "fairoids": {"dtype": "<f8", "shape": list(trained.fairoids.shape),
                         "offset": 8 * (n + k)}}
        length = int.from_bytes((tmp_path / "model.ckpt").read_bytes()[8:16], "little")
        assert os.path.getsize(tmp_path / "model.ckpt") == 16 + length + 8 * (n + k + t)

    def test_model_checkpoint_holds_the_encoder_only(self, tmp_path):
        # a model that holds a decoder writes the file of its encoder alone
        trained = model.load_model(V1 / "model.json")
        encoder = ParamSet(trained.params.items()[:2])
        assert encoder.names() == ["enc0", "enc1"]
        model.save_model(trained, tmp_path / "full.ckpt")
        model.save_model(dataclasses.replace(trained, params=encoder), tmp_path / "enc.ckpt")
        assert (tmp_path / "full.ckpt").read_bytes() == (tmp_path / "enc.ckpt").read_bytes()

    def test_encoder_that_does_not_lead_the_set_is_refused(self, tmp_path):
        trained = model.load_model(V1 / "model.json")
        reordered = ParamSet(trained.params.items()[::-1])
        with pytest.raises(ValueError, match=r"^the enc\* entries must lead the parameter set$"):
            model.save_model(dataclasses.replace(trained, params=reordered),
                             tmp_path / "model.ckpt")
        assert not (tmp_path / "model.ckpt").exists()

    @settings(max_examples=30)
    @given(layer_sets())
    def test_params_round_trip_is_bit_exact(self, tmp_path_factory, params):
        path = tmp_path_factory.mktemp("params") / "ae.ckpt"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.names() == params.names()
        assert [l.activation for l in loaded.layers()] == [l.activation for l in params.layers()]
        assert bit_equal(loaded.buffer, params.buffer) and owns_writable(loaded.buffer)

    @settings(max_examples=30)
    @given(layer_sets(), configs, histories, st.data())
    def test_model_checkpoint_round_trip_is_bit_exact(self, tmp_path_factory, params, config,
                                                      history, data):
        d = params.layers()[-1].n_out
        K = config.K
        centroids = np.array(data.draw(st.lists(floats, min_size=K * d, max_size=K * d)))
        fairoids = np.array(data.draw(st.lists(floats, min_size=3 * d, max_size=3 * d)))
        trained = model.TrainedModel(params=params, centroids=centroids.reshape(K, d),
                                     fairoids=fairoids.reshape(3, d), config=config,
                                     history=history)
        path = tmp_path_factory.mktemp("model") / "model.ckpt"
        model.save_model(trained, path)
        loaded = model.load_model(path)
        assert loaded.params.names() == params.names()
        assert [l.activation for l in loaded.params.layers()] == [
            l.activation for l in params.layers()]
        assert bit_equal(loaded.params.buffer, params.buffer)
        assert owns_writable(loaded.params.buffer)
        assert bit_equal(loaded.centroids, trained.centroids)
        assert bit_equal(loaded.fairoids, trained.fairoids)
        assert owns_writable(loaded.centroids) and owns_writable(loaded.fairoids)
        assert loaded.config == trained.config and loaded.history == trained.history
        for name in ("gamma", "lr"):
            assert (math.copysign(1, getattr(loaded.config, name))
                    == math.copysign(1, getattr(config, name)))

    def test_edge_values_survive(self, tmp_path):
        values = np.array(EDGE_VALUES)
        params = ParamSet({"enc0": AffineLayer(values.reshape(4, 2), values[:2])})
        save_params(params, tmp_path / "ae.ckpt")
        back = load_params(tmp_path / "ae.ckpt").buffer
        assert bit_equal(back, params.buffer)
        assert np.signbit(back[0]) and back[1] == 5e-324 and back[7] == 1.7976931348623157e308

    def test_save_and_load_copy_no_array(self, tmp_path):
        # a paper-architecture model, 784-500-500-2000-10 and back: 3.3M
        # values, 26.6 MB of arrays, of which the encoder's 1.7M are saved
        dims = (784, 500, 500, 2000, 10)
        pairs = list(zip(dims, dims[1:]))
        layers = [(f"enc{i}", AffineLayer(np.full((a, b), 0.5), np.zeros(b)))
                  for i, (a, b) in enumerate(pairs)]
        layers += [(f"dec{i}", AffineLayer(np.full((b, a), 0.5), np.zeros(a)))
                   for i, (a, b) in enumerate(reversed(pairs))]
        trained = model.TrainedModel(params=ParamSet(layers), centroids=np.ones((10, 10)),
                                     fairoids=np.ones((4, 10)), config=model.TrainConfig(K=10))
        del layers
        tracemalloc.start()
        try:
            model.save_model(trained, tmp_path / "model.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000  # the arrays are written from their own memory
        encoder = 1_665_010
        arrays = 8 * (encoder + 100 + 40)
        del trained
        tracemalloc.start()
        try:
            loaded = model.load_model(tmp_path / "model.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.params.n_params == encoder
        assert peak <= arrays + 1_000_000


class TestVersion3Errors:
    def test_wrong_magic(self, tmp_path):
        path, _, _ = v3_ae(tmp_path)
        path.write_bytes(b"\x89FCLUSX\n" + path.read_bytes()[8:])
        with pytest.raises(ValueError, match=starts_with_path(path, "not a fairclust checkpoint$")):
            load_params(path)

    def test_wrong_format(self, tmp_path):
        path, _, _ = v3_ae(tmp_path)
        with pytest.raises(ValueError, match=starts_with_path(
                path, "format: expected 'fairclust-model', got 'fairclust-params'$")):
            model.load_model(path)
        model.save_model(model.load_model(V1 / "model.json"), tmp_path / "model.ckpt")
        with pytest.raises(ValueError, match=starts_with_path(
                tmp_path / "model.ckpt",
                "format: expected 'fairclust-params', got 'fairclust-model'$")):
            load_params(tmp_path / "model.ckpt")

    def test_version_other_than_3(self, tmp_path):
        _, header, buffer = v3_ae(tmp_path)
        path = raw_file(tmp_path / "ae.ckpt", {**header, "version": 2}, buffer.tobytes())
        with pytest.raises(ValueError, match=starts_with_path(
                path, "version: expected 3 after the magic, got 2$")):
            load_params(path)

    def test_header_length_past_the_end(self, tmp_path):
        _, header, buffer = v3_ae(tmp_path)
        path = raw_file(tmp_path / "ae.ckpt", header, buffer.tobytes(), length=10**6)
        size = os.path.getsize(path)
        with pytest.raises(ValueError, match=starts_with_path(path, re.escape(
                f"header length 1000000 runs past the end of the file ({size} bytes)") + "$")):
            load_params(path)

    @pytest.mark.parametrize("text, message", [
        (b'{"\xff": 1}', "header: not UTF-8: invalid start byte at byte 2$"),
        (b"{nope", "header: not valid JSON: "),
        (b"[1, 2]", "header: must be a JSON object, got list$"),
    ])
    def test_header_that_is_not_a_json_object(self, tmp_path, text, message):
        path = raw_file(tmp_path / "ae.ckpt", text)
        with pytest.raises(ValueError, match=starts_with_path(path, message)):
            load_params(path)

    @pytest.mark.parametrize("record, message", [
        ({"dtype": "<f4"}, "dtype: must be '<f8', got '<f4'"),
        ({"dtype": None}, "dtype: must be '<f8', got None"),
        ({"shape": 90}, "shape: must list non-negative ints, got 90"),
        ({"shape": [-1]}, "shape: must list non-negative ints, got [-1]"),
        ({"offset": 8.0}, "offset: must be an int, got 8.0"),
        ({"offset": -8}, "offset: -8 overlaps the header"),
    ])
    def test_bad_array_record(self, tmp_path, record, message):
        _, header, buffer = v3_ae(tmp_path)
        header["arrays"]["buffer"].update(record)
        path = raw_file(tmp_path / "ae.ckpt", header, buffer.tobytes())
        with pytest.raises(ValueError, match=starts_with_path(
                path, re.escape(f"arrays: buffer: {message}") + "$")):
            load_params(path)

    def test_misaligned_array(self, tmp_path):
        _, header, buffer = v3_ae(tmp_path)
        header["arrays"]["buffer"]["offset"] = 4
        path = raw_file(tmp_path / "ae.ckpt", header, bytes(4) + buffer.tobytes())
        at = os.path.getsize(path) - buffer.nbytes
        with pytest.raises(ValueError, match=starts_with_path(
                path, f"arrays: buffer: offset: file byte {at} is not a multiple of 8$")):
            load_params(path)

    @pytest.mark.parametrize("record, more", [({"offset": 8}, 8), ({"shape": [91]}, 8),
                                              ({"offset": 10**20}, 10**20)])
    def test_array_past_the_end_of_the_file(self, tmp_path, record, more):
        _, header, buffer = v3_ae(tmp_path)
        header["arrays"]["buffer"].update(record)
        path = raw_file(tmp_path / "ae.ckpt", header, buffer.tobytes())
        size = os.path.getsize(path)
        with pytest.raises(ValueError, match=starts_with_path(path, re.escape(
                f"arrays: buffer: runs past the end of the file: it ends at byte "
                f"{size + more}, the file has {size}") + "$")):
            load_params(path)

    @pytest.mark.parametrize("field", ["dtype", "shape", "offset"])
    def test_array_record_missing_a_field(self, tmp_path, field):
        _, header, buffer = v3_ae(tmp_path)
        del header["arrays"]["buffer"][field]
        path = raw_file(tmp_path / "ae.ckpt", header, buffer.tobytes())
        with pytest.raises(ValueError, match=starts_with_path(
                path, f"arrays: buffer: {field}: missing$")):
            load_params(path)

    @pytest.mark.parametrize("shape", [[89], [0], [0, 2], [9, 10]])
    def test_buffer_shape_other_than_the_layers_need(self, tmp_path, shape):
        _, header, buffer = v3_ae(tmp_path)
        header["arrays"]["buffer"]["shape"] = shape
        path = raw_file(tmp_path / "ae.ckpt", header, buffer[: math.prod(shape)].tobytes())
        with pytest.raises(ValueError, match=starts_with_path(path, re.escape(
                f"arrays: buffer: shape {shape}, but the layers need [90]") + "$")):
            load_params(path)

    @pytest.mark.parametrize("arrays, message", [
        ([1], "arrays: must be an object, got [1]"),
        ({"buffer": 5}, "arrays: buffer: must be an object, got 5"),
    ])
    def test_arrays_that_are_not_objects(self, tmp_path, arrays, message):
        _, header, buffer = v3_ae(tmp_path)
        path = raw_file(tmp_path / "ae.ckpt", {**header, "arrays": arrays}, buffer.tobytes())
        with pytest.raises(ValueError, match=starts_with_path(path, re.escape(message) + "$")):
            load_params(path)

    def test_arrays_that_overlap(self, tmp_path):
        model.save_model(model.load_model(V1 / "model.json"), tmp_path / "v3.ckpt")
        header, arrays = read_checkpoint(tmp_path / "v3.ckpt", MODEL_FORMAT)
        header["arrays"]["fairoids"]["offset"] = header["arrays"]["centroids"]["offset"] + 8
        body = b"".join(a.tobytes() for a in arrays.values())[:-24]
        path = raw_file(tmp_path / "model.ckpt", header, body)
        with pytest.raises(ValueError, match=starts_with_path(
                path, "arrays: fairoids: offset 360 overlaps centroids$")):
            model.load_model(path)

    @pytest.mark.parametrize("cut, message", [
        (8, "arrays: buffer: runs past the end of the file: "),
        (-8, "the file has 8 bytes after the last array$"),
    ])
    def test_truncated_or_trailing_bytes(self, tmp_path, cut, message):
        path, _, _ = v3_ae(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-cut] if cut > 0 else raw + bytes(-cut))
        with pytest.raises(ValueError, match=starts_with_path(path, message)):
            load_params(path)

    def test_short_read(self, tmp_path):
        # the file shrinks after its size was taken
        path, _, _ = v3_ae(tmp_path)
        size = os.path.getsize(path)
        path.write_bytes(path.read_bytes()[:-16])
        with mock.patch.object(ckpt.os, "fstat", return_value=os.stat_result((0,) * 6 + (size,)
                                                                            + (0,) * 3)):
            with pytest.raises(ValueError, match=starts_with_path(
                    path, "arrays: buffer: read 704 of 720 bytes$")):
                load_params(path)

    @pytest.mark.parametrize("name", ["centroids", "fairoids", "buffer"])
    def test_missing_model_array(self, tmp_path, name):
        model.save_model(model.load_model(V1 / "model.json"), tmp_path / "v3.ckpt")
        path = rewrite(tmp_path / "v3.ckpt", tmp_path / "model.ckpt", MODEL_FORMAT,
                       **{name: None})
        with pytest.raises(ValueError, match=starts_with_path(path, f"arrays: {name}: missing$")):
            model.load_model(path)

    @pytest.mark.parametrize("field", ["history", "layers", "config"])
    def test_missing_model_field(self, tmp_path, field):
        model.save_model(model.load_model(V1 / "model.json"), tmp_path / "v3.ckpt")
        path = rewrite(tmp_path / "v3.ckpt", tmp_path / "model.ckpt", MODEL_FORMAT,
                       **{field: None})
        with pytest.raises(ValueError, match=starts_with_path(path, f"{field}: missing$")):
            model.load_model(path)

    def test_eval_of_a_cut_checkpoint_writes_nothing(self, tmp_path, capsys):
        model.save_model(model.load_model(V1 / "model.json"), tmp_path / "v3.ckpt")
        path = tmp_path / "cut.ckpt"
        path.write_bytes((tmp_path / "v3.ckpt").read_bytes()[:200])
        code = cli.main(["eval", "--model", str(path), "--data", str(V1 / "data.csv"),
                         "--out", str(tmp_path / "eval")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not (tmp_path / "eval").exists()


class TestNonFiniteParameters:
    # the fixture's enc1 starts at value 30 of the buffer
    @pytest.mark.parametrize("version", [2, 3])
    def test_params_name_the_entry(self, tmp_path, version):
        params = load_params(V1 / "ae.json")
        params.buffer[31] = np.nan
        path = tmp_path / "ae.ckpt"
        if version == 2:
            path.write_text(json.dumps(v2_params(params)))
        else:
            save_params(params, path)
        with pytest.raises(ValueError, match=starts_with_path(
                path, "enc1: values must be finite$")):
            load_params(path)

    @pytest.mark.parametrize("version", [2, 3])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_model_names_the_network_entry(self, tmp_path, version, value):
        trained = model.load_model(V1 / "model.json")
        trained.params.buffer[[29, 31, 40]] = [1.0, value, value]
        path = tmp_path / "model.ckpt"
        if version == 2:
            path.write_text(json.dumps(v2_model(trained)))
        else:
            model.save_model(trained, path)
        with pytest.raises(ValueError, match=starts_with_path(
                path, "network: enc1: values must be finite$")):
            model.load_model(path)
