"""Checkpoint format: version 2 packs float arrays as base64 float64 bytes;
version 1 files (JSON number lists) are still read."""

import base64
import json
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairclust import cli, model, nn
from fairclust.nn import (
    AffineLayer,
    ParamSet,
    load_params,
    pack_array,
    unpack_array,
)

# Written by the last code that wrote version 1: a 4-6-2 autoencoder
# pretrained on data.csv, a K=2 model trained from it, and the report that
# `fairclust eval` printed for that model and file.
V1 = Path(__file__).parent / "data" / "v1"

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

    def test_resaving_writes_version_2_with_the_same_bits(self, tmp_path):
        trained = model.load_model(V1 / "model.json")
        model.save_model(trained, tmp_path / "model.json")
        assert json.loads((tmp_path / "model.json").read_text())["version"] == 2
        again = model.load_model(tmp_path / "model.json")
        assert bit_equal(again.params.buffer, trained.params.buffer)
        assert bit_equal(again.centroids, trained.centroids)
        assert bit_equal(again.fairoids, trained.fairoids)
        assert again.config == trained.config and again.history == trained.history

    def test_train_from_a_version_1_autoencoder(self, tmp_path):
        code = cli.main(["train", "--data", str(V1 / "data.csv"), "--pretrain",
                         str(V1 / "ae.json"), "--k", "2", "--max-epochs", "2",
                         "--batch", "16", "--recon-weight", "0.5", "--out", str(tmp_path)])
        assert code == 0
        trained = model.load_model(tmp_path / "seed_0" / "model.json")
        assert trained.params.names() == load_params(V1 / "ae.json").names()


def packed_json(array):
    return json.loads(json.dumps(pack_array(array)))


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
           st.sampled_from([4, 8, 12, nn.DECODE_CHARS]))
    def test_packed_array_round_trip_is_bit_exact(self, values, cols, slice_chars):
        array = np.array(values[: len(values) // cols * cols], dtype=float).reshape(-1, cols)
        with mock.patch.object(nn, "DECODE_CHARS", slice_chars):
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
        assert peak < 8_000_000 + nn.DECODE_CHARS + 1_000_000
        assert owns_writable(back) and back.tobytes() == base64.b64decode(record["data"])

    def test_edge_values_survive(self):
        array = np.array(EDGE_VALUES)
        back = unpack_array(packed_json(array))
        assert bit_equal(back, array)
        assert np.signbit(back[0]) and back[1] == 5e-324 and back[-1] == 1.7976931348623157e308

    @settings(max_examples=20)
    @given(layer_sets(), st.data())
    def test_model_checkpoint_round_trip_is_bit_exact(self, tmp_path_factory, params, data):
        d = params.layers()[-1].n_out
        centroids = np.array(data.draw(st.lists(floats, min_size=2 * d, max_size=2 * d)))
        fairoids = np.array(data.draw(st.lists(floats, min_size=3 * d, max_size=3 * d)))
        trained = model.TrainedModel(params=params, centroids=centroids.reshape(2, d),
                                     fairoids=fairoids.reshape(3, d),
                                     config=model.TrainConfig(K=2), history=[{"epoch": 0}])
        path = tmp_path_factory.mktemp("model") / "model.json"
        model.save_model(trained, path)
        loaded = model.load_model(path)
        assert loaded.params.names() == params.names()
        assert [l.activation for l in loaded.params.layers()] == [
            l.activation for l in params.layers()]
        assert bit_equal(loaded.params.buffer, params.buffer)
        assert owns_writable(loaded.params.buffer)
        assert bit_equal(loaded.centroids, trained.centroids)
        assert bit_equal(loaded.fairoids, trained.fairoids)
        assert loaded.config == trained.config and loaded.history == trained.history


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
            with mock.patch.object(nn, "DECODE_CHARS", slice_chars):
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
        params = ParamSet({"enc0": AffineLayer(np.eye(2), np.zeros(2))})
        payload = params.to_payload()
        with pytest.raises(ValueError, match="unsupported checkpoint version 3"):
            ParamSet.from_payload({**payload, "version": 3})
        trained = model.TrainedModel(params=params, centroids=np.eye(2), fairoids=np.eye(2),
                                     config=model.TrainConfig(K=2))
        model.save_model(trained, tmp_path / "model.json")
        saved = json.loads((tmp_path / "model.json").read_text())
        (tmp_path / "model.json").write_text(json.dumps({**saved, "version": 3}))
        with pytest.raises(ValueError, match="unsupported model version 3"):
            model.load_model(tmp_path / "model.json")

    def test_buffer_of_the_wrong_length_for_the_layers(self):
        payload = ParamSet({"enc0": AffineLayer(np.eye(2), np.zeros(2))}).to_payload()
        payload["buffer"] = pack_array(np.zeros(5))
        with pytest.raises(ValueError, match=r"shape \[5\] does not match the expected \[6\]"):
            ParamSet.from_payload(payload)


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
        (tmp_path / "model.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a fairclust model checkpoint"):
            model.load_model(tmp_path / "model.json")
        with pytest.raises(ValueError, match="not a fairclust parameter checkpoint"):
            ParamSet.from_payload([1, 2])


def model_file(tmp_path, version, **fields):
    """The version 1 fixture model, as the given version, with fields
    replaced; an array is stored as that version stores it."""
    if version == 1:
        saved = json.loads((V1 / "model.json").read_text())
    else:
        model.save_model(model.load_model(V1 / "model.json"), tmp_path / "v2.json")
        saved = json.loads((tmp_path / "v2.json").read_text())
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = value.tolist() if version == 1 else pack_array(value)
        saved[name] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(saved))
    return path


@pytest.mark.parametrize("version", [1, 2])
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
        decoder = ParamSet({"dec0": AffineLayer(np.eye(2), np.zeros(2))}).to_payload()
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
