import csv
import io
import json
import os
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from fairclust import data
from fairclust.data import (
    Dataset,
    SynthSpec,
    encode_first_appearance,
    load_csv,
    load_with_manifest,
    normalize,
    one_hot,
    save_csv,
    split,
    synth_blobs,
    write_rows,
)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def count_opens(monkeypatch):
    """The list that every later Path.open appends its path to."""
    opened, real_open = [], Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(self)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    return opened


class TestLoadCsv:
    def test_protected_recoded_by_first_appearance(self, tmp_path):
        path = write_csv(tmp_path, "x,g\n1,a\n2,b\n3,a\n4,b\n")
        ds = load_csv(path, {"x": "feature", "g": "protected"})
        np.testing.assert_array_equal(ds.protected, [0, 1, 0, 1])
        assert ds.T == 2

    def test_categorical_one_hot_expansion(self, tmp_path):
        path = write_csv(tmp_path, "c,g\nred,a\ngreen,b\nblue,a\nred,b\ngreen,a\n")
        ds = load_csv(path, {"c": "categorical", "g": "protected"})
        assert ds.d == 3
        assert ds.feature_names == ("c=red", "c=green", "c=blue")
        np.testing.assert_array_equal(ds.features.sum(axis=1), np.ones(5))
        np.testing.assert_array_equal(ds.features[:, 0], [1, 0, 0, 1, 0])

    def test_single_protected_value_rejected(self, tmp_path):
        path = write_csv(tmp_path, "x,g\n1,a\n2,a\n")
        with pytest.raises(ValueError, match="T=1"):
            load_csv(path, {"x": "feature", "g": "protected"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", {"x": "feature", "g": "protected"})

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path, "x,g\n1,a\noops,b\n")
        with pytest.raises(ValueError, match=r"row 3, column 'x'"):
            load_csv(path, {"x": "feature", "g": "protected"})

    def test_missing_cells_are_errors(self, tmp_path):
        path = write_csv(tmp_path, "x,g\n1,a\n,b\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path, {"x": "feature", "g": "protected"})

    def test_labels_recoded_and_optional(self, tmp_path):
        path = write_csv(tmp_path, "x,y,g\n1,pos,a\n2,neg,b\n3,pos,a\n")
        ds = load_csv(path, {"x": "feature", "y": "label", "g": "protected"})
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_schema_validation(self, tmp_path):
        path = write_csv(tmp_path, "x,g,h\n1,a,c\n2,b,d\n")
        with pytest.raises(ValueError, match="exactly one protected"):
            load_csv(path, {"x": "feature", "g": "protected", "h": "protected"})
        with pytest.raises(ValueError, match="unknown column roles"):
            load_csv(path, {"x": "weight", "g": "protected"})
        with pytest.raises(ValueError, match="not present"):
            load_csv(path, {"z": "feature", "g": "protected"})

    def test_one_hot_round_trip(self):
        # integers not written as their canonical decimal stay distinct
        # levels: "00" is not "0", nor "+1" "1"
        for values in (["u", "v", "w", "v", "u", "w", "w"], ["0", "00", "1"], ["1", "+1", "0"]):
            codes, levels = encode_first_appearance(values)
            block = one_hot(codes, len(levels))
            recovered = [levels[i] for i in block.argmax(axis=1)]
            assert recovered == values


SCHEMA_AB = {"a": "feature", "b": "feature", "g": "protected"}

# Files read with SCHEMA_AB and the error each raises, word for word: the
# first bad row in file order, and for a bad cell the column that `float()`
# on the stripped cell rejects.
REJECTED = {
    "unparseable cell": ("a,b,g\n1,2,u\n3,x1,v\n", "row 3, column 'b': cannot parse 'x1'"),
    "empty cell": ("a,b,g\n1,2,u\n,4,v\n", "row 3, column 'a': cannot parse ''"),
    "short row": ("a,b,g\n1,2,u\n3,4\n", "row 3: expected 3 cells, got 2"),
    "long row": ("a,b,g\n1,2,u\n3,4,v,5\n", "row 3: expected 3 cells, got 4"),
    "blank data line": ("a,b,g\n1,2,u\n\n3,4,v\n", "row 3: expected 3 cells, got 0"),
    "trailing blank line": ("a,b,g\n1,2,u\n3,4,v\n\n", "row 4: expected 3 cells, got 0"),
    "nan cell": ("a,b,g\n1,nan,u\n3,4,v\n", "row 2, column 'b': non-finite value 'nan'"),
    "inf cell": ("a,b,g\n1,2,u\n-inf,4,v\n", "row 3, column 'a': non-finite value '-inf'"),
    "overflowing cell": ("a,b,g\n1,2,u\n1e400,4,v\n",
                         "row 3, column 'a': non-finite value '1e400'"),
    "# inside a cell": ("a,b,g\n1,2#3,u\n3,4,v\n", "row 2, column 'b': cannot parse '2#3'"),
    "quoted cell with a comma": ('a,b,g\n1,"2,5",u\n3,4,v\n',
                                 "row 2, column 'b': cannot parse '2,5'"),
    "bad cell before a short row": ("a,b,g\n1,zz,u\n3,4\n",
                                    "row 2, column 'b': cannot parse 'zz'"),
    "short row before a bad cell": ("a,b,g\n1,2\n3,zz,v\n", "row 2: expected 3 cells, got 2"),
    "non-finite cell before a short row": ("a,b,g\n1,nan,u\n3,4\n",
                                           "row 2, column 'b': non-finite value 'nan'"),
    "schema column twice in the header": ("a,b,a,g\n1,2,3,u\n4,5,6,v\n",
                                          "columns named more than once in the header: ['a']"),
    "header-only file": ("a,b,g\n", "CSV contains no data rows"),
    "empty file": ("", "empty CSV file"),
}

FORMATS = [repr, lambda v: "%.17g" % v, lambda v: f"  {v!r} ", lambda v: f'"{v!r}"']


class TestVectorizedParse:
    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_files_keep_the_per_cell_message(self, tmp_path, case):
        text, message = REJECTED[case]
        path = write_csv(tmp_path, text)
        with pytest.raises(ValueError) as info:
            load_csv(path, SCHEMA_AB)
        assert str(info.value) == message

    def test_quoted_numeric_cells_parse(self, tmp_path):
        path = write_csv(tmp_path, 'a,b,g\n1,"2.5",u\n" 3 ",4,v\n')
        ds = load_csv(path, SCHEMA_AB)
        np.testing.assert_array_equal(ds.features, [[1.0, 2.5], [3.0, 4.0]])

    def test_forms_only_float_reads_are_still_accepted(self, tmp_path):
        # underscores and non-ASCII digits read as float() reads them
        path = write_csv(tmp_path, "a,b,g\n1_000,2,u\n3,\u0664\u0662,v\n")
        ds = load_csv(path, SCHEMA_AB)
        np.testing.assert_array_equal(ds.features, [[1000.0, 2.0], [3.0, 42.0]])

    def test_quoted_header_cell_spanning_lines(self, tmp_path):
        path = write_csv(tmp_path, 'a,b,g,"long\nnote"\n1,2,u,x\n3,4,v,y\n')
        ds = load_csv(path, SCHEMA_AB)
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.protected, [0, 1])

    def test_clean_file_is_opened_once_without_the_row_scan(self, tmp_path, monkeypatch):
        ds = synth_blobs(SynthSpec(n_points=50, dims=12, n_blobs=2, T=3,
                                   correlation=0.5, seed=6))
        save_csv(ds, tmp_path / "d.csv")
        schema = json.loads((tmp_path / "d.manifest.json").read_text())["column_roles"]
        opened = count_opens(monkeypatch)
        monkeypatch.setattr(data, "_read_rows", mock.Mock(side_effect=AssertionError))
        back = load_csv(tmp_path / "d.csv", schema)
        assert opened == [tmp_path / "d.csv"]
        assert back.features.flags.c_contiguous
        assert back.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(back.protected, ds.protected)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_refused_rows_are_read_again_from_the_same_handle(self, tmp_path, monkeypatch):
        # loadtxt refuses "1_000"; the row scan reads it as float() does
        path = write_csv(tmp_path, "a,b,g\n1_000,2,u\n3,4,v\n")
        opened = count_opens(monkeypatch)
        scan = mock.Mock(wraps=data._read_rows)
        monkeypatch.setattr(data, "_read_rows", scan)
        ds = load_csv(path, SCHEMA_AB)
        assert opened == [path] and scan.call_count == 1
        np.testing.assert_array_equal(ds.features, [[1000.0, 2.0], [3.0, 4.0]])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_by_the_row_scan(self, tmp_path):
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("a,b,g\n1,2,u\n3,4,v\n",),
                                  daemon=True)
        writer.start()
        try:
            ds = load_csv(path, SCHEMA_AB)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.protected, [0, 1])

    def test_numeric_only_load_holds_one_feature_matrix(self, tmp_path):
        # with no categorical block the parsed block is the feature matrix:
        # no stacked copy of it is made
        ds = synth_blobs(SynthSpec(n_points=2000, dims=100, n_blobs=2, T=3,
                                   correlation=0.5, seed=6))
        save_csv(ds, tmp_path / "d.csv")
        schema = json.loads((tmp_path / "d.manifest.json").read_text())["column_roles"]
        tracemalloc.start()
        try:
            back = load_csv(tmp_path / "d.csv", schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.features.tobytes() == ds.features.tobytes()
        assert peak < 1.5 * back.features.nbytes

    @settings(max_examples=60)
    @given(st.integers(2, 6), st.integers(1, 4), st.data())
    def test_parse_equals_float_bit_for_bit(self, tmp_path_factory, rows, cols, draw):
        values = [[draw.draw(st.floats(allow_nan=False, allow_infinity=False))
                   for _ in range(cols)] for _ in range(rows)]
        cells = [[draw.draw(st.sampled_from(FORMATS))(v) for v in row] for row in values]
        header = ",".join(f"x{j}" for j in range(cols)) + ",g\n"
        body = "".join(",".join(row) + f",{'uv'[i % 2]}\n" for i, row in enumerate(cells))
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(header + body, encoding="utf-8")
        schema = {**{f"x{j}": "feature" for j in range(cols)}, "g": "protected"}
        ds = load_csv(path, schema)
        expected = np.array([[float(c.strip().strip('"')) for c in row] for row in cells])
        assert ds.features.tobytes() == expected.tobytes()


def reference_load(path, schema):
    """load_csv's result from csv.reader and float() on each stripped cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    columns = {c: [row[header.index(c)].strip() for row in rows] for c in schema}
    names = [c for c in header if schema.get(c) == "feature"]
    blocks = [np.array([[float(v) for v in cells] for cells in zip(*map(columns.get, names))])]
    for c in (c for c in header if schema.get(c) == "categorical"):
        codes, levels = encode_first_appearance(columns[c])
        blocks.append(one_hot(codes, len(levels)))
        names.extend(f"{c}={level}" for level in levels)
    codes = {schema[c]: encode_first_appearance(columns[c])[0] for c in schema
             if schema[c] in ("protected", "label")}
    return np.hstack(blocks), codes["protected"], codes.get("label"), tuple(names)


# text cells: a quoted cell doubles its quotes and may hold a delimiter or a
# line break; an unquoted one may hold a quote after its first character
TEXT = st.text(alphabet='ab ,"\n\r\t\u00e9', max_size=6)


@st.composite
def text_cell(draw, prefix=""):
    value = prefix + draw(TEXT)
    if draw(st.booleans()):
        return '"' + value.replace('"', '""') + '"' + draw(st.sampled_from(["", " ", "\t"]))
    value = "".join(ch for ch in value if ch not in ',\n\r').lstrip('"')
    return draw(st.sampled_from(["{}", " {} ", "\t{}"])).format(value)


@st.composite
def number_cell(draw):
    v = draw(st.floats(allow_nan=False, allow_infinity=False))
    form = draw(st.sampled_from(["{!r}", "{:.17g}", "  {!r} ", '"{!r}"', '" {!r} "', '"{!r}" ']))
    return form.format(v)


class TestLoadtxtMatchesTheRowScan:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_load_equals_csv_reader_and_float(self, tmp_path_factory, draw):
        roles = (["feature"] * draw.draw(st.integers(1, 3))
                 + ["unused"] * draw.draw(st.integers(0, 2))
                 + ["categorical"] * draw.draw(st.integers(0, 1))
                 + ["label"] * draw.draw(st.integers(0, 1)) + ["protected"])
        roles = draw.draw(st.permutations(roles))
        header = [f"c{j}" for j in range(len(roles))]
        n = draw.draw(st.integers(2, 5))
        lines = []
        for i in range(n):
            cells = [draw.draw(number_cell()) if role == "feature"
                     else draw.draw(text_cell(f"s{i % 2}")) if role == "protected"
                     else draw.draw(text_cell()) for role in roles]
            lines.append(",".join(cells) + draw.draw(st.sampled_from(["\n", "\r\n"])))
        if draw.draw(st.booleans()):
            lines[-1] = lines[-1].rstrip("\r\n")
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(",".join(header) + "\n" + "".join(lines), encoding="utf-8", newline="")
        schema = {c: role for c, role in zip(header, roles) if role != "unused"}
        ds = load_csv(path, schema)
        features, protected, labels, names = reference_load(path, schema)
        assert ds.features.tobytes() == features.tobytes()
        np.testing.assert_array_equal(ds.protected, protected)
        np.testing.assert_array_equal(ds.labels, labels)
        assert ds.feature_names == names


class TestNormalize:
    def base(self, column):
        col = np.asarray(column, dtype=float)[:, None]
        return Dataset(np.hstack([col, np.ones_like(col)]), [0, 1] * (len(col) // 2) + [0] * (len(col) % 2))

    def test_minmax_endpoints(self):
        ds = normalize(self.base([0.0, 5.0, 10.0]), "minmax")
        np.testing.assert_allclose(ds.features[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        for mode in ("minmax", "zscore"):
            ds = normalize(self.base([3.0, 3.0, 3.0]), mode)
            np.testing.assert_array_equal(ds.features[:, 1], 0.0)

    @pytest.mark.parametrize("mode", ["minmax", "zscore"])
    def test_constant_column_of_signed_zeros_maps_to_positive_zero(self, mode):
        # min picks -0.0 or +0.0, so x - min alone can leave -0.0 entries
        ds = normalize(self.base([0.0, -0.0, 0.0, -0.0, -0.0, 0.0]), mode)
        assert not np.signbit(ds.features[:, 0]).any()

    def test_zscore_uses_sample_std(self):
        ds = normalize(self.base([1.0, 2.0, 3.0]), "zscore")
        np.testing.assert_allclose(ds.features[:, 0], [-1.0, 0.0, 1.0])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            normalize(self.base([1.0, 2.0]), "robust")


class TestSplit:
    def make(self, n=100, t=2, seed=0):
        rng = np.random.default_rng(seed)
        protected = np.arange(n) % t
        return Dataset(rng.standard_normal((n, 3)), protected, labels=protected)

    def test_stratified_counts(self):
        ds = self.make(100, 2)
        train, test = split(ds, 0.2, seed=1)
        assert test.n == 20
        np.testing.assert_array_equal(np.bincount(test.protected), [10, 10])
        np.testing.assert_array_equal(np.bincount(train.protected), [40, 40])

    def test_deterministic_given_seed(self):
        ds = self.make(60, 3)
        a_train, a_test = split(ds, 0.25, seed=9)
        b_train, b_test = split(ds, 0.25, seed=9)
        np.testing.assert_array_equal(a_test.features, b_test.features)
        np.testing.assert_array_equal(a_train.features, b_train.features)

    def test_partition_property(self):
        ds = self.make(53, 3, seed=4)
        rows = {tuple(r) for r in ds.features}
        train, test = split(ds, 0.3, seed=2)
        got = {tuple(r) for r in train.features} | {tuple(r) for r in test.features}
        assert got == rows
        assert train.n + test.n == ds.n

    def test_singleton_state_goes_to_train(self):
        features = np.arange(10, dtype=float)[:, None]
        protected = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 2])
        ds = Dataset(features, protected)
        train, test = split(ds, 0.4, seed=0)
        assert (train.protected == 2).sum() == 1
        assert (test.protected == 2).sum() == 0
        assert test.T == ds.T

    def test_empty_part_is_error(self):
        features = np.arange(2, dtype=float)[:, None]
        ds = Dataset(features, [0, 1])
        with pytest.raises(ValueError):
            split(ds, 0.5, seed=0)  # both states singletons, test empty


class TestSynthBlobs:
    def test_labels_cover_blobs(self):
        ds = synth_blobs(SynthSpec(n_points=8, dims=3, n_blobs=2, T=2,
                                   correlation=0.5, seed=0))
        assert set(ds.labels.tolist()) == {0, 1}

    def test_uniform_states_at_zero_correlation(self):
        ds = synth_blobs(SynthSpec(n_points=10_000, dims=4, n_blobs=2, T=4,
                                   correlation=0.0, seed=5))
        for blob in (0, 1):
            counts = np.bincount(ds.protected[ds.labels == blob], minlength=4)
            assert chisquare(counts).pvalue > 0.01

    def test_monochromatic_blobs_at_full_correlation(self):
        from fairclust.metrics import report_from_assignments

        ds = synth_blobs(SynthSpec(n_points=2000, dims=6, n_blobs=4, T=4,
                                   correlation=1.0, seed=3))
        rep = report_from_assignments(ds.labels, ds.protected, T=4, K=4)
        for cluster in rep.per_cluster:
            assert cluster["fwd"] == pytest.approx((4 - 1) / 4)

    def test_alignment_probability_converges(self):
        c = 0.6
        ds = synth_blobs(SynthSpec(n_points=50_000, dims=3, n_blobs=3, T=3,
                                   correlation=c, seed=8))
        aligned = (ds.protected == ds.labels % 3).mean()
        assert abs(aligned - (c + (1 - c) / 3)) < 0.02

    def test_deterministic(self):
        spec = SynthSpec(n_points=500, dims=5, n_blobs=3, T=2, correlation=0.7, seed=11)
        a, b = synth_blobs(spec), synth_blobs(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.protected, b.protected)

    def test_unit_center_gap(self):
        spec = SynthSpec(n_points=300, dims=6, n_blobs=4, T=2, correlation=0.5,
                         blob_spread=1e-6, seed=2)
        ds = synth_blobs(spec)
        centers = np.stack([ds.features[ds.labels == b].mean(axis=0) for b in range(4)])
        gaps = np.sqrt(((centers[:, None] - centers[None]) ** 2).sum(-1))
        off = gaps[~np.eye(4, dtype=bool)]
        assert off.min() == pytest.approx(1.0, abs=1e-3)

    def test_degenerate_states_recoded_contiguously(self):
        # correlation 1 with fewer blobs than states leaves states unused
        ds = synth_blobs(SynthSpec(n_points=50, dims=2, n_blobs=2, T=4,
                                   correlation=1.0, seed=1))
        assert ds.T == 2
        assert set(ds.protected.tolist()) == {0, 1}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(n_points=10, dims=2, n_blobs=2, T=2, correlation=1.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["correlation", "blob_spread"])
    def test_non_finite_float_refused(self, name, value):
        fields = {"n_points": 10, "dims": 2, "n_blobs": 2, "T": 2, "correlation": 0.5}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            SynthSpec(**{**fields, name: value})
        with pytest.raises(ValueError):
            SynthSpec(n_points=10, dims=2, n_blobs=2, T=1, correlation=0.5)
        with pytest.raises(ValueError):
            SynthSpec(n_points=0, dims=2, n_blobs=2, T=2, correlation=0.5)


class TestDatasetInvariants:
    def test_features_must_be_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[1.0], [np.inf]]), [0, 1])

    def test_protected_range_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 1)), [0, 1, 3])
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 1)), [0, 1, 5], T=3)

    def test_arrays_frozen(self):
        ds = Dataset(np.zeros((2, 2)), [0, 1])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0


class TestExport:
    def test_csv_manifest_round_trip(self, tmp_path):
        ds = synth_blobs(SynthSpec(n_points=40, dims=3, n_blobs=2, T=2,
                                   correlation=0.8, seed=4))
        csv_path = tmp_path / "blob.csv"
        manifest_path = save_csv(ds, csv_path)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["n"] == 40 and manifest["d"] == 3 and manifest["t"] == 2
        back = load_with_manifest(csv_path)
        np.testing.assert_allclose(back.features, ds.features)
        np.testing.assert_array_equal(back.protected, ds.protected)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_manifest_round_trip_keeps_column_order_past_ten_features(self, tmp_path):
        # the manifest sorts its keys (f0, f1, f10, f11, f2, ...); loading
        # must follow the CSV header instead
        ds = synth_blobs(SynthSpec(n_points=30, dims=12, n_blobs=2, T=2,
                                   correlation=0.8, seed=5))
        csv_path = tmp_path / "wide.csv"
        save_csv(ds, csv_path)
        back = load_with_manifest(csv_path)
        assert back.feature_names == tuple(f"f{j}" for j in range(12))
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.protected, ds.protected)
        np.testing.assert_array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize("field, value", [("column_roles", None), ("schema_version", 99)])
    def test_bad_manifest_names_file_and_field(self, tmp_path, field, value):
        ds = synth_blobs(SynthSpec(n_points=20, dims=2, n_blobs=2, T=2,
                                   correlation=0.8, seed=4))
        manifest_path = save_csv(ds, tmp_path / "d.csv")
        manifest = json.loads(manifest_path.read_text())
        if value is None:
            del manifest[field]
        else:
            manifest[field] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as info:
            load_with_manifest(tmp_path / "d.csv")
        assert str(manifest_path) in str(info.value) and field in str(info.value)

    def test_manifest_that_is_not_json_names_its_path(self, tmp_path):
        ds = synth_blobs(SynthSpec(n_points=20, dims=2, n_blobs=2, T=2,
                                   correlation=0.8, seed=4))
        manifest_path = save_csv(ds, tmp_path / "d.csv")
        manifest_path.write_text("{bad")
        with pytest.raises(ValueError, match="not valid JSON") as info:
            load_with_manifest(tmp_path / "d.csv")
        assert str(info.value).startswith(str(manifest_path))
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    @pytest.mark.parametrize("labels", [None, [3, 0, 1]])
    def test_csv_bytes_equal_the_per_cell_writer(self, tmp_path, labels):
        features = [[-0.0, 1e-300, 1e16], [0.1, -2.5, 5e-324], [1.7976931348623157e308, 3.0, -1e-7]]
        ds = Dataset(features, [0, 1, 1], labels=labels, feature_names=("a b", "c,d", 'e"f'))
        save_csv(ds, tmp_path / "d.csv")
        # the reference: every cell through csv.writer, as repr or int text
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow([*ds.feature_names, *(["label"] if labels else []), "protected"])
        for i in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.features[i]]
                            + ([str(int(ds.labels[i]))] if labels else [])
                            + [str(int(ds.protected[i]))])
        assert (tmp_path / "d.csv").read_bytes() == expected.getvalue().encode("utf-8")

    def test_rows_equal_the_per_cell_writer(self, tmp_path):
        # 51 magnitudes from 1e-300 to 1e300, each sign, plus edge values
        values = np.concatenate([np.logspace(-300, 300, 51), -np.logspace(-300, 300, 51),
                                 [-0.0, 5e-324, 1e16, 0.1]]).reshape(-1, 2)
        ints = np.arange(len(values)), np.arange(len(values)) % 3
        write_rows(tmp_path / "rows.csv", ["x", "y", "i", "j"], values, *ints)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["x", "y", "i", "j"])
        for row, i, j in zip(values, *ints):
            writer.writerow([repr(float(v)) for v in row] + [int(i), int(j)])
        assert (tmp_path / "rows.csv").read_bytes() == expected.getvalue().encode("utf-8")

    def test_manifest_required_when_schema_absent(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,g\n1,u\n2,v\n")
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_with_manifest(path)
