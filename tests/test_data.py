"""Dataset construction, CSV ingestion, centering, and partition invariants."""

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtaggr import data
from mtaggr.data import (
    Dataset,
    FeaturePartition,
    TaskPartition,
    _parse_cell,
    center,
    load_dataset,
    save_dataset,
    schema_for,
)
from mtaggr.errors import ValidationError
from mtaggr.synth import SynthConfig, generate


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


BASIC = "a,b,y\n1,2,3\n4,5,6\n7,8,9\n10,11,12\n"
SCHEMA = {"a": "feature", "b": "feature", "y": "target"}


class TestLoadDataset:
    def test_basic_csv(self, tmp_path):
        ds = load_dataset(write(tmp_path, BASIC), SCHEMA)
        assert ds.n_samples == 4 and ds.n_features == 2 and ds.n_tasks == 1
        assert ds.feature_names == ("a", "b")
        np.testing.assert_array_equal(ds.features[:, 0], [1, 4, 7, 10])

    def test_column_order_preserved(self, tmp_path):
        text = "y,b,a\n1,2,3\n4,5,6\n"
        ds = load_dataset(write(tmp_path, text), SCHEMA)
        assert ds.feature_names == ("b", "a")

    def test_nan_cell_names_location(self, tmp_path):
        text = "a,b,y\n1,2,3\n4,NaN,6\n7,8,9\n"
        with pytest.raises(ValidationError, match=r"line 3.*'b'.*NaN"):
            load_dataset(write(tmp_path, text), SCHEMA)

    def test_inf_cell_rejected(self, tmp_path):
        text = "a,b,y\n1,2,3\ninf,5,6\n"
        with pytest.raises(ValidationError, match=r"line 3.*'a'"):
            load_dataset(write(tmp_path, text), SCHEMA)

    def test_non_numeric_cell(self, tmp_path):
        text = "a,b,y\n1,2,3\n4,x,6\n"
        with pytest.raises(ValidationError, match=r"line 3.*'b'.*'x'"):
            load_dataset(write(tmp_path, text), SCHEMA)

    def test_ragged_row(self, tmp_path):
        text = "a,b,y\n1,2,3\n4,5\n"
        with pytest.raises(ValidationError, match=r"line 3.*expected 3"):
            load_dataset(write(tmp_path, text), SCHEMA)

    def test_zero_features_or_targets(self, tmp_path):
        p = write(tmp_path, BASIC)
        with pytest.raises(ValidationError, match="zero feature"):
            load_dataset(p, {"a": "ignore", "b": "ignore", "y": "target"})
        with pytest.raises(ValidationError, match="zero target"):
            load_dataset(p, {"a": "feature", "b": "feature", "y": "ignore"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no such file"):
            load_dataset(tmp_path / "absent.csv", SCHEMA)

    def test_schema_names_absent_column(self, tmp_path):
        with pytest.raises(ValidationError, match="not present"):
            load_dataset(write(tmp_path, BASIC), {**SCHEMA, "z": "feature"})

    def test_duplicate_header(self, tmp_path):
        text = "a,a,y\n1,2,3\n4,5,6\n"
        with pytest.raises(ValidationError, match="duplicate"):
            load_dataset(write(tmp_path, text), SCHEMA)

    def test_unknown_role(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown role"):
            load_dataset(write(tmp_path, BASIC), {"a": "predictor"})

    def test_synth_round_trip(self, tmp_path):
        cfg = SynthConfig(n_tasks=2, n_features=5, n_train=250, n_test=10, sigma=1.0)
        train, _, _ = generate(cfg, 3)
        p = tmp_path / "round.csv"
        save_dataset(train, p)
        loaded = load_dataset(p, schema_for(train))
        assert np.max(np.abs(loaded.features - train.features)) <= 1e-9
        assert np.max(np.abs(loaded.targets - train.targets)) <= 1e-9

    def test_round_trip_with_names_csv_quotes(self, tmp_path):
        # The header goes through csv.writer, so names holding a delimiter
        # or a quote are quoted and read back as they were.
        rng = np.random.default_rng(1)
        ds = Dataset(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)),
                     feature_names=("a,b", 'say "x"'), target_names=("y,0", '"y1"'))
        p = tmp_path / "quoted.csv"
        save_dataset(ds, p)
        assert p.read_bytes().startswith(b'"a,b","say ""x""","y,0","""y1"""\r\n')
        loaded = load_dataset(p, schema_for(ds))
        assert loaded.feature_names == ds.feature_names
        assert loaded.target_names == ds.target_names
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.targets, ds.targets)

    def test_per_task_slabs(self, tmp_path):
        text = (
            "f1@y0,f2@y0,f1@y1,f2@y1,y0,y1\n"
            "1,2,3,4,5,6\n7,8,9,10,11,12\n13,14,15,16,17,18\n"
        )
        schema = {
            "f1@y0": "feature:y0", "f2@y0": "feature:y0",
            "f1@y1": "feature:y1", "f2@y1": "feature:y1",
            "y0": "target", "y1": "target",
        }
        ds = load_dataset(write(tmp_path, text), schema)
        assert ds.per_task_features is not None
        assert len(ds.per_task_features) == 2
        assert ds.per_task_features[0].shape == (3, 2)
        assert ds.feature_names == ("f1", "f2")
        np.testing.assert_array_equal(
            ds.features, (ds.per_task_features[0] + ds.per_task_features[1]) / 2
        )

    def test_constant_slab_column_is_named_by_its_feature(self, tmp_path):
        # b@y1 is constant: centering reports task 1's feature b, not the
        # column of target 0 in the same position.
        text = "a@y0,b@y0,a@y1,b@y1,y0,y1\n1,2,3,4,5,6\n7,8,9,4,11,12\n0,1,5,4,2,0\n"
        schema = {
            "a@y0": "feature:y0", "b@y0": "feature:y0",
            "a@y1": "feature:y1", "b@y1": "feature:y1",
            "y0": "target", "y1": "target",
        }
        ds = load_dataset(write(tmp_path, text), schema)
        assert center(ds).constant_columns == ("task1_feature:b",)

    def test_slabs_listing_other_features_in_order_rejected(self, tmp_path):
        # Paired by position, slab 1 would be [b, a] and the shared mean
        # would average a with b.
        text = "a@y0,b@y0,b@y1,a@y1,y0,y1\n1,10,20,2,0,1\n3,30,40,4,1,0\n"
        schema = {
            "a@y0": "feature:y0", "b@y0": "feature:y0",
            "b@y1": "feature:y1", "a@y1": "feature:y1",
            "y0": "target", "y1": "target",
        }
        with pytest.raises(ValidationError, match=r"target 'y1' lists features "
                           r"\['b', 'a'\], but target 'y0' lists \['a', 'b'\]"):
            load_dataset(write(tmp_path, text), schema)

    @pytest.mark.parametrize("name", ["f2", "f2@y1", "f2@y0x"])
    def test_slab_column_not_named_for_its_target_rejected(self, tmp_path, name):
        text = f"f1@y0,{name},f1@y1,f3@y1,y0,y1\n1,2,3,4,5,6\n6,5,4,3,2,1\n"
        schema = {
            "f1@y0": "feature:y0", name: "feature:y0",
            "f1@y1": "feature:y1", "f3@y1": "feature:y1",
            "y0": "target", "y1": "target",
        }
        with pytest.raises(ValidationError, match=f"column '{name}' is a feature of "
                           "target 'y0', so it must be named <feature>@y0"):
            load_dataset(write(tmp_path, text), schema)

    def test_mixed_shared_and_slab_roles_rejected(self, tmp_path):
        text = "f1,f2@y0,y0\n1,2,3\n4,5,6\n"
        schema = {"f1": "feature", "f2@y0": "feature:y0", "y0": "target"}
        with pytest.raises(ValidationError, match="cannot mix"):
            load_dataset(write(tmp_path, text), schema)

    def test_unbalanced_slabs_rejected(self, tmp_path):
        text = "f1@y0,f2@y0,f1@y1,y0,y1\n1,2,3,4,5\n6,7,8,9,10\n"
        schema = {
            "f1@y0": "feature:y0", "f2@y0": "feature:y0",
            "f1@y1": "feature:y1", "y0": "target", "y1": "target",
        }
        with pytest.raises(ValidationError, match=r"target 'y1' lists features "
                           r"\['f1'\], but target 'y0' lists \['f1', 'f2'\]"):
            load_dataset(write(tmp_path, text), schema)


def reference_table(path):
    """The rows of a CSV file parsed one cell at a time through ``_parse_cell``.

    Raises the first bad row or cell in file order; the reference the
    row-at-a-time loader is checked against.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = []
        for raw in reader:
            line = reader.line_num
            if len(raw) != len(header):
                raise ValidationError(
                    f"line {line}: expected {len(header)} fields, got {len(raw)}"
                )
            rows.append([_parse_cell(c, line, header[k]) for k, c in enumerate(raw)])
    return np.asarray(rows, dtype=float)


# Cells as they appear in the file: padded, signed, exponents, underscores,
# quoted (one with an embedded newline, which moves later line numbers on).
GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from([
        " 1.5", "2.5 ", " -0.0 ", "-0", "1e5", "1E-3", "+3", ".5", "5.", "1_0",
        "-1_000.2_5", "00012", "1e308", "4.9e-324", "2e-400", '"7.25"', '" 8 "',
        '"1\n"', "\t3",
    ]),
)
NON_NUMERIC_CELLS = st.sampled_from(
    ["x", "", " ", "1..2", "_1", "1__0", "0x10", "1e", "--1", '"1,5"', "1 2"]
)
NON_FINITE_CELLS = st.sampled_from(
    ["nan", " NaN ", "-nan", "inf", "-Infinity", "+inf", "1e999", '"-1e400"']
)


@st.composite
def csv_files(draw):
    """CSV text with three features and two targets, possibly with bad rows."""
    n_rows = draw(st.integers(2, 8))
    rows = [[draw(GOOD_CELLS) for _ in range(5)] for _ in range(n_rows)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        i, k = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, 4))
        rows[i][k] = draw(st.one_of(NON_NUMERIC_CELLS, NON_FINITE_CELLS))
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, n_rows - 1))
        width = draw(st.sampled_from([1, 4, 6]))
        rows[i] = (rows[i] * 2)[:width]
    return "a,b,c,y0,y1\n" + "".join(",".join(r) + "\n" for r in rows)


LOADER_SCHEMA = {"a": "feature", "b": "feature", "c": "feature",
                 "y0": "target", "y1": "target"}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(csv_files())
def test_loader_matches_per_cell_parse(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text(text, encoding="utf-8")
    try:
        table = reference_table(path)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            load_dataset(path, LOADER_SCHEMA)
        assert str(got.value) == str(exc)
        return
    ds = load_dataset(path, LOADER_SCHEMA)
    assert ds.features.tobytes() == np.ascontiguousarray(table[:, :3]).tobytes()
    assert ds.targets.tobytes() == np.ascontiguousarray(table[:, 3:]).tobytes()


PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from([" 1.5", "2.5 ", " -0.0 ", "-0", "1e5", "+3", ".5", "5.", "\t3"]),
)
# Cells the C reader refuses, so a file with one takes the csv parse.
REFUSED_CELLS = st.sampled_from(['"7.25"', '" 8 "', "1_0", "-1_000.2_5", "x", "nan"])


@st.composite
def csv_layouts(draw):
    """CSV bytes in varied line layouts, and whether numpy's C reader may take them.

    One row in ``width`` columns per line, each line ended by ``eol``, the
    last one possibly not, or followed by a blank line; possibly with a
    blank or whitespace-only line put before a row, or with a cell the C
    reader refuses.
    """
    width = draw(st.sampled_from([1, 5]))
    lines = [",".join(draw(PLAIN_CELLS) for _ in range(width))
             for _ in range(draw(st.integers(1, 6)))]
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    end = draw(st.sampled_from([eol, "", eol + eol]))
    c_reader = eol != "\r" and end != eol + eol
    odd = draw(st.sampled_from([None, None, "", " ", "\t", "refused"]))
    if odd is not None:
        c_reader = False
        k = draw(st.integers(0, len(lines) - 1))
        if odd == "refused":
            cells = lines[k].split(",")
            cells[draw(st.integers(0, width - 1))] = draw(REFUSED_CELLS)
            lines[k] = ",".join(cells)
        else:
            lines.insert(k, odd)
    header = ",".join(["a", "b", "c", "y0", "y1"][:width])
    return (eol.join([header] + lines) + end).encode("utf-8"), width, c_reader


def check_both_paths(path, width, c_reader):
    """The file takes the C reader iff ``c_reader``, and reads as ``reference_table``.

    Both paths give its table bit for bit, or the csv parse raises the
    reference's first error message.
    """
    fast = data._read_table(path, width)
    assert (fast is not None) == c_reader
    header = data._read_header(path)
    try:
        want = reference_table(path)
    except ValidationError as exc:
        assert fast is None
        with pytest.raises(ValidationError) as got:
            data._parse_table(path, header)
        assert str(got.value) == str(exc)
        return None
    assert data._parse_table(path, header).tobytes() == want.tobytes()
    if fast is not None:
        assert fast.tobytes() == want.tobytes()
    return want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(csv_layouts())
def test_loader_reads_line_layouts_like_csv(tmp_path_factory, layout):
    raw, width, c_reader = layout
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(raw)
    check_both_paths(path, width, c_reader)


@pytest.mark.parametrize("body", [
    # numpy reads a lone CR as a line end and skips the blank line that
    # follows, so these have one row per LF there; csv finds an empty row.
    b"1,2\r\r\n3,4\n",
    b"1,2\r\n\r3,4\r\n",
    # Read alike, but a lone CR still takes the csv parse.
    b"1,2\n3,4\r",
])
def test_lone_carriage_return_takes_csv(tmp_path, body):
    path = tmp_path / "data.csv"
    path.write_bytes(b"a,y\n" + body)
    check_both_paths(path, 2, c_reader=False)


@pytest.mark.parametrize("pair, c_reader", [(b"\r\n", True), (b"\r", False)])
def test_carriage_return_at_a_chunk_end(tmp_path, pair, c_reader):
    # The scan reads the body in chunks after the header line; put a
    # carriage return on the last byte of the first chunk.  CRLF there still
    # takes the C reader; a lone CR does not, though csv reads both alike.
    header = b"a,y\r\n"
    end = len(header) + data._CHUNK - 1
    # Rows of "1,2\r\n" after a first row padded so that one CR lands on `end`.
    first = b"1." + b"0" * ((data._CHUNK - 10) % 5) + b",2\r\n"
    n = (data._CHUNK - 4 - len(first)) // 5 + 3
    raw = header + first + b"1,2\r\n" * n
    assert raw[end:end + 2] == b"\r\n"
    path = tmp_path / "data.csv"
    path.write_bytes(raw[:end] + pair + raw[end + 2:])
    assert check_both_paths(path, 2, c_reader).shape == (n + 1, 2)


@pytest.mark.parametrize("good_rows", [0, 2000])
def test_non_utf8_file_raises_naming_it(tmp_path, good_rows):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b,y\n" + b"1,2,3\n" * good_rows + b"4,\xff5,6\n")
    with pytest.raises(ValidationError) as got:
        load_dataset(path, SCHEMA)
    assert str(got.value) == (
        f"{path}: not UTF-8 text: byte 0xff (invalid start byte)"
    )


@pytest.mark.parametrize("rows, message", [
    # Within one row the first bad cell wins, whichever kind it is.
    (["1,inf,x,4,5"], "line 3, column 'b': non-finite value 'inf'"),
    (["1,x,inf,4,5"], "line 3, column 'b': non-numeric value 'x'"),
    # Across rows the first bad row wins.
    (["1,2,nan,4,5", "x,2,3,4,5"], "line 3, column 'c': non-finite value 'nan'"),
    (["1,2,3,4,x", "nan,2,3,4,5"], "line 3, column 'y1': non-numeric value 'x'"),
    (["1,2,3,4,5", "1,2,3", "x,2,3,4,5"], "line 4: expected 5 fields, got 3"),
    (["1,2,3,4, 1e999 ", "1,2,3"], "line 3, column 'y1': non-finite value '1e999'"),
])
def test_loader_reports_first_bad_cell(tmp_path, rows, message):
    path = write(tmp_path, "a,b,c,y0,y1\n1,2,3,4,5\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValidationError) as got:
        load_dataset(path, LOADER_SCHEMA)
    assert str(got.value) == message
    with pytest.raises(ValidationError) as want:
        reference_table(path)
    assert str(want.value) == message


class TestDatasetValidation:
    def test_non_finite_rejected(self):
        X = np.ones((3, 2))
        X[1, 1] = np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            Dataset(X, np.ones((3, 1)))

    def test_row_mismatch(self):
        with pytest.raises(ValidationError):
            Dataset(np.ones((3, 2)), np.ones((4, 1)))

    def test_slab_shape_mismatch(self):
        with pytest.raises(ValidationError, match="slab"):
            Dataset(
                np.ones((3, 2)),
                np.ones((3, 1)),
                per_task_features=(np.ones((3, 3)),),
            )

    def test_immutability(self):
        ds = Dataset(np.ones((3, 2)), np.ones((3, 1)))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0


class TestCenter:
    def test_simple_column(self):
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([[4.0], [5.0], [6.0]]))
        out = center(ds)
        np.testing.assert_allclose(out.dataset.features[:, 0], [-1, 0, 1], atol=1e-14)
        np.testing.assert_allclose(out.dataset.targets[:, 0], [-1, 0, 1], atol=1e-14)

    def test_already_centered_unchanged(self):
        X = np.array([[-1.0, 2.0], [0.0, -1.0], [1.0, -1.0]])
        X[:, 1] -= X[:, 1].mean()
        ds = Dataset(X, X[:, :1])
        out = center(ds)
        assert np.max(np.abs(out.dataset.features - X)) < 1e-12

    def test_idempotent_on_random_input(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((50, 5)) * 100 + 5000.0
        ds = Dataset(X, rng.standard_normal((50, 2)))
        once = center(ds).dataset
        twice = center(once).dataset
        assert np.max(np.abs(once.features - twice.features)) < 1e-12
        assert np.max(np.abs(once.features.mean(axis=0))) < 1e-10

    def test_constant_columns_flagged_and_zeroed(self):
        X = np.column_stack([np.full(4, 7.0), np.arange(4.0)])
        ds = Dataset(X, np.ones((4, 1)), feature_names=("c", "x"), target_names=("y",))
        out = center(ds)
        assert "feature:c" in out.constant_columns
        assert "target:y" in out.constant_columns
        assert np.all(out.dataset.features[:, 0] == 0.0)

    def test_constant_columns_listed_in_column_order(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((6, 4))
        X[:, [1, 3]] = [2.5, -0.0]
        Y = rng.standard_normal((6, 3))
        Y[:, 2] = 4.0
        slabs = [rng.standard_normal((6, 4)) for _ in range(3)]
        slabs[0][:, 2] = 1.0
        slabs[2][:, [0, 3]] = 0.0
        ds = Dataset(X, Y, feature_names=("f0", "f1", "f2", "f3"),
                     target_names=("y0", "y1", "y2"), per_task_features=slabs)
        assert center(ds).constant_columns == (
            "feature:f1", "feature:f3", "target:y2",
            "task0_feature:f2", "task2_feature:f0", "task2_feature:f3",
        )

    def test_transform_uses_train_means(self):
        rng = np.random.default_rng(13)
        train = Dataset(rng.standard_normal((20, 3)) + 2.0, rng.standard_normal((20, 1)))
        test = Dataset(rng.standard_normal((10, 3)), rng.standard_normal((10, 1)))
        out = center(train)
        transformed = out.transform(test)
        np.testing.assert_allclose(
            transformed.features, test.features - out.feature_means, atol=1e-12
        )

    def test_transform_shape_mismatch(self):
        rng = np.random.default_rng(14)
        out = center(Dataset(rng.standard_normal((5, 3)), rng.standard_normal((5, 1))))
        other = Dataset(rng.standard_normal((5, 2)), rng.standard_normal((5, 1)))
        with pytest.raises(ValidationError):
            out.transform(other)


class TestPartitions:
    def test_valid(self):
        part = TaskPartition([[0, 2], [1], [3]], 4)
        assert part.n_clusters == 3
        assert part.clusters == ((0, 2), (1,), (3,))
        assert part.size == 4

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError, match="two clusters"):
            TaskPartition([[0, 1], [1, 2]], 3)

    def test_repeated_index_rejected(self):
        with pytest.raises(ValidationError, match="two clusters"):
            TaskPartition(((0, 0),), 1)

    def test_incomplete_cover_rejected(self):
        with pytest.raises(ValidationError, match="not covered"):
            TaskPartition([[0], [2]], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            FeaturePartition([[0, 1], [2, 3]], 3)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValidationError, match="empty cluster"):
            FeaturePartition([[0, 1], []], 2)

    @pytest.mark.parametrize("index", [True, "0", 0.0, None])
    def test_non_integer_index_rejected(self, index):
        with pytest.raises(ValidationError, match="not an integer"):
            TaskPartition([[index], [1]], 2)

    @pytest.mark.parametrize("clusters", [5, None, [0, 1]])
    def test_clusters_that_are_not_lists_rejected(self, clusters):
        with pytest.raises(ValidationError, match="feature partition"):
            FeaturePartition(clusters, 2)

    @pytest.mark.parametrize("size", [0, -1, 2.0, True, "2"])
    def test_bad_size_rejected(self, size):
        with pytest.raises(ValidationError, match="size"):
            TaskPartition([[0]], size)

    def test_numpy_integers_stored_as_ints(self):
        part = FeaturePartition((tuple(np.array([2, 0])), (np.int32(1),)), np.int64(3))
        assert part.clusters == ((2, 0), (1,)) and part.size == 3
        assert all(type(i) is int for c in part.clusters for i in c)
        assert type(part.size) is int

    def test_kinds_share_one_implementation(self):
        task, feature = TaskPartition([[0], [1]], 2), FeaturePartition([[0], [1]], 2)
        assert type(task).__mro__[1] is type(feature).__mro__[1]
        assert task != feature
        assert task == TaskPartition(((0,), (1,)), 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.size = 3


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12))
def test_partition_from_labels_property(labels):
    size = len(labels)
    clusters = [
        [i for i, lab in enumerate(labels) if lab == c]
        for c in sorted(set(labels))
    ]
    part = TaskPartition(clusters, size)
    covered = sorted(i for c in part.clusters for i in c)
    assert covered == list(range(size))
    assert part.clusters == tuple(map(tuple, clusters))


class TestWriteRows:
    EDGES = [-0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308]

    @pytest.mark.parametrize("rows", [1, data._WRITE_BLOCK, 2 * data._WRITE_BLOCK + 3])
    def test_bytes_match_csv_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        table = rng.standard_normal((rows, 6)) * 10.0 ** rng.integers(-12, 12, (rows, 6))
        table[0, :5] = self.EDGES
        table[-1, :5] = [-v for v in self.EDGES]
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        with want.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(map(repr, row.tolist()) for row in table)
        with got.open("w", newline="", encoding="utf-8") as fh:
            data._write_rows(fh, table)
        assert got.read_bytes() == want.read_bytes()

    def test_no_rows_write_nothing(self, tmp_path):
        p = tmp_path / "empty.csv"
        with p.open("w", newline="", encoding="utf-8") as fh:
            data._write_rows(fh, np.empty((0, 3)))
        assert p.read_bytes() == b""
