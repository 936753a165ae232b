import csv
import io
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from flowcodec import _float_text, flow_data
from flowcodec.errors import (
    ConfigError,
    DataError,
    EmptyDatasetError,
    RowParseError,
    SchemaError,
)
from flowcodec.flow_data import (
    DEFAULT_COMPRESSIBLE_COLUMNS,
    DEFAULT_IDENTITY_COLUMNS,
    N_FEATURES,
    Dataset,
    FeatureSchema,
    default_class_specs,
    generate_synthetic,
    load_csv,
    read_features,
    stratified_split,
    write_csv,
)


def make_csv(path, schema, rows, header=None):
    """rows: list of dicts column -> cell value."""
    header = list(header if header is not None else schema.all_columns)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row.get(c, "0") for c in header])


def blank_identities(schema, n):
    return {c: [""] * n for c in schema.identity_columns}


def full_row(schema, label="web", value=1.0):
    row = {c: f"ip_{c}" for c in schema.identity_columns}
    row.update({c: str(value) for c in schema.compressible_columns})
    if schema.label_column:
        row[schema.label_column] = label
    return row


# ---------------------------------------------------------------- schema


def test_default_schema_has_21_features():
    schema = FeatureSchema()
    assert len(schema.compressible_columns) == N_FEATURES == 21
    assert schema.compressible_columns == DEFAULT_COMPRESSIBLE_COLUMNS
    assert schema.identity_columns == DEFAULT_IDENTITY_COLUMNS
    assert schema.label_column == "application_name"
    assert len(schema.all_columns) == 7 + 21 + 1


def test_schema_rejects_wrong_feature_count():
    with pytest.raises(SchemaError):
        FeatureSchema(compressible_columns=("a", "b"))


def test_schema_rejects_duplicates_and_overlap():
    cols = list(DEFAULT_COMPRESSIBLE_COLUMNS)
    cols[1] = cols[0]
    with pytest.raises(SchemaError):
        FeatureSchema(compressible_columns=tuple(cols))
    with pytest.raises(SchemaError):
        FeatureSchema(identity_columns=(DEFAULT_COMPRESSIBLE_COLUMNS[0],))
    with pytest.raises(SchemaError):
        FeatureSchema(label_column=DEFAULT_COMPRESSIBLE_COLUMNS[0])


def test_schema_rejects_empty_names():
    # An empty label name matched a blank CSV header cell, and the .fclz
    # header writes "" for "no label column": compress then wrote a labeled
    # container that decompress refused.
    for kwargs in (
        {"label_column": ""},
        {"identity_columns": ("src_ip", "")},
        {"compressible_columns": ("",) + DEFAULT_COMPRESSIBLE_COLUMNS[1:]},
    ):
        with pytest.raises(SchemaError, match="empty"):
            FeatureSchema(**kwargs)


# ---------------------------------------------------------------- load_csv


def test_load_csv_happy_path(tmp_path):
    schema = FeatureSchema()
    rows = [full_row(schema, "web", 1.5), full_row(schema, "chat", 2.0)]
    path = tmp_path / "flows.csv"
    make_csv(path, schema, rows)
    ds = load_csv(path, schema)
    assert len(ds) == 2
    assert ds.features.shape == (2, 21)
    assert ds.features[0, 0] == 1.5
    assert ds.labels == ["web", "chat"]
    assert ds.class_names == ["chat", "web"]
    assert list(ds.label_ids) == [1, 0]
    assert list(ds.identities) == list(schema.identity_columns)
    assert ds.identities["src_ip"] == ["ip_src_ip", "ip_src_ip"]


def test_load_csv_ignores_extra_columns_and_any_order(tmp_path):
    schema = FeatureSchema()
    header = list(schema.all_columns)[::-1] + ["extra_junk"]
    rows = [dict(full_row(schema), extra_junk="zzz")]
    path = tmp_path / "flows.csv"
    make_csv(path, schema, rows, header=header)
    ds = load_csv(path, schema)
    assert len(ds) == 1
    assert ds.features[0, 0] == 1.0


def test_load_csv_missing_column_names_it(tmp_path):
    schema = FeatureSchema()
    header = [c for c in schema.all_columns if c != "dst2src_bytes"]
    path = tmp_path / "flows.csv"
    make_csv(path, schema, [full_row(schema)], header=header)
    with pytest.raises(SchemaError, match="dst2src_bytes"):
        load_csv(path, schema)


def test_load_csv_unparseable_cell_reports_row_and_column(tmp_path):
    schema = FeatureSchema()
    bad = full_row(schema)
    bad["src2dst_packets"] = "not-a-number"
    path = tmp_path / "flows.csv"
    make_csv(path, schema, [full_row(schema), bad])
    with pytest.raises(RowParseError, match="row 2.*src2dst_packets"):
        load_csv(path, schema)
    # A short row names the first schema column it lacks.
    make_csv(path, schema, [full_row(schema)])
    with open(path, "a", newline="") as fh:
        fh.write("ip,ip,ip\n")
    with pytest.raises(RowParseError, match="row 2, column 'dst_port'"):
        load_csv(path, schema)


def test_load_csv_rejects_non_finite(tmp_path):
    schema = FeatureSchema()
    bad = full_row(schema)
    bad["bidirectional_bytes"] = "inf"
    path = tmp_path / "flows.csv"
    make_csv(path, schema, [bad])
    with pytest.raises(RowParseError, match="non-finite"):
        load_csv(path, schema)


def test_load_csv_empty_inputs(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyDatasetError):
        load_csv(path)
    schema = FeatureSchema()
    make_csv(tmp_path / "header_only.csv", schema, [])
    with pytest.raises(EmptyDatasetError):
        load_csv(tmp_path / "header_only.csv", schema)


def test_load_csv_unlabeled_schema(tmp_path):
    schema = FeatureSchema(label_column=None)
    path = tmp_path / "flows.csv"
    make_csv(path, schema, [full_row(schema)])
    ds = load_csv(path, schema)
    assert not ds.is_labeled
    assert ds.labels is None and ds.label_ids is None


def test_write_then_load_round_trips_floats_exactly(tmp_path):
    ds = generate_synthetic(20, default_class_specs(), seed=5)
    # Mix in awkward values that only survive repr round-tripping.
    features = ds.features.copy()
    features[0, 0] = 0.1 + 0.2
    features[1, 2] = 1e-17
    ds2 = Dataset(ds.schema, features, ds.identities, ds.labels)
    path = tmp_path / "flows.csv"
    write_csv(ds2, path)
    back = load_csv(path, ds.schema)
    assert np.array_equal(back.features, ds2.features)
    assert back.labels == ds2.labels
    assert back.identities == ds2.identities


def test_load_csv_reports_the_first_bad_cell_in_file_order(tmp_path):
    # A row is parsed in one call and checked cell by cell only if that
    # fails, so each kind of bad cell must still be named in file order.
    schema = FeatureSchema()
    path = tmp_path / "flows.csv"
    inf_row, junk_row = full_row(schema), full_row(schema)
    inf_row["src2dst_bytes"] = "1e999"
    junk_row["bidirectional_packets"] = "junk"
    make_csv(path, schema, [full_row(schema), inf_row, junk_row])
    with pytest.raises(RowParseError, match=r"row 2, column 'src2dst_bytes': non-finite value '1e999'"):
        load_csv(path, schema)
    make_csv(path, schema, [full_row(schema), junk_row, inf_row])
    with pytest.raises(RowParseError, match=r"row 2, column 'bidirectional_packets': cannot parse 'junk'"):
        load_csv(path, schema)


def test_load_csv_keeps_finite_rows_whose_sum_overflows(tmp_path):
    # A row whose sum is finite skips the cell-by-cell check; a finite row
    # whose sum overflows must take that check and pass it.
    schema = FeatureSchema()
    path = tmp_path / "flows.csv"
    make_csv(path, schema, [full_row(schema, value=1e308), full_row(schema, value=-1e308)])
    assert (np.abs(load_csv(path, schema).features) == 1e308).all()


# ---------------------------------------------------------------- read_features

_UNLABELED = FeatureSchema(label_column=None)
# numpy's reader reads these two with a one-wide text field and with none.
_ONE_IDENTITY = FeatureSchema(identity_columns=("flow_id",), label_column=None)
_FEATURES_ONLY = FeatureSchema(identity_columns=(), label_column=None)
_FIELD_LIMIT = csv.field_size_limit()


def _raw_row(schema=FeatureSchema(), features=None, identity="10.0.0.1", label="web"):
    """One CSV line in schema column order, without its line end."""
    features = features if features is not None else [f"{i}.5" for i in range(N_FEATURES)]
    cells = [identity] * len(schema.identity_columns) + list(features)
    if schema.label_column is not None:
        cells.append(label)
    return ",".join(cells)


def _raw_csv(*rows, schema=FeatureSchema(), header=None, end="\r\n") -> bytes:
    header = ",".join(schema.all_columns) if header is None else header
    return "".join(line + end for line in (header, *rows)).encode("utf-8")


def _with_feature(cell, position=3):
    features = [f"{i}.5" for i in range(N_FEATURES)]
    features[position] = cell
    return _raw_row(features=features)


_GOOD = _raw_row()
_HARD_FLOATS = [
    "5e-324", "4.9406564584124654e-324", "2.2250738585072009e-308", "2.2250738585072014e-308",
    "1e-310", str(2**53 - 1), str(2**53), str(2**53 + 1), str(-(2**53) - 1), "1e23", "8.589973e9",
    "0.1", "0.30000000000000004", "1.7976931348623157e308", "-0", "123456789012345678901234567890",
    "2.4703282292062328e-324", "7.2057594037927933e16", "9.007199254740993e15", "1e-5", "3.14159",
]

# (case id, file bytes, schema, what the row reader does with it: None to
# accept, else the error class it raises)
READ_CASES = [
    # rows
    ("short_row", _raw_csv(_GOOD, _GOOD[: _GOOD.rindex(",")]), FeatureSchema(), RowParseError),
    ("short_row_unlabeled", _raw_csv(_raw_row(_UNLABELED), _raw_row(_UNLABELED)[: -len(",20.5")], schema=_UNLABELED),
     _UNLABELED, RowParseError),
    ("one_identity_no_label", _raw_csv(_raw_row(_ONE_IDENTITY, identity='"a,b"'), _raw_row(_ONE_IDENTITY),
                                       schema=_ONE_IDENTITY), _ONE_IDENTITY, None),
    ("one_identity_short_row",
     _raw_csv(_raw_row(_ONE_IDENTITY), _raw_row(_ONE_IDENTITY)[: -len(",20.5")], schema=_ONE_IDENTITY),
     _ONE_IDENTITY, RowParseError),
    ("features_only", _raw_csv(_raw_row(_FEATURES_ONLY), _raw_row(_FEATURES_ONLY), schema=_FEATURES_ONLY),
     _FEATURES_ONLY, None),
    ("features_only_short_row",
     _raw_csv(_raw_row(_FEATURES_ONLY), _raw_row(_FEATURES_ONLY)[: -len(",20.5")], schema=_FEATURES_ONLY),
     _FEATURES_ONLY, RowParseError),
    ("extra_trailing_cells", _raw_csv(_GOOD, _GOOD + ",x,9"), FeatureSchema(), None),
    ("blank_line", _raw_csv(_GOOD, "", _GOOD), FeatureSchema(), None),
    ("whitespace_only_line", _raw_csv(_GOOD, "  \t", _GOOD), FeatureSchema(), RowParseError),
    # cell values
    ("underscore_digits", _raw_csv(_with_feature("1_000")), FeatureSchema(), None),
    ("arabic_indic_digits", _raw_csv(_with_feature("١٢٣.٥")), FeatureSchema(), None),
    ("nan", _raw_csv(_GOOD, _with_feature("nan")), FeatureSchema(), RowParseError),
    ("inf", _raw_csv(_with_feature("-inf")), FeatureSchema(), RowParseError),
    ("overflow", _raw_csv(_with_feature("1e999")), FeatureSchema(), RowParseError),
    ("empty_feature_cell", _raw_csv(_with_feature("")), FeatureSchema(), RowParseError),
    # numpy strips 0x1C-0x1F around a number as whitespace; float() does not
    ("file_separator_byte", _raw_csv(_with_feature("\x1c7")), FeatureSchema(), RowParseError),
    ("unit_separator_byte", _raw_csv(_with_feature("7\x1f")), FeatureSchema(), RowParseError),
    ("spaces_and_quotes_around_number", _raw_csv(_with_feature(' 7 '), _with_feature('"8"')), FeatureSchema(), None),
    # file shape and encoding
    ("bare_cr_line_ends", _raw_csv(_GOOD, _GOOD, end="\r"), FeatureSchema(), None),
    ("bare_lf_line_ends", _raw_csv(_GOOD, _GOOD, end="\n"), FeatureSchema(), None),
    ("quoted_header_cell_with_line_break",
     _raw_csv(_GOOD + ",x", _GOOD + ",y", header=",".join(FeatureSchema().all_columns) + ',"note\r\nmore"'),
     FeatureSchema(), None),
    ("hash_and_quoted_comma_in_identity", _raw_csv(_raw_row(identity='"#1,2"'), _raw_row(identity="#x")),
     FeatureSchema(), None),
    ("quoted_line_break_and_doubled_quote_in_label",
     _raw_csv(_raw_row(label='"we\r\nb ""x"""'), _raw_row(label='a"b')), FeatureSchema(), None),
    ("header_only", _raw_csv(), FeatureSchema(), EmptyDatasetError),
    ("empty_file", b"", FeatureSchema(), EmptyDatasetError),
    ("missing_column", _raw_csv(_GOOD, header=",".join(FeatureSchema().all_columns[:-2])), FeatureSchema(), SchemaError),
    # past the first block the text layer decodes, so the header reads first
    ("invalid_utf8_row", _raw_csv(*[_GOOD] * 60) + b"\xff" + _GOOD.encode(),
     FeatureSchema(), DataError),
    ("invalid_utf8_header", b"\xff" + _raw_csv(_GOOD), FeatureSchema(), DataError),
    # a fixed-width string field would cut these cells; both are within the limit
    ("long_cell_within_the_field_limit", _raw_csv(_raw_row(identity="a" * 5000, label='"' + "b," * 3000 + '"'), _GOOD),
     FeatureSchema(), None),
    # csv refuses a cell longer than its field size limit; loadtxt has none
    ("long_unquoted_cell", _raw_csv(_raw_row(identity="a" * (_FIELD_LIMIT + 1))), FeatureSchema(), DataError),
    ("long_quoted_cell", _raw_csv(_raw_row(identity='"' + "a,\n" * (_FIELD_LIMIT // 3 + 1) + '"')),
     FeatureSchema(), DataError),
    ("long_file_short_cells", _raw_csv(*[_GOOD] * (_FIELD_LIMIT // len(_GOOD) + 2)), FeatureSchema(), None),
    # hard floats
    ("hard_floats", _raw_csv(_raw_row(features=_HARD_FLOATS), _raw_row(features=_HARD_FLOATS[::-1])),
     FeatureSchema(), None),
    # identity and label cells
    ("spaces_and_tabs_around_cells", _raw_csv(_raw_row(identity=" \t10.0.0.1 ", label="\tweb "), _GOOD),
     FeatureSchema(), None),
    ("non_ascii_cells", _raw_csv(_raw_row(identity="naïve-日本", label="ñandú"), _GOOD), FeatureSchema(), None),
    ("empty_cells", _raw_csv(_raw_row(identity="", label=""), _GOOD), FeatureSchema(), None),
    ("quoted_empty_cells", _raw_csv(_raw_row(identity='""', label='""'), _GOOD), FeatureSchema(), None),
    ("quote_inside_cells", _raw_csv(_raw_row(identity='ab"c', label='"a"b'), _GOOD), FeatureSchema(), None),
    ("bom_before_header", b"\xef\xbb\xbf" + _raw_csv(_GOOD), FeatureSchema(), SchemaError),
]


def _read_outcome(read, path, schema):
    """What ``read(path, schema)`` does with the file: its result, or the
    class and message of the DataError it raises."""
    try:
        return read(path, schema)
    except DataError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "raw, schema, refusal", [case[1:] for case in READ_CASES], ids=[case[0] for case in READ_CASES]
)
def test_read_features_matches_load_csv(tmp_path, raw, schema, refusal):
    # The row reader is what load_csv was before numpy's reader took over,
    # and still reads every file that reader does not take.
    path = tmp_path / "flows.csv"
    path.write_bytes(raw)
    expected = _read_outcome(flow_data._read_rows, path, schema)
    got = _read_outcome(read_features, path, schema)
    if refusal is None:
        assert got.dtype == np.float64 and got.shape == expected.features.shape
        assert got.tobytes() == expected.features.tobytes()
        assert not got.flags.writeable
    else:
        assert expected[0] is refusal
        assert got == expected


@pytest.mark.parametrize(
    "raw, schema, refusal", [case[1:] for case in READ_CASES], ids=[case[0] for case in READ_CASES]
)
def test_load_csv_matches_the_row_reader(tmp_path, raw, schema, refusal):
    path = tmp_path / "flows.csv"
    path.write_bytes(raw)
    expected = _read_outcome(flow_data._read_rows, path, schema)
    got = _read_outcome(load_csv, path, schema)
    if refusal is None:
        _assert_same_dataset(got, expected)
    else:
        assert expected[0] is refusal
        assert got == expected


def _assert_same_dataset(got: Dataset, expected: Dataset):
    assert got.features.tobytes() == expected.features.tobytes() and got.features.shape == expected.features.shape
    assert got.identities == expected.identities and list(got.identities) == list(expected.identities)
    assert all(type(cell) is str for cells in got.identities.values() for cell in cells)
    assert got.labels == expected.labels and got.class_names == expected.class_names
    if expected.label_ids is None:
        assert got.label_ids is None
    else:
        assert got.label_ids.tolist() == expected.label_ids.tolist()


def test_read_features_nul_byte_follows_this_pythons_csv(tmp_path):
    # csv.reader refuses a NUL byte before Python 3.11 and keeps it in the
    # cell from 3.11 on. loadtxt keeps it too, so a file holding one is
    # read by the row reader: it is refused on 3.10 and read on 3.11.
    path = tmp_path / "flows.csv"
    path.write_bytes(_raw_csv(_GOOD, _raw_row(identity="10.0\x00.0.1")))
    if sys.version_info < (3, 11):
        with pytest.raises(DataError, match="NUL"):
            load_csv(path)
        with pytest.raises(DataError, match="NUL"):
            read_features(path)
    else:
        assert read_features(path).tobytes() == load_csv(path).features.tobytes()


@pytest.mark.parametrize(
    "schema", [FeatureSchema(), _UNLABELED, _ONE_IDENTITY, _FEATURES_ONLY],
    ids=["default", "unlabeled", "one_identity", "features_only"],
)
def test_written_csvs_parse_without_the_row_reader(tmp_path, monkeypatch, schema):
    # Every equality test above would also pass if numpy's reader silently
    # refused every file, so this one refuses the row reader instead.
    ds = generate_synthetic(30, default_class_specs(), seed=4, schema=schema)
    identities = dict(ds.identities)
    for c, cell in zip(schema.identity_columns, ['a,"b"\r\nc', "naïve ,x"]):
        identities[c] = [cell] * len(ds)  # both cells are quoted on write
    ds = Dataset(schema, ds.features, identities, ds.labels)
    path = tmp_path / "flows.csv"
    write_csv(ds, path)

    def refuse(*args):
        raise AssertionError("fell back to the row reader")

    monkeypatch.setattr(flow_data, "_read_rows", refuse)
    assert read_features(path, schema).tobytes() == ds.features.tobytes()
    _assert_same_dataset(load_csv(path, schema), ds)


def _reference_format_number(v: float) -> str:
    # The row-wise formatter write_csv used before it worked by column.
    v = float(v)
    if v == int(v) and abs(v) < 2**53:
        return str(int(v))
    return repr(v)


def _reference_write_csv(dataset: Dataset) -> bytes:
    """write_csv's earlier row-wise output, through csv.writer."""
    schema = dataset.schema
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(schema.all_columns)
    identities = [dataset.identities[c] for c in schema.identity_columns]
    for i in range(len(dataset)):
        row = [cells[i] for cells in identities]
        row += [_reference_format_number(v) for v in dataset.features[i]]
        if schema.label_column is not None:
            row.append(dataset.labels[i] if dataset.labels is not None else "")
        writer.writerow(row)
    return out.getvalue().encode("utf-8")


AWKWARD_CELLS = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " ", "naïve 日本", '",\r\n', "plain"]
EDGE_VALUES = [
    -0.0, 0.0, 2.0**53, 2.0**53 + 2, -(2.0**53), 2.0**53 - 1, 1e16, 1e-300,
    -7.0, -123456789.0, 0.1 + 0.2, 1e-17, -2.5, 5e-324, 1.7976931348623157e308,
    1e-4, -1e-5, 0.00012345678901234567, 1e15 + 0.5, 2.0**53 - 0.5, 9999999999999998.0, -123456789012345.67,
]


def test_write_csv_matches_the_row_wise_reference(tmp_path, monkeypatch):
    # Small blocks make the column-wise writer cross block boundaries.
    monkeypatch.setattr(flow_data, "_WRITE_ROWS", 4)
    schema = FeatureSchema(identity_columns=("src_ip", "note,with comma"), label_column='app "name"')
    n = len(AWKWARD_CELLS) + 2
    features = np.random.default_rng(3).lognormal(3.0, 2.0, (n, N_FEATURES))
    features[:, 1] = np.rint(features[:, 1])
    features[:, 2] = EDGE_VALUES[:n]
    features[:, 3] = EDGE_VALUES[-n:]
    cells = AWKWARD_CELLS + ["x", "y"]
    identities = {"src_ip": cells, "note,with comma": cells[::-1]}
    cases = [
        Dataset(schema, features, identities, cells[1:] + cells[:1]),
        Dataset(schema, features, identities, None),  # a label column without labels
        Dataset(FeatureSchema((), label_column=None), -features, {}, None),
        Dataset(schema, np.empty((0, N_FEATURES)), {c: [] for c in schema.identity_columns}, None),
    ]
    for k, ds in enumerate(cases):
        path = tmp_path / f"case{k}.csv"
        write_csv(ds, path)
        assert path.read_bytes() == _reference_write_csv(ds), f"case {k}"


def _assert_same_lines(got: bytes, want: bytes):
    # A line-by-line check, so that a failure names its first line and
    # does not diff megabytes.
    got_lines, want_lines = got.split(b"\r\n"), want.split(b"\r\n")
    assert len(got_lines) == len(want_lines)
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        assert g == w, f"line {i}"


def _float64_classes(rng) -> np.ndarray:
    """Over a million float64 values of every class the writer meets, each
    with its negative."""

    def random_bits(lo_exponent, hi_exponent, n):
        return rng.integers(lo_exponent << 52, hi_exponent << 52, n, dtype=np.uint64).view(np.float64)

    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    decades = 10.0 ** np.array([-5, -4, 15, 16])
    digits17 = rng.integers(10**16, 10**17, 60_000).tolist()
    exponents = rng.integers(-22, 1, 60_000).tolist()
    values = np.concatenate([
        random_bits(0, 1, 50_000),  # subnormal
        random_bits(1, 0x7FF, 200_000),  # normal, every exponent
        random_bits(1023 - 15, 1023 + 55, 150_000),  # the exponents of positional reprs
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),  # a narrower interval below
        2.0**53 + np.arange(-300, 300), 1e16 + 2.0 * np.arange(-300, 300),  # integral
        (rng.uniform(1, 10, (10_000, 1)) * decades).ravel(),  # repr's positional/scientific edge
        np.nextafter(decades, 0), decades, np.nextafter(decades, np.inf),
        [float(f"{d}e{e}") for d, e in zip(digits17, exponents)],  # 17 significant digits
        rng.lognormal(3.0, 2.0, 100_000),
        EDGE_VALUES,
    ])
    values = np.concatenate([values, -values])
    return np.concatenate([values, np.zeros(-len(values) % N_FEATURES)])


def test_write_csv_matches_the_reference_on_every_float64_class(tmp_path, monkeypatch):
    monkeypatch.setattr(flow_data, "_WRITE_ROWS", 997)  # blocks cross
    values = _float64_classes(np.random.default_rng(14))
    assert len(values) >= 1_000_000
    ds = Dataset(FeatureSchema((), label_column=None), values.reshape(-1, N_FEATURES), {}, None)
    path = tmp_path / "classes.csv"
    write_csv(ds, path)
    _assert_same_lines(path.read_bytes(), _reference_write_csv(ds))


def test_format_rows_as_repr_is_repr_on_every_float64_class():
    # The mode the row error dump writes its means with: integral values
    # keep their ".0", -0.0 its sign, and the rest is as without the mode.
    values = np.concatenate([_float64_classes(np.random.default_rng(16)), [0.0, -0.0, 100.0, -1.0]])
    rows = values[: len(values) // 3 * 3].reshape(-1, 3)
    for start in range(0, len(rows), 50_000):
        block = rows[start : start + 50_000]
        want = [",".join(map(repr, row)) for row in block.tolist()]
        assert _float_text.format_rows(block, as_repr=True) == want


def test_write_csv_lays_out_common_cells_without_repr(tmp_path, monkeypatch):
    # Every equality test above would also pass if every cell went through
    # the per-cell fallback, so this one refuses the fallback instead.
    def refuse(values):
        raise AssertionError(f"per-cell fallback for {values[:3]}")

    monkeypatch.setattr(_float_text, "_repr_cells", refuse)
    monkeypatch.setattr(flow_data, "_WRITE_ROWS", 300)
    synth = generate_synthetic(400, default_class_specs(), seed=8)
    recon = np.random.default_rng(8).lognormal(3.0, 2.0, synth.features.shape)
    assert (recon != np.floor(recon)).all()
    assert (synth.features == np.floor(synth.features)).any(axis=0).sum() >= 4  # the count columns
    for k, ds in enumerate([synth, Dataset(synth.schema, recon, synth.identities, synth.labels)]):
        path = tmp_path / f"case{k}.csv"
        write_csv(ds, path)
        _assert_same_lines(path.read_bytes(), _reference_write_csv(ds))


def test_shortest_decimal_is_the_decimal_repr_prints():
    # Also over the exponents whose cells write_csv leaves to repr, so that
    # a fault there shows: powers of two, where the interval below is half
    # as wide, their neighbours, and random normal values below 2**215.
    rng = np.random.default_rng(15)
    powers = np.ldexp(1.0, np.arange(-1022, 215))
    x = np.concatenate([
        rng.integers(1 << 52, 1238 << 52, 200_000, dtype=np.uint64).view(np.float64),
        powers, np.nextafter(powers[1:], 0), np.nextafter(powers, np.inf),
    ])
    d, e = _float_text.shortest_decimal(x)
    for v, digits, exponent in zip(x.tolist(), d.tolist(), e.tolist()):
        assert Decimal(digits).scaleb(exponent) == Decimal(repr(v)), repr(v)


def test_positional_is_the_layout_repr_writes():
    # _positional takes the integer part as floor(x), not from the decimal,
    # and divides only where the decimal has 20 or 21 fraction digits. The
    # reference is repr: whether it is positional with at most 19 fraction
    # digits, and if so its value as integer part plus fraction.
    rng = np.random.default_rng(18)
    integers = np.concatenate([
        np.arange(1.0, 1001.0), rng.integers(1, 2**52, 5_000).astype(np.float64),
        10.0 ** np.arange(16), 2.0 ** np.arange(53),
    ])
    x = np.concatenate([
        # One ulp below and above an integer: below it, the floor is not
        # the nearest integer.
        np.nextafter(integers, 0), np.nextafter(integers, np.inf),
        2.0**53 + 2.0 * np.arange(-300, 300), 1e16 - 2.0 * np.arange(300),  # integral
        rng.integers((1023 - 20) << 52, (1023 + 54) << 52, 20_000, dtype=np.uint64).view(np.float64),
        rng.uniform(1e-6, 1e-3, 10_000),  # 20 and 21 fraction digits
    ])
    d, e = _float_text.shortest_decimal(x)
    # The same decimals with one and two trailing zeros more, so that cells
    # with 20 and 21 fraction digits come with and without trailing zeros.
    x = np.concatenate([x, x, x])
    d = np.concatenate([d, d * np.uint64(10), d * np.uint64(100)])
    e = np.concatenate([e, e - 1, e - 2])
    whole, frac, fits = _float_text._positional(x, d, e)

    t = -e
    assert set(range(-1, 22)) <= set(t.tolist())
    for digits in (20, 21):
        zeros = d[t == digits] % np.uint64(10) == 0
        assert zeros.any() and not zeros.all()
    assert (np.floor(x) != np.rint(x)).sum() > 5_000
    for v, w, f, ok in zip(x.tolist(), whole.tolist(), frac.tolist(), fits.tolist()):
        text = repr(v)
        assert ok == ("e" not in text and len(text.partition(".")[2]) <= 19), text
        if ok:
            assert Decimal(w) + Decimal(f).scaleb(-19) == Decimal(text), text


def test_round_to_odd_is_exact_over_the_kernel_range():
    # shortest_decimal's round-to-odd products are exact when, for every
    # multiplier cx, X = cx * 2**q * 10**e is an integer or has a fraction
    # from 2**-63 up to 1 - 2**-66 (the product's remainder test and the
    # table's overstatement of 10**e). Over the kernel's range X is a
    # multiple of 2**(q + e) >= 2**-62, which keeps any fraction there.
    lo, hi = (int(np.log2(v)) for v in _float_text._KERNEL_RANGE)
    for q in range(lo - 52, hi - 52):
        for closer in (False, True):
            k = (q * 1262611 - closer * 524031) >> 22
            assert 10**k <= Fraction(2) ** q * (Fraction(3, 4) if closer else 1) < 10 ** (k + 1)
            assert (Fraction(2) ** q * Fraction(10) ** -k).denominator <= 2**62
            i = -k - _float_text._E_MIN
            shift = int(_float_text._G_SHIFT[i])
            assert 1 <= q + shift <= 4  # so cp = cx << (q + shift) < 2**60
            g = sum(int(limbs[i]) << 30 * j for j, limbs in enumerate(_float_text._G))
            assert 2**125 <= g < 2**126 and 0 < g - Fraction(10) ** -k / Fraction(2) ** (shift - 126) <= 1


def test_write_csv_refuses_non_finite_features(tmp_path):
    schema = FeatureSchema()
    for bad in (np.nan, np.inf, -np.inf):
        features = np.ones((2, N_FEATURES))
        features[1, 4] = bad
        ds = Dataset(schema, features, blank_identities(schema, 2), None)
        with pytest.raises(DataError, match="non-finite"):
            write_csv(ds, tmp_path / "out.csv")
        assert list(tmp_path.iterdir()) == []


def test_dataset_refuses_identity_columns_unlike_the_schema():
    schema = FeatureSchema()
    features = np.ones((3, N_FEATURES))
    good = blank_identities(schema, 3)
    Dataset(schema, features, good, None)
    missing = {c: v for c, v in good.items() if c != "protocol"}
    extra = {**good, "vlan": [""] * 3}
    short = {**good, "protocol": [""] * 2}
    for identities in (missing, extra, short):
        with pytest.raises(DataError, match="identity cells per column"):
            Dataset(schema, features, identities, None)
    with pytest.raises(DataError, match="need a schema label column"):
        Dataset(FeatureSchema(label_column=None), features, good, ["a"] * 3)


def test_dataset_features_are_read_only():
    ds = generate_synthetic(5, default_class_specs(), seed=1)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 99.0


# ---------------------------------------------------------------- splits


def test_stratified_split_example_counts():
    # Two classes sized 70 and 30 at test fraction 0.2 give 14 and 6 test rows.
    features = np.ones((100, N_FEATURES))
    labels = ["a"] * 70 + ["b"] * 30
    ds = Dataset(FeatureSchema(), features, blank_identities(FeatureSchema(), 100), labels)
    split = stratified_split(ds, 0.2, seed=0)
    test_labels = [labels[i] for i in split.test]
    assert len(split.test) == 20
    assert test_labels.count("a") == 14
    assert test_labels.count("b") == 6


def test_stratified_split_disjoint_exhaustive_deterministic():
    ds = generate_synthetic(37, default_class_specs(), seed=9)
    a = stratified_split(ds, 0.25, seed=3)
    b = stratified_split(ds, 0.25, seed=3)
    c = stratified_split(ds, 0.25, seed=4)
    assert np.array_equal(a.train, b.train) and np.array_equal(a.test, b.test)
    assert not np.array_equal(a.test, c.test)
    merged = sorted(a.train.tolist() + a.test.tolist())
    assert merged == list(range(len(ds)))
    assert not set(a.train) & set(a.test)


def test_stratified_split_per_class_counts_near_fraction():
    rng = np.random.default_rng(11)
    for trial in range(20):
        sizes = rng.integers(3, 60, size=4)
        labels = [f"c{k}" for k, s in enumerate(sizes) for _ in range(int(s))]
        n = len(labels)
        ds = Dataset(FeatureSchema(), np.ones((n, N_FEATURES)), blank_identities(FeatureSchema(), n), labels)
        frac = float(rng.uniform(0.1, 0.4))
        split = stratified_split(ds, frac, seed=trial)
        test_labels = [labels[i] for i in split.test]
        for k, s in enumerate(sizes):
            got = test_labels.count(f"c{k}")
            base = int(np.floor(frac * int(s)))
            assert got in (base, base + 1)
            # Train side never empties.
            assert int(s) - got >= 1


def test_stratified_split_rejects_tiny_class_and_unlabeled():
    ds = Dataset(FeatureSchema(), np.ones((3, N_FEATURES)), blank_identities(FeatureSchema(), 3), ["a", "a", "b"])
    with pytest.raises(DataError, match="'b'"):
        stratified_split(ds, 0.2, seed=0)
    # An unlabeled dataset is one class, so one row is too few.
    schema = FeatureSchema(label_column=None)
    unlabeled = Dataset(schema, np.ones((1, N_FEATURES)), blank_identities(schema, 1), None)
    with pytest.raises(DataError, match=re.escape("'(unlabeled)' has only 1 record(s)")):
        stratified_split(unlabeled, 0.2, seed=0)


def test_unlabeled_split_is_one_seeded_permutation():
    # An unlabeled dataset splits as one class: its test rows are the first
    # round(f * n) of one permutation drawn from default_rng(seed), except
    # that the train side keeps one row where that would take them all.
    schema = FeatureSchema(label_column=None)
    for n in (2, 3, 5, 10, 37, 100):
        ds = Dataset(schema, np.ones((n, N_FEATURES)), blank_identities(schema, n), None)
        for f in (0.05, 0.2, 0.5, 0.75, 0.95):
            for seed in (0, 8, 123):
                split = stratified_split(ds, f, seed)
                assert split.train.dtype == split.test.dtype == np.int64
                assert np.array_equal(np.sort(np.concatenate(split)), np.arange(n))
                assert (np.diff(split.train) > 0).all() and (np.diff(split.test) > 0).all()
                assert split.train.size >= 1
                perm = np.random.default_rng(seed).permutation(n)
                k = round(f * n)
                if k < n:
                    assert split.test.tolist() == sorted(perm[:k].tolist())
                else:
                    assert split.test.size == n - 1
                again = stratified_split(ds, f, seed)
                assert np.array_equal(again.train, split.train)
                assert np.array_equal(again.test, split.test)

    ten = Dataset(schema, np.ones((10, N_FEATURES)), blank_identities(schema, 10), None)
    split = stratified_split(ten, 0.95, seed=0)
    assert (split.train.size, split.test.size) == (1, 9)
    for f in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ConfigError):
            stratified_split(ten, f, seed=0)


# ---------------------------------------------------------------- synthetic


def test_generate_synthetic_shape_and_labels():
    specs = default_class_specs()
    ds = generate_synthetic(50, specs, seed=2)
    assert len(ds) == 50 * len(specs)
    assert ds.features.shape == (len(ds), 21)
    assert np.isfinite(ds.features).all()
    for spec in specs:
        assert ds.labels.count(spec.name) == 50
    # A schema without identity or label columns keeps neither.
    bare = generate_synthetic(5, specs, seed=2, schema=FeatureSchema((), label_column=None))
    assert bare.identities == {} and bare.labels is None and len(bare) == 5 * len(specs)


def test_generate_synthetic_flow_constraints():
    ds = generate_synthetic(80, default_class_specs(), seed=3)
    cols = {c: i for i, c in enumerate(ds.schema.compressible_columns)}
    f = ds.features
    assert np.array_equal(
        f[:, cols["bidirectional_packets"]],
        f[:, cols["src2dst_packets"]] + f[:, cols["dst2src_packets"]],
    )
    assert np.array_equal(
        f[:, cols["bidirectional_bytes"]],
        f[:, cols["src2dst_bytes"]] + f[:, cols["dst2src_bytes"]],
    )
    for direction in ("bidirectional", "src2dst", "dst2src"):
        lo = f[:, cols[f"{direction}_min_ps"]]
        mid = f[:, cols[f"{direction}_mean_ps"]]
        hi = f[:, cols[f"{direction}_max_ps"]]
        assert (lo <= mid).all() and (mid <= hi).all()
    for c in ("src2dst_packets", "src2dst_bytes", "dst2src_packets", "dst2src_bytes"):
        col = f[:, cols[c]]
        assert np.array_equal(col, np.round(col))
        assert (col >= 1).all()


def test_generate_synthetic_deterministic_and_validated():
    specs = default_class_specs()
    a = generate_synthetic(30, specs, seed=42)
    b = generate_synthetic(30, specs, seed=42)
    assert np.array_equal(a.features, b.features)
    assert a.labels == b.labels
    c = generate_synthetic(30, specs, seed=43)
    assert not np.array_equal(a.features, c.features)
    with pytest.raises(ConfigError):
        generate_synthetic(0, specs, seed=1)
    with pytest.raises(ConfigError):
        generate_synthetic(10, specs[:1], seed=1)
    with pytest.raises(ConfigError, match="more than once"):
        generate_synthetic(10, [specs[0], specs[1], specs[0]], seed=1)


def _reference_synthetic_identities(schema, block, col_pos, n, rng):
    """The identity cells built from numpy scalars, one element at a time."""
    first_seen = 1_700_000_000_000 + rng.integers(0, 86_400_000, n)
    duration = (
        block[:, col_pos["bidirectional_duration_ms"]]
        if "bidirectional_duration_ms" in col_pos
        else np.zeros(n)
    )
    octets = rng.integers(1, 255, size=(n, 4))
    generic = {
        "src_ip": [f"10.0.{a}.{b}" for a, b in octets[:, :2]],
        "dst_ip": [f"192.168.{a}.{b}" for a, b in octets[:, 2:]],
        "src_port": [str(p) for p in rng.integers(1024, 65535, n)],
        "dst_port": [str(p) for p in rng.choice([53, 80, 123, 443, 8080, 8443], n)],
        "protocol": [str(p) for p in rng.choice([6, 17], n)],
        "bidirectional_first_seen_ms": [str(int(t)) for t in first_seen],
        "bidirectional_last_seen_ms": [str(int(t + d)) for t, d in zip(first_seen, duration)],
    }
    return {c: generic[c] if c in generic else [f"{c}_{i}" for i in range(n)] for c in schema.identity_columns}


@pytest.mark.parametrize("with_duration", [True, False])
def test_synthetic_identities_match_the_scalar_loop(with_duration):
    # Durations whose sum with a first-seen time rounds: halves, values just
    # below an integer, tiny and huge ones, and lognormal draws like synth's.
    n = 4000
    # Without a duration column every last-seen cell is first-seen + 0.0.
    cols = tuple(
        c if with_duration or c != "bidirectional_duration_ms" else "duration"
        for c in DEFAULT_COMPRESSIBLE_COLUMNS
    )
    schema = FeatureSchema(
        identity_columns=DEFAULT_IDENTITY_COLUMNS + ("flow_id",), compressible_columns=cols
    )
    col_pos = {c: i for i, c in enumerate(cols)}
    gen = np.random.default_rng(11)
    block = gen.lognormal(5.0, 3.0, size=(n, len(cols)))
    if with_duration:
        j = col_pos["bidirectional_duration_ms"]
        edges = [0.5, 1.5, 0.25, 0.75, 1 - 2**-40, 2**-1074, 1e-300, 0.0, 1e15, 2.0**53, 123456.5]
        block[: len(edges), j] = edges
        block[len(edges) : 2 * len(edges), j] = np.nextafter(edges, np.inf)
    got = flow_data._synthetic_identities(schema, block, col_pos, n, np.random.default_rng(5))
    want = _reference_synthetic_identities(schema, block, col_pos, n, np.random.default_rng(5))
    assert list(got) == list(want) == list(schema.identity_columns)
    for c in want:
        assert got[c] == want[c], c
