"""Flow record schema, CSV ingestion, stratified splitting, synthetic data.

A flow record is the unit of data everywhere else in the package: a set of
opaque identity columns (addresses, ports, timestamps -- never transformed),
exactly 21 numeric features that are eligible for lossy compression, and an
optional class label used by the downstream classifier.

`Dataset` is the one in-memory model of those records, stored by column.
`FeatureSchema` decides which columns exist and in what order; the CSV reader
and writer here and the `.fclz` container in `latent` take that order from it.
`load_csv` reads a CSV in one np.loadtxt call, which parses the features in
C and keeps the text cells verbatim, and through a row-by-row csv reader
where numpy's might read the file otherwise or where a fault must be named;
`read_features` reads only the feature matrix by the same rules, for a
caller that needs nothing else. `write_csv` writes each feature cell as
``str(int(v))`` or ``repr(v)``, byte for byte, through the vectorized
formatter in `_float_text`; a cell whose repr has an exponent or more than
19 fraction digits goes through repr one cell at a time.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._float_text import format_rows
from ._fsutil import atomic_write
from .errors import ConfigError, DataError, EmptyDatasetError, RowParseError, SchemaError

N_FEATURES = 21

# Canonical feature order: per-direction volume metrics first, then the
# per-direction packet size statistics.
_DIRECTIONS = ("bidirectional", "src2dst", "dst2src")

DEFAULT_COMPRESSIBLE_COLUMNS = tuple(
    f"{d}_{m}" for d in _DIRECTIONS for m in ("duration_ms", "packets", "bytes")
) + tuple(f"{d}_{m}" for d in _DIRECTIONS for m in ("min_ps", "mean_ps", "stddev_ps", "max_ps"))

DEFAULT_IDENTITY_COLUMNS = (
    "src_ip",
    "src_port",
    "dst_ip",
    "dst_port",
    "protocol",
    "bidirectional_first_seen_ms",
    "bidirectional_last_seen_ms",
)

DEFAULT_LABEL_COLUMN = "application_name"

# Log-space spread of each default synthetic class around its medians.
DEFAULT_SIGMA = 0.45


@dataclass(frozen=True)
class FeatureSchema:
    """Maps column roles to CSV column names.

    ``compressible_columns`` fixes the internal feature order; files may list
    columns in any order because ingestion is header-driven.
    """

    identity_columns: tuple[str, ...] = DEFAULT_IDENTITY_COLUMNS
    compressible_columns: tuple[str, ...] = DEFAULT_COMPRESSIBLE_COLUMNS
    label_column: str | None = DEFAULT_LABEL_COLUMN

    def __post_init__(self):
        object.__setattr__(self, "identity_columns", tuple(self.identity_columns))
        object.__setattr__(self, "compressible_columns", tuple(self.compressible_columns))
        if len(self.compressible_columns) != N_FEATURES:
            raise SchemaError(
                f"schema must name exactly {N_FEATURES} compressible columns, "
                f"got {len(self.compressible_columns)}"
            )
        if "" in self.all_columns:
            # "" would match a blank CSV header cell, and the .fclz header
            # uses it to mean "no label column".
            raise SchemaError("schema column names must not be empty")
        repeated = sorted({c for c in self.all_columns if self.all_columns.count(c) > 1})
        if repeated:
            # Dataset keys its identity columns by name, so a name has one place.
            raise SchemaError(f"column(s) named more than once in the schema: {repeated}")

    @property
    def all_columns(self) -> tuple[str, ...]:
        cols = self.identity_columns + self.compressible_columns
        if self.label_column is not None:
            cols = cols + (self.label_column,)
        return cols


class Dataset:
    """Immutable flow records by column: ``features`` is N x 21 float64 in
    ``schema.compressible_columns`` order, ``identities`` maps each of
    ``schema.identity_columns`` to its N verbatim strings,
    and ``labels`` holds N strings or is None for an unlabeled set."""

    def __init__(
        self,
        schema: FeatureSchema,
        features: np.ndarray,
        identities: dict[str, list[str]],
        labels: list[str] | None,
    ):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != N_FEATURES:
            raise DataError(f"feature matrix must be Nx{N_FEATURES}, got {features.shape}")
        n = features.shape[0]
        sizes = {c: len(v) for c, v in identities.items()}
        if sizes != dict.fromkeys(schema.identity_columns, n):
            raise DataError(f"identity cells per column {sizes} != schema {list(schema.identity_columns)} x {n} rows")
        if labels is not None and (len(labels) != n or schema.label_column is None):
            raise DataError("labels need a schema label column and one label per feature row")
        self.schema = schema
        self.features = features
        self.features.setflags(write=False)
        self.identities = identities
        self.labels = labels
        if labels is None:
            self.class_names: list[str] = []
            self.label_ids = None
        else:
            self.class_names = sorted(set(labels))
            index = {name: i for i, name in enumerate(self.class_names)}
            self.label_ids = np.array([index[v] for v in labels], dtype=np.int64)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None


class SplitIndices(NamedTuple):
    """Disjoint, exhaustive train/test row partition, each side an
    ascending int64 array of row numbers."""

    train: np.ndarray
    test: np.ndarray


def _header_index(reader, path: Path, schema: FeatureSchema) -> dict[str, int]:
    """Read the header row from ``reader`` and map each column name to its
    position, refusing an empty file or a header that lacks a schema column."""
    header = next(reader, None)
    if header is None:
        raise EmptyDatasetError(f"{path}: file is empty")
    col_index = {name: i for i, name in enumerate(header)}
    missing = [c for c in schema.all_columns if c not in col_index]
    if missing:
        raise SchemaError(f"{path}: missing column(s) {missing}")
    return col_index


def load_csv(path: str | Path, schema: FeatureSchema | None = None) -> Dataset:
    """Parse a header-driven CSV into a Dataset.

    Columns not named by the schema are ignored. Identity and label cells
    are kept verbatim; feature cells must parse as finite reals. numpy's C
    reader parses the file (`_loadtxt_table`). A file that reader refuses,
    that gives no rows or a non-finite value, or that it might read
    otherwise than csv.reader is read row by row instead (`_read_rows`),
    which returns the same Dataset or raises the error that names the
    file's first fault.
    """
    schema = schema or FeatureSchema()
    path = Path(path)
    text_columns = schema.identity_columns
    if schema.label_column is not None:
        text_columns += (schema.label_column,)
    table = _loadtxt_table(path, schema, text_columns)
    if table is None:
        return _read_rows(path, schema)
    features, cells = table
    labels = cells.pop(schema.label_column) if schema.label_column is not None else None
    return Dataset(schema, features, cells, labels)


def read_features(path: str | Path, schema: FeatureSchema | None = None) -> np.ndarray:
    """The read-only N x 21 float64 matrix that ``load_csv(path,
    schema).features`` returns, read by the same rules; identity and label
    cells are not parsed at all."""
    schema = schema or FeatureSchema()
    path = Path(path)
    table = _loadtxt_table(path, schema, ())
    return _read_rows(path, schema).features if table is None else table[0]


def _read_rows(path: Path, schema: FeatureSchema) -> Dataset:
    """load_csv's reader for a file numpy's reader does not take: csv.reader
    row by row and float() cell by cell. Its errors name the row and
    column of the first bad cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            col_index = _header_index(reader, path, schema)
            width = 1 + max(col_index[c] for c in schema.all_columns)
            feat_idx = [col_index[c] for c in schema.compressible_columns]
            feature_cells = itemgetter(*feat_idx)
            identities: dict[str, list[str]] = {c: [] for c in schema.identity_columns}
            ident_idx = [(identities[c], col_index[c]) for c in schema.identity_columns]
            label_idx = col_index[schema.label_column] if schema.label_column is not None else None

            feature_rows: list[list[float]] = []
            labels: list[str] | None = [] if label_idx is not None else None
            for row_no, row in enumerate(reader, start=1):
                if not row:
                    continue
                if len(row) < width:
                    lacking = next(c for c in schema.all_columns if col_index[c] >= len(row))
                    raise RowParseError(f"{path}: row {row_no}, column {lacking!r}: cell missing")
                try:
                    values = list(map(float, feature_cells(row)))
                except ValueError:
                    values = None
                # A finite sum means every value is finite. Any other row is
                # checked cell by cell, which names its first bad cell.
                if values is None or not math.isfinite(sum(values)):
                    values = []
                    for col, j in zip(schema.compressible_columns, feat_idx):
                        try:
                            v = float(row[j])
                        except ValueError as e:
                            raise RowParseError(
                                f"{path}: row {row_no}, column {col!r}: cannot parse {row[j]!r} as a number"
                            ) from e
                        if not math.isfinite(v):
                            raise RowParseError(f"{path}: row {row_no}, column {col!r}: non-finite value {row[j]!r}")
                        values.append(v)
                feature_rows.append(values)
                for cells, j in ident_idx:
                    cells.append(row[j])
                if labels is not None:
                    labels.append(row[label_idx])
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: unreadable CSV after reading {reader.line_num} line(s): {exc}") from exc

    if not feature_rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    return Dataset(schema, np.array(feature_rows, dtype=np.float64), identities, labels)


# Bytes on which np.loadtxt and csv.reader with float() can disagree: NUL,
# which csv refuses before Python 3.11, and 0x1C-0x1F, which numpy strips
# from a number as whitespace where float() refuses it.
_LOADTXT_UNSAFE = (b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _loadtxt_agrees(data: bytes) -> bool:
    """Whether np.loadtxt is sure to split and parse ``data`` as _read_rows does.

    Besides the bytes above, csv.reader refuses a cell longer than
    csv.field_size_limit(), and loadtxt has no such limit. A file no longer
    than the limit holds no such cell. Nor does an unquoted file in which
    every aligned window of half the limit holds a line end, since an
    unquoted cell lies within one line. Larger quoted files are not judged.
    """
    if any(b in data for b in _LOADTXT_UNSAFE):
        return False
    limit = csv.field_size_limit()
    if len(data) <= limit:
        return True
    if b'"' in data:
        return False
    half = max(limit // 2, 1)
    return all(
        data.find(b"\n", i, i + half) >= 0 or data.find(b"\r", i, i + half) >= 0
        for i in range(0, len(data) - half + 1, half)
    )


def _loadtxt_table(path: Path, schema: FeatureSchema, text_columns: tuple[str, ...]):
    """(feature matrix, {column: its cells}) of the CSV at ``path`` as one
    np.loadtxt call parses it, with the verbatim cells of each of
    ``text_columns`` as a list of str; or None where `_read_rows` must read
    the file: loadtxt refuses it, finds no rows or a non-finite value, or it
    might read the file otherwise than csv.reader (`_loadtxt_agrees`). A
    header is refused by the same check in both readers.

    Each row is one record: the features as float64 (``f``), the text cells
    as Python str (``t``), not a fixed-width numpy string, which one long
    cell would widen for every row. Where no parsed column is the rightmost
    schema column, its cell (``w``) is read too, only so that a row that
    stops short of it is refused as _read_rows refuses it.
    """
    if not _loadtxt_agrees(path.read_bytes()):
        return None
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            col_index = _header_index(csv.reader(fh), path, schema)
            usecols = [col_index[c] for c in schema.compressible_columns + text_columns]
            fields = [("f", np.float64, (N_FEATURES,))]
            if text_columns:
                fields.append(("t", object, (len(text_columns),)))
            rightmost = max(col_index[c] for c in schema.all_columns)
            if rightmost not in usecols:
                usecols.append(rightmost)
                fields.append(("w", "U1"))
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(
                    fh, dtype=np.dtype(fields), delimiter=",", quotechar='"', comments=None,
                    usecols=usecols, ndmin=1,
                )
        except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
            return None
    if len(table) == 0 or not np.isfinite(table["f"]).all():
        return None
    features = np.ascontiguousarray(table["f"])
    features.setflags(write=False)
    cells = table["t"].T.tolist() if text_columns else []
    return features, dict(zip(text_columns, cells))


_WRITE_ROWS = 1024  # rows formatted per block: few enough that format_rows works in cache
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quote_minimal(cells: list[str]) -> list[str]:
    """csv's QUOTE_MINIMAL rule: a cell holding ``,``, ``"``, ``\\r`` or
    ``\\n`` is wrapped in double quotes with each inner quote doubled."""
    joined = "".join(cells)
    # Four substring scans take a sixth of the time of one regex search.
    if not any(ch in joined for ch in ',"\r\n'):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells]


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset back out in schema column order, byte for byte as
    `csv.writer` would write the cells: lines end in ``\\r\\n``, and
    identity and label cells follow csv's QUOTE_MINIMAL rule
    (`_quote_minimal`). A feature cell is ``str(int(v))`` for an integral
    ``|v| < 2**53`` and ``repr(v)`` otherwise; `_float_text.format_rows`
    writes a block's feature cells at once and never needs quotes.
    Non-finite features are refused with DataError."""
    if not np.isfinite(dataset.features).all():
        raise DataError(f"{path}: refusing to write non-finite feature values")
    schema = dataset.schema
    n = len(dataset)
    with atomic_write(path) as fh:
        fh.write(",".join(_quote_minimal(list(schema.all_columns))) + "\r\n")
        for start in range(0, n, _WRITE_ROWS):
            block = slice(start, min(start + _WRITE_ROWS, n))
            columns = [_quote_minimal(dataset.identities[c][block]) for c in schema.identity_columns]
            columns.append(format_rows(dataset.features[block]))
            if schema.label_column is not None:
                labels = dataset.labels[block] if dataset.labels is not None else [""] * (block.stop - start)
                columns.append(_quote_minimal(labels))
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def stratified_split(dataset: Dataset, test_fraction: float, seed: int) -> SplitIndices:
    """The train/test split of every stage: a seeded shuffle within each
    class, then a prefix take as the test rows.

    Classes are ``dataset.label_ids``; an unlabeled dataset is one class,
    named ``'(unlabeled)'`` in errors. Each class needs at least 2 rows. Its
    test count is floor(fraction * n_c); the rows these counts fall short of
    round(fraction * n) go one each to the largest classes (ties by name),
    never emptying a class's train side. One ``default_rng(seed)`` draws one
    permutation per class, in class-id order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(dataset)
    if dataset.label_ids is None:
        names, ids = ["(unlabeled)"], np.zeros(n, dtype=np.int64)
    else:
        names, ids = dataset.class_names, dataset.label_ids
    counts = np.bincount(ids, minlength=len(names)).tolist()
    for name, c in zip(names, counts):
        if c < 2:
            raise DataError(f"class {name!r} has only {c} record(s); need at least 2")

    base = [math.floor(test_fraction * c) for c in counts]
    remainder = round(test_fraction * n) - sum(base)
    for k in sorted(range(len(counts)), key=lambda k: -counts[k]):
        if remainder <= 0:
            break
        if base[k] + 1 < counts[k]:
            base[k] += 1
            remainder -= 1

    rng = np.random.default_rng(seed)
    by_class = np.split(np.argsort(ids, kind="stable").astype(np.int64), np.cumsum(counts)[:-1])
    test, train = [], []
    for rows, k in zip(by_class, base):
        shuffled = rows[rng.permutation(rows.size)]
        test.append(shuffled[:k])
        train.append(shuffled[k:])
    return SplitIndices(train=np.sort(np.concatenate(train)), test=np.sort(np.concatenate(test)))


@dataclass
class SyntheticClassSpec:
    """Log-normal marginals for one traffic class.

    ``lognormal_params`` maps each compressible column to (mu, sigma) of the
    underlying normal. Flow volumes are heavy-tailed, hence log-normal.
    """

    name: str
    lognormal_params: dict[str, tuple[float, float]] = field(default_factory=dict)

    @classmethod
    def from_medians(cls, name: str, medians: dict[str, float], sigma: float) -> "SyntheticClassSpec":
        # Median of lognormal(mu, sigma) is exp(mu).
        return cls(name=name, lognormal_params={k: (math.log(v), sigma) for k, v in medians.items()})


# Rough per-class feature medians for the default 5-class synthetic mix.
# Scales are flow-realistic: durations in ms, packet sizes in bytes.
_DEFAULT_PROFILES: dict[str, dict[str, float]] = {
    "web": {
        "bidirectional_duration_ms": 900, "bidirectional_packets": 30, "bidirectional_bytes": 45_000,
        "src2dst_duration_ms": 850, "src2dst_packets": 12, "src2dst_bytes": 2_400,
        "dst2src_duration_ms": 830, "dst2src_packets": 18, "dst2src_bytes": 42_000,
        "bidirectional_min_ps": 60, "bidirectional_mean_ps": 640, "bidirectional_stddev_ps": 430, "bidirectional_max_ps": 1460,
        "src2dst_min_ps": 52, "src2dst_mean_ps": 210, "src2dst_stddev_ps": 160, "src2dst_max_ps": 620,
        "dst2src_min_ps": 80, "dst2src_mean_ps": 980, "dst2src_stddev_ps": 390, "dst2src_max_ps": 1480,
    },
    "video": {
        "bidirectional_duration_ms": 42_000, "bidirectional_packets": 2_900, "bidirectional_bytes": 3_400_000,
        "src2dst_duration_ms": 41_000, "src2dst_packets": 420, "src2dst_bytes": 32_000,
        "dst2src_duration_ms": 41_500, "dst2src_packets": 2_500, "dst2src_bytes": 3_350_000,
        "bidirectional_min_ps": 64, "bidirectional_mean_ps": 1120, "bidirectional_stddev_ps": 480, "bidirectional_max_ps": 1500,
        "src2dst_min_ps": 54, "src2dst_mean_ps": 88, "src2dst_stddev_ps": 40, "src2dst_max_ps": 380,
        "dst2src_min_ps": 140, "dst2src_mean_ps": 1320, "dst2src_stddev_ps": 260, "dst2src_max_ps": 1500,
    },
    "voip": {
        "bidirectional_duration_ms": 65_000, "bidirectional_packets": 5_800, "bidirectional_bytes": 950_000,
        "src2dst_duration_ms": 64_500, "src2dst_packets": 2_900, "src2dst_bytes": 480_000,
        "dst2src_duration_ms": 64_600, "dst2src_packets": 2_900, "dst2src_bytes": 470_000,
        "bidirectional_min_ps": 58, "bidirectional_mean_ps": 165, "bidirectional_stddev_ps": 28, "bidirectional_max_ps": 240,
        "src2dst_min_ps": 58, "src2dst_mean_ps": 164, "src2dst_stddev_ps": 26, "src2dst_max_ps": 235,
        "dst2src_min_ps": 58, "dst2src_mean_ps": 166, "dst2src_stddev_ps": 27, "dst2src_max_ps": 238,
    },
    "bulk": {
        "bidirectional_duration_ms": 12_000, "bidirectional_packets": 12_500, "bidirectional_bytes": 16_500_000,
        "src2dst_duration_ms": 11_900, "src2dst_packets": 8_300, "src2dst_bytes": 11_900_000,
        "dst2src_duration_ms": 11_850, "dst2src_packets": 4_200, "dst2src_bytes": 4_600_000,
        "bidirectional_min_ps": 66, "bidirectional_mean_ps": 1330, "bidirectional_stddev_ps": 310, "bidirectional_max_ps": 1500,
        "src2dst_min_ps": 66, "src2dst_mean_ps": 1430, "src2dst_stddev_ps": 190, "src2dst_max_ps": 1500,
        "dst2src_min_ps": 60, "dst2src_mean_ps": 1100, "dst2src_stddev_ps": 410, "dst2src_max_ps": 1490,
    },
    "chat": {
        "bidirectional_duration_ms": 260, "bidirectional_packets": 9, "bidirectional_bytes": 2_100,
        "src2dst_duration_ms": 240, "src2dst_packets": 5, "src2dst_bytes": 900,
        "dst2src_duration_ms": 230, "dst2src_packets": 4, "dst2src_bytes": 1_200,
        "bidirectional_min_ps": 62, "bidirectional_mean_ps": 233, "bidirectional_stddev_ps": 120, "bidirectional_max_ps": 540,
        "src2dst_min_ps": 60, "src2dst_mean_ps": 180, "src2dst_stddev_ps": 95, "src2dst_max_ps": 430,
        "dst2src_min_ps": 64, "dst2src_mean_ps": 300, "dst2src_stddev_ps": 130, "dst2src_max_ps": 560,
    },
}


def default_class_specs(sigma: float = DEFAULT_SIGMA) -> list[SyntheticClassSpec]:
    return [SyntheticClassSpec.from_medians(name, med, sigma) for name, med in _DEFAULT_PROFILES.items()]


_COUNT_COLUMNS = ("src2dst_packets", "src2dst_bytes", "dst2src_packets", "dst2src_bytes")


def generate_synthetic(
    n_per_class: int,
    class_specs: list[SyntheticClassSpec],
    seed: int,
    schema: FeatureSchema | None = None,
) -> Dataset:
    """Draw a labeled synthetic dataset with flow-consistency constraints.

    After sampling the marginals, bidirectional packet/byte counts are
    rewritten as the sum of the directional counts, per-direction packet size
    statistics are reordered so min <= mean <= max, and counts are rounded to
    integers. Deterministic for a fixed seed.
    """
    if len(class_specs) < 2:
        raise ConfigError(f"need at least 2 class specs, got {len(class_specs)}")
    names = [spec.name for spec in class_specs]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        # A class is its label, so two specs of one name would draw one class twice.
        raise ConfigError(f"class spec name(s) used more than once: {repeated}")
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    schema = schema or FeatureSchema()
    cols = schema.compressible_columns
    col_pos = {c: i for i, c in enumerate(cols)}

    rng = np.random.default_rng(seed)
    blocks: list[np.ndarray] = []
    identities: dict[str, list[str]] = {c: [] for c in schema.identity_columns}
    labels: list[str] = []
    for spec in class_specs:
        missing = [c for c in cols if c not in spec.lognormal_params]
        if missing:
            raise ConfigError(f"class {spec.name!r} is missing parameters for {missing}")
        block = np.empty((n_per_class, N_FEATURES), dtype=np.float64)
        for j, c in enumerate(cols):
            mu, sg = spec.lognormal_params[c]
            if not (math.isfinite(sg) and sg >= 0):
                raise ConfigError(f"class {spec.name!r}: sigma of {c} must be finite and >= 0, got {sg}")
            block[:, j] = rng.lognormal(mu, sg, n_per_class)

        # Counts are integers; directional flows carry at least one packet.
        for c in _COUNT_COLUMNS:
            if c in col_pos:
                block[:, col_pos[c]] = np.maximum(np.rint(block[:, col_pos[c]]), 1.0)
        # Additive consistency: both directions sum to the bidirectional total.
        for metric in ("packets", "bytes"):
            b, s, d = f"bidirectional_{metric}", f"src2dst_{metric}", f"dst2src_{metric}"
            if b in col_pos and s in col_pos and d in col_pos:
                block[:, col_pos[b]] = block[:, col_pos[s]] + block[:, col_pos[d]]
        # Packet size ordering within each direction.
        for d in _DIRECTIONS:
            names = (f"{d}_min_ps", f"{d}_mean_ps", f"{d}_max_ps")
            if all(nm in col_pos for nm in names):
                sub = np.sort(block[:, [col_pos[nm] for nm in names]], axis=1)
                for k, nm in enumerate(names):
                    block[:, col_pos[nm]] = sub[:, k]
        if not np.isfinite(block).all():
            raise ConfigError(f"class {spec.name!r}: its mu and sigma give values beyond float64")
        blocks.append(block)
        for c, cells in _synthetic_identities(schema, block, col_pos, n_per_class, rng).items():
            identities[c].extend(cells)
        labels.extend([spec.name] * n_per_class)

    return Dataset(schema, np.vstack(blocks), identities, labels if schema.label_column is not None else None)


def _synthetic_identities(
    schema: FeatureSchema,
    block: np.ndarray,
    col_pos: dict[str, int],
    n: int,
    rng: np.random.Generator,
) -> dict[str, list[str]]:
    base_ms = 1_700_000_000_000
    # Cells are built from Python scalars (.tolist()), which format several
    # times faster than numpy's; an int plus a float rounds as int64 + float64.
    first_seen = (base_ms + rng.integers(0, 86_400_000, n)).tolist()
    duration = (
        block[:, col_pos["bidirectional_duration_ms"]]
        if "bidirectional_duration_ms" in col_pos
        else np.zeros(n)
    )
    octets = rng.integers(1, 255, size=(n, 4))
    generic = {
        "src_ip": [f"10.0.{a}.{b}" for a, b in octets[:, :2].tolist()],
        "dst_ip": [f"192.168.{a}.{b}" for a, b in octets[:, 2:].tolist()],
        "src_port": [str(p) for p in rng.integers(1024, 65535, n).tolist()],
        "dst_port": [str(p) for p in rng.choice([53, 80, 123, 443, 8080, 8443], n).tolist()],
        "protocol": [str(p) for p in rng.choice([6, 17], n).tolist()],
        "bidirectional_first_seen_ms": [str(t) for t in first_seen],
        "bidirectional_last_seen_ms": [str(int(t + d)) for t, d in zip(first_seen, duration.tolist())],
    }
    return {c: generic[c] if c in generic else [f"{c}_{i}" for i in range(n)] for c in schema.identity_columns}
