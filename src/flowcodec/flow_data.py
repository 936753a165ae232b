"""Flow record schema, CSV ingestion, stratified splitting, synthetic data.

A flow record is the unit of data everywhere else in the package: a set of
opaque identity columns (addresses, ports, timestamps -- never transformed),
exactly 21 numeric features that are eligible for lossy compression, and an
optional class label used by the downstream classifier.

`Dataset` is the one in-memory model of those records, stored by column.
`FeatureSchema` decides which columns exist and in what order; the CSV reader
and writer here and the `.fclz` container in `latent` take that order from it.
`read_features` reads only the feature matrix of a CSV, for a caller that
needs nothing else.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

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

    def to_dict(self) -> dict:
        return {
            "identity_columns": list(self.identity_columns),
            "compressible_columns": list(self.compressible_columns),
            "label_column": self.label_column,
        }


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


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint, exhaustive train/test row partition."""

    train: tuple[int, ...]
    test: tuple[int, ...]
    seed: int


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

    Columns not named by the schema are ignored. Identity cells are kept
    verbatim; feature cells must parse as finite reals.
    """
    schema = schema or FeatureSchema()
    path = Path(path)
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


# One row as read_features asks np.loadtxt for it: the feature cells, then
# the cell of the rightmost schema column, read only so that a row that
# stops short of it is refused as load_csv refuses it.
_FEATURE_ROW = np.dtype([("f", np.float64, (N_FEATURES,)), ("w", "U1")])
# Bytes on which np.loadtxt and csv.reader with float() can disagree: NUL,
# which csv refuses before Python 3.11, and 0x1C-0x1F, which numpy strips
# from a number as whitespace where float() refuses it.
_LOADTXT_UNSAFE = (b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _loadtxt_agrees(data: bytes) -> bool:
    """Whether np.loadtxt is sure to split and parse ``data`` as load_csv does.

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


def read_features(path: str | Path, schema: FeatureSchema | None = None) -> np.ndarray:
    """The read-only N x 21 float64 matrix that ``load_csv(path,
    schema).features`` returns, parsed by numpy's C reader; identity and
    label cells are not kept.

    A file that reader refuses, that gives no rows or a non-finite value,
    or that it might read otherwise than csv.reader (`_loadtxt_agrees`) is
    read by load_csv instead, which returns the same matrix or raises its
    own error. A header is refused by the same check in both readers.
    """
    schema = schema or FeatureSchema()
    path = Path(path)
    table = None
    if _loadtxt_agrees(path.read_bytes()):
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                col_index = _header_index(csv.reader(fh), path, schema)
                usecols = [col_index[c] for c in schema.compressible_columns]
                usecols.append(max(col_index[c] for c in schema.all_columns))
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    table = np.loadtxt(
                        fh, dtype=_FEATURE_ROW, delimiter=",", quotechar='"', comments=None,
                        usecols=usecols, ndmin=1,
                    )
            except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
                pass  # load_csv reads the file below and names its fault
    if table is None or len(table) == 0 or not np.isfinite(table["f"]).all():
        return load_csv(path, schema).features
    features = np.ascontiguousarray(table["f"])
    features.setflags(write=False)
    return features


_WRITE_ROWS = 8192  # rows formatted per block, to bound the strings held at once
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quote_minimal(cells: list[str]) -> list[str]:
    """csv's QUOTE_MINIMAL rule: a cell holding ``,``, ``"``, ``\\r`` or
    ``\\n`` is wrapped in double quotes with each inner quote doubled."""
    if _NEEDS_QUOTES.search("".join(cells)) is None:
        return cells
    return ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells]


def _format_feature(column: np.ndarray) -> list[str]:
    # Integral values print as ints so counts stay clean; everything else uses
    # repr, which round-trips float64 exactly.
    integral = (column == np.trunc(column)) & (np.abs(column) < 2**53)
    cells = np.empty(column.shape[0], dtype=object)
    cells[integral] = list(map(str, column[integral].astype(np.int64).tolist()))
    cells[~integral] = list(map(repr, column[~integral].tolist()))
    return cells.tolist()


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset back out in schema column order, byte for byte as
    `csv.writer` would: lines end in ``\\r\\n``, and identity and label
    cells follow csv's QUOTE_MINIMAL rule (`_quote_minimal`). Feature cells
    are ints or float reprs, formatted a column at a time, and never need
    quotes; non-finite features are refused with DataError. Lines are joined
    here because csv.writer takes about a third longer over the same cells."""
    if not np.isfinite(dataset.features).all():
        raise DataError(f"{path}: refusing to write non-finite feature values")
    schema = dataset.schema
    n = len(dataset)
    with atomic_write(path) as fh:
        fh.write(",".join(_quote_minimal(list(schema.all_columns))) + "\r\n")
        for start in range(0, n, _WRITE_ROWS):
            block = slice(start, min(start + _WRITE_ROWS, n))
            columns = [_quote_minimal(dataset.identities[c][block]) for c in schema.identity_columns]
            columns += [_format_feature(column) for column in dataset.features[block].T]
            if schema.label_column is not None:
                labels = dataset.labels[block] if dataset.labels is not None else [""] * (block.stop - start)
                columns.append(_quote_minimal(labels))
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def stratified_split(dataset: Dataset, test_fraction: float, seed: int) -> SplitIndices:
    """Deterministic per-class split: seeded shuffle within each class, then
    prefix take. Per-class test counts are floor(fraction * n_c) with the
    remainder given to the largest classes."""
    if not dataset.is_labeled:
        raise DataError("stratified split requires a labeled dataset")
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")

    n = len(dataset)
    by_class: dict[str, list[int]] = {name: [] for name in dataset.class_names}
    for i, label in enumerate(dataset.labels):
        by_class[label].append(i)
    for name, idx in by_class.items():
        if len(idx) < 2:
            raise DataError(f"class {name!r} has only {len(idx)} record(s); need at least 2")

    counts = {name: len(idx) for name, idx in by_class.items()}
    base = {name: int(math.floor(test_fraction * c)) for name, c in counts.items()}
    remainder = round(test_fraction * n) - sum(base.values())
    # Hand the remainder to the largest classes, never emptying a class's
    # train side.
    for name in sorted(counts, key=lambda k: (-counts[k], k)):
        if remainder <= 0:
            break
        if base[name] + 1 < counts[name]:
            base[name] += 1
            remainder -= 1

    rng = np.random.default_rng(seed)
    test: list[int] = []
    train: list[int] = []
    for name in dataset.class_names:
        idx = np.array(by_class[name], dtype=np.int64)
        shuffled = idx[rng.permutation(len(idx))]
        k = base[name]
        test.extend(shuffled[:k].tolist())
        train.extend(shuffled[k:].tolist())
    return SplitIndices(train=tuple(sorted(train)), test=tuple(sorted(test)), seed=seed)


def random_split(n: int, test_fraction: float, seed: int) -> SplitIndices:
    """Unstratified seeded split, for unlabeled datasets."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    k = round(test_fraction * n)
    return SplitIndices(
        train=tuple(sorted(perm[k:].tolist())), test=tuple(sorted(perm[:k].tolist())), seed=seed
    )


@dataclass
class SyntheticClassSpec:
    """Log-normal marginals for one traffic class.

    ``lognormal_params`` maps each compressible column to (mu, sigma) of the
    underlying normal. Flow volumes are heavy-tailed, hence log-normal.
    """

    name: str
    lognormal_params: dict[str, tuple[float, float]] = field(default_factory=dict)

    @classmethod
    def from_medians(cls, name: str, medians: dict[str, float], sigma: float = 0.35) -> "SyntheticClassSpec":
        # Median of lognormal(mu, sigma) is exp(mu).
        return cls(name=name, lognormal_params={k: (math.log(v), sigma) for k, v in medians.items()})

    def to_dict(self) -> dict:
        return {"name": self.name, "lognormal_params": {k: list(v) for k, v in self.lognormal_params.items()}}

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticClassSpec":
        return cls(
            name=d["name"],
            lognormal_params={k: (float(v[0]), float(v[1])) for k, v in d["lognormal_params"].items()},
        )


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
    first_seen = base_ms + rng.integers(0, 86_400_000, n)
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
