"""Core dataset and partition types plus CSV ingestion and centering.

A :class:`Dataset` is an n x D feature matrix paired with an n x L target
matrix.  The homogeneous variant additionally carries one n x D feature slab
per task; in that case ``features`` holds the elementwise mean of the slabs
as a shared view.

All types are immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "Dataset",
    "TaskPartition",
    "FeaturePartition",
    "CenterResult",
    "load_dataset",
    "save_dataset",
    "center",
]

def _locked(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        bad = np.argwhere(~np.isfinite(a))[0]
        raise ValidationError(
            f"{what} contains a non-finite entry at row {bad[0]}, column {bad[1]}"
        )


@dataclass(frozen=True)
class Dataset:
    """Immutable tabular dataset with shared features and one or more targets."""

    features: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...] = ()
    target_names: tuple[str, ...] = ()
    per_task_features: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        X = _locked(np.atleast_2d(self.features))
        Y = np.asarray(self.targets, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        Y = _locked(Y)
        if X.ndim != 2 or Y.ndim != 2:
            raise ValidationError("features and targets must be 2-D")
        n, D = X.shape
        if Y.shape[0] != n:
            raise ValidationError(
                f"features have {n} rows but targets have {Y.shape[0]}"
            )
        if n < 2:
            raise ValidationError(f"need at least 2 rows, got {n}")
        if D < 1 or Y.shape[1] < 1:
            raise ValidationError("need at least one feature and one target column")
        _check_finite(X, "features")
        _check_finite(Y, "targets")

        fnames = tuple(self.feature_names) or tuple(f"x{k}" for k in range(D))
        tnames = tuple(self.target_names) or tuple(f"y{k}" for k in range(Y.shape[1]))
        if len(fnames) != D:
            raise ValidationError(f"expected {D} feature names, got {len(fnames)}")
        if len(tnames) != Y.shape[1]:
            raise ValidationError(
                f"expected {Y.shape[1]} target names, got {len(tnames)}"
            )

        slabs = self.per_task_features
        if slabs is not None:
            if len(slabs) != Y.shape[1]:
                raise ValidationError(
                    f"expected {Y.shape[1]} per-task slabs, got {len(slabs)}"
                )
            locked_slabs = []
            for k, slab in enumerate(slabs):
                S = _locked(np.atleast_2d(slab))
                if S.shape != (n, D):
                    raise ValidationError(
                        f"per-task slab {k} has shape {S.shape}, expected {(n, D)}"
                    )
                _check_finite(S, f"per-task slab {k}")
                locked_slabs.append(S)
            slabs = tuple(locked_slabs)

        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", Y)
        object.__setattr__(self, "feature_names", fnames)
        object.__setattr__(self, "target_names", tnames)
        object.__setattr__(self, "per_task_features", slabs)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_tasks(self) -> int:
        return self.targets.shape[1]


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; ``bool`` is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy integer or float; ``bool`` is not one."""
    return _is_int(value) or isinstance(value, (float, np.floating))


def _cluster_means(matrix: np.ndarray, clusters, out=None) -> np.ndarray:
    # ``clusters`` is a sequence of index tuples, as a partition stores them.
    # A one-member mean is 0.0 + member / 1 (the sum starts from +0.0, which
    # turns -0.0 into 0.0); adding 0.0 gives the same bits without a reduction.
    # The result is column-major, the layout of matrix[:, index] + 0.0, which
    # the products of the means are pinned to; ``out``, when given, is such
    # an array of the result's shape.  Each multi-member mean is written into
    # its column as it is taken, so no temporary outlives its cluster.
    if out is None:
        out = np.empty((len(clusters), matrix.shape[0])).T
    np.take(matrix, [c[0] for c in clusters], axis=1, out=out, mode="clip")
    out += 0.0
    for i, c in enumerate(clusters):
        if len(c) > 1:
            np.mean(matrix[:, list(c)], axis=1, out=out[:, i])
    return out


@dataclass(frozen=True)
class _Partition:
    """Disjoint cover of ``range(size)`` by nonempty clusters of integer indices.

    Every construction is validated.  A partition stores no column means:
    a cluster's mean column is built where it is read (``apply_partition``).
    """

    clusters: tuple[tuple[int, ...], ...]
    size: int
    _what: ClassVar[str]

    def __post_init__(self):
        what, size = self._what, self.size
        if not _is_int(size) or size < 1:
            raise ValidationError(f"{what}: size must be an integer >= 1, got {size!r}")
        try:
            clusters = tuple(tuple(c) for c in self.clusters)
        except TypeError:
            raise ValidationError(f"{what}: clusters must be lists of indices") from None
        if not all(clusters):
            raise ValidationError(f"{what}: empty cluster")
        seen: set[int] = set()
        for i in (i for c in clusters for i in c):
            if not _is_int(i):
                raise ValidationError(f"{what}: index {i!r} is not an integer")
            if not 0 <= i < size:
                raise ValidationError(f"{what}: index {i} out of range [0, {size})")
            if i in seen:
                raise ValidationError(f"{what}: index {i} appears in two clusters")
            seen.add(i)
        if len(seen) != size:
            missing = sorted(set(range(size)) - seen)
            raise ValidationError(f"{what}: indices {missing} are not covered")
        object.__setattr__(self, "clusters", tuple(tuple(map(int, c)) for c in clusters))
        object.__setattr__(self, "size", int(size))

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


class TaskPartition(_Partition):
    """Partition of the task indices; a cluster's target is its members' mean."""

    _what = "task partition"


class FeaturePartition(_Partition):
    """Partition of the feature indices; a cluster's feature is its members' mean."""

    _what = "feature partition"


# ---------------------------------------------------------------------------
# Centering
# ---------------------------------------------------------------------------


def _center_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass mean removal so the residual mean is ~ulp even for large columns."""
    m1 = a.mean(axis=0)
    out = a - m1
    m2 = out.mean(axis=0)
    out -= m2
    return out, m1 + m2


@dataclass(frozen=True)
class CenterResult:
    """A centered dataset plus the column means that were removed.

    ``transform`` centers another dataset (typically a test split) with the
    means captured here, which keeps train and test in the same coordinates.
    ``constant_columns`` labels the zero-variance columns that centering
    turned into all-zero columns.
    """

    dataset: Dataset
    feature_means: np.ndarray
    target_means: np.ndarray
    per_task_feature_means: tuple[np.ndarray, ...] | None
    constant_columns: tuple[str, ...]

    def transform(self, other: Dataset) -> Dataset:
        if other.n_features != len(self.feature_means):
            raise ValidationError(
                f"dataset has {other.n_features} features, expected "
                f"{len(self.feature_means)}"
            )
        if other.n_tasks != len(self.target_means):
            raise ValidationError(
                f"dataset has {other.n_tasks} targets, expected "
                f"{len(self.target_means)}"
            )
        slabs = None
        if other.per_task_features is not None:
            if self.per_task_feature_means is None:
                raise ValidationError("centering was fit without per-task slabs")
            slabs = tuple(
                slab - m
                for slab, m in zip(other.per_task_features, self.per_task_feature_means)
            )
        return Dataset(
            features=other.features - self.feature_means,
            targets=other.targets - self.target_means,
            feature_names=other.feature_names,
            target_names=other.target_names,
            per_task_features=slabs,
        )


def _constant(a: np.ndarray, names: Sequence[str]) -> list[str]:
    """The names of the columns of ``a`` whose entries all equal the first row's."""
    return [name for name, flat in zip(names, np.all(a == a[0], axis=0)) if flat]


def center(dataset: Dataset) -> CenterResult:
    """Remove column means from every feature and target column.

    Constant columns become all-zero and are reported in
    ``constant_columns`` rather than treated as an error; downstream fits
    handle them through the minimum-norm policy.
    """
    X, fmeans = _center_columns(dataset.features)
    Y, tmeans = _center_columns(dataset.targets)

    constant = [f"feature:{name}" for name in _constant(X, dataset.feature_names)]
    constant += [f"target:{name}" for name in _constant(Y, dataset.target_names)]

    slab_means = None
    slabs = None
    if dataset.per_task_features is not None:
        centered_slabs = []
        means = []
        for t, slab in enumerate(dataset.per_task_features):
            S, m = _center_columns(slab)
            centered_slabs.append(S)
            means.append(m)
            constant += [
                f"task{t}_feature:{name}"
                for name in _constant(S, dataset.feature_names)
            ]
        slabs = tuple(centered_slabs)
        slab_means = tuple(means)

    centered = Dataset(
        features=X,
        targets=Y,
        feature_names=dataset.feature_names,
        target_names=dataset.target_names,
        per_task_features=slabs,
    )
    return CenterResult(
        dataset=centered,
        feature_means=_locked(fmeans),
        target_means=_locked(tmeans),
        per_task_feature_means=slab_means,
        constant_columns=tuple(constant),
    )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _parse_cell(cell: str, line: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValidationError(
            f"line {line}, column {column!r}: non-numeric value {cell.strip()!r}"
        ) from None
    if not math.isfinite(value):
        raise ValidationError(
            f"line {line}, column {column!r}: non-finite value {cell.strip()!r}"
        )
    return value


def _not_utf8(p: Path, exc: UnicodeDecodeError) -> ValidationError:
    return ValidationError(
        f"{p}: not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})"
    )


def _read_header(path) -> list[str]:
    """The column names on the first row of a CSV file, stripped."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"no such file: {p}")
    with p.open(newline="", encoding="utf-8") as fh:
        try:
            return [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise ValidationError(f"{p}: empty file") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(p, exc) from None


# Bytes that csv and ``float`` read otherwise than numpy's C reader does.  A
# carriage return is one of them only outside a CRLF pair.
_NOT_FOR_THE_C_READER = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# The scan before the C reader reads the body this many bytes at a time.
_CHUNK = 1 << 20


def _plain(chunk: bytes) -> bool:
    """Whether csv and numpy's C reader split ``chunk`` into the same cells.

    Only a chunk with a carriage return is counted for lone ones: the ``in``
    test is one memchr, where each count is a full scan.
    """
    return (not any(s in chunk for s in _NOT_FOR_THE_C_READER)
            and (b"\r" not in chunk or chunk.count(b"\r") == chunk.count(b"\r\n")))


def _read_table(p: Path, width: int) -> np.ndarray | None:
    """The body of ``p`` as numpy's C reader parses it, or None where it may not.

    The C reader converts a cell with the function Python's ``float`` uses,
    so a table it returns holds the bits :func:`_parse_table` would.  Its
    lines are not csv's, though: it does not know quotes, reads a lone
    carriage return as a line end, and skips blank lines, which csv reports
    as rows of zero fields.  It also strips the separators U+001C..U+001F
    around a number as white space, which ``float`` refuses.  So the table
    is taken only from a file without quotes, lone carriage returns or those
    separators, with one row per data line of the header's width and every
    value finite.  LF and CRLF line ends read alike, as the file is opened
    in universal-newline mode.  Any other file, including one with a cell
    the C reader refuses, returns None.  The file is scanned in chunks, so
    no second copy of it is held.
    """
    with p.open("rb") as fh:
        chunk = fh.readline()  # the header
        if fh.peek(1)[:1] in (b"\n", b"\r"):
            # A blank line (a body of only those makes loadtxt warn), or a
            # lone carriage return.
            return None
        rows, last = -1, b"\n"  # -1: the header's line end is counted too
        while chunk:
            if chunk.endswith(b"\r"):
                chunk += fh.read(1)  # keep a CRLF pair in one chunk
            if not _plain(chunk):
                return None
            rows += chunk.count(b"\n")
            last = chunk[-1:]
            chunk = fh.read(_CHUNK)
    rows += last != b"\n"
    if rows < 1:
        return None  # loadtxt warns on a body without rows
    try:
        table = np.loadtxt(p, delimiter=",", skiprows=1, comments=None, dtype=float,
                           ndmin=2, encoding="utf-8")
    except ValueError:
        return None
    if table.shape != (rows, width) or not np.isfinite(table).all():
        return None
    return table


def _parse_table(p: Path, header: Sequence[str]) -> np.ndarray:
    """The body of ``p`` parsed by csv; raises at the first bad row or cell."""
    rows: list[array] = []
    with p.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
            for raw in reader:
                line = reader.line_num
                if len(raw) != len(header):
                    raise ValidationError(
                        f"line {line}: expected {len(header)} fields, got {len(raw)}"
                    )
                # The whole row goes through float and isfinite in C, into an
                # array of doubles, so no float object outlives its row.  Only
                # a row that fails is scanned cell by cell, which raises at
                # its first bad cell.
                try:
                    row = array("d", map(float, raw))
                    if not all(map(math.isfinite, row)):
                        raise ValueError
                except ValueError:
                    for k, c in enumerate(raw):
                        _parse_cell(c, line, header[k])
                    raise AssertionError("unreachable: a failing row has a bad cell")
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise _not_utf8(p, exc) from None
    return np.frombuffer(b"".join(rows)).reshape(len(rows), len(header))


def _names(columns, what: str) -> tuple[str, ...]:
    """``columns`` as a tuple of column names; a bare string is not a list of them."""
    if isinstance(columns, str):
        raise ValidationError(
            f"{what} must be a sequence of column names, not the string {columns!r}"
        )
    return tuple(columns)


def _owners(name: str, targets: set[str]) -> list[str]:
    """The targets t for which ``name`` ends in ``@t``."""
    owners = []
    rest = name
    while "@" in rest:
        rest = rest.partition("@")[2]
        if rest in targets:
            owners.append(rest)
    return owners


def load_dataset(path, targets: Sequence[str], *, ignore: Sequence[str] = (),
                 homogeneous: bool = False) -> Dataset:
    """Load a CSV file into a validated :class:`Dataset`.

    ``targets`` and ``ignore`` name header columns, and every other column
    is a feature.  A name given as both, or absent from the header, is an
    error.  Column order in the file is preserved.

    With ``homogeneous`` each feature column must be named
    ``<feature>@<target>`` and goes to that target's per-task slab.  A
    target name may hold ``@`` itself, so a column goes to the one target t
    for which it ends in ``@t``, and a column that ends so for two targets
    is refused.  Every target must list the same features in the same
    order; the dataset's feature names are the bare ``<feature>`` parts.
    """
    p = Path(path)
    target_set = set(_names(targets, "targets"))
    ignore_set = set(_names(ignore, "ignore"))
    both = sorted(target_set & ignore_set)
    if both:
        raise ValidationError(f"columns {both} are named both as targets and as ignored")
    header = _read_header(p)
    if len(set(header)) != len(header):
        raise ValidationError(f"{p}: duplicate column names in header")
    named = target_set | ignore_set
    missing = sorted(named - set(header))
    if missing:
        raise ValidationError(f"columns {missing} not present in {p}")

    target_cols = [c for c in header if c in target_set]
    feature_cols = [c for c in header if c not in named]
    if not feature_cols:
        raise ValidationError("zero feature columns: every column is a target or ignored")
    if not target_cols:
        raise ValidationError("zero target columns given")

    if homogeneous:
        slab_cols: dict[str, list[str]] = {t: [] for t in target_cols}
        for c in feature_cols:
            owners = _owners(c, target_set)
            if not owners:
                raise ValidationError(
                    f"homogeneous mode: feature column {c!r} must be named "
                    "<feature>@<target> for one of the targets"
                )
            if len(owners) > 1:
                raise ValidationError(
                    f"homogeneous mode: column {c!r} ends in @<target> for "
                    f"the targets {sorted(owners)}"
                )
            slab_cols[owners[0]].append(c)
        slab_names = {t: [c[: -len(t) - 1] for c in cols] for t, cols in slab_cols.items()}
        # The shared view averages the slabs column by column, so every slab
        # must list the same features in the same order.
        first, *rest = target_cols
        for t in rest:
            if slab_names[t] != slab_names[first]:
                raise ValidationError(
                    f"per-task slabs: target {t!r} lists features {slab_names[t]}, "
                    f"but target {first!r} lists {slab_names[first]}"
                )

    index = {name: k for k, name in enumerate(header)}
    table = _read_table(p, len(header))
    if table is None:
        table = _parse_table(p, header)
    if table.shape[0] < 2:
        raise ValidationError(f"{p}: need at least 2 data rows, got {table.shape[0]}")

    Y = table[:, [index[c] for c in target_cols]]
    if homogeneous:
        slabs = tuple(
            table[:, [index[c] for c in slab_cols[t]]] for t in target_cols
        )
        features = np.mean(np.stack(slabs), axis=0)
        return Dataset(
            features=features,
            targets=Y,
            feature_names=tuple(slab_names[target_cols[0]]),
            target_names=tuple(target_cols),
            per_task_features=slabs,
        )

    features = table[:, [index[c] for c in feature_cols]]
    return Dataset(
        features=features,
        targets=Y,
        feature_names=tuple(feature_cols),
        target_names=tuple(target_cols),
    )


# Rows of a CSV body joined into one string before they are written.
_WRITE_BLOCK = 256


def _write_rows(fh, table: np.ndarray) -> None:
    """Write ``table`` as CSV rows of exact float reprs, a block of rows at a time.

    The bytes are those ``csv.writer`` writes: under its default dialect it
    quotes no float repr and ends each row with CRLF.
    """
    for start in range(0, table.shape[0], _WRITE_BLOCK):
        rows = table[start:start + _WRITE_BLOCK].tolist()
        fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in rows]))


def save_dataset(dataset: Dataset, path) -> None:
    """Write the shared feature view and targets as CSV (exact float repr)."""
    p = Path(path)
    with p.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(dataset.feature_names) + list(dataset.target_names))
        _write_rows(fh, np.hstack([dataset.features, dataset.targets]))
