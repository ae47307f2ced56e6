"""Core dataset and partition types plus CSV ingestion and centering.

A :class:`Dataset` is an n x D feature matrix paired with an n x L target
matrix.  The homogeneous variant additionally carries one n x D feature slab
per task; in that case ``features`` holds the elementwise mean of the slabs
as a shared view.  A CSV file's header is read by ``csv`` and its body by
one ``np.loadtxt`` call (see :func:`load_dataset`).

All types are immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

import csv
import re
import warnings
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


def _seed(value) -> int:
    """A seed reduced modulo 2**64; only a Python or numpy integer, not a ``bool``, is one."""
    if not _is_int(value):
        raise ValidationError(f"seed must be an integer, got {value!r}")
    return int(value) % (1 << 64)


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


def _not_utf8(p: Path, exc: UnicodeDecodeError) -> ValidationError:
    return ValidationError(
        f"{p}: not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})"
    )


def _read_header(p: Path) -> tuple[list[str], int]:
    """The stripped names of the header record of ``p`` and the lines it takes."""
    if not p.exists():
        raise ValidationError(f"no such file: {p}")
    with p.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return [h.strip() for h in next(reader)], reader.line_num
        except StopIteration:
            raise ValidationError(f"{p}: empty file") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(p, exc) from None


def _read_body(p: Path, header: Sequence[str], skip: int) -> np.ndarray:
    """The lines of ``p`` after its first ``skip`` as a table; see :func:`load_dataset`."""
    try:
        with warnings.catch_warnings():
            # A body without rows is refused below.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(p, delimiter=",", skiprows=skip, comments=None, ndmin=2,
                               encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(p, exc) from None
    except ValueError as exc:
        message = re.sub(r"^(the number of columns changed from \d+ to \d+ at row )(\d+);.*",
                         lambda m: f"{m[1]}{int(m[2]) - 1}", str(exc))
        raise ValidationError(f"{p}: {message}") from None
    rows, width = table.shape
    if rows < 2:
        raise ValidationError(f"{p}: need at least 2 data rows, got {rows}")
    if width != len(header):
        raise ValidationError(f"{p}: {len(header)} columns in the header, {width} in rows")
    if not np.isfinite(table).all():
        i, k = np.argwhere(~np.isfinite(table))[0]
        raise ValidationError(
            f"{p}: non-finite value {table[i, k]} at row {i}, column {header[k]!r}"
        )
    return table


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

    The header is read by ``csv``, so a name may be quoted.  The body is
    read by ``np.loadtxt``: unquoted numbers, white space around a cell
    allowed, LF, CRLF or a lone CR ending a line, blank lines skipped.  A
    refusal names the file.  A cell loadtxt cannot convert (quoted, ``1_0``,
    ``x``, empty) keeps loadtxt's message; a ragged row is named by its
    column counts and a non-finite value in any column by its column.  Each
    names its row as loadtxt names a bad cell's: from 0 after the header,
    blank lines not counted.  Rows wider or narrower than the header, and
    fewer than two rows, are refused too.
    """
    p = Path(path)
    target_set = set(_names(targets, "targets"))
    ignore_set = set(_names(ignore, "ignore"))
    both = sorted(target_set & ignore_set)
    if both:
        raise ValidationError(f"columns {both} are named both as targets and as ignored")
    header, header_lines = _read_header(p)
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

    table = _read_body(p, header, header_lines)
    index = {name: k for k, name in enumerate(header)}

    def columns(names):
        return table[:, [index[c] for c in names]]

    Y = columns(target_cols)
    if not homogeneous:
        return Dataset(columns(feature_cols), Y, feature_names=tuple(feature_cols),
                       target_names=tuple(target_cols))
    slabs = tuple(columns(slab_cols[t]) for t in target_cols)
    return Dataset(np.mean(np.stack(slabs), axis=0), Y,
                   feature_names=tuple(slab_names[target_cols[0]]),
                   target_names=tuple(target_cols), per_task_features=slabs)


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
