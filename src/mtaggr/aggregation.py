"""Threshold tests and one greedy walk that aggregates targets, then features.

Phase I greedily partitions the targets: each candidate merge is accepted
when both threshold scalars (a variance-reduction term plus an explained-
variance penalty, from the OLS fits of the cluster mean, the candidate and
their merged mean on the full feature matrix) fall at or below
``epsilon1``.  Phase II repeats the same greedy walk over feature columns
for each aggregated target, accepting a merge when the in-sample R^2 drop
from replacing two columns with their mean is at most ``epsilon2``.  The
homogeneous variant walks the targets once more, merging each task's own
feature slab along with its target.

Inside the walk the candidate aggregate is the flat mean over the current
members plus the candidate, matching the columns the final output is built
from.

The walk (:func:`_greedy`) knows nothing of the data: a comparison model
opens a cluster, compares a candidate and accepts it.  A comparison makes
one new fit, the merged one (phase II's refit path also fits the matrix
before the merge when a cluster opens), and an accept makes that fit the
open cluster's:

* Phase I and the homogeneous variant are one model.  Each target carries
  a part, summed in walk order next to it: with shared features its
  residual off the column space of X, projected once (the fit of a target
  mean is the mean of the targets' fits, so the merged fit costs O(n)); in
  the homogeneous variant its own feature slab, whose mean slab is fitted
  from its column-scaled normal equations where they are proven to match
  lstsq, and with lstsq elsewhere (see :func:`mtaggr.linstats._gram_fit`).
  Each target's own fit is made once.  A :class:`ThresholdFit` derives its
  statistics when it is made, so no statistic is recomputed.
* Phase II keeps the restricted coefficients b and their unscaled
  covariance K = (X'X)^-1.  Merging candidate j into the cluster opened by s
  imposes b_s = b_j, which raises the residual sum of squares by
  (b_s - b_j)^2 / (K_ss - 2 K_sj + K_jj) and lowers the rank by one.  A
  comparison reads only diag(K) and K_sj; an accept keeps its rank-one
  downdate of K as a vector and applies a block of them to K at once.  Where
  X is rank-deficient or too badly conditioned for this to match a refit
  within the replay tolerance, each comparison refits its working matrix
  instead.

Both phases read one factorization of X, which :func:`nonlin_ctfa` makes
once per run; it also says which phase-II path is allowed (see
:func:`mtaggr.linstats._factor`).  Every fit is made in
:mod:`mtaggr.linstats`.

The threshold tests take fits, not arrays: every model calls one of them
once per comparison with the fits it holds, so the report and its decision
are built in one place.  Callers that hold arrays, such as standalone
re-evaluation and the verification checks, fit first with lstsq
(:func:`mtaggr.linstats.threshold_fit`), which serves as the reference.

Every comparison is recorded as a :class:`ThresholdReport`, an immutable
named tuple whose constructor checks the phase and the members; the tests
build it positionally, and the result document takes its keys from the
record's field list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .data import (Dataset, FeaturePartition, TaskPartition, _cluster_means, _is_int,
                   _is_real, _seed)
from .errors import ValidationError
from .linstats import (  # the tolerances and the fit record are re-exported from here
    REPLAY_ATOL,
    REPLAY_RTOL,
    ThresholdFit,
    _factor,
    _slab_fit,
    _target_variance,
    threshold_fit,
)

__all__ = [
    "ThresholdFit",
    "ThresholdReport",
    "TRACE_SCALARS",
    "AggregationResult",
    "threshold_fit",
    "compute_threshold_targets",
    "compute_threshold_features",
    "aggregation_loop",
    "nonlin_ctfa",
    "nonlin_ctfa_homogeneous",
    "apply_partition",
    "replay",
    "assert_replay",
    "reevaluate_report",
    "result_to_json",
    "result_from_json",
]

# |R_sep - R_aggr| below this is rounding noise from refitting the same span
# (exact-duplicate columns); snap to zero so ties accept at epsilon = 0.
R2_TIE_TOL = 1e-12

# Columns count as centered when |mean| <= this times (1 + rms).
CENTERED_TOL = 1e-7

# Accepted phase-II downdates are applied to the stored (X'X)^-1 as one
# rank-k update of this many (see _FeatureRestrictions).  Of 16 to 512, 128
# ran fastest at D = 800 and 1600 (n = 2.5 D) on one OpenBLAS thread.
_DOWNDATE_BLOCK = 128

# Builds a named tuple from its field values without the Python-level
# constructor; only constructors that have checked those values use it.
_new = tuple.__new__


_ZERO_VARIANCE = "target has zero variance; R^2 is undefined"


class _ReportFields(NamedTuple):
    phase: int
    cluster_id: int
    candidate: int
    members: tuple[int, ...]
    epsilon: float
    accepted: bool
    r_p: float | None
    r_j: float | None
    r_ag: float | None
    var_p: float | None
    var_j: float | None
    var_ag: float | None
    varf_p: float | None
    varf_j: float | None
    varf_ag: float | None
    threshold1: float | None
    threshold2: float | None
    r_gap: float | None
    task_cluster: int | None
    note: str | None


class ThresholdReport(_ReportFields):
    """One recorded accept/reject comparison, an immutable named tuple.

    Phase 1 populates the three-fit scalars and both thresholds; phase 2
    populates the separated/aggregated pair (as ``r_p``/``r_ag``) and the
    R^2 gap; every field a phase does not populate is None.  ``cluster_id``
    is the open cluster's index in creation order and ``members`` its
    membership at test time, in walk order.  The walk hands every report of
    one cluster state the same tuple, which is kept as given; any other
    sequence is copied to a tuple of ints.  A phase-2 record's working
    columns follow from the result's feature partition of ``task_cluster``:
    the clusters before ``cluster_id``, the members, and every feature not
    yet in either as a singleton, so any record can be re-evaluated
    standalone.

    Every construction, ``_make`` and ``_replace`` included, checks the
    phase and applies the members rule.  The threshold tests build their
    reports positionally, in under half the time of a keyword build.
    """

    __slots__ = ()

    def __new__(cls, phase, cluster_id, candidate, members, epsilon, accepted,
                r_p=None, r_j=None, r_ag=None, var_p=None, var_j=None, var_ag=None,
                varf_p=None, varf_j=None, varf_ag=None, threshold1=None,
                threshold2=None, r_gap=None, task_cluster=None, note=None):
        if phase not in (1, 2):
            raise ValidationError(f"phase must be 1 or 2, got {phase}")
        if type(members) is not tuple:
            members = tuple(map(int, members))
        return _new(cls, (phase, cluster_id, candidate, members, epsilon, accepted,
                          r_p, r_j, r_ag, var_p, var_j, var_ag, varf_p, varf_j, varf_ag,
                          threshold1, threshold2, r_gap, task_cluster, note))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# The recorded statistics a replay must reproduce.
TRACE_SCALARS = (
    "r_p", "r_j", "r_ag", "var_p", "var_j", "var_ag",
    "varf_p", "varf_j", "varf_ag", "threshold1", "threshold2", "r_gap",
)


def compute_threshold_targets(
    p: ThresholdFit,
    j: ThresholdFit,
    ag: ThresholdFit,
    epsilon: float,
    *,
    cluster_id: int = 0,
    candidate: int = -1,
    members: tuple[int, ...] = (),
) -> ThresholdReport:
    """Decide whether merging a candidate target into the open cluster is kept.

    ``p``, ``j`` and ``ag`` are the fits of the cluster's mean target, the
    candidate and their merged mean (over members plus candidate), each on
    its own model matrix; the merge is kept when both thresholds are at or
    below ``epsilon``.
    """
    if not p.d == j.d == ag.d:
        raise ValidationError("the three fits must share a column count")
    epsilon = float(epsilon)
    if p.r2 is None or j.r2 is None or ag.r2 is None:
        return ThresholdReport(1, cluster_id, candidate, members, epsilon, False,
                               note=_ZERO_VARIANCE)

    scale = ag.d / (ag.n - 1)
    penalty = 0.5 * (p.r2 * p.varf + j.r2 * j.varf) - ag.r2 * ag.varf
    t1 = scale * (ag.var_res - p.var_res) + penalty
    t2 = scale * (ag.var_res - j.var_res) + penalty
    return ThresholdReport(
        1, cluster_id, candidate, members, epsilon, bool(t1 <= epsilon and t2 <= epsilon),
        p.r2, j.r2, ag.r2, p.var_res, j.var_res, ag.var_res, p.varf, j.varf, ag.varf,
        t1, t2, None, None, None,
    )


def compute_threshold_features(
    sep: ThresholdFit,
    agg: ThresholdFit,
    epsilon: float,
    *,
    cluster_id: int = 0,
    candidate: int = -1,
    members: tuple[int, ...] = (),
    task_cluster: int | None = None,
) -> ThresholdReport:
    """Decide whether merging a candidate feature into the open cluster is kept.

    ``sep`` and ``agg`` are the fits of the target on the working matrix
    before and after the candidate's column is replaced, together with the
    open cluster's, by their mean; the merge is kept when the in-sample R^2
    drop is at most ``epsilon``.
    """
    if agg.d != sep.d - 1:
        raise ValidationError(f"a merge of {sep.d} columns cannot leave {agg.d}")
    epsilon = float(epsilon)
    if sep.r2 is None or agg.r2 is None:
        return ThresholdReport(2, cluster_id, candidate, members, epsilon, False,
                               task_cluster=task_cluster, note=_ZERO_VARIANCE)

    gap = sep.r2 - agg.r2
    if abs(gap) < R2_TIE_TOL:
        gap = 0.0
    return ThresholdReport(
        2, cluster_id, candidate, members, epsilon, bool(gap <= epsilon),
        sep.r2, None, agg.r2, sep.var_res, None, agg.var_res, sep.varf, None, agg.varf,
        None, None, gap, task_cluster, None,
    )


def _working_matrices(
    X: np.ndarray, closed, members: tuple[int, ...], visited: set[int], j: int
) -> tuple[np.ndarray, np.ndarray]:
    """Phase-II working matrices before and after feature ``j`` joins the open cluster.

    Their columns are the means of the closed clusters, then of the open
    one, then every unvisited feature.  The second matrix is copied to C
    order, the layout the merged matrix has always had: the residual lstsq
    leaves, and so the last bits of the recorded scalars, depend on it.
    """
    head = [tuple(sorted(c)) for c in closed]
    free = [k for k in range(X.shape[1]) if k not in visited]
    before = head + [tuple(sorted(members))] + [(k,) for k in free]
    after = head + [tuple(sorted(members + (j,)))] + [(k,) for k in free if k != j]
    return _cluster_means(X, before), np.ascontiguousarray(_cluster_means(X, after))


class _TargetMerges:
    """Phase I comparisons, on shared features or on per-task slabs.

    Each target ``Z[:, t]`` carries a part ``parts[t]``, and
    ``fit(mean_target, mean_part)`` fits a mean of targets from the same
    mean of their parts.  Each target's own fit is made once; a comparison
    fits the merged mean once, and an accept makes that fit the open
    cluster's.  The sums of the open cluster's targets and parts, added in
    walk order, are kept, so a comparison forms its means in the size of
    one target and part however large the cluster grows.
    """

    def __init__(self, Z: np.ndarray, parts, fit, epsilon: float):
        self.Z, self.parts, self.fit, self.epsilon = Z, parts, fit, epsilon
        self.singles = [fit(z, part) for z, part in zip(Z.T, parts)]

    def open(self, i: int) -> None:
        self.sums = self.Z[:, i], self.parts[i]
        self.p_fit = self.singles[i]

    def compare(self, closed, members, visited, j: int) -> ThresholdReport:
        size = len(members) + 1
        self.ag_sums = self.sums[0] + self.Z[:, j], self.sums[1] + self.parts[j]
        self.ag_fit = self.fit(self.ag_sums[0] / size, self.ag_sums[1] / size)
        return compute_threshold_targets(
            self.p_fit, self.singles[j], self.ag_fit, self.epsilon,
            cluster_id=len(closed), candidate=j, members=members,
        )

    def accept(self, members, j: int) -> None:
        self.sums, self.p_fit = self.ag_sums, self.ag_fit


def _shared_targets(X: np.ndarray, Z: np.ndarray, epsilon: float, factors) -> _TargetMerges:
    """Phase I on the shared feature matrix: each target's part is its residual off X.

    The least-squares fit of a mean of targets is the mean of their fits, so
    a set S of targets leaves the residual ``mean(E[:, S])``, and every fit
    has the rank of ``X``.  The projection residual is exact at any rank, so
    this needs no fallback.
    """
    Q = factors.basis
    (n, d), rank = X.shape, Q.shape[1]
    # One target at a time: a blocked multi-column product can round a
    # column differently from an identical one, which would split the exact
    # ties between duplicate targets that the per-fit path keeps.
    E = [z - Q @ (Q.T @ z) for z in Z.T]
    return _TargetMerges(
        Z, E, lambda z, e: ThresholdFit(float(e @ e), _target_variance(z), n, d, rank),
        epsilon,
    )


def _slab_targets(slabs, Y: np.ndarray, epsilon: float) -> _TargetMerges:
    """The homogeneous variant: each task's part is its own feature slab.

    A merged cluster's matrix is the mean of its members' slabs, so every
    fit has its own matrix; each solves the slab's normal equations where
    they match lstsq, and falls back to lstsq elsewhere (see
    :func:`mtaggr.linstats._slab_fit`).
    """
    return _TargetMerges(Y, slabs, lambda y, slab: _slab_fit(slab, y)[1], epsilon)


class _FeatureRefits:
    """Phase II comparisons that refit every merged working matrix.

    This is the path for a feature matrix without full column rank, where a
    merge need not lower the rank of the fit, or too badly conditioned for
    :class:`_FeatureRestrictions` to match a refit (see
    :func:`_feature_merges`).  The matrix before a merge is fitted only
    when a cluster opens: an accepted merged matrix has the columns of the
    next comparison's matrix before the merge, so an accept makes its fit
    the separated one.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, epsilon: float, task_cluster):
        self.X, self.y, self.epsilon, self.task_cluster = X, y, epsilon, task_cluster

    def open(self, i: int) -> None:
        self.sep_fit = None

    def compare(self, closed, members, visited, j: int) -> ThresholdReport:
        self.ag_fit = self._merged_fit(closed, members, visited, j)
        return compute_threshold_features(
            self.sep_fit, self.ag_fit, self.epsilon,
            cluster_id=len(closed), candidate=j, members=members,
            task_cluster=self.task_cluster,
        )

    def _merged_fit(self, closed, members, visited, j: int) -> ThresholdFit:
        """The fit once ``j`` joins the open cluster; fits ``sep_fit`` if unknown."""
        M, merged = _working_matrices(self.X, closed, members, visited, j)
        if self.sep_fit is None:
            self.sep_fit = threshold_fit(M, self.y)
        return threshold_fit(merged, self.y)

    def accept(self, members, j: int) -> None:
        self.sep_fit = self.ag_fit


class _FeatureRestrictions(_FeatureRefits):
    """Phase II comparisons on a feature matrix of full column rank.

    Every working matrix is ``X`` times a cluster-averaging matrix, so its
    fit is the fit on ``X`` with equal coefficients within each cluster.
    Merging candidate j into the open cluster, whose first member is s, adds
    the restriction beta_s = beta_j.  For the restricted coefficients b and
    their unscaled covariance K (``(X'X)^-1`` before any merge) that raises
    the residual sum of squares by ``(b_s - b_j)^2 / (K_ss - 2 K_sj + K_jj)``
    and lowers the rank by one (the F-test restriction identity, Seber &
    Lee, *Linear Regression Analysis*, sec. 4.3).  An accept imposes the
    restriction on b and K; opening a cluster only reorders the working
    columns and changes neither.  Used only where this matches a refit to
    the replay tolerance (see :func:`_feature_merges`).

    K is held as ``K0 - V V'``: the columns of V are the rank-one downdates
    accepted since they were last applied to ``K0``, and diag(K) is kept up
    to date on its own.  A comparison reads diag(K) and one entry of K, and
    an accept forms the column difference of K it needs with one matrix-
    vector product.  Every ``_DOWNDATE_BLOCK`` accepts one matrix product,
    a rank-k update (Golub & Van Loan, *Matrix Computations*), applies V to
    ``K0``, and the residual sum of squares is recomputed from the
    restricted coefficients.  In between it carries the summed increments,
    so their rounding builds up over one block at most.
    """

    def __init__(self, X, y, epsilon, task_cluster, factors):
        super().__init__(X, y, epsilon, task_cluster)
        W = factors.W
        self.beta = W @ (factors.basis.T @ y)
        self.K0 = W @ W.T
        self.diag = np.diagonal(self.K0).copy()
        # A walk over d features accepts at most d - 1 merges.
        d = X.shape[1]
        self.V = np.empty((d, min(_DOWNDATE_BLOCK, d)))
        self.k = 0
        self.sep_fit = ThresholdFit(self._ss_res(), _target_variance(y), y.shape[0], d, d)

    def _ss_res(self) -> float:
        resid = self.y - self.X @ self.beta
        return float(resid @ resid)

    def open(self, i: int) -> None:
        pass

    def _merged_fit(self, closed, members, visited, j: int) -> ThresholdFit:
        s, b, V = members[0], self.beta, self.V[:, : self.k]
        diff = b[s] - b[j]
        k_sj = self.K0[s, j] - V[s] @ V[j]
        delta = diff * diff / (self.diag[s] - 2.0 * k_sj + self.diag[j])
        sep = self.sep_fit
        return ThresholdFit(sep.ss_res + delta, sep.target_variance, sep.n, sep.d - 1,
                            sep.rank - 1)

    def accept(self, members, j: int) -> None:
        s, V = members[0], self.V[:, : self.k]
        # K0 is symmetric: its rows s and j are its columns s and j.
        Kc = self.K0[s] - self.K0[j] - V @ (V[s] - V[j])
        root = np.sqrt(Kc[s] - Kc[j])
        self.beta -= Kc * ((self.beta[s] - self.beta[j]) / (root * root))
        u = Kc / root
        self.V[:, self.k] = u
        self.diag -= u * u
        self.k += 1
        self.sep_fit = self.ag_fit
        if self.k == self.V.shape[1]:
            self.K0 -= self.V @ self.V.T
            self.k = 0
            self.sep_fit = self.ag_fit._replace(ss_res=self._ss_res())


class _ConstantTarget(_FeatureRefits):
    """Phase II comparisons against a target of zero variance.

    :func:`compute_threshold_features` rejects such a target before it reads
    a residual, so each comparison passes it fits that carry only the
    working matrices' column counts, and no matrix is built or fitted.
    """

    def _merged_fit(self, closed, members, visited, j: int) -> ThresholdFit:
        d = len(closed) + 1 + self.X.shape[1] - len(visited)
        self.sep_fit = ThresholdFit(0.0, 0.0, self.y.shape[0], d, d)
        return self.sep_fit._replace(d=d - 1, rank=d - 1)


def _feature_merges(X: np.ndarray, y: np.ndarray, epsilon: float, task_cluster, factors):
    """The restriction identity where it matches a refit; otherwise refits.

    ``factors`` are X's (see :func:`mtaggr.linstats._factor`), which carry
    the restriction identity's factor exactly where it is allowed; when
    None, X is factored here.  A target of zero variance rejects every
    merge on the target alone, so it takes neither path and X is not
    factored (see :class:`_ConstantTarget`).
    """
    if _target_variance(y) <= 0.0:
        return _ConstantTarget(X, y, epsilon, task_cluster)
    if factors is None:
        factors = _factor(X)
    if factors.W is not None:
        return _FeatureRestrictions(X, y, epsilon, task_cluster, factors)
    return _FeatureRefits(X, y, epsilon, task_cluster)


def _greedy(
    order: list[int], model
) -> tuple[tuple[tuple[int, ...], ...], list[ThresholdReport]]:
    """The single-pass greedy walk that every variant runs.

    Each unvisited item opens a cluster and every later unvisited item is
    compared with it; ``model`` makes the comparisons and tracks the open
    cluster.  The open cluster's members are one tuple in walk order,
    rebound only on an accept, so every comparison of one cluster state
    gets the same tuple and none copies it.  Returns the clusters (creation
    order, members sorted ascending) and the trace.
    """
    visited: set[int] = set()
    closed: list[tuple[int, ...]] = []
    trace: list[ThresholdReport] = []
    for pos, i in enumerate(order):
        if i in visited:
            continue
        members = (i,)
        visited.add(i)
        model.open(i)
        for j in order[pos + 1 :]:
            if j in visited:
                continue
            report = model.compare(closed, members, visited, j)
            trace.append(report)
            if report.accepted:
                model.accept(members, j)
                members += (j,)
                visited.add(j)
        closed.append(members)
    return tuple(tuple(sorted(c)) for c in closed), trace


def aggregation_loop(
    items,
    phase: int,
    epsilon: float,
    *,
    features,
    targets=None,
    target=None,
    task_cluster: int | None = None,
    factors=None,
    singles: list | None = None,
) -> tuple[tuple[tuple[int, ...], ...], list[ThresholdReport]]:
    """Greedy single-pass aggregation of ``items`` on shared features.

    Phase 1 merges target columns of ``targets``; phase 2 merges feature
    columns against the single ``target``.  Items are walked in the given
    order (see :func:`_greedy`).  ``factors`` are those of ``features``
    from :func:`mtaggr.linstats._factor`, so that several walks on one
    matrix share one factorization; when None, the walk makes its own if
    it reads one.  When ``singles`` is a list, phase 1 appends to it the
    fit of every target on its own, in target order.
    """
    order = list(items)
    if not order:
        raise ValidationError("items must be nonempty")
    if phase not in (1, 2):
        raise ValidationError(f"phase must be 1 or 2, got {phase}")
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 1:
        raise ValidationError(
            f"features must be a matrix with at least 2 rows, got shape {X.shape}"
        )
    n = X.shape[0]
    if phase == 1:
        if targets is None:
            raise ValidationError("phase 1 requires the target matrix")
        Z = np.asarray(targets, dtype=float)
        if Z.ndim != 2 or Z.shape[0] != n:
            raise ValidationError(f"targets of shape {Z.shape} do not match {n} rows")
        size = Z.shape[1]
    else:
        if target is None:
            raise ValidationError("phase 2 requires an aggregated target")
        y = np.asarray(target, dtype=float)
        if y.shape != (n,):
            raise ValidationError(f"target of shape {y.shape} does not match {n} rows")
        size = X.shape[1]
    for i in order:
        if not _is_int(i):
            raise ValidationError(f"item index {i!r} is not an integer")
        if i < 0 or i >= size:
            raise ValidationError(f"item index {i} out of range [0, {size})")
    order = [int(i) for i in order]
    if factors is not None and factors.shape != X.shape:
        raise ValidationError(f"SVD factors of a {factors.shape} matrix do not fit "
                              f"features of shape {X.shape}")

    if phase == 1:
        if factors is None:
            factors = _factor(X)
        model = _shared_targets(X, Z, epsilon, factors)
        if singles is not None:
            singles.extend(model.singles)
        return _greedy(order, model)
    return _greedy(order, _feature_merges(X, y, epsilon, task_cluster, factors))


@dataclass(frozen=True)
class AggregationResult:
    """Complete output of a run: both partitions, the trace, and the knobs.

    ``fingerprint`` names the centered data the run saw (see
    :func:`_fingerprint`).  It is required, by keyword, and must be a
    string, so every result can be written as a document that
    :func:`result_from_json` reads back.

    ``single_ss_res`` holds, for a result a run has just made, the residual
    sum of squares of each target fitted on its own features, as the walk
    fitted it, for the run's summary.  No document holds it and equality
    ignores it, so a result read back has None.
    """

    task_partition: TaskPartition
    feature_partitions: tuple[FeaturePartition, ...]
    trace: tuple[ThresholdReport, ...]
    seed: int
    epsilon1: float
    epsilon2: float
    homogeneous: bool = False
    fingerprint: str = field(kw_only=True)
    single_ss_res: tuple[float, ...] | None = field(
        default=None, kw_only=True, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.fingerprint, str):
            raise ValidationError(f"fingerprint must be a string, got {self.fingerprint!r}")
        if len(self.feature_partitions) != self.task_partition.n_clusters:
            raise ValidationError(
                f"{len(self.feature_partitions)} feature partitions for "
                f"{self.task_partition.n_clusters} task clusters"
            )
        sizes = sorted({fp.size for fp in self.feature_partitions})
        if len(sizes) > 1:
            raise ValidationError(f"feature partitions of different sizes {sizes}")
        object.__setattr__(self, "feature_partitions", tuple(self.feature_partitions))
        object.__setattr__(self, "trace", tuple(self.trace))
        object.__setattr__(self, "seed", _seed(self.seed))


def _check_centered(matrix: np.ndarray, what: str) -> None:
    means = np.abs(matrix.mean(axis=0))
    scale = 1.0 + np.sqrt(np.mean(matrix**2, axis=0))
    worst = int(np.argmax(means - CENTERED_TOL * scale))
    if means[worst] > CENTERED_TOL * scale[worst]:
        raise ValidationError(
            f"{what} column {worst} has mean {matrix[:, worst].mean():g}; "
            "center the dataset first"
        )


def _fingerprint(dataset: Dataset) -> str:
    """The shape of a dataset and the SHA-256 of its feature, target and slab bytes.

    Each matrix is hashed as its own block; the dataset stores them C
    contiguous, so nothing is copied.
    """
    import hashlib  # only documents are fingerprinted; keep it off `import mtaggr`

    slabs = dataset.per_task_features or ()
    digest = hashlib.sha256()
    for block in (dataset.features, dataset.targets, *slabs):
        digest.update(np.ascontiguousarray(block))
    n, D = dataset.features.shape
    return (f"n={n} D={D} L={dataset.n_tasks} slabs={len(slabs)} "
            f"sha256={digest.hexdigest()}")


def _task_order(n_tasks: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(_seed(seed))
    return rng.permutation(n_tasks)


def nonlin_ctfa(
    dataset: Dataset, epsilon1: float, epsilon2: float, seed: int
) -> AggregationResult:
    """Run both phases on a centered dataset with shared features.

    Phase I visits the targets in a seed-shuffled order to avoid systematic
    ordering bias; phase II visits the features in dataset order, once per
    task cluster, against that cluster's mean target.  Every walk takes its
    factors from one SVD of the features.
    """
    _check_centered(dataset.features, "feature")
    _check_centered(dataset.targets, "target")

    factors = _factor(dataset.features)
    order = _task_order(dataset.n_tasks, seed)
    singles: list[ThresholdFit] = []
    clusters, trace = aggregation_loop(
        order, 1, epsilon1, features=dataset.features, targets=dataset.targets,
        factors=factors, singles=singles,
    )
    task_partition = TaskPartition(clusters, dataset.n_tasks)

    feature_partitions: list[FeaturePartition] = []
    full_trace = list(trace)
    psis = _cluster_means(dataset.targets, task_partition.clusters)
    for ci in range(task_partition.n_clusters):
        psi = psis[:, ci]
        fclusters, ftrace = aggregation_loop(
            range(dataset.n_features),
            2,
            epsilon2,
            features=dataset.features,
            target=psi,
            task_cluster=ci,
            factors=factors,
        )
        feature_partitions.append(FeaturePartition(fclusters, dataset.n_features))
        full_trace.extend(ftrace)

    return AggregationResult(
        task_partition=task_partition,
        feature_partitions=tuple(feature_partitions),
        trace=tuple(full_trace),
        seed=seed,
        epsilon1=epsilon1,
        epsilon2=epsilon2,
        fingerprint=_fingerprint(dataset),
        single_ss_res=tuple(fit.ss_res for fit in singles),
    )


def nonlin_ctfa_homogeneous(
    dataset: Dataset, epsilon: float, seed: int
) -> AggregationResult:
    """Single-phase variant for per-task feature slabs.

    A candidate merge averages targets exactly as in phase 1 and averages
    the feature slabs columnwise; each of the three threshold fits uses its
    own model's matrix (the cluster's mean slab, the candidate's slab, and
    the mean slab over members plus candidate).
    """
    if dataset.per_task_features is None:
        raise ValidationError("homogeneous variant requires per_task_features")
    slabs = dataset.per_task_features
    Y = dataset.targets
    _check_centered(Y, "target")
    for t, slab in enumerate(slabs):
        _check_centered(slab, f"task {t} feature")

    order = [int(i) for i in _task_order(dataset.n_tasks, seed)]
    model = _slab_targets(slabs, Y, epsilon)
    clusters, trace = _greedy(order, model)
    task_partition = TaskPartition(clusters, dataset.n_tasks)
    D = dataset.n_features
    identity = FeaturePartition(tuple((k,) for k in range(D)), D)
    return AggregationResult(
        task_partition=task_partition,
        feature_partitions=(identity,) * task_partition.n_clusters,
        trace=tuple(trace),
        seed=seed,
        epsilon1=epsilon,
        epsilon2=epsilon,
        homogeneous=True,
        fingerprint=_fingerprint(dataset),
        single_ss_res=tuple(fit.ss_res for fit in model.singles),
    )


def apply_partition(
    dataset: Dataset, result: AggregationResult
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reduce a dataset with a fitted result: one (mean target, reduced X) per cluster.

    The one place reduced columns are built.  The dataset must have the
    numbers of tasks and features the result was fitted on (typically it is
    the test split).  The result decides which features are reduced: for a
    homogeneous result (``result.homogeneous``) they are the mean slab of
    the cluster's members, and the dataset must carry per-task slabs;
    otherwise they are the shared features, whatever slabs the dataset
    carries.  Either is aggregated by the cluster's feature partition.
    """
    fitted = (result.task_partition.size, *{fp.size for fp in result.feature_partitions})
    if fitted != (dataset.n_tasks, dataset.n_features):
        raise ValidationError(f"the result partitions (tasks, features) {fitted}; the "
                              f"dataset has {(dataset.n_tasks, dataset.n_features)}")
    if result.homogeneous and dataset.per_task_features is None:
        raise ValidationError("a homogeneous result needs data with per-task slabs")
    clusters = result.task_partition.clusters
    targets = _cluster_means(dataset.targets, clusters)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for ci, (cluster, fpart) in enumerate(zip(clusters, result.feature_partitions)):
        if result.homogeneous:
            source = np.mean([dataset.per_task_features[k] for k in cluster], axis=0)
        else:
            source = dataset.features
        out.append((targets[:, ci], _cluster_means(source, fpart.clusters)))
    return out


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------


def replay(dataset: Dataset, result: AggregationResult) -> AggregationResult:
    """Re-run the algorithm with the stored seed and tolerances."""
    if result.homogeneous:
        return nonlin_ctfa_homogeneous(dataset, result.epsilon1, result.seed)
    return nonlin_ctfa(dataset, result.epsilon1, result.epsilon2, result.seed)


def assert_replay(dataset: Dataset, result: AggregationResult) -> None:
    """Verify that re-running reproduces every recorded comparison.

    Raises ValidationError on the first mismatch in decisions, membership,
    or recorded scalars.
    """
    fresh = replay(dataset, result)
    if len(fresh.trace) != len(result.trace):
        raise ValidationError(
            f"replay produced {len(fresh.trace)} comparisons, "
            f"recorded {len(result.trace)}"
        )
    for k, (old, new) in enumerate(zip(result.trace, fresh.trace)):
        if (
            old.phase != new.phase
            or set(old.members) != set(new.members)
            or old.candidate != new.candidate
            or old.accepted != new.accepted
        ):
            raise ValidationError(f"trace record {k} does not replay: {old} vs {new}")
        for f in TRACE_SCALARS:
            a, b = getattr(old, f), getattr(new, f)
            if (a is None) != (b is None):
                raise ValidationError(f"trace record {k}: field {f} presence differs")
            if a is not None and not np.isclose(
                a, b, rtol=REPLAY_RTOL, atol=REPLAY_ATOL
            ):
                raise ValidationError(
                    f"trace record {k}: field {f} differs ({a} vs {b})"
                )
    if fresh.task_partition.clusters != result.task_partition.clusters:
        raise ValidationError("replayed task partition differs")


def reevaluate_report(
    dataset: Dataset, result: AggregationResult, report: ThresholdReport
) -> ThresholdReport:
    """Re-run a single recorded comparison standalone on the stored data.

    Every fit is an lstsq refit.  Raises ValidationError for a record that
    does not name a comparison of this result: members and candidate must be
    distinct integer indices of the dataset's items, and a phase-2 record
    must lie inside the stored feature partitions.
    """
    members = report.members
    extended = members + (report.candidate,)
    size = dataset.n_tasks if report.phase == 1 else dataset.n_features
    if (
        not members
        or len(set(extended)) < len(extended)
        or not all(_is_int(k) and 0 <= k < size for k in extended)
    ):
        raise ValidationError(
            f"phase-{report.phase} record compares {report.candidate} with members "
            f"{report.members}; both must be distinct integer items of {size}"
        )
    ids = dict(cluster_id=report.cluster_id, candidate=report.candidate,
               members=report.members)
    if report.phase == 1:
        Y = dataset.targets
        targets = (Y[:, members].mean(axis=1), Y[:, report.candidate],
                   Y[:, extended].mean(axis=1))
        if result.homogeneous:
            slabs = dataset.per_task_features
            if slabs is None:
                raise ValidationError("homogeneous result needs per-task slabs")
            matrices = (
                np.mean([slabs[k] for k in members], axis=0),
                slabs[report.candidate],
                np.mean([slabs[k] for k in extended], axis=0),
            )
        else:
            matrices = (dataset.features,) * 3
        fits = [threshold_fit(M, y) for M, y in zip(matrices, targets)]
        return compute_threshold_targets(*fits, report.epsilon, **ids)

    t = report.task_cluster
    if t is None or not 0 <= t < len(result.feature_partitions):
        raise ValidationError(
            f"phase-2 record names task cluster {t} of {len(result.feature_partitions)}"
        )
    clusters = result.feature_partitions[t].clusters
    if not 0 <= report.cluster_id < len(clusters):
        raise ValidationError(
            f"phase-2 record names feature cluster {report.cluster_id} "
            f"of {len(clusters)}"
        )
    closed = clusters[: report.cluster_id]
    taken = set().union(*closed)
    if taken.intersection(extended):
        raise ValidationError(
            f"phase-2 record names features {sorted(taken.intersection(extended))} "
            "of clusters closed before it"
        )
    visited = taken.union(members)
    y = _cluster_means(dataset.targets, [result.task_partition.clusters[t]])[:, 0]
    M, merged = _working_matrices(dataset.features, closed, members, visited,
                                  report.candidate)
    return compute_threshold_features(
        threshold_fit(M, y), threshold_fit(merged, y), report.epsilon,
        task_cluster=t, **ids,
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

FORMAT_VERSION = 2

# (field name, document key) for every stored field of a trace record, in
# field order.  A record's members are not stored: they follow from the
# partitions (see :func:`_derived_trace`).
_DOC_KEYS = tuple(
    (name, "cluster" if name == "cluster_id" else name)
    for name in ThresholdReport._fields
    if name != "members"
)
_stored_values = itemgetter(*(ThresholdReport._fields.index(name) for name, _ in _DOC_KEYS))
_STORED_KEYS = tuple(key for _, key in _DOC_KEYS)


def _report_to_dict(r: ThresholdReport) -> dict:
    return dict(zip(_STORED_KEYS, _stored_values(r)))


def _report_from_dict(d: dict, members: tuple[int, ...]) -> ThresholdReport:
    missing = [key for _, key in _DOC_KEYS if not isinstance(d, dict) or key not in d]
    if missing:
        raise ValidationError(f"trace record {d!r} is missing keys {missing}")
    if not all(_is_real(d[key]) or (key != "epsilon" and d[key] is None)
               for key in ("epsilon", *TRACE_SCALARS)):
        raise ValidationError(f"trace record {d!r} holds a statistic that is not a number")
    return ThresholdReport(members=members, **{name: d[key] for name, key in _DOC_KEYS})


class _Step(NamedTuple):
    cluster_id: int
    candidate: int
    members: tuple[int, ...]
    accepted: bool


class _StoredDecisions:
    """Comparisons whose decisions are read from the partition a walk ended in.

    Run through :func:`_greedy`, it yields each comparison of that walk:
    a candidate is accepted exactly when the final partition puts it in the
    open cluster.
    """

    def __init__(self, clusters):
        self.cluster_of = {i: k for k, c in enumerate(clusters) for i in c}

    def open(self, i: int) -> None:
        self.opened = self.cluster_of[i]

    def compare(self, closed, members, visited, j: int) -> _Step:
        return _Step(len(closed), j, members, self.cluster_of[j] == self.opened)

    def accept(self, members, j: int) -> None:
        pass


def _derived_trace(records: list, walks) -> list[ThresholdReport]:
    """The trace records of ``walks``, with the members each was tested against.

    ``walks`` holds (phase, task cluster, walk order, final clusters) in
    trace order.  A record's members are the members of its final cluster
    that precede its candidate in walk order; they are rebuilt by walking
    each order with the decisions the stored clusters imply, which also
    gives every record's cluster, candidate and decision.  Raises
    ValidationError if the records or the clusters differ from that walk.
    """
    steps = []
    for phase, task_cluster, order, clusters in walks:
        walked, walk_steps = _greedy(order, _StoredDecisions(clusters))
        if walked != clusters:
            raise ValidationError(
                f"the stored phase-{phase} clusters are not the ones their walk "
                "ends in, in its order of creation"
            )
        steps.extend((phase, task_cluster, step) for step in walk_steps)
    if len(records) != len(steps):
        raise ValidationError(
            f"trace has {len(records)} records; the partitions imply {len(steps)}"
        )
    trace = []
    for k, (d, (phase, task_cluster, step)) in enumerate(zip(records, steps)):
        report = _report_from_dict(d, step.members)
        got = (report.phase, report.task_cluster, report.cluster_id,
               report.candidate, report.accepted)
        want = (phase, task_cluster, step.cluster_id, step.candidate, step.accepted)
        if got != want:
            raise ValidationError(
                f"trace record {k} has (phase, task cluster, cluster, candidate, "
                f"accepted) {got}; the partitions imply {want}"
            )
        trace.append(report)
    return trace


def result_to_json(result: AggregationResult) -> str:
    """The result document: one line of partitions, then one line per trace record.

    ``json.dumps`` without ``indent`` runs CPython's C encoder; the record
    lines keep the file readable with line tools.
    """
    head = json.dumps({
        "format_version": FORMAT_VERSION,
        "seed": result.seed,
        "epsilon1": result.epsilon1,
        "epsilon2": result.epsilon2,
        "homogeneous": result.homogeneous,
        "fingerprint": result.fingerprint,
        "task_clusters": result.task_partition.clusters,
        "feature_clusters": [fp.clusters for fp in result.feature_partitions],
    })
    records = ",\n".join(json.dumps(_report_to_dict(r)) for r in result.trace)
    return f'{head[:-1]}, "trace": [\n{records}\n]}}\n'


def result_from_json(text: str, dataset: Dataset) -> AggregationResult:
    """Rebuild a result against the dataset it was fitted on.

    Raises ValidationError when the text is not a result document, when the
    document was written from other data, for a variant the data does not
    fit, or with a trace that its partitions cannot have produced.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"result document is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("result document is not a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValidationError(f"result format_version must be {FORMAT_VERSION}, "
                              f"got {version!r}")
    for key in ("seed", "epsilon1", "epsilon2", "homogeneous", "fingerprint",
                "task_clusters", "feature_clusters", "trace"):
        if key not in doc:
            raise ValidationError(f"result document is missing key {key!r}")
    for key, ok in (("seed", _is_int), ("epsilon1", _is_real), ("epsilon2", _is_real),
                    ("homogeneous", lambda v: isinstance(v, bool)),
                    ("fingerprint", lambda v: isinstance(v, str))):
        if not ok(doc[key]):
            raise ValidationError(f"result document has a malformed {key!r}: {doc[key]!r}")
    if not all(isinstance(doc[key], list) for key in ("feature_clusters", "trace")):
        raise ValidationError("'feature_clusters' and 'trace' must be lists")
    task_partition = TaskPartition(doc["task_clusters"], dataset.n_tasks)
    feature_partitions = tuple(
        FeaturePartition(fc, dataset.n_features) for fc in doc["feature_clusters"]
    )
    fingerprint, homogeneous = doc["fingerprint"], doc["homogeneous"]
    if homogeneous and dataset.per_task_features is None:
        raise ValidationError("a homogeneous result needs data with per-task slabs")
    if homogeneous and any(len(c) > 1 for fp in feature_partitions for c in fp.clusters):
        raise ValidationError("a homogeneous result merges no features")
    if fingerprint != _fingerprint(dataset):
        raise ValidationError(
            f"result was written from data {fingerprint}, not {_fingerprint(dataset)}"
        )

    seed = doc["seed"]
    walks = [(1, None, [int(i) for i in _task_order(dataset.n_tasks, seed)],
              task_partition.clusters)]
    if not homogeneous:
        features = list(range(dataset.n_features))
        walks += [(2, t, features, fp.clusters) for t, fp in enumerate(feature_partitions)]
    trace = _derived_trace(doc["trace"], walks)
    return AggregationResult(
        task_partition=task_partition,
        feature_partitions=feature_partitions,
        trace=trace,
        seed=seed,
        epsilon1=float(doc["epsilon1"]),
        epsilon2=float(doc["epsilon2"]),
        homogeneous=homogeneous,
        fingerprint=fingerprint,
    )
