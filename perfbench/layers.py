"""Which library callables the traced run wraps, and the per-layer metrics.

Spans come only from wrapping public callables from outside the library:
the CLI's calls into ``data`` and ``aggregation``, the greedy loop (named by
phase), both threshold tests, the verification checks, the Monte-Carlo
oracle and ``numpy.linalg.lstsq``.  A later change that moves work out of a
wrapped callable (for example a loop that no longer calls the threshold
tests) must update this list in a change of its own.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Span, Tracer, ancestors, totals

CHECK_NAMES = (
    "noise_variance", "variance_formula", "bias_single_task", "bias_aggregated",
    "closure", "delta_mse", "coefficient_covariance", "merge_guarantee_targets",
    "merge_guarantee_features",
)

# Per-layer metrics reported by a traced run: (name, unit, better).  Times
# and counts are per invocation of the workload's command, averaged over the
# workload's datasets.
_PHASE = (("s", "s", "lower"), ("self_s", "s", "lower"), ("comparisons", "count", "lower"),
          ("accepts", "count", "higher"), ("accept_ratio", "ratio", "higher"))
PER_LAYER = (
    [(f"aggregation.phase{p}.{m}", u, b) for p in (1, 2) for m, u, b in _PHASE]
    + [(f"aggregation.threshold_{k}.{m}", u, "lower") for k in ("targets", "features")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [
        ("aggregation.nonlin_ctfa_homogeneous.s", "s", "lower"),
        ("aggregation.nonlin_ctfa_homogeneous.self_s", "s", "lower"),
        ("aggregation.result_to_json.s", "s", "lower"),
        ("aggregation.result_mb", "MB", "lower"),
        ("aggregation.apply_partition.s", "s", "lower"),
        ("linstats.lstsq.calls", "count", "lower"),
        ("linstats.lstsq.s", "s", "lower"),
        ("linstats.lstsq.per_comparison", "ratio", "lower"),
        ("linstats.lstsq.rank_deficient", "count", "lower"),
        ("linstats.lstsq.gflop_computed", "GFLOP", "lower"),
        ("linstats.lstsq_summary.calls", "count", "lower"),
        ("linstats.lstsq_summary.s", "s", "lower"),
        ("data.load_dataset.s", "s", "lower"),
        ("data.center.s", "s", "lower"),
        ("data.input_mb", "MB", "lower"),
        ("cli.aggregate.s", "s", "lower"),
        ("cli.aggregate.self_s", "s", "lower"),
        ("oracle.monte_carlo.calls", "count", "lower"),
        ("oracle.monte_carlo.s", "s", "lower"),
        ("oracle.monte_carlo.self_s", "s", "lower"),
        ("oracle.noise_sample.calls", "count", "lower"),
        ("oracle.noise_sample.s", "s", "lower"),
        ("oracle.population_bias.s", "s", "lower"),
        ("oracle.delta_mse.s", "s", "lower"),
        ("oracle.lstsq.calls", "count", "lower"),
        ("oracle.lstsq.s", "s", "lower"),
    ]
    + [(f"checks.{name}.s", "s", "lower") for name in CHECK_NAMES]
    + [
        ("checks.failed", "count", "lower"),
        ("comparisons_per_s", "1/s", "higher"),
        ("bench.trace_overhead_ratio", "ratio", "lower"),
        ("failed_ops_ratio", "ratio", "lower"),
    ]
)

GREEDY = ("aggregation.nonlin_ctfa", "aggregation.nonlin_ctfa_homogeneous")


def _phase_name(args, kwargs) -> str:
    phase = args[1] if len(args) > 1 else kwargs["phase"]
    return f"aggregation.phase{phase}"


def _accepted(args, kwargs, report) -> bool:
    return bool(report.accepted)


def _lstsq_shape(args, kwargs, result) -> tuple[int, int, int]:
    shape = args[0].shape
    return shape[0], shape[1] if len(shape) > 1 else 1, int(result[2])


def install(tracer: Tracer) -> None:
    """Wrap every traced callable; ``tracer.restore()`` undoes it."""
    import numpy
    from mtaggr import aggregation, checks, cli, oracle

    for attr, name in (
        ("cmd_aggregate", "cli.aggregate"),
        ("load_dataset", "data.load_dataset"),
        ("center", "data.center"),
        ("nonlin_ctfa", "aggregation.nonlin_ctfa"),
        ("nonlin_ctfa_homogeneous", "aggregation.nonlin_ctfa_homogeneous"),
        ("apply_partition", "aggregation.apply_partition"),
        ("result_to_json", "aggregation.result_to_json"),
    ):
        tracer.patch(cli, attr, name)
    tracer.patch(aggregation, "aggregation_loop", _phase_name)
    # checks imports the threshold tests and oracle entry points by name, so
    # both the defining module and checks get a wrapper.
    for owner in (aggregation, checks):
        tracer.patch(owner, "compute_threshold_targets",
                     "aggregation.threshold_targets", _accepted)
        tracer.patch(owner, "compute_threshold_features",
                     "aggregation.threshold_features", _accepted)
    for name in list(checks.CHECKS):
        tracer.patch(checks.CHECKS, name, f"checks.{name}")
    for owner in (oracle, checks):
        tracer.patch(owner, "monte_carlo_bias_variance", "oracle.monte_carlo")
        tracer.patch(owner, "population_bias_decomposition", "oracle.population_bias")
        tracer.patch(owner, "delta_mse_check", "oracle.delta_mse")
    tracer.patch(oracle.NoiseModel, "sample", "oracle.noise_sample")
    tracer.patch(numpy.linalg, "lstsq", "linstats.lstsq", _lstsq_shape)


def _root(spans: list[Span], index: int) -> int:
    while spans[index].parent >= 0:
        index = spans[index].parent
    return index


def invocation_counters(spans: list[Span]) -> list[dict[str, int]]:
    """Comparisons and accepts per phase, one dict per top-level span.

    A threshold test under ``cli.aggregate`` is one comparison of the
    phase its result records (targets: 1, features: 2); under a check it
    counts for that check.
    """
    per_root: dict[int, dict[str, int]] = {}
    order: list[int] = []
    for i, span in enumerate(spans):
        if span.parent < 0:
            order.append(i)
            per_root[i] = defaultdict(int)
            continue
        if not span.name.startswith("aggregation.threshold_"):
            continue
        key = "phase1" if span.name.endswith("targets") else "phase2"
        counts = per_root[_root(spans, i)]
        counts[f"{key}.comparisons"] += 1
        counts[f"{key}.accepts"] += int(span.attrs)
    return [dict(per_root[i], root=spans[i].name) for i in order]


def lstsq_counts(spans: list[Span]) -> dict[str, int]:
    """``numpy.linalg.lstsq`` calls by the layer that made them."""
    counts: dict[str, int] = defaultdict(int)
    for i, span in enumerate(spans):
        if span.name == "linstats.lstsq":
            counts[_lstsq_owner(spans, i)] += 1
    return dict(counts)


def _lstsq_owner(spans: list[Span], index: int) -> str:
    names = list(ancestors(spans, index))
    if any(n in GREEDY for n in names):
        return "linstats.lstsq"
    if "cli.aggregate" in names:
        return "linstats.lstsq_summary"
    if any(n.startswith("oracle.") for n in names):
        return "oracle.lstsq"
    return "other.lstsq"


def round_metrics(spans: list[Span], invocations: int) -> dict[str, float]:
    """Per-layer metrics of one traced round, averaged per invocation.

    Every span name yields ``<name>.calls``, ``<name>.s`` and
    ``<name>.self_s``; ``lstsq`` calls are split by the layer that made them,
    and the phase counters come from the threshold tests under
    ``cli.aggregate``.
    """
    out: dict[str, float] = defaultdict(float)
    for name, entry in totals(spans).items():
        if name != "linstats.lstsq":
            for field, value in entry.items():
                out[f"{name}.{field}"] = value
    for counters in invocation_counters(spans):
        if counters.pop("root") == "cli.aggregate":
            for key, value in counters.items():
                out[f"aggregation.{key}"] += value
    for i, span in enumerate(spans):
        if span.name == "linstats.lstsq":
            owner = _lstsq_owner(spans, i)
            n, d, rank = span.attrs
            out[f"{owner}.calls"] += 1
            out[f"{owner}.s"] += span.duration
            out[f"{owner}.rank_deficient"] += rank < min(n, d)
            out[f"{owner}.gflop_computed"] += 2.0 * n * d * d / 1e9
    per_invocation = {k: v / invocations for k, v in out.items()}
    for p in (1, 2):
        comparisons = out[f"aggregation.phase{p}.comparisons"]
        per_invocation[f"aggregation.phase{p}.accept_ratio"] = (
            out[f"aggregation.phase{p}.accepts"] / comparisons if comparisons else 0.0)
    comparisons = out["aggregation.phase1.comparisons"] + out["aggregation.phase2.comparisons"]
    per_invocation["linstats.lstsq.per_comparison"] = (
        out["linstats.lstsq.calls"] / comparisons if comparisons else 0.0)
    return per_invocation
