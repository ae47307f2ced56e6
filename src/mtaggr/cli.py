"""Command-line entry point: aggregate, synth, sweep, and verify subcommands.

Every command is a pure function of its input files, flags, and seed, and
writes byte-identical outputs on repeated invocation at a fixed BLAS thread
count (another thread count can move the last bits of floating-point
results).  Exit codes: 0 success, 1 validation (including I/O), 2 numerical,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from . import linstats
from .aggregation import apply_partition, nonlin_ctfa, nonlin_ctfa_homogeneous, result_to_json
from .checks import VerifyBudget, run_checks
from .data import center, load_dataset, save_dataset, _read_header, _write_rows
from .errors import NumericalError, ValidationError
from .synth import SynthConfig, generate, sweep

DEFAULT_SEED = 0

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tasks", type=int, default=10, help="number of targets")
    p.add_argument("--features", type=int, default=100, help="number of features")
    p.add_argument("--samples", type=int, default=250, help="training rows")
    p.add_argument("--test-samples", type=int, default=250, help="test rows")
    p.add_argument("--sigma", type=float, default=10.0, help="noise standard deviation")
    p.add_argument("--feature-std", type=float, default=2.0,
                   help="feature standard deviation")
    p.add_argument("--epsilon1", type=float, default=0.0,
                   help="target-merge tolerance")
    p.add_argument("--epsilon2", type=float, default=1e-4,
                   help="feature-merge tolerance")
    p.add_argument("--repeats", type=int, default=10, help="seeds per sweep point")


def _config_from_args(args) -> SynthConfig:
    if getattr(args, "config", None):
        try:
            doc = dict(json.loads(Path(args.config).read_text(encoding="utf-8")))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{args.config}: not a JSON object: {exc}") from None
        allowed = {f.name for f in dataclass_fields(SynthConfig)}
        unknown = sorted(set(doc) - allowed)
        if unknown:
            raise ValidationError(f"unknown config keys {unknown}")
        return SynthConfig(**doc)
    return SynthConfig(
        n_tasks=args.tasks,
        n_features=args.features,
        n_train=args.samples,
        n_test=args.test_samples,
        sigma=args.sigma,
        feature_std=args.feature_std,
        epsilon1=args.epsilon1,
        epsilon2=args.epsilon2,
        n_repeats=args.repeats,
    )


def _build_schema(header_targets: list[str], ignore: list[str], homogeneous: bool,
                  path) -> dict[str, str]:
    """Targets and ignores are named; the rest of the header become features.

    In homogeneous mode feature columns must be named ``<feature>@<target>``
    and are routed to that target's slab; :func:`load_dataset` checks that
    the slabs list the same features.  A target name may hold ``@`` itself,
    so a column goes to the one named target t for which it ends in ``@t``,
    and a column that ends so for two targets is refused.
    """
    p = Path(path)
    header = _read_header(p)
    schema: dict[str, str] = {}
    targets = set(header_targets)
    ignores = set(ignore)
    missing = sorted((targets | ignores) - set(header))
    if missing:
        raise ValidationError(f"columns {missing} not present in {p}")
    for name in header:
        if name in targets:
            schema[name] = "target"
        elif name in ignores:
            schema[name] = "ignore"
        elif homogeneous:
            owners = _owners(name, targets)
            if not owners:
                raise ValidationError(
                    f"homogeneous mode: feature column {name!r} must be named "
                    "<feature>@<target> for one of the targets"
                )
            if len(owners) > 1:
                raise ValidationError(
                    f"homogeneous mode: column {name!r} ends in @<target> for "
                    f"the targets {sorted(owners)}"
                )
            schema[name] = f"feature:{owners[0]}"
        else:
            schema[name] = "feature"
    return schema


def _owners(name: str, targets: set[str]) -> list[str]:
    """The targets t for which ``name`` ends in ``@t``."""
    owners = []
    rest = name
    while "@" in rest:
        rest = rest.partition("@")[2]
        if rest in targets:
            owners.append(rest)
    return owners


def cmd_aggregate(args) -> int:
    if args.epsilon is not None and not args.homogeneous:
        raise ValidationError("--epsilon is the tolerance of --homogeneous; "
                              "without it, use --epsilon1 and --epsilon2")
    targets = [t for t in args.targets.split(",") if t]
    ignore = [c for c in (args.ignore or "").split(",") if c]
    schema = _build_schema(targets, ignore, args.homogeneous, args.input)
    dataset = load_dataset(args.input, schema)
    centering = center(dataset)
    centered = centering.dataset

    if args.homogeneous:
        eps = args.epsilon if args.epsilon is not None else args.epsilon1
        result = nonlin_ctfa_homogeneous(centered, eps, args.seed)
    else:
        result = nonlin_ctfa(centered, args.epsilon1, args.epsilon2, args.seed)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(result_to_json(result), encoding="utf-8")

    reduced = apply_partition(centered, result)
    if args.csv:
        import csv as _csv

        for ci, (y, X) in enumerate(reduced):
            with (out / f"reduced_cluster{ci}.csv").open(
                "w", newline="", encoding="utf-8"
            ) as fh:
                _csv.writer(fh).writerow(
                    [f"phi{k}" for k in range(X.shape[1])] + [f"y_cluster{ci}"]
                )
                _write_rows(fh, np.column_stack([X, y]))

    lines = [
        f"tasks: {centered.n_tasks} -> {result.task_partition.n_clusters} clusters",
    ]
    for ci, cluster in enumerate(result.task_partition.clusters):
        names = [centered.target_names[t] for t in cluster]
        d_red = result.feature_partitions[ci].n_clusters
        lines.append(
            f"  cluster {ci}: {len(cluster)} targets ({', '.join(names)}), "
            f"{d_red} reduced features"
        )
    # The single-task R^2 reads the residuals of the run's own single-task
    # fits; the aggregated one fits each cluster's reduced features once.
    lines.append("in-sample R^2 per task (single-task -> aggregated):")
    n = centered.n_samples
    for ci, (y, X) in enumerate(reduced):
        pred = X @ linstats._core_fit(X, y)[0]
        for t in result.task_partition.clusters[ci]:
            actual = centered.targets[:, t]
            spread = linstats._spread(actual)
            diff = pred - actual
            before = linstats._r2_of(result.single_ss_res[t] / n, spread)
            after = linstats._r2_of(float(diff @ diff) / n, spread)
            lines.append(
                f"  {centered.target_names[t]}: {before:.4f} -> {after:.4f}"
            )
    if centering.constant_columns:
        lines.append(f"constant columns: {', '.join(centering.constant_columns)}")
    summary = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(summary, encoding="utf-8")
    if not args.quiet:
        sys.stdout.write(summary)
    return EXIT_OK


def cmd_synth(args) -> int:
    config = _config_from_args(args)
    train, test, truth = generate(config, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(train, out / "train.csv")
    save_dataset(test, out / "test.csv")
    doc = {
        "seed": args.seed,
        "sigma": config.sigma,
        "feature_std": config.feature_std,
        "coefficients": [[float(v) for v in row] for row in truth.coefficients],
    }
    (out / "truth.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    if not args.quiet:
        print(
            f"wrote {out / 'train.csv'} ({config.n_train} rows), "
            f"{out / 'test.csv'} ({config.n_test} rows)"
        )
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ValidationError("--values must list at least one value")
    table = sweep(config, args.axis, values, base_seed=args.seed)
    table.to_csv(args.out)
    if not args.quiet:
        print(f"wrote {args.out} ({len(table.rows)} rows)")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = [n for n in (args.checks or "").split(",") if n] or None
    budget = VerifyBudget.quick() if args.quick else VerifyBudget()
    overrides = {
        k: getattr(args, k)
        for k in ("replicates", "n_eval", "n_pop", "draws")
        if getattr(args, k) is not None
    }
    budget = replace(budget, **overrides)

    results = run_checks(names, budget, seed=args.seed)
    doc = {
        "all_passed": all(r.passed for r in results),
        "checks": [r.to_dict() for r in results],
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status} {r.name}: theoretical={r.theoretical:.6g} "
            f"empirical={r.empirical:.6g} se={r.standard_error:.3g}"
        )
    if not doc["all_passed"]:
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtaggr",
        description=(
            "Two-phase mean aggregation of targets and features for "
            "multi-task linear regression."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aggregate", help="cluster targets, then features, from a CSV")
    p.add_argument("--input", required=True, help="CSV file with a header row")
    p.add_argument("--targets", required=True,
                   help="comma-separated target column names")
    p.add_argument("--ignore", default="", help="comma-separated columns to drop")
    p.add_argument("--homogeneous", action="store_true",
                   help="per-task feature slabs named <feature>@<target>")
    p.add_argument("--epsilon1", type=float, default=0.0)
    p.add_argument("--epsilon2", type=float, default=1e-4)
    p.add_argument("--epsilon", type=float, default=None,
                   help="tolerance of the homogeneous variant (needs --homogeneous)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out-dir", default="out")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--csv", action=argparse.BooleanOptionalAction, default=True,
                   help="also write one reduced CSV per cluster")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--config", default=None, help="JSON file of generator settings")
    _add_config_flags(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out-dir", default="out")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="re-run the benchmark along one axis")
    p.add_argument("--axis", required=True,
                   help="one of n_train, D, L, sigma, epsilon1, epsilon2")
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--config", default=None, help="JSON file of generator settings")
    _add_config_flags(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the closed-form verification suite")
    p.add_argument("--checks", default="",
                   help="comma-separated check names (default: all)")
    p.add_argument("--quick", action="store_true", help="reduced sampling budgets")
    p.add_argument("--replicates", type=int, default=None,
                   help="Monte-Carlo replicates of variance_formula, bias_single_task, "
                        "bias_aggregated (0.8 times, at least 100), closure and delta_mse")
    p.add_argument("--n-eval", type=int, default=None,
                   help="evaluation rows of variance_formula, bias_single_task (twice "
                        "as many), bias_aggregated, closure and delta_mse")
    p.add_argument("--n-pop", type=int, default=None,
                   help="population rows of the bias_single_task, bias_aggregated and "
                        "delta_mse bias decompositions; the merge-guarantee "
                        "populations are always 100 000 rows")
    p.add_argument("--draws", type=int, default=None,
                   help="draws of each pair kind in merge_guarantee_targets and "
                        "merge_guarantee_features")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="verification_report.json")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; map onto the validation code.
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
