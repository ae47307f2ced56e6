"""Correctness checks on the outputs of each timed invocation.

For the default seed the outputs must match the committed expectations in
``expected/<workload>.json``: both partitions and every comparison's
(phase, cluster, candidate, accepted) exactly, the trace scalars within the
``assert_replay`` tolerance, and each verification check's ``to_dict()``
within the same tolerance.  For any other seed only invariants are checked.
Every invocation must also write byte-identical outputs to the first one on
the same input, which shows that a fresh run repeats every decision.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DEFAULT_SEED = 0
RTOL, ATOL = 1e-9, 1e-12
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

SCALARS = ("r_p", "r_j", "r_ag", "var_p", "var_j", "var_ag", "varf_p", "varf_j",
           "varf_ag", "threshold1", "threshold2", "r_gap")
EXIT_OK, EXIT_VERIFY = 0, 3


def output_files(out: Path) -> list[Path]:
    return sorted(out.iterdir()) if out.is_dir() else [out]


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in output_files(out):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def load_expected(workload: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def summarize_result(doc: dict) -> dict:
    """The parts of a ``result.json`` the expectations pin down."""
    trace = doc["trace"]
    return {
        "task_clusters": doc["task_clusters"],
        "feature_clusters": doc["feature_clusters"],
        "decisions": [[r["phase"], r["cluster"], r["candidate"], r["accepted"]]
                      for r in trace],
        "scalars": {f: [r[f] for r in trace] for f in SCALARS},
    }


def trace_counts(doc: dict) -> dict[str, int]:
    counts = {"phase1.comparisons": 0, "phase1.accepts": 0,
              "phase2.comparisons": 0, "phase2.accepts": 0}
    for r in doc["trace"]:
        counts[f"phase{r['phase']}.comparisons"] += 1
        counts[f"phase{r['phase']}.accepts"] += int(r["accepted"])
    return counts


def close(expected, got, where: str) -> list[str]:
    """Recursive comparison; numbers within tolerance, keys of ``expected`` only."""
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object"]
        errors = []
        for key, value in expected.items():
            if key not in got:
                errors.append(f"{where}.{key}: missing")
            else:
                errors.extend(close(value, got[key], f"{where}.{key}"))
        return errors
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return [f"{where}: expected a list of {len(expected)}"]
        errors = []
        for k, (a, b) in enumerate(zip(expected, got)):
            errors.extend(close(a, b, f"{where}[{k}]"))
        return errors
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        return [] if got == expected and type(got) is type(expected) else [
            f"{where}: {got!r} != {expected!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{where}: {got!r} is not a number"]
    if math.isclose(got, expected, rel_tol=RTOL, abs_tol=ATOL):
        return []
    return [f"{where}: {got!r} differs from {expected!r}"]


def check_aggregate(out: Path, rc: int, n_tasks: int, n_features: int,
                    expected: dict | None) -> tuple[list[str], dict | None]:
    """Errors in one ``mtaggr aggregate`` output, and the parsed result."""
    if rc != EXIT_OK:
        return [f"exit code {rc}"], None
    doc = json.loads((out / "result.json").read_text(encoding="utf-8"))
    errors = []
    tasks = sorted(t for c in doc["task_clusters"] for t in c)
    if tasks != list(range(n_tasks)):
        errors.append("task clusters do not partition the targets")
    for ci, clusters in enumerate(doc["feature_clusters"]):
        if sorted(f for c in clusters for f in c) != list(range(n_features)):
            errors.append(f"feature clusters of task cluster {ci} do not partition the features")
    if len(doc["feature_clusters"]) != len(doc["task_clusters"]):
        errors.append("one feature partition per task cluster expected")
    counts = trace_counts(doc)
    n_clusters = len(doc["task_clusters"])
    if counts["phase1.comparisons"] > n_tasks * (n_tasks - 1) // 2:
        errors.append("phase-I comparisons exceed L(L-1)/2")
    if counts["phase2.comparisons"] > n_clusters * n_features * (n_features - 1) // 2:
        errors.append("phase-II comparisons exceed l*D(D-1)/2")
    reduced = [p for p in output_files(out) if p.name.startswith("reduced_cluster")]
    if len(reduced) != n_clusters:
        errors.append(f"{len(reduced)} reduced CSVs for {n_clusters} clusters")
    if not (out / "summary.txt").is_file():
        errors.append("summary.txt missing")
    if expected is not None:
        errors.extend(close(expected, summarize_result(doc), "result"))
    return errors, doc


def verify_comparisons(report: dict) -> int:
    """Threshold comparisons the merge-guarantee checks made (two per draw)."""
    return sum(2 * c["replicates"] for c in report["checks"]
               if c["check"].startswith("merge_guarantee"))


def check_verify(out: Path, rc: int, check_names: tuple[str, ...],
                 expected: dict | None) -> tuple[list[str], dict | None]:
    """Errors in one ``mtaggr verify`` report, and the parsed report.

    Exit code 3 reports a statistical check that did not pass; it is a
    defined outcome of the command, and it must agree with the report.  At
    the default seed every check must pass.
    """
    if rc not in (EXIT_OK, EXIT_VERIFY):
        return [f"exit code {rc}"], None
    report = json.loads(out.read_text(encoding="utf-8"))
    errors = []
    names = tuple(c["check"] for c in report["checks"])
    if names != check_names:
        errors.append(f"checks {names} != {check_names}")
    if report["all_passed"] != all(c["passed"] for c in report["checks"]):
        errors.append("all_passed disagrees with the checks")
    if (rc == EXIT_OK) != report["all_passed"]:
        errors.append(f"exit code {rc} disagrees with all_passed")
    if expected is not None:
        if not report["all_passed"]:
            errors.append("a check failed at the default seed")
        errors.extend(close(expected["checks"], report["checks"], "checks"))
    return errors, report
