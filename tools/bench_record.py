"""Record paired benchmark runs of a change and its base into a BENCH_*.json file.

    python3 tools/bench_record.py --base ../base --out BENCH_8.json
    python3 tools/bench_record.py --base ../base --workloads many_targets \\
        --seeds 0,11 --out BENCH_8.json

For every workload and seed it runs ``perfbench/run.py --workload W --seed S
--seconds 24 --trace 0`` once in the base checkout and once in this one, per
pair, each in a fresh process.  Run it from a clone of the change whose base
is a sibling clone in the same directory, as ``--base ../base`` above:
``setup_s`` and the ``many_targets`` peak RSS have been seen to follow the
directory a side runs in, not its code.  It always runs 10 pairs, the fewest
that can carry a claimed gain, at the run length claims are made at.  The
order alternates from pair to pair (base first in even pairs), so slow drift
of the machine favours neither side.  The file keeps each run's final JSON
line and the ``environment`` line, and for each end-to-end metric of
``BENCHMARK.json`` the median and quartiles of either side, the pairs the
change won, and whether that makes a gain or a regression past the
metric's bound (see ``summarize``).  With ``--append`` the runs are added
to an existing file, which must come from the same environment.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SECONDS = 24


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in ``tree``: its final JSON line and its environment."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr}")
    environment = next(json.loads(line.removeprefix("environment "))
                       for line in lines if line.startswith("environment "))
    return json.loads(lines[-1]), environment


def commit(tree: Path) -> str | None:
    """The commit checked out in ``tree``, marked dirty if it has changes."""
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Quartiles of each side, the change's wins and the verdicts, per end-to-end metric.

    ``gain``: the change wins at least 9 in 10 pairs (a tie counts for
    neither side) and its median is better than the base's by more than the
    base's q3 - q1.  ``regressed``: its median is worse than the base's by
    more than the metric's relative ``bound``.
    """
    out = {}
    for metric in metrics:
        name = metric["name"]
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in ("base", "change")}
        # The better direction is up: signs flip a lower-is-better metric.
        sign = -1 if metric["better"] == "lower" else 1
        wins = sum(sign * (c - b) > 0 for b, c in zip(sides["base"], sides["change"]))
        entry = {"wins": wins, "pairs": len(pairs)}
        for side, values in sides.items():
            q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                              else values * 3)
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        base, change = entry["base"], entry["change"]
        gap = sign * (change["median"] - base["median"])
        entry["gain"] = 10 * wins >= 9 * len(pairs) and gap > base["q3"] - base["q1"]
        entry["regressed"] = -gap > metric["bound"] * abs(base["median"])
        out[name] = entry
    return out


def record(doc: dict, base: Path, workloads: list[str], seeds: list[int],
           pairs: int, seconds: float, runner=run_once) -> dict:
    """Run every pair into ``doc``, the document ``main`` writes, and return it."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"base": base, "change": ROOT}
    for workload in workloads:
        for seed in seeds:
            done = []
            for k in range(pairs):
                pair = {}
                for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
                    pair[side], environment = runner(trees[side], workload, seed, seconds)
                    if doc["environment"] is None:
                        doc["environment"] = environment
                    elif environment != doc["environment"]:
                        raise RuntimeError(f"the environment changed: {environment}")
                done.append(pair)
                print(f"{workload} seed {seed} pair {k}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['invocation_s']['value']:.4g} s"
                    for side in ("base", "change")), flush=True)
            doc["runs"][f"{workload}/seed{seed}"] = {
                "pairs": done,
                "correct": all(p[side]["correct"] for p in done for side in p),
                "summary": summarize(done, metrics),
            }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout of the commit to compare against")
    parser.add_argument("--workloads", default="reference,many_targets,slabs,verify_quick")
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--append", action="store_true",
                        help="add the runs to the existing --out file")
    args = parser.parse_args(argv)
    base = args.base.resolve()
    head = {"command": f"perfbench/run.py --workload W --seed S "
                       f"--seconds {SECONDS} --trace 0",
            "base_commit": commit(base), "change_commit": commit(ROOT)}
    if args.append:
        doc = json.loads(args.out.read_text(encoding="utf-8"))
        if {key: doc[key] for key in head} != head:
            parser.error(f"{args.out} records other commits or another command")
    else:
        doc = {**head, "environment": None, "runs": {}}
    record(doc, base, args.workloads.split(","), [int(s) for s in args.seeds.split(",")],
           PAIRS, SECONDS)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if all(group["correct"] for group in doc["runs"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
