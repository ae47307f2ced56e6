"""Write ``expected/<workload>.json`` from the library's outputs at the default seed.

    python3 perfbench/record_expected.py [WORKLOAD ...]

Run this only when a change is meant to alter the outputs; a change that
only makes the library faster must leave the committed expectations alone.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # first: it pins the BLAS threads before numpy is imported
import expect
from workloads import WORKLOADS


def record(cli, workload) -> dict:
    workdir = run.WORK / f"record-{workload.name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        invocations = workload.build(expect.DEFAULT_SEED, workdir)
        docs = {}
        for inv in invocations:
            _, rc = run.invoke(cli, inv)
            doc = json.loads(inv.outputs.joinpath("result.json").read_text(encoding="utf-8")
                             if inv.outputs.is_dir() else inv.outputs.read_text(encoding="utf-8"))
            if workload.command == "verify":
                if rc != expect.EXIT_OK:
                    raise SystemExit(f"{workload.name}: verify failed at the default seed")
                return {"seed": expect.DEFAULT_SEED, "checks": doc["checks"]}
            if rc != expect.EXIT_OK:
                raise SystemExit(f"{workload.name}/{inv.label}: exit code {rc}")
            docs[inv.label] = {"data_seed": inv.data_seed,
                               "result": expect.summarize_result(doc)}
        return {"seed": expect.DEFAULT_SEED, "datasets": docs}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(names) -> int:
    cli = run.import_library()
    if cli is None:
        print(f"cannot import mtaggr from {run.SRC}", file=sys.stderr)
        return 2
    for name in names or list(WORKLOADS):
        doc = record(cli, WORKLOADS[name])
        path = expect.EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"wrote {path} ({path.stat().st_size / 1e3:.0f} kB)")
    run.WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
