"""Record the benchmark's reference accuracies and exact per-layer counts.

    python3 perfbench/record.py

For every workload and its smoke variant, runs each pool seed untraced
and stores its final accuracy per head in ``reference.json``.  It then
traces pool seed 0 twice, requires the two traces to give the same
exact counts (calls, degenerate-input tallies, ratios, bytes) and a
``metrics.csv`` byte-identical to the untraced run, and stores those
counts in ``counts.json``.  Children run one at a time, and both files
are rewritten whole, so every entry comes from the same commit.
Run it only at a commit whose behaviour is the intended reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def record(workload: str, smoke: bool) -> tuple[dict, dict]:
    spec = run.workload_spec(workload, smoke)
    work = run.work_dir() / run.reference_key(workload, smoke)
    work.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(spec, work, deadline=float("inf"))
    untraced = {seed: runner.child(seed, "run") for seed in range(run.POOL)}
    traces = [runner.child(0, "trace") for _ in range(2)]
    references = {}
    for seed, result in untraced.items():
        errors = run.check_seed(result, spec["n_tasks"], result["final"])
        if errors:
            raise RuntimeError(f"{workload} seed {seed}: {errors}")
        references[str(seed)] = result["final"]
    counts = [{k: v for k, v in t["trace"].items() if run.is_exact_count(k)} for t in traces]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        raise RuntimeError(f"{workload}: traced counts differ between runs: {diff}")
    if any(t["metrics_csv"] != untraced[0]["metrics_csv"] for t in traces):
        raise RuntimeError(f"{workload}: traced metrics.csv differs from the untraced run")
    return references, counts[0]


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    paths = {"reference": run.HERE / "reference.json", "counts": run.HERE / "counts.json"}
    stored: dict[str, dict] = {name: {} for name in paths}
    try:
        for workload in sorted(run.WORKLOADS):
            for smoke in (True, False):
                key = run.reference_key(workload, smoke)
                stored["reference"][key], stored["counts"][key] = record(workload, smoke)
                print(f"recorded {key}", file=sys.stderr)
    finally:
        shutil.rmtree(run.work_dir(), ignore_errors=True)
    for name, path in paths.items():
        path.write_text(json.dumps(stored[name], indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
