"""Benchmark of the fcre engine: one operation is one seed of a workload.

    python3 perfbench/run.py --workload default --seed 0 --seconds 17 --trace 0

Run from the root of a source checkout.  Every seed runs in a fresh
interpreter (``child.py``) that imports ``fcre`` from ``src/``, so
set-up time and peak memory are those a user of ``fcre run`` sees.
The number of seeds a run measures depends only on the workload and
``--seconds``, never on how fast the seeds finish, so two commits
measure the same inputs: enough seeds to fill ``--seconds`` at the
workload's ``nominal_s``, and at least ``min_seeds`` (one untraced and
traced pair with ``--trace 1``).  The k-th seed of a run is
fcre seed ``(--seed + k) % POOL``; ``reference.json`` holds the final
accuracy of every pool seed at the commit that defined the benchmark,
and a seed whose ``metrics.csv`` disagrees with it (to 4 decimals) or
breaks the row structure counts as failed.  A run that reaches its time
limit (``TIME_LIMIT_S``, or three times ``--seconds`` if that is longer)
before all its seeds have finished stops, prints no result and exits
with code 3: it could not measure the fixed seed set.

``--trace 0`` prints the end-to-end metrics.  The bounded seed time is
``seed_norm_s``: each seed's time scaled by the host speed measured
while it ran (``child.HostClock``), since a shared machine's speed
drifts more than any allowed bound; the raw ``seed_s`` is printed
beside it.  ``--trace 1`` runs each seed twice, untraced and then
traced, requires byte-identical ``metrics.csv`` from the two, prints
both result sets, and ends with the per-layer metrics and the tracing
overhead.  ``--smoke`` shrinks
every workload to 2 tasks of 3 relations, for the benchmark's tests.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
POOL = 10
SETUP_PROBES = 9
# Keeps a run at --seconds 17 within 180 s while its seeds take up to
# about three times their workload's nominal_s.
TIME_LIMIT_S = 170.0
HEADS = ("ncm", "dri")
ACC_TOLERANCE = 5e-5  # equal to 4 decimals

# Each workload is an override of fcre's default ExperimentConfig.
# ``nominal_s`` is its seed time at the commit that defined the benchmark
# (2 shared cores); it fixes how many seeds fill --seconds.
WORKLOADS = {
    # ROADMAP's unit of work: 8 tasks, 5-way 5-shot, task 1 oversampled
    # to 500 rows; the loss layer takes ~80% of a seed.  A seed takes
    # ~27 s, and with one seed per run the quartiles of seed_s over ten
    # runs lay 18% of the median apart, so a run measures at least two.
    "default": {"synthetic": {}, "hyperparams": {}, "files": False,
                "min_seeds": 2, "nominal_s": 27.0},
    # 80 relations and 5,400 queries per head with one epoch of training:
    # evaluation dominates and the loss layer is idle.
    "eval_wide": {
        "synthetic": {"n_way": 10, "test_per_relation": 15, "task1_oversample": 5},
        "hyperparams": {"epochs_current": 1, "epochs_memory": 1},
        "files": False,
        "min_seeds": 1,
        "nominal_s": 17.0,
    },
    # 16 tasks read from JSONL files, replay batches of many relations
    # with <=5 rows each, 400 memory rows: the only workload on the file
    # read path and with large checkpoints.
    "replay_long": {
        "synthetic": {"n_tasks": 16, "shots": 10, "task1_oversample": 10,
                      "test_per_relation": 2},
        "hyperparams": {"memory_size": 5, "epochs_current": 1, "epochs_memory": 3},
        "files": True,
        "min_seeds": 1,
        "nominal_s": 17.0,
    },
}

E2E_UNITS = {
    "seed_norm_s": "s", "seed_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "final_acc.ncm": "fraction", "final_acc.dri": "fraction",
    "drop.ncm": "fraction", "drop.dri": "fraction",
}
# The end-to-end metrics with a bound in BENCHMARK.json.  The others vary
# beyond any bound: the raw seed_s with the host's speed (by up to 2x
# within minutes on a shared machine), the DRI head's final accuracy by
# 16% between quartiles of the input seeds on eval_wide, drop by 25-90%
# and below zero on replay_long.  They are printed and, through the
# reference accuracies, gated per seed, but not reported as metrics.
BOUNDED = ("seed_norm_s", "setup_s", "peak_rss_mb", "final_acc.ncm")


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".share"):
        return "%"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def is_exact_count(name: str) -> bool:
    """Per-layer metrics that repeat exactly for a fixed seed."""
    return per_layer_unit(name) in ("count", "ratio", "B")


def workload_spec(name: str, smoke: bool) -> dict:
    spec = json.loads(json.dumps(WORKLOADS[name]))
    if smoke:  # 2 tasks of 3 relations; fcre defaults a workload keeps are cut down
        spec["synthetic"].update(n_tasks=2, n_way=3)
        spec["synthetic"].setdefault("task1_oversample", 30)
        spec["hyperparams"].setdefault("epochs_current", 2)
        spec["hyperparams"].setdefault("epochs_memory", 2)
    spec["n_tasks"] = spec["synthetic"].get("n_tasks", 8)
    return spec


def seeds_per_run(spec: dict, seconds: float, trace: bool) -> int:
    """Seeds (untraced and traced pairs with ``trace``) one run measures."""
    if trace:
        return max(1, math.ceil(seconds / (2 * spec["nominal_s"])))
    return max(spec["min_seeds"], math.ceil(seconds / spec["nominal_s"]))


def reference_key(workload: str, smoke: bool) -> str:
    return f"{workload}.smoke" if smoke else workload


# ------------------------------------------------------------ children


class Runner:
    """Spawns child interpreters for one workload inside a work directory."""

    def __init__(self, spec: dict, work: Path, deadline: float) -> None:
        self.spec = spec
        self.work = work
        self.deadline = deadline
        paths = (str(SRC), os.environ.get("PYTHONPATH", ""))
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        self._configs: dict[int, Path] = {}
        self._ids = itertools.count(1)

    def _subprocess(self, argv: list[str], log: Path) -> None:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise subprocess.TimeoutExpired(argv, 0)
        with open(log, "w", encoding="utf-8") as fh:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, stdout=fh,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8").strip().splitlines()[-3:]
            raise RuntimeError(f"exit {proc.returncode}: {' | '.join(tail)}")

    def _config_dict(self, seed: int) -> dict:
        return {
            "data": {"mode": "synthetic", "synthetic": self.spec["synthetic"]},
            "hyperparams": self.spec["hyperparams"],
            "seeds": [seed],
            "out_dir": str(self.work / "runs"),
        }

    def config(self, seed: int) -> Path:
        """Config file for ``seed``; file workloads get their JSONL written first."""
        if seed in self._configs:
            return self._configs[seed]
        config = self._config_dict(seed)
        path = self.work / f"config-{seed}.json"
        if self.spec["files"]:
            data = self.work / f"data-{seed}"
            path.write_text(json.dumps(config), encoding="utf-8")
            self._subprocess([sys.executable, "-m", "fcre", "generate", "--config", str(path),
                              "--out", str(data), "--seed", str(seed)],
                             self.work / f"generate-{seed}.log")
            config["data"].update(mode="files", dataset_path=str(data / "dataset.jsonl"),
                                  descriptions_path=str(data / "descriptions.jsonl"))
        path.write_text(json.dumps(config), encoding="utf-8")
        self._configs[seed] = path
        return path

    def child(self, seed: int, mode: str) -> dict:
        """Run one child; adds ``setup_s`` (spawn to first task) to its result."""
        config = self.config(seed)
        n = next(self._ids)
        out = self.work / f"child-{n}.json"
        argv = [sys.executable, str(HERE / "child.py"), str(config), str(seed), mode, str(out)]
        spawned = time.monotonic()
        self._subprocess(argv, self.work / f"child-{n}.log")
        result = json.loads(out.read_text(encoding="utf-8"))
        result["setup_s"] = result["first_task_at"] - spawned
        return result


# ------------------------------------------------------------ correctness


def check_seed(result: dict, n_tasks: int, reference: dict | None) -> list[str]:
    """Criterion-5 structure and the reference accuracies, from metrics.csv."""
    rows = [r for r in csv.reader(io.StringIO(result["metrics_csv"])) if r][1:]
    errors = [] if reference else ["no reference accuracy for this seed"]
    for head in HEADS:
        head_rows = [r for r in rows if r[1] == head]
        if len(head_rows) != n_tasks:
            errors.append(f"{head}: {len(head_rows)} rows, expected {n_tasks}")
            continue
        for r in head_rows:
            filled = sum(1 for cell in r[3:-1] if cell != "")
            if filled != int(r[0]):
                errors.append(f"{head} task {r[0]}: acc_per_task has {filled} entries")
        final = float(head_rows[-1][2])
        if final != result["final"][head]:
            errors.append(f"{head}: summary final {result['final'][head]} != csv {final}")
        if reference and abs(final - reference[head]) > ACC_TOLERANCE:
            errors.append(f"{head}: final_acc {final!r} != reference {reference[head]!r}")
    return errors


# ------------------------------------------------------------ stamp


def git_sha() -> str:
    """HEAD of the repository rooted here; "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        return out[1]
    return "unknown"


def stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in blas_env},
        "loadavg": os.getloadavg(),
    }


# ------------------------------------------------------------ one run


def mean(values):
    return sum(values) / len(values)


def e2e_metrics(results: list[dict], setup_samples: list[float]) -> dict[str, float]:
    metrics = {
        "seed_norm_s": statistics.median(r["seed_norm_s"] for r in results),
        "seed_s": statistics.median(r["seed_s"] for r in results),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for r in results),
    }
    for head in HEADS:
        metrics[f"final_acc.{head}"] = mean([r["final"][head] for r in results])
    for head in HEADS:
        metrics[f"drop.{head}"] = mean([r["drop"][head] for r in results])
    return metrics


def trace_metrics(pairs: list[tuple[dict, dict]]) -> dict[str, float]:
    """Per-layer metrics, averaged per traced seed, plus the tracing overhead."""
    names = pairs[0][1]["trace"].keys()
    metrics = {name: mean([t["trace"][name] for _, t in pairs]) for name in names}
    untraced = statistics.median(u["seed_s"] for u, _ in pairs)
    traced = statistics.median(t["seed_s"] for _, t in pairs)
    metrics["trace.untraced.seed_s"] = untraced
    metrics["trace.traced.seed_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    return metrics


def measure(runner: Runner, args, references: dict) -> dict:
    """Run the seeds of one benchmark run; returns the result object.

    Raises ``subprocess.TimeoutExpired`` once the run's time limit is
    reached, since the fixed seed set can then not be measured.
    """
    spec = runner.spec
    setup_samples = []
    for _ in range(SETUP_PROBES):
        try:
            setup_samples.append(runner.child(args.seed % POOL, "probe")["setup_s"])
        except (RuntimeError, OSError) as exc:
            print(f"set-up probe: FAILED: {exc}", file=sys.stderr)
    ok: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    attempted = failed = 0
    for k in range(seeds_per_run(spec, args.seconds, bool(args.trace))):
        seed = (args.seed + k) % POOL
        modes = ("run", "trace") if args.trace else ("run",)
        done = {}
        for mode in modes:
            attempted += 1
            try:
                result = runner.child(seed, mode)
            except (RuntimeError, OSError) as exc:
                failed += 1
                print(f"seed {seed} {mode}: FAILED: {exc}", file=sys.stderr)
                continue
            errors = check_seed(result, spec["n_tasks"], references.get(str(seed)))
            if mode == "trace" and "run" in done and \
                    result["metrics_csv"] != done["run"]["metrics_csv"]:
                errors.append("traced metrics.csv differs from the untraced run")
            if errors:
                failed += 1
                print(f"seed {seed} {mode}: INCORRECT: {'; '.join(errors)}", file=sys.stderr)
                continue
            done[mode] = result
            norm = (f", norm {result['seed_norm_s']:.3f} s at burst "
                    f"{1000 * result['host_burst_s']:.1f} ms" if mode == "run" else "")
            print(f"seed {seed} {mode}: {result['seed_s']:.3f} s (cpu {result['cpu_s']:.3f} s{norm})  "
                  + "  ".join(f"{h}={result['final'][h]:.5f}" for h in HEADS))
        if "run" in done:
            ok.append(done["run"])
        if "trace" in done and "run" in done:
            pairs.append((done["run"], done["trace"]))
    if ok:
        print(f"versions {json.dumps(ok[0]['versions'])}")
    metrics = {}
    if ok and setup_samples:
        e2e = e2e_metrics(ok, setup_samples)
        label = "untraced" if args.trace else "e2e"
        for name, value in e2e.items():
            note = "" if name in BOUNDED else "  (not bounded)"
            print(f"{label:9s} {name:34s} {value!r:>22} {E2E_UNITS[name]}{note}")
        print(f"{label:9s} samples: {len(ok)} seeds, {len(setup_samples)} set-up probes")
        if not args.trace:
            metrics = {n: {"value": e2e[n], "unit": E2E_UNITS[n]} for n in BOUNDED}
    if args.trace and pairs:
        layers = trace_metrics(pairs)
        for name, value in layers.items():
            print(f"{'traced':9s} {name:34s} {value!r:>22} {per_layer_unit(name)}")
        metrics = {n: {"value": v, "unit": per_layer_unit(n)} for n, v in layers.items()}
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="2 tasks of 3 relations per workload, for the tests")
    return parser.parse_args(argv)


def work_dir() -> Path:
    return ROOT / ".perfbench_work" / str(os.getpid())


def main(argv=None) -> int:
    args = parse_args(argv)
    # SystemExit makes subprocess.run kill and reap the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "fcre" / "__init__.py").is_file():
        print(f"error: no fcre package under {SRC}", file=sys.stderr)
        return 2
    t_start = time.monotonic()
    time_limit = max(TIME_LIMIT_S, 3 * args.seconds)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print(f"# stamp {json.dumps(stamp())}")
    references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    references = references.get(reference_key(args.workload, args.smoke), {})
    work = work_dir()
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload_spec(args.workload, args.smoke), work, t_start + time_limit)
        result = measure(runner, args, references)
    except subprocess.TimeoutExpired:
        print(f"error: time limit of {time_limit:.0f} s reached before every seed of the run "
              "had finished; no result", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
