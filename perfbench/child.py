"""One benchmark operation in a fresh interpreter: one seed of fcre.

    python child.py <config.json> <seed> <run|trace|probe> <result.json>

``run`` calls ``fcre.cli.run_single_seed`` once; ``trace`` does the
same under the tracer; ``probe`` stops at the first ``run_task`` call,
so it measures set-up only.  The result file holds the monotonic time
of the first ``run_task`` call (the parent subtracts its spawn time),
the seed's wall and CPU seconds, the run's ``metrics.csv`` text and summary,
and the child's peak resident memory.  ``fcre`` must be importable,
which the parent arranges through ``PYTHONPATH``.

A ``run`` seed also measures the speed of the host while it runs (see
``HostClock``) and reports its time scaled to a reference speed.
"""

import gc
import json
import math
import resource
import signal
import statistics
import sys
import time

import numpy as np

# A fixed loop of small-vector NumPy calls, the kind of work fcre does,
# timed once before a seed, every CALIB_PERIOD_S during it and once
# after.  On a shared machine the speed of a core drifts by a factor of
# up to two within minutes, and the seed's wall time drifts with it; the
# mean time of these bursts tracks that drift.  ``seed_norm_s`` is the
# seed's time net of the bursts, scaled to a host on which one burst
# takes CALIB_REF_S (about an idle core of a 2.1 GHz Xeon).  Bursts every
# 0.2 s tracked a seed's time better than bursts every 0.5 or 1 s.
CALIB_PERIOD_S = 0.2
CALIB_ITERS = 1000
CALIB_REF_S = 0.012


class HostClock:
    """Times calibration bursts on SIGALRM while a seed runs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)  # its own generator: fcre's state is untouched
        self.vectors = [rng.standard_normal(32) for _ in range(64)]
        self.bursts: list[tuple[float, float]] = []  # (wall, cpu) seconds each

    def burst(self, *_signal) -> None:
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t0, c0 = time.perf_counter(), time.process_time()
        total = 0.0
        for i in range(CALIB_ITERS):
            a = np.asarray(self.vectors[i % 64], dtype=np.float64)
            b = np.asarray(self.vectors[i * 7 % 64], dtype=np.float64)
            if a.ndim != 1 or not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
                raise ValueError("calibration vector is not finite")
            norms = math.sqrt(float(np.dot(a, a))) * math.sqrt(float(np.dot(b, b)))
            total += float(np.dot(a, b)) / norms + float(np.linalg.norm(a - b))
        self.bursts.append((time.perf_counter() - t0, time.process_time() - c0))
        if gc_was_enabled:
            gc.enable()

    def start(self) -> None:
        self.burst()
        signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, CALIB_PERIOD_S, CALIB_PERIOD_S)

    def stop(self) -> tuple[float, float]:
        """Disarm the timer; returns the wall and CPU seconds bursts took since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        inside = self.bursts[1:]
        self.burst()
        return sum(w for w, _ in inside), sum(c for _, c in inside)

    def mean_burst_s(self) -> float:
        return statistics.fmean(w for w, _ in self.bursts)


class _SetupDone(Exception):
    """Raised by the probe at the first task, once set-up is complete."""


def main(config_path: str, seed: int, mode: str, result_path: str) -> None:
    import fcre.cli

    first_task_at: list[float] = []
    run_task = fcre.cli.run_task

    def first_task_hook(*args, **kwargs):
        if not first_task_at:
            first_task_at.append(time.monotonic())
            if mode == "probe":
                raise _SetupDone
        return run_task(*args, **kwargs)

    config = fcre.cli.load_config(config_path)
    result: dict = {}
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        patched = tracer.install()
    clock = HostClock() if mode == "run" else None
    fcre.cli.run_task = first_task_hook
    try:
        if clock is not None:
            clock.start()
        t0, c0 = time.perf_counter(), time.process_time()
        summary = fcre.cli.run_single_seed(config, seed)
        seed_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
        if clock is not None:
            burst_s, burst_cpu_s = clock.stop()
            seed_s, cpu_s = seed_s - burst_s, cpu_s - burst_cpu_s
    except _SetupDone:
        summary = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        fcre.cli.run_task = run_task
        if tracer is not None:
            tracer.restore()
            unrestored = [f"{ns.__name__}.{attr}" for ns, attr, orig in patched
                          if getattr(ns, attr) is not orig]
            if unrestored:
                raise RuntimeError(f"tracer left patched attributes: {unrestored}")
    result["first_task_at"] = first_task_at[0]
    if summary is not None:
        with open(f"{summary['run_dir']}/metrics.csv", encoding="utf-8", newline="") as fh:
            result["metrics_csv"] = fh.read()
        result["seed_s"] = seed_s
        result["cpu_s"] = cpu_s
        if clock is not None:
            result["host_burst_s"] = clock.mean_burst_s()
            result["seed_norm_s"] = seed_s * CALIB_REF_S / result["host_burst_s"]
        result["final"] = summary["final"]
        result["drop"] = summary["drop"]
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["versions"] = _versions()
        if tracer is not None:
            result["trace"] = tracer.metrics(seed_s)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _versions() -> dict:
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4])
