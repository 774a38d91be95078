"""Every artifact of the benchmark's pool seeds keeps its bytes.

For pool seeds 0-9 of each workload in ``perfbench/run.py``'s
``WORKLOADS``, a seed runs in process with the config that perfbench
writes for it, and ``tests/pool_digests.json`` pins its run id and the
SHA-256 of its ``config.json``, ``metrics.csv`` and every checkpoint.
A file workload writes its JSONL inputs first, through ``cmd_generate``
with the seed, as ``fcre generate --seed`` does for perfbench.  Paths
are relative to a temporary working directory, so neither run ids nor
``config.json`` depend on where it lies.

Matrix products may round differently under another Python, NumPy or
BLAS, so the file records the versions, the machine and the OpenBLAS
core it was made on, and a failure names any that differ before the
files that moved.  A change that means to move bits re-records the file:

    PYTHONPATH=src python tests/test_pool_digests.py
"""

import ctypes
import hashlib
import importlib.util
import json
import os
import platform
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fcre.cli import cmd_generate, config_from_dict, run_single_seed

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().with_name("pool_digests.json")
POOL = range(10)


def _perfbench_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _perfbench_workloads()


def blas_core() -> str:
    """The core OpenBLAS chose for NumPy's kernels (``OPENBLAS_CORETYPE`` overrides it),
    read from the ``scipy_openblas`` library NumPy ships in ``numpy.libs``, or "unknown"."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*scipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def platform_stamp() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "blas_core": blas_core()}


def seed_digests(workload: str, seed: int) -> dict:
    """Run id and file digests of one pool seed, run in the current working directory."""
    spec = WORKLOADS[workload]
    config_dict = {
        "data": {"mode": "synthetic", "synthetic": spec["synthetic"]},
        "hyperparams": spec["hyperparams"],
        "seeds": [seed],
        "out_dir": "runs",
    }
    if spec["files"]:
        data = f"data-{seed}"
        config = config_from_dict(config_dict)
        cmd_generate(replace(config, synthetic=replace(config.synthetic, seed=seed)), data)
        config_dict["data"].update(mode="files", dataset_path=f"{data}/dataset.jsonl",
                                   descriptions_path=f"{data}/descriptions.jsonl")
    run_dir = Path(run_single_seed(config_from_dict(config_dict), seed)["run_dir"])
    files = sorted(p for p in run_dir.rglob("*") if p.is_file())
    return {
        "run_id": run_dir.name,
        "files": {p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in files},
    }


def workload_digests(workload: str) -> dict:
    return {str(seed): seed_digests(workload, seed) for seed in POOL}


def differences(recorded: dict, found: dict) -> list[str]:
    """Each run id and file of ``recorded`` that ``found`` lacks or holds with other bytes,
    then each file ``found`` holds beyond it, as ``seed <n>: <what>``."""
    lines = []
    for seed, want in recorded.items():
        got = found[seed]
        if got["run_id"] != want["run_id"]:
            lines.append(f"seed {seed}: run id {got['run_id']} != {want['run_id']}")
        for name, digest in want["files"].items():
            if name not in got["files"]:
                lines.append(f"seed {seed}: {name} missing")
            elif got["files"][name] != digest:
                lines.append(f"seed {seed}: {name} differs")
        lines += [f"seed {seed}: {name} not recorded" for name in got["files"]
                  if name not in want["files"]]
    return lines


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_pool_seeds_keep_their_bytes(workload, tmp_path, monkeypatch):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    lines = differences(recorded["workloads"][workload], workload_digests(workload))
    stamp = platform_stamp()
    if lines and stamp != recorded["platform"]:
        moved = [f"{key} {recorded['platform'].get(key)} -> {value}"
                 for key, value in stamp.items() if recorded["platform"].get(key) != value]
        lines.insert(0, f"recorded on another platform: {', '.join(moved)}")
    assert not lines, f"{workload}: " + "\n".join(lines)


def record() -> None:
    """Write ``pool_digests.json`` from this tree's runs of every workload."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            workloads = {name: workload_digests(name) for name in sorted(WORKLOADS)}
        finally:
            os.chdir(here)
    text = json.dumps({"platform": platform_stamp(), "workloads": workloads}, indent=1,
                      sort_keys=True)
    DIGESTS.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    record()
