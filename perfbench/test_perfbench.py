"""Tests of the benchmark itself, on the smoke variant of each workload.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from child import HostClock  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = json.loads((HERE / "counts.json").read_text(encoding="utf-8"))


def result_of(capsys, *argv) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_smoke_reports_every_end_to_end_metric(capsys, workload):
    result = result_of(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", "0", "--smoke")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.WORKLOADS[workload]["min_seeds"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_smoke_reproduces_recorded_counts(capsys, workload):
    result = result_of(capsys, "--workload", workload, "--seed", "0", "--seconds", "0",
                       "--trace", "1", "--smoke")
    assert result["correct"] and result["attempted"] == 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    counts = {n: m["value"] for n, m in result["metrics"].items() if run.is_exact_count(n)}
    assert counts == COUNTS[run.reference_key(workload, smoke=True)]
    shares = sum(m["value"] for n, m in result["metrics"].items() if n.startswith("layer."))
    assert shares == pytest.approx(100.0, abs=1.0)


def test_seed_count_does_not_depend_on_speed():
    spec = run.workload_spec("default", smoke=False)
    assert run.seeds_per_run(spec, 10, trace=False) == 2
    assert run.seeds_per_run(spec, 60, trace=False) == 3
    assert run.seeds_per_run(spec, 10, trace=True) == 1
    assert run.seeds_per_run(run.workload_spec("eval_wide", smoke=False), 10, trace=False) == 1


def test_host_clock_subtracts_only_the_bursts_inside_the_seed():
    clock = HostClock()
    clock.start()
    time.sleep(1.0)  # resumed after each SIGALRM burst
    burst_s, burst_cpu_s = clock.stop()
    assert len(clock.bursts) >= 4  # before, at least two inside, after
    assert burst_s == sum(wall for wall, _ in clock.bursts[1:-1])
    assert 0 < burst_cpu_s <= burst_s * 1.5
    assert clock.mean_burst_s() > 0


def test_time_limit_ends_the_run_without_a_result(capsys, monkeypatch):
    monkeypatch.setattr(run, "TIME_LIMIT_S", 0.0)
    assert run.main(["--workload", "eval_wide", "--seed", "0", "--seconds", "0",
                     "--trace", "0", "--smoke"]) == 3
    captured = capsys.readouterr()
    assert "correct" not in captured.out
    assert "time limit" in captured.err


def test_tracer_restores_every_patched_attribute():
    sys.path.insert(0, str(run.SRC))
    import fcre.continual
    import fcre.inference

    before = fcre.continual.joint_loss, fcre.inference.euclidean
    tracer = Tracer()
    patched = tracer.install()
    try:
        assert fcre.continual.joint_loss is not before[0]
        assert fcre.inference.euclidean is not before[1]
    finally:
        tracer.restore()
    assert all(getattr(ns, attr) is original for ns, attr, original in patched)
    assert (fcre.continual.joint_loss, fcre.inference.euclidean) == before


def test_gate_rejects_wrong_accuracy_and_structure():
    csv_text = ("task,head,acc_avg,acc_per_task_1,acc_per_task_2,drop\r\n"
                "1,ncm,1.0,1.0,,0.0\r\n2,ncm,0.9,0.9,0.9,0.1\r\n"
                "1,dri,1.0,1.0,,0.0\r\n2,dri,0.8,0.8,,0.2\r\n")
    result = {"metrics_csv": csv_text, "final": {"ncm": 0.9, "dri": 0.8}}
    errors = run.check_seed(result, 2, {"ncm": 0.9, "dri": 0.8001})
    assert errors == ["dri task 2: acc_per_task has 1 entries",
                      "dri: final_acc 0.8 != reference 0.8001"]
    assert run.check_seed(result, 3, {"ncm": 0.9, "dri": 0.8})[0] == "ncm: 2 rows, expected 3"
    assert run.check_seed(result, 2, None) == [
        "no reference accuracy for this seed", "dri task 2: acc_per_task has 1 entries"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
