"""Toy-size self-test of the benchmark: every workload end to end, in seconds.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(out: dict, declared: list[dict]) -> None:
    assert set(out) == {m["name"] for m in declared}
    for m in declared:
        assert out[m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_is_correct_and_repeats(workload):
    first = result(run(workload, 5, 0))
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
    check_metrics(first["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in first["metrics"].values())
    # Same seed again: each of the three passes is compared with the digest
    # the first run stored.
    proc = run(workload, 5, 0)
    assert result(proc)["correct"]
    assert "determinism: 3 passes compared" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    out = result(run(workload, 6, 1))
    assert out["correct"]
    check_metrics(out["metrics"], SPEC["per_layer"])
    top = {"reproduce": "embeddings.load_table.calls", "oracle": "classifier.train.calls",
           "battery": "association.permutation_p.calls"}[workload]
    assert out["metrics"][top]["value"] > 0


def test_a_vanished_trace_target_fails_loudly(monkeypatch):
    import layers
    from ggsignal import cli
    from tracer import TraceTargetMissing, Tracer
    monkeypatch.delattr(cli, "_digest")
    tracer = Tracer("self-test")
    with pytest.raises(TraceTargetMissing):
        layers.install(tracer, layers.MEASURE_TARGETS)
    tracer.restore()


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("reproduce", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
