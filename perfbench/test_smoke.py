"""Smoke test of the benchmark itself: every workload at n=4 in both modes,
checked against the schema that BENCHMARK.json declares.

    python -m pytest perfbench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_declared_metrics(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--n", "4")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", "sweep_hea_n10", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_tracer_restores_every_wrapped_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import sparseq  # noqa: F401
    from spans import Tracer

    def bindings():
        modules = [m for k, m in sys.modules.items() if k == "sparseq" or k.startswith("sparseq.")]
        out = {}
        for module in modules:
            for name, value in vars(module).items():
                out[(module.__name__, name)] = value
                if isinstance(value, type) and value.__module__.startswith("sparseq"):
                    out.update({(module.__name__, name, a): v for a, v in vars(value).items()})
        return out

    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert bindings() != before
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
