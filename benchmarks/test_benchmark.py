"""The benchmark's own tests: input determinism, output checks, traced metrics.

Run from the repository root: python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from generate import generate  # noqa: E402
from spans import Span, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, name):
    workload = WORKLOADS[name]
    generate(workload, 7, tmp_path / "a", "tiny")
    generate(workload, 7, tmp_path / "b", "tiny")
    generate(workload, 8, tmp_path / "c", "tiny")
    first = _tree(tmp_path / "a")
    assert first == _tree(tmp_path / "b")
    other = _tree(tmp_path / "c")
    assert first.keys() == other.keys()
    assert first["train.json"] != other["train.json"]


def _bench(name: str, trace: int) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", name, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_output_checks(name):
    code, result, stderr = _bench(name, trace=0)
    assert code == 0, stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}


def test_traced_run_emits_every_per_layer_metric():
    code, result, stderr = _bench("dual-corpus", trace=1)
    assert code == 0, stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert result["metrics"]["selection.skeleton_calls"]["value"] > 0


def test_self_time_counts_overlapping_children_once():
    parent = Span(1, "metrics.score_run", None)
    parent.start, parent.end = 0.0, 10.0
    a = Span(2, "execution.execute_sql", 1)
    a.start, a.end = 1.0, 5.0
    b = Span(3, "execution.execute_sql", 1)  # another thread, overlapping a
    b.start, b.end = 3.0, 7.0
    selfs = self_times([parent, a, b])
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(4.0)


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "dual-corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
