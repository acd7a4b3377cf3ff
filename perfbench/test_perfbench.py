"""Tests of the benchmark itself (opt-in: ``python3 -m pytest perfbench``).

They check the output contract against BENCHMARK.json, that a wrong result
and a rank exception are counted as failed ops instead of being dropped or
crashing the report, and that the benchmark refuses to run without the
program it measures.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
from workloads import WORKLOADS, TrainTopKWorkload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_the_workloads_the_benchmark_defines():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_printed_metrics_match_benchmark_json(workload, trace):
    out = run_cli("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert np.isfinite(m["value"]), name
        # every metric is printed by name with its unit on the report lines
        assert any(line.split()[:1] == [name] for line in out.stdout.splitlines()), name
    if trace == "1":
        assert result["metrics"]["trace.attributed_share"]["value"] >= 0.9


@dataclasses.dataclass
class CorruptingWorkload(TrainTopKWorkload):
    """Rank 1 flips one bit of its params after its second episode."""

    episodes: int = 0

    def run_batch(self, comm, inputs, state, spans, times):
        params = super().run_batch(comm, inputs, state, spans, times)
        self.episodes += 1
        if comm.rank == 1 and self.episodes == 2:
            params = params.copy()
            params.view(np.uint32)[0] ^= 1
        return params


@dataclasses.dataclass
class RaisingWorkload(TrainTopKWorkload):
    """Rank 1 raises at the start of its second episode."""

    episodes: int = 0

    def run_batch(self, comm, inputs, state, spans, times):
        self.episodes += 1
        if comm.rank == 1 and self.episodes == 2:
            raise RuntimeError("injected rank failure")
        return super().run_batch(comm, inputs, state, spans, times)


STEPS = 10


def short(cls):
    """train-topk with short episodes, to inject faults into."""
    return cls(name="train-test", why="fault injection", backend="shmem", batch_size=16,
               steps=STEPS)


def test_corrupted_result_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(harness, "ROUNDS", 1)
    report = harness.run_workload(short(CorruptingWorkload), seed=1, seconds=3.0, traced=False)
    assert report["correct"] is False
    assert report["failed"] == STEPS
    assert report["attempted"] >= 2 * STEPS
    assert report["metrics"]["success_rate"]["value"] < 1.0


def test_rank_exception_is_counted_not_fatal(monkeypatch):
    monkeypatch.setattr(harness, "ROUNDS", 1)
    monkeypatch.setattr(harness, "OP_TIMEOUT_S", 2.0)
    report = harness.run_workload(short(RaisingWorkload), seed=1, seconds=5.0, traced=False)
    assert report["correct"] is False
    assert report["failed"] >= 1
    assert report["attempted"] >= STEPS + report["failed"]
    assert any("injected rank failure" in e for e in report["details"]["errors"])
    assert set(report["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_cli("--workload", "train-topk", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_tail_percentile_keeps_ten_samples_beyond():
    assert harness.tail_percentile(5000) == 90.0
    assert harness.tail_percentile(100) == 90.0
    assert harness.tail_percentile(99) == 75.0
    assert harness.tail_percentile(5) == 50.0
