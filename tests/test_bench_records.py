"""Every benchmark record at the repository root is complete and names a real workload.

A BENCH_*.json file records one claimed gain: the change, the command that
measured it, the claim on a workload that BENCHMARK.json declares, the
machine it ran on, every run and their summary.
"""

import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_RECORDS = sorted(_ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
_WORKLOADS = {w["name"] for w in json.loads((_ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_there_are_records():
    assert _RECORDS


@pytest.mark.parametrize("path", _RECORDS, ids=[p.name for p in _RECORDS])
def test_a_bench_record_is_complete(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for key in ("change", "command", "summary"):
        assert record.get(key), f"{path.name} has no {key}"
    assert record["claim"]["workload"] in _WORKLOADS
    machine = record["machine"]
    for key in ("cpus", "python", "numpy", "blas_threads"):
        assert key in machine, f"{path.name} has no machine.{key}"
    assert isinstance(record["runs"], list) and record["runs"]
