"""Tests of the benchmark itself: exact counts, failure accounting, set-up parsing.

Run with ``python -m pytest benchmarks/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import LAYERS  # noqa: E402

COUNT_KEYS = LAYERS + run.FUNCTIONS + run.LINALG_COUNTS + ("linalg",)


def traced_counts(wl, passes):
    wl.warm_up()
    tracer, pass_times, _, attempted, failed = run.trace_passes(wl, 0, passes=passes)
    assert failed == 0 and tracer.mismatched_passes == 0
    stats = tracer.per_op(pass_times[0][0])
    return {k: stats.get(k, (0.0, 0.0))[0] for k in COUNT_KEYS}


def test_traced_counts_repeat_exactly_for_a_seed():
    first = traced_counts(workloads.Obstates(7, pool=8), passes=1)
    again = traced_counts(workloads.Obstates(7, pool=8), passes=2)
    assert first == again
    assert first["obstate.report"] == 1.0
    assert first["linalg.svd"] > 0 and first["linalg.qr"] > 0
    assert first["classical"] == 0.0 and first["scipy.expm"] == 0.0


def test_traced_sweep_counts_repeat_and_reach_expm():
    first = traced_counts(workloads.Sweep(3, trials=2), passes=1)
    again = traced_counts(workloads.Sweep(3, trials=2), passes=1)
    assert first == again
    assert first["scipy.expm"] > 0 and first["classical"] > 0
    assert first["obstate.report"] == 0.0


def test_tracer_restores_every_patched_name():
    import numpy as np

    from apline import crossratio, grassmann, hermitian, obstate
    before = (obstate.kernel, crossratio.kernel, hermitian.tau,
              hermitian._INVOLUTIONS["tau"], grassmann.SubspacePoint.__init__,
              np.linalg.svd)
    traced_counts(workloads.Geometry(1, pool=1), passes=1)
    after = (obstate.kernel, crossratio.kernel, hermitian.tau,
             hermitian._INVOLUTIONS["tau"], grassmann.SubspacePoint.__init__,
             np.linalg.svd)
    assert all(a is b for a, b in zip(before, after))


def test_sweep_report_digest_repeats_for_a_seed():
    digests = []
    for _ in range(2):
        wl = workloads.Sweep(5, trials=2)
        latencies = []
        attempted, failed = wl.run_pass(latencies)
        assert failed == 0 and attempted == len(latencies) == 2 * 34
        digests.append(wl.digest)
    assert digests[0] == digests[1]
    wl = workloads.Sweep(6, trials=2)
    wl.run_pass([])
    assert wl.digest != digests[0]


@pytest.mark.parametrize("cls", [workloads.Obstates, workloads.Geometry])
def test_failed_ops_are_counted_and_never_abort_the_pass(cls):
    wl = cls(11, pool=6)
    honest = wl.op

    def faulty(case):
        i = [c is case for c in wl.cases].index(True)
        if i == 1:
            raise RuntimeError("op raised")
        result = honest(case)
        if i == 2:     # a perturbed output fails its check
            if cls is workloads.Obstates:
                rep, _ = result
                rep = dict(rep, expectation=rep["expectation"] * (1 + 1e-6))
                return rep, json.dumps(rep, sort_keys=True, indent=2)
            return result[:4] + (result[4] * (1 + 1e-6),)
        if i == 3:     # a malformed output makes the check raise
            return None
        return result

    wl.op = faulty
    latencies = []
    assert wl.run_pass(latencies) == (6, 3)
    assert len(latencies) == 6
    assert wl.errors == ["case 1: RuntimeError: op raised",
                         "case 2: output failed its check",
                         "case 3: check raised TypeError: cannot unpack non-iterable "
                         "NoneType object"]


def test_sweep_failures_and_changed_reports_are_counted(monkeypatch):
    wl = workloads.Sweep(0, trials=1)
    report = {"ok": False, "properties": {
        "a": {"pass_count": 2, "fail_count": 1, "ok": False,
              "example_failure": {"trial": 0}},
        "b": {"pass_count": 3, "fail_count": 0, "ok": True}}}
    monkeypatch.setattr(workloads.properties, "run_sweep", lambda **kw: report)
    assert wl.run_pass([]) == (6, 1)
    fixed = dict(report, ok=True,
                 properties={"b": dict(report["properties"]["b"])})
    monkeypatch.setattr(workloads.properties, "run_sweep", lambda **kw: fixed)
    assert wl.run_pass([]) == (3, 1)   # differs from the first report
    assert any("changed" in e for e in wl.errors)


def test_generated_inputs_depend_only_on_the_seed():
    a, b = workloads.Geometry(4, pool=2), workloads.Geometry(4, pool=2)
    for ca, cb in zip(a.cases, b.cases):
        assert all((x == y).all() for x, y in zip(ca.quad + ca.rns, cb.quad + cb.rns))
    pure = [c.pure for c in workloads.Obstates(4, pool=8).cases]
    assert pure == [False, False, False, True] * 2


def test_importtime_is_charged_to_the_nearest_owner():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |         50 |     _ctypes",
        "import time:       200 |        350 |   numpy",
        "import time:        30 |         30 |     scipy.linalg",
        "import time:        10 |         40 |   scipy",
        "import time:        20 |         20 |   hashlib",
        "import time:         5 |        415 | apline.algebra",
        "import time:         7 |          7 | encodings",
    ])
    assert run.parse_importtime(stderr) == pytest.approx(
        {"apline": 0.025, "scipy": 0.04, "click": 0.0, "numpy": 0.35})


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "obstates",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
