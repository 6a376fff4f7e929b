"""Benchmark of the apline engine: three workloads, one command.

    python3 benchmarks/run.py --workload sweep|obstates|geometry-n16 \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports apline from the
checkout's ``src/`` and nowhere else.  Each workload runs in this single
process with one closed-loop client (the next op starts when the previous
one has returned) and no threads; BLAS is pinned to one thread.

``--trace 0`` measures the end-to-end metrics with tracing off.  Times are
the process's CPU time: the workloads are single-threaded and CPU-bound,
so this is wall time without the intervals in which the process was not
running.  Op times are then scaled to a fixed machine speed by the
``SpeedGauge``; the raw figures are printed alongside.

* ``setup_s``: median over fresh interpreters of ``import apline.cli`` plus
  one warm-up op (every ``apline`` command pays this);
* ``ops_per_s``: ops attempted over the scaled time of the timed passes (a
  sweep op is one property trial);
* ``op_p50_ms`` / ``op_p99_ms``: scaled per-op time over every op of the
  run; the run goes on past ``--seconds`` until it has at least 1000 ops,
  so at least ten lie beyond the 99th percentile;
* ``ok_ratio``: ops that returned and passed their check, over ops
  attempted (the complement of the fail ratio, which is 0 when all is well);
* ``peak_rss_mb``: peak resident memory of the measuring process.

``--trace 1`` runs the same passes with the layer trace installed and
reports per-layer metrics: calls and self time per op for each module and
for the functions in ``FUNCTIONS``, factorization counts per op, the
``python -X importtime`` breakdown of ``import apline.cli``, a table of
microbenchmarks and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the machine fingerprint and every metric by name and unit.  The
full result and the first traced pass's spans go to ``.bench_out/``.
"""

import os

# Pin BLAS threads before numpy is first imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 0
HELD_OUT_SEED = 1_000_003  # confirms a claimed gain; never tune on it
SETUP_REPEATS = 5
MIN_OPS = 1000            # at least ten samples beyond the 99th percentile
MAX_TIMED_S = 120.0       # hard stop for the timed phase
IMPORTTIME_REPEATS = 3
MICRO_N = (1, 4, 16)
GAUGE_EVERY = 32          # ops between two readings of the speed gauge
REF_MS = 8.0              # reference-kernel time that defines "reference speed"

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p99_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB"}

FUNCTIONS = ("grassmann.SubspacePoint", "grassmann.transversality_margin",
             "hermitian.membership", "hermitian.tau", "hermitian.alpha",
             "hermitian.transport_to_zero", "crossratio.kernel",
             "obstate.new_obstate", "obstate.report", "obstate.pure_expectation")
LINALG_COUNTS = ("linalg.svd", "linalg.qr", "linalg.inv", "linalg.solve",
                 "linalg.det", "linalg.eigh", "linalg.cond", "scipy.expm")
IMPORT_OWNERS = ("apline", "scipy", "click", "numpy")
MICRO = ("SubspacePoint", "is_transversal", "kernel", "membership_R",
         "standard_obstate", "expectation", "report")


def load_apline():
    """Import apline.cli from this checkout's src/; exit if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import apline.cli
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import apline from {SRC}: {exc}")
    if not Path(apline.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: apline was imported from {apline.__file__}, not {SRC}")
    return apline


def fingerprint():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def make_workload(name, seed, small=False):
    import workloads
    cls = workloads.WORKLOADS[name]
    # a single case (sweep: a single trial per property) is enough for set-up
    return cls(seed, 1) if small else cls(seed)


# --- set-up time -------------------------------------------------------------------------

def setup_child(name, seed):
    """Time import apline.cli plus one warm-up op in this fresh interpreter.

    The CPU time is scaled by the median of three speed-gauge readings
    taken right after it.
    """
    t0 = time.process_time()
    load_apline()
    import_s = time.process_time() - t0
    wl = make_workload(name, seed, small=True)
    t1 = time.process_time()
    wl.warm_up()
    raw = import_s + time.process_time() - t1
    gauge = SpeedGauge()
    gauge.read()
    gauge.read()
    factor = REF_MS / statistics.median(gauge.readings)
    print(json.dumps({"setup_s": raw * factor, "raw_setup_s": raw}))


def measure_setup(name, seed):
    """Median scaled and raw set-up seconds over SETUP_REPEATS fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"benchmark: set-up run failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return (statistics.median(s["setup_s"] for s in samples),
            statistics.median(s["raw_setup_s"] for s in samples))


# --- timed passes ------------------------------------------------------------------------

def run_passes(wl, seconds, min_ops, on_op=None, passes=None):
    """Repeat whole passes for ``seconds`` (and ``min_ops``), or exactly ``passes``.

    Returns (per-op CPU times in ns, per-pass (ops, CPU seconds), attempted, failed).
    """
    latencies, pass_times = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.process_time()
        a, f = wl.run_pass(latencies, on_op)
        pass_times.append((a, time.process_time() - t0))
        attempted += a
        failed += f
        elapsed = time.perf_counter() - start
        if passes is not None:
            if len(pass_times) == passes:
                break
        elif ((elapsed >= seconds and len(latencies) >= min_ops)
              or elapsed >= MAX_TIMED_S):
            break
    return latencies, pass_times, attempted, failed


class SpeedGauge:
    """Scale timings to a fixed machine speed.

    On a shared host the speed of numpy-dispatch-heavy code can drift by
    1.5x over seconds to minutes, far more than the changes this benchmark
    must resolve.  Every GAUGE_EVERY ops the gauge times a fixed reference
    kernel of small numpy calls (independent of apline).  A segment of ops
    between two readings is scaled by REF_MS over the mean of those two
    readings, so a scaled time reads as if the reference kernel had taken
    REF_MS.  The kernel's own time is not part of any segment.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(12345)
        self._basis = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        self.readings = []      # reference-kernel milliseconds
        self.segments = []      # (first op, end op, raw seconds)
        self._first = 0
        self.read()

    def read(self):
        import numpy as np
        basis, square = self._basis, self._basis[:4]
        t0 = time.process_time()
        for _ in range(100):
            c = np.asarray(basis, dtype=complex)
            s = np.linalg.svd(c, compute_uv=False)
            q, _ = np.linalg.qr(c)
            p = q @ q.conj().T
            np.hstack([q, q[::-1]])
            np.linalg.inv(square)
            float(np.linalg.norm(p - p.conj().T)) + float(s[0])
        self.readings.append((time.process_time() - t0) * 1e3)
        self._start = time.process_time()

    def on_op(self, i):
        if i - self._first >= GAUGE_EVERY:
            self.close(i)

    def close(self, i):
        """End the current segment before op ``i`` and read the gauge."""
        self.segments.append((self._first, i, time.process_time() - self._start))
        self._first = i
        self.read()

    def factors(self):
        """One factor per segment; segment k lies between readings k and k + 1."""
        return [2 * REF_MS / (a + b) for a, b in zip(self.readings, self.readings[1:])]

    def scale(self, latencies):
        """Scaled per-op times and the scaled total time of all segments."""
        import numpy as np
        lat = np.asarray(latencies, dtype=float)
        total = 0.0
        for (first, end, raw), f in zip(self.segments, self.factors()):
            lat[first:end] *= f
            total += raw * f
        return lat, total


def end_to_end(name, seed, seconds):
    setup_s, raw_setup_s = measure_setup(name, seed)
    load_apline()
    import numpy as np
    wl = make_workload(name, seed)
    wl.warm_up()
    gauge = SpeedGauge()
    latencies, _, attempted, failed = run_passes(wl, seconds, MIN_OPS, on_op=gauge.on_op)
    gauge.close(len(latencies))
    lat_ns, total_s = gauge.scale(latencies)
    lat_ms = lat_ns / 1e6
    raw_ms = np.asarray(latencies, dtype=float) / 1e6
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": attempted / total_s,
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_p99_ms": float(np.percentile(lat_ms, 99)),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"samples": len(latencies), "fail_ratio": failed / attempted,
             "speed_factor_median": statistics.median(gauge.factors()),
             "raw_setup_s": raw_setup_s,
             "raw_ops_per_s": attempted / sum(s for _, _, s in gauge.segments),
             "raw_op_p50_ms": float(np.percentile(raw_ms, 50)),
             "raw_op_p99_ms": float(np.percentile(raw_ms, 99)),
             "errors": wl.errors}
    if name == "sweep":
        extra["report_sha256"] = wl.digest
    return ({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            attempted, failed, extra)


# --- traced run --------------------------------------------------------------------------

def parse_importtime(stderr):
    """Self time (ms) of the import tree, charged to the nearest owning package.

    ``-X importtime`` prints a module after its children, indented two
    spaces per level; a module counts toward the closest enclosing module
    (itself included) whose top-level package is in IMPORT_OWNERS.
    """
    pending = []  # (depth, name, self_us, children)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, _, field = line.split("|")
        self_us = int(head.split(":")[1])
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, field.strip(), self_us, children))
    totals = dict.fromkeys(IMPORT_OWNERS, 0.0)
    stack = [(node, None) for node in pending]
    while stack:
        (_, module, self_us, children), owner = stack.pop()
        top = module.split(".")[0]
        owner = top if top in totals else owner
        if owner is not None:
            totals[owner] += self_us / 1000
        stack.extend((child, owner) for child in children)
    return totals


def import_breakdown():
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import apline.cli"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120, check=True)
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in IMPORT_OWNERS}


def micro_us(fn, target_s=0.02, repeats=5):
    """Median microseconds per call over ``repeats`` runs of about ``target_s``."""
    timer = timeit.Timer(fn, timer=time.process_time)
    number = 1
    while (elapsed := timer.timeit(number)) < target_s / 4:
        number *= 4
    number = max(1, round(number * target_s / elapsed))
    return statistics.median(timer.timeit(number) / number for _ in range(repeats)) * 1e6


def micro_table(seed):
    """µs per call of the baseline primitives at n in MICRO_N (tracing off)."""
    import numpy as np

    import workloads
    from apline import crossratio, grassmann, hermitian, obstate
    out = {}
    for n in MICRO_N:
        rng = np.random.default_rng([seed, 99, n])
        x, a, b, y = (grassmann.SubspacePoint(c) for c in workloads.kernel_quadruple(rng, n))
        case = workloads.obstate_case(rng, n, pure=False)
        r_point = grassmann.point_from_chart(case.a)
        o = obstate.standard_obstate(case.a, case.w)
        basis = x.basis.copy()
        calls = {
            "SubspacePoint": lambda: grassmann.SubspacePoint(basis),
            "is_transversal": lambda: grassmann.is_transversal(x, a),
            "kernel": lambda: crossratio.kernel(x, a, b, y),
            "membership_R": lambda: hermitian.membership(r_point, "R"),
            "standard_obstate": lambda: obstate.standard_obstate(case.a, case.w),
            "expectation": lambda: obstate.expectation(o),
            "report": lambda: obstate.report(o),
        }
        for fn_name in MICRO:
            out[f"micro.{fn_name}.us_n{n}"] = micro_us(calls[fn_name])
    return out


def trace_passes(wl, seconds, passes=None):
    """Alternate traced and untraced passes of ``wl`` for ``seconds`` (or ``passes``).

    Alternating keeps a drift in machine speed out of the overhead figure.
    Returns the tracer, per-pass (ops, CPU seconds) traced and untraced,
    attempted and failed.
    """
    from layertrace import Tracer
    tracer = Tracer()

    def tag(i):
        tracer.current_op = i

    traced_times, plain_times = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        tracer.install()
        try:
            _, times, a, f = run_passes(wl, 0, 0, on_op=tag, passes=1)
        finally:
            tracer.uninstall()
        tracer.end_pass()
        traced_times += times
        _, times, a2, f2 = run_passes(wl, 0, 0, passes=1)
        plain_times += times
        attempted += a + a2
        failed += f + f2
        if (len(traced_times) == passes if passes is not None
                else time.perf_counter() - start >= seconds):
            break
    return tracer, traced_times, plain_times, attempted, failed


def traced(name, seed, seconds):
    load_apline()
    from layertrace import LAYERS
    wl = make_workload(name, seed)
    wl.warm_up()
    tracer, pass_times, plain_times, attempted, failed = trace_passes(wl, seconds)
    ops_per_pass = pass_times[0][0]
    traced_s = sum(s for _, s in pass_times)
    plain_s = sum(s for _, s in plain_times)

    stats = tracer.per_op(ops_per_pass)
    metrics = {}
    for key in LAYERS + ("linalg",) + FUNCTIONS:
        calls, self_us = stats.get(key, (0.0, 0.0))
        metrics[f"{key}.calls_per_op"] = (calls, "count")
        metrics[f"{key}.self_us_per_op"] = (self_us, "us")
    for key in LINALG_COUNTS:
        metrics[f"{key}.per_op"] = (stats.get(key, (0.0, 0.0))[0], "count")
    metrics["linalg.total.per_op"] = (stats.get("linalg", (0.0, 0.0))[0], "count")
    for owner, ms in import_breakdown().items():
        metrics[f"import.{owner}_ms"] = (ms, "ms")
    metrics.update((k, (v, "us")) for k, v in micro_table(seed).items())
    metrics["trace.overhead_pct"] = (100 * (traced_s - plain_s) / plain_s, "%")

    OUT.mkdir(exist_ok=True)
    spans = tracer.write_spans(OUT / f"spans-{name}-s{seed}.tsv")
    extra = {"passes": tracer.passes, "ops_per_pass": ops_per_pass,
             "spans_first_pass": spans, "traced_s": traced_s, "untraced_s": plain_s,
             "passes_with_other_counts": tracer.mismatched_passes,
             "errors": wl.errors}
    if name == "sweep":
        extra["report_sha256"] = wl.digest
    return metrics, attempted, failed, extra


# --- entry point -------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "obstates", "geometry-n16"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (held-out seed: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed phase (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return
    run = traced if args.trace else end_to_end
    metrics, attempted, failed, extra = run(args.workload, args.seed, args.seconds)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "fingerprint": fingerprint(), **extra}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps(info))
    for key, (value, unit) in metrics.items():
        print(f"{key:<40} {value:>14.6g} {unit}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
