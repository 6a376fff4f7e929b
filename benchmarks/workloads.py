"""The three benchmark workloads: inputs, one op, and the check of its output.

A workload owns a fixed pool of cases made from the seed before anything is
timed.  One *pass* runs every case once; the runners in ``run.py`` repeat
whole passes, so every pass does exactly the same work and per-op counts
do not depend on how many passes fit into the run.

Inputs are drawn with plain numpy (complex Gaussian bases, QR-based Haar
unitaries, margin rejection), never with apline's own samplers, so a
rewrite of those samplers leaves these workloads unchanged.  The sweep is
the exception: its inputs are the library's seeded property trials, which
is exactly what ``apline check`` runs.

Library functions are always looked up through their module at call time
(``crossratio.kernel``, not a name bound at import), so the layer trace can
swap in its wrappers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time

import numpy as np

from apline import crossratio, grassmann, hermitian, obstate, properties

OBSTATE_N = 4
OBSTATE_POOL = 64         # every 4th case is a pure state
GEOMETRY_N = 16
GEOMETRY_POOL = 64
QUAD_MARGIN = 1e-2        # transversality margin of the kernel quadruples

# Check tolerances.
EV_RTOL = 1e-9            # expectation, variance, weight sum
PURE_ATOL = 1e-6          # pure_expectation against expectation
NATURALITY_TOL = 1e-7     # kernel trace/det before and after a projective map
TORSOR_TOL = 1e-8         # Cayley chart of the torsor against u_x u_y* u_z


def _ginibre(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def haar_unitary(rng, n):
    """Haar unitary: QR of a Ginibre matrix with the phases of diag(r) removed."""
    q, r = np.linalg.qr(_ginibre(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def margin(p, q):
    """sigma_min / sigma_max of [orth(p) | orth(q)] (the library's definition)."""
    s = np.linalg.svd(np.hstack([np.linalg.qr(p)[0], np.linalg.qr(q)[0]]),
                      compute_uv=False)
    return s[-1] / s[0]


def _rel(x, ref):
    return abs(x - ref) / (1.0 + abs(ref))


def _mres(a, b):
    scale = 1.0 + max(np.linalg.norm(a), np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) / scale


def _matrix_json(m):
    return {"n": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


class CaseWorkload:
    """A pool of independent cases; one op runs and checks one case.

    An op that raises, or whose output fails its check (or makes the check
    raise), counts as failed and the pass goes on.  The first few error
    messages are kept in ``errors`` for the run's report.
    """

    cases: list

    def __init__(self):
        self.errors = []

    def warm_up(self):
        """One op, so that lazy per-n caches are filled before timing."""
        self.op(self.cases[0])

    def run_pass(self, latencies, on_op=None):
        """Run every case once; append op CPU times (ns) to ``latencies``.

        Returns (ops attempted, ops failed).  ``on_op(i)`` is called before
        op ``i`` (the index into ``latencies``) so a tracer can tag spans.
        """
        clock = time.process_time_ns
        failed = 0
        for k, case in enumerate(self.cases):
            if on_op is not None:
                on_op(len(latencies))
            t0 = clock()
            try:
                result = self.op(case)
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                latencies.append(clock() - t0)
                self._note(f"case {k}: {type(exc).__name__}: {exc}")
                failed += 1
                continue
            latencies.append(clock() - t0)
            try:
                ok = bool(self.check(case, result))
            except Exception as exc:  # noqa: BLE001 - a malformed output fails its check
                self._note(f"case {k}: check raised {type(exc).__name__}: {exc}")
                ok = False
            else:
                if not ok:
                    self._note(f"case {k}: output failed its check")
            failed += not ok
        return len(self.cases), failed

    def _note(self, message):
        if len(self.errors) < 5:
            self.errors.append(message)


# --- obstates --------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ObstateCase:
    a: np.ndarray      # Hermitian observable (chart value)
    w: np.ndarray      # density matrix
    payload: dict
    pure: bool
    expectation: float
    variance: float
    weight_sum: float


def obstate_case(rng, n, pure):
    while True:  # reject close eigenvalues so no spectral cluster merges
        lam = np.sort(rng.standard_normal(n) * 2.0)
        if n == 1 or np.diff(lam).min() > 1e-2:
            break
    u = haar_unitary(rng, n)
    a = (u * lam) @ u.conj().T
    a = (a + a.conj().T) / 2
    if pure:
        psi = _ginibre(rng, n, 1)
        psi /= np.linalg.norm(psi)
        w = psi @ psi.conj().T
    else:
        p = np.abs(rng.standard_normal(n)) + 0.1
        v = haar_unitary(rng, n)
        w = (v * (p / p.sum())) @ v.conj().T
    w = (w + w.conj().T) / 2
    ev = float(np.trace(w @ a).real)
    payload = {"A": {"chart": _matrix_json(a)}, "W": {"density": _matrix_json(w)},
               "A0": "zero", "Winf": "infinity", "strong": True}
    return ObstateCase(a, w, payload, pure, ev,
                       float(np.trace(a @ w @ a).real) - ev * ev,
                       float(np.trace(w).real))


class Obstates(CaseWorkload):
    """``apline expect`` without file I/O: decode, report, encode; n = 4."""

    name = "obstates"

    def __init__(self, seed, pool=OBSTATE_POOL):
        super().__init__()
        rng = np.random.default_rng([seed, 4])
        self.cases = [obstate_case(rng, OBSTATE_N, pure=(i % 4 == 3))
                      for i in range(pool)]

    @staticmethod
    def op(case):
        rep = obstate.report(obstate.obstate_from_json(case.payload))
        return rep, json.dumps(rep, sort_keys=True, indent=2)

    @staticmethod
    def check(case, result):
        rep, text = result
        if json.loads(text) != rep:
            return False
        weights = sum(w for _, w in rep["distribution"])
        ok = (isinstance(rep["expectation"], float)
              and _rel(rep["expectation"], case.expectation) <= EV_RTOL
              and _rel(rep["variance"], case.variance) <= EV_RTOL
              and _rel(weights, case.weight_sum) <= EV_RTOL
              and rep["pure"] is case.pure)
        if ok and case.pure:
            ok = abs(rep["pure_expectation"] - rep["expectation"]) <= PURE_ATOL
        return ok


# --- geometry at n = 16 -----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class GeometryCase:
    quad: tuple        # bases of x, a, b, y (2n x n)
    rep: np.ndarray    # a well-conditioned 2n x 2n projective map
    rns: tuple         # bases of three R_{N,S} points
    torsor: np.ndarray  # u_x u_y* u_z


def kernel_quadruple(rng, n):
    """Bases x, a, b, y with (x, a), (b, x), (y, a) transversal by QUAD_MARGIN."""
    while True:
        x, a, b, y = (_ginibre(rng, 2 * n, n) for _ in range(4))
        if min(margin(x, a), margin(b, x), margin(y, a)) > QUAD_MARGIN:
            return x, a, b, y


def _geometry_case(rng, n):
    x, a, b, y = kernel_quadruple(rng, n)
    # U diag(s) V with s in [1/e, e]: condition number at most e^2
    rep = (haar_unitary(rng, 2 * n) * np.exp(rng.uniform(-1, 1, 2 * n))
           ) @ haar_unitary(rng, 2 * n)
    us = [haar_unitary(rng, n) for _ in range(3)]
    eye = np.eye(n)
    # the R_{N,S} point of u is C [I; u] = [i(I - u); I + u]
    rns = tuple(np.vstack([1j * (eye - u), eye + u]) for u in us)
    return GeometryCase((x, a, b, y), rep, rns, us[0] @ us[1].conj().T @ us[2])


class Geometry(CaseWorkload):
    """Kernel naturality and the unitary torsor at n = 16."""

    name = "geometry-n16"

    def __init__(self, seed, pool=GEOMETRY_POOL):
        super().__init__()
        rng = np.random.default_rng([seed, 16])
        self.cases = [_geometry_case(rng, GEOMETRY_N) for _ in range(pool)]

    @staticmethod
    def op(case):
        pts = [grassmann.SubspacePoint(c) for c in case.quad]
        k = crossratio.kernel(*pts)
        g = grassmann.ProjectiveMap(case.rep)
        gk = crossratio.kernel(*(grassmann.apply_map(g, p) for p in pts))
        x, y, z = (grassmann.SubspacePoint(c) for c in case.rns)
        u = hermitian.cayley_to_unitary(hermitian.unitary_torsor(x, y, z))
        return k.trace, k.det, gk.trace, gk.det, u

    @staticmethod
    def check(case, result):
        tr, det, gtr, gdet, u = result
        naturality = max(_rel(gtr, tr), _rel(gdet, det))
        return naturality <= NATURALITY_TOL and _mres(u, case.torsor) <= TORSOR_TOL


# --- the default property sweep ------------------------------------------------------

def report_digest(report):
    """sha256 of the sweep report's canonical JSON."""
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


class Sweep:
    """``run_sweep(seed=S)`` with the defaults; one op is one property trial.

    A pass is one whole sweep.  To time single trials, the trial callables
    of the property registry are wrapped for the duration of a pass; the
    wrapper adds two CPU-clock reads per trial and changes no result.  A
    trial that raises or misses its tolerance is a failed op (the sweep
    itself catches and counts it).  Every sweep of one seed must produce
    the same report; a pass whose digest differs from the first counts one
    failure.
    """

    name = "sweep"

    def __init__(self, seed, trials=properties.DEFAULT_TRIALS):
        self.seed = seed
        self.trials = trials
        self.digest = None
        self.errors = []

    def warm_up(self):
        """Five trials per property: one per default n, filling every per-n cache."""
        properties.run_sweep(seed=self.seed, trials=len(properties.DEFAULT_N_LIST))

    def run_pass(self, latencies, on_op=None):
        specs = properties._SPEC_LIST
        saved = list(specs)
        specs[:] = [dataclasses.replace(s, trial=_timed_trial(s.trial, latencies, on_op))
                    for s in saved]
        try:
            report = properties.run_sweep(seed=self.seed, trials=self.trials)
        finally:
            specs[:] = saved
        results = report["properties"].values()
        attempted = sum(r["pass_count"] + r["fail_count"] for r in results)
        failed = sum(r["fail_count"] for r in results)
        for pid, r in report["properties"].items():
            if not r["ok"] and len(self.errors) < 5:
                self.errors.append(f"{pid}: {r.get('example_failure')}")
        digest = report_digest(report)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.errors.append(f"sweep report changed between passes: {digest}")
            failed = max(failed, 1)
        return attempted, failed


def _timed_trial(trial, latencies, on_op):
    clock = time.process_time_ns

    def timed(rng, n):
        if on_op is not None:
            on_op(len(latencies))
        t0 = clock()
        try:
            return trial(rng, n)
        finally:
            latencies.append(clock() - t0)
    return timed


WORKLOADS = {cls.name: cls for cls in (Sweep, Obstates, Geometry)}
