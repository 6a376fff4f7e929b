"""Acceptance gate.

Each test below is one release criterion, run at its stated tolerance and
trial count.  Every test prints a single [PASS]/[FAIL] line (visible with
``pytest -v -rA`` or ``-s``) and fails honestly if the numbers do not hold;
nothing here is weakened to make the suite green.
"""
import time
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from apline import algebra, classical, crossratio, grassmann, hermitian, obstate
from apline import properties
from apline.cli import main as cli_main
from apline.crossratio import INF

SEED = 20260819
GOLDEN = Path(__file__).resolve().parent / "golden"


def _line(num: int, ok: bool, desc: str, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{tag}] criterion {num:02d}: {desc}{suffix}")
    assert ok, f"criterion {num:02d} failed: {desc}{suffix}"


def _prop(pid: str, n_list, trials: int, tol=None, seed: int = SEED) -> dict:
    return properties.run_property(
        properties.SPECS[pid], n_list=n_list, trials=trials, seed=seed, tol=tol)


def test_criterion_01_conservation_rule():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst = 0.0
    for n in (1, 2, 3, 4, 6):
        for _ in range(200):
            a = algebra.random_hermitian(n, rng)
            w = algebra.random_density(n, rng)
            o = obstate.standard_obstate(a, w)
            e = obstate.expectation(o)
            tr = complex(np.trace(w @ a))
            worst = max(worst, abs(e - tr) / (1.0 + abs(tr)))
    elapsed = time.monotonic() - t0
    _line(1, worst <= 1e-9 and elapsed < 30.0,
          "expectation equals trace(wa), n in {1,2,3,4,6}, 1000 trials, <30s",
          f"worst rel residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_pure_state_reduction():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    counts = {2: 167, 3: 167, 4: 166}
    for n, reps in counts.items():
        for _ in range(reps):
            a = algebra.random_hermitian(n, rng)
            psi = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
            psi /= np.linalg.norm(psi)
            o = obstate.new_obstate(
                grassmann.point_from_chart(a), obstate.pure_state_point(psi),
                grassmann.zero_point(n), grassmann.infinity_point(n))
            want = complex((psi.conj().T @ a @ psi)[0, 0])
            worst = max(worst, abs(obstate.expectation(o) - want))
    _line(2, worst <= 1e-9,
          "w = psi psi* reduces to <psi, a psi>, 500 vectors, n in {2,3,4}",
          f"worst residual {worst:.2e}")


def test_criterion_03_projective_invariance():
    rep = _prop("obstate.invariance", n_list=[1, 2, 3, 4], trials=100, tol=1e-7)
    _line(3, rep["ok"] and rep["fail_count"] == 0,
          "expectation invariant under 100 symmetry transports, n <= 4, 1e-7",
          f"worst residual {rep['worst_residual']:.2e}")


def test_criterion_04_cross_ratio_calculus():
    nat = _prop("crossratio.naturality", n_list=[1, 2, 3, 4], trials=100,
                tol=1e-7)
    red = _prop("crossratio.n1_reduction", n_list=[1], trials=1000)
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(1000):
        a, b, c = rng.uniform(-10, 10, 3)
        if abs(a - b) < 1e-3 or abs(b - c) < 1e-3 or abs(a - c) < 1e-3:
            continue
        worst = max(worst, abs(crossratio.classical_cr(a, 1.0, 0.0, INF) - a))
        worst = max(worst, abs(crossratio.classical_cr(a, b, c, INF)
                               - crossratio.ratio(a, b, c)))
    ok = nat["ok"] and red["ok"] and worst <= 1e-12
    _line(4, ok,
          "CR naturality 1e-7 x100; n=1 reduction; chain identities 1e-12 x1000",
          f"naturality {nat['worst_residual']:.2e}, reduction "
          f"{red['worst_residual']:.2e}, chains {worst:.2e}")


def test_criterion_05_torsor_and_group_laws():
    grp = _prop("grassmann.torsor_group", n_list=[1, 2, 3, 4], trials=500,
                tol=1e-7)
    para = _prop("hermitian.torsor_para", n_list=[1, 2, 3, 4], trials=500,
                 tol=1e-7)
    cay = _prop("hermitian.cayley_hom", n_list=[1, 2, 3, 4], trials=500,
                tol=1e-8)
    ok = grp["ok"] and para["ok"] and cay["ok"]
    _line(5, ok,
          "torsor group axioms + para-associativity 1e-7 x500; Cayley "
          "homomorphism 1e-8",
          f"group {grp['worst_residual']:.2e}, para {para['worst_residual']:.2e}, "
          f"cayley {cay['worst_residual']:.2e}")


def test_criterion_06_unitary_universe():
    rng = np.random.default_rng(SEED + 6)
    # (a) round trips of the chart between the unitary circle and U(n)
    round_ok = True
    worst_rt = 0.0
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(25):
            u = algebra.random_unitary(n, rng)
            x = hermitian.unitary_to_point(u)
            u2 = hermitian.cayley_to_unitary(x)
            worst_rt = max(worst_rt, float(np.linalg.norm(u2 - u)))
            x2 = hermitian.unitary_to_point(u2)
            round_ok = round_ok and grassmann.point_eq(x, x2)
    round_ok = round_ok and worst_rt <= 1e-9
    # (b) affine parts of points on the unitary circle stay on it
    aff = _prop("hermitian.affine_part", n_list=[1, 2, 3, 4], trials=100)
    # (c) generic real points lie on the unitary circle
    member_ok = True
    for n in (1, 2, 3, 4, 5, 6):
        for k in range(167):
            h = algebra.random_hermitian(n, rng)
            x = (grassmann.point_from_chart(h) if k % 2 == 0
                 else grassmann.point_from_cochart(h))
            member_ok = member_ok and hermitian.membership(x, "RNS")
    ok = round_ok and aff["ok"] and member_ok
    _line(6, ok,
          "unitary chart round-trips 1e-9; affine parts stay in R_NS x100; "
          "1000 real samples lie in R_NS, n <= 6",
          f"roundtrip {worst_rt:.2e}, affine {aff['worst_residual']:.2e}, "
          f"membership {'all in' if member_ok else 'violations'}")


def test_criterion_07_poles_and_circle_action():
    rng = np.random.default_rng(SEED + 7)
    fixes_ok = True
    for n in (1, 2, 3, 4):
        north, south = hermitian.poles(n)
        fixes_ok = fixes_ok and grassmann.point_eq(hermitian.beta(north), north)
        fixes_ok = fixes_ok and grassmann.point_eq(hermitian.beta(south), south)
        for _ in range(250):
            x = grassmann.random_point(n, rng)
            fixes_ok = fixes_ok and not grassmann.point_eq(hermitian.beta(x), x)
    # quarter turn squared is beta, as point maps
    sq_ok = True
    for n in (1, 2, 3, 4):
        for _ in range(25):
            x = grassmann.random_point(n, rng)
            q = hermitian.s1_action(np.pi / 2,
                                    hermitian.s1_action(np.pi / 2, x))
            sq_ok = sq_ok and grassmann.point_eq(q, hermitian.beta(x))
    klein = _prop("hermitian.klein_four", n_list=[1, 2, 3, 4], trials=200)
    ok = fixes_ok and sq_ok and klein["ok"]
    _line(7, ok,
          "beta fixes exactly the poles among 1000 samples; quarter-turn^2 = "
          "beta 1e-9; Klein four relations",
          f"klein worst {klein['worst_residual']:.2e}")


def test_criterion_08_variance_and_distribution():
    rng = np.random.default_rng(SEED + 8)
    weights_ok = True
    worst_sum = 0.0
    for n in (1, 2, 3, 4, 6):
        for _ in range(100):
            o = obstate.standard_obstate(algebra.random_hermitian(n, rng),
                                         algebra.random_density(n, rng))
            dist = obstate.distribution(o)
            weights = [wt for _, wt in dist]
            weights_ok = weights_ok and all(wt >= -1e-12 for wt in weights)
            worst_sum = max(worst_sum, abs(sum(weights) - 1.0))
    worst_var = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        u = algebra.random_unitary(n, rng)
        eigs = rng.standard_normal(n)
        probs = rng.uniform(0.05, 1.0, n)
        probs /= probs.sum()
        a = u @ np.diag(eigs) @ u.conj().T
        w = u @ np.diag(probs) @ u.conj().T
        o = obstate.standard_obstate(a, w)
        mean = float(np.dot(probs, eigs))
        oracle = float(np.dot(probs, eigs ** 2) - mean ** 2)
        worst_var = max(worst_var,
                        abs(obstate.variance(o) - oracle) / (1.0 + abs(oracle)))
    ok = weights_ok and worst_sum <= 1e-9 and worst_var <= 1e-9
    _line(8, ok,
          "spectral weights >= 0 summing to 1 +- 1e-9; variance matches the "
          "commuting-pair oracle 1e-9 x500",
          f"sum residual {worst_sum:.2e}, variance residual {worst_var:.2e}")


def test_criterion_09_rank_one_geometry():
    dist = _prop("hermitian.distance", n_list=[1, 2, 3, 4], trials=500)
    line = _prop("hermitian.line_chart", n_list=[1, 2, 3, 4], trials=500,
                 tol=1e-7)
    pure = _prop("obstate.pure_line", n_list=[1, 2, 3, 4], trials=200,
                 tol=1e-6)
    ok = dist["ok"] and line["ok"] and pure["ok"]
    _line(9, ok,
          "arithmetic distance chart-independent x500; intrinsic lines "
          "chart-independent 1e-7; pure expectation vs expectation 1e-6 x200",
          f"distance {dist['worst_residual']:.2e}, line "
          f"{line['worst_residual']:.2e}, pure {pure['worst_residual']:.2e}")


def test_criterion_10_positivity():
    rng = np.random.default_rng(SEED + 10)
    ordered = 0
    violations = 0
    worst_neg = 0.0
    for k in range(1000):
        n = int(rng.integers(1, 5))
        if k % 2 == 0:
            a = algebra.random_psd(n, rng) + 0.05 * np.eye(n)
        else:
            a = algebra.random_hermitian(n, rng)
        w = algebra.random_density(n, rng)
        o = obstate.standard_obstate(a, w)
        if obstate.is_cyclically_ordered(o):
            ordered += 1
            e = obstate.expectation(o).real
            if e < -1e-9:
                violations += 1
                worst_neg = min(worst_neg, e)
    sep_bad = 0
    for k in range(1000):
        vals = rng.uniform(-20, 20, 4)
        if min(abs(vals[i] - vals[j])
               for i in range(4) for j in range(i + 1, 4)) < 1e-3:
            continue
        a, b, c, d = (float(v) for v in vals)
        if k % 10 == 0:
            d = INF
        cr = crossratio.classical_cr(a, b, c, d)
        if (float(cr) < 0.0) != classical.separates(c, d, a, b):
            sep_bad += 1
    ok = violations == 0 and ordered >= 200 and sep_bad == 0
    _line(10, ok,
          "cyclically ordered obstates have expectation >= -1e-9 x1000; "
          "separation <=> negative CR x1000",
          f"{ordered} ordered, {violations} negative (worst {worst_neg:.1e}), "
          f"{sep_bad} separation mismatches")


def test_criterion_11_finite_classical_model():
    pair = _prop("classical.pairing_axioms", n_list=[1], trials=1000,
                 tol=1e-12)
    dens = _prop("classical.density_action", n_list=[1], trials=1000,
                 tol=1e-12)
    ok = pair["ok"] and dens["ok"]
    _line(11, ok,
          "pairing axioms, substitution rule, chain rule, invariance: "
          "m <= 16, 1e-12, 1000 instances",
          f"pairing {pair['worst_residual']:.2e}, densities "
          f"{dens['worst_residual']:.2e}")


def test_criterion_12_default_sweep_green_and_deterministic():
    runner = CliRunner()
    t0 = time.monotonic()
    r1 = runner.invoke(cli_main, ["check", "--seed", str(SEED)])
    r2 = runner.invoke(cli_main, ["check", "--seed", str(SEED)])
    elapsed = time.monotonic() - t0
    # the committed report pins the sweep across refactors, not only across runs
    golden = r1.stdout_bytes == (GOLDEN / "check_seed20260819.json").read_bytes()
    ok = (r1.exit_code == 0 and r2.exit_code == 0
          and r1.output == r2.output and golden and elapsed < 300.0)
    _line(12, ok,
          "full default sweep green, byte-identical under a fixed seed and to "
          "tests/golden, <5min",
          f"exit codes ({r1.exit_code},{r2.exit_code}), "
          f"identical={r1.output == r2.output}, golden={golden}, {elapsed:.1f}s")
