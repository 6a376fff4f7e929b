"""Pinned SVD/QR counts of the hot geometry paths.

Each rank or transversality check costs a factorization.  These counts
pin the checks that the inputs already prove away, so losing one of
those savings fails a test instead of only a timing.
"""

import numpy as np
import pytest

from apline import algebra, crossratio, grassmann, hermitian, obstate
from apline.crossratio import INF


@pytest.fixture
def counts(monkeypatch):
    tally = {"svd": 0, "qr": 0}
    for name in tally:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            tally[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return tally


def _reset(tally):
    for name in tally:
        tally[name] = 0


def test_apply_map_runs_one_qr_and_no_svd(counts):
    rng = np.random.default_rng(11)
    g = grassmann.random_map(3, rng)
    x = grassmann.random_point(3, rng)
    _reset(counts)
    grassmann.apply_map(g, x)
    assert counts == {"svd": 0, "qr": 1}


def test_inverse_runs_no_svd(counts):
    g = grassmann.random_map(3, np.random.default_rng(12))
    _reset(counts)
    g.inverse()
    assert counts["svd"] == 0


def test_unitary_torsor_runs_no_pole_margin_svd(counts):
    rng = np.random.default_rng(13)
    x, y, z = (hermitian.random_r_point(3, rng) for _ in range(3))
    hermitian.poles(3)
    _reset(counts)
    hermitian.unitary_torsor(x, y, z)
    # m is unitary, so the result point needs no rank SVD either; the QR canonicalizes it
    assert counts == {"svd": 0, "qr": 1}


def test_cayley_to_unitary_runs_no_svd_on_the_constant_map(counts):
    x = hermitian.random_r_point(3, np.random.default_rng(14))
    hermitian.cayley_matrix(3)
    _reset(counts)
    hermitian.cayley_to_unitary(x)
    # membership proves the chart block invertible, so no SVD is left
    assert counts == {"svd": 0, "qr": 1}


def _pure_obstate(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    return obstate.standard_obstate(algebra.random_hermitian(n, rng),
                                     psi @ psi.conj().T / np.vdot(psi, psi).real)


def test_pure_expectation_runs_one_rank_one_solve_per_target(counts, cold_base_points):
    o = _pure_obstate(4, 15)
    _reset(counts)
    obstate.pure_expectation(o)
    # line_family: the distance's sines of W to Winf = infinity; the chart search and
    # the chart's origin read (W, 0) from new_obstate and (infinity, 0), (0, infinity)
    # from the base points' set-up (the candidate infinity is Winf itself and is
    # skipped); 2 chart-block checks, 1 direction SVD; one QR of line(0) shared by both
    # targets; per target the root's verification SVD
    assert counts == {"svd": 6, "qr": 1}


def test_line_family_horizon_point_runs_no_svd(counts):
    o = _pure_obstate(4, 16)
    fam = hermitian.line_family(o.state, o.ref_state)
    _reset(counts)
    fam.raw_basis(INF)
    assert counts == {"svd": 0, "qr": 0}


def test_kernel_of_a_well_separated_quadruple_runs_only_its_three_margins(counts):
    rng = np.random.default_rng(17)
    x, a, b, y = (grassmann.random_point(4, rng) for _ in range(4))
    _reset(counts)
    crossratio.kernel(x, a, b, y)
    # the margins bound both graph blocks' condition, so neither block runs its own SVD
    assert counts == {"svd": 3, "qr": 0}


def test_kernel_runs_one_solve(monkeypatch):
    rng = np.random.default_rng(19)
    x, a, b, y = (grassmann.random_point(4, rng) for _ in range(4))
    solves = []
    solve = np.linalg.solve

    def counted(*args):
        solves.append(args)
        return solve(*args)
    monkeypatch.setattr(np.linalg, "solve", counted)
    crossratio.kernel(x, a, b, y)
    # b and y share the frame [A | X], so one solve gives both graph decompositions
    assert len(solves) == 1


@pytest.mark.parametrize("make", [grassmann.point_from_chart, grassmann.point_from_cochart])
def test_graph_point_of_a_moderate_value_runs_no_svd(counts, make):
    value = algebra.random_hermitian(4, np.random.default_rng(18))
    _reset(counts)
    make(value)
    # a graph basis of a value with ||a||_F <= 1e6 has full rank by its singular values
    assert counts == {"svd": 0, "qr": 1}


def _warm(n):
    grassmann.zero_point(n)
    grassmann.infinity_point(n)
    hermitian.poles(n)
    hermitian.cayley_matrix(n)


def _mixed_obstate(n, seed):
    rng = np.random.default_rng(seed)
    return obstate.standard_obstate(algebra.random_hermitian(n, rng),
                                    algebra.random_density(n, rng))


# The frame (0, infinity) caches A0's order chart on the shared base points, so the cold
# counts are pinned on new base points and the warm counts after a first report in the
# frame.  Its normal form runs no transport: A0 is the base point 0 itself.  Its kernel is
# cochart(W) chart(A), and the sines that new_obstate and the pure test memoized settle
# every chart guard (A0's, A's and W's) without an SVD.

def test_standard_frame_mixed_report_svd_count(counts, cold_base_points):
    o = _mixed_obstate(4, 19)
    _warm(4)
    _reset(counts)
    obstate.report(o)
    # the pure test's sines of W to Winf, whose count rejects the pair, and nothing else:
    # expectation reuses new_obstate's margins, and they settle the chart guards of A and
    # W, which the kernel, the normal form and the order test share; A0's chart guard is
    # settled by the sines between 0 and infinity, W's by the pure test's
    assert counts == {"svd": 1, "qr": 0}


def test_standard_frame_pure_report_svd_count(counts, cold_base_points):
    o = _pure_obstate(4, 20)
    _warm(4)
    _reset(counts)
    obstate.report(o)
    # pure_expectation: 6 and 1 QR (see above); cyclic order: W's chart block, whose SVD
    # runs because span[w; I] of a singular w lies on the chart's horizon (its smallest
    # sine to infinity is 0), so positive is False and A's chart is not read
    assert counts == {"svd": 7, "qr": 1}


def test_warm_frame_mixed_report_svd_count(counts, cold_base_points):
    obstate.report(_mixed_obstate(4, 21))
    o = _mixed_obstate(4, 19)
    _reset(counts)
    obstate.report(o)
    # the cold count: A0's chart guard, the only one a warm frame could save, runs no SVD
    # when cold either
    assert counts == {"svd": 1, "qr": 0}


def test_warm_frame_pure_report_svd_count(counts, cold_base_points):
    obstate.report(_pure_obstate(4, 21))
    o = _pure_obstate(4, 20)
    _reset(counts)
    obstate.report(o)
    # likewise the cold count; the QR is pure_expectation's line(0)
    assert counts == {"svd": 7, "qr": 1}


def test_warm_mixed_is_pure_runs_no_svd(counts, cold_base_points):
    o = _mixed_obstate(4, 19)
    obstate.report(o)
    _reset(counts)
    assert not obstate.is_pure(o)
    # the distance's decision, as for the report's pure: the sines of W to
    # infinity are cached on W
    assert counts == {"svd": 0, "qr": 0}


def _transported_obstate(seed):
    return obstate.transport(_mixed_obstate(4, seed),
                             hermitian.u_group_random(4, np.random.default_rng(seed)))


def test_transported_frame_expectation_svd_count(counts, cold_base_points):
    o = _transported_obstate(31)
    _reset(counts)
    obstate.expectation(o)
    # the kernel's three margins: no slot is a base point whose memo could keep them
    assert counts == {"svd": 3, "qr": 0}


def test_transported_frame_report_svd_count(counts, cold_base_points):
    obstate.report(_transported_obstate(30))
    o = _transported_obstate(31)
    _reset(counts)
    obstate.report(o)
    # expectation: 3 (see above); normal form: 2 chart blocks and the QRs of the
    # transport and of A and W moved by it; pure test: the sines of (W, Winf), with no
    # chart; cyclic order cut at Winf: Winf's chart, then A0's chart and gap once for
    # both triples, W's chart and gap for the positive state, and A's chart and gap for
    # the observable.  No slot has memoized sines to a base point, so every chart guard
    # runs its SVD
    assert counts == {"svd": 13, "qr": 3}


def test_arithmetic_distance_runs_one_svd(counts):
    rng = np.random.default_rng(22)
    x, y = (grassmann.random_point(4, rng) for _ in range(2))
    _reset(counts)
    hermitian.arithmetic_distance(x, y)
    # the sines of the principal angles, from one 2n x n SVD; no chart is searched
    assert counts == {"svd": 1, "qr": 0}


@pytest.mark.parametrize("value, chart, base", [
    (grassmann.point_from_cochart, grassmann.chart_repr, grassmann.infinity_point),
    (grassmann.point_from_chart, grassmann.cochart_repr, grassmann.zero_point)])
def test_a_chart_guard_runs_its_svd_unless_memoized_sines_settle_it(counts, value, chart, base):
    # span[m; I] (span[I; m]) of m = diag(1, s) has smallest sine about s to infinity (0)
    for s, settled in ((1e-3, True), (2.1e-8, True), (1.2e-8, False)):
        assert (s > grassmann._HORIZON_SINE_BOUND) is settled
        fresh, memoized = (value(np.diag([1.0, s])) for _ in range(2))
        grassmann.transversality_margin(memoized, base(2))
        _reset(counts)
        chart(fresh)
        # no sines in the memo: the guard's SVD
        assert counts == {"svd": 1, "qr": 0}
        _reset(counts)
        chart(memoized)
        # a smallest sine above the bound settles the guard; at or below it the SVD
        # runs, and here passes (the sine is above TRANSVERSALITY_RTOL)
        assert counts == {"svd": 0 if settled else 1, "qr": 0}
