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
    # the one SVD left is the rank check of the result point
    assert counts == {"svd": 1, "qr": 1}


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
    # line_family: of the 3 chart-search margins only (infinity, 0) runs, as (W, 0) and
    # (0, infinity) are new_obstate's, cached on W and 0 (the candidate infinity is Winf
    # itself and is skipped); the rank certificate's (W, Winf) margin, which fails on a
    # pure pair; 2 chart-block checks, 1 direction SVD; one QR of line(0) shared by both
    # targets; per target the root's verification SVD
    assert counts == {"svd": 7, "qr": 1}


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


# The frame (0, infinity) caches its transport and A0's order chart on the shared base
# points, so the cold counts are pinned on new base points and the warm counts after a
# first report in the frame.

def test_standard_frame_mixed_report_svd_count(counts, cold_base_points):
    o = _mixed_obstate(4, 19)
    _warm(4)
    _reset(counts)
    obstate.report(o)
    # expectation reuses new_obstate's margins: 0; normal form: 2 chart blocks, and
    # the QRs of the frame's transport and of A and W moved by it; pure test: the
    # chart-search margin (infinity, 0) and the (W, Winf) margin, after which the rank
    # certificate rejects the pair; cyclic order: the charts of A0, W and A, A0's once
    # for both triples
    assert counts == {"svd": 7, "qr": 3}


def test_standard_frame_pure_report_svd_count(counts, cold_base_points):
    o = _pure_obstate(4, 20)
    _warm(4)
    _reset(counts)
    obstate.report(o)
    # normal form: 2; pure_expectation: 7 (see above); cyclic order: the charts of
    # A0 and W, where span[w; I] of a singular w lies on the chart's horizon, so
    # positive is False and A's chart is never taken
    assert counts == {"svd": 11, "qr": 4}


def test_warm_frame_mixed_report_svd_count(counts, cold_base_points):
    obstate.report(_mixed_obstate(4, 21))
    o = _mixed_obstate(4, 19)
    _reset(counts)
    obstate.report(o)
    # the cold count less the frame's transport (1 QR), A0's chart and the margin
    # (infinity, 0) cached on infinity (1 SVD each)
    assert counts == {"svd": 5, "qr": 2}


def test_warm_frame_pure_report_svd_count(counts, cold_base_points):
    obstate.report(_pure_obstate(4, 21))
    o = _pure_obstate(4, 20)
    _reset(counts)
    obstate.report(o)
    # likewise one QR and two SVDs below the cold count
    assert counts == {"svd": 9, "qr": 3}


def test_warm_mixed_is_pure_runs_no_svd(counts, cold_base_points):
    o = _mixed_obstate(4, 19)
    obstate.report(o)
    _reset(counts)
    assert not obstate.is_pure(o)
    # line_family's decision, as for the report's pure: every margin of the chart
    # search and of the rank certificate is cached on W, 0 and infinity
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
    # transport and of A and W moved by it; pure test: the chart search's margins of
    # W and Winf to infinity, the certificate's (W, Winf) margin, which leaves the rank
    # to the chart path here, 2 chart blocks and the rank SVD; cyclic order cut at
    # Winf: Winf's chart, then A0's and W's charts and gaps for the positive state,
    # and A0's gap again with A's chart and gap for the observable
    assert counts == {"svd": 19, "qr": 3}
