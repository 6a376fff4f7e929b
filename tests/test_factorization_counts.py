"""Pinned SVD/QR counts of the hot geometry paths.

Each rank or transversality check costs a factorization.  These counts
pin the checks that the inputs already prove away, so losing one of
those savings fails a test instead of only a timing.
"""

import numpy as np
import pytest

from apline import algebra, grassmann, hermitian, obstate
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


def test_pure_expectation_runs_one_rank_one_solve_per_target(counts):
    o = _pure_obstate(4, 15)
    _reset(counts)
    obstate.pure_expectation(o)
    # line_family: 4 chart-search margins, 2 chart-block checks, 1 direction SVD;
    # one QR of line(0) shared by both targets; per target the root's verification SVD
    assert counts == {"svd": 9, "qr": 1}


def test_line_family_horizon_point_runs_no_svd(counts):
    o = _pure_obstate(4, 16)
    fam = hermitian.line_family(o.state, o.ref_state)
    _reset(counts)
    fam.raw_basis(INF)
    assert counts == {"svd": 0, "qr": 0}
