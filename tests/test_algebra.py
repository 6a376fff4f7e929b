import warnings

import numpy as np
import pytest

from apline import algebra
from apline.errors import DimensionError, SingularError

RNG = np.random.default_rng(20240811)


def test_herm_decompose_reassembles():
    a = algebra.random_matrix(3, RNG)
    h, k = algebra.herm_decompose(a)
    assert algebra.is_hermitian(h)
    assert algebra.is_hermitian(k)
    assert np.allclose(h + 1j * k, a)


def test_adjoint_is_antimultiplicative():
    a = algebra.random_matrix(4, RNG)
    b = algebra.random_matrix(4, RNG)
    assert np.allclose(algebra.adjoint(a @ b),
                       algebra.adjoint(b) @ algebra.adjoint(a))
    assert np.allclose(algebra.adjoint(algebra.adjoint(a)), a)


def test_psd_cone():
    c = algebra.random_matrix(3, RNG)
    p = c @ algebra.adjoint(c)
    assert algebra.is_psd(p)
    assert algebra.leq(algebra.zero(3), p)
    assert not algebra.is_psd(p - 10.0 * np.eye(3))
    # non-Hermitian matrices are not in the cone at all
    assert not algebra.is_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_inverse_roundtrip_and_singular():
    g = algebra.random_invertible(3, RNG)
    assert np.allclose(g @ algebra.inverse(g), np.eye(3), atol=1e-10)
    with pytest.raises(SingularError):
        algebra.inverse(np.zeros((2, 2)))


def test_unitary_detection():
    u = algebra.random_unitary(4, RNG)
    assert algebra.is_unitary(u)
    assert not algebra.is_unitary(2.0 * u)


def test_hermitian_and_unitary_tests_decide_when_norms_overflow():
    # entries beyond about 1e154 overflow the Frobenius norms to inf, and inf <= inf
    h = algebra.random_hermitian(3, RNG)
    a = algebra.random_matrix(3, RNG)
    assert algebra.is_hermitian(1e300 * h)
    assert not algebra.is_hermitian(1e300 * a)
    assert not algebra.is_hermitian(np.array([[1e200, 0.0], [5e199, 1e200]]))
    assert not algebra.is_hermitian(np.array([[1.0, np.inf], [0.0, 1.0]]))
    for scale in (1e100, 1e160, 1e300):
        assert not algebra.is_unitary(scale * algebra.random_unitary(3, RNG))


def test_psd_test_decides_when_the_norm_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert algebra.is_psd(np.diag([1e200, 1e200]))
        assert not algebra.is_psd(np.diag([1e200, -1e200]))
        assert algebra.is_psd(1e300 * np.ones((2, 2)))
        assert not algebra.is_psd(np.array([[1e300, 2e300], [2e300, 1e300]]))
        # an entry whose modulus overflows though both its parts are finite
        off = 1.5e308 + 1.5e308j
        big = np.array([[0.0, off], [np.conj(off), 0.0]])
        assert algebra.is_hermitian(big)
        assert not algebra.is_psd(big)
        assert not algebra.is_psd(np.diag([np.inf, 1.0]))


def test_trace_normalized_is_tracial_and_normalized():
    a = algebra.random_matrix(3, RNG)
    b = algebra.random_matrix(3, RNG)
    assert algebra.trace_normalized(a @ b) == pytest.approx(
        algebra.trace_normalized(b @ a))
    v = RNG.standard_normal((3, 1)) + 1j * RNG.standard_normal((3, 1))
    p = v @ v.conj().T / float(np.vdot(v, v).real)
    assert algebra.trace_normalized(p) == pytest.approx(1.0)


def test_homotope_identities():
    a, b, c, u = (algebra.random_matrix(2, RNG) for _ in range(4))
    ha = algebra.homotope_assoc
    assert np.allclose(ha(ha(a, u, b), u, c), ha(a, u, ha(b, u, c)))
    assert np.allclose(
        algebra.homotope_jordan(a, u, b) + algebra.homotope_lie(a, u, b) / 2.0,
        ha(a, u, b))
    assert np.allclose(algebra.homotope_jordan(a, u, b),
                       algebra.homotope_jordan(b, u, a))
    assert np.allclose(algebra.homotope_lie(a, u, b),
                       -algebra.homotope_lie(b, u, a))


def test_pair_triple_para_associativity():
    a, b, c, d, e = (algebra.random_matrix(2, RNG) for _ in range(5))
    assert np.allclose(
        algebra.pair_triple(a, b, algebra.pair_triple(c, d, e)),
        algebra.pair_triple(algebra.pair_triple(a, b, c), d, e))


def test_pair_idempotent():
    v = algebra.random_invertible(3, RNG)
    assert algebra.is_pair_idempotent(algebra.PairElement(v, algebra.inverse(v)))
    w = algebra.random_invertible(3, RNG)
    assert not algebra.is_pair_idempotent(algebra.PairElement(v, w))
    assert algebra.q_operator_invertible(v)
    assert not algebra.q_operator_invertible(np.zeros((2, 2)))


def test_matrix_json_roundtrip():
    a = algebra.random_matrix(3, RNG)
    assert np.allclose(algebra.matrix_from_json(algebra.matrix_to_json(a)), a)
    # plain nested lists are accepted (real part only)
    assert np.allclose(algebra.matrix_from_json([[1, 2], [3, 4]]),
                       np.array([[1, 2], [3, 4]], dtype=complex))
    with pytest.raises(DimensionError):
        algebra.matrix_from_json({"n": 2, "re": [[1.0]]})
    with pytest.raises(DimensionError):
        algebra.matrix_from_json([[1, 2, 3], [4, 5, 6]])


def test_random_samplers_have_declared_shapes():
    w = algebra.random_density(4, RNG)
    assert algebra.is_psd(w)
    assert np.trace(w).real == pytest.approx(1.0)
    p = algebra.random_psd(3, RNG)
    assert algebra.is_psd(p)
    h = algebra.random_hermitian(5, RNG)
    assert algebra.is_hermitian(h)


@pytest.mark.parametrize("n", [1.5, "1", True, float("inf"), [1]])
def test_matrix_json_size_must_be_a_whole_number(n):
    with pytest.raises(ValueError, match="matrix JSON size n must be a whole number"):
        algebra.matrix_from_json({"n": n, "re": [[1.0]]})
    assert algebra.matrix_from_json({"n": 1.0, "re": [[2.0]]}).tolist() == [[2.0]]


@pytest.mark.parametrize("obj", [5, None, "x", 1.5, True, {"n": None, "re": [[1.0]]}])
def test_matrix_json_rejects_what_is_not_a_matrix(obj):
    with pytest.raises(ValueError, match="matrix JSON"):
        algebra.matrix_from_json(obj)
