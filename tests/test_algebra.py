import ast
import cmath
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import apline
from apline import algebra, grassmann, hermitian
from apline.crossratio import INF
from apline.errors import (AplineError, DecodeError, DimensionError, NonFiniteError,
                           NotANumberError, SingularError, ValueOverflowError)

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


def _exactly_hermitian(m):
    """(m + m*)/2: entry (j, i) is the conjugate of entry (i, j) in value."""
    return (m + m.conj().T) / 2


def test_the_psd_test_of_exactly_hermitian_matrices_is_is_psd():
    rng = np.random.default_rng(32)
    cases = []
    for n in (1, 2, 4):
        u = algebra.random_unitary(n, rng)
        # the smallest eigenvalue at +-TOL_PSD, and on both sides of the threshold
        # -TOL_PSD (1 + ||a||) with the other eigenvalues 1
        edge = -algebra.TOL_PSD * (1.0 + np.sqrt(n - 1.0))
        for lam in (algebra.TOL_PSD, -algebra.TOL_PSD, edge * (1 - 1e-6), edge * (1 + 1e-6),
                    0.0, -1.0):
            a = _exactly_hermitian((u * np.r_[np.ones(n - 1), lam]) @ u.conj().T)
            # a difference of two exactly Hermitian matrices, as the order test forms
            shift = _exactly_hermitian(algebra.random_matrix(n, rng))
            d = _exactly_hermitian(a + shift) - shift
            cases += [a, d, 1e300 * a, -1e300 * a]
    cases += [np.diag([np.inf, 1.0]), np.diag([np.nan, 1.0]),
              np.array([[0.0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.0]])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decisions = [algebra.is_psd(a) for a in cases]
        assert [algebra._is_psd(a) for a in cases] == decisions
    assert 0 < sum(decisions) < len(decisions)


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


def test_matrix_json_roundtrip():
    a = algebra.random_matrix(3, RNG)
    obj = {"n": 3, "re": a.real.tolist(), "im": a.imag.tolist()}
    assert np.allclose(algebra.matrix_from_json(obj), a)
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
    with pytest.raises(DecodeError, match="matrix JSON size n must be a whole number"):
        algebra.matrix_from_json({"n": n, "re": [[1.0]]})
    assert algebra.matrix_from_json({"n": 1.0, "re": [[2.0]]}).tolist() == [[2.0]]


@pytest.mark.parametrize("obj", [5, None, "x", 1.5, True, {"n": None, "re": [[1.0]]}])
def test_matrix_json_rejects_what_is_not_a_matrix(obj):
    with pytest.raises(ValueError, match="matrix JSON"):
        algebra.matrix_from_json(obj)


def test_random_density_of_size_zero_is_a_dimension_error():
    with pytest.raises(DimensionError, match="n >= 1"):
        algebra.random_density(0, np.random.default_rng(0))


@pytest.mark.parametrize("entry, message", [
    ({}, "entries must be numbers: "),          # an object where a number belongs
    (10 ** 400, "entries must be finite: "),    # an integer beyond float range
    (json.loads("1e999"), "entries must be finite$"),  # JSON's overflowing float is inf
], ids=["object", "huge-integer", "infinity"])
def test_matrix_json_rejects_an_entry_that_is_no_finite_number(entry, message):
    for obj in ([[entry]], {"n": 1, "re": [[entry]]}, {"n": 1, "re": [[0.0]], "im": [[entry]]}):
        with pytest.raises(DecodeError, match=message):
            algebra.matrix_from_json(obj)


# --- lines no other test runs -------------------------------------------------

def test_as_matrix_reads_a_scalar_as_a_one_by_one_matrix():
    m = algebra.as_matrix(2.5)
    assert m.shape == (1, 1) and m.dtype == complex and m[0, 0] == 2.5


def test_almost_equal_of_different_shapes_is_a_dimension_error():
    with pytest.raises(DimensionError, match=r"^shape mismatch: \(2, 2\) vs \(3, 3\)$"):
        algebra.almost_equal(np.eye(2), np.eye(3))


def test_a_homotope_of_mixed_sizes_is_a_dimension_error():
    with pytest.raises(DimensionError, match="^dimension mismatch: 2 vs 3$"):
        algebra.homotope_assoc(np.eye(2), np.eye(3), np.eye(2))


# --- the linalg seam ------------------------------------------------------------

_SEAM_N = (1, 2, 3, 4, 6, 8, 16)


def _draw(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if dtype is complex else a


def _layouts(a):
    """a as the call sites pass it: C-ordered, F-ordered, and a strided view."""
    wide = np.zeros((a.shape[0], 2 * a.shape[1]), dtype=a.dtype)
    wide[:, ::2] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "strided": wide[:, ::2]}


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_svd(a, seam=algebra):
    """seam.svd(a) is np.linalg.svd(a): u, s and vh bit for bit."""
    for got, want in zip(seam.svd(a), np.linalg.svd(a), strict=True):
        _same_bits(got, want)


def _right_hand_sides(n, dtype, seed):
    """Right-hand sides of a solve: 2-D in every layout, 1-D contiguous and strided.

    Complex and real ones come whatever the matrix's dtype: numpy solves in
    the common type.
    """
    columns, vector = _draw((n, 3), dtype, seed), _draw((n,), dtype, seed + 1)
    wide = np.zeros(2 * n, dtype=vector.dtype)
    wide[::2] = vector
    other = _draw((n, 3), complex, seed + 2)
    return (*_layouts(columns).values(), vector, wide[::2], other, other[:, 0], other.real)


def _check_seam(n, dtype, seed, seam=algebra):
    tall, square = _draw((2 * n, n), dtype, seed), _draw((n, n), dtype, seed + 1)
    # the full SVD also runs on wide inputs, as the null spaces of hermitian pass them, and
    # on the transpose of a strided view
    for a in (tall, square, tall.T.copy()):
        for b in (*_layouts(a).values(), _layouts(a.T)["strided"].T):
            _same_svd(b, seam)
    for name, a in (*_layouts(tall).items(), *_layouts(square).items()):
        want_q, want_r = np.linalg.qr(a)
        q, r = seam._numpy_qr(a)
        _same_bits(q, want_q)
        _same_bits(r, want_r)
        q_packed, packed = seam.thin_qr(a)
        _same_bits(q_packed, want_q)
        # R is the upper triangle of the packed factor's first n rows, as numpy reads it
        _same_bits(np.triu(packed[:n]), want_r)
        _same_bits(seam.singular_values(a), np.linalg.svd(a, compute_uv=False))
    hermitian = square + square.conj().T
    rhs = _right_hand_sides(n, dtype, seed + 2)
    for a, h in zip(_layouts(square).values(), _layouts(hermitian).values()):
        _same_bits(seam.proven_inverse(a), np.linalg.inv(a))
        _same_bits(seam.det(a), np.linalg.det(a))
        for b in rhs:
            _same_bits(seam.solve(a, b), np.linalg.solve(a, b))
        (values, vectors), want = seam.eigh(h), np.linalg.eigh(h)
        _same_bits(values, want.eigenvalues)
        _same_bits(vectors, want.eigenvectors)
        _same_bits(seam.eigvalsh(h), np.linalg.eigvalsh(h))
        # only the lower triangle is read, as numpy reads it
        _same_bits(seam.eigvalsh(a), np.linalg.eigvalsh(a))


_GUFUNCS = ("_svd_gufunc", "_svd_f_gufunc", "_inv_gufunc", "_qr_r_raw_gufunc",
            "_qr_reduced_gufunc", "_solve_gufunc", "_solve1_gufunc", "_eigh_gufunc",
            "_eigvalsh_gufunc", "_det_gufunc")


@pytest.mark.parametrize("dtype", [complex, float], ids=["complex128", "float64"])
@pytest.mark.parametrize("n", _SEAM_N)
def test_the_seam_is_bitwise_numpy(n, dtype):
    _check_seam(n, dtype, 100 * n)


@pytest.mark.parametrize("dtype", [complex, float], ids=["complex128", "float64"])
@pytest.mark.parametrize("n", _SEAM_N)
def test_the_seam_without_the_gufuncs_is_bitwise_numpy(monkeypatch, n, dtype):
    for name in _GUFUNCS:
        monkeypatch.setattr(algebra, name, None)
    _check_seam(n, dtype, 100 * n + 50)


def _seam_without_error_state_internals(monkeypatch):
    """A fresh copy of the algebra module, built where numpy lacks _make_extobj."""
    import importlib.util
    from numpy._core import _multiarray_umath
    monkeypatch.delattr(_multiarray_umath, "_make_extobj")
    copy = importlib.util.module_from_spec(importlib.util.find_spec("apline.algebra"))
    copy.__spec__.loader.exec_module(copy)
    assert copy._make_extobj is None
    return copy


@pytest.mark.parametrize("dtype", [complex, float], ids=["complex128", "float64"])
@pytest.mark.parametrize("n", [1, 4, 16])
def test_the_seam_without_numpys_error_state_internals_is_bitwise_numpy(
        monkeypatch, n, dtype):
    _check_seam(n, dtype, 100 * n + 70, _seam_without_error_state_internals(monkeypatch))


# numpy's wrapper of each gufunc the seam calls, and the error callback numpy gives it
_WRAPPED = {
    "_qr_r_raw_gufunc": "_raise_linalgerror_qr",
    "_qr_reduced_gufunc": "_raise_linalgerror_qr",
    "_svd_gufunc": "_raise_linalgerror_svd_nonconvergence",
    "_svd_f_gufunc": "_raise_linalgerror_svd_nonconvergence",
    "_inv_gufunc": "_raise_linalgerror_singular",
    "_solve_gufunc": "_raise_linalgerror_singular",
    "_solve1_gufunc": "_raise_linalgerror_singular",
    "_eigh_gufunc": "_raise_linalgerror_eigenvalues_nonconvergence",
    "_eigvalsh_gufunc": "_raise_linalgerror_eigenvalues_nonconvergence",
}


def _seam_calls(seam, dtype):
    """Each seam entry called once on an n = 3 input."""
    a = _draw((3, 3), dtype, 7)
    return (lambda: seam.thin_qr(a), lambda: seam.singular_values(a), lambda: seam.svd(a),
            lambda: seam.proven_inverse(a), lambda: seam.solve(a, a),
            lambda: seam.solve(a, a[0]), lambda: seam.eigh(a), lambda: seam.eigvalsh(a),
            lambda: seam.det(a))


def _message(callback):
    with pytest.raises(np.linalg.LinAlgError) as raised:
        callback("invalid value", 8)
    return str(raised.value)


def _check_error_states(monkeypatch, seam, dtype):
    seen = {}

    def record(name, gufunc):
        def recorded(*args, **kwargs):
            seen[name] = np.geterr(), np.geterrcall(), np.getbufsize()
            return gufunc(*args, **kwargs)
        return recorded
    for name in (*_WRAPPED, "_det_gufunc"):
        monkeypatch.setattr(seam, name, record(name, getattr(seam, name)))
    outside = np.geterr(), np.geterrcall(), np.getbufsize()
    for call in _seam_calls(seam, dtype):
        call()
    assert set(seen) == {*_WRAPPED, "_det_gufunc"}
    for name, callback in _WRAPPED.items():
        state, call, bufsize = seen[name]
        # the state of numpy's wrapper, with a callback that raises numpy's message
        with np.errstate(call=call, invalid="call", over="ignore", divide="ignore",
                         under="ignore"):
            assert (state, call, bufsize) == (np.geterr(), np.geterrcall(), np.getbufsize())
        assert _message(call) == _message(getattr(np.linalg._linalg, callback))
    # np.linalg.det enters no error state, and neither does the seam's
    assert seen["_det_gufunc"] == outside
    assert (np.geterr(), np.geterrcall(), np.getbufsize()) == outside


@pytest.mark.parametrize("dtype", [complex, float], ids=["complex128", "float64"])
def test_each_seam_gufunc_runs_under_the_error_state_of_numpys_wrapper(monkeypatch, dtype):
    _check_error_states(monkeypatch, algebra, dtype)


def test_each_seam_gufunc_runs_under_numpys_error_state_without_its_internals(monkeypatch):
    _check_error_states(monkeypatch, _seam_without_error_state_internals(monkeypatch), complex)


@pytest.mark.parametrize("dtype", [complex, float], ids=["complex128", "float64"])
def test_a_q_only_qr_skips_numpys_wrapper_and_enters_one_error_state(monkeypatch, dtype):
    from numpy._core import _ufunc_config
    a = np.random.default_rng(36).standard_normal((8, 4)).astype(dtype)
    wrapper_calls, states, built = [], [], []
    qr, enter, make = np.linalg.qr, algebra._enter, _ufunc_config._make_extobj
    monkeypatch.setattr(np.linalg, "qr", lambda *args: wrapper_calls.append(args) or qr(*args))
    monkeypatch.setattr(algebra, "_enter", lambda state: states.append(state) or enter(state))
    # every np.errstate entered builds its state here
    monkeypatch.setattr(_ufunc_config, "_make_extobj",
                        lambda **kwargs: built.append(kwargs) or make(**kwargs))
    algebra.thin_qr(a)
    # geqrf and ungqr run under one error state, the one built at import: no np.linalg.qr
    # and no np.errstate
    assert (len(wrapper_calls), states, built) == (0, [algebra._QR_FAILED], [])
    algebra._numpy_qr(a)
    # the QR that solves with R (obstate._line_factors) is np.linalg.qr itself, which enters
    # an np.errstate of its own around each of its two gufuncs
    assert (len(wrapper_calls), len(states), len(built)) == (1, 1, 2)


def _failures(seam):
    """(call, numpy's call) pairs that raise LinAlgError: singular inputs and a NaN SVD."""
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    nan = np.full((2, 2), np.nan)
    return ((lambda: seam.proven_inverse(singular), lambda: np.linalg.inv(singular)),
            (lambda: seam.solve(singular, singular), lambda: np.linalg.solve(singular, singular)),
            (lambda: seam.solve(singular + 0j, singular[0]),
             lambda: np.linalg.solve(singular + 0j, singular[0])),
            (lambda: seam.singular_values(nan), lambda: np.linalg.svd(nan, compute_uv=False)),
            (lambda: seam.svd(nan), lambda: np.linalg.svd(nan)))


@pytest.mark.parametrize("caller", ["default", "all-raise"])
def test_a_failed_seam_call_raises_numpys_error_and_keeps_the_callers_state(caller):
    with np.errstate(all="raise" if caller == "all-raise" else None):
        before = np.geterr(), np.geterrcall(), np.getbufsize()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call, numpys in _failures(algebra):
                with pytest.raises(np.linalg.LinAlgError) as got:
                    call()
                assert (np.geterr(), np.geterrcall(), np.getbufsize()) == before
                with pytest.raises(np.linalg.LinAlgError) as want:
                    numpys()
                assert str(got.value) == str(want.value)
        assert (np.geterr(), np.geterrcall(), np.getbufsize()) == before


def test_a_nan_hermitian_matrix_has_numpys_nan_eigenvalues_without_a_warning():
    nan = np.full((2, 2), np.nan + 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (values, vectors), want = algebra.eigh(nan), np.linalg.eigh(nan)
        _same_bits(values, want.eigenvalues)
        _same_bits(vectors, want.eigenvectors)
        _same_bits(algebra.eigvalsh(nan), np.linalg.eigvalsh(nan))


# sha256 of the tobytes() of random_unitary(n, seed) for n in _SEAM_N and seeds 0, 1, 7, as
# it was computed from np.linalg.qr's R
_RANDOM_UNITARY_DIGEST = "1efb6c77580f121d84b8f8cb98967601128d45e206da06f8e71c40f0eb46e8b9"


@pytest.mark.parametrize("gufuncs", [True, False], ids=["gufuncs", "no-gufuncs"])
def test_random_unitary_keeps_its_bits_when_its_phases_come_from_the_packed_factor(
        monkeypatch, gufuncs):
    if not gufuncs:
        for name in _GUFUNCS:
            monkeypatch.setattr(algebra, name, None)
    digest = hashlib.sha256()
    for n in _SEAM_N:
        for seed in (0, 1, 7):
            digest.update(algebra.random_unitary(n, seed).tobytes())
    assert digest.hexdigest() == _RANDOM_UNITARY_DIGEST


def test_random_unitary_gives_a_zero_diagonal_entry_of_r_phase_one(monkeypatch):
    want = algebra.random_unitary(4, 5)
    q, _ = algebra.thin_qr(algebra.random_matrix(4, 5))
    geqrf = algebra._qr_r_raw_gufunc

    def zero_first_pivot(packed, **kwargs):
        tau = geqrf(packed, **kwargs)
        packed[0, 0] = 0.0  # R[0, 0]; the reflectors, and so Q, are unchanged
        return tau
    monkeypatch.setattr(algebra, "_qr_r_raw_gufunc", zero_first_pivot)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u = algebra.random_unitary(4, 5)
    # the first column is Q's, times phase 1; every other column keeps its bits
    _same_bits(u[:, 0], q[:, 0])
    _same_bits(u[:, 1:], want[:, 1:])
    assert algebra.is_unitary(u)


@pytest.mark.parametrize("n", [2, 4, 16])
def test_the_seam_is_bitwise_numpy_on_the_call_sites_inputs(n):
    rng = np.random.default_rng(n)
    x, a = (algebra.thin_qr(_draw((2 * n, n), complex, seed))[0] for seed in (n, n + 1))
    # the sine residual of grassmann._principal_sines
    residual = a - x @ (x.conj().T @ a)
    _same_bits(algebra.singular_values(residual), np.linalg.svd(residual, compute_uv=False))
    # the full SVDs of hermitian._orthocomplement, each of a transposed view: (J X)* for
    # tau and X* for alpha, and its null space basis (F-ordered)
    _same_svd(hermitian._j_basis(grassmann.SubspacePoint._full_rank(x)).conj().T)
    _same_svd(x.conj().T)
    _, _, vh = algebra.svd(rng.standard_normal((n, 2 * n)) + 0j)
    null = vh[n:, :].conj().T
    _same_bits(algebra.thin_qr(null)[0], np.linalg.qr(null)[0])
    # the pole block N0* X = X2 - i X1 of a basis, as hermitian._cayley_unitary inverts it
    block = x[n:, :] - 1j * x[:n, :]
    _same_bits(algebra.proven_inverse(block), np.linalg.inv(block))


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "complex-nan"])
def test_a_non_finite_matrix_still_fails_the_invertibility_test_by_name(entry):
    a = np.eye(3, dtype=complex)
    a[1, 2] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="must be finite"):
            algebra.is_invertible(a)


def _infinite_row(n=4):
    a = np.eye(n)
    a[1] = np.inf
    return a


@pytest.mark.parametrize("call", [
    pytest.param(lambda: grassmann.ProjectiveMap(np.full((4, 4), np.inf)), id="map-all-inf"),
    pytest.param(lambda: algebra.is_invertible(_infinite_row()), id="is-invertible-inf-row"),
    pytest.param(lambda: algebra.inverse(_infinite_row()), id="inverse-inf-row"),
    pytest.param(lambda: algebra.inverse(np.diag([np.inf, 1, 1, 1])), id="inverse-inf-diag"),
    pytest.param(lambda: algebra.is_invertible(np.full((3, 3), np.nan)), id="is-invertible-nan"),
])
def test_a_non_finite_matrix_is_named_before_lapack_can_print(capfd, call):
    # LAPACK's scaling routine prints "** On entry to DLASCL ..." to file descriptor 1 on an
    # all-infinite row; the finiteness test runs first, so nothing reaches it
    with pytest.raises(NonFiniteError, match="matrix entries must be finite"):
        call()
    assert capfd.readouterr() == ("", "")


def test_singular_values_fail_as_numpy_does_on_a_nan_entry():
    a = np.full((2, 2), np.nan)
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.svd(a, compute_uv=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError) as got:
            algebra.singular_values(a)
    assert str(got.value) == str(want.value) == "SVD did not converge"


def test_finite_entries_that_overflow_are_scale_errors_in_the_svd_and_the_qr():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueOverflowError, match=r"^matrix of scale 1\.500e\+308 .* SVD$"):
            algebra.is_invertible(1.5e308 * np.array([[1.0, 1.0], [1.0, -1.0]]))
        for qr in (algebra.thin_qr, algebra._numpy_qr):
            with pytest.raises(ValueOverflowError,
                               match=r"^basis of scale 1\.500e\+308 .* QR factorization$"):
                qr(np.array([[1.5e308], [1.5e308]], dtype=complex))


def _bases_near_the_root_of_the_float_range():
    """200 derandomized tall bases at n in {1, 2, 4, 6, 16}, of Frobenius norm 1e150 to 1e154.3.

    The sum of squares overflows from a norm of about 1.34e154, inside the range.
    Real and complex, generic, with one column carrying the norm, and with two
    nearly parallel columns (a tiny R entry beside huge ones).
    """
    rng = np.random.default_rng(43)
    for n in (1, 2, 4, 6, 16):
        for k in range(40):
            a = _draw((2 * n, n), complex if k % 2 else float, int(rng.integers(2 ** 32)))
            if k % 4 == 1:
                a[:, 1:] *= 1e-30
            elif k % 4 == 3 and n > 1:
                a[:, 1] = a[:, 0] * (1 + 1e-14)
            # half of them dense about the root, where the sum of squares starts to overflow
            exponent = rng.uniform(150.0, 154.3) if k < 20 else rng.uniform(154.0, 154.3)
            yield a * (10.0 ** exponent / np.linalg.norm(a))


def test_a_finite_sum_of_squares_proves_both_qr_factors_finite(monkeypatch):
    scans = []
    all_finite = algebra._all_finite
    monkeypatch.setattr(algebra, "_all_finite", lambda a: scans.append(a) or all_finite(a))
    proven = unproven = 0
    for a in _bases_near_the_root_of_the_float_range():
        scans.clear()
        if not cmath.isfinite(np.vdot(a, a)):
            # nothing is proven, and the scans decide: numpy's finite factors or a scale error
            unproven += 1
            try:
                q, packed = algebra.thin_qr(a)
            except ValueOverflowError:
                continue
            assert scans and np.isfinite(q).all() and np.isfinite(packed).all()
            continue
        proven += 1
        q, packed = algebra.thin_qr(a)
        assert scans == []
        assert np.isfinite(q).all() and np.isfinite(packed).all()
        want_q, want_r = np.linalg.qr(a)
        _same_bits(q, want_q)
        _same_bits(np.triu(packed[:a.shape[1]]), want_r)
    assert proven >= 100 and unproven >= 20


@pytest.mark.parametrize("dtype", [complex, float], ids=["complex128", "float64"])
def test_an_exactly_singular_proven_inverse_is_numpys_error_without_a_warning(dtype):
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            algebra.proven_inverse(a)


# Outside algebra, no library module may call the numpy functions the seam stands in for,
# so none can bypass its error policy or its counting; the sweep harness in properties too.
_LINALG_SEAM = {"qr", "inv", "svd", "solve", "eigh", "eigvalsh", "det"}


def _calls(node, where="<module>"):
    """(site, call) of each call in node; a site is a function's qualified name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls(child, child.name if where == "<module>" else f"{where}.{child.name}")
            continue
        if isinstance(child, ast.Call):
            yield where, child
        yield from _calls(child, where)


def _seam_bypasses(tree):
    """'site:linalg.name' of each np.linalg call the seam stands in for."""
    for where, call in _calls(tree):
        func = call.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)
                and func.value.attr == "linalg" and func.attr in _LINALG_SEAM):
            yield f"{where}:linalg.{func.attr}"


def _scan(find):
    return {path.stem: list(find(ast.parse(path.read_text(encoding="utf-8"))))
            for path in sorted(Path(apline.__file__).parent.glob("*.py"))}


def test_no_library_module_bypasses_the_linalg_seam():
    found = _scan(_seam_bypasses)
    assert {module: sites for module, sites in found.items()
            if module != "algebra" and sites} == {}
    # the scan sees such calls where they are: each seam entry's fallback, and the two
    # entries that keep numpy's wrappers for the obstates benchmark's trace
    assert sorted(found["algebra"]) == [
        "_numpy_qr:linalg.qr", "_numpy_svd:linalg.svd", "det:linalg.det", "eigh:linalg.eigh",
        "eigvalsh:linalg.eigvalsh", "proven_inverse:linalg.inv", "singular_values:linalg.svd",
        "solve:linalg.solve", "svd:linalg.svd", "thin_qr:linalg.qr"]


# --- stacking and the identity ----------------------------------------------------------
# np.vstack, np.hstack and np.block are Python wrappers around np.concatenate, and np.eye
# builds a new identity on every call; at n <= 16 each costs about as much as the copy it
# makes.  So library code stacks with np.concatenate and reads the identity from
# algebra._eye, the one exempt site, by module and site, with the reason it keeps numpy's:
_STACKING_EXEMPT = {
    "algebra": {"_eye:np.eye": "the cached identity itself; runs once per n, "
                               "under algebra.sized_cache"},
}
_STACKING = {"vstack", "hstack", "block", "eye"}


def _stacking_calls(tree):
    """'site:np.name' of each call of np.vstack, np.hstack, np.block and np.eye."""
    for where, call in _calls(tree):
        func = call.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id == "np" and func.attr in _STACKING):
            yield f"{where}:np.{func.attr}"


def test_no_library_function_stacks_or_builds_an_identity_through_numpys_wrappers():
    found = _scan(_stacking_calls)
    assert {module: sites for module, sites in found.items()
            if set(sites) - set(_STACKING_EXEMPT.get(module, ()))} == {}
    # each exempt site is still there, and is still built once per n
    for module, sites in _STACKING_EXEMPT.items():
        assert set(sites) <= set(found[module])
        for site in sites:
            assert hasattr(getattr(getattr(apline, module), site.split(":")[0]), "cache_info")


def test_the_cached_identity_is_a_read_only_np_eye_checked_before_its_cache():
    for n in _SEAM_N:
        eye, want = algebra._eye(n), np.eye(n)
        _same_layout(eye, want, writeable=False)
    assert algebra._eye(np.int64(2)) is algebra._eye(2)
    with pytest.raises(ValueError, match="read-only"):
        algebra._eye(2)[0, 0] = 2.0
    for bad in (True, 2.0):
        with pytest.raises(DimensionError, match="must be a whole number n >= 1, got "):
            algebra._eye(bad)


def _same_layout(got, want, writeable=True):
    """Same bits, dtype and shape, the same memory layout, and writeable as stated."""
    _same_bits(got, want)
    layout = ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "ALIGNED")
    assert [got.flags[f] for f in layout] == [want.flags[f] for f in layout]
    assert got.flags.writeable is writeable


class _NumpyWith:
    """numpy, with the named attributes replaced."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(np, name)


def _concatenated(monkeypatch, module, call):
    """The arrays np.concatenate returns to module's code while call() runs, in order."""
    made = []

    def concatenate(*args, **kwargs):
        made.append(np.concatenate(*args, **kwargs))
        return made[-1]
    with monkeypatch.context() as patch:
        patch.setattr(module, "np", _NumpyWith(concatenate=concatenate))
        call()
    return made


def _blocks(kind, shape, seed):
    """A block of a builder's input: complex, real, or a non-contiguous complex view."""
    a = _draw(shape, float if kind == "real" else complex, seed)
    return _layouts(a)["strided"] if kind == "view" else a


def _points(kind, n, seed, count):
    return [grassmann.SubspacePoint(_blocks(kind, (2 * n, n), seed + i)) for i in range(count)]


def _unitary(kind, n, seed):
    """A unitary of the kind: complex, real orthogonal, or an F-ordered strided view."""
    q, _ = np.linalg.qr(_draw((n, n), float if kind == "real" else complex, seed))
    return _layouts(q.T)["strided"].T if kind == "view" else q


# Each rewritten builder, run on the kind's inputs: the arrays its np.concatenate calls
# return, in order, and the arrays the vstack, hstack or block form it replaced gives.
def _chart_builder(kind, n, monkeypatch):
    a = _blocks(kind, (n, n), 1)
    got = _concatenated(monkeypatch, grassmann, lambda: grassmann.point_from_chart(a))
    return got, [np.vstack([np.eye(n), algebra.as_matrix(a)])]


def _cochart_builder(kind, n, monkeypatch):
    w = _blocks(kind, (n, n), 2)
    got = _concatenated(monkeypatch, grassmann, lambda: grassmann.point_from_cochart(w))
    return got, [np.vstack([algebra.as_matrix(w), np.eye(n)])]


def _projector_builder(kind, n, monkeypatch):
    x, a = _points(kind, n, 3, 2)
    got = _concatenated(monkeypatch, grassmann, lambda: grassmann._projector_matrix(x, a))
    return got, [np.hstack([x.basis, a.basis]), np.hstack([x.basis, np.zeros((2 * n, n))])]


def _kernel_builder(kind, n, monkeypatch):
    from apline import crossratio
    x, a, b, y = _points(kind, n, 5, 4)
    got = _concatenated(monkeypatch, crossratio, lambda: crossratio.kernel(x, a, b, y))
    return got, [np.hstack([a.basis, x.basis]), np.hstack([b.basis, y.basis])]


def _lagrangian_builder(kind, n, monkeypatch):
    x = hermitian._r_point(_unitary(kind, n, 9))
    got = _concatenated(monkeypatch, hermitian, lambda: hermitian._is_lagrangian(x))
    return got, [np.vstack([-x.basis[n:], x.basis[:n]])]


def _involution_builder(involution):
    def builder(kind, n, monkeypatch):
        x, = _points(kind, n, 22, 1)
        got = _concatenated(monkeypatch, hermitian, lambda: involution(x))
        return got, [np.vstack([-x.basis[n:], x.basis[:n]])]
    return builder


def _r_point_builder(kind, n, monkeypatch):
    u = _unitary(kind, n, 10)
    got = _concatenated(monkeypatch, hermitian, lambda: hermitian._r_point(u))
    eye = np.eye(n)
    return got, [np.vstack([1j * (eye - u), eye + u])]


def _transport_builder(kind, n, monkeypatch):
    a = hermitian._r_point(_unitary(kind, n, 11))
    got = _concatenated(monkeypatch, hermitian, lambda: hermitian.transport_to_zero(a))
    d = -hermitian._cayley_unitary(a).conj().T
    eye = np.eye(n)
    plus, minus = eye + d, 1j * (eye - d)
    return got[-1:], [np.block([[plus, minus], [-minus, plus]])]


def _aut_omega_builder(kind, n, monkeypatch):
    got = _concatenated(monkeypatch, hermitian, lambda: hermitian.aut_omega_random(n, 12))
    rng = np.random.default_rng(12)
    a = 0.5 * algebra.random_matrix(n, rng)
    b = 0.5 * algebra.random_hermitian(n, rng)
    c = 0.5 * algebra.random_hermitian(n, rng)
    return got[-1:], [np.block([[a, b], [c, -a.conj().T]])]


def _u_group_builder(kind, n, monkeypatch):
    got = _concatenated(monkeypatch, hermitian, lambda: hermitian.u_group_random(n, 13))
    rng = np.random.default_rng(13)
    h = 0.7 * algebra.random_hermitian(n, rng)
    a = algebra.random_matrix(n, rng)
    s = 0.7 * (a - a.conj().T) / 2
    return got[-1:], [np.block([[s, h], [-h, s]])]


def _chart_values_builder(kind, n, monkeypatch):
    x, y, c = _points(kind, n, 14, 3)
    got = _concatenated(monkeypatch, hermitian, lambda: hermitian._chart_values(x, y, c))
    o = hermitian._transversal_to((c,), 0x0A11)
    # two from chart_in_frame, one the frame itself
    return got, 3 * [np.hstack([o.basis, c.basis])]


def _raw_basis_builder(kind, n, monkeypatch):
    frame = _blocks(kind, (2 * n, 2 * n), 17)
    base, direction = _blocks(kind, (n, n), 18), _blocks(kind, (n, n), 19)
    fam = hermitian.LineFamily(frame, base, direction)
    got = _concatenated(monkeypatch, hermitian, lambda: fam.raw_basis(0.5))
    want = np.vstack([np.eye(n), base + 0.5 * direction])
    _same_layout(fam.raw_basis(0.5), frame @ want)
    return got, [want]


def _completion_builder(kind, n, monkeypatch):
    from apline import obstate
    rng = np.random.default_rng(20 + n)
    psi = _blocks(kind, (n, 1), 21)
    o = obstate.standard_obstate(algebra.random_hermitian(n, rng),
                                 psi @ psi.conj().T / np.vdot(psi, psi).real)
    fam = hermitian.line_family(o.state, o.ref_state)
    factors = obstate._line_factors(fam)
    roots = []
    got = _concatenated(monkeypatch, obstate, lambda: roots.append(
        obstate._completion_parameter(fam, factors, o.observable)))
    return got, [np.hstack([factors[0], o.observable.basis]),
                 np.hstack([fam.raw_basis(roots[0]), o.observable.basis])]


_BUILDERS = {
    "point_from_chart": _chart_builder, "point_from_cochart": _cochart_builder,
    "projector_matrix": _projector_builder, "kernel": _kernel_builder,
    "is_lagrangian": _lagrangian_builder, "tau": _involution_builder(hermitian.tau),
    "beta": _involution_builder(hermitian.beta), "r_point": _r_point_builder,
    "transport_to_zero": _transport_builder, "aut_omega_random": _aut_omega_builder,
    "u_group_random": _u_group_builder, "chart_values": _chart_values_builder,
    "raw_basis": _raw_basis_builder, "completion_parameter": _completion_builder,
}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("kind", ["complex", "real", "view"])
@pytest.mark.parametrize("builder", _BUILDERS)
def test_each_rewritten_builder_stacks_the_bits_and_layout_of_its_numpy_form(
        monkeypatch, builder, kind, n):
    got, want = _BUILDERS[builder](kind, n, monkeypatch)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _same_layout(g, w)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_the_base_points_and_poles_stack_the_bits_of_their_numpy_form(
        monkeypatch, cold_base_points, n):
    eye, zero = np.eye(n), np.zeros((n, n))
    forms = [(grassmann, grassmann.zero_point, [np.vstack([eye, zero])]),
             (grassmann, grassmann.infinity_point, [np.vstack([zero, eye])]),
             (grassmann, grassmann.one_point, [np.vstack([eye, eye])]),
             (hermitian, hermitian.poles, [np.vstack([1j * eye, eye]),
                                           np.vstack([-1j * eye, eye])])]
    for module, builder, want in forms:
        # infinity_point goes on to fill its memo, which stacks more
        got = _concatenated(monkeypatch, module, lambda: builder(n))[:len(want)]
        points = builder(n) if isinstance(builder(n), tuple) else (builder(n),)
        assert len(got) == len(want) == len(points)
        for g, w, point in zip(got, want, points):
            _same_layout(g, w)
            _same_layout(point.basis, grassmann.SubspacePoint(w).basis, writeable=False)


def test_the_identity_map_is_numpys_identity():
    for n in (1, 3):
        _same_layout(grassmann.identity_map(n).rep,
                     grassmann.ProjectiveMap._invertible(np.eye(2 * n), 1.0).rep, writeable=False)


def _bad_size_calls():
    """(id, call) of every entry point that takes a size, each given one bad size."""
    from apline import grassmann, hermitian, properties
    rng = np.random.default_rng(0)
    return [
        ("zero-point-negative", lambda: grassmann.zero_point(-1)),
        ("zero-point-fraction", lambda: grassmann.zero_point(2.5)),
        ("infinity-point-negative", lambda: grassmann.infinity_point(-1)),
        ("one-point-negative", lambda: grassmann.one_point(-1)),
        ("identity-map-negative", lambda: grassmann.identity_map(-1)),
        ("random-point-fraction", lambda: grassmann.random_point(2.5, rng)),
        ("random-map-fraction", lambda: grassmann.random_map(1.5, rng)),
        ("poles-negative", lambda: hermitian.poles(-2)),
        ("eye-negative", lambda: algebra._eye(-1)),
        ("zero-fraction", lambda: algebra.zero(1.5)),
        ("random-matrix-negative", lambda: algebra.random_matrix(-1, rng)),
        ("random-matrix-zero", lambda: algebra.random_matrix(0, rng)),
        ("random-hermitian-zero", lambda: algebra.random_hermitian(0, rng)),
        ("random-psd-zero", lambda: algebra.random_psd(0, rng)),
        ("random-unitary-zero", lambda: algebra.random_unitary(0, rng)),
        ("random-invertible-zero", lambda: algebra.random_invertible(0, rng)),
        ("random-density-zero", lambda: algebra.random_density(0, rng)),
        ("sweep-trials-zero", lambda: properties.run_sweep(n_list=[1], trials=0)),
        ("sweep-n-zero", lambda: properties.run_sweep(n_list=[1, 0], trials=1)),
        # a bool is no size, although operator.index reads True as 1; the cached base
        # points, poles and identity of n = 1 are no cache hit for it either
        ("zero-point-bool", lambda: grassmann.zero_point(True)),
        ("poles-bool", lambda: hermitian.poles(True)),
        ("eye-bool", lambda: algebra._eye(True)),
        ("random-point-bool", lambda: grassmann.random_point(True, rng)),
    ]


@pytest.mark.parametrize("case", range(len(_bad_size_calls())),
                         ids=[name for name, _ in _bad_size_calls()])
def test_a_size_that_is_no_whole_number_at_least_one_is_a_dimension_error(case):
    # never numpy's ValueError, a TypeError or an empty array
    _, call = _bad_size_calls()[case]
    with pytest.raises(DimensionError, match="must be a whole number n >= 1, got "):
        call()


def test_a_sweep_of_no_size_is_a_dimension_error():
    from apline import properties
    with pytest.raises(DimensionError, match="^the sweep needs at least one size n$"):
        properties.run_sweep(n_list=())


@pytest.mark.parametrize("selection, message", [
    # a bare string was read one character at a time, as the ids ".", "a", "a", ...
    ("algebra.trace", "^properties must be a collection of ids, not the string 'algebra.trace'$"),
    # building the unknown-id message raised a bare TypeError
    ([None], "^a property id must be a string, got None$"),
    (["algebra.trace", 7], "^a property id must be a string, got 7$"),
    # an empty selection reported no property and "ok": true
    ([], "^the sweep needs at least one property$"),
    ((), "^the sweep needs at least one property$"),
], ids=["bare-string", "none-id", "int-id", "empty-list", "empty-tuple"])
def test_a_sweep_of_no_property_or_of_no_id_is_a_dimension_error(monkeypatch, selection,
                                                                 message):
    from apline import properties
    drawn = []
    monkeypatch.setattr(properties, "sub_seed", lambda *args: drawn.append(args) or 0)
    with pytest.raises(DimensionError, match=message):
        properties.run_sweep(trials=1, properties=selection)
    assert drawn == []


def test_check_size_takes_ints_and_numpy_integers():
    assert algebra.check_size(3) == 3 and type(algebra.check_size(np.int64(3))) is int
    for bad in (2.0, "2", None, True, False, np.True_):
        with pytest.raises(DimensionError):
            algebra.check_size(bad)


@pytest.mark.parametrize("entry", [None, "2", INF, 10 ** 400], ids=["none", "string", "inf",
                                                                   "beyond-the-float-range"])
def test_a_public_array_entry_that_is_no_number_is_a_typed_error(entry):
    # never NaN for None, nor numpy's parse of "2", nor a bare TypeError or OverflowError
    for call in (algebra.adjoint, algebra.is_hermitian):
        with pytest.raises(NotANumberError, match="^matrix entries must be numbers in the float "
                                                  "range, got an array of dtype "):
            call([[1.0, entry], [0.0, 1.0]])
    assert issubclass(NotANumberError, AplineError) and issubclass(NotANumberError, ValueError)
    with pytest.raises(DimensionError, match="^matrix must be equal-length rows of numbers: "):
        algebra.adjoint([[1.0, [1.0]], [0.0, 1.0]])


def test_public_arrays_of_numbers_and_bools_keep_their_values():
    for rows in ([[True, False], [False, True]], np.eye(2, dtype=bool), [[1, 0], [0, 1]],
                 np.eye(2, dtype=np.float32), [[1.0, 0j], [0, np.float64(1.0)]]):
        _same_bits(algebra.as_matrix(rows), np.eye(2, dtype=complex))
    a = algebra.random_matrix(3, RNG)
    assert algebra._numeric(a, "matrix") is a  # an array of numbers is not copied
    _same_bits(algebra.as_matrix(a), a)


def test_the_complex_reader_reads_numbers_and_names_the_rest():
    for v, want in ((2, 2 + 0j), (np.float32(0.5), 0.5 + 0j), (2j, 2j), (np.complex64(1j), 1j)):
        got = algebra._as_complex(v, "scalars")
        assert type(got) is complex and got == want
    assert cmath.isnan(algebra._as_complex(float("nan"), "scalars"))  # for the caller to name
    for bad in (None, "2", True, np.True_, INF, [1]):
        with pytest.raises(NotANumberError, match="^scalars must be numbers, got "):
            algebra._as_complex(bad, "scalars")
    with pytest.raises(ValueOverflowError,
                       match="^scalars must be numbers in the float range, got 1000"):
        algebra._as_complex(10 ** 400, "scalars")


def test_almost_equal_compares_at_tol_eq():
    one = np.eye(2)
    assert algebra.almost_equal(one, one * (1 + 0.5 * algebra.TOL_EQ))
    assert not algebra.almost_equal(one, one * (1 + 5 * algebra.TOL_EQ))


_EXTREME_SCALES = (-1000, -999, -600, -300, 0, 60, 300, 511, 600, 900, 999, 1000)


def _near_pairs(rng, n):
    """(a, b, equal): b is a moved by a relative step around TOL_EQ, a's norm about 2**100,
    and equal is the relative test ||a - b|| <= TOL_EQ max(||a||, ||b||) on them."""
    a = algebra.random_matrix(n, rng) * 2.0 ** 100
    step = algebra.random_matrix(n, rng)
    b = a + step * (rng.uniform(0.2, 5.0) * algebra.TOL_EQ * algebra.norm(a) / algebra.norm(step))
    return a, b, algebra.norm(a - b) <= algebra.TOL_EQ * max(algebra.norm(a), algebra.norm(b))


@pytest.mark.parametrize("n", [1, 2, 4, 16])
def test_almost_equal_decides_on_the_exact_rescale_at_every_scale(n):
    # the suite runs with RuntimeWarning as an error: no scale may warn
    rng = np.random.default_rng(650 + n)
    for _ in range(20):
        a, b, equal = _near_pairs(rng, n)
        for k in _EXTREME_SCALES:
            c = 2.0 ** (k - 100)
            got = algebra.almost_equal(c * a, c * b)
            if k >= 60:  # 1 + ||a|| is ||a||: the test is relative, as at 2**100
                assert got is equal
            elif k <= -300:  # the 1 dominates: every near pair is equal
                assert got
            else:  # no norm overflows: the formula as written
                assert got is (algebra.norm(c * a - c * b) <= algebra.TOL_EQ * (
                    1.0 + max(algebra.norm(c * a), algebra.norm(c * b))))
    big = 1e200 * np.eye(2)
    assert not algebra.almost_equal(big, 2 * big) and algebra.almost_equal(big, big)
    assert not algebra.almost_equal(big, np.full((2, 2), np.inf))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_the_order_and_pair_predicates_decide_at_scales_two_to_the_plus_minus_1000(n):
    rng = np.random.default_rng(660 + n)
    v, w = algebra.random_invertible(n, rng), algebra.random_matrix(n, rng)
    v_inv = algebra.inverse(v)
    u, h, psd = (algebra.random_unitary(n, rng), algebra.random_hermitian(n, rng),
                 algebra.random_psd(n, rng))
    for k in _EXTREME_SCALES:
        c = 2.0 ** k
        # (c p, m / c) is idempotent exactly when (p, m) is
        assert algebra.is_pair_idempotent(algebra.PairElement(c * v, v_inv / c))
        assert not algebra.is_pair_idempotent(algebra.PairElement(c * v, w / c))
        assert algebra.is_hermitian(c * h) and algebra.is_psd(c * psd)
        assert algebra.is_unitary(c * u) is (k == 0)
        if k > 0:
            assert not algebra.is_psd(-c * psd) and not algebra.is_hermitian(c * w)
        # unbalanced pairs: a decision, or a scale error when a triple product overflows
        try:
            assert isinstance(algebra.is_pair_idempotent(algebra.PairElement(c * v, c * w)),
                              bool)
        except ValueOverflowError as exc:
            assert k > 0 and "overflows the float range in its triple products" in str(exc)
    p = 1e200 * np.eye(2)
    assert not algebra.is_pair_idempotent(algebra.PairElement(p, 3e-200 * np.eye(2)))
    assert algebra.is_pair_idempotent(algebra.PairElement(p, 1e-200 * np.eye(2)))
    nan = np.full((2, 2), np.nan)
    assert not algebra.is_pair_idempotent(algebra.PairElement(nan, np.eye(2)))


def test_random_invertible_gives_up_with_a_typed_error_after_its_draws(monkeypatch):
    draws = []
    monkeypatch.setattr(algebra, "is_invertible", lambda a: draws.append(a) or False)
    with pytest.raises(SingularError, match="^could not draw an invertible matrix$"):
        algebra.random_invertible(2, 0)
    assert len(draws) == 100


# --- per-call fixed costs outside the seam ----------------------------------------------
# algebra._all_finite, algebra._norm and algebra._set_errors stand in for np.isfinite(a).all(),
# float(np.linalg.norm(a)) and entering np.errstate; each must decide and compute exactly
# as they do.  The suite runs with RuntimeWarning as an error, and these tests also turn
# every other warning into one.

def _finiteness_cases():
    """(id, array): finite arrays in every layout and at scales whose dot overflows, arrays
    with a NaN or an infinity in a real or an imaginary part, empty and 0-d arrays."""
    rng = np.random.default_rng(350)
    cases = [("empty", np.zeros((0, 3))), ("empty-complex", np.zeros(0, dtype=complex)),
             ("0-d", np.array(1.5)), ("0-d-nan", np.array(complex(0.0, np.nan)))]
    for n in (1, 2, 4, 16):
        for dtype in (complex, float):
            a = _draw((2 * n, n), dtype, 350 + n)
            for scale in (0, 1000, -1000, 511, 512):
                # 2**511 is the last scale whose dot stays finite at n = 1; 2**1000 overflows
                scaled = a * 2.0 ** scale
                parts = ("real", "imag") if dtype is complex else ("real",)
                for bad in (None, np.nan, np.inf, -np.inf):
                    for part in parts if bad is not None else ("real",):
                        b = scaled.copy()
                        if bad is not None:
                            i, j = rng.integers(b.shape[0]), rng.integers(b.shape[1])
                            getattr(b, part)[i, j] = bad
                        for layout, c in _layouts(b).items():
                            cases.append((f"n{n}-{dtype.__name__}-2^{scale}-{bad}-{part}-"
                                          f"{layout}", c))
                        cases.append((f"n{n}-{dtype.__name__}-2^{scale}-{bad}-{part}-T", b.T))
    return cases


def test_all_finite_is_the_mask_on_every_input():
    overflowed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, a in _finiteness_cases():
            want = bool(np.isfinite(a).all())
            assert algebra._all_finite(a) is want, name
            # the cases where the dot proves nothing and the mask decides are reached
            overflowed += want and not np.isfinite(np.vdot(a, a))
    assert overflowed >= 50


def _norm_grid():
    """(id, array): n = 1..16 at scales 1e-160 to 1e150, in every layout, transposed, as
    real views, and 0-d and 1-d inputs."""
    cases = [("0-d", np.array(3.0 - 4.0j)), ("0-d-real", np.array(-2.5)),
             ("1-d", _draw((5,), complex, 360)), ("1-d-real", _draw((7,), float, 361)),
             ("empty", np.zeros((0, 2), dtype=complex))]
    for n in range(1, 17):
        for dtype in (complex, float):
            a = _draw((2 * n, n), dtype, 370 + n)
            for scale in (1e-160, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e150):
                b = a * scale
                for layout, c in _layouts(b).items():
                    cases.append((f"n{n}-{dtype.__name__}-{scale}-{layout}", c))
                cases.append((f"n{n}-{dtype.__name__}-{scale}-T", b.T))
                cases.append((f"n{n}-{dtype.__name__}-{scale}-real", b.real))
                cases.append((f"n{n}-{dtype.__name__}-{scale}-strided-real",
                              _layouts(b)["strided"].real))
    return cases


def test_norm_is_numpys_norm_bit_for_bit():
    cases = _norm_grid()
    assert len(cases) > 800
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, a in cases:
            want = float(np.linalg.norm(a))
            for norm in (algebra.norm, algebra._norm):
                got = norm(a)
                assert type(got) is float and got.hex() == want.hex(), name


@pytest.mark.parametrize("a", [1e200 * np.eye(2), 1e200 * np.eye(3) * (1 + 1j),
                               np.array([1e200, -1e200]), np.full(2, 1e20, dtype=np.float32)],
                         ids=["real", "complex", "1-d", "float32"])
def test_norm_rescales_where_numpys_sum_of_squares_overflows(a):
    # the library's own norm keeps numpy's overflow, warning and all
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            algebra._norm(a)
    # the public norm is the norm of an exact power-of-two rescale, scaled back: numpy's
    # bits at any power of two that keeps the squares in range, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = algebra.norm(a)
    a = a.astype(np.result_type(a, np.float64))
    k = int(np.frexp(np.abs(a).max())[1])  # 2**-k a has its largest modulus in [1/2, 1)
    assert got == float(np.linalg.norm(2.0 ** -k * a)) * 2.0 ** k
    # each case's nonzero entries share one modulus
    assert got == pytest.approx(np.abs(a).max() * math.sqrt(np.count_nonzero(a)), rel=1e-15)


def test_a_norm_beyond_the_float_range_is_a_scale_error_and_a_non_finite_entry_numpys():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueOverflowError,
                           match=r"^array of scale 1\.000e\+308 .* float range$"):
            algebra.norm(np.full((2, 2), 1e308))
        assert algebra.norm(np.array([np.inf, 1e200])) == math.inf
        assert math.isnan(algebra.norm(np.array([np.nan, 1e200])))


def test_norm_of_other_inputs_is_numpys_norm():
    for a in ([[3, 4]], np.arange(4).reshape(2, 2), np.ones(3, dtype=np.float32), 2.0):
        assert algebra.norm(a) == float(np.linalg.norm(a))


def _caller_state():
    """An error state no default holds: every mode set, a callback and another bufsize."""
    return np.errstate(call=lambda err, flag: None, all="warn", under="raise", divide="print")


@pytest.mark.parametrize("modes", [{"over": "ignore", "invalid": "ignore"},
                                   {"over": "ignore"}], ids=["over-invalid", "over"])
@pytest.mark.parametrize("internals", [True, False], ids=["extobj", "no-extobj"])
def test_the_call_time_error_state_is_the_one_np_errstate_enters(monkeypatch, modes,
                                                                 internals):
    seam = algebra if internals else _seam_without_error_state_internals(monkeypatch)

    def read():
        return np.geterr(), np.geterrcall(), np.getbufsize()
    old_bufsize = np.setbufsize(16384)
    try:
        with _caller_state():
            outside = read()
            with np.errstate(**modes):
                want = read()
            token = seam._set_errors(**modes)
            try:
                got = read()
            finally:
                seam._leave(token)
            assert got == want and read() == outside
    finally:
        np.setbufsize(old_bufsize)
    # the caller's other modes, its callback and its bufsize are kept
    assert got[0]["under"] == "raise" and got[0]["divide"] == "print" and got[2] == 16384


def test_the_predicates_keep_the_callers_error_state():
    big = 1e200 * np.eye(2)
    with _caller_state():
        before = np.geterr(), np.geterrcall(), np.getbufsize()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not algebra.almost_equal(big, 2 * big)
            assert algebra.is_hermitian(big) and algebra.is_psd(big)
            assert not algebra.is_unitary(big)
            with pytest.raises(ValueOverflowError):
                algebra.is_pair_idempotent(algebra.PairElement(big, big))
            grassmann.point_from_chart(big)
        assert (np.geterr(), np.geterrcall(), np.getbufsize()) == before


# --- the overflow rule ------------------------------------------------------------------
# algebra._at_scale is the one overflow rule: the projective predicates measure at scale 1,
# and once on the exact power-of-two rescale when a norm overflows; algebra._quietly is the
# one place that ignores overflow and invalid values.

def _uses(node, name, where="<module>"):
    """The site (a function's qualified name) of each use of name, as a name or attribute."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _uses(child, name,
                             child.name if where == "<module>" else f"{where}.{child.name}")
            continue
        if (isinstance(child, ast.Name) and child.id == name
                or isinstance(child, ast.Attribute) and child.attr == name):
            yield where
        yield from _uses(child, name, where)


def _recursions(tree):
    """The name of each function that calls itself by name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == node.name for call in ast.walk(node)):
            yield node.name


def test_one_quiet_state_one_rescale_and_no_recursion_in_algebra():
    def sites(name):
        return {module: sorted(set(found)) for module, found in
                _scan(lambda tree: _uses(tree, name)).items() if found}
    # _enter is the seam's own definition where numpy lacks _make_extobj
    assert sites("_set_errors") == {"algebra": ["_enter", "_quietly"]}
    # the public norm scales its result back, so it rescales once by itself
    assert sites("_pow2_scale") == {"algebra": ["_at_scale", "norm"],
                                    "obstate": ["pure_state_point"]}
    assert sites("_at_scale") == {"algebra": ["_almost_equal", "_is_psd", "_is_unitary",
                                              "hermitian_gap"]}
    assert _scan(lambda tree: list(_recursions(tree)))["algebra"] == []


def _recording(seen):
    """A measure that records each scale and arrays it is given and returns their norms."""
    def measure(c, *arrays):
        seen.append((c, arrays))
        return tuple(algebra._norm(a) for a in arrays)
    return measure


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                 complex(1.0, -np.inf)],
                         ids=["nan", "inf", "-inf", "nan-imag", "-inf-imag"])
def test_at_scale_is_none_on_a_non_finite_entry(bad):
    a = _draw((3, 3), complex, 901)
    b = a.copy()
    b[1, 2] = bad
    with _caller_state(), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert algebra._at_scale(_recording([]), a, b) is None
        assert algebra._at_scale(_recording([]), b) is None


@pytest.mark.parametrize("n", [1, 4, 16])
def test_at_scale_measures_at_one_and_on_the_exact_power_of_two_rescale(n):
    a, b = _draw((n, n), complex, 910 + n), _draw((n, n), complex, 920 + n)
    # numpy's default error state, which ignores the underflow of squares at 2**-1000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (0, -1000, 1000):
            x, y = 2.0 ** k * a, 2.0 ** k * b
            seen = []
            value, c = algebra._at_scale(_recording(seen), x, y)
            if k < 1000:  # no norm overflows, underflowed squares included: scale 1
                assert c == 1.0 and len(seen) == 1 and seen[0][1] == (x, y)
                assert value == (algebra.norm(x), algebra.norm(y))
                continue
            # the array with the largest part sets c, which brings that part into
            # [2**99, 2**100); the rescale is exact, so it is 2**-k times a and b
            largest = max(algebra._largest_part(x), algebra._largest_part(y))
            assert 2.0 ** 99 <= c * largest < 2.0 ** 100 and np.frexp(c)[0] == 0.5
            assert len(seen) == 2 and seen[1][0] == c
            for got, want in zip(seen[1][1], (c * 2.0 ** k * a, c * 2.0 ** k * b)):
                _same_bits(got, want)
            assert value == tuple(algebra.norm(m) for m in seen[1][1])
            assert all(np.isfinite(value)) and min(value) > 1.0
