import ast
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import apline
from apline import algebra
from apline.errors import (DecodeError, DimensionError, NonFiniteError, SingularError,
                           ValueOverflowError)

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
    for name, a in (*_layouts(tall).items(), *_layouts(square).items()):
        want_q, want_r = np.linalg.qr(a)
        q, r = seam.thin_qr(a, with_r=True)
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


_GUFUNCS = ("_svd_gufunc", "_inv_gufunc", "_qr_r_raw_gufunc", "_qr_reduced_gufunc",
            "_solve_gufunc", "_solve1_gufunc", "_eigh_gufunc", "_eigvalsh_gufunc", "_det_gufunc")


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
    "_inv_gufunc": "_raise_linalgerror_singular",
    "_solve_gufunc": "_raise_linalgerror_singular",
    "_solve1_gufunc": "_raise_linalgerror_singular",
    "_eigh_gufunc": "_raise_linalgerror_eigenvalues_nonconvergence",
    "_eigvalsh_gufunc": "_raise_linalgerror_eigenvalues_nonconvergence",
}


def _seam_calls(seam, dtype):
    """Each seam entry called once on an n = 3 input."""
    a = _draw((3, 3), dtype, 7)
    return (lambda: seam.thin_qr(a), lambda: seam.singular_values(a),
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


def _failures(seam):
    """(call, numpy's call) pairs that raise LinAlgError: singular inputs and a NaN SVD."""
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    nan = np.full((2, 2), np.nan)
    return ((lambda: seam.proven_inverse(singular), lambda: np.linalg.inv(singular)),
            (lambda: seam.solve(singular, singular), lambda: np.linalg.solve(singular, singular)),
            (lambda: seam.solve(singular + 0j, singular[0]),
             lambda: np.linalg.solve(singular + 0j, singular[0])),
            (lambda: seam.singular_values(nan), lambda: np.linalg.svd(nan, compute_uv=False)))


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
    # the null space basis of hermitian._null_space_point (F-ordered)
    _, _, vh = np.linalg.svd(rng.standard_normal((n, 2 * n)) + 0j)
    null = vh[n:, :].conj().T
    _same_bits(algebra.thin_qr(null)[0], np.linalg.qr(null)[0])
    # the top block of a basis, as hermitian._cayley_unitary inverts it
    _same_bits(algebra.proven_inverse(x[:n, :]), np.linalg.inv(x[:n, :]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "complex-nan"])
def test_a_non_finite_matrix_still_fails_the_invertibility_test_by_name(entry):
    a = np.eye(3, dtype=complex)
    a[1, 2] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="must be finite"):
            algebra.is_invertible(a)


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
        for with_r in (False, True):
            with pytest.raises(ValueOverflowError,
                               match=r"^basis of scale 1\.500e\+308 .* QR factorization$"):
                algebra.thin_qr(np.array([[1.5e308], [1.5e308]], dtype=complex), with_r)


@pytest.mark.parametrize("dtype", [complex, float], ids=["complex128", "float64"])
def test_an_exactly_singular_proven_inverse_is_numpys_error_without_a_warning(dtype):
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            algebra.proven_inverse(a)


# Outside algebra, no library module may call the numpy functions the seam stands in for,
# so none can bypass its error policy or its counting.  properties.py is the test harness.
# The exempt sites, by module and site, with the reason each keeps numpy's wrapper:
_SEAM_EXEMPT = {
    "hermitian": {
        "_null_space_point:linalg.svd": "a full SVD, for vh; the seam has singular values only",
        "LineFamily.__init__:linalg.svd": "a full SVD, for u, s and vh; the obstates "
                                          "benchmark's trace counts it as linalg.svd",
    },
    "obstate": {
        "_line_factors:thin_qr(with_r=True)": "solves with numpy's R; the obstates "
                                              "benchmark's trace counts it as linalg.qr",
    },
}
_LINALG_SEAM = {"qr", "inv", "svd", "solve", "eigh", "eigvalsh", "det"}


def _seam_bypasses(node, where="<module>"):
    """'site:linalg.name' of each np.linalg call the seam stands in for, and
    'site:thin_qr(with_r=True)' of each QR that asks numpy for R; a site is a function's
    qualified name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _seam_bypasses(
                child, child.name if where == "<module>" else f"{where}.{child.name}")
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            func = child.func
            if (isinstance(func.value, ast.Attribute) and func.value.attr == "linalg"
                    and func.attr in _LINALG_SEAM):
                yield f"{where}:linalg.{func.attr}"
            if any(k.arg == "with_r" and isinstance(k.value, ast.Constant)
                   and k.value.value is True for k in child.keywords):
                yield f"{where}:thin_qr(with_r=True)"
        yield from _seam_bypasses(child, where)


def _seam_scan():
    return {path.stem: list(_seam_bypasses(ast.parse(path.read_text(encoding="utf-8"))))
            for path in sorted(Path(apline.__file__).parent.glob("*.py"))}


def test_no_library_module_bypasses_the_linalg_seam():
    found = _seam_scan()
    assert {module: sites for module, sites in found.items()
            if module not in ("algebra", "properties")
            and set(sites) - set(_SEAM_EXEMPT.get(module, ()))} == {}
    # each exempt site is still there, so the list cannot outlive its reason
    for module, sites in _SEAM_EXEMPT.items():
        assert set(sites) <= set(found[module])
    # the scan sees such calls where they are: each seam entry's fallback
    assert sorted(found["algebra"]) == [
        "det:linalg.det", "eigh:linalg.eigh", "eigvalsh:linalg.eigvalsh",
        "proven_inverse:linalg.inv", "singular_values:linalg.svd", "solve:linalg.solve",
        "thin_qr:linalg.qr"]


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
        ("omega-matrix-negative", lambda: hermitian.omega_matrix(-1)),
        ("j-matrix-zero", lambda: hermitian.j_matrix(0)),
        ("cayley-matrix-zero", lambda: hermitian.cayley_matrix(0)),
        ("identity-negative", lambda: algebra.identity(-1)),
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


def test_check_size_takes_ints_and_numpy_integers():
    assert algebra.check_size(3) == 3 and type(algebra.check_size(np.int64(3))) is int
    for bad in (2.0, "2", None):
        with pytest.raises(DimensionError):
            algebra.check_size(bad)


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
