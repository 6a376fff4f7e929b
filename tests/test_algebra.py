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


def _check_seam(n, dtype, seed):
    tall, square = _draw((2 * n, n), dtype, seed), _draw((n, n), dtype, seed + 1)
    for name, a in (*_layouts(tall).items(), *_layouts(square).items()):
        want_q, want_r = np.linalg.qr(a)
        q, r = algebra.thin_qr(a, with_r=True)
        _same_bits(q, want_q)
        _same_bits(r, want_r)
        q_packed, packed = algebra.thin_qr(a)
        _same_bits(q_packed, want_q)
        # R is the upper triangle of the packed factor's first n rows, as numpy reads it
        _same_bits(np.triu(packed[:n]), want_r)
        _same_bits(algebra.singular_values(a), np.linalg.svd(a, compute_uv=False))
    for a in _layouts(square).values():
        _same_bits(algebra.proven_inverse(a), np.linalg.inv(a))


@pytest.mark.parametrize("dtype", [complex, float], ids=["complex128", "float64"])
@pytest.mark.parametrize("n", _SEAM_N)
def test_the_seam_is_bitwise_numpy(n, dtype):
    _check_seam(n, dtype, 100 * n)


@pytest.mark.parametrize("dtype", [complex, float], ids=["complex128", "float64"])
@pytest.mark.parametrize("n", _SEAM_N)
def test_the_seam_without_the_gufuncs_is_bitwise_numpy(monkeypatch, n, dtype):
    for name in ("_svd_gufunc", "_inv_gufunc", "_qr_r_raw_gufunc", "_qr_reduced_gufunc"):
        monkeypatch.setattr(algebra, name, None)
    _check_seam(n, dtype, 100 * n + 50)


# sha256 of the tobytes() of random_unitary(n, seed) for n in _SEAM_N and seeds 0, 1, 7, as
# it was computed from np.linalg.qr's R
_RANDOM_UNITARY_DIGEST = "1efb6c77580f121d84b8f8cb98967601128d45e206da06f8e71c40f0eb46e8b9"


@pytest.mark.parametrize("gufuncs", [True, False], ids=["gufuncs", "no-gufuncs"])
def test_random_unitary_keeps_its_bits_when_its_phases_come_from_the_packed_factor(
        monkeypatch, gufuncs):
    if not gufuncs:
        for name in ("_svd_gufunc", "_inv_gufunc", "_qr_r_raw_gufunc", "_qr_reduced_gufunc"):
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
_SEAM_EXEMPT = {"algebra", "properties"}


def _seam_bypasses(tree):
    """Lines of the calls np.linalg.qr/inv(...) and np.linalg.svd(..., compute_uv=False)."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "linalg"):
            continue
        name = node.func.attr
        values_only = any(k.arg == "compute_uv" and isinstance(k.value, ast.Constant)
                          and k.value.value is False for k in node.keywords)
        if name in ("qr", "inv") or name == "svd" and values_only:
            yield f"linalg.{name}:{node.lineno}"


def _seam_scan():
    return {path.stem: list(_seam_bypasses(ast.parse(path.read_text(encoding="utf-8"))))
            for path in sorted(Path(apline.__file__).parent.glob("*.py"))}


def test_no_library_module_bypasses_the_linalg_seam():
    found = _seam_scan()
    assert {module: sites for module, sites in found.items()
            if sites and module not in _SEAM_EXEMPT} == {}
    # the scan sees such calls where they are: the seam's own fallbacks
    assert {site.split(":")[0] for site in found["algebra"]} == {
        "linalg.qr", "linalg.inv", "linalg.svd"}


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
