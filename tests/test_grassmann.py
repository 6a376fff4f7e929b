import re
import warnings

import numpy as np
import pytest

from apline import algebra, classical, crossratio, grassmann, hermitian, obstate
from apline.crossratio import INF
from apline.errors import (
    DecodeError,
    DimensionError,
    NonFiniteError,
    NotInChartError,
    NotTransversalError,
    ResamplingExhausted,
    SingularError,
    ValueOverflowError,
)

RNG = np.random.default_rng(77)


def test_point_from_chart_roundtrip():
    a = algebra.random_matrix(3, RNG)
    assert np.allclose(grassmann.chart_repr(grassmann.point_from_chart(a)), a)


def test_cochart_roundtrip():
    w = algebra.random_hermitian(3, RNG)
    assert np.allclose(grassmann.cochart_repr(grassmann.point_from_cochart(w)), w)


def test_points_are_gauge_free():
    x = grassmann.random_point(3, RNG)
    g = algebra.random_invertible(3, RNG)
    assert grassmann.point_eq(grassmann.SubspacePoint(x.basis @ g), x)
    with pytest.raises(TypeError):
        hash(x)  # points are unhashable: equality is numeric, not structural


def test_infinity_point_has_no_chart_repr():
    with pytest.raises(NotInChartError):
        grassmann.chart_repr(grassmann.infinity_point(2))
    with pytest.raises(NotInChartError):
        grassmann.cochart_repr(grassmann.zero_point(2))


def test_named_points():
    n = 2
    z, inf, one = (grassmann.zero_point(n), grassmann.infinity_point(n),
                   grassmann.one_point(n))
    assert np.allclose(grassmann.chart_repr(z), np.zeros((n, n)))
    assert np.allclose(grassmann.chart_repr(one), np.eye(n))
    assert grassmann.is_transversal(z, inf)
    assert not grassmann.is_transversal(z, z)


def test_projector_image_and_kernel():
    n = 3
    for _ in range(10):
        x = grassmann.random_point(n, RNG)
        a = grassmann.random_point(n, RNG)
        if not grassmann.is_transversal(x, a):
            continue
        p = grassmann.projector(x, a)
        assert np.allclose(p @ p, p, atol=1e-9)
        assert np.allclose(p @ x.basis, x.basis, atol=1e-9)
        assert np.allclose(p @ a.basis, 0.0, atol=1e-9)


def test_projector_needs_transversality():
    z = grassmann.zero_point(2)
    with pytest.raises(NotTransversalError):
        grassmann.projector(z, z)


def test_torsor_product_chart_law():
    # at (a, b) = (infinity, zero) the torsor is X Y^{-1} Z on charts
    n = 2
    inf, zero = grassmann.infinity_point(n), grassmann.zero_point(n)
    xm = algebra.random_invertible(n, RNG)
    ym = algebra.random_invertible(n, RNG)
    zm = algebra.random_invertible(n, RNG)
    got = grassmann.torsor_product(
        grassmann.point_from_chart(xm), grassmann.point_from_chart(ym),
        grassmann.point_from_chart(zm), inf, zero)
    assert grassmann.point_eq(
        got, grassmann.point_from_chart(xm @ np.linalg.inv(ym) @ zm))


def test_torsor_product_additive_degeneration():
    # a = b = infinity turns the torsor into chart addition X - Y + Z
    n = 2
    inf = grassmann.infinity_point(n)
    xm, ym, zm = (algebra.random_matrix(n, RNG) for _ in range(3))
    got = grassmann.torsor_product(
        grassmann.point_from_chart(xm), grassmann.point_from_chart(ym),
        grassmann.point_from_chart(zm), inf, inf)
    assert grassmann.point_eq(got, grassmann.point_from_chart(xm - ym + zm))


def test_scalar_action_dilates_charts():
    n = 2
    inf, zero = grassmann.infinity_point(n), grassmann.zero_point(n)
    c = algebra.random_matrix(n, RNG)
    y = grassmann.point_from_chart(c)
    got = grassmann.scalar_action(2.5, inf, zero, y)
    assert grassmann.point_eq(got, grassmann.point_from_chart(2.5 * c))
    assert grassmann.point_eq(grassmann.scalar_action(0.0, inf, zero, y), zero)
    assert grassmann.point_eq(grassmann.scalar_action(1.0, inf, zero, y), y)


def test_projective_map_group():
    n = 3
    g = grassmann.random_map(n, RNG)
    x = grassmann.random_point(n, RNG)
    assert grassmann.point_eq(
        grassmann.apply_map(g.inverse(), grassmann.apply_map(g, x)), x)
    assert grassmann.point_eq(
        grassmann.apply_map(grassmann.identity_map(n), x), x)


def _basis_from_json(obj):
    # the raw-basis point form is read by the obstate slot decoder
    return obstate._point_from_json(obj, "A")


def test_point_json_roundtrip():
    x = grassmann.random_point(3, RNG)
    obj = {"n": 3, "basis_re": x.basis.real.tolist(), "basis_im": x.basis.imag.tolist()}
    y = _basis_from_json(obj)
    assert grassmann.point_eq(x, y)


@pytest.mark.parametrize("obj", [{"basis_re": 5}, {"basis_re": None},
                                 {"basis_re": [[1.0], [0.0]], "n": [1]},
                                 # json.load yields these; int() and float() overflow on them
                                 {"basis_re": [[1.0], [0.0]], "n": float("inf")},
                                 {"basis_re": [[10**400], [0.0]]}])
def test_point_json_rejects_what_is_not_a_basis(obj):
    with pytest.raises(ValueError, match="point JSON"):
        _basis_from_json(obj)


@pytest.mark.parametrize("obj", [{"basis_re": [[1.0], ["0"]]},
                                 {"basis_re": [[1.0], [0.0]], "basis_im": [[True], [0.0]]},
                                 {"basis_re": [[1.0], [0.0]], "basis_im": [["infinity"], [0]]},
                                 {"basis_re": [[1.0], [None]]}])
def test_point_json_entries_must_be_numbers(obj):
    # numpy reads "0" and true as numbers, "infinity" as inf and null as nan
    with pytest.raises(DecodeError, match="point JSON entries must be numbers"):
        _basis_from_json(obj)


@pytest.mark.parametrize("n", [1.5, "1", True, float("nan")])
def test_point_json_size_must_be_a_whole_number(n):
    basis = {"basis_re": [[1.0], [0.0]]}
    with pytest.raises(DecodeError, match="point JSON size n must be a whole number"):
        _basis_from_json(dict(basis, n=n))
    assert _basis_from_json(dict(basis, n=1.0)).n == 1


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_full_rank_constructor_matches_the_public_one_bitwise(n):
    for _ in range(5):
        cols = (RNG.standard_normal((2 * n, n))
                + 1j * RNG.standard_normal((2 * n, n))) / np.sqrt(2)
        want = grassmann.SubspacePoint(cols)
        got = grassmann.SubspacePoint._full_rank(cols)
        assert got.n == want.n == n
        assert got.basis.tobytes() == want.basis.tobytes()
        assert not got.basis.flags.writeable


@pytest.mark.parametrize("build, value", [
    (grassmann.SubspacePoint, np.array([[1.5e308], [1.5e308]])),
    (grassmann.SubspacePoint, np.array([[1e308], [1e308]])),
    (grassmann.SubspacePoint, np.array([[1.5e308 + 1.5e308j], [1.0]])),
    (grassmann.SubspacePoint, np.array([[1e308, 0.0], [1e308, 0.0], [0.0, 1.0], [0.0, 1.0]])),
    (grassmann.point_from_cochart, np.full((2, 2), 1e308)),
    (obstate.state_from_density, np.diag([1e308, 1e308])),
    (lambda rep: grassmann.apply_map(grassmann.ProjectiveMap(rep), grassmann.one_point(1)),
     np.diag([1.7e308, 1.7e308])),
], ids=["column-1.5e308", "column-1e308", "complex-entry", "two-columns", "cochart", "density", "apply-map"])
def test_a_basis_that_overflows_its_qr_is_a_scale_error_never_a_nan_basis(build, value):
    # finite entries whose column norms overflow in the QR: named by scale, not a NaN basis
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueOverflowError, match=r"^basis of scale \d\.\d{3}e\+308 "):
            build(value)


@pytest.mark.parametrize("build", [algebra.is_invertible, algebra.inverse,
                                   grassmann.ProjectiveMap], ids=["is_invertible", "inverse", "map"])
def test_a_matrix_whose_svd_overflows_is_a_scale_error_not_singular(build):
    # finite and perfectly conditioned, but the SVD returns [inf, inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueOverflowError, match=r"^matrix of scale 1\.500e\+308 "):
            build(1.5e308 * np.array([[1.0, 1.0], [1.0, -1.0]]))


def _concatenated_margin(x, a):
    """The margin by its definition, sigma_min / sigma_max of the 2n x 2n [X | A]."""
    s = np.linalg.svd(np.hstack([x.basis, a.basis]), compute_uv=False)
    return float(s[-1] / max(s[0], 1e-300))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_sine_margin_matches_the_half_angle_tangent_as_closely_as_the_concatenated_svd(n):
    # X = [U; 0] and A = [C V; S V], with C and S the cosines and sines of principal
    # angles whose smallest is theta, so the margin is tan(theta / 2); the constructor's
    # QR keeps A's small rows to their own relative precision, so that value is exact
    # to rounding.  At n = 1, [X | A] is a column permutation of a triangular 2 x 2,
    # whose SVD is exact to rounding too; there the sine margin is held to its own
    # bound: X* X = I holds to about eps, which adds to the sine in quadrature, a
    # relative error of order (eps / theta)^2 (1e-16 at the threshold).
    eps = np.finfo(float).eps
    rng = np.random.default_rng([16, n])
    for theta in list(np.logspace(-4, -11, 8)) + [2e-8 * (1 - 1e-3), 2e-8 * (1 + 1e-3)]:
        want = np.tan(theta / 2)
        worst_sine = worst_svd = 0.0
        for _ in range(4):
            angles = np.r_[theta, rng.uniform(theta, np.pi / 2, n - 1)]
            v = algebra.random_unitary(n, rng)
            x = np.vstack([algebra.random_unitary(n, rng), np.zeros((n, n))])
            a = np.vstack([np.cos(angles)[:, None] * v, np.sin(angles)[:, None] * v])
            pair = (grassmann.SubspacePoint(x), grassmann.SubspacePoint(a))
            for p, q in (pair, pair[::-1]):
                sine, svd = grassmann.transversality_margin(p, q), _concatenated_margin(p, q)
                rtol = grassmann.TRANSVERSALITY_RTOL
                assert (sine > rtol) == (svd > rtol) == (want > rtol)
                sine_error = abs(sine - want) / want
                worst_sine = max(worst_sine, sine_error)
                worst_svd = max(worst_svd, abs(svd - want) / want)
                assert n > 1 or sine_error <= 8 * (eps / theta) ** 2 + 8 * eps
        assert n == 1 or worst_sine <= worst_svd


def test_public_constructors_still_reject_singular_input():
    cols = np.ones((4, 2))
    with pytest.raises(SingularError, match="rank deficient"):
        grassmann.SubspacePoint(cols)
    rep = np.eye(4)
    rep[3, 3] = 0.0
    with pytest.raises(SingularError, match="singular"):
        grassmann.ProjectiveMap(rep)


def test_a_basis_whose_rank_svd_overflows_names_its_scale():
    # full rank, and its QR is finite, but s_max of R overflows: the rank is unknown, not low
    cols = np.array([[1.3e308, 1.3e308], [0.0, 1.3e308], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueOverflowError, match=r"scale 1\.300e\+308 .* SVD$"):
        grassmann.SubspacePoint(cols)


def _graded_columns(n, rng, exponent):
    """A 2n x n column set U diag(s) V with s_max = 1 and s_min = 10^-exponent, V unitary."""
    u, _ = np.linalg.qr(rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n)))
    v = algebra.random_unitary(n, rng)
    s = 10.0 ** -np.concatenate([[0.0], np.sort(rng.uniform(0.0, exponent, n - 1))[::-1]])
    if n > 1:
        s[-1] = 10.0 ** -exponent
    return (u * s) @ v


def _svd_decides_full_rank(cols):
    """The rank rule on numpy's R of cols, decided by its SVD."""
    return algebra.invertible_cond(np.linalg.qr(cols)[1]) is not None


def _decides_full_rank(cols):
    try:
        grassmann.SubspacePoint(cols)
    except SingularError:
        return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 16])
def test_a_public_point_decides_its_rank_as_the_svd_of_r_does(n):
    rng = np.random.default_rng(40 + n)
    # condition numbers from 1 to 1e12, dense around 1 / TOL_INV = 1e10, at moderate scales;
    # at tiny and huge scales the bound proves nothing and the SVD decides
    graded = [(e, 2.0 ** rng.integers(-20, 20)) for e in np.concatenate(
        [rng.uniform(0.0, 12.0, 80), rng.uniform(9.5, 10.5, 80)])]
    extreme = [(e, scale) for e in (0.0, 3.0, 9.9, 10.1, 12.0) for scale in (1e-200, 1e200)]
    decisions = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exponent, scale in graded + extreme:
            cols = _graded_columns(n, rng, exponent) * scale
            decision = _decides_full_rank(cols)
            assert decision is _svd_decides_full_rank(cols)
            decisions.append(decision)
        # an exactly rank-deficient set: a zero column
        cols = _graded_columns(n, rng, 0.0)
        cols[:, -1] = 0.0
        assert not _decides_full_rank(cols) and not _svd_decides_full_rank(cols)
    # both decisions occur where there is a condition number to grade
    assert n == 1 or len(set(decisions)) == 2


def test_proven_invertible_maps_are_read_only_copies():
    g = grassmann.random_map(3, RNG)
    inv = g.inverse()
    assert inv.rep.tobytes() == np.linalg.inv(g.rep).tobytes()
    assert not inv.rep.flags.writeable
    rep = np.linalg.inv(g.rep)
    h = grassmann.ProjectiveMap._invertible(rep, None)
    rep[0, 0] += 1.0
    assert h.rep[0, 0] != rep[0, 0]
    assert not h.rep.flags.writeable


def _generic_points(n, count):
    return [grassmann.random_point(n, RNG) for _ in range(count)]


def test_guarded_functions_reject_every_non_transversal_pair():
    x, a, b, y, z = _generic_points(2, 5)
    with pytest.raises(NotTransversalError):
        grassmann.projector(x, x)
    # m_operator(x, a, b, z) checks (x, a), (x, b), (z, a), (z, b)
    for args in ((x, x, b, z), (x, a, x, z), (x, z, b, z), (x, a, z, z)):
        with pytest.raises(NotTransversalError):
            grassmann.m_operator(*args)
    # scalar_action(r, a, x, y) checks (x, a) and (y, a)
    for args in ((a, a, y), (a, x, a)):
        with pytest.raises(NotTransversalError):
            grassmann.scalar_action(2.0, *args)
    # torsor_product(x, y, z, a, b) checks y, x and z against both a and b
    for args in ((x, a, z, a, b), (x, b, z, a, b), (a, y, z, a, b),
                 (b, y, z, a, b), (x, y, a, a, b), (x, y, b, a, b)):
        with pytest.raises(NotTransversalError):
            grassmann.torsor_product(*args)


def test_m_operator_and_scalar_action_match_the_checked_projectors():
    x, a, b, z, y = _generic_points(3, 5)
    m = grassmann.m_operator(x, a, b, z)
    want = grassmann.projector(x, a) - grassmann.projector(b, z)
    assert m.tobytes() == want.tobytes()
    got = grassmann.scalar_action(1.5, a, x, y)
    ref = grassmann.SubspacePoint(
        (1.5 * grassmann.projector(a, x) + grassmann.projector(x, a)) @ y.basis)
    assert got.basis.tobytes() == ref.basis.tobytes()


@pytest.mark.parametrize("to_point", [grassmann.point_from_chart,
                                      grassmann.point_from_cochart])
def test_out_of_range_chart_values_are_a_scale_error(to_point):
    with pytest.raises(SingularError, match=r"scale 1\.000e\+11.*1/TOL_INV") as info:
        to_point(np.diag([1.0, 1e11]))
    assert "rank deficient" not in str(info.value)
    to_point(np.diag([1.0, 1e9]))  # inside the range: accepted as before


@pytest.mark.parametrize("chart", ["chart", "cochart"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_graph_points_near_and_beyond_the_norm_bound_match_the_checked_path(chart, n):
    # below ||a||_F = 1e6 the rank SVD is skipped; the result must be the point,
    # or the error, that the checked constructor gives
    rng = np.random.default_rng(40 + n)
    to_point = grassmann.point_from_chart if chart == "chart" else grassmann.point_from_cochart
    values = []
    for size in (1e5, 3e5, 1e6 * (1 - 1e-9), 1e6, 1e6 * (1 + 1e-9), 3e6, 1e7,
                 1e10, 1e11, 1e12, 1e15, 1e200):
        h = algebra.random_hermitian(n, rng)
        values.append(size * h / np.linalg.norm(h))
        values.append(np.diag(np.r_[size, np.ones(n - 1)]))  # range from 1 to size
    values += [np.full((n, n), np.nan), np.full((n, n), np.inf)]
    rejected = 0
    for a in values:
        eye = np.eye(n)
        cols = np.vstack([eye, a]) if chart == "chart" else np.vstack([a, eye])
        try:
            want = grassmann.SubspacePoint(cols)
        except SingularError:
            scale = np.linalg.svd(a, compute_uv=False)[0]
            prefix = f"{chart} value of scale {scale:.3e} (largest singular value)"
            with pytest.raises(SingularError, match="^" + re.escape(prefix)):
                to_point(a)
            rejected += 1
            continue
        except NonFiniteError:  # nan and inf: named as such, never as a scale error
            with pytest.raises(NonFiniteError, match="^basis entries must be finite$"):
                to_point(a)
            continue
        assert to_point(a).basis.tobytes() == want.basis.tobytes()
    # the ranges 1 to 1e11 and beyond; an n = 1 graph basis is one column
    assert rejected == (0 if n == 1 else 4)


@pytest.mark.parametrize("build, value", [
    (grassmann.SubspacePoint, np.array([[np.inf], [1.0]])),
    (grassmann.SubspacePoint, np.array([[1.0, 0.0], [0.0, np.nan], [0.0, 1.0], [1.0, 0.0]])),
    (grassmann.point_from_chart, np.diag([np.inf, 1.0])),
    (grassmann.point_from_chart, np.diag([np.nan, 1.0])),
    (grassmann.point_from_cochart, np.diag([1.0, -np.inf])),
    (grassmann.point_from_cochart, np.full((1, 1), np.nan)),
    (grassmann.ProjectiveMap, np.diag([np.nan, 1.0])),
    (grassmann.ProjectiveMap, np.diag([np.inf, 1.0])),
    (algebra.is_invertible, np.diag([np.nan, 1.0])),
    (algebra.is_invertible, np.diag([1.0, -np.inf])),
    (algebra.inverse, np.diag([np.nan, 1.0])),
    (algebra.inverse, np.diag([np.inf, 1.0])),
    (obstate.state_from_density, np.diag([np.nan, 1.0])),
    (obstate.state_from_density, np.diag([np.inf, 1.0])),
], ids=["basis-inf", "basis-nan", "chart-inf", "chart-nan", "cochart-inf", "cochart-nan",
        "map-nan", "map-inf", "is_invertible-nan", "is_invertible-inf", "inverse-nan",
        "inverse-inf", "density-nan", "density-inf"])
def test_a_non_finite_basis_is_an_error_that_names_it(build, value):
    # not a NaN result, numpy's LinAlgError, "singular" or "not Hermitian": the real cause
    with pytest.raises(NonFiniteError, match="must be finite") as info:
        build(value)
    assert "scale" not in str(info.value)


def _circle_point():
    return grassmann.point_from_chart(np.diag([1.0, -2.0]))


def _scalar_action(r):
    n = 2
    return grassmann.scalar_action(r, grassmann.infinity_point(n), grassmann.zero_point(n),
                                   grassmann.point_from_chart(np.eye(n)))


_EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize("call, error, match", [
    (lambda: hermitian.s1_action(np.nan, _circle_point()), NonFiniteError, "finite angle"),
    (lambda: hermitian.s1_action(np.inf, _circle_point()), NonFiniteError, "finite angle"),
    (lambda: hermitian.s1_action_map(np.nan, 2), NonFiniteError, "finite angle"),
    (lambda: _scalar_action(np.inf), NonFiniteError, "finite scalar"),
    (lambda: _scalar_action(np.nan), NonFiniteError, "finite scalar"),
    (lambda: crossratio.classical_cr(np.nan, 0.0, 1.0, 2.0), NonFiniteError, "finite"),
    (lambda: crossratio.classical_cr(np.inf, 0.0, 1.0, INF), NonFiniteError, "finite"),
    (lambda: crossratio.ratio(np.nan, 1.0, 0.0), NonFiniteError, "finite"),
    (lambda: crossratio.proj_equal(np.nan, 1.0), NonFiniteError, "finite"),
    (lambda: crossratio.proj_equal(np.inf, INF), NonFiniteError, "finite"),
    (lambda: classical.ClassicalFn([1.0, np.inf]), NonFiniteError,
     "^values must be finite floats or INF$"),
    (lambda: obstate.pure_state_point([np.inf, 1.0]), NonFiniteError, "finite vector"),
    (lambda: obstate.pure_state_point([np.nan, 1.0]), NonFiniteError, "finite vector"),
    (lambda: algebra.as_matrix(_EMPTY), DimensionError, "n >= 1"),
    (lambda: algebra.is_invertible(_EMPTY), DimensionError, "n >= 1"),
    (lambda: grassmann.SubspacePoint(_EMPTY), DimensionError, "n >= 1"),
    (lambda: grassmann.ProjectiveMap(_EMPTY), DimensionError, "n >= 1"),
    (lambda: grassmann.zero_point(0), DimensionError, "n >= 1"),
    (lambda: grassmann.random_point(0, 5), DimensionError, "n >= 1"),
    (lambda: grassmann.identity_map(0), DimensionError, "n >= 1"),
    (lambda: obstate.standard_obstate(_EMPTY, _EMPTY), DimensionError, "n >= 1"),
], ids=["s1-nan", "s1-inf", "s1-map-nan", "scalar-action-inf", "scalar-action-nan",
        "cr-nan", "cr-float-inf", "ratio-nan", "proj-equal-nan", "proj-equal-float-inf",
        "classical-value-inf", "pure-inf", "pure-nan", "as-matrix-n0", "is-invertible-n0",
        "point-n0", "map-n0", "zero-point-n0", "random-point-n0", "identity-map-n0",
        "standard-obstate-n0"])
def test_a_boundary_input_is_a_typed_error(call, error, match):
    # never a NaN result, a numpy RuntimeWarning or an IndexError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call()


def test_pure_state_point_rescales_its_vector_exactly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # <psi, psi> of 1e200 entries would overflow
        point = obstate.pure_state_point([1e200, 1e200])
    want = grassmann.point_from_cochart(np.full((2, 2), 0.5))
    assert point.basis.tobytes() == want.basis.tobytes()
    rng = np.random.default_rng(78)
    for k in range(50):  # a power-of-two rescale keeps the unscaled formula's bits
        psi = (rng.standard_normal((1 + k % 5, 1)) + 1j * rng.standard_normal((1 + k % 5, 1))
               ) * 10.0 ** rng.integers(-30, 30)
        want = grassmann.point_from_cochart(psi @ psi.conj().T / np.vdot(psi, psi).real)
        assert obstate.pure_state_point(psi).basis.tobytes() == want.basis.tobytes()


def test_a_map_applied_to_a_point_of_another_size_is_a_dimension_error():
    with pytest.raises(DimensionError, match=r"^dimension mismatch: map n=2, point n=3$"):
        grassmann.apply_map(grassmann.identity_map(2), grassmann.zero_point(3))


def test_a_point_equals_no_non_point_and_no_point_of_another_size():
    x = grassmann.zero_point(2)
    assert x.__eq__(object()) is NotImplemented and x != "zero"
    assert x != grassmann.zero_point(3)


def test_a_map_composes_only_with_a_map():
    g = grassmann.identity_map(2)
    assert g.__matmul__(np.eye(4)) is NotImplemented
    with pytest.raises(TypeError):
        g @ grassmann.zero_point(2)


def test_random_point_gives_up_with_a_typed_error_after_its_draws(monkeypatch):
    draws = []
    monkeypatch.setattr(algebra, "_triangular_full_rank", lambda f: draws.append(f) or False)
    with pytest.raises(ResamplingExhausted,
                       match="^random_point: all draws were rank deficient$"):
        grassmann.random_point(2, 0)
    assert len(draws) == 100


def test_random_map_gives_up_with_a_typed_error_after_its_draws(monkeypatch):
    draws = []
    monkeypatch.setattr(algebra, "invertible_cond", lambda rep: draws.append(rep))  # None: singular
    with pytest.raises(ResamplingExhausted, match="^random_map: all draws were singular$"):
        grassmann.random_map(2, 0)
    assert len(draws) == 100


def test_points_and_maps_show_their_size():
    assert repr(grassmann.zero_point(3)) == "SubspacePoint(n=3)"
    assert repr(grassmann.identity_map(2)) == "ProjectiveMap(n=2)"
