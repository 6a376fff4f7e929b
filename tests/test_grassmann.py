import numpy as np
import pytest

from apline import algebra, grassmann
from apline.errors import NotHermitianError, NotInChartError, NotTransversalError

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


def test_mobius_from_blocks_acts_on_charts():
    # z -> (a z + b)(c z + d)^{-1} on 1x1 charts
    m = grassmann.mobius_from_blocks([[2.0]], [[1.0]], [[1.0]], [[1.0]])
    z = grassmann.point_from_chart(np.array([[3.0]]))
    got = grassmann.apply_map(m, z)
    want = (2.0 * 3.0 + 1.0) / (3.0 + 1.0)
    assert np.allclose(grassmann.chart_repr(got), [[want]])


def test_point_json_roundtrip():
    x = grassmann.random_point(3, RNG)
    y = grassmann.point_from_json(grassmann.point_to_json(x))
    assert grassmann.point_eq(x, y)


@pytest.mark.parametrize("obj", [{"basis_re": 5}, {"basis_re": None},
                                 {"basis_re": [[1.0], [0.0]], "n": [1]}])
def test_point_json_rejects_what_is_not_a_basis(obj):
    with pytest.raises(ValueError, match="point JSON"):
        grassmann.point_from_json(obj)
