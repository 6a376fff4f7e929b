import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apline import classical
from apline.crossratio import INF, is_inf
from apline.errors import (
    AplineError,
    DegenerateReferenceError,
    DimensionError,
    IndeterminateError,
    ValueOverflowError,
    ZeroWeightError,
)

RNG = np.random.default_rng(90210)

finite = st.floats(min_value=-20, max_value=20,
                   allow_nan=False, allow_infinity=False)


def test_classical_fn_holds_values():
    f = classical.ClassicalFn([1.0, INF, -2.0])
    assert f.size == 3
    assert is_inf(f[1])
    assert f[2] == -2.0
    doubled = f.map(lambda v: v if is_inf(v) else 2.0 * v)
    assert doubled[0] == 2.0 and is_inf(doubled[1])


def test_measure_rejects_bad_weights():
    with pytest.raises(ValueError):
        classical.Measure([1.0, -0.5])
    mu = classical.Measure([1.0, 2.0])
    assert mu.total == 3.0


def test_bijection_inverse_and_compose():
    phi = classical.Bijection([2, 0, 1])
    assert phi.inverse()(2) == 0
    psi = classical.Bijection([1, 2, 0])
    comp = phi.compose(psi)
    for p in range(3):
        assert comp(p) == phi(psi(p))
    with pytest.raises(ValueError):
        classical.Bijection([0, 0, 1])


def test_fn_obstate_standard_frame():
    m = 4
    f = classical.ClassicalFn(RNG.standard_normal(m).tolist())
    coords = classical.fn_obstate(f, classical.constant_fn(1.0, m),
                                  classical.constant_fn(0.0, m),
                                  classical.constant_fn(INF, m))
    for p in range(m):
        assert coords[p] == pytest.approx(f[p])


def test_fn_obstate_worked_example():
    # constants f0 = 2, f1 = 5, f = 4, finf = inf -> (4-2)/(5-2) = 2/3
    v = classical.fn_obstate_value(
        classical.constant_fn(4.0, 1), classical.constant_fn(5.0, 1),
        classical.constant_fn(2.0, 1), classical.constant_fn(INF, 1), 0)
    assert v == pytest.approx(2.0 / 3.0)


def test_fn_obstate_rejects_colliding_references():
    one = classical.constant_fn(1.0, 1)
    with pytest.raises(DegenerateReferenceError):
        classical.fn_obstate_value(one, one, one, classical.constant_fn(INF, 1), 0)


def test_cyclic_order_basics():
    assert classical.cyclic_order(0.0, 1.0, INF)
    assert not classical.cyclic_order(1.0, 0.0, INF)
    # rotations of a positively ordered triple stay positively ordered
    assert classical.cyclic_order(1.0, 2.0, 5.0) == classical.cyclic_order(
        2.0, 5.0, 1.0) == classical.cyclic_order(5.0, 1.0, 2.0)
    with pytest.raises(IndeterminateError):
        classical.cyclic_order(1.0, 1.0 + 0e-9, 1.0)


def test_interval_contains_matches_cyclic_order():
    assert classical.interval_contains(0.0, 5.0, 1.0)
    assert not classical.interval_contains(0.0, 5.0, 7.0)
    assert classical.interval_contains(5.0, 0.0, 7.0)  # wraps through INF


@given(finite, finite, finite, finite)
@settings(max_examples=300, deadline=None)
def test_separation_iff_negative_cr(a, b, c, d):
    vals = (a, b, c, d)
    if any(abs(x - y) < 1e-3 for i, x in enumerate(vals)
           for y in vals[i + 1:]):
        return
    from apline.crossratio import classical_cr
    cr = classical_cr(a, b, c, d)
    assert (float(cr) < 0.0) == classical.separates(c, d, a, b)


def test_real_like_detects_generalized_circles():
    assert classical.real_like(0.0, 1.0, 2.0, 3.0)
    assert classical.real_like(0.0, 1.0, 2.0, INF)
    assert not classical.real_like(0.0, 1.0, 1j, INF)
    # the unit circle is a generalized circle
    assert classical.real_like(1.0, 1j, -1.0, -1j)


def test_pairing_is_the_weighted_sum():
    mu = classical.Measure([1.0, 1.0, 1.0])
    one = classical.constant_fn(1.0, 3)
    assert classical.pairing(mu, one, one) == pytest.approx(3.0)
    f = classical.ClassicalFn([1.0, 2.0, 3.0])
    g = classical.ClassicalFn([1.0, 0.5, 2.0])
    assert classical.pairing(mu, f, g) == pytest.approx(1.0 + 1.0 + 6.0)
    with pytest.raises(DimensionError):
        classical.pairing(mu, classical.constant_fn(1.0, 2), one)


def test_pairing_extended_arithmetic():
    mu = classical.Measure([1.0, 1.0])
    f = classical.ClassicalFn([INF, 1.0])
    g = classical.constant_fn(1.0, 2)
    assert is_inf(classical.pairing(mu, f, g))
    # a null site hides the infinity
    mu0 = classical.Measure([0.0, 1.0])
    assert classical.pairing(mu0, f, g) == pytest.approx(1.0)
    # 0 * inf on a charged site has no value
    with pytest.raises(IndeterminateError):
        classical.pairing(mu, f, classical.ClassicalFn([0.0, 1.0]))


def test_pairing_that_overflows_is_an_error_not_inf_or_nan():
    one = classical.Measure([1.0])
    big = classical.ClassicalFn([1e308])
    with pytest.raises(ValueOverflowError, match="overflows the float range"):
        classical.pairing(classical.Measure([1e308]), big, big)
    with pytest.raises(ValueOverflowError):
        classical.pairing(one, big, big)
    with pytest.raises(ValueOverflowError):  # inf - inf: nan
        classical.pairing(classical.Measure([1.0, 1.0]), classical.ClassicalFn([1e308, -1e308]),
                          classical.ClassicalFn([1e308, 1e308]))
    assert classical.pairing(one, big, classical.ClassicalFn([1.0])) == 1e308
    assert issubclass(ValueOverflowError, AplineError)


def test_pairing_middle_associativity():
    m = 5
    mu = classical.Measure(RNG.uniform(0.1, 2.0, m).tolist())
    f, g, h = (classical.ClassicalFn(RNG.standard_normal(m).tolist())
               for _ in range(3))
    fh = classical.ClassicalFn([a * b for a, b in zip(f.values, h.values)])
    hg = classical.ClassicalFn([a * b for a, b in zip(h.values, g.values)])
    assert classical.pairing(mu, fh, g) == pytest.approx(
        classical.pairing(mu, f, hg))


def test_density_pushforward_worked_example():
    # m = 2, mu = (1, 2), swap: phi' = (2, 1/2)
    mu = classical.Measure([1.0, 2.0])
    swap = classical.Bijection([1, 0])
    d = classical.density_pushforward(swap, mu)
    assert d[0] == pytest.approx(2.0)
    assert d[1] == pytest.approx(0.5)
    ident = classical.Bijection([0, 1])
    d_id = classical.density_pushforward(ident, mu)
    assert d_id[0] == d_id[1] == pytest.approx(1.0)


def test_density_pushforward_needs_positive_measure():
    mu = classical.Measure([1.0, 0.0])
    with pytest.raises(ZeroWeightError):
        classical.density_pushforward(classical.Bijection([1, 0]), mu)


def test_density_chain_rule():
    m = 6
    mu = classical.Measure(RNG.uniform(0.2, 2.0, m).tolist())
    phi = classical.random_bijection(m, RNG)
    psi = classical.random_bijection(m, RNG)
    comp = phi.compose(psi)
    d_comp = classical.density_pushforward(comp, mu)
    d_phi = classical.density_pushforward(phi, mu)
    d_psi = classical.density_pushforward(psi, mu)
    phi_inv = phi.inverse()
    for q in range(m):
        assert d_comp[q] == pytest.approx(d_phi[q] * d_psi[phi_inv(q)])


def test_pairing_invariance_proposition():
    m = 8
    mu = classical.Measure(RNG.uniform(0.1, 2.0, m).tolist())
    phi = classical.random_bijection(m, RNG)
    f = classical.ClassicalFn(RNG.standard_normal(m).tolist())
    h = classical.ClassicalFn(RNG.standard_normal(m).tolist())
    lhs, rhs = classical.pairing_invariance_check(phi, mu, f, h)
    assert lhs == pytest.approx(rhs)


def test_fn_expectation_composes_coordinates_and_pairing():
    m = 3
    mu = classical.Measure([0.2, 0.3, 0.5])
    f = classical.ClassicalFn([2.0, 3.0, 4.0])
    h = classical.constant_fn(1.0, m)
    ev = classical.fn_expectation(mu, f, h, classical.constant_fn(1.0, m),
                                  classical.constant_fn(0.0, m),
                                  classical.constant_fn(INF, m))
    assert ev == pytest.approx(0.2 * 2.0 + 0.3 * 3.0 + 0.5 * 4.0)


def test_fn_obstate_rejects_ragged_site_sets():
    f = classical.ClassicalFn([1.0, 2.0])
    short = classical.ClassicalFn([5.0])
    with pytest.raises(DimensionError, match="different site sets"):
        classical.fn_obstate(f, short, classical.constant_fn(0.0, 2),
                             classical.constant_fn(INF, 2))
