import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apline import classical
from apline.crossratio import INF, Infinity, is_inf
from apline.errors import (
    AplineError,
    DegenerateReferenceError,
    DimensionError,
    IndeterminateError,
    NegativeWeightError,
    NonFiniteError,
    NotAPermutationError,
    NotARealError,
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
    # b lies in the interval ]a, c[ iff (a, b, c) is cyclically ordered
    assert classical.cyclic_order(0.0, 1.0, 5.0)
    assert not classical.cyclic_order(0.0, 7.0, 5.0)
    assert classical.cyclic_order(5.0, 7.0, 0.0)  # ]5, 0[ wraps through INF
    assert classical.cyclic_order(5.0, INF, 0.0)


@given(finite, finite, finite, finite)
@settings(max_examples=300, deadline=None, derandomize=True)
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
    lhs = classical.pairing(mu, classical.fn_pullback(f, phi),
                            classical.density_action(phi, mu, h))
    assert lhs == pytest.approx(classical.pairing(mu, f, h))


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


def test_four_values_with_an_infinite_cross_ratio_are_real_like():
    assert is_inf(classical.classical_cr(0.0, 1.0, 2.0, 0.0))
    assert classical.real_like(0.0, 1.0, 2.0, 0.0)
    assert classical.real_like(0.0, 1j, 2.0, 0.0)  # an infinite value counts as real


def test_bijections_on_different_site_sets_do_not_compose():
    with pytest.raises(DimensionError, match="different site sets"):
        classical.Bijection([1, 0]).compose(classical.Bijection([0, 1, 2]))


def test_an_infinite_endpoint_at_the_cut_infinity_is_indeterminate():
    for a, b in ((INF, 1.0), (1.0, INF)):
        with pytest.raises(IndeterminateError, match="avoid the cut point"):
            classical.cyclic_order(a, b, INF)


def test_a_pushforward_on_another_site_set_is_a_dimension_error():
    with pytest.raises(DimensionError, match="measure and bijection"):
        classical.density_pushforward(classical.Bijection([1, 0]), classical.Measure([1.0] * 3))


def test_the_density_action_keeps_an_infinite_density_value_infinite():
    phi = classical.Bijection([1, 0])
    h = classical.density_action(phi, classical.Measure([1.0, 2.0]),
                                 classical.ClassicalFn([INF, 3.0]))
    # phi' = (2, 1/2), and h o phi^-1 = (3, INF)
    assert h.values == (6.0, INF)


def test_a_pushforward_density_that_underflows_is_an_overflow_error():
    mu = classical.Measure([1e-200, 1.0, 1e200])
    phi = classical.Bijection([2, 0, 1])  # the ratio at site 2 is 1e-200 / 1e200
    with pytest.raises(ValueOverflowError, match="site 2: .* outside the float range"):
        classical.density_pushforward(phi, mu)
    # the density action no longer maps an infinite value to 0 there
    with pytest.raises(ValueOverflowError, match="outside the float range"):
        classical.density_action(phi, mu, classical.ClassicalFn([1.0, 1.0, INF]))


def test_a_density_action_product_that_overflows_is_an_overflow_error():
    phi = classical.Bijection([1, 0])
    mu = classical.Measure([1e-100, 1.0])
    # phi' = (1e100, 1e-100) and h o phi^-1 = (1e300, 1.0): the product at site 0 is 1e400
    with pytest.raises(ValueOverflowError,
                       match=r"site 0: the product 1e\+100 \* 1e\+300 .* outside the float range"):
        classical.density_action(phi, mu, classical.ClassicalFn([1.0, 1e300]))
    h = classical.density_action(phi, mu, classical.ClassicalFn([1.0, 1e200]))
    assert h.values == (1e100 * 1e200, 1e-100)


def test_a_pushforward_density_that_overflows_is_an_overflow_error():
    mu = classical.Measure([5e-324, 1e308])
    with pytest.raises(ValueOverflowError, match="site 0: .* outside the float range"):
        classical.density_pushforward(classical.Bijection([1, 0]), mu)


# --- typed errors of the public constructors -------------------------------------------

@pytest.mark.parametrize("images", [
    pytest.param([0.5, 1.7], id="floats-are-not-truncated"),
    pytest.param(["1", "0"], id="strings-are-not-parsed"),
    pytest.param([True, False], id="booleans"),
    pytest.param([np.True_, np.False_], id="numpy-booleans"),
    pytest.param([1.0, 0.0], id="integral-floats"),
])
def test_a_bijection_takes_integer_images_only(images):
    with pytest.raises(NotAPermutationError, match="images must be integers"):
        classical.Bijection(images)


def test_a_bijection_reads_numpy_integers_exactly():
    assert classical.Bijection(np.array([2, 0, 1])).images == (2, 0, 1)
    assert all(type(i) is int for i in classical.Bijection(np.array([1, 0])).images)


@pytest.mark.parametrize("images", [
    pytest.param([0, 0], id="repeated-image"),
    pytest.param([1, 2], id="image-off-the-sites"),
    pytest.param([-1, 0], id="negative-image"),
])
def test_a_bijection_that_is_not_a_permutation_is_a_typed_error(images):
    with pytest.raises(NotAPermutationError, match="not a permutation") as info:
        classical.Bijection(images)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("weights", [
    pytest.param([float("nan")], id="nan"),
    pytest.param([1.0, float("inf")], id="infinite"),
    pytest.param([INF], id="projective-infinity"),
    pytest.param([-float("inf")], id="negative-infinite"),
])
def test_a_non_finite_weight_is_a_non_finite_error(weights):
    with pytest.raises(NonFiniteError, match="weights must be finite and nonnegative: .*n"):
        classical.Measure(weights)


@pytest.mark.parametrize("weights", [
    pytest.param([-1.0], id="negative"),
    pytest.param([1.0, -5e-324], id="negative-subnormal"),
])
def test_a_negative_weight_is_a_typed_error(weights):
    with pytest.raises(NegativeWeightError, match=r"nonnegative: -.* at site \d") as info:
        classical.Measure(weights)
    assert isinstance(info.value, (AplineError, ValueError))


@pytest.mark.parametrize("value", [
    pytest.param("1", id="numeric-string-is-not-parsed"),
    pytest.param("x", id="string"),
    pytest.param(True, id="boolean"),
    pytest.param(np.True_, id="numpy-boolean"),
    pytest.param(None, id="none"),
    pytest.param(1j, id="complex"),
    pytest.param(np.complex128(1.0), id="numpy-complex-with-zero-imaginary-part"),
])
@pytest.mark.parametrize("make, rule", [
    pytest.param(classical.Measure, "weights must be real numbers", id="weight"),
    pytest.param(classical.ClassicalFn, "values must be real numbers", id="value"),
])
def test_a_classical_value_that_is_no_real_number_is_a_typed_error(make, rule, value):
    # one reader for weights and values: never float()'s parse, count or bare TypeError
    with pytest.raises(NotARealError, match=f"^{rule}, got ") as info:
        make([1.0, value])
    assert isinstance(info.value, AplineError) and isinstance(info.value, ValueError)


def test_classical_values_read_real_numbers_of_every_type():
    got = classical.ClassicalFn([1, np.int64(-2), np.float32(0.5), INF]).values
    assert got[:3] == (1.0, -2.0, 0.5) and all(type(v) is float for v in got[:3])
    assert is_inf(got[3])
    assert classical.Measure([2, np.float64(0.25)]).weights == (2.0, 0.25)


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["positive", "negative"])
@pytest.mark.parametrize("make, what", [
    pytest.param(classical.Measure, "weights", id="weight"),
    pytest.param(classical.ClassicalFn, "values", id="value"),
])
def test_an_integer_beyond_the_float_range_is_a_typed_overflow_error(make, what, value):
    # float(10 ** 400) raises a bare OverflowError; the reader names the range instead
    with pytest.raises(ValueOverflowError,
                       match=f"^{what} must be real numbers in the float range, got -?1000"):
        make([1.0, value])


def test_the_infinity_point_is_its_one_instance():
    # the hot paths test a value with "v is INF", which is is_inf(v) because every
    # construction of Infinity, a copy included, returns the one instance
    for v in (Infinity(), copy.copy(INF), copy.deepcopy(INF), pickle.loads(pickle.dumps(INF))):
        assert v is INF and is_inf(v)
    assert classical.ClassicalFn([Infinity()]).values[0] is INF
    with pytest.raises(NonFiniteError, match="weights must be finite and nonnegative: inf"):
        classical.Measure([Infinity()])
