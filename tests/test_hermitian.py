import warnings

import numpy as np
import pytest

from apline import algebra, grassmann, hermitian
from apline.crossratio import INF
from apline.errors import (
    AplineError,
    DimensionError,
    NoCommonChartError,
    NonFiniteError,
    NotARealError,
    NotHermitianError,
    NotInUniverseError,
    NotRankOneError,
    NotTransversalError,
    NotUnitaryError,
    UnknownSpaceError,
)

RNG = np.random.default_rng(3133)


# The structure maps as 2n x 2n matrices, for the oracles: the library applies them as
# block swaps (hermitian._j_basis, hermitian._pole_blocks) and builds none of them.
def _omega(n):
    """The form matrix Omega = [[0, I], [-I, 0]] of omega(u, v) = u1* v2 - u2* v1."""
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def _j(n):
    """The complex structure J = [[0, -I], [I, 0]] = -Omega."""
    return -_omega(n)


def _cayley(n):
    """The Cayley matrix C = [[iI, -iI], [I, I]]: C(0) = N and C(inf) = S."""
    eye = np.eye(n)
    return np.block([[1j * eye, -1j * eye], [eye, eye]])


def test_involutions_klein_four():
    x = grassmann.random_point(3, RNG)
    t, al, be = hermitian.tau, hermitian.alpha, hermitian.beta
    assert grassmann.point_eq(t(t(x)), x)
    assert grassmann.point_eq(al(al(x)), x)
    assert grassmann.point_eq(be(be(x)), x)
    assert grassmann.point_eq(al(t(x)), be(x))
    assert grassmann.point_eq(t(al(x)), be(x))


def test_tau_conjugates_charts():
    a = algebra.random_matrix(2, RNG)
    assert grassmann.point_eq(hermitian.tau(grassmann.point_from_chart(a)),
                              grassmann.point_from_chart(algebra.adjoint(a)))


def test_alpha_swaps_zero_and_infinity():
    assert grassmann.point_eq(hermitian.alpha(grassmann.zero_point(2)),
                              grassmann.infinity_point(2))
    assert grassmann.point_eq(hermitian.alpha(grassmann.infinity_point(2)),
                              grassmann.zero_point(2))


def test_membership_r_is_hermitian_graphs():
    h = algebra.random_hermitian(3, RNG)
    assert hermitian.membership(grassmann.point_from_chart(h), "R")
    assert hermitian.membership(grassmann.infinity_point(3), "R")
    a = h + 1j * np.eye(3)  # skew part pushes the graph off the real locus
    assert not hermitian.membership(grassmann.point_from_chart(a), "R")
    # a typed error that is still the ValueError it was, with its message
    with pytest.raises(UnknownSpaceError, match=r"^unknown space 'bogus'; pick R, Rprime or RNS$"):
        hermitian.membership(grassmann.zero_point(2), "bogus")
    assert issubclass(UnknownSpaceError, AplineError) and issubclass(UnknownSpaceError, ValueError)


def _eq_threshold(n):
    """Threshold of point_eq between two rank-n projectors, in Frobenius norm."""
    return algebra.TOL_EQ * (1.0 + np.sqrt(n))


def _unit(m):
    return m / np.linalg.norm(m)


def _r_points_near_threshold(n, count=5, rng=RNG, factors=(0.1, 0.9, 1.1, 10.0)):
    """R points pushed off R along a skew-Hermitian direction K.

    The Gram matrix of x + eps Omega X K is eps (K* - K) = -2 eps K to
    first order, so sqrt(2) ||X* Omega X|| lands at the requested
    multiple of the threshold.
    """
    for _ in range(count):
        x = hermitian.random_r_point(n, rng)
        k = algebra.random_matrix(n, rng)
        k = _unit(k - k.conj().T)
        omega_x = _omega(n) @ x.basis
        for factor in factors:
            eps = factor * _eq_threshold(n) / (2.0 * np.sqrt(2.0))
            yield factor, grassmann.SubspacePoint(x.basis + eps * omega_x @ k)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_membership_equals_tau_fixed_reference(n):
    points = [hermitian.random_r_point(n, RNG) for _ in range(10)]
    points += [grassmann.random_point(n, RNG) for _ in range(10)]
    near = list(_r_points_near_threshold(n))
    points += [x for _, x in near]
    for x in points:
        want = hermitian.tau(x) == x
        for space in ("R", "Rprime", "RNS"):
            assert hermitian.membership(x, space) == want
    # the perturbations really straddle the threshold
    assert [hermitian.membership(x, "R") for _, x in near] == [
        factor < 1.0 for factor, _ in near]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
def test_real_points_sit_far_from_the_rprime_and_pole_thresholds(n):
    north, south = hermitian.poles(n)
    points = [hermitian.random_r_point(n, RNG) for _ in range(10)]
    for _ in range(5):
        h = algebra.random_hermitian(n, RNG)
        points += [grassmann.point_from_chart(h), grassmann.point_from_cochart(h)]
    for x in points:
        assert hermitian.membership(x, "RNS")
        for pole in (north, south):
            assert grassmann.transversality_margin(x, pole) == pytest.approx(
                np.sqrt(2.0) - 1.0, abs=1e-9)
        s = np.linalg.svd(np.hstack([x.basis, _j(n) @ x.basis]),
                          compute_uv=False)
        assert s[-1] / s[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_is_orthocomplement_equals_alpha_reference(n):
    cases = []
    for _ in range(5):
        a = grassmann.random_point(n, RNG)
        w = hermitian.alpha(a)
        cases.append((a, w, True))
        cases.append((a, grassmann.random_point(n, RNG), False))
        # the Gram matrix of a against w + eps A K is eps K
        k = _unit(algebra.random_matrix(n, RNG))
        for factor in (0.1, 0.9, 1.1, 10.0):
            eps = factor * _eq_threshold(n) / np.sqrt(2.0)
            moved = grassmann.SubspacePoint(w.basis + eps * a.basis @ k)
            cases.append((a, moved, factor < 1.0))
    for a, w, expected in cases:
        got = grassmann.is_orthocomplement(a.basis, w.basis)
        assert got == (hermitian.alpha(a) == w) == expected


def test_poles_are_off_the_real_locus():
    north, south = hermitian.poles(2)
    assert not hermitian.membership(north, "R")
    assert not hermitian.membership(south, "R")
    assert grassmann.is_transversal(north, south)


def test_beta_fixes_exactly_the_poles():
    north, south = hermitian.poles(2)
    assert grassmann.point_eq(hermitian.beta(north), north)
    assert grassmann.point_eq(hermitian.beta(south), south)
    for _ in range(50):
        x = grassmann.random_point(2, RNG)
        if grassmann.point_eq(x, north) or grassmann.point_eq(x, south):
            continue
        assert not grassmann.point_eq(hermitian.beta(x), x)


def test_s1_action_is_a_circle_action():
    x = grassmann.random_point(2, RNG)
    th, ph = 0.7, 1.9
    s1 = hermitian.s1_action
    assert grassmann.point_eq(s1(th, s1(ph, x)), s1(th + ph, x))
    assert grassmann.point_eq(s1(0.0, x), x)
    assert grassmann.point_eq(s1(2.0 * np.pi, x), x)
    # the quarter turn squares to beta
    assert grassmann.point_eq(s1(np.pi / 2, s1(np.pi / 2, x)),
                              hermitian.beta(x))


def test_the_circle_action_reads_its_angle_as_a_real_number():
    # a complex angle would build a non-unitary map under the unitary bound
    for bad in (2j, True, "1"):
        with pytest.raises(NotARealError, match="^angles must be real numbers, got "):
            hermitian.s1_action_map(bad, 2)
        with pytest.raises(NotARealError):
            hermitian.s1_action(bad, grassmann.one_point(2))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteError, match="finite angle"):
            hermitian.s1_action_map(bad, 2)
    want = hermitian.s1_action_map(0.5, 2).rep.tobytes()
    assert hermitian.s1_action_map(np.float32(0.5), 2).rep.tobytes() == want


def test_s1_action_preserves_real_locus():
    r = hermitian.random_r_point(3, RNG)
    assert hermitian.membership(hermitian.s1_action(1.3, r), "R")


def test_cayley_bijection_roundtrip():
    u = algebra.random_unitary(3, RNG)
    x = hermitian.unitary_to_point(u)
    assert hermitian.membership(x, "RNS")
    assert np.allclose(hermitian.cayley_to_unitary(x), u, atol=1e-10)
    y = hermitian.random_r_point(3, RNG)
    assert grassmann.point_eq(
        hermitian.unitary_to_point(hermitian.cayley_to_unitary(y)), y)


def test_cayley_special_values():
    # zero -> -1, one -> i, infinity -> +1
    n = 2
    assert np.allclose(hermitian.cayley_to_unitary(grassmann.zero_point(n)),
                       -np.eye(n))
    assert np.allclose(hermitian.cayley_to_unitary(grassmann.one_point(n)),
                       1j * np.eye(n))
    assert np.allclose(hermitian.cayley_to_unitary(grassmann.infinity_point(n)),
                       np.eye(n))


def test_cayley_rejects_poles():
    north, _ = hermitian.poles(2)
    with pytest.raises(NotInUniverseError):
        hermitian.cayley_to_unitary(north)


def test_unitary_torsor_matches_cayley_homomorphism():
    x, y, z = (hermitian.random_r_point(2, RNG) for _ in range(3))
    w = hermitian.unitary_torsor(x, y, z)
    ux, uy, uz = (hermitian.cayley_to_unitary(p) for p in (x, y, z))
    assert np.allclose(hermitian.cayley_to_unitary(w), ux @ uy.conj().T @ uz,
                       atol=1e-9)
    assert grassmann.point_eq(hermitian.unitary_torsor(x, y, y), x)
    assert grassmann.point_eq(hermitian.unitary_torsor(y, y, z), z)


def test_transport_to_zero_moves_base_and_respects_structure():
    a = hermitian.random_r_point(3, RNG)
    g = hermitian.transport_to_zero(a)
    assert grassmann.point_eq(grassmann.apply_map(g, a), grassmann.zero_point(3))
    x = grassmann.random_point(3, RNG)
    assert grassmann.point_eq(hermitian.alpha(grassmann.apply_map(g, x)),
                              grassmann.apply_map(g, hermitian.alpha(x)))
    r = hermitian.random_r_point(3, RNG)
    assert hermitian.membership(grassmann.apply_map(g, r), "R")


def test_aut_omega_random_commutes_with_tau():
    g = hermitian.aut_omega_random(3, RNG)
    x = grassmann.random_point(3, RNG)
    assert grassmann.point_eq(hermitian.tau(grassmann.apply_map(g, x)),
                              grassmann.apply_map(g, hermitian.tau(x)))


def test_u_group_random_commutes_with_circle():
    f = hermitian.u_group_random(2, RNG)
    x = grassmann.random_point(2, RNG)
    assert grassmann.point_eq(
        grassmann.apply_map(f, hermitian.s1_action(0.9, x)),
        hermitian.s1_action(0.9, grassmann.apply_map(f, x)))


def test_arithmetic_distance_counts_rank():
    n = 4
    h = algebra.random_hermitian(n, RNG)
    x = grassmann.point_from_chart(h)
    assert hermitian.arithmetic_distance(x, x) == 0
    for k in (1, 2, 3):
        u = RNG.standard_normal((n, k)) + 1j * RNG.standard_normal((n, k))
        v = RNG.standard_normal((n, k)) + 1j * RNG.standard_normal((n, k))
        y = grassmann.point_from_chart(h + u @ v.conj().T)
        assert hermitian.arithmetic_distance(x, y) == k
    assert hermitian.is_rank_one_pair(
        x, grassmann.point_from_chart(h + np.outer([1, 0, 0, 0], [1, 0, 0, 0])))


# sin(theta) at tan(theta / 2) = TRANSVERSALITY_RTOL: the sine above which a
# principal angle counts toward the arithmetic distance
_SINE_THRESHOLD = 2 * grassmann.TRANSVERSALITY_RTOL / (1 + grassmann.TRANSVERSALITY_RTOL ** 2)


def _tilted(x, angles):
    """The point whose principal angles to x are the given ones: X cos + alpha(X) sin."""
    angles = np.asarray(angles, dtype=float)
    return grassmann.SubspacePoint(x.basis * np.cos(angles)
                                   + hermitian.alpha(x).basis * np.sin(angles))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_line_family_decides_rank_one_like_is_rank_one_pair(n):
    # on chart differences of rank 1..n, and on a second principal angle whose
    # sine is 0.5 and 2 times the sine threshold, is_rank_one_pair and
    # line_family give the distance's decision
    rng = np.random.default_rng(5000 + n)
    h = algebra.random_hermitian(n, rng)
    x = grassmann.point_from_chart(h)
    pairs = []
    for k in range(1, n + 1):
        u = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        pairs.append((grassmann.point_from_chart(h + u @ v.conj().T), k))
    if n > 1:
        for ratio, k in ((0.5, 1), (2.0, 2)):
            angles = np.zeros(n)
            angles[0], angles[1] = 0.7, np.arcsin(ratio * _SINE_THRESHOLD)
            pairs.append((_tilted(x, angles), k))
    for y, k in pairs:
        assert hermitian.arithmetic_distance(x, y) == k
        assert hermitian.is_rank_one_pair(x, y) == (k == 1)
        if k == 1:
            hermitian.line_family(x, y)
        else:
            with pytest.raises(NotRankOneError):
                hermitian.line_family(x, y)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_arithmetic_distance_does_not_change_under_a_unitary_change_of_frame(n):
    rng = np.random.default_rng(5100 + n)
    pairs = []
    for k in range(n + 1):
        x = grassmann.random_point(n, rng)
        angles = np.zeros(n)
        angles[:k] = rng.uniform(0.1, 1.5, k)
        pairs.append((x, _tilted(x, angles), k))
    # one angle a decade below or above the threshold, after n - 1 clear ones or
    # after one clear angle
    for clear in {n - 1, min(1, n - 1)}:
        for ratio, tilt in ((0.1, 0), (10.0, 1)):
            x = grassmann.random_point(n, rng)
            angles = np.zeros(n)
            angles[:clear] = 0.7
            angles[clear] = np.arcsin(ratio * _SINE_THRESHOLD)
            pairs.append((x, _tilted(x, angles), clear + tilt))
    for x, y, k in pairs:
        g = hermitian.u_group_random(n, rng)
        gx, gy = grassmann.apply_map(g, x), grassmann.apply_map(g, y)
        assert hermitian.arithmetic_distance(x, y) == k
        assert hermitian.arithmetic_distance(gx, gy) == k
        assert hermitian.is_rank_one_pair(x, y) == hermitian.is_rank_one_pair(gx, gy) == (k == 1)


def test_distance_n_is_exactly_transversality():
    # pairs that share k dimensions, tilted by 1e-10 to 1e-6: both sides of the threshold
    rng = np.random.default_rng(5200)
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", grassmann.TransversalityWarning)
        for i in range(2000):
            n = 1 + i % 4
            k = int(rng.integers(1, n + 1))
            x = grassmann.random_point(n, rng)
            other = rng.standard_normal((2 * n, n - k)) + 1j * rng.standard_normal((2 * n, n - k))
            tilt = 10.0 ** rng.uniform(-10, -6)
            push = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
            a = grassmann.SubspacePoint(np.hstack([x.basis[:, :k], other]) + tilt * push)
            full = hermitian.arithmetic_distance(x, a) == n
            assert full == grassmann.is_transversal(x, a), (i, tilt)
            seen.add(full)
    assert seen == {False, True}


def test_arithmetic_distance_of_mixed_dimensions_names_both():
    rng = np.random.default_rng(5300)
    x, y = grassmann.random_point(2, rng), grassmann.random_point(3, rng)
    for decide in (hermitian.arithmetic_distance, hermitian.is_rank_one_pair,
                   hermitian.line_family):
        with pytest.raises(DimensionError, match="2 vs 3"):
            decide(x, y)


def _degenerate_pairs():
    """Equal points, exactly shared subspaces and antipodes, at n = 1, 2, 3, 5."""
    for n in (1, 2, 3, 5):
        rng = np.random.default_rng(5400 + n)
        x = grassmann.random_point(n, rng)
        zero, infinity = grassmann.zero_point(n), grassmann.infinity_point(n)
        yield from ((x, x), (x, grassmann.SubspacePoint(x.basis)), (zero, zero),
                    (zero, infinity), (infinity, zero), (x, hermitian.alpha(x)),
                    (hermitian.alpha(x), x))
        for k in range(1, n):
            other = rng.standard_normal((2 * n, n - k)) + 1j * rng.standard_normal((2 * n, n - k))
            y = grassmann.SubspacePoint(np.hstack([x.basis[:, :k], other]))
            yield x, y
            shared = np.hstack([zero.basis[:, :k], infinity.basis[:, k:]])
            yield zero, grassmann.SubspacePoint(shared)


def test_degenerate_pairs_give_a_distance_or_an_apline_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x, y in _degenerate_pairs():
            d = hermitian.arithmetic_distance(x, y)
            assert type(d) is int and 0 <= d <= x.n
            assert hermitian.is_rank_one_pair(x, y) == (d == 1)
            try:
                fam = hermitian.line_family(x, y)
            except AplineError:
                assert d != 1
                continue
            assert d == 1
            for t in (0.0, 1.0, INF):
                assert np.isfinite(fam.raw_basis(t)).all()


def test_line_family_interpolates_its_pair():
    n = 2
    h = algebra.random_hermitian(n, RNG)
    u = RNG.standard_normal((n, 1)) + 1j * RNG.standard_normal((n, 1))
    y = grassmann.point_from_chart(h)
    x = grassmann.point_from_chart(h + u @ u.conj().T)
    fam = hermitian.line_family(x, y)
    assert grassmann.point_eq(fam.point(1.0), x)
    assert grassmann.point_eq(fam.point(0.0), y)
    horizon = fam.point(INF)
    assert not grassmann.is_transversal(horizon, grassmann.infinity_point(n))


def test_line_family_needs_rank_one():
    x = grassmann.point_from_chart(np.zeros((2, 2)))
    y = grassmann.point_from_chart(np.eye(2))
    with pytest.raises(NotRankOneError):
        hermitian.line_family(x, y)


def test_intrinsic_line_point_delegates():
    n = 2
    y = grassmann.point_from_chart(np.zeros((n, n)))
    x = grassmann.point_from_chart(np.diag([1.0, 0.0]))
    mid = hermitian.line_family(x, y).point(0.5)
    assert grassmann.point_eq(mid, grassmann.point_from_chart(np.diag([0.5, 0.0])))


def test_cyclic_triple_psd_ordering():
    n = 2
    a = grassmann.point_from_chart(np.zeros((n, n)))
    b = grassmann.point_from_chart(np.eye(n))
    inf = grassmann.infinity_point(n)
    assert hermitian.cyclic_triple(a, b, inf)
    assert not hermitian.cyclic_triple(b, a, inf)
    # rotation invariance of the cyclic relation
    assert hermitian.cyclic_triple(b, inf, a)
    assert hermitian.cyclic_triple(inf, a, b)


def test_cyclic_triple_needs_gap_invertibility():
    n = 2
    a = grassmann.point_from_chart(np.zeros((n, n)))
    b = grassmann.point_from_chart(np.eye(n))
    with pytest.raises(NotTransversalError):
        hermitian.cyclic_triple(a, b, b)


def test_cyclic_order_rejects_a_point_without_a_hermitian_chart():
    n = 2
    a = grassmann.point_from_chart(np.array([[0.0, 1.0], [0.0, 0.0]]))
    b = grassmann.point_from_chart(np.eye(n))
    with pytest.raises(NotHermitianError, match="Hermitian charts"):
        hermitian.cyclic_triple(a, b, grassmann.infinity_point(n))


def test_only_the_order_cut_at_infinity_skips_the_hermitian_test(monkeypatch):
    n = 2
    a = grassmann.point_from_chart(np.zeros((n, n)))
    b = grassmann.point_from_chart(np.eye(n))
    c = grassmann.point_from_chart(2.0 * np.eye(n))
    cuts = (grassmann.infinity_point(n), c)
    assert all(hermitian.cyclic_triple(a, b, cut) for cut in cuts)  # fills the memos
    tested = []
    is_hermitian = algebra.is_hermitian
    monkeypatch.setattr(algebra, "is_hermitian", lambda m, *args, **kwargs: (
        tested.append(m) or is_hermitian(m, *args, **kwargs)))
    # cut at infinity the order values are Hermitian charts, whose difference is
    # Hermitian by construction; cut at c they are inverses, and is_psd tests them
    for cut, tests in zip(cuts, (0, 1)):
        tested.clear()
        assert hermitian.cyclic_triple(a, b, cut)
        assert len(tested) == tests


def test_chart_in_frame_rejects_a_point_on_the_horizon_on_both_paths():
    n = 2
    on_infinity = grassmann.point_from_cochart(np.diag([1.0, 0.0]))
    zero, infinity = grassmann.zero_point(n), grassmann.infinity_point(n)
    for origin in (zero, grassmann.SubspacePoint(zero.basis)):
        with pytest.raises(NotTransversalError,
                           match="^point is not transversal to the chart horizon$"):
            hermitian.chart_in_frame(on_infinity, origin, infinity)
    with pytest.raises(NotTransversalError,
                       match="^point is not transversal to the chart horizon$"):
        hermitian.chart_in_frame(on_infinity, zero, grassmann.SubspacePoint(infinity.basis))


def test_tangent_product_at_zero_is_matrix_multiplication():
    n = 2
    zero = grassmann.zero_point(n)
    am = algebra.random_matrix(n, RNG)
    bm = algebra.random_matrix(n, RNG)
    got = hermitian.tangent_product(zero, grassmann.point_from_chart(am),
                                    grassmann.point_from_chart(bm))
    assert grassmann.point_eq(got, grassmann.point_from_chart(am @ bm))
    assert grassmann.point_eq(hermitian.tangent_unit(zero),
                              grassmann.one_point(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 16])
def test_unitary_torsor_agrees_with_the_checked_torsor_product(n):
    rng = np.random.default_rng(2718 + n)
    x, y, z = (hermitian.random_r_point(n, rng) for _ in range(3))
    north, south = hermitian.poles(n)
    got = hermitian.unitary_torsor(x, y, z)
    # the Cayley law against the checked (S, N) group law and its two 2n x 2n inverses
    want = grassmann.torsor_product(x, y, z, south, north)
    assert np.linalg.norm(got.projector - want.projector) <= 1e-13
    ux, uy, uz = (hermitian.cayley_to_unitary(p) for p in (x, y, z))
    expected = ux @ uy.conj().T @ uz
    assert (np.linalg.norm(hermitian.cayley_to_unitary(got) - expected)
            <= 1e-13 * (1 + np.linalg.norm(expected)))


def test_unitary_torsor_rejects_points_outside_the_universe():
    rng = np.random.default_rng(1414)
    x, y, z = (hermitian.random_r_point(2, rng) for _ in range(3))
    off = grassmann.random_point(2, rng)
    north, _ = hermitian.poles(2)
    for bad in (off, north):
        for args in ((bad, y, z), (x, bad, z), (x, y, bad)):
            with pytest.raises(NotInUniverseError):
                hermitian.unitary_torsor(*args)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_the_poles_are_shared_and_read_only(n):
    north, south = hermitian.poles(n)
    assert hermitian.poles(n)[0] is north and hermitian.poles(n)[1] is south
    assert not north.basis.flags.writeable and not south.basis.flags.writeable
    # C(0) = N and C(inf) = S, and J^2 = -1
    c = _cayley(n)
    assert north == grassmann.apply_map(grassmann.ProjectiveMap(c), grassmann.zero_point(n))
    assert south == grassmann.apply_map(grassmann.ProjectiveMap(c), grassmann.infinity_point(n))
    assert np.array_equal(_j(n) @ _j(n), -np.eye(2 * n))


def _structure_map_points(n):
    """Random, R, chart, diagonal-chart and base points of size n: the last two carry exact zeros."""
    rng = np.random.default_rng(n)
    points = [grassmann.random_point(n, rng) for _ in range(3)]
    points += [hermitian.random_r_point(n, rng) for _ in range(3)]
    points += [grassmann.point_from_chart(algebra.random_matrix(n, rng)),
               grassmann.point_from_cochart(algebra.random_hermitian(n, rng))]
    points += [grassmann.point_from_chart(np.diag(rng.standard_normal(n))) for _ in range(2)]
    return points + [grassmann.zero_point(n), grassmann.infinity_point(n),
                     grassmann.one_point(n), *hermitian.poles(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 16])
def test_tau_keeps_the_bits_of_the_null_space_of_x_star_omega(n):
    for x in _structure_map_points(n):
        _, _, vh = np.linalg.svd(x.basis.conj().T @ _omega(n))
        want = grassmann.SubspacePoint._full_rank(vh[n:, :].conj().T)
        assert hermitian.tau(x).basis.tobytes() == want.basis.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 16])
def test_beta_spans_j_x_and_the_lagrangian_test_decides_on_omega_x(n):
    near = _r_points_near_threshold(n, 2, np.random.default_rng(n))
    points = _structure_map_points(n) + [x for _, x in near]
    for x in points:
        assert hermitian.beta(x) == grassmann.SubspacePoint(_j(n) @ x.basis)
        want = grassmann.is_orthocomplement(x.basis, _omega(n) @ x.basis)
        assert hermitian._is_lagrangian(x) is want


def test_involutions_and_circle_action_keep_their_bits():
    rng = np.random.default_rng(1732)
    n = 3
    x = grassmann.random_point(n, rng)
    assert (hermitian.beta(x).basis.tobytes()
            == grassmann.SubspacePoint(np.vstack([-x.basis[n:], x.basis[:n]])).basis.tobytes())
    _, _, vh = np.linalg.svd(x.basis.conj().T)
    assert (hermitian.alpha(x).basis.tobytes()
            == grassmann.SubspacePoint(vh[n:, :].conj().T).basis.tobytes())
    g = hermitian.s1_action_map(0.9, n)
    north, south = hermitian.poles(n)
    rep = (np.exp(0.9j) * grassmann.projector(north, south)
           + grassmann.projector(south, north))
    assert g.rep.tobytes() == rep.tobytes()


# --- the pairs of the former four-margin rank certificate ---------------------------

def _certificate_pool():
    """(frame kind, x, y, distance) at n = 2, 3, 4, 8: states against infinity in the
    standard frame and moved by U, and pairs whose chart search reaches its draws.

    The distance of a state's pair is the rank of its density: n for a full-rank
    density, 2 while its second singular value is 1e-7 or more (a sine five times
    the threshold), else 1.
    """
    for n in (2, 3, 4, 8):
        rng = np.random.default_rng(7100 + n)
        infinity = grassmann.infinity_point(n)
        states = [(algebra.random_density(n, rng), n) for _ in range(6)]
        for ratio in (1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 0.0):
            u = algebra.random_unitary(n, rng)
            s = np.zeros(n)
            s[0], s[1] = 1.0, ratio
            states.append(((u * s) @ u.conj().T, 2 if ratio >= 1e-7 else 1))
        for w, k in states:
            x = grassmann.point_from_cochart((w + w.conj().T) / 2)
            yield "standard", x, infinity, k
            g = hermitian.u_group_random(n, rng)
            yield "transported", grassmann.apply_map(g, x), grassmann.apply_map(g, infinity), k
        for _ in range(3):
            # singular w and a: x is not transversal to infinity and y not to 0, so
            # neither base point charts both; generic, so x meets y only in 0
            psi, phi = (rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))
                        for _ in range(2))
            yield ("drawn", grassmann.point_from_cochart(psi @ psi.conj().T),
                   grassmann.point_from_chart(phi @ phi.conj().T), n)


def test_rank_certificate_fires_only_where_the_chart_values_are_not_rank_one():
    # the distance decides every pair, in both frames, and line_family follows it
    rejected = {"standard": 0, "transported": 0, "drawn": 0}
    for kind, x, y, k in _certificate_pool():
        if kind == "drawn":
            c = hermitian.common_chart_point(x, y)
            assert c is not grassmann.infinity_point(x.n) and c is not grassmann.zero_point(x.n)
        assert hermitian.arithmetic_distance(x, y) == k, (kind, x.n)
        if k == 1:
            hermitian.line_family(x, y)
        else:
            rejected[kind] += 1
            with pytest.raises(NotRankOneError):
                hermitian.line_family(x, y)
    assert min(rejected.values()) > 0, rejected


def test_rank_certificate_survives_a_margin_of_zero():
    # span[e1, e2] and span[e1, e4] share e1: [X | Y] has an exactly zero singular value
    x = grassmann.zero_point(2)
    y = grassmann.SubspacePoint(np.eye(4)[:, [0, 3]])
    assert grassmann.transversality_margin(x, y) == 0.0
    assert hermitian.arithmetic_distance(x, y) == 1
    fam = hermitian.line_family(x, y)
    assert grassmann.point_eq(fam.point(1.0), x)


def test_rank_certificate_is_not_run_at_n_1():
    # at n = 1 rank n is rank one: every distinct pair spans a line
    rng = np.random.default_rng(7101)
    for _ in range(20):
        x, y = grassmann.random_point(1, rng), grassmann.random_point(1, rng)
        assert hermitian.arithmetic_distance(x, y) == 1
        fam = hermitian.line_family(x, y)
        assert grassmann.point_eq(fam.point(0.0), y)


def test_unitary_to_point_rejects_a_matrix_that_is_not_unitary():
    with pytest.raises(NotUnitaryError, match="unitary_to_point needs a unitary matrix"):
        hermitian.unitary_to_point(2.0 * np.eye(2))


def test_tangent_unit_and_product_reject_a_base_outside_the_universe_on_every_call():
    rng = np.random.default_rng(61)
    base, x, y = (grassmann.random_point(3, rng) for _ in range(3))
    assert not hermitian.membership(base, "RNS")
    hermitian.alpha(base)  # cached on base: the membership check still runs first
    for _ in range(3):
        with pytest.raises(NotInUniverseError, match="tangent_unit needs"):
            hermitian.tangent_unit(base)
        with pytest.raises(NotInUniverseError, match="tangent_product needs"):
            hermitian.tangent_product(base, x, y)


def _mixed_n_calls():
    """(id, call) of the public functions of points given points of two sizes n = 2, 3."""
    x2, y2 = grassmann.point_from_chart(np.eye(2)), grassmann.point_from_chart(2 * np.eye(2))
    x3, y3 = grassmann.point_from_chart(np.eye(3)), grassmann.point_from_chart(2 * np.eye(3))
    zero2, infinity2 = grassmann.zero_point(2), grassmann.infinity_point(2)
    # a rank-one pair at n = 2
    r2, s2 = grassmann.point_from_chart(np.diag([1.0, 0.0])), grassmann.point_from_chart(
        np.zeros((2, 2)))
    u2, u3 = hermitian.unitary_to_point(np.eye(2)), hermitian.unitary_to_point(np.eye(3))
    return [
        ("chart-in-frame-infinity-zero", lambda: hermitian.chart_in_frame(x3, infinity2, zero2)),
        ("chart-in-frame-zero-infinity", lambda: hermitian.chart_in_frame(x3, zero2, infinity2)),
        ("chart-in-frame-other", lambda: hermitian.chart_in_frame(x3, grassmann.one_point(2),
                                                                  zero2)),
        ("cyclic-triple-cut-at-infinity", lambda: hermitian.cyclic_triple(x3, y3, infinity2)),
        ("cyclic-triple-finite-cut", lambda: hermitian.cyclic_triple(x3, y3, zero2)),
        ("cyclic-triple-mixed-a-b", lambda: hermitian.cyclic_triple(x2, y3, infinity2)),
        ("chart-difference-rank", lambda: hermitian.chart_difference_rank(x2, y2, x3)),
        ("line-family-chart-point", lambda: hermitian.line_family(r2, s2, chart_point=x3)),
        ("unitary-torsor", lambda: hermitian.unitary_torsor(u2, u3, u2)),
    ]


@pytest.mark.parametrize("case", range(len(_mixed_n_calls())),
                         ids=[name for name, _ in _mixed_n_calls()])
def test_points_of_mixed_sizes_are_a_dimension_error(case):
    # never a value, and never numpy's untyped ValueError
    _, call = _mixed_n_calls()[case]
    with pytest.raises(DimensionError, match="^points of mixed dimensions: n = "):
        call()


def test_sampled_and_cayley_points_keep_the_bits_of_their_checked_forms():
    n = 3
    x = hermitian.random_r_point(n, np.random.default_rng(29))
    want = hermitian.unitary_to_point(algebra.random_unitary(n, np.random.default_rng(29)))
    assert x.basis.tobytes() == want.basis.tobytes()
    # the pole-frame blocks against the chart of C^-1 x, moved by the checked map
    u = hermitian.cayley_to_unitary(x)
    moved = grassmann.chart_repr(grassmann.apply_map(grassmann.ProjectiveMap(_cayley(n)).inverse(), x))
    assert np.linalg.norm(u - moved) <= 1e-13 * (1.0 + np.linalg.norm(u))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 16])
def test_the_cayley_unitary_of_a_member_near_the_threshold_meets_its_proven_bound(n):
    # _cayley_unitary runs no unitarity test: for a member whose Gram norm
    # g = ||X* Omega X||_F passes the threshold, ||u* u - I||_F = ||u u* - I||_F <= 2g / (1 - g)
    near = [x for factor, x in _r_points_near_threshold(n) if factor == 0.9]
    assert len(near) == 5
    for x in near:
        assert hermitian.membership(x, "RNS")
        g = np.linalg.norm(x.basis.conj().T @ _omega(n) @ x.basis)
        u = hermitian.cayley_to_unitary(x)
        bound = 2.0 * g / (1.0 - g) + 1e-13 * n
        for gram in (u.conj().T @ u, u @ u.conj().T):
            assert np.linalg.norm(gram - np.eye(n)) <= bound


@pytest.mark.parametrize("factor", [0.9, 0.99])
@pytest.mark.parametrize("n", [1, 2, 4, 6, 16])
def test_the_torsor_of_members_near_the_edge_stays_in_the_universe(n, factor):
    # three members at 0.9 and 0.99 of membership's tolerance: the polar step removes the
    # sum of their Lagrangian residuals to O(delta^2) (see hermitian._pole_blocks)
    points = [p for _, p in _r_points_near_threshold(n, 3, np.random.default_rng(6),
                                                     factors=(factor,))]
    assert all(hermitian.membership(p, "RNS") for p in points)
    w = hermitian.unitary_torsor(*points)
    assert hermitian.membership(w, "RNS")
    ux, uy, uz = (hermitian.cayley_to_unitary(p) for p in points)
    want = ux @ uy.conj().T @ uz
    got = hermitian.cayley_to_unitary(w)
    assert np.linalg.norm(got - want) <= 1e-7 * (1.0 + np.linalg.norm(want))


def test_common_chart_point_gives_up_with_a_typed_error_after_its_draws(monkeypatch):
    tried = []
    monkeypatch.setattr(grassmann, "is_transversal", lambda p, c: tried.append(c) or False)
    x, y = (grassmann.random_point(2, RNG) for _ in range(2))
    with pytest.raises(NoCommonChartError, match="^no point transversal to the given ones found$"):
        hermitian.common_chart_point(x, y)
    # infinity, 0 and the 100 draws, each tried against x only
    assert len(tried) == 102
