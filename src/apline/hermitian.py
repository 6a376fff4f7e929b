"""The Hermitian projective line and the real unitary universe.

Carries the three involutions (tau: omega-orthocomplement, alpha:
standard orthocomplement, beta = [J]), the poles N = [(i, 1)] and
S = [(-i, 1)], the circle action fixing them, the Cayley bijection
between the real unitary universe R_{N,S} and the unitary group, the
torsor law on R_{N,S}, tangent algebras, arithmetic distance, intrinsic
lines, and the cyclic-order predicate on R.

Arithmetic distance is counted from principal angles, with no chart,
so no unitary change of frame moves it; distance 1 is the one rank-one
decision, shared by line_family, is_rank_one_pair and obstate.is_pure.

Convention notes (all verified by the calibration tests):

* omega(u, v) = u1* v2 - u2* v1, with form matrix Omega = [[0, I], [-I, 0]];
  J = [[0, -I], [I, 0]] (so J^2 = -1 and beta = [J] fixes exactly N and S).
  Omega, J and C act as block swaps, never as 2n x 2n matrices:
  J X = -Omega X = [-X2; X1] (see _j_basis) and 2 C^{-1} X = [X2 - i X1; X2 + i X1].
* The circle action places the phase on the N-component:
  rep(theta) = e^{i theta} P(image N, kernel S) + P(image S, kernel N).
  This is the orientation for which the square of the quarter turn is
  beta and the quarter turn at 0 is the base point [(1, 1)].
* The Cayley frame is read in closed form from the exact pole columns
  N0 = [iI; I] and S0 = [-iI; I], as C^{-1} = C*/2 (see _pole_blocks).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import algebra, grassmann
from .errors import (
    DimensionError,
    NoCommonChartError,
    NonFiniteError,
    NotHermitianError,
    NotInChartError,
    NotInUniverseError,
    NotRankOneError,
    NotTransversalError,
    NotUnitaryError,
    UnknownSpaceError,
)
from .crossratio import is_inf
from .grassmann import (
    ProjectiveMap,
    SubspacePoint,
    apply_map,
    infinity_point,
    point_eq,
    point_from_chart,
    zero_point,
)

# Singular values of a chart difference below RANK_RTOL * sigma_max count
# as zero; only chart_difference_rank uses it (arithmetic_distance counts
# principal angles against grassmann.TRANSVERSALITY_RTOL).
RANK_RTOL = 1e-7


def _same_n(*points: SubspacePoint) -> None:
    """DimensionError unless every point has the same n."""
    sizes = [p.n for p in points]
    if len(set(sizes)) > 1:
        raise DimensionError(f"points of mixed dimensions: n = {sizes}")


def _j_basis(x: SubspacePoint) -> np.ndarray:
    """J X = [-X2; X1] for the basis X = [X1; X2] of x, a new array; X* Omega = (J X)*."""
    n = x.n
    return np.concatenate((-x.basis[n:], x.basis[:n]))


def _orthocomplement(cols: np.ndarray) -> SubspacePoint:
    """The orthocomplement of the span of 2n x n full-rank columns: the null space of cols*."""
    _, _, vh = algebra.svd(cols.conj().T)
    n = cols.shape[1]
    # the rows of vh are orthonormal, so these columns are too
    return SubspacePoint._full_rank(vh[n:, :].conj().T)


@grassmann._memoized
def tau(x: SubspacePoint) -> SubspacePoint:
    """The omega-orthocomplement; on the chart, tau(a) = a*.  Cached on x and shared.

    The null space of X* Omega = (J X)*, the orthocomplement of J X.
    """
    return _orthocomplement(_j_basis(x))


@grassmann._memoized
def alpha(x: SubspacePoint) -> SubspacePoint:
    """The standard orthocomplement (antipode); on the chart at n = 1: z -> -1/conj(z).

    Cached on x and shared, like tau and beta.
    """
    return _orthocomplement(x.basis)


@grassmann._memoized
def beta(x: SubspacePoint) -> SubspacePoint:
    """The point map [J]; equals alpha o tau = tau o alpha.  Cached on x and shared."""
    # J is unitary, so J X is orthonormal
    return SubspacePoint._full_rank(_j_basis(x))


# no library code reads this table: benchmarks/tests checks that the tracer restores it
_INVOLUTIONS = {"tau": tau, "alpha": alpha, "beta": beta}


@algebra.sized_cache
def poles(n: int) -> tuple[SubspacePoint, SubspacePoint]:
    """North and south pole N = span[iI; I], S = span[-iI; I]; one cached pair per n, read-only."""
    eye = algebra._eye(n)
    north = SubspacePoint(np.concatenate((1j * eye, eye)))
    south = SubspacePoint(np.concatenate((-1j * eye, eye)))
    return north, south


def membership(x: SubspacePoint, space: str) -> bool:
    """Membership in R (tau-fixed), R' (x (+) Jx = A^2) or R_{N,S}.

    For A = M(n, C) the three spaces coincide, so all three names run
    one test: the Lagrangian condition X* Omega X = 0 on the orthonormal
    basis X of x.

    * R: tau(x) is the orthocomplement of Omega X, so tau(x) == x means
      x-perp = span(Omega X), and grassmann.is_orthocomplement decides
      exactly that at the tolerance of point equality.
    * R': for x in R, J X = -Omega X is an orthonormal basis of x-perp,
      so [X | JX] is unitary: its singular value ratio is 1.
    * R_{N,S}: a point of R meets N and S at 45 degrees, so its
      transversality margin to either pole is sqrt(2) - 1, far above
      grassmann.TRANSVERSALITY_RTOL.

    Ambient Grassmannian universes collapse as well: every stored point
    already has a rank-n complement.
    """
    if space not in ("R", "Rprime", "RNS"):
        raise UnknownSpaceError(f"unknown space {space!r}; pick R, Rprime or RNS")
    return _is_lagrangian(x)


@grassmann._memoized
def _is_lagrangian(x: SubspacePoint) -> bool:
    """The test of membership, whichever space it names; cached on x.

    J X = -Omega X, so the Gram X* (J X) is -X* Omega X, of the same norm.
    """
    return grassmann.is_orthocomplement(x.basis, _j_basis(x))


# --- circle action -------------------------------------------------------------

def s1_action_map(theta: float, n: int) -> ProjectiveMap:
    """The unitary map e^{i theta} P(im N, ker S) + P(im S, ker N) of a real angle theta."""
    theta = algebra._as_real(theta, "angles")
    if not math.isfinite(theta):
        raise NonFiniteError("the circle action needs a finite angle")
    north, south = poles(n)
    # N is orthogonal to S, so their margin is 1 and e^{i theta} P_N + P_S is unitary; the
    # shared poles keep both projectors
    p_north, p_south = grassmann._projector(north, south), grassmann._projector(south, north)
    return ProjectiveMap._invertible(np.exp(1j * theta) * p_north + p_south,
                                     grassmann._UNITARY_COND)


def s1_action(theta: float, x: SubspacePoint) -> SubspacePoint:
    """The circle action lambda_{N,S} with lambda = e^{i theta}.

    This is the scalar action of e^{i theta} in the frame (N, S),
    extended to every point (the operator is invertible); it preserves
    R, and the quarter turn squares to beta.
    """
    return apply_map(s1_action_map(theta, x.n), x)


# --- Cayley transform and the unitary universe ---------------------------------

def _pole_blocks(x: SubspacePoint) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) = (N0* X, S0* X) = (X2 - i X1, X2 + i X1) for the basis X = [X1; X2] of x.

    N0 = [iI; I] and S0 = [-iI; I] are the exact pole columns and C^{-1} = C*/2,
    so 2 C^{-1} X = [A; B].  N0* S0 = 0, N0 N0* + S0 S0* = 2I and S0 S0* - N0 N0* =
    -2i Omega, so A* A = I - E and B* B = I + E for E = -i X* Omega X, and for x in
    R_{N,S} membership bounds ||E||_F by eps = TOL_EQ (1 + sqrt n) / sqrt 2: A and B
    have condition number at most sqrt((1 + eps) / (1 - eps)), and u = B A^-1 has
    u* u - I = A^-* (2E) A^-1, so ||u* u - I||_F = ||u u* - I||_F <= 2 eps / (1 - eps)
    and cond(u) < 1 + 3 eps, up to a few n eps_machine.  So the torsor's product p =
    u_x u_y* u_z has p* p = I + F with ||F||_F <~ 3 delta for delta = 2 eps / (1 - eps),
    one polar step q = p (3I - p* p) / 2 has q* q - I = -3/4 F^2 + 1/4 F^3 = O(delta^2),
    and the columns X = C [I; q] have X* Omega X = 2i (q* q - I): a member.
    """
    n = x.n
    top, bottom = x.basis[:n], x.basis[n:]
    return bottom - 1j * top, bottom + 1j * top


def cayley_to_unitary(x: SubspacePoint) -> np.ndarray:
    """The unitary matrix of a point of R_{N,S}: chart value of C^{-1} x, a new writable array.

    On chart points this is the classical Cayley transform h -> (h + i)(h - i)^{-1};
    it maps 0 to -1 and infinity to 1.
    """
    return _cayley_unitary(x).copy()


@grassmann._memoized
def _cayley_unitary(x: SubspacePoint) -> np.ndarray:
    """cayley_to_unitary(x), read-only and cached on x."""
    if not _is_lagrangian(x):
        raise NotInUniverseError("cayley_to_unitary needs a point of R_{N,S}")
    a, b = _pole_blocks(x)
    # the chart value of C^{-1} x, unitary by proof (see _pole_blocks), not by test
    u = b @ algebra.proven_inverse(a)
    u.setflags(write=False)
    return u


def _r_point(u: np.ndarray) -> SubspacePoint:
    """The R_{N,S} point C [I; u] = [i(I - u); I + u] of a unitary u (up to rounding)."""
    eye = algebra._eye(u.shape[0])
    # the columns' Gram matrix is 4I + 2(u* u - I), so they have full rank
    return SubspacePoint._full_rank(np.concatenate((1j * (eye - u), eye + u)))


def unitary_to_point(u) -> SubspacePoint:
    """Inverse of cayley_to_unitary: the R_{N,S} point of a unitary matrix."""
    u = algebra.as_matrix(u)
    if not algebra.is_unitary(u):
        raise NotUnitaryError("unitary_to_point needs a unitary matrix")
    return _r_point(u)


def random_r_point(n: int, rng) -> SubspacePoint:
    """A random point of R: unitary_to_point of a Haar-ish random unitary, less its test.

    R has no canonical retraction from arbitrary points, so it is sampled through its
    unitary parametrization; random_unitary's Householder Q times unit phases is unitary
    to a few n eps (Higham, Accuracy and Stability, ch. 19).
    """
    return _r_point(algebra.random_unitary(n, rng))


def unitary_torsor(x: SubspacePoint, y: SubspacePoint,
                   z: SubspacePoint) -> SubspacePoint:
    """The torsor law x ._y z on R_{N,S}: the point of u_x u_y* u_z, the Cayley law in U(n).

    The product of the memoized Cayley unitaries takes one Newton-Schulz polar step
    u (3I - u* u) / 2 (Higham, Functions of Matrices, 2008, sec. 8.3), so the torsor of
    any three members is a member (bound: see _pole_blocks).
    """
    _same_n(x, y, z)
    if not all(membership(p, "RNS") for p in (x, y, z)):
        raise NotInUniverseError("unitary_torsor needs points of R_{N,S}")
    ux, uy, uz = (_cayley_unitary(p) for p in (x, y, z))
    u = ux @ (uy.conj().T @ uz)
    u = 1.5 * u - 0.5 * (u @ (u.conj().T @ u))
    return _r_point(u)


@grassmann._memoized
def transport_to_zero(a: SubspacePoint) -> ProjectiveMap:
    """A symmetry g of (R, tau, alpha) with g(a) = 0, for a in R_{N,S}.

    Built in the Cayley chart as left multiplication by d = -u_a*: the representing
    matrix C diag(I, d) C^{-1} = (1/2) [[I + d, i(I - d)], [-i(I - d), I + d]] is
    unitary (C/sqrt(2) is), hence commutes with alpha; it preserves the form omega
    exactly, hence commutes with tau.  At a = 0, u_a = -I and the rep is I exactly.
    The map is cached on a and shared, and so are its inverse (see ProjectiveMap.inverse)
    and, while a lives, each point's image under it (see apply_map).
    """
    d = -_cayley_unitary(a).conj().T
    eye = algebra._eye(a.n)
    plus, minus = eye + d, 1j * (eye - d)
    rep = np.concatenate((np.concatenate((plus, minus), axis=1),
                          np.concatenate((-minus, plus), axis=1)))
    # unitary up to u_a's proven bound (see _pole_blocks and grassmann._UNITARY_COND)
    return ProjectiveMap._invertible(0.5 * rep, grassmann._UNITARY_COND)


def tangent_unit(a: SubspacePoint) -> SubspacePoint:
    """The unit of the tangent algebra at a: the quarter turn i_{N,S}(a).

    At a = 0 this is the base point [(1, 1)], matching the algebra unit.
    """
    if not membership(a, "RNS"):
        raise NotInUniverseError("tangent_unit needs a point of R_{N,S}")
    return s1_action(np.pi / 2, a)


def tangent_product(base: SubspacePoint, x: SubspacePoint,
                    y: SubspacePoint) -> SubspacePoint:
    """The associative product of (T_base, zero = base, unit = i_{N,S}(base)).

    Transports through 0 by a symmetry g with g(base) = 0, multiplies
    chart representatives there, and transports back.  Any other choice
    of g differs by an algebra isomorphism fixing the pointed structure,
    so the (base, unit)-pointed algebra laws do not depend on it.
    """
    if not membership(base, "RNS"):
        raise NotInUniverseError("tangent_product needs base in R_{N,S}")
    ant = alpha(base)
    message = "tangent_product needs factors transversal to alpha(base)"
    grassmann._require_transversal(((x, ant, message), (y, ant, message)))
    g = transport_to_zero(base)
    gx = grassmann._chart_value(apply_map(g, x))
    gy = grassmann._chart_value(apply_map(g, y))
    return apply_map(g.inverse(), point_from_chart(gx @ gy))


# --- random symmetries ----------------------------------------------------------

def aut_omega_random(n: int, rng) -> ProjectiveMap:
    """exp of a random element [[a, b], [c, -a*]] (b, c Hermitian) of Der(omega).

    The exponential satisfies g* Omega g = Omega, hence acts on points
    preserving R.
    """
    # scipy is imported only here and in u_group_random, so every other
    # path starts without it; expm is looked up on scipy.linalg at each
    # call, so a wrapper patched onto it sees every call
    import scipy.linalg

    rng = algebra.rng_from(rng)
    a = 0.5 * algebra.random_matrix(n, rng)
    b = 0.5 * algebra.random_hermitian(n, rng)
    c = 0.5 * algebra.random_hermitian(n, rng)
    m = np.concatenate((np.concatenate((a, b), axis=1),
                        np.concatenate((c, -a.conj().T), axis=1)))
    return ProjectiveMap(scipy.linalg.expm(m))


def u_group_random(n: int, rng) -> ProjectiveMap:
    """A random element of U = Aut(S, tau, alpha): unitary and J-commuting.

    exp([[s, h], [-h, s]]) with s skew-Hermitian and h Hermitian is
    unitary, commutes with J, and preserves omega.
    """
    import scipy.linalg

    rng = algebra.rng_from(rng)
    h = 0.7 * algebra.random_hermitian(n, rng)
    a = algebra.random_matrix(n, rng)
    s = 0.7 * (a - a.conj().T) / 2
    m = np.concatenate((np.concatenate((s, h), axis=1), np.concatenate((-h, s), axis=1)))
    return ProjectiveMap(scipy.linalg.expm(m))


# --- arithmetic distance and intrinsic lines -------------------------------------

def _transversal_to(points, rng) -> SubspacePoint:
    """The first of infinity, 0 and 100 draws from rng that is transversal to every point.

    rng is a Generator or a seed; a seed makes its generator only when
    the search reaches the draws.  A candidate that is one of the points
    is skipped unchecked: [X | X] has rank n, so its margin is at rounding
    level and the check cannot pass.
    """
    n = points[0].n

    def draws():
        gen = algebra.rng_from(rng)
        for _ in range(100):
            yield grassmann.random_point(n, gen)

    for c in itertools.chain((infinity_point(n), zero_point(n)), draws()):
        if all(p is not c for p in points) and all(
                grassmann.is_transversal(p, c) for p in points):
            return c
    raise NoCommonChartError("no point transversal to the given ones found")


def common_chart_point(x: SubspacePoint, y: SubspacePoint) -> SubspacePoint:
    """A point transversal to both x and y (tries infinity, 0, then seeded random draws)."""
    return _transversal_to((x, y), 0xA11E)


def chart_in_frame(z: SubspacePoint, origin: SubspacePoint,
                   c: SubspacePoint) -> np.ndarray:
    """The chart value of z in the frame (origin, c): m with z = [B_o | B_c][I; m].

    Requires z transversal to c, tested as grassmann._graph_value tests a
    chart block (NotTransversalError otherwise); the result is a new array.
    Differences of chart values transform by equivalences under any change
    of frame with the same horizon c, so their rank is a function of
    (z1, z2, c) alone.

    When (origin, c) are the base-point objects (infinity, 0) or (0, infinity),
    the value is -cochart(z) or -chart(z), read from z's memo, whose tag or
    sines can settle the guard (see grassmann._guard).  The frame is then a
    signed permutation, and the solve would give [p; q] = [-Z2; Z1] or
    [Z1; -Z2] for z's basis [Z1; Z2]; so, as for the kernel's two paths
    (proof in crossratio.kernel), both give each nonzero real and imaginary
    part bit for bit, and an exact zero may carry the other sign.
    """
    _same_n(z, origin, c)
    try:
        if grassmann._is_zero_point(c) and grassmann._is_infinity_point(origin):
            return -grassmann._cochart_value(z)
        if grassmann._is_infinity_point(c) and grassmann._is_zero_point(origin):
            return -grassmann._chart_value(z)
        pq = algebra.solve(np.concatenate((origin.basis, c.basis), axis=1), z.basis)
        n = z.n
        return grassmann._graph_value(pq[n:, :], pq[:n, :], None, "the chart horizon")
    except NotInChartError:
        raise NotTransversalError("point is not transversal to the chart horizon") from None


def _chart_values(x: SubspacePoint, y: SubspacePoint, c: SubspacePoint):
    """The frame [B_o | B_c] of horizon c and its default origin o, chart_c(y) and
    chart_c(x) - chart_c(y): the arguments of LineFamily."""
    o = _transversal_to((c,), 0x0A11)
    my = chart_in_frame(y, o, c)
    return np.concatenate((o.basis, c.basis), axis=1), my, chart_in_frame(x, o, c) - my


def chart_difference_rank(x: SubspacePoint, y: SubspacePoint, c: SubspacePoint) -> int:
    """Rank of chart_c(x) - chart_c(y) at the RANK_RTOL relative sv threshold (0 if zero).

    The explicit-chart reference for arithmetic_distance.
    """
    _, _, difference = _chart_values(x, y, c)
    s = algebra.singular_values(difference)
    return 0 if s[0] == 0.0 else int(np.count_nonzero(s > RANK_RTOL * s[0]))


def arithmetic_distance(x: SubspacePoint, y: SubspacePoint) -> int:
    """n - dim(x meet y): the number of principal angles between x and y that are not zero.

    An angle theta counts when tan(theta / 2) exceeds
    grassmann.TRANSVERSALITY_RTOL, the test transversality_margin applies
    to the smallest angle, so the distance is n exactly when
    is_transversal(x, y).  One 2n x n SVD gives the sines, and no chart is
    needed; principal angles, and so the count, are unitary invariants.
    """
    return sum(grassmann._half_angle_tangent(s) > grassmann.TRANSVERSALITY_RTOL
               for s in grassmann._sines(x, y))


def is_rank_one_pair(x: SubspacePoint, y: SubspacePoint) -> bool:
    """Whether (x, y) is a rank-one pair: arithmetic_distance(x, y) == 1."""
    return arithmetic_distance(x, y) == 1


class LineFamily:
    """The intrinsic line through a rank-one pair, parametrized in one frame.

    point(1) is the first pair member, point(0) the second, point(INF)
    the completing point on the chart horizon.  The direction's SVD
    d = s u v^* is kept (u, s, vh).  line_family builds a family only
    for a pair at arithmetic distance 1, whose direction has rank one.
    """

    __slots__ = ("frame", "base", "direction", "n", "u", "s", "vh")

    def __init__(self, frame: np.ndarray, base: np.ndarray, direction: np.ndarray):
        u, s, vh = algebra._numpy_svd(direction)
        self.frame = frame
        self.base = base
        self.direction = direction
        self.n = base.shape[0]
        self.u = u[:, 0]
        self.s = float(s[0])
        self.vh = vh

    def raw_basis(self, t) -> np.ndarray:
        """Basis columns of point(t) without the orthonormalization pass.

        For finite t these are frame [I; base + t s u v^*]: a rank-one
        update of point(0)'s columns, so by the matrix determinant lemma
        their determinant against any fixed complement is affine in t.
        INF reuses the stored factors and runs no SVD.
        """
        n = self.n
        if is_inf(t):
            # as t grows the graph tilts into the horizon along u while
            # staying put on v-perp
            v_perp = self.vh[1:, :].conj().T
            cols = np.zeros((2 * n, n), dtype=complex)
            cols[:n, : n - 1] = v_perp
            cols[n:, : n - 1] = self.base @ v_perp
            cols[n:, n - 1] = self.u
            return self.frame @ cols
        m = self.base + float(t) * self.direction
        return self.frame @ np.concatenate((algebra._eye(n), m))

    def point(self, t) -> SubspacePoint:
        return SubspacePoint(self.raw_basis(t))


def line_family(x: SubspacePoint, y: SubspacePoint,
                chart_point: SubspacePoint | None = None) -> LineFamily:
    """Parametrize the intrinsic line through the rank-one pair (x, y).

    Raises NotRankOneError unless arithmetic_distance(x, y) == 1, the one
    rank-one decision (is_rank_one_pair, obstate.is_pure and the report's
    "pure" ask it too).  The family is built in the chart with horizon
    chart_point, by default common_chart_point(x, y).  The completed line
    is chart-independent as a set, but the parameter t of point(t) is
    not: pass chart_point to compare them.
    """
    if arithmetic_distance(x, y) != 1:
        raise NotRankOneError("intrinsic lines need a pair at arithmetic distance 1")
    c = common_chart_point(x, y) if chart_point is None else chart_point
    return LineFamily(*_chart_values(x, y, c))


# --- cyclic order -----------------------------------------------------------------

def _hermitian_chart(z: SubspacePoint) -> np.ndarray:
    """The Hermitian part of z's chart value, read-only and cached on z (see _hermitian_parts)."""
    gap, size, h = grassmann._hermitian_parts(z)
    if not algebra._hermitian_within(gap, size, 1e-8):
        raise NotHermitianError("cyclic order needs points of R (Hermitian charts)")
    return h


def cyclic_triple(a: SubspacePoint, b: SubspacePoint, c: SubspacePoint) -> bool:
    """True iff a <= b in the ordered affine part U_c of R.

    For c = infinity this is the psd order of Hermitian chart values;
    for finite c the chart map z -> (c - z)^{-1} (the matrix form of
    x -> -1/(x - c)) transports the order.  The orientation is the one
    agreeing with the classical cyclic order at n = 1; correctness is
    asserted by the invariance tests, not by the formula.
    """
    _same_n(a, b, c)
    return _ordered(a, b, c)


def _ordered(a: SubspacePoint, b: SubspacePoint, c: SubspacePoint) -> bool:
    """cyclic_triple(a, b, c) for points of one n: a's order value, then b's, cut at c.

    Cut at infinity the order values are Hermitian charts (m + m*)/2, whose
    entry (j, i) is the conjugate of entry (i, j) in value, and so is a
    difference of two of them: the psd test skips is_psd's Hermitian test.
    """
    va = _order_value(a, c)
    psd = algebra._is_psd if _cut_at_infinity(c) else algebra.is_psd
    return psd(_order_value(b, c) - va)


@grassmann._memoized
def _cut_at_infinity(c: SubspacePoint) -> bool:
    return point_eq(c, infinity_point(c.n))


def _order_value(z: SubspacePoint, c: SubspacePoint) -> np.ndarray:
    """The Hermitian matrix of z whose psd order is the order of U_c.

    Cut at infinity it is z's memoized Hermitian chart.  At a finite cut it
    is (c - z)^{-1} of the Hermitian charts, c's computed first, or 0 for
    z = infinity: a value of the pair (z, c), cached on z while c lives.
    """
    if _cut_at_infinity(c):
        return _hermitian_chart(z)
    return grassmann._pair_value(_finite_order_value, z, c)


def _finite_order_value(z: SubspacePoint, c: SubspacePoint) -> np.ndarray:
    mc = _hermitian_chart(c)
    if _cut_at_infinity(z):
        value = np.zeros((z.n, z.n), dtype=complex)
    else:
        gap = mc - _hermitian_chart(z)
        if not algebra.is_invertible(gap, tol=grassmann.TRANSVERSALITY_RTOL):
            raise NotTransversalError("cyclic order needs both points transversal to c")
        value = algebra.proven_inverse(gap)
    value.setflags(write=False)
    return value
