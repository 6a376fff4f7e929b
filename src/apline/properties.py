"""Seeded property sweep over the whole library.

Every invariant the library promises is addressable here by a stable id
(``algebra.involution``, ``obstate.conservation``, ...).  Each property is
a single trial function ``trial(rng, n) -> residual``, declared by the
``_prop`` decorator on it; a residual at or below the property's
tolerance counts as a pass.  Boolean facts report 0.0 / 1.0 residuals.

Determinism: trial ``i`` of property ``pid`` under sweep seed ``s`` draws
from ``default_rng(sub_seed(s, pid, i))``, so reports are reproducible
bit-for-bit regardless of which subset of properties runs, and the JSON
report contains no timestamps or environment data.  The generators are
built one block of ``DEFAULT_TRIALS`` trials at a time, just before the
block runs, and the warning filter is set once per property; neither
changes a draw.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import DEFAULT_TRIALS, algebra, classical, crossratio, grassmann, hermitian, obstate
from .crossratio import INF, classical_cr, is_inf
from .errors import DimensionError, IndeterminateError, NonFiniteError, ResamplingExhausted

DEFAULT_N_LIST = (1, 2, 3, 4, 6)


# --- registry -----------------------------------------------------------------------

@dataclass(frozen=True)
class PropertySpec:
    pid: str
    summary: str
    tolerance: float
    trial: Callable[[np.random.Generator, int], float]
    dims: Optional[tuple] = None  # restrict to these n when set


# every property, in the order the trials below are defined
_SPEC_LIST: list[PropertySpec] = []


def _prop(pid: str, summary: str, tolerance: float, dims: Optional[tuple] = None):
    """Register the decorated trial as the property pid in _SPEC_LIST."""
    def register(trial):
        _SPEC_LIST.append(PropertySpec(pid, summary, tolerance, trial, dims))
        return trial
    return register


# --- residual helpers ---------------------------------------------------------------

def _mres(a, b) -> float:
    """Relative Frobenius residual between two matrices (or scalars)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    sa = algebra._norm(a)
    sb = algebra._norm(b)
    return algebra._norm(a - b) / (1.0 + max(sa, sb))


def _sres(a, b) -> float:
    """Relative residual between two scalars."""
    a, b = complex(a), complex(b)
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def _pres(x: grassmann.SubspacePoint, y: grassmann.SubspacePoint) -> float:
    """Gap between two points of the same Grassmannian (projector distance)."""
    return algebra._norm(x.projector - y.projector) / (1.0 + math.sqrt(x.n))


def _bres(ok: bool) -> float:
    return 0.0 if ok else 1.0


# --- conditioned random draws -------------------------------------------------------

def _draw(draw: Callable, accept: Callable, tries: int, what: str, count: Optional[int] = None):
    """The first value of draw() that accept(value, taken) takes, within tries draws in all.

    With count, the first count such values as a list; taken holds the ones
    before.  ResamplingExhausted(what) when the draws run out: the one rejection site.
    """
    taken: list = []
    for _ in range(tries):
        value = draw()
        if accept(value, taken):
            taken.append(value)
            if len(taken) == (count or 1):
                return taken if count else value
    raise ResamplingExhausted(what)


def _transversal_pair(rng, n: int):
    return _draw(lambda: (grassmann.random_point(n, rng), grassmann.random_point(n, rng)),
                 lambda pair, _: grassmann.transversality_margin(*pair) > 1e-2, 200,
                 "no well-separated transversal pair found")


def _point_clear_of(rng, n: int, others) -> grassmann.SubspacePoint:
    return _draw(lambda: grassmann.random_point(n, rng),
                 lambda x, _: all(grassmann.transversality_margin(x, c) > 1e-2 for c in others),
                 300, "no point transversal to all the given ones")


def _conditioned_map(rng, n: int) -> grassmann.ProjectiveMap:
    # g._cond is s_max/s_min of the SVD ProjectiveMap(rep) ran: np.linalg.cond(g.rep)
    return _draw(lambda: grassmann.random_map(n, rng), lambda g, _: g._cond < 2e3,
                 60, "no projective map with condition number below 2e3")


def _kernel_quadruple(rng, n: int):
    """x, a, b, y with the transversality the kernel needs, margin-separated."""
    return _draw(lambda: tuple(grassmann.random_point(n, rng) for _ in range(4)),
                 lambda q, _: all(grassmann.transversality_margin(p, r) > 1e-2
                                  for p, r in ((q[0], q[1]), (q[2], q[0]), (q[3], q[1]))),
                 300, "no kernel-admissible quadruple found")


def _distinct_reals(rng, count: int, avoid: Sequence[float] = ()) -> list:
    """count values of 3 N(0, 1), more than 1e-2 apart and from avoid, within 2000 draws."""
    return _draw(lambda: float(rng.standard_normal() * 3.0),
                 lambda v, taken: all(abs(v - w) > 1e-2 for w in [*taken, *avoid]),
                 2000, "could not draw separated real values", count)


def _real_mobius(rng, points: Sequence[float]):
    """Images of points under a random real t -> (al t + be) / (ga t + de), and its det.

    Drawn until |det| > 1e-2, every point is 5e-2 clear of the pole and
    the images are pairwise at least 1e-9 apart.
    """
    def images(al, be, ga, de):
        if abs(al * de - be * ga) > 1e-2 and all(abs(ga * t + de) > 5e-2 for t in points):
            return [(al * t + be) / (ga * t + de) for t in points], al * de - be * ga
        return None

    return _draw(lambda: images(*rng.standard_normal(4)), lambda m, _: m is not None and all(
        abs(p - q) >= 1e-9 for p, q in itertools.combinations(m[0], 2)),
        100, "no real Mobius map clear of the points")


# --- algebra ------------------------------------------------------------------------

@_prop("algebra.involution", "adjoint is an antimultiplicative conjugate-linear involution", 1e-12)
def _t_involution(rng, n: int) -> float:
    a = algebra.random_matrix(n, rng)
    b = algebra.random_matrix(n, rng)
    lam = complex(rng.standard_normal(), rng.standard_normal())
    rs = [
        _mres(algebra.adjoint(a @ b), algebra.adjoint(b) @ algebra.adjoint(a)),
        _mres(algebra.adjoint(algebra.adjoint(a)), a),
        _mres(algebra.adjoint(lam * a + b),
              np.conj(lam) * algebra.adjoint(a) + algebra.adjoint(b)),
    ]
    h, k = algebra.herm_decompose(a)
    rs.append(_mres(h + 1j * k, a))
    rs.append(_bres(algebra.is_hermitian(h) and algebra.is_hermitian(k)))
    return max(rs)


@_prop("algebra.pstar",
       "a b a^* respects positivity; a^* a + b^* b invertible for invertible b", 1e-9)
def _t_pstar(rng, n: int) -> float:
    a = algebra.random_matrix(n, rng)
    b = algebra.random_psd(n, rng)
    c = a @ b @ algebra.adjoint(a)
    rs = [_bres(algebra.is_psd(c)), _bres(algebra.leq(algebra.zero(n), b))]
    evs = algebra.eigvalsh((c + algebra.adjoint(c)) / 2.0)
    rs.append(max(0.0, float(-evs.min())) / (1.0 + float(np.abs(evs).max())))
    g = algebra.random_invertible(n, rng)
    rs.append(_bres(algebra.is_invertible(
        algebra.adjoint(a) @ a + algebra.adjoint(g) @ g)))
    return max(rs)


@_prop("algebra.homotope",
       "u-homotope products: associativity and symmetric/antisymmetric split", 1e-12)
def _t_homotope(rng, n: int) -> float:
    a, b, c, u = (algebra.random_matrix(n, rng) for _ in range(4))
    ha = algebra.homotope_assoc
    rs = [
        _mres(ha(ha(a, u, b), u, c), ha(a, u, ha(b, u, c))),
        _mres(algebra.homotope_jordan(a, u, b)
              + algebra.homotope_lie(a, u, b) / 2.0, ha(a, u, b)),
        _mres(algebra.homotope_jordan(a, u, b), algebra.homotope_jordan(b, u, a)),
        _mres(algebra.homotope_lie(a, u, b), -algebra.homotope_lie(b, u, a)),
    ]
    d, e = algebra.random_matrix(n, rng), algebra.random_matrix(n, rng)
    rs.append(_mres(algebra.pair_triple(a, b, algebra.pair_triple(c, d, e)),
                    algebra.pair_triple(algebra.pair_triple(a, b, c), d, e)))
    v = algebra.random_invertible(n, rng)
    rs.append(_bres(algebra.is_pair_idempotent(
        algebra.PairElement(v, algebra.inverse(v)))))
    return max(rs)


@_prop("algebra.trace",
       "normalized trace is central, positive, and 1 on rank-one idempotents", 1e-12)
def _t_trace(rng, n: int) -> float:
    a = algebra.random_matrix(n, rng)
    b = algebra.random_matrix(n, rng)
    rs = [_sres(algebra.trace_normalized(a @ b), algebra.trace_normalized(b @ a))]
    v = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    p = v @ v.conj().T / float(np.vdot(v, v).real)
    rs.append(abs(algebra.trace_normalized(p) - 1.0))
    w = algebra.random_psd(n, rng)
    rs.append(max(0.0, -float(algebra.trace_normalized(w).real)))
    return max(rs)


# --- grassmann ----------------------------------------------------------------------

@_prop("grassmann.chart_roundtrip",
       "graph charts and cocharts invert exactly; bases are gauge-free", 1e-10)
def _t_chart_roundtrip(rng, n: int) -> float:
    a = algebra.random_matrix(n, rng)
    rs = [_mres(grassmann.chart_repr(grassmann.point_from_chart(a)), a)]
    w = algebra.random_hermitian(n, rng)
    rs.append(_mres(grassmann.cochart_repr(grassmann.point_from_cochart(w)), w))
    x = grassmann.random_point(n, rng)
    g = algebra.random_invertible(n, rng)
    rs.append(_pres(grassmann.SubspacePoint(x.basis @ g), x))
    return max(rs)


@_prop("grassmann.projector_laws",
       "projector(x, a) is the idempotent with image x and kernel a", 1e-9)
def _t_projector_laws(rng, n: int) -> float:
    x, a = _transversal_pair(rng, n)
    p = grassmann.projector(x, a)
    rs = [
        _mres(p @ p, p),
        algebra._norm(p @ x.basis - x.basis),
        algebra._norm(p @ a.basis),
        _mres(grassmann.projector(a, x), algebra._eye(2 * n) - p),
    ]
    return max(rs)


@_prop("grassmann.group_action",
       "projective maps act associatively with identity and inverses", 1e-9)
def _t_group_action(rng, n: int) -> float:
    g = _conditioned_map(rng, n)
    h = _conditioned_map(rng, n)
    x = grassmann.random_point(n, rng)
    rs = [
        _pres(grassmann.apply_map(g, grassmann.apply_map(h, x)),
              grassmann.apply_map(g @ h, x)),
        _pres(grassmann.apply_map(grassmann.identity_map(n), x), x),
        _pres(grassmann.apply_map(g.inverse(), grassmann.apply_map(g, x)), x),
    ]
    return max(rs)


@_prop("grassmann.torsor_group",
       "torsor product: unit laws, inverses, and para-associativity", 1e-7)
def _t_torsor_group(rng, n: int) -> float:
    a, b = _transversal_pair(rng, n)
    if rng.integers(2) == 0:
        b = a  # degenerate case: the translation group of charts at a
    pts = [_point_clear_of(rng, n, (a, b)) for _ in range(5)]
    x, y, z, w, v = pts

    def tp(p, q, r):
        return grassmann.torsor_product(p, q, r, a, b)

    rs = [_pres(tp(x, y, y), x), _pres(tp(y, y, z), z)]
    xinv = tp(y, x, y)
    rs.append(_pres(tp(x, y, xinv), y))
    rs.append(_pres(tp(tp(x, y, z), y, w), tp(x, y, tp(z, y, w))))
    rs.append(_pres(tp(tp(x, y, z), w, v), tp(x, y, tp(z, w, v))))
    return max(rs)


@_prop("grassmann.scalar_action",
       "dilation action is multiplicative with the right fixed points", 1e-9)
def _t_scalar_action(rng, n: int) -> float:
    x, a = _transversal_pair(rng, n)
    y = _point_clear_of(rng, n, (a,))
    r = float(rng.standard_normal())
    s = float(rng.standard_normal())
    sa = grassmann.scalar_action
    rs = [
        _pres(sa(r, a, x, sa(s, a, x, y)), sa(r * s, a, x, y)),
        _pres(sa(1.0, a, x, y), y),
        _pres(sa(0.0, a, x, y), x),
    ]
    c = algebra.random_matrix(n, rng)
    rs.append(_pres(
        sa(r, grassmann.infinity_point(n), grassmann.zero_point(n),
           grassmann.point_from_chart(c)),
        grassmann.point_from_chart(r * c)))
    return max(rs)


# --- crossratio ---------------------------------------------------------------------

@_prop("crossratio.n1_reduction",
       "operator cross-ratio reduces to the scalar one at n = 1", 1e-10, dims=(1,))
def _t_n1_reduction(rng, n: int) -> float:
    x, a, b, y = _kernel_quadruple(rng, 1)
    k = crossratio.kernel(x, a, b, y)
    vals = [crossratio.cp1_value(p) for p in (y, b, x, a)]
    cr = classical_cr(*vals)
    kv = complex(k.matrix[0, 0])
    rs = [_sres(kv, complex(cr)), _sres(k.trace, kv), _sres(k.det, kv)]
    return max(rs)


@_prop("crossratio.naturality",
       "kernel trace and determinant are invariant under projective maps", 1e-7)
def _t_naturality(rng, n: int) -> float:
    x, a, b, y = _kernel_quadruple(rng, n)
    k = crossratio.kernel(x, a, b, y)
    g = _conditioned_map(rng, n)
    gk = crossratio.kernel(*(grassmann.apply_map(g, p) for p in (x, a, b, y)))
    return max(_sres(k.trace, gk.trace), _sres(k.det, gk.det))


@_prop("crossratio.chains",
       "scalar cross-ratio: normalization, symmetries, Mobius invariance", 1e-12)
def _t_chains(rng, n: int) -> float:
    a, b, c, d = _distinct_reals(rng, 4, avoid=(0.0, 1.0))
    cr = classical_cr(a, b, c, d)
    rs = [
        _sres(classical_cr(a, 1.0, 0.0, INF), a),
        _sres(classical_cr(a, b, c, INF), crossratio.ratio(a, b, c)),
        _sres(classical_cr(b, a, d, c), cr),
        _sres(classical_cr(c, d, a, b), cr),
        _sres(classical_cr(b, a, c, d) * cr, 1.0),
    ]
    # invariance under a real scalar Mobius map, avoiding its pole
    mob, _ = _real_mobius(rng, (a, b, c, d))
    rs.append(_sres(classical_cr(*mob), cr))
    return max(rs)


@_prop("crossratio.transition",
       "transition probability is a symmetric cos^2 in [0, 1]", 1e-9, dims=(1,))
def _t_transition(rng, n: int) -> float:
    v = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    u = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    x = grassmann.SubspacePoint(v)
    y = grassmann.SubspacePoint(u)
    p = crossratio.transition_probability(x, y)
    q = crossratio.transition_probability(y, x)
    vv = v / algebra._norm(v)
    uu = u / algebra._norm(u)
    direct = float(abs((vv.conj().T @ uu)[0, 0]) ** 2)
    rs = [abs(p - q), abs(p - direct), max(0.0, -p), max(0.0, p - 1.0)]
    rs.append(abs(crossratio.transition_probability(x, x) - 1.0))
    return max(rs)


# --- hermitian ----------------------------------------------------------------------

@_prop("hermitian.klein_four",
       "tau, alpha, beta are commuting involutions with beta = alpha tau", 1e-9)
def _t_klein_four(rng, n: int) -> float:
    x = grassmann.random_point(n, rng)
    t, al, be = hermitian.tau, hermitian.alpha, hermitian.beta
    rs = [
        _pres(t(t(x)), x),
        _pres(al(al(x)), x),
        _pres(be(be(x)), x),
        _pres(al(t(x)), be(x)),
        _pres(t(al(x)), be(x)),
    ]
    a = algebra.random_matrix(n, rng)
    rs.append(_pres(t(grassmann.point_from_chart(a)),
                    grassmann.point_from_chart(algebra.adjoint(a))))
    rs.append(_pres(al(grassmann.zero_point(n)), grassmann.infinity_point(n)))
    g = algebra.random_invertible(n, rng)
    rs.append(_pres(al(grassmann.point_from_chart(g)),
                    grassmann.point_from_chart(
                        -algebra.proven_inverse(algebra.adjoint(g)))))
    return max(rs)


@_prop("hermitian.circle_action",
       "circle action: additivity, pole fixing, quarter turn squares to beta", 1e-9)
def _t_circle_action(rng, n: int) -> float:
    north, south = hermitian.poles(n)
    x = grassmann.random_point(n, rng)
    th = float(rng.uniform(0.0, 2.0 * np.pi))
    ph = float(rng.uniform(0.0, 2.0 * np.pi))
    s1 = hermitian.s1_action
    rs = [
        _pres(s1(th, s1(ph, x)), s1(th + ph, x)),
        _pres(s1(np.pi / 2.0, s1(np.pi / 2.0, x)), hermitian.beta(x)),
        _pres(s1(th, north), north),
        _pres(s1(th, south), south),
        _pres(s1(0.0, x), x),
    ]
    r = hermitian.random_r_point(n, rng)
    rs.append(_bres(hermitian.membership(s1(th, r), "R")))
    # a generic point is moved, so the quarter-turn fixes exactly the poles
    rs.append(_bres(not grassmann.point_eq(hermitian.beta(x), x)))
    return max(rs)


def _meets_poles(x: grassmann.SubspacePoint) -> bool:
    """Transversal to both poles N and S: the R_{N,S} clause."""
    north, south = hermitian.poles(x.n)
    return grassmann.is_transversal(x, north) and grassmann.is_transversal(x, south)


@_prop("hermitian.unitary_universe",
       "Cayley chart is a bijection between the chart universe and unitaries", 1e-9)
def _t_unitary_universe(rng, n: int) -> float:
    u = algebra.random_unitary(n, rng)
    x = hermitian.unitary_to_point(u)
    rs = [
        _mres(hermitian.cayley_to_unitary(x), u),
        _bres(hermitian.membership(x, "R")),
        # R = R' = R_{N,S} for M(n, C): check the defining transversalities
        _bres(_meets_poles(x)),
        _bres(grassmann.is_transversal(x, hermitian.beta(x))),
    ]
    y = hermitian.random_r_point(n, rng)
    rs.append(_pres(hermitian.unitary_to_point(hermitian.cayley_to_unitary(y)), y))
    h = algebra.random_hermitian(n, rng)
    eye = algebra._eye(n)
    rs.append(_mres(hermitian.cayley_to_unitary(grassmann.point_from_chart(h)),
                    (h + 1j * eye) @ algebra.proven_inverse(h - 1j * eye)))
    return max(rs)


@_prop("hermitian.affine_part",
       "points transversal to a universe point stay in the universe", 1e-9)
def _t_affine_part(rng, n: int) -> float:
    a = hermitian.random_r_point(n, rng)
    g = hermitian.transport_to_zero(a)  # a to 0, the horizon of the cochart
    h = algebra.random_hermitian(n, rng)
    x = grassmann.apply_map(g.inverse(), grassmann.point_from_cochart(h))
    rs = [
        _bres(hermitian.membership(x, "R")),
        _bres(_meets_poles(x)),
        _bres(grassmann.is_transversal(x, a)),
    ]
    return max(rs)


@_prop("hermitian.cayley_hom", "the unitary torsor maps to u v^* w under the Cayley chart", 1e-8)
def _t_cayley_hom(rng, n: int) -> float:
    x, y, z = (hermitian.random_r_point(n, rng) for _ in range(3))
    w = hermitian.unitary_torsor(x, y, z)
    ux, uy, uz = (hermitian.cayley_to_unitary(p) for p in (x, y, z))
    return _mres(hermitian.cayley_to_unitary(w), ux @ uy.conj().T @ uz)


@_prop("hermitian.torsor_para", "unitary torsor satisfies para-associativity and unit laws", 1e-7)
def _t_torsor_para(rng, n: int) -> float:
    x, y, z, w, v = (hermitian.random_r_point(n, rng) for _ in range(5))
    ut = hermitian.unitary_torsor
    rs = [
        _pres(ut(ut(x, y, z), w, v), ut(x, y, ut(z, w, v))),
        _pres(ut(x, y, y), x),
        _pres(ut(y, y, z), z),
    ]
    return max(rs)


@_prop("hermitian.equivariance",
       "symmetry groups commute with the involutions and preserve universes", 1e-9)
def _t_equivariance(rng, n: int) -> float:
    g = hermitian.aut_omega_random(n, rng)
    x = grassmann.random_point(n, rng)
    rs = [_pres(hermitian.tau(grassmann.apply_map(g, x)),
                grassmann.apply_map(g, hermitian.tau(x)))]
    r = hermitian.random_r_point(n, rng)
    rs.append(_bres(hermitian.membership(grassmann.apply_map(g, r), "R")))
    f = hermitian.u_group_random(n, rng)
    th = float(rng.uniform(0.0, 2.0 * np.pi))
    rs.append(_pres(grassmann.apply_map(f, hermitian.s1_action(th, x)),
                    hermitian.s1_action(th, grassmann.apply_map(f, x))))
    rs.append(_pres(hermitian.alpha(grassmann.apply_map(f, x)),
                    grassmann.apply_map(f, hermitian.alpha(x))))
    rs.append(_bres(_meets_poles(
        grassmann.apply_map(f, hermitian.random_r_point(n, rng)))))
    return max(rs)


@_prop("hermitian.tangent_algebra",
       "transported chart multiplication: units, zeros, associativity", 1e-8)
def _t_tangent_algebra(rng, n: int) -> float:
    zero = grassmann.zero_point(n)
    a = algebra.random_matrix(n, rng)
    b = algebra.random_matrix(n, rng)
    ca, cb = grassmann.point_from_chart(a), grassmann.point_from_chart(b)
    rs = [
        _pres(hermitian.tangent_product(zero, ca, cb),
              grassmann.point_from_chart(a @ b)),
        _pres(hermitian.tangent_unit(zero), grassmann.one_point(n)),
    ]
    base = hermitian.random_r_point(n, rng)
    alo = hermitian.alpha(base)
    x, y, z = _draw(lambda: grassmann.point_from_chart(algebra.random_hermitian(n, rng)),
                    lambda p, _: grassmann.transversality_margin(p, alo) > 1e-2,
                    200, "no tangent-chart sample at this base", 3)
    unit = hermitian.tangent_unit(base)
    rs.append(_pres(hermitian.tangent_product(base, x, unit), x))
    rs.append(_pres(hermitian.tangent_product(base, unit, x), x))
    rs.append(_pres(hermitian.tangent_product(base, x, base), base))
    rs.append(_pres(
        hermitian.tangent_product(base, hermitian.tangent_product(base, x, y), z),
        hermitian.tangent_product(base, x, hermitian.tangent_product(base, y, z))))
    return max(rs)


@_prop("hermitian.distance",
       "arithmetic distance counts principal angles and equals the chart-difference rank", 0.5)
def _t_distance(rng, n: int) -> float:
    h = algebra.random_hermitian(n, rng)
    k = int(rng.integers(0, n + 1))
    u = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    pert = u @ v.conj().T if k else np.zeros((n, n))
    x = grassmann.point_from_chart(h)
    y = grassmann.point_from_chart(h + pert)
    rs = [_bres(hermitian.arithmetic_distance(x, y) == k)]
    rs.append(_bres(hermitian.arithmetic_distance(y, x) == k))
    rs.append(_bres(hermitian.is_rank_one_pair(x, y) == (k == 1)))
    c2 = _point_clear_of(rng, n, (x, y))
    rs.append(_bres(hermitian.chart_difference_rank(x, y, c2) == k))
    return max(rs)


def _line_set_residual(p: grassmann.SubspacePoint, fam: hermitian.LineFamily,
                       chart_point: grassmann.SubspacePoint) -> float:
    """Distance of p from the closed line, measured in the family's chart."""
    n = p.n
    if not grassmann.is_transversal(p, chart_point):
        return _pres(p, fam.point(INF))
    # its own solve, not chart_in_frame: the check must not run through the base-point
    # shortcut it is audited against (tests/test_shortcut_audit.py)
    pq = algebra.solve(fam.frame, p.basis)
    m_p = pq[n:] @ algebra.proven_inverse(pq[:n])
    dev = m_p - fam.base
    d = fam.direction
    s = complex(np.vdot(d, dev) / np.vdot(d, d))
    resid = algebra._norm(dev - s * d) / (1.0 + algebra._norm(m_p))
    return resid


@_prop("hermitian.line_chart", "intrinsic lines agree as closed point sets across charts", 1e-7)
def _t_line_chart(rng, n: int) -> float:
    h = algebra.random_hermitian(n, rng)
    u = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    sigma = float(rng.standard_normal())
    if abs(sigma) < 0.2:
        sigma = 0.5
    y = grassmann.point_from_chart(h)
    x = grassmann.point_from_chart(h + sigma * (u @ u.conj().T))
    fam1 = hermitian.line_family(x, y)
    rs = [_pres(fam1.point(1.0), x), _pres(fam1.point(0.0), y)]
    rs.append(_bres(not grassmann.is_transversal(
        fam1.point(INF), grassmann.infinity_point(n))))
    c2 = _point_clear_of(rng, n, (x, y))
    fam2 = hermitian.line_family(x, y, chart_point=c2)
    for t in (float(rng.standard_normal() * 2.0),
              float(rng.standard_normal() * 2.0), INF):
        rs.append(_line_set_residual(fam1.point(t), fam2, c2))
        rs.append(_line_set_residual(fam2.point(t), fam1,
                                     grassmann.infinity_point(n)))
    return max(rs)


@_prop("hermitian.cyclic_order",
       "cyclic order is rotation-invariant and matches the scalar order at n = 1", 0.5)
def _t_cyclic_order(rng, n: int) -> float:
    am = algebra.random_hermitian(n, rng)
    gap = algebra.random_psd(n, rng) + 0.2 * algebra._eye(n)
    a = grassmann.point_from_chart(am)
    b = grassmann.point_from_chart(am + gap)
    inf = grassmann.infinity_point(n)
    rs = [
        _bres(hermitian.cyclic_triple(a, b, inf)),
        _bres(hermitian.cyclic_triple(b, inf, a)),
        _bres(hermitian.cyclic_triple(inf, a, b)),
        _bres(not hermitian.cyclic_triple(b, a, inf)),
    ]
    if n == 1:
        va = float(am[0, 0].real)
        vb = float((am + gap)[0, 0].real)
        rs.append(_bres(hermitian.cyclic_triple(a, b, inf)
                        == classical.cyclic_order(va, vb, INF)))
        c = float(rng.standard_normal() * 3.0)
        if min(abs(c - va), abs(c - vb)) > 1e-3:
            cp = grassmann.point_from_chart(np.array([[c]]))
            rs.append(_bres(hermitian.cyclic_triple(a, b, cp)
                            == classical.cyclic_order(va, vb, c)))
    return max(rs)


# --- obstate ------------------------------------------------------------------------

@_prop("obstate.conservation",
       "expectation in the standard frame is trace(w a), homogeneous in w", 1e-9)
def _t_conservation(rng, n: int) -> float:
    a = algebra.random_hermitian(n, rng)
    w = algebra.random_density(n, rng)
    o = obstate.standard_obstate(a, w)
    target = complex(np.trace(w @ a))
    rs = [_sres(obstate.expectation(o), target)]
    t = abs(float(rng.standard_normal())) + 0.1
    o2 = obstate.new_obstate(o.observable, obstate.state_from_density(t * w),
                             o.ref_observable, o.ref_state, strong=True)
    rs.append(_sres(obstate.expectation(o2), t * target))
    return max(rs)


@_prop("obstate.pure_reduction", "vector states give <psi, a psi> and are pure", 1e-9)
def _t_pure_reduction(rng, n: int) -> float:
    a = algebra.random_hermitian(n, rng)
    psi = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    psi = psi / algebra._norm(psi)
    o = obstate.standard_obstate(a, psi @ psi.conj().T)
    target = complex((psi.conj().T @ a @ psi)[0, 0])
    rs = [_sres(obstate.expectation(o), target), _bres(obstate.is_pure(o))]
    return max(rs)


@_prop("obstate.invariance",
       "expectation is unchanged by symplectic transport of all four points", 1e-7)
def _t_ev_invariance(rng, n: int) -> float:
    a = algebra.random_hermitian(n, rng)
    w = algebra.random_density(n, rng)
    o = obstate.standard_obstate(a, w)
    base = obstate.expectation(o)
    g = hermitian.aut_omega_random(n, rng)
    moved = crossratio.kernel(
        grassmann.apply_map(g, o.ref_observable),
        grassmann.apply_map(g, o.ref_state),
        grassmann.apply_map(g, o.state),
        grassmann.apply_map(g, o.observable)).trace
    return _sres(moved, base)


@_prop("obstate.moments",
       "distribution weights are a probability; moments match trace formulas", 1e-9)
def _t_moments(rng, n: int) -> float:
    a = algebra.random_hermitian(n, rng)
    w = algebra.random_density(n, rng)
    o = obstate.standard_obstate(a, w)
    dist = obstate.distribution(o)
    weights = [wt for _, wt in dist]
    rs = [max(0.0, -min(weights)), abs(sum(weights) - 1.0)]
    mean = sum(v * wt for v, wt in dist)
    second = sum(v * v * wt for v, wt in dist)
    tr_aw = float(np.trace(w @ a).real)
    tr_awa = float(np.trace(a @ w @ a).real)
    rs.append(_sres(mean, tr_aw))
    rs.append(_sres(second, tr_awa))
    rs.append(_sres(obstate.variance(o), tr_awa - tr_aw ** 2))
    # commuting pair: the classical-probability oracle
    lam = rng.standard_normal(n)
    mu = np.abs(rng.standard_normal(n)) + 0.05
    mu = mu / mu.sum()
    oc = obstate.standard_obstate(np.diag(lam), np.diag(mu))
    oracle = float((mu * lam ** 2).sum() - (mu * lam).sum() ** 2)
    rs.append(_sres(obstate.variance(oc), oracle))
    # the identity observable is sharp in every state
    oi = obstate.standard_obstate(algebra._eye(n), w)
    rs.append(abs(obstate.variance(oi)))
    di = obstate.distribution(oi)
    rs.append(_bres(len(di) == 1))
    rs.append(abs(di[0][0] - 1.0) + abs(di[0][1] - 1.0))
    return max(rs)


@_prop("obstate.pure_line",
       "line-completion expectation agrees with the kernel trace on pure states",
       1e-6, dims=(1, 2, 3, 4))
def _t_pure_line(rng, n: int) -> float:
    a = algebra.random_hermitian(n, rng)
    psi = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    psi = psi / algebra._norm(psi)
    o = obstate.standard_obstate(a, psi @ psi.conj().T)
    ev = obstate.expectation(o)
    pe = obstate.pure_expectation(o)
    if is_inf(pe):
        return _bres(abs(ev) > 1e10)
    return _sres(complex(pe), ev)


@_prop("obstate.positivity", "cyclically ordered obstates have nonnegative real expectation", 1e-9)
def _t_positivity(rng, n: int) -> float:
    q = algebra.random_matrix(n, rng)
    h = q @ q.conj().T
    w = algebra.random_psd(n, rng) + 0.05 * algebra._eye(n)
    o = obstate.standard_obstate(h, w)
    rs = [
        _bres(obstate.is_cyclically_ordered(o)),
        _bres(obstate.is_positive(o)),
    ]
    ev = obstate.expectation(o)
    scale = 1.0 + abs(ev)
    rs.append(max(0.0, -ev.real) / scale)
    rs.append(abs(ev.imag) / scale)
    o2 = obstate.standard_obstate(-h - 0.05 * algebra._eye(n), w)
    rs.append(_bres(not obstate.is_cyclically_ordered(o2)))
    return max(rs)


# --- classical model ----------------------------------------------------------------

@_prop("classical.pairing_axioms",
       "site pairing: bilinear, middle-associative, positive, monotone", 1e-12)
def _t_pairing_axioms(rng, n: int) -> float:
    m = int(rng.integers(2, 17))
    mu = classical.Measure(rng.uniform(0.1, 2.0, m).tolist())
    f = classical.ClassicalFn(rng.standard_normal(m).tolist())
    g = classical.ClassicalFn(rng.standard_normal(m).tolist())
    h = classical.ClassicalFn(rng.standard_normal(m).tolist())
    lam = float(rng.standard_normal())
    pair = classical.pairing
    rs = []
    combo = classical.ClassicalFn(
        [lam * fv + gv for fv, gv in zip(f.values, g.values)])
    rs.append(_sres(pair(mu, combo, h),
                    lam * pair(mu, f, h) + pair(mu, g, h)))
    fh = classical.ClassicalFn([a * b for a, b in zip(f.values, h.values)])
    hg = classical.ClassicalFn([a * b for a, b in zip(h.values, g.values)])
    rs.append(_sres(pair(mu, fh, g), pair(mu, f, hg)))
    fp = f.map(abs)
    gp = g.map(abs)
    rs.append(max(0.0, -float(pair(mu, fp, gp))))
    half = classical.ClassicalFn([v / 2.0 for v in fp.values])
    rs.append(_sres(pair(mu, half, gp), float(pair(mu, fp, gp)) / 2.0))
    rs.append(abs(float(pair(mu, classical.constant_fn(0.0, m), gp))))
    # an infinite value against a nonvanishing partner diverges ...
    j = int(rng.integers(m))
    f_inf = list(f.values)
    f_inf[j] = INF
    gpos = classical.ClassicalFn((np.abs(rng.standard_normal(m)) + 0.1).tolist())
    rs.append(_bres(is_inf(pair(mu, classical.ClassicalFn(f_inf), gpos))))
    # ... is ignored on a null site ...
    w0 = list(mu.weights)
    w0[j] = 0.0
    rs.append(_bres(not is_inf(pair(classical.Measure(w0),
                                    classical.ClassicalFn(f_inf), gpos))))
    # ... and 0 * INF on a charged site has no consistent value
    g0 = list(gpos.values)
    g0[j] = 0.0
    try:
        pair(mu, classical.ClassicalFn(f_inf), classical.ClassicalFn(g0))
        rs.append(1.0)
    except IndeterminateError:
        rs.append(0.0)
    return max(rs)


@_prop("classical.density_action",
       "finite Radon-Nikodym densities: substitution, chain rule, invariance", 1e-12)
def _t_density_action(rng, n: int) -> float:
    m = int(rng.integers(2, 17))
    mu = classical.Measure(rng.uniform(0.1, 3.0, m).tolist())
    phi = classical.random_bijection(m, rng)
    psi = classical.random_bijection(m, rng)
    h = classical.ClassicalFn(rng.standard_normal(m).tolist())
    f = classical.ClassicalFn(rng.standard_normal(m).tolist())
    rs = []
    # substitution rule: integrating h o phi against mu matches the density
    d_phi = classical.density_pushforward(phi, mu)
    lhs = sum(mu.weights[p] * float(h[phi(p)]) for p in range(m))
    rhs = sum(mu.weights[q] * float(d_phi[q]) * float(h[q]) for q in range(m))
    rs.append(_sres(lhs, rhs))
    # chain rule for densities
    comp = phi.compose(psi)
    d_comp = classical.density_pushforward(comp, mu)
    d_psi = classical.density_pushforward(psi, mu)
    phi_inv = phi.inverse()
    rs.append(max(
        abs(float(d_comp[q]) - float(d_phi[q]) * float(d_psi[phi_inv(q)]))
        for q in range(m)))
    # the paired action leaves the pairing invariant
    rs.append(_sres(
        classical.pairing(mu, classical.fn_pullback(f, phi),
                          classical.density_action(phi, mu, h)),
        classical.pairing(mu, f, h)))
    # and it composes: (phi o psi).h = phi.(psi.h)
    a1 = classical.density_action(comp, mu, h)
    a2 = classical.density_action(phi, mu, classical.density_action(psi, mu, h))
    rs.append(max(abs(float(a1[q]) - float(a2[q])) for q in range(m)))
    return max(rs)


@_prop("classical.fn_obstate",
       "pointwise coordinates: frame normalization and exchange symmetry", 1e-10)
def _t_fn_obstate(rng, n: int) -> float:
    m = int(rng.integers(2, 17))
    rows = []
    for _ in range(m):
        rows.append(_distinct_reals(rng, 4))
    f = classical.ClassicalFn([r[0] for r in rows])
    f1 = classical.ClassicalFn([r[1] for r in rows])
    f0 = classical.ClassicalFn([r[2] for r in rows])
    finf = classical.ClassicalFn([r[3] for r in rows])
    coords = classical.fn_obstate(f, f1, f0, finf)
    rs = []
    # the standard frame returns f itself
    std = classical.fn_obstate(f, classical.constant_fn(1.0, m),
                               classical.constant_fn(0.0, m),
                               classical.constant_fn(INF, m))
    rs.append(max(abs(float(std[p]) - float(f[p])) for p in range(m)))
    # references land on 0, 1, INF
    on0 = classical.fn_obstate(f0, f1, f0, finf)
    on1 = classical.fn_obstate(f1, f1, f0, finf)
    on_inf = classical.fn_obstate(finf, f1, f0, finf)
    rs.append(max(abs(float(on0[p])) for p in range(m)))
    rs.append(max(abs(float(on1[p]) - 1.0) for p in range(m)))
    rs.append(_bres(all(is_inf(on_inf[p]) for p in range(m))))
    # exchanging rows of the coordinate matrix is invisible; swapping the
    # two functions (references fixed) inverts the coordinate
    for p in range(m):
        v = classical.fn_obstate_value(f, f1, f0, finf, p)
        rows = classical.fn_obstate_value(f1, f, finf, f0, p)
        swap = classical.fn_obstate_value(f1, f, f0, finf, p)
        rs.append(abs(float(rows) - float(v)) / (1.0 + abs(float(v))))
        rs.append(abs(float(swap) * float(v) - 1.0) / (1.0 + abs(float(v))))
    # the worked constant example: (4, 5; 2, INF) = 2/3
    rs.append(abs(float(classical.fn_obstate_value(
        classical.constant_fn(4.0, 1), classical.constant_fn(5.0, 1),
        classical.constant_fn(2.0, 1), classical.constant_fn(INF, 1), 0))
        - 2.0 / 3.0))
    # expectation against a density is the weighted coordinate sum
    wts = rng.uniform(0.1, 2.0, m)
    wts = wts / wts.sum()
    mu = classical.Measure(wts.tolist())
    hfn = classical.constant_fn(1.0, m)
    ev = classical.fn_expectation(mu, f, hfn, f1, f0, finf)
    direct = sum(wts[p] * float(coords[p]) for p in range(m))
    rs.append(_sres(ev, direct))
    return max(rs)


@_prop("classical.separation",
       "negative cross-ratio iff the pairs separate each other on the circle", 0.5)
def _t_separation(rng, n: int) -> float:
    vals = _distinct_reals(rng, 4)
    if rng.uniform() < 0.25:
        vals[int(rng.integers(4))] = INF
    a, b, c, d = vals
    cr = classical_cr(a, b, c, d)
    sep = classical.separates(c, d, a, b)
    rs = [_bres((float(cr) < 0.0) == sep)]
    # separation is symmetric in the pairs
    rs.append(_bres(classical.separates(a, b, c, d) == sep))
    rs.append(_bres(classical.separates(d, c, a, b) == sep))
    # real quadruples are concyclic; a genuinely complex one is not
    rs.append(_bres(classical.real_like(a, b, c, d)))
    rs.append(_bres(not classical.real_like(0.0, 1.0, 1j, INF)))
    if not any(is_inf(v) for v in (a, b, c)):
        order = classical.cyclic_order(a, b, c)
        # orientation: preserved by positive Mobius maps, reversed by negative
        (ma, mb, mc), det = _real_mobius(rng, (a, b, c))
        if det > 0:
            rs.append(_bres(classical.cyclic_order(ma, mb, mc) == order))
        else:
            rs.append(_bres(classical.cyclic_order(mb, ma, mc) == order))
    return max(rs)


# --- the sweep ----------------------------------------------------------------------

SPECS = {spec.pid: spec for spec in _SPEC_LIST}


def property_ids() -> list:
    return [spec.pid for spec in _SPEC_LIST]


def sub_seed(seed: int, pid: str, trial: int) -> int:
    digest = hashlib.sha256(f"{seed}:{pid}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _arguments(n_list: Sequence[int], trials: int, seed: int, tol: Optional[float]):
    """(n_list, trials, seed, tol) read once, before any trial runs (see run_sweep)."""
    n_list = [algebra.check_size(n) for n in n_list]
    if not n_list:
        raise DimensionError("the sweep needs at least one size n")
    try:
        seed = operator.index(seed)  # so the report's seed is the one its sub-seeds read
    except TypeError:
        raise DimensionError(f"the seed must be a whole number, got {seed!r:.40}") from None
    if tol is not None:
        try:
            tol = float(tol)
        except (TypeError, ValueError):
            raise DimensionError(
                f"the tolerance override must be a number, got {tol!r:.40}") from None
        if not math.isfinite(tol):
            # NaN would fail every trial and infinity pass every one, and neither is JSON
            raise NonFiniteError(f"the tolerance override must be finite, got {tol}")
    return n_list, algebra.check_size(trials, "trials"), seed, tol


def run_property(spec: PropertySpec, n_list: Sequence[int], trials: int,
                 seed: int, tol: Optional[float] = None) -> dict:
    """Run trials of spec over the sizes of n_list that spec.dims allows.

    When n_list names none of them, the trials run over spec.dims.  The
    arguments are checked as in run_sweep.  TransversalityWarning is ignored
    under one warning filter around all the trials.  Each block of at most
    DEFAULT_TRIALS trials first builds its generators, default_rng(sub_seed(
    seed, spec.pid, i)) for each trial i, then runs them, so a large trials
    count holds no more than one block of generators at once.
    """
    n_list, trials, seed, tol = _arguments(n_list, trials, seed, tol)
    tolerance = spec.tolerance if tol is None else tol
    ns = [n for n in n_list if spec.dims is None or n in spec.dims] or list(spec.dims or n_list)
    outcomes = []  # (residual, error) of each trial
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", grassmann.TransversalityWarning)
        for start in range(0, trials, DEFAULT_TRIALS):
            # a block's generators built back to back cost half as much as one per trial
            block = range(start, min(start + DEFAULT_TRIALS, trials))
            rngs = [np.random.default_rng(sub_seed(seed, spec.pid, i)) for i in block]
            for i, rng in zip(block, rngs):
                try:
                    outcomes.append((float(spec.trial(rng, ns[i % len(ns)])), None))
                except Exception as exc:  # noqa: BLE001 - a raising trial is a failure
                    outcomes.append((float("inf"), f"{type(exc).__name__}: {exc}"))
    failed = [i for i, (residual, _) in enumerate(outcomes) if not residual <= tolerance]
    finite = [residual for residual, _ in outcomes if math.isfinite(residual)]
    result = {
        "summary": spec.summary,
        "tolerance": tolerance,
        "pass_count": trials - len(failed),
        "fail_count": len(failed),
        "worst_residual": max([0.0] + finite) if len(finite) == trials else "inf",
        "ok": not failed,
    }
    if failed:
        i = failed[0]
        residual, error = outcomes[i]
        result["example_failure"] = example = {
            "trial": i, "n": ns[i % len(ns)], "sub_seed": sub_seed(seed, spec.pid, i),
            "residual": residual if math.isfinite(residual) else "inf"}
        if error is not None:
            example["error"] = error
    return result


def run_sweep(n_list: Sequence[int] = DEFAULT_N_LIST,
              trials: int = DEFAULT_TRIALS, seed: int = 0,
              properties: Optional[Iterable[str]] = None,
              tol: Optional[float] = None) -> dict:
    """Run the registry and return a deterministic, JSON-ready report.

    Every size in n_list, and trials, must be a whole number >= 1, n_list
    must name at least one size, properties, when given, must be a non-empty
    collection of string ids (not one bare string), the seed must be a whole
    number and a tolerance override a number (DimensionError otherwise), and
    the override must be finite (NonFiniteError otherwise).  An unknown id is
    a KeyError.
    """
    n_list, trials, seed, tol = _arguments(n_list, trials, seed, tol)
    if isinstance(properties, str):
        raise DimensionError(f"properties must be a collection of ids, not the string "
                             f"{properties!r:.40}")
    wanted = None if properties is None else list(properties)
    if wanted == []:
        raise DimensionError("the sweep needs at least one property")
    odd = [pid for pid in wanted or () if not isinstance(pid, str)]
    if odd:
        raise DimensionError(f"a property id must be a string, got {odd[0]!r:.40}")
    unknown = [pid for pid in wanted or () if pid not in SPECS]
    if unknown:
        # the sweep harness's one bare error: no input boundary (CLI, decoder or public
        # constructor) lets it out, since `apline check` turns it into a click error
        raise KeyError(f"unknown property ids: {', '.join(sorted(unknown))}")
    selected = [spec for spec in _SPEC_LIST if wanted is None or spec.pid in wanted]
    results = {spec.pid: run_property(spec, n_list, trials, seed, tol) for spec in selected}
    return {
        "schema": 1,
        "seed": seed,
        "n_list": n_list,
        "trials": trials,
        "properties": results,
        "ok": all(r["ok"] for r in results.values()),
    }
