"""Seeded property sweep over the whole library.

Every invariant the library promises is addressable here by a stable id
(``algebra.involution``, ``obstate.conservation``, ...).  Each property is
a single trial function ``trial(rng, n) -> residual``; a residual at or
below the property's tolerance counts as a pass.  Boolean facts report
0.0 / 1.0 residuals.

Determinism: trial ``i`` of property ``pid`` under sweep seed ``s`` draws
from ``default_rng(sub_seed(s, pid, i))``, so reports are reproducible
bit-for-bit regardless of which subset of properties runs, and the JSON
report contains no timestamps or environment data.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import algebra, classical, crossratio, grassmann, hermitian, obstate
from .crossratio import INF, classical_cr, is_inf
from .errors import IndeterminateError, ResamplingExhausted

DEFAULT_N_LIST = (1, 2, 3, 4, 6)
DEFAULT_TRIALS = 100


# --- residual helpers ---------------------------------------------------------------

def _mres(a, b) -> float:
    """Relative Frobenius residual between two matrices (or scalars)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    sa = float(np.linalg.norm(a))
    sb = float(np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) / (1.0 + max(sa, sb))


def _sres(a, b) -> float:
    """Relative residual between two scalars."""
    a, b = complex(a), complex(b)
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def _pres(x: grassmann.SubspacePoint, y: grassmann.SubspacePoint) -> float:
    """Gap between two points of the same Grassmannian (projector distance)."""
    return float(np.linalg.norm(x.projector - y.projector)) / (1.0 + math.sqrt(x.n))


def _bres(ok: bool) -> float:
    return 0.0 if ok else 1.0


# --- conditioned random draws -------------------------------------------------------

def _draw(draw: Callable, accept: Callable, tries: int, what: str):
    """The first of tries values of draw() that accept takes; ResamplingExhausted(what) if none."""
    for _ in range(tries):
        value = draw()
        if accept(value):
            return value
    raise ResamplingExhausted(what)


def _transversal_pair(rng, n: int):
    return _draw(lambda: (grassmann.random_point(n, rng), grassmann.random_point(n, rng)),
                 lambda pair: grassmann.transversality_margin(*pair) > 1e-2, 200,
                 "no well-separated transversal pair found")


def _point_clear_of(rng, n: int, others) -> grassmann.SubspacePoint:
    return _draw(lambda: grassmann.random_point(n, rng),
                 lambda x: all(grassmann.transversality_margin(x, c) > 1e-2 for c in others), 300,
                 "no point transversal to all the given ones")


def _conditioned_map(rng, n: int) -> grassmann.ProjectiveMap:
    return _draw(lambda: grassmann.random_map(n, rng), lambda g: np.linalg.cond(g.rep) < 2e3,
                 60, "no projective map with condition number below 2e3")


def _kernel_quadruple(rng, n: int):
    """x, a, b, y with the transversality the kernel needs, margin-separated."""
    return _draw(lambda: tuple(grassmann.random_point(n, rng) for _ in range(4)),
                 lambda q: all(grassmann.transversality_margin(p, r) > 1e-2
                               for p, r in ((q[0], q[1]), (q[2], q[0]), (q[3], q[1]))),
                 300, "no kernel-admissible quadruple found")


def _distinct_reals(rng, count: int, avoid: Sequence[float] = ()) -> list:
    """count values of 3 N(0, 1), more than 1e-2 apart and from avoid, within 2000 draws."""
    vals: list = []

    def keep(v: float) -> bool:
        if all(abs(v - w) > 1e-2 for w in vals + list(avoid)):
            vals.append(v)
        return len(vals) == count

    _draw(lambda: float(rng.standard_normal() * 3.0), keep, 2000,
          "could not draw separated real values")
    return vals


def _real_mobius(rng, points: Sequence[float]):
    """Images of points under a random real t -> (al t + be) / (ga t + de), and its det.

    Drawn until |det| > 1e-2, every point is 5e-2 clear of the pole and
    the images are pairwise at least 1e-9 apart.
    """
    def images(al, be, ga, de):
        if abs(al * de - be * ga) > 1e-2 and all(abs(ga * t + de) > 5e-2 for t in points):
            return [(al * t + be) / (ga * t + de) for t in points], al * de - be * ga
        return None

    return _draw(lambda: images(*rng.standard_normal(4)), lambda m: m is not None and all(
        abs(p - q) >= 1e-9 for p, q in itertools.combinations(m[0], 2)),
        100, "no real Mobius map clear of the points")


# --- algebra ------------------------------------------------------------------------

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


def _t_pstar(rng, n: int) -> float:
    a = algebra.random_matrix(n, rng)
    b = algebra.random_psd(n, rng)
    c = a @ b @ algebra.adjoint(a)
    rs = [_bres(algebra.is_psd(c)), _bres(algebra.leq(algebra.zero(n), b))]
    evs = np.linalg.eigvalsh((c + algebra.adjoint(c)) / 2.0)
    rs.append(max(0.0, float(-evs.min())) / (1.0 + float(np.abs(evs).max())))
    g = algebra.random_invertible(n, rng)
    rs.append(_bres(algebra.is_invertible(
        algebra.adjoint(a) @ a + algebra.adjoint(g) @ g)))
    return max(rs)


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
    rs.append(_bres(algebra.q_operator_invertible(v)))
    return max(rs)


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

def _t_chart_roundtrip(rng, n: int) -> float:
    a = algebra.random_matrix(n, rng)
    rs = [_mres(grassmann.chart_repr(grassmann.point_from_chart(a)), a)]
    w = algebra.random_hermitian(n, rng)
    rs.append(_mres(grassmann.cochart_repr(grassmann.point_from_cochart(w)), w))
    x = grassmann.random_point(n, rng)
    g = algebra.random_invertible(n, rng)
    rs.append(_pres(grassmann.SubspacePoint(x.basis @ g), x))
    return max(rs)


def _t_projector_laws(rng, n: int) -> float:
    x, a = _transversal_pair(rng, n)
    p = grassmann.projector(x, a)
    rs = [
        _mres(p @ p, p),
        float(np.linalg.norm(p @ x.basis - x.basis)),
        float(np.linalg.norm(p @ a.basis)),
        _mres(grassmann.projector(a, x), np.eye(2 * n) - p),
    ]
    return max(rs)


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

def _t_n1_reduction(rng, n: int) -> float:
    x, a, b, y = _kernel_quadruple(rng, 1)
    k = crossratio.kernel(x, a, b, y)
    vals = [crossratio.cp1_value(p) for p in (y, b, x, a)]
    cr = classical_cr(*vals)
    kv = complex(k.matrix[0, 0])
    rs = [_sres(kv, complex(cr)), _sres(k.trace, kv), _sres(k.det, kv)]
    return max(rs)


def _t_naturality(rng, n: int) -> float:
    x, a, b, y = _kernel_quadruple(rng, n)
    k = crossratio.kernel(x, a, b, y)
    g = _conditioned_map(rng, n)
    gk = crossratio.kernel(*(grassmann.apply_map(g, p) for p in (x, a, b, y)))
    return max(_sres(k.trace, gk.trace), _sres(k.det, gk.det))


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


def _t_transition(rng, n: int) -> float:
    v = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    u = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    x = grassmann.SubspacePoint(v)
    y = grassmann.SubspacePoint(u)
    p = crossratio.transition_probability(x, y)
    q = crossratio.transition_probability(y, x)
    vv = v / np.linalg.norm(v)
    uu = u / np.linalg.norm(u)
    direct = float(abs((vv.conj().T @ uu)[0, 0]) ** 2)
    rs = [abs(p - q), abs(p - direct), max(0.0, -p), max(0.0, p - 1.0)]
    rs.append(abs(crossratio.transition_probability(x, x) - 1.0))
    return max(rs)


# --- hermitian ----------------------------------------------------------------------

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
                        -np.linalg.inv(algebra.adjoint(g)))))
    return max(rs)


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
    eye = np.eye(n)
    rs.append(_mres(hermitian.cayley_to_unitary(grassmann.point_from_chart(h)),
                    (h + 1j * eye) @ np.linalg.inv(h - 1j * eye)))
    return max(rs)


def _t_affine_part(rng, n: int) -> float:
    a = hermitian.random_r_point(n, rng)
    g = hermitian.transport_to_zero(a)
    z = np.zeros((n, n))
    eye = np.eye(n)
    swap = grassmann.ProjectiveMap(np.block([[z, eye], [eye, z]]))
    k = swap @ g  # sends a to the horizon of the standard chart
    h = algebra.random_hermitian(n, rng)
    x = grassmann.apply_map(k.inverse(), grassmann.point_from_chart(h))
    rs = [
        _bres(hermitian.membership(x, "R")),
        _bres(_meets_poles(x)),
        _bres(grassmann.is_transversal(x, a)),
    ]
    return max(rs)


def _t_cayley_hom(rng, n: int) -> float:
    x, y, z = (hermitian.random_r_point(n, rng) for _ in range(3))
    w = hermitian.unitary_torsor(x, y, z)
    ux, uy, uz = (hermitian.cayley_to_unitary(p) for p in (x, y, z))
    return _mres(hermitian.cayley_to_unitary(w), ux @ uy.conj().T @ uz)


def _t_torsor_para(rng, n: int) -> float:
    x, y, z, w, v = (hermitian.random_r_point(n, rng) for _ in range(5))
    ut = hermitian.unitary_torsor
    rs = [
        _pres(ut(ut(x, y, z), w, v), ut(x, y, ut(z, w, v))),
        _pres(ut(x, y, y), x),
        _pres(ut(y, y, z), z),
    ]
    return max(rs)


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
    pts: list = []

    def keep(p: grassmann.SubspacePoint) -> bool:
        if grassmann.transversality_margin(p, alo) > 1e-2:
            pts.append(p)
        return len(pts) == 3

    _draw(lambda: grassmann.point_from_chart(algebra.random_hermitian(n, rng)), keep, 200,
          "no tangent-chart sample at this base")
    x, y, z = pts
    unit = hermitian.tangent_unit(base)
    rs.append(_pres(hermitian.tangent_product(base, x, unit), x))
    rs.append(_pres(hermitian.tangent_product(base, unit, x), x))
    rs.append(_pres(hermitian.tangent_product(base, x, base), base))
    rs.append(_pres(
        hermitian.tangent_product(base, hermitian.tangent_product(base, x, y), z),
        hermitian.tangent_product(base, x, hermitian.tangent_product(base, y, z))))
    return max(rs)


def _t_distance(rng, n: int) -> float:
    h = algebra.random_hermitian(n, rng)
    k = int(rng.integers(0, n + 1))
    u = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    pert = u @ v.conj().T if k else np.zeros((n, n))
    x = grassmann.point_from_chart(h)
    y = grassmann.point_from_chart(h + pert)
    sub = np.random.default_rng(int(rng.integers(0, 2 ** 32)))
    dist = hermitian.arithmetic_distance(x, y, sub)
    rs = [_bres(dist == k)]
    rs.append(_bres(hermitian.arithmetic_distance(y, x, sub) == k))
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
    pq = np.linalg.solve(fam.frame, p.basis)
    m_p = pq[n:] @ np.linalg.inv(pq[:n])
    dev = m_p - fam.base
    d = fam.direction
    s = complex(np.vdot(d, dev) / np.vdot(d, d))
    resid = float(np.linalg.norm(dev - s * d)) / (1.0 + float(np.linalg.norm(m_p)))
    return resid


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


def _t_cyclic_order(rng, n: int) -> float:
    am = algebra.random_hermitian(n, rng)
    gap = algebra.random_psd(n, rng) + 0.2 * np.eye(n)
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


def _t_pure_reduction(rng, n: int) -> float:
    a = algebra.random_hermitian(n, rng)
    psi = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    psi = psi / np.linalg.norm(psi)
    o = obstate.standard_obstate(a, psi @ psi.conj().T)
    target = complex((psi.conj().T @ a @ psi)[0, 0])
    rs = [_sres(obstate.expectation(o), target), _bres(obstate.is_pure(o))]
    return max(rs)


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
    oi = obstate.standard_obstate(np.eye(n), w)
    rs.append(abs(obstate.variance(oi)))
    di = obstate.distribution(oi)
    rs.append(_bres(len(di) == 1))
    rs.append(abs(di[0][0] - 1.0) + abs(di[0][1] - 1.0))
    return max(rs)


def _t_pure_line(rng, n: int) -> float:
    a = algebra.random_hermitian(n, rng)
    psi = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    psi = psi / np.linalg.norm(psi)
    o = obstate.standard_obstate(a, psi @ psi.conj().T)
    ev = obstate.expectation(o)
    pe = obstate.pure_expectation(o)
    if is_inf(pe):
        return _bres(abs(ev) > 1e10)
    return _sres(complex(pe), ev)


def _t_positivity(rng, n: int) -> float:
    q = algebra.random_matrix(n, rng)
    h = q @ q.conj().T
    w = algebra.random_psd(n, rng) + 0.05 * np.eye(n)
    o = obstate.standard_obstate(h, w)
    rs = [
        _bres(obstate.is_cyclically_ordered(o)),
        _bres(obstate.is_positive(o)),
    ]
    ev = obstate.expectation(o)
    scale = 1.0 + abs(ev)
    rs.append(max(0.0, -ev.real) / scale)
    rs.append(abs(ev.imag) / scale)
    o2 = obstate.standard_obstate(-h - 0.05 * np.eye(n), w)
    rs.append(_bres(not obstate.is_cyclically_ordered(o2)))
    return max(rs)


# --- classical model ----------------------------------------------------------------

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
    lhs2, rhs2 = classical.pairing_invariance_check(phi, mu, f, h)
    rs.append(_sres(lhs2, rhs2))
    # and it composes: (phi o psi).h = phi.(psi.h)
    a1 = classical.density_action(comp, mu, h)
    a2 = classical.density_action(phi, mu, classical.density_action(psi, mu, h))
    rs.append(max(abs(float(a1[q]) - float(a2[q])) for q in range(m)))
    return max(rs)


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
        # interval endpoints vs the cyclic order primitive
        order = classical.cyclic_order(a, b, c)
        rs.append(_bres(classical.interval_contains(a, c, b) == order))
        # orientation: preserved by positive Mobius maps, reversed by negative
        (ma, mb, mc), det = _real_mobius(rng, (a, b, c))
        if det > 0:
            rs.append(_bres(classical.cyclic_order(ma, mb, mc) == order))
        else:
            rs.append(_bres(classical.cyclic_order(mb, ma, mc) == order))
    return max(rs)


# --- registry -----------------------------------------------------------------------

@dataclass(frozen=True)
class PropertySpec:
    pid: str
    summary: str
    tolerance: float
    trial: Callable[[np.random.Generator, int], float]
    dims: Optional[tuple] = None  # restrict to these n when set


_SPEC_LIST = [
    PropertySpec("algebra.involution",
                 "adjoint is an antimultiplicative conjugate-linear involution",
                 1e-12, _t_involution),
    PropertySpec("algebra.pstar",
                 "a b a^* respects positivity; a^* a + b^* b invertible for invertible b",
                 1e-9, _t_pstar),
    PropertySpec("algebra.homotope",
                 "u-homotope products: associativity and symmetric/antisymmetric split",
                 1e-12, _t_homotope),
    PropertySpec("algebra.trace",
                 "normalized trace is central, positive, and 1 on rank-one idempotents",
                 1e-12, _t_trace),
    PropertySpec("grassmann.chart_roundtrip",
                 "graph charts and cocharts invert exactly; bases are gauge-free",
                 1e-10, _t_chart_roundtrip),
    PropertySpec("grassmann.projector_laws",
                 "projector(x, a) is the idempotent with image x and kernel a",
                 1e-9, _t_projector_laws),
    PropertySpec("grassmann.group_action",
                 "projective maps act associatively with identity and inverses",
                 1e-9, _t_group_action),
    PropertySpec("grassmann.torsor_group",
                 "torsor product: unit laws, inverses, and para-associativity",
                 1e-7, _t_torsor_group),
    PropertySpec("grassmann.scalar_action",
                 "dilation action is multiplicative with the right fixed points",
                 1e-9, _t_scalar_action),
    PropertySpec("crossratio.n1_reduction",
                 "operator cross-ratio reduces to the scalar one at n = 1",
                 1e-10, _t_n1_reduction, dims=(1,)),
    PropertySpec("crossratio.naturality",
                 "kernel trace and determinant are invariant under projective maps",
                 1e-7, _t_naturality),
    PropertySpec("crossratio.chains",
                 "scalar cross-ratio: normalization, symmetries, Mobius invariance",
                 1e-12, _t_chains),
    PropertySpec("crossratio.transition",
                 "transition probability is a symmetric cos^2 in [0, 1]",
                 1e-9, _t_transition, dims=(1,)),
    PropertySpec("hermitian.klein_four",
                 "tau, alpha, beta are commuting involutions with beta = alpha tau",
                 1e-9, _t_klein_four),
    PropertySpec("hermitian.circle_action",
                 "circle action: additivity, pole fixing, quarter turn squares to beta",
                 1e-9, _t_circle_action),
    PropertySpec("hermitian.unitary_universe",
                 "Cayley chart is a bijection between the chart universe and unitaries",
                 1e-9, _t_unitary_universe),
    PropertySpec("hermitian.affine_part",
                 "points transversal to a universe point stay in the universe",
                 1e-9, _t_affine_part),
    PropertySpec("hermitian.cayley_hom",
                 "the unitary torsor maps to u v^* w under the Cayley chart",
                 1e-8, _t_cayley_hom),
    PropertySpec("hermitian.torsor_para",
                 "unitary torsor satisfies para-associativity and unit laws",
                 1e-7, _t_torsor_para),
    PropertySpec("hermitian.equivariance",
                 "symmetry groups commute with the involutions and preserve universes",
                 1e-9, _t_equivariance),
    PropertySpec("hermitian.tangent_algebra",
                 "transported chart multiplication: units, zeros, associativity",
                 1e-8, _t_tangent_algebra),
    PropertySpec("hermitian.distance",
                 "arithmetic distance equals perturbation rank in every chart",
                 0.5, _t_distance),
    PropertySpec("hermitian.line_chart",
                 "intrinsic lines agree as closed point sets across charts",
                 1e-7, _t_line_chart),
    PropertySpec("hermitian.cyclic_order",
                 "cyclic order is rotation-invariant and matches the scalar order at n = 1",
                 0.5, _t_cyclic_order),
    PropertySpec("obstate.conservation",
                 "expectation in the standard frame is trace(w a), homogeneous in w",
                 1e-9, _t_conservation),
    PropertySpec("obstate.pure_reduction",
                 "vector states give <psi, a psi> and are pure",
                 1e-9, _t_pure_reduction),
    PropertySpec("obstate.invariance",
                 "expectation is unchanged by symplectic transport of all four points",
                 1e-7, _t_ev_invariance),
    PropertySpec("obstate.moments",
                 "distribution weights are a probability; moments match trace formulas",
                 1e-9, _t_moments),
    PropertySpec("obstate.pure_line",
                 "line-completion expectation agrees with the kernel trace on pure states",
                 1e-6, _t_pure_line, dims=(1, 2, 3, 4)),
    PropertySpec("obstate.positivity",
                 "cyclically ordered obstates have nonnegative real expectation",
                 1e-9, _t_positivity),
    PropertySpec("classical.pairing_axioms",
                 "site pairing: bilinear, middle-associative, positive, monotone",
                 1e-12, _t_pairing_axioms),
    PropertySpec("classical.density_action",
                 "finite Radon-Nikodym densities: substitution, chain rule, invariance",
                 1e-12, _t_density_action),
    PropertySpec("classical.fn_obstate",
                 "pointwise coordinates: frame normalization and exchange symmetry",
                 1e-10, _t_fn_obstate),
    PropertySpec("classical.separation",
                 "negative cross-ratio iff the pairs separate each other on the circle",
                 0.5, _t_separation),
]

SPECS = {spec.pid: spec for spec in _SPEC_LIST}


def property_ids() -> list:
    return [spec.pid for spec in _SPEC_LIST]


def sub_seed(seed: int, pid: str, trial: int) -> int:
    digest = hashlib.sha256(f"{seed}:{pid}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_property(spec: PropertySpec, n_list: Sequence[int], trials: int,
                 seed: int, tol: Optional[float] = None) -> dict:
    tolerance = spec.tolerance if tol is None else float(tol)
    ns = [n for n in n_list if spec.dims is None or n in spec.dims]
    if not ns:
        ns = list(spec.dims) if spec.dims else list(n_list)
    pass_count = 0
    fail_count = 0
    worst = 0.0
    worst_is_inf = False
    example = None
    for i in range(trials):
        n = ns[i % len(ns)]
        s = sub_seed(seed, spec.pid, i)
        rng = np.random.default_rng(s)
        error = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", grassmann.TransversalityWarning)
            try:
                residual = float(spec.trial(rng, n))
            except Exception as exc:  # noqa: BLE001 - a raising trial is a failure
                residual = float("inf")
                error = f"{type(exc).__name__}: {exc}"
        if np.isfinite(residual):
            worst = max(worst, residual)
        else:
            worst_is_inf = True
        if residual <= tolerance:
            pass_count += 1
        else:
            fail_count += 1
            if example is None:
                example = {
                    "trial": i,
                    "n": n,
                    "sub_seed": s,
                    "residual": residual if np.isfinite(residual) else "inf",
                }
                if error is not None:
                    example["error"] = error
    result = {
        "summary": spec.summary,
        "tolerance": tolerance,
        "pass_count": pass_count,
        "fail_count": fail_count,
        "worst_residual": "inf" if worst_is_inf else worst,
        "ok": fail_count == 0,
    }
    if example is not None:
        result["example_failure"] = example
    return result


def run_sweep(n_list: Sequence[int] = DEFAULT_N_LIST,
              trials: int = DEFAULT_TRIALS, seed: int = 0,
              properties: Optional[Iterable[str]] = None,
              tol: Optional[float] = None) -> dict:
    """Run the registry and return a deterministic, JSON-ready report."""
    if properties is None:
        selected = list(_SPEC_LIST)
    else:
        wanted = list(properties)
        unknown = [pid for pid in wanted if pid not in SPECS]
        if unknown:
            raise KeyError(f"unknown property ids: {', '.join(sorted(unknown))}")
        selected = [spec for spec in _SPEC_LIST if spec.pid in wanted]
    results = {}
    for spec in selected:
        results[spec.pid] = run_property(spec, n_list, trials, seed, tol=tol)
    return {
        "schema": 1,
        "seed": int(seed),
        "n_list": [int(n) for n in n_list],
        "trials": int(trials),
        "properties": results,
        "ok": all(r["ok"] for r in results.values()),
    }
