"""Kernel functions and cross-ratios.

The operator-valued cross-ratio CR(y, b; x, a) is the endomorphism
K_{x,a}(b, y) = beta o eta of x, where beta is the graph map of b over
a into x and eta the graph map of y over x into a, both taken in the
splitting A^2 = a (+) x.  Scalars are extracted by trace or
determinant; both are conjugation invariants, so the scalar cross-ratio
is invariant under the whole projective group acting on all four slots.

The classical four-point cross-ratio on the scalar projective line is
evaluated in homogeneous coordinates,

    CR(a, b; c, d) = det(c, a) det(d, b) / (det(c, b) det(d, a)),

which reduces to (c - a)(d - b) / ((c - b)(d - a)) on finite values and
handles every placement of the point at infinity by exact case-free
arithmetic (an infinite slot simply contributes the pair (1, 0); no
IEEE infinities are ever formed).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import algebra, grassmann
from .errors import (
    DegenerateError,
    DimensionError,
    IndeterminateError,
    NonFiniteError,
    SingularError,
    ValueOverflowError,
)
from .grassmann import SubspacePoint


class Infinity:
    """The point at infinity of the scalar projective line (singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other) -> bool:
        return isinstance(other, Infinity)

    def __hash__(self) -> int:
        return hash("apline-infinity")


INF = Infinity()


def is_inf(v) -> bool:
    return isinstance(v, Infinity)


# Infinity.__new__ returns its one instance, so on the package's hot paths the test
# v is INF stands for is_inf(v).

def _homogeneous(v) -> tuple[complex, complex]:
    """Extended scalar -> homogeneous pair (p, q) with value p/q; INF -> (1, 0)."""
    if type(v) is float and math.isfinite(v):  # the common case: _as_complex(v) is complex(v)
        return (complex(v), 1.0 + 0j)
    if v is INF:
        return (1.0 + 0j, 0j)
    z = algebra._as_complex(v, "scalar values")
    if not cmath.isfinite(z):  # a float inf or nan is not the point INF
        raise NonFiniteError("scalar values must be finite numbers or INF")
    return (z, 1.0 + 0j)


def _det(u: tuple, v: tuple) -> complex:
    return u[0] * v[1] - u[1] * v[0]


def proj_equal(u, v) -> bool:
    """Projective equality of extended scalars (exact on the homogeneous pair)."""
    return _det(_homogeneous(u), _homogeneous(v)) == 0


def classical_cr(a, b, c, d):
    """The classical cross-ratio CR(a, b; c, d) = (c-a)(d-b)/((c-b)(d-a)).

    Arguments are real or complex numbers or INF; at least three of the
    four must be pairwise distinct (projectively).  Returns INF when the
    denominator vanishes and the numerator does not; raises
    IndeterminateError when both vanish.  Real inputs give a real float.
    Where a product of the formula leaves the float range, it is evaluated
    on exact power-of-two rescales; a value beyond the float range raises
    ValueOverflowError.
    """
    ha, hb, hc, hd = homogeneous = [_homogeneous(v) for v in (a, b, c, d)]
    # A determinant is the difference of two finite values rounded once, or +-1 or 0 with
    # INF, so it is 0 exactly when its two points are equal.  Its products can overflow or
    # underflow, so INF and 0/0 are decided on the determinants themselves.
    d_ca, d_db, d_cb, d_da = _det(hc, ha), _det(hd, hb), _det(hc, hb), _det(hd, ha)
    num, den = d_ca * d_db, d_cb * d_da
    if den and cmath.isfinite(num) and cmath.isfinite(den):
        value = num / den
        # the quotient can overflow, and a product of nonzero determinants underflow to 0
        if not cmath.isfinite(value) or (not num and d_ca and d_db):
            value = _rescaled_cr(ha, hb, hc, hd)
    elif not (d_cb and d_da):
        if not (d_ca and d_db):
            raise IndeterminateError(
                "cross-ratio is 0/0: fewer than three distinct values")
        return INF
    else:  # a product overflowed, or the denominator underflowed to 0
        value = _rescaled_cr(ha, hb, hc, hd) if d_ca and d_db else 0j
    real = all(p.imag == 0 for p, _ in homogeneous)
    return float(value.real) if real else value


def _rescaled_cr(ha, hb, hc, hd) -> complex:
    """CR(a, b; c, d) of four nonzero determinants of the pairs, on exact power-of-two rescales.

    A determinant that overflows, the difference of two finite values near
    the float range, is taken of its two pairs halved, and counts 4 times
    that.  Each determinant is then scaled by the power of two that brings
    its largest real or imaginary part into [0.5, 1), the quotient of the
    scaled ones is taken, finite and nonzero, and the powers of two are
    applied last.  A value beyond the float range raises ValueOverflowError;
    one below it rounds to 0 or a subnormal.
    """
    scaled, exponent = [], 0
    for k, (u, v) in enumerate(((hc, ha), (hd, hb), (hc, hb), (hd, ha))):
        det, e = _det(u, v), 0
        if not cmath.isfinite(det):
            det, e = _det((u[0] / 2, u[1] / 2), (v[0] / 2, v[1] / 2)), 2
        m = math.frexp(max(abs(det.real), abs(det.imag)))[1]
        scaled.append(_ldexp(det, -m))
        exponent += e + m if k < 2 else -e - m
    try:
        return _ldexp(scaled[0] * scaled[1] / (scaled[2] * scaled[3]), exponent)
    except OverflowError:
        raise ValueOverflowError(
            "the cross-ratio of these values is beyond the float range") from None


def _ldexp(z: complex, k: int) -> complex:
    """z 2**k, exact where it neither overflows (OverflowError) nor underflows."""
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def ratio(c, b, a):
    """The affine (division) ratio R(c, b, a) = (c - a)/(b - a).

    Satisfies R(a, b, c) = CR(a, b; c, infinity); in particular
    ratio(a, 1, 0) = a.
    """
    if proj_equal(a, b):
        raise DegenerateError("ratio needs a != b")
    return classical_cr(c, b, a, INF)


# --- the operator-valued cross-ratio ------------------------------------------

@dataclass(frozen=True)
class EndoX:
    """An endomorphism of the subspace x, expressed in x's stored basis.

    Trace and determinant do not depend on the basis stored in x (they
    are conjugation invariants of the underlying endomorphism).
    """

    matrix: np.ndarray

    @property
    def trace(self) -> complex:
        return algebra.trace_normalized(self.matrix)

    @property
    def det(self) -> complex:
        return complex(algebra.det(self.matrix))


# Product of two transversality margins at or above which a graph block of
# kernel is invertible by the margins alone (see kernel).
_MARGIN_PRODUCT_BOUND = 1e-6


def kernel(x: SubspacePoint, a: SubspacePoint, b: SubspacePoint,
           y: SubspacePoint) -> EndoX:
    """The canonical kernel K_{x,a}(b, y) = beta o eta in End(x).

    b must be transversal to x and y transversal to a; beta: a -> x is
    the graph map of b and eta: x -> a the graph map of y, both w.r.t.
    the splitting A^2 = a (+) x.  CR(y, b; x, a) := K_{x,a}(b, y).

    When x is the base point 0 and a the base point infinity (the objects
    zero_point(n) and infinity_point(n), not points merely equal to them),
    the kernel is cochart(b) chart(y), read from the points' memos; any
    other pair runs one solve.  Both give the same matrix: each nonzero
    real or imaginary part bit for bit, and a zero part zero (its sign
    may differ).
    """
    m_xa, m_bx, m_ya = grassmann._require_transversal((
        (x, a, "kernel needs transversal reference pair (x, a)"),
        (b, x, "kernel needs b in U_x"),
        (y, a, "kernel needs y in U_a")))
    if grassmann._is_zero_point(x) and grassmann._is_infinity_point(a):
        # The QR gives 0 and infinity the bases [I; 0] and -[0; I], so [A | X] is a
        # signed permutation and the solve below is exact: c = -q_b, d = p_b, cy = -q_y
        # and dy = p_y.  Negation commutes with every rounding, so beta = -p_b q_b^-1
        # and eta = -q_y p_y^-1, and the signs cancel in beta eta.  This holds bit for
        # bit for every nonzero real and imaginary part; the solve's substitutions can
        # flip the sign of an exact zero (diagonal charts show it), and no nonzero
        # value depends on that sign.  The gate passed b against 0 and y against
        # infinity, by their graph tags or by sines it cached: either settles the
        # chart guards without an SVD (see grassmann._guard), and the block checks
        # below could not fail either.
        return EndoX(grassmann._cochart_value(b) @ grassmann._chart_value(y))
    n = x.n
    # one solve of [A | X] [[c, cy], [d, dy]] = [B | Y]: b = A c + X d is the graph
    # of beta: a -> x, and y = A cy + X dy the graph of eta: x -> a
    coords = algebra.solve(np.concatenate((a.basis, x.basis), axis=1),
                           np.concatenate((b.basis, y.basis), axis=1))
    c, d, cy, dy = coords[:n, :n], coords[n:, :n], coords[:n, n:], coords[n:, n:]
    # [B | X] = [A | X] [[c, 0], [d, I]], so cond(c) <= cond([B | X]) cond([A | X])
    # and sigma_min(c) / sigma_max(c) >= m_bx m_xa: the check below cannot fail
    if m_bx * m_xa < _MARGIN_PRODUCT_BOUND and not algebra.is_invertible(c):
        raise SingularError("graph decomposition of b is degenerate")
    beta = d @ algebra.proven_inverse(c)
    # [A | Y] = [A | X] [[I, cy], [0, dy]]: likewise sigma_min(dy) / sigma_max(dy) >= m_ya m_xa
    if m_ya * m_xa < _MARGIN_PRODUCT_BOUND and not algebra.is_invertible(dy):
        raise SingularError("graph decomposition of y is degenerate")
    eta = cy @ algebra.proven_inverse(dy)
    return EndoX(beta @ eta)


def cp1_value(x: SubspacePoint):
    """The scalar value of an n = 1 point: second over first coordinate, or INF."""
    if x.n != 1:
        raise DimensionError("cp1_value needs an n = 1 point")
    p, q = complex(x.basis[0, 0]), complex(x.basis[1, 0])
    if abs(p) <= grassmann.TRANSVERSALITY_RTOL * abs(q):
        return INF
    return q / p


def transition_probability(x: SubspacePoint, y: SubspacePoint) -> float:
    """cos^2 of the angle between two lines in C^2 (n = 1 only).

    |<x, y>|^2 / (<x, x> <y, y>) on representative vectors; equals the
    cross-ratio CR(x, y; alpha(y), alpha(x)) of the four points.
    """
    if x.n != 1 or y.n != 1:
        raise DimensionError("transition_probability is defined for n = 1 only")
    ip = (x.basis.conj().T @ y.basis)[0, 0]  # bases are unit vectors
    return float(abs(ip) ** 2)
