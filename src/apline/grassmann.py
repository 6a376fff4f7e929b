"""Points of the projective line over A = M(n, C).

A point is an n-dimensional right-submodule of A^2, realized as an
n-dimensional subspace of C^{2n} and stored through an orthonormal
basis (thin QR canonical form).  Equality compares orthogonal
projectors, never bases: generators of a right module are only defined
up to GL(n, C).

The standard chart sends a matrix a to the graph point span[I; a]; its
horizon is the point at infinity span[0; I].  The cochart sends w to
the transposed graph span[w; I] (the graph of w over the second
summand), whose horizon is the zero point; states of the obstate layer
live in the cochart.

Rank, invertibility and transversality are checked once, where they can
fail: the public constructors (SubspacePoint, ProjectiveMap) and the
guarded public functions (through _require_transversal) check every input.
Inside the package, results whose rank the inputs already prove are built
by the private constructors SubspacePoint._full_rank (QR only) and
ProjectiveMap._invertible (no SVD); each call site states the proof in
one line.  Both build the same bits as their public counterparts.

A value that one point alone determines, such as its chart value, is
computed once per point: functions decorated with _memoized keep their
result in the point's memo.  A value of an ordered pair of points (x, a),
such as their principal-angle sines or the projector with image x and
kernel a, is kept in x's memo while a lives, keyed by the object a and
holding it only weakly (see _pair_value); sines to the base points 0 and
infinity are kept there too, and so is the image of x under a live
projective map (see apply_map).  The memo also holds two name tags: a base
point's own name, and a graph point's chart horizon, which the gate and
the chart guard against that horizon accept without an SVD.  An image
under a map holds a source tag, weak references to the map and the point,
from which the gate bounds the margin of two images under one map.
"""

from __future__ import annotations

import cmath
import math
import warnings
import weakref
from functools import wraps

import numpy as np

from . import algebra
from .algebra import TOL_EQ, TOL_INV
from .errors import (
    DimensionError,
    NonFiniteError,
    NotInChartError,
    NotTransversalError,
    ResamplingExhausted,
    SingularError,
)

# Smallest/largest singular value ratio of [basis(x) | basis(a)] above
# which two points count as transversal: tan(theta_1 / 2) for their smallest
# principal angle theta_1, computed from its sine (see transversality_margin).
# A principal angle whose tan(theta / 2) is at or below it counts as zero.
TRANSVERSALITY_RTOL = 1e-8


class TransversalityWarning(UserWarning):
    """A transversality margin fell within a decade of the threshold."""


class SubspacePoint:
    """An n-dimensional subspace of C^{2n} with orthonormal stored basis."""

    __slots__ = ("n", "basis", "_memo", "__weakref__")

    def __init__(self, columns):
        cols = np.asarray(algebra._numeric(columns, "basis"), dtype=complex)
        if cols.ndim != 2 or cols.shape[0] != 2 * cols.shape[1] or not cols.size:
            raise DimensionError(
                f"a point of the projective line needs a 2n x n basis, n >= 1, got {cols.shape}")
        if not algebra._all_finite(cols):
            raise NonFiniteError("basis entries must be finite")
        # cols = Q R with Q orthonormal, so cols and the n x n factor R share singular values;
        # R's diagonal and norm settle the rank rule, or else its SVD does
        if not algebra._triangular_full_rank(self._canonicalize(cols)):
            raise SingularError("basis columns are rank deficient")

    @classmethod
    def _full_rank(cls, columns: np.ndarray) -> "SubspacePoint":
        """The point spanned by 2n x n columns whose full rank the caller has proven.

        Skips the rank test of __init__ and runs the same QR, so the basis
        is bitwise equal to SubspacePoint(columns).basis.
        """
        x = cls.__new__(cls)
        x._canonicalize(np.asarray(columns, dtype=complex))
        return x

    def _canonicalize(self, cols: np.ndarray) -> np.ndarray:
        """Store the orthonormal factor Q of cols = Q R; return the QR's packed factor F.

        R is np.triu(F[:n]), bitwise numpy's (see algebra.thin_qr).  Finite
        columns near the float range can overflow in the QR; that is an
        error naming their scale, never a NaN basis.
        """
        q, packed = algebra.thin_qr(cols)
        self.n = cols.shape[1]
        q.setflags(write=False)
        self.basis = q
        self._memo = {}
        return packed

    @property
    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace (cached, read-only)."""
        return _orthogonal_projector(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubspacePoint):
            return NotImplemented
        if self.n != other.n:
            return False
        return point_eq(self, other)

    __hash__ = None  # float-tolerant equality is not hashable

    def __repr__(self) -> str:
        return f"SubspacePoint(n={self.n})"


_UNSET = object()


def _memoized(fn):
    """Cache fn(x) in the memo of the point x, which it lives and dies with.

    Only for functions of x's read-only basis alone that cannot warn, so a
    cached value is the bits a new call would compute and no warning is
    lost.  An exception is not cached: every call raises it again.  A
    cached array must be read-only; a cached point (an involution's image)
    is shared by every caller.  A value of x and a second point is cached
    by _pair_value instead.
    """
    @wraps(fn)
    def cached(x: SubspacePoint):
        value = x._memo.get(cached, _UNSET)
        if value is _UNSET:
            value = x._memo[cached] = fn(x)
        return value
    return cached


def _pair_value(fn, x: SubspacePoint, a):
    """fn(x, a), cached in x's memo for as long as the object a lives.

    The second object a is a point or a ProjectiveMap.  The table
    x._memo[fn] maps id(a) to (a weak reference to a, the value), and an
    entry is read only while its reference still gives a.  Like _memoized,
    only for functions of x's read-only basis and a's read-only basis or rep
    alone that cannot warn; a value is a read-only array, a bool or a point (a
    map's image of x), shared by every caller.  The one value that is not the bits
    a new call would compute is the gate's first answer for two images
    (see _moved_pair_margin).  An exception is not cached.
    When a dies, its reference's callback removes the entry.  The callback
    reaches x only through a weak reference, so the cache forms no
    reference cycle, a long-lived point such as a base point keeps no dead
    entries, and x and a are each freed by reference counting alone.
    """
    table = x._memo.get(fn)
    if table is None:
        table = x._memo[fn] = {}
    key = id(a)
    entry = table.get(key)
    if entry is not None and entry[0]() is a:
        return entry[1]
    value = fn(x, a)

    # a's reference calls this when a dies; the defaults bind x weakly, and no cell of
    # this frame is made on the hit path
    def forget(ref, x_ref=weakref.ref(x), fn=fn, key=key):
        x = x_ref()
        if x is not None:
            x._memo.get(fn, {}).pop(key, None)
    table[key] = (weakref.ref(a, forget), value)
    return value


@_memoized
def _orthogonal_projector(x: SubspacePoint) -> np.ndarray:
    p = x.basis @ x.basis.conj().T
    p.setflags(write=False)
    return p


def point_eq(x: SubspacePoint, y: SubspacePoint) -> bool:
    """Basis-independent equality: ||P_x - P_y|| <= TOL_EQ (relative)."""
    # orthogonal projectors of orthonormal bases have entries of modulus at most 1 and
    # norm sqrt(n), so no norm here overflows and almost_equal needs no rescale
    return algebra.almost_equal(x.projector, y.projector)


def is_orthocomplement(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether span(y) is the orthocomplement of span(x); x, y orthonormal 2n x n.

    For orthonormal bases ||P_y - (I - P_x)||_F = sqrt(2) ||x* y||_F, and
    every rank-n orthogonal projector has Frobenius norm sqrt(n), so this
    is point_eq(y, x-perp) at the same tolerance without building x-perp:
    one n x n Gram matrix, no factorization.
    """
    gram = x.conj().T @ y
    return algebra._SQRT2 * algebra.norm(gram) <= TOL_EQ * (1.0 + math.sqrt(x.shape[1]))


# --- base points and charts -------------------------------------------------

@algebra.sized_cache
def zero_point(n: int) -> SubspacePoint:
    """The base point 0 = [(1, 0)] = span[I; 0]; one cached point per n, shared and read-only."""
    return _base_point(np.concatenate((algebra._eye(n), np.zeros((n, n)))), "zero")


@algebra.sized_cache
def infinity_point(n: int) -> SubspacePoint:
    """The base point oo = [(0, 1)] = span[0; I]; one cached point per n, shared and read-only.

    The sines between 0 and infinity, the chart value of 0 and the cochart
    value of infinity, which reports in their frame read, are computed
    here, once per n.
    """
    infinity = _base_point(np.concatenate((np.zeros((n, n)), algebra._eye(n))), "infinity")
    zero = zero_point(n)
    _sines(zero, infinity)
    _sines(infinity, zero)
    _chart_value(zero)  # A0's order value; the sines just cached settle both guards
    _cochart_value(infinity)  # a pure state's line through infinity
    return infinity


def _base_point(columns: np.ndarray, name: str) -> SubspacePoint:
    """SubspacePoint(columns), whose memo holds its name, "zero" or "infinity".

    The gate and _guard read that name, so telling a base point needs no
    call of zero_point or infinity_point, which would build one.
    """
    a = SubspacePoint(columns)
    a._memo[_base_point] = name
    return a


def _is_zero_point(x: SubspacePoint) -> bool:
    """Whether x is a base point 0 built by zero_point, told by its memo tag (builds none)."""
    return x._memo.get(_base_point) == "zero"


def _is_infinity_point(x: SubspacePoint) -> bool:
    """Whether x is a base point infinity built by infinity_point, told by its memo tag."""
    return x._memo.get(_base_point) == "infinity"


@algebra.sized_cache
def one_point(n: int) -> SubspacePoint:
    """The base point 1 = [(1, 1)] = span[I; I]; one cached point per n, shared and read-only."""
    eye = algebra._eye(n)
    return SubspacePoint(np.concatenate((eye, eye)))


# Frobenius norm of a chart value up to which its graph basis is built
# without the rank test and tagged with its chart's horizon (see _graph_point).
_GRAPH_NORM_BOUND = 1e6

# A lower bound on the transversality margin of a tagged graph point to its
# horizon, which _require_transversal returns instead of the margin.
_GRAPH_MARGIN_BOUND = 0.49 / _GRAPH_NORM_BOUND

# A cached sine of a point to a base point and the matching computed
# singular value of its chart block differ by under this slack: rounding moves
# the basis off orthonormal, and each computed singular value, by a few n eps,
# under 1e-11 for n <= 10^4.
_SINE_ROUNDING = 1e-11


def _graph_point(cols: np.ndarray, value: np.ndarray, horizon: str) -> SubspacePoint:
    """SubspacePoint(cols) for a graph basis [I; a] or [a; I] of the chart value a.

    A graph basis always has full rank: its singular values are
    sqrt(1 + s_i(a)^2), so their ratio is at least 1/sqrt(1 + ||a||_F^2).
    For ||a||_F <= _GRAPH_NORM_BOUND that is above 1e-6, four decades over
    TOL_INV, and the rank check cannot fail; n max|a_ij| bounds ||a||_F
    without squaring an entry.  A larger value runs the check, which can
    reject it only for the dynamic range of a, and the error says that; a
    non-finite value fails SubspacePoint's finiteness check instead.

    A point built under the bound is tagged with the name of its chart's
    horizon ("infinity" for [I; a], "zero" for [a; I]), the name _base_point
    gives that base point.  Its orthonormal basis is [I; a](I + a* a)^(-1/2)
    (or [a; I](...)), so its sines to the horizon are
    1/sqrt(1 + s_i(a)^2) >= 1/sqrt(1 + 1e12) > 0.9999e-6.  The QR's backward
    error moves ||a|| by a relative 1e-9 at most, and a computed sine is off
    by under _SINE_ROUNDING, so the computed margin tan(theta / 2) >= s / 2
    exceeds (0.9999e-6 - 1e-11) / 2 > _GRAPH_MARGIN_BOUND = 4.9e-7, over ten
    times the warning decade, and the point's block in the chart with that
    horizon is invertible far above TRANSVERSALITY_RTOL (see _guard).
    """
    token = algebra._set_errors(over="ignore", invalid="ignore")
    try:
        bound = value.shape[0] * np.abs(value).max(initial=0.0)
    finally:
        algebra._leave(token)
    if value.size and bound <= _GRAPH_NORM_BOUND:
        x = SubspacePoint._full_rank(cols)
        x._memo[_graph_point] = horizon
        return x
    try:
        return SubspacePoint(cols)
    except SingularError:
        chart = "chart" if horizon == "infinity" else "cochart"
        scale = algebra.singular_values(value)[0]
        raise SingularError(
            f"{chart} value of scale {scale:.3e} (largest singular value) is out of "
            f"range: its graph basis has condition number at or above 1/TOL_INV = "
            f"{1 / TOL_INV:.0e}") from None


def point_from_chart(a) -> SubspacePoint:
    """The graph point of a: column span of [I; a]."""
    a = algebra.as_matrix(a)
    return _graph_point(np.concatenate((algebra._eye(a.shape[0]), a)), a, "infinity")


def chart_repr(x: SubspacePoint) -> np.ndarray:
    """Left inverse of point_from_chart; requires x transversal to infinity.

    With basis split [p; q], the chart value is q p^{-1}.  It is computed
    once per point (see _chart_value); the result is a new writable array.
    """
    return _chart_value(x).copy()


@_memoized
def _chart_value(x: SubspacePoint) -> np.ndarray:
    """chart_repr(x), read-only and cached on x; NotInChartError is raised on every call.

    The point's tag or cached sines can settle the guard without its SVD (see _guard).
    """
    n = x.n
    value = _graph_value(x.basis[n:, :], x.basis[:n, :], _guard(x, "infinity"), "infinity")
    value.setflags(write=False)
    return value


@_memoized
def _hermitian_parts(x: SubspacePoint) -> tuple:
    """(gap, size, h) of x's chart value a, cached on x: algebra.hermitian_gap(a), on which
    algebra._hermitian_within decides at every tolerance, so a is tested once whatever the
    callers' tolerances, and h = (a + a*) / 2 (read-only).  NotInChartError on every call."""
    return _gap_size_symmetrization(_chart_value(x))


@_memoized
def _cochart_hermitian_parts(x: SubspacePoint) -> tuple:
    """_hermitian_parts of x's cochart value, cached on x; NotInChartError on every call."""
    return _gap_size_symmetrization(_cochart_value(x))


def _gap_size_symmetrization(a: np.ndarray) -> tuple:
    gap, size = algebra.hermitian_gap(a)
    h = (a + a.conj().T) / 2
    h.setflags(write=False)
    return gap, size, h


# Smallest cached sine of a point to the horizon of a chart above which its
# chart block passes the invertibility test without the SVD (see _guard).
_HORIZON_SINE_BOUND = 1.5 * TRANSVERSALITY_RTOL


def _guard(x: SubspacePoint, horizon: str):
    """The invertibility test of _graph_value on x's block in the chart whose horizon
    is the base point named horizon, as x's memo settles it: True, False, or None.

    As p* p + q* q = I for x's basis [p; q], the singular values of p are the
    sines of the principal angles to infinity, and those of q the sines to 0;
    computed, they differ from x's cached sines by under d = _SINE_ROUNDING.
    They are read from x's pair table, under a live partner with the name
    horizon.  No base point is built here: infinity_point calls this before
    its own cache entry exists, and a call of it would re-enter it.
    - A graph point tagged with the horizon has every sine above 0.9999e-6 (see
      _graph_point): the test passes.
    - A smallest sine above _HORIZON_SINE_BOUND gives s_min(block) > 1.5e-8 -
      d > TRANSVERSALITY_RTOL (1 + d) >= TRANSVERSALITY_RTOL s_max(block): the
      test passes.  A passing margin tan(theta / 2) > TRANSVERSALITY_RTOL gives
      the sine tan(theta / 2) (1 + cos theta) > 1.99 TRANSVERSALITY_RTOL, so
      every point a gate has measured against the horizon passes here.
    - s_min + d < TRANSVERSALITY_RTOL (s_max - d) gives s_min(block) <
      TRANSVERSALITY_RTOL s_max(block): the test fails.
    """
    if x._memo.get(_graph_point) == horizon:
        return True
    # a copy of the entries: a partner freed during the scan edits the table
    for ref, sines in tuple(x._memo.get(_principal_sines, {}).values()):
        a = ref()
        if a is not None and a._memo.get(_base_point) == horizon:
            break
    else:
        return None
    if sines[-1] > _HORIZON_SINE_BOUND:
        return True
    d = _SINE_ROUNDING
    return False if sines[-1] + d < TRANSVERSALITY_RTOL * (sines[0] - d) else None


def _graph_value(top: np.ndarray, block: np.ndarray, settled, horizon: str) -> np.ndarray:
    """top block^-1 for the blocks of a point's basis [p; q] in a chart (a new array).

    Raises NotInChartError unless algebra.is_invertible(block,
    tol=TRANSVERSALITY_RTOL); settled, when not None, is that test's result
    as the point's memo proves it (see _guard), and the SVD is skipped.  The
    block is finite, so the test cannot raise.
    """
    if not (algebra.is_invertible(block, tol=TRANSVERSALITY_RTOL) if settled is None
            else settled):
        raise NotInChartError(f"point is not transversal to {horizon}")
    return top @ algebra.proven_inverse(block)


def point_from_cochart(w) -> SubspacePoint:
    """The transposed graph of w: column span of [w; I].

    This is the chart with horizon 0 instead of infinity; the obstate
    layer stores densities here so that transversality to 0 is automatic
    (the concatenated matrix [[I, w], [0, I]] is always invertible).
    """
    w = algebra.as_matrix(w)
    return _graph_point(np.concatenate((w, algebra._eye(w.shape[0]))), w, "zero")


def cochart_repr(x: SubspacePoint) -> np.ndarray:
    """Left inverse of point_from_cochart; requires x transversal to 0.

    With basis split [p; q], the cochart value is p q^{-1}.  It is computed
    once per point (see _cochart_value); the result is a new writable array.
    """
    return _cochart_value(x).copy()


@_memoized
def _cochart_value(x: SubspacePoint) -> np.ndarray:
    """cochart_repr(x), read-only and cached on x; NotInChartError is raised on every call."""
    n = x.n
    value = _graph_value(x.basis[:n, :], x.basis[n:, :], _guard(x, "zero"), "zero")
    value.setflags(write=False)
    return value


# --- transversality and projectors ------------------------------------------

def transversality_margin(x: SubspacePoint, a: SubspacePoint) -> float:
    """sigma_min / sigma_max of the 2n x 2n concatenation [basis(x) | basis(a)].

    For orthonormal X and A the singular values of [X | A] are
    sqrt(1 +- cos theta_i) over the principal angles theta_i between the
    points, so the ratio is tan(theta_1 / 2) for the smallest angle
    theta_1, computed from its sine (see _half_angle_tangent).  The sines
    are those of _sines, which hermitian.arithmetic_distance counts, so
    the margin passes TRANSVERSALITY_RTOL exactly when that distance is n.
    """
    return _half_angle_tangent(_sines(x, a)[-1])


def _half_angle_tangent(sine) -> float:
    """tan(theta / 2) = s / (1 + sqrt(1 - s^2)) of an angle theta in [0, pi/2] with sine s.

    No cancellation at small angles; a sine rounded above 1 counts as 1.
    """
    s = min(float(sine), 1.0)
    return s / (1.0 + math.sqrt(1.0 - s * s))


def _sines(x: SubspacePoint, a: SubspacePoint) -> np.ndarray:
    """The sines of the principal angles between x and a, in descending order (read-only).

    Cached on x while a lives (see _pair_value), a base point included.
    """
    if x.n != a.n:
        raise DimensionError(f"dimension mismatch: {x.n} vs {a.n}")
    return _pair_value(_principal_sines, x, a)


def _principal_sines(x: SubspacePoint, a: SubspacePoint) -> np.ndarray:
    """The singular values of A - X (X* A): the sines, from one 2n x n SVD (read-only)."""
    sines = algebra.singular_values(a.basis - x.basis @ (x.basis.conj().T @ a.basis))
    sines.setflags(write=False)
    return sines


def is_transversal(x: SubspacePoint, a: SubspacePoint) -> bool:
    """True iff A^2 = x (+) a, i.e. [basis(x) | basis(a)] is invertible."""
    try:
        return bool(_require_transversal(((x, a, ""),)))
    except NotTransversalError:
        return False


def _cached_sine(x: SubspacePoint, a: SubspacePoint):
    """The smallest sine of (x, a) kept in x's or a's pair table, or None (computes nothing).

    Principal angles are symmetric, so either order's sines serve.
    """
    for p, q in ((x, a), (a, x)):
        entry = p._memo.get(_principal_sines, {}).get(id(q))
        if entry is not None and entry[0]() is q:
            return entry[1][-1]
    return None


def _moved_pair_slack(cond: float) -> float:
    """The rounding slack of a sine of two images under a map of condition number cond.

    d = _SINE_ROUNDING for the moved pair's computed sine, 2 d cond for the
    rounding of G X and of one Householder QR in both images, and d for the
    computed cond (see _moved_pair_bound).
    """
    return _SINE_ROUNDING * (2.0 + 2.0 * cond)


def _moved_pair_margin(x: SubspacePoint, a: SubspacePoint):
    """A proven lower bound on transversality_margin(x, a) for two images, or None.

    The first answer for two images is kept in x's pair table while a lives
    (see _moved_pair_bound).  A bound stays proven when the map or a source
    dies; after None the gate measures the pair, and keeps its sines.
    """
    if apply_map not in x._memo or apply_map not in a._memo:
        return None
    return _pair_value(_moved_pair_bound, x, a)


def _moved_pair_bound(x: SubspacePoint, a: SubspacePoint):
    """A lower bound on transversality_margin(x, a) for two images under one live map, proven
    from a cached sine of their sources; or None, when no bound is known.

    For complementary subspaces X and A the oblique projector P onto X along
    A has 2-norm 1 / sin theta_min(X, A) (Ipsen & Meyer 1995; Szyld 2006), and
    the projector onto GX along GA is G P G^-1.  So for G of condition number
    k, sin theta_min(GX, GA) >= sin theta_min(X, A) / k.  In floating point,
    with d = _SINE_ROUNDING:
    - the cached sine s of the sources is within d of the exact sine of their
      stored bases, and the map's cond (from its SVD, or proven by its
      builder) is off by a relative few n eps k, which moves s / k by under d;
    - the image's stored basis spans G X + E, where the rounding of G X and
      of one Householder QR gives ||E|| <= few n eps ||G||; relative to
      s_min(G X) >= s_min(G) that moves each image by under d k in sine;
    - the images' computed sine is within d of their exact one.
    So the sine the gate would compute is at least (s - d) / k -
    _moved_pair_slack(k), and its half-angle tangent, which is increasing,
    bounds the margin from below.  The bound is returned only above
    10 TRANSVERSALITY_RTOL plus the slack: the margin passes and is above the
    warning decade.  A dead map or source, images under two maps, sources
    without a cached sine or a map without cond give None.
    """
    x_source, a_source = x._memo[apply_map], a._memo[apply_map]
    g = x_source[0]()
    if g is None or g is not a_source[0]() or g._cond is None:
        return None
    x0, a0 = x_source[1](), a_source[1]()
    sine = None if x0 is None or a0 is None else _cached_sine(x0, a0)
    if sine is None:
        return None
    slack = _moved_pair_slack(g._cond)
    bound = _half_angle_tangent(max((sine - _SINE_ROUNDING) / g._cond - slack, 0.0))
    return bound if bound > 10 * TRANSVERSALITY_RTOL + slack else None


def _require_transversal(pairs, error=NotTransversalError) -> tuple:
    """The margins of the (x, a, message) triples in pairs, in order.

    Raises error(message) at the first pair that is not transversal, and
    warns within a decade of the threshold (at the guarded function's caller).
    A pair of a graph point x tagged with its horizon and the base-point object
    a of that horizon passes with no SVD and no warning: its margin is above
    _GRAPH_MARGIN_BOUND (see _graph_point), which is returned in its place.
    So does a pair of two images under one live map whose sources' sine is
    cached, when that sine proves a margin above the warning decade: the
    bound is returned (see _moved_pair_margin) and no sine is cached.  A point
    merely equal to a graph point or to a base point is measured, and so is
    every other pair.
    """
    margins = []
    for x, a, message in pairs:
        horizon = x._memo.get(_graph_point)
        if horizon is not None and a._memo.get(_base_point) == horizon and x.n == a.n:
            margins.append(_GRAPH_MARGIN_BOUND)
            continue
        bound = _moved_pair_margin(x, a)
        if bound is not None:
            margins.append(bound)
            continue
        margin = transversality_margin(x, a)
        if TRANSVERSALITY_RTOL < margin < 10 * TRANSVERSALITY_RTOL:
            warnings.warn(
                f"transversality margin {margin:.3e} is within a decade of the "
                f"threshold {TRANSVERSALITY_RTOL:.0e}",
                TransversalityWarning,
                stacklevel=3,
            )
        if not margin > TRANSVERSALITY_RTOL:
            raise error(message)
        margins.append(margin)
    return tuple(margins)


def projector(x: SubspacePoint, a: SubspacePoint) -> np.ndarray:
    """The linear projector with image x and kernel a, as a 2n x 2n matrix.

    Computed as [X|A] diag(I, 0) [X|A]^{-1}.  The source uses both
    sub/superscript placements for image and kernel; here and at every
    call site the order is projector(image, kernel).  The result is a new
    writable array.
    """
    _require_transversal(((x, a, "projector needs transversal (image, kernel)"),))
    return _projector(x, a).copy()


def _projector(x: SubspacePoint, a: SubspacePoint) -> np.ndarray:
    """projector(x, a) for a pair the caller has already checked transversal.

    Read-only, and cached on x while a lives (see _pair_value).
    """
    return _pair_value(_projector_matrix, x, a)


def _projector_matrix(x: SubspacePoint, a: SubspacePoint) -> np.ndarray:
    n = x.n
    f = np.concatenate((x.basis, a.basis), axis=1)
    left = np.concatenate((x.basis, np.zeros((2 * n, n))), axis=1)
    p = left @ algebra.proven_inverse(f)
    p.setflags(write=False)
    return p


def m_operator(x: SubspacePoint, a: SubspacePoint, b: SubspacePoint,
               z: SubspacePoint) -> np.ndarray:
    """The middle operator M_{xabz} = P(image x, kernel a) - P(image b, kernel z).

    Invertible whenever x, z lie in U_a and U_b; its inverse is M_{zabx}.
    """
    message = "m_operator needs x, z in U_a and U_b"
    _require_transversal((p, q, message) for p, q in ((x, a), (x, b), (z, a), (z, b)))
    # (x, a) and (z, b) were checked just above; [Z | B] and [B | Z] share singular values
    return _projector(x, a) - _projector(b, z)


def torsor_product(x: SubspacePoint, y: SubspacePoint, z: SubspacePoint,
                   a: SubspacePoint, b: SubspacePoint) -> SubspacePoint:
    """The group law x ._y z on U_a and U_b induced by the pair (a, b).

    Applies M_{xabz} to y.  With y fixed this is a group with neutral y;
    in the chart at (a, b) = (infinity, 0) it is the product x y^{-1} z.
    """
    message = "torsor_product needs y in U_a and U_b"
    _require_transversal(((y, a, message), (y, b, message)))
    return SubspacePoint(m_operator(x, a, b, z) @ y.basis)


def scalar_action(r, a: SubspacePoint, x: SubspacePoint,
                  y: SubspacePoint) -> SubspacePoint:
    """Multiplication by the scalar r in the linear space (U_a, origin x).

    Applies r * projector(a, x) + projector(x, a) to y: the component
    along a is scaled, the component along the origin x is kept, so x is
    fixed for r != 0 and r = 0 sends everything to the origin.  (In the
    standard frame a = infinity, x = 0 this is chart(c) -> chart(r c).)
    """
    r = algebra._as_complex(r, "scalars")
    if not cmath.isfinite(r):
        raise NonFiniteError("scalar_action needs a finite scalar")
    _require_transversal(((x, a, "scalar_action needs transversal (x, a)"),
                          (y, a, "scalar_action needs y in U_a")))
    # (x, a) was checked above; [A | X] and [X | A] share singular values
    m = r * _projector(a, x) + _projector(x, a)
    return SubspacePoint(m @ y.basis)


# --- the projective group ----------------------------------------------------

# An upper bound on the condition number of a rep proven unitary up to rounding,
# which ProjectiveMap._invertible takes from hermitian's unitary constructions.
# Rounding the products of unitary factors moves the singular values by a few
# n eps, and a rep built from a Cayley unitary u_a adds its condition number, under
# 1 + 3 TOL_EQ (1 + sqrt n) / sqrt 2 < 1 + 1e-6 for n <= 10^4 (see hermitian._cayley_unitary).
_UNITARY_COND = 1.0 + 1e-6


class ProjectiveMap:
    """An element of PGL(2, A): an invertible 2n x 2n matrix up to scalar.

    A map keeps an upper bound on the condition number s_max / s_min of its
    rep, or None where none is known: the ratio from the invertibility SVD
    of the public constructor, or the one its private builder's caller
    proves.  The transversality gate reads it (see _moved_pair_bound).
    """

    __slots__ = ("rep", "_cond", "_inverse", "__weakref__")

    def __init__(self, rep):
        rep = np.asarray(algebra._numeric(rep, "projective map rep"), dtype=complex)
        if rep.ndim != 2 or rep.shape[0] != rep.shape[1] or rep.shape[0] % 2 or not rep.size:
            raise DimensionError(f"projective map rep must be 2n x 2n, n >= 1, got {rep.shape}")
        cond = algebra.invertible_cond(rep)
        if cond is None:
            raise SingularError("projective map rep is singular")
        self._set_rep(rep, cond)

    @classmethod
    def _invertible(cls, rep: np.ndarray, cond: float | None) -> "ProjectiveMap":
        """The map of a 2n x 2n rep whose invertibility the caller has proven.

        Skips the SVD of __init__; the rep is still copied and made read-only.
        cond is a proven upper bound on the rep's condition number, or None.
        """
        g = cls.__new__(cls)
        g._set_rep(np.asarray(rep, dtype=complex), cond)
        return g

    def _set_rep(self, rep: np.ndarray, cond: float | None) -> None:
        rep = rep.copy()
        rep.setflags(write=False)
        self.rep = rep
        self._cond = cond
        self._inverse = None

    @property
    def n(self) -> int:
        return self.rep.shape[0] // 2

    def inverse(self) -> "ProjectiveMap":
        """The inverse map: computed once per map, then the same object on every call.

        The inverse holds no reference back to this map, so the two form no
        cycle and each is freed by reference counting alone.
        """
        if self._inverse is None:
            # cond(G^{-1}) = cond(G), and G passed the invertibility check; the computed
            # inverse's relative error, a few n eps cond(G), is in _moved_pair_slack
            self._inverse = ProjectiveMap._invertible(algebra.proven_inverse(self.rep),
                                                      self._cond)
        return self._inverse

    def __matmul__(self, other) -> "ProjectiveMap":
        if not isinstance(other, ProjectiveMap):
            return NotImplemented
        return ProjectiveMap(self.rep @ other.rep)

    def __repr__(self) -> str:
        return f"ProjectiveMap(n={self.n})"


def identity_map(n: int) -> ProjectiveMap:
    return ProjectiveMap._invertible(algebra._eye(2 * algebra.check_size(n)), 1.0)  # cond(I) = 1


def apply_map(g: ProjectiveMap, x: SubspacePoint) -> SubspacePoint:
    """The fractional-linear action: column span of rep(g) basis(x).

    The image is cached on x while g lives (see _pair_value): a repeated
    transport of the live pair returns the same point, shared by every caller
    with the values its memo keeps.  An overflowing QR raises on every call.
    """
    if g.n != x.n:
        raise DimensionError(f"dimension mismatch: map n={g.n}, point n={x.n}")
    return _pair_value(_image, x, g)


def _image(x: SubspacePoint, g: ProjectiveMap) -> SubspacePoint:
    # X orthonormal: s_min(GX) / s_max(GX) >= s_min(G) / s_max(G) > TOL_INV
    image = SubspacePoint._full_rank(g.rep @ x.basis)
    # the image's source tag, both references weak: the image holds neither g nor x
    image._memo[apply_map] = (weakref.ref(g), weakref.ref(x))
    return image


# --- random draws -------------------------------------------------------------

def random_point(n: int, rng) -> SubspacePoint:
    """A uniform-ish random point: canonicalized complex Gaussian 2n x n draw."""
    n = algebra.check_size(n)
    rng = algebra.rng_from(rng)
    for _ in range(100):
        cols = (rng.standard_normal((2 * n, n))
                + 1j * rng.standard_normal((2 * n, n))) / algebra._SQRT2
        try:
            return SubspacePoint(cols)
        except SingularError:  # a measure-zero event
            continue
    raise ResamplingExhausted("random_point: all draws were rank deficient")


def random_map(n: int, rng) -> ProjectiveMap:
    """A random element of PGL(2, A), drawn until invertible."""
    n = algebra.check_size(n)
    rng = algebra.rng_from(rng)
    for _ in range(100):
        rep = (rng.standard_normal((2 * n, 2 * n))
               + 1j * rng.standard_normal((2 * n, 2 * n))) / algebra._SQRT2
        try:
            return ProjectiveMap(rep)
        except SingularError:  # a measure-zero event
            continue
    raise ResamplingExhausted("random_map: all draws were singular")

