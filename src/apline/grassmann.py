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

A value that one point alone determines is computed once per point:
functions decorated with _memoized keep their result in the point's memo.
So does a point's transversality margin to the shared base points 0 and
infinity, which transversality_margin reads from the memo.
"""

from __future__ import annotations

import warnings
from functools import lru_cache, wraps

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
# which two points count as transversal.
TRANSVERSALITY_RTOL = 1e-8


class TransversalityWarning(UserWarning):
    """A transversality margin fell within a decade of the threshold."""


class SubspacePoint:
    """An n-dimensional subspace of C^{2n} with orthonormal stored basis."""

    __slots__ = ("n", "basis", "_memo")

    def __init__(self, columns):
        cols = np.asarray(columns, dtype=complex)
        if cols.ndim != 2 or cols.shape[0] != 2 * cols.shape[1] or not cols.size:
            raise DimensionError(
                f"a point of the projective line needs a 2n x n basis, n >= 1, got {cols.shape}")
        if not np.isfinite(cols).all():
            raise NonFiniteError("basis entries must be finite")
        s = np.linalg.svd(cols, compute_uv=False)
        if s[-1] <= TOL_INV * max(s[0], 1e-300):
            raise SingularError("basis columns are rank deficient")
        self._canonicalize(cols)

    @classmethod
    def _full_rank(cls, columns: np.ndarray) -> "SubspacePoint":
        """The point spanned by 2n x n columns whose full rank the caller has proven.

        Skips the rank SVD of __init__ and runs the same QR, so the basis
        is bitwise equal to SubspacePoint(columns).basis.
        """
        x = cls.__new__(cls)
        x._canonicalize(np.asarray(columns, dtype=complex))
        return x

    def _canonicalize(self, cols: np.ndarray) -> None:
        self.n = cols.shape[1]
        q, _ = np.linalg.qr(cols)
        q.setflags(write=False)
        self.basis = q
        self._memo = {}

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SubspacePoint(n={self.n})"


_UNSET = object()


def _memoized(fn):
    """Cache fn(x) in the memo of the point x, which it lives and dies with.

    Only for functions of x's read-only basis alone that cannot warn, so a
    cached value is the bits a new call would compute and no warning is
    lost.  An exception is not cached: every call raises it again.  A
    cached array must be read-only.
    """
    @wraps(fn)
    def cached(x: SubspacePoint):
        value = x._memo.get(cached, _UNSET)
        if value is _UNSET:
            value = x._memo[cached] = fn(x)
        return value
    return cached


@_memoized
def _orthogonal_projector(x: SubspacePoint) -> np.ndarray:
    p = x.basis @ x.basis.conj().T
    p.setflags(write=False)
    return p


def point_eq(x: SubspacePoint, y: SubspacePoint) -> bool:
    """Basis-independent equality: ||P_x - P_y|| <= TOL_EQ (relative)."""
    return algebra.almost_equal(x.projector, y.projector)


def is_orthocomplement(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether span(y) is the orthocomplement of span(x); x, y orthonormal 2n x n.

    For orthonormal bases ||P_y - (I - P_x)||_F = sqrt(2) ||x* y||_F, and
    every rank-n orthogonal projector has Frobenius norm sqrt(n), so this
    is point_eq(y, x-perp) at the same tolerance without building x-perp:
    one n x n Gram matrix, no factorization.
    """
    gram = x.conj().T @ y
    return bool(np.sqrt(2.0) * algebra.norm(gram) <= TOL_EQ * (1.0 + np.sqrt(x.shape[1])))


# --- base points and charts -------------------------------------------------

@lru_cache(maxsize=None)
def zero_point(n: int) -> SubspacePoint:
    """The base point 0 = [(1, 0)] = span[I; 0]; one cached point per n, shared and read-only."""
    return _base_point(np.vstack([np.eye(n), np.zeros((n, n))]), _margin_to_zero)


@lru_cache(maxsize=None)
def infinity_point(n: int) -> SubspacePoint:
    """The base point oo = [(0, 1)] = span[0; I]; one cached point per n, shared and read-only."""
    return _base_point(np.vstack([np.zeros((n, n)), np.eye(n)]), _margin_to_infinity)


def _base_point(columns: np.ndarray, margin_to_it) -> SubspacePoint:
    """SubspacePoint(columns), whose memo names the memoized margin of any point to it.

    transversality_margin reads that name, so telling a base point needs
    no call of zero_point or infinity_point, which would build one.  The
    key is this private function: a public one can be replaced by a wrapper.
    """
    a = SubspacePoint(columns)
    a._memo[_base_point] = margin_to_it
    return a


@lru_cache(maxsize=None)
def one_point(n: int) -> SubspacePoint:
    """The base point 1 = [(1, 1)] = span[I; I]; one cached point per n, shared and read-only."""
    return SubspacePoint(np.vstack([np.eye(n), np.eye(n)]))


# Frobenius norm of a chart value up to which its graph basis is built
# without the rank SVD (see _graph_point).
_GRAPH_NORM_BOUND = 1e6


def _graph_point(cols: np.ndarray, value: np.ndarray, chart: str) -> SubspacePoint:
    """SubspacePoint(cols) for a graph basis [I; a] or [a; I] of the chart value a.

    A graph basis always has full rank: its singular values are
    sqrt(1 + s_i(a)^2), so their ratio is at least 1/sqrt(1 + ||a||_F^2).
    For ||a||_F <= _GRAPH_NORM_BOUND that is above 1e-6, four decades over
    TOL_INV, and the rank check cannot fail; n max|a_ij| bounds ||a||_F
    without squaring an entry.  A larger value runs the check, which can
    reject it only for the dynamic range of a, and the error says that; a
    non-finite value fails SubspacePoint's finiteness check instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bound = value.shape[0] * np.abs(value).max(initial=0.0)
    if value.size and bound <= _GRAPH_NORM_BOUND:
        return SubspacePoint._full_rank(cols)
    try:
        return SubspacePoint(cols)
    except SingularError:
        scale = np.linalg.svd(value, compute_uv=False)[0]
        raise SingularError(
            f"{chart} value of scale {scale:.3e} (largest singular value) is out of "
            f"range: its graph basis has condition number at or above 1/TOL_INV = "
            f"{1 / TOL_INV:.0e}") from None


def point_from_chart(a) -> SubspacePoint:
    """The graph point of a: column span of [I; a]."""
    a = algebra.as_matrix(a)
    return _graph_point(np.vstack([np.eye(a.shape[0]), a]), a, "chart")


def chart_repr(x: SubspacePoint) -> np.ndarray:
    """Left inverse of point_from_chart; requires x transversal to infinity.

    With basis split [p; q], the chart value is q p^{-1}.
    """
    n = x.n
    p = x.basis[:n, :]
    q = x.basis[n:, :]
    if not algebra.is_invertible(p, tol=TRANSVERSALITY_RTOL):
        raise NotInChartError("point is not transversal to infinity")
    return q @ np.linalg.inv(p)


def point_from_cochart(w) -> SubspacePoint:
    """The transposed graph of w: column span of [w; I].

    This is the chart with horizon 0 instead of infinity; the obstate
    layer stores densities here so that transversality to 0 is automatic
    (the concatenated matrix [[I, w], [0, I]] is always invertible).
    """
    w = algebra.as_matrix(w)
    return _graph_point(np.vstack([w, np.eye(w.shape[0])]), w, "cochart")


def cochart_repr(x: SubspacePoint) -> np.ndarray:
    """Left inverse of point_from_cochart; requires x transversal to 0."""
    n = x.n
    p = x.basis[:n, :]
    q = x.basis[n:, :]
    if not algebra.is_invertible(q, tol=TRANSVERSALITY_RTOL):
        raise NotInChartError("point is not transversal to zero")
    return p @ np.linalg.inv(q)


# --- transversality and projectors ------------------------------------------

def transversality_margin(x: SubspacePoint, a: SubspacePoint) -> float:
    """sigma_min / sigma_max of the 2n x 2n concatenation [basis(x) | basis(a)].

    When a is the shared base point 0 or infinity, the margin is a value
    of x alone and is cached on x.
    """
    if x.n != a.n:
        raise DimensionError(f"dimension mismatch: {x.n} vs {a.n}")
    margin_to_a = a._memo.get(_base_point)
    return _margin(x, a) if margin_to_a is None else margin_to_a(x)


def _margin(x: SubspacePoint, a: SubspacePoint) -> float:
    s = np.linalg.svd(np.hstack([x.basis, a.basis]), compute_uv=False)
    return float(s[-1] / max(s[0], 1e-300))


@_memoized
def _margin_to_zero(x: SubspacePoint) -> float:
    return _margin(x, zero_point(x.n))


@_memoized
def _margin_to_infinity(x: SubspacePoint) -> float:
    return _margin(x, infinity_point(x.n))


def is_transversal(x: SubspacePoint, a: SubspacePoint) -> bool:
    """True iff A^2 = x (+) a, i.e. [basis(x) | basis(a)] is invertible."""
    try:
        return bool(_require_transversal(((x, a, ""),)))
    except NotTransversalError:
        return False


def _require_transversal(pairs, error=NotTransversalError) -> tuple:
    """The margins of the (x, a, message) triples in pairs, in order.

    Raises error(message) at the first pair that is not transversal, and
    warns within a decade of the threshold (at the guarded function's caller).
    """
    margins = []
    for x, a, message in pairs:
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
    call site the order is projector(image, kernel).
    """
    _require_transversal(((x, a, "projector needs transversal (image, kernel)"),))
    return _projector(x, a)


def _projector(x: SubspacePoint, a: SubspacePoint) -> np.ndarray:
    """projector(x, a) for a pair the caller has already checked transversal."""
    n = x.n
    f = np.hstack([x.basis, a.basis])
    left = np.hstack([x.basis, np.zeros((2 * n, n))])
    return left @ np.linalg.inv(f)


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
    m = m_operator(x, a, b, z)
    return SubspacePoint(m @ y.basis)


def scalar_action(r, a: SubspacePoint, x: SubspacePoint,
                  y: SubspacePoint) -> SubspacePoint:
    """Multiplication by the scalar r in the linear space (U_a, origin x).

    Applies r * projector(a, x) + projector(x, a) to y: the component
    along a is scaled, the component along the origin x is kept, so x is
    fixed for r != 0 and r = 0 sends everything to the origin.  (In the
    standard frame a = infinity, x = 0 this is chart(c) -> chart(r c).)
    """
    r = complex(r)
    if not np.isfinite(r):
        raise NonFiniteError("scalar_action needs a finite scalar")
    _require_transversal(((x, a, "scalar_action needs transversal (x, a)"),
                          (y, a, "scalar_action needs y in U_a")))
    # (x, a) was checked above; [A | X] and [X | A] share singular values
    m = r * _projector(a, x) + _projector(x, a)
    return SubspacePoint(m @ y.basis)


# --- the projective group ----------------------------------------------------

class ProjectiveMap:
    """An element of PGL(2, A): an invertible 2n x 2n matrix up to scalar."""

    __slots__ = ("rep",)

    def __init__(self, rep):
        rep = np.asarray(rep, dtype=complex)
        if rep.ndim != 2 or rep.shape[0] != rep.shape[1] or rep.shape[0] % 2 or not rep.size:
            raise DimensionError(f"projective map rep must be 2n x 2n, n >= 1, got {rep.shape}")
        if not algebra.is_invertible(rep):
            raise SingularError("projective map rep is singular")
        self._set_rep(rep)

    @classmethod
    def _invertible(cls, rep: np.ndarray) -> "ProjectiveMap":
        """The map of a 2n x 2n rep whose invertibility the caller has proven.

        Skips the SVD of __init__; the rep is still copied and made read-only.
        """
        g = cls.__new__(cls)
        g._set_rep(np.asarray(rep, dtype=complex))
        return g

    def _set_rep(self, rep: np.ndarray) -> None:
        rep = rep.copy()
        rep.setflags(write=False)
        self.rep = rep

    @property
    def n(self) -> int:
        return self.rep.shape[0] // 2

    def inverse(self) -> "ProjectiveMap":
        # cond(G^{-1}) = cond(G), and G passed the invertibility check
        return ProjectiveMap._invertible(np.linalg.inv(self.rep))

    def __matmul__(self, other) -> "ProjectiveMap":
        if not isinstance(other, ProjectiveMap):
            return NotImplemented
        return ProjectiveMap(self.rep @ other.rep)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProjectiveMap(n={self.n})"


def identity_map(n: int) -> ProjectiveMap:
    return ProjectiveMap(np.eye(2 * n))


def apply_map(g: ProjectiveMap, x: SubspacePoint) -> SubspacePoint:
    """The fractional-linear action: column span of rep(g) basis(x)."""
    if g.n != x.n:
        raise DimensionError(f"dimension mismatch: map n={g.n}, point n={x.n}")
    # X orthonormal: s_min(GX) / s_max(GX) >= s_min(G) / s_max(G) > TOL_INV
    return SubspacePoint._full_rank(g.rep @ x.basis)


# --- random draws -------------------------------------------------------------

def random_point(n: int, rng) -> SubspacePoint:
    """A uniform-ish random point: canonicalized complex Gaussian 2n x n draw."""
    rng = algebra.rng_from(rng)
    for _ in range(100):
        cols = (rng.standard_normal((2 * n, n))
                + 1j * rng.standard_normal((2 * n, n))) / np.sqrt(2)
        try:
            return SubspacePoint(cols)
        except SingularError:  # pragma: no cover - measure-zero event
            continue
    raise ResamplingExhausted("random_point: all draws were rank deficient")  # pragma: no cover


def random_map(n: int, rng) -> ProjectiveMap:
    """A random element of PGL(2, A), drawn until invertible."""
    rng = algebra.rng_from(rng)
    for _ in range(100):
        rep = (rng.standard_normal((2 * n, 2 * n))
               + 1j * rng.standard_normal((2 * n, 2 * n))) / np.sqrt(2)
        try:
            return ProjectiveMap(rep)
        except SingularError:  # pragma: no cover - measure-zero event
            continue
    raise ResamplingExhausted("random_map: all draws were singular")  # pragma: no cover


# --- JSON ---------------------------------------------------------------------
# SubspacePoint encoding: {"n": int, "basis_re": [[..]] (2n x n), "basis_im": [[..]]};
# the basis is canonicalized on load.

def point_from_json(obj: dict) -> SubspacePoint:
    try:
        for part in ("basis_re", "basis_im"):
            if part in obj:
                algebra._reject_non_numbers(obj[part], "point JSON")
        re = np.array(obj["basis_re"], dtype=float)
        if re.ndim != 2:
            raise DimensionError(f"point JSON basis must be 2n x n, got shape {re.shape}")
        n = algebra.size_from_json(obj["n"], "point JSON size n") if "n" in obj else re.shape[-1]
        # no default allocated from n: a huge n must fail the shape check, not allocate
        im = np.array(obj["basis_im"], dtype=float) if "basis_im" in obj else np.zeros_like(re)
    except TypeError as exc:  # an object where a number belongs
        raise ValueError(f"point JSON entries must be numbers: {exc}") from None
    except OverflowError as exc:  # an integer beyond float range
        raise ValueError(f"point JSON entries must be finite: {exc}") from None
    if re.shape != (2 * n, n) or im.shape != (2 * n, n):
        raise DimensionError(
            f"point JSON claims n={n} but carries shapes {re.shape}/{im.shape}")
    return SubspacePoint(re + 1j * im)  # which rejects non-finite entries
