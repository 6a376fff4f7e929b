"""The matrix *-algebra A = M(n, C).

Products, involution, positivity order, normalized trace, homotope
products and associative-pair primitives, together with the numeric
tolerances and random samplers used throughout the package.

All functions are pure and operate on immutable-by-convention numpy
arrays (complex128); nothing here mutates its arguments.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np

from .errors import (DecodeError, DimensionError, NonFiniteError, NotANumberError,
                     NotARealError, SingularError, ValueOverflowError)

# Tolerances of the double-precision backend.  Dimensions stay small
# (n <= 16), which keeps conditioning mild enough for these to be safe.
TOL_EQ = 1e-9    # relative Frobenius tolerance for approximate equality
TOL_PSD = 1e-9   # eigenvalue floor for positivity, relative to ||a||
TOL_INV = 1e-10  # smallest/largest singular value ratio for invertibility

_SQRT2 = math.sqrt(2.0)  # np.sqrt(2)'s bits, read without a ufunc call


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix (complex128, C-contiguous copy)."""
    m = np.array(_numeric(a, "matrix"), dtype=complex)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise DimensionError(f"expected a square matrix of size n >= 1, got shape {m.shape}")
    return m


def _numeric(a, what: str) -> np.ndarray:
    """a as an array of numbers or bools (an array of them is not copied): the one reader
    of public arrays.  Entries that make an object or a string array, which numpy would
    read as NaN (None) or parse ("2"), raise NotANumberError."""
    if type(a) is not np.ndarray:
        try:
            a = np.asarray(a)
        except ValueError as exc:  # rows of unequal length
            raise DimensionError(f"{what} must be equal-length rows of numbers: {exc}") from None
    if a.dtype.kind not in "biufc":
        raise NotANumberError(f"{what} entries must be numbers in the float range, "
                              f"got an array of dtype {a.dtype}")
    return a


def check_size(n, what: str = "a size") -> int:
    """n as an int, when it is a whole number n >= 1 (an int or a numpy integer, not a bool).

    Anything else raises DimensionError: the one check of every function that
    takes a size n, so -1, 0, 2.5 and True never reach numpy.
    """
    if type(n) is int and n >= 1:  # the common case: operator.index(n) is n
        return n
    try:
        # operator.index reads True as 1; numpy's bool it already rejects
        size = 0 if isinstance(n, bool) else operator.index(n)
    except TypeError:
        size = 0
    if size < 1:
        raise DimensionError(f"{what} must be a whole number n >= 1, got {n!r:.40}")
    return size


def _as_real(v, what: str) -> float:
    """float(v) for a real number v, else NotARealError: the one reader of real scalars."""
    if type(v) is float:  # the common case: float(v) is v
        return v
    # float() would drop a numpy complex's imaginary part
    if isinstance(v, (complex, np.complexfloating)):
        raise NotARealError(f"{what} must be real numbers, got {v!r:.40}")
    return _as_scalar(float, v, what, "real numbers", NotARealError)


def _as_complex(v, what: str) -> complex:
    """complex(v) for a number v, else NotANumberError: the one reader of complex scalars."""
    if type(v) is complex:  # the common cases: complex(v) is v, and a float's complex(v)
        return v
    if type(v) is float:
        return complex(v)
    return _as_scalar(complex, v, what, "numbers", NotANumberError)


def _as_scalar(kind, v, what: str, noun: str, error):
    """kind(v), float or complex, for a number v, NaN and infinities included; else error.

    A number beyond the float range, such as the integer 10**400, raises ValueOverflowError.
    """
    # kind() would parse "1" and count a bool as 0 or 1
    if not isinstance(v, (str, bytes, bool, np.bool_)):
        try:
            return kind(v)
        except (TypeError, ValueError):  # None, INF, a list, a Python complex for float
            pass
        except OverflowError as exc:
            raise ValueOverflowError(
                f"{what} must be {noun} in the float range, got {v!r:.40}: {exc}") from None
    raise error(f"{what} must be {noun}, got {v!r:.40}")


def sized_cache(fn):
    """fn cached once per size: check_size(n) runs first, then lru_cache(fn) on the int.

    So a numpy integer finds the entry of its int, and a bad size raises on every call,
    whatever the cache holds.  cache_clear and cache_info are the cache's own.
    """
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def sized(n):
        return cached(check_size(n))

    sized.cache_clear, sized.cache_info = cached.cache_clear, cached.cache_info
    return sized


@sized_cache
def _eye(n: int) -> np.ndarray:
    """np.eye(n), the float64 identity: cached per n and read-only, for the per-call builders."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def zero(n: int) -> np.ndarray:
    n = check_size(n)
    return np.zeros((n, n), dtype=complex)


def norm(a) -> float:
    """Frobenius norm: float(np.linalg.norm(a)), bit for bit where that is finite.

    Where the sum of squares overflows and every entry is finite, the norm
    is taken of the exact power-of-two rescale of a (_pow2_scale) and scaled
    back; a norm beyond the float range raises ValueOverflowError naming
    a's scale.  No floating-point warning is raised.  A NaN or infinite
    entry gives numpy's NaN or inf.
    """
    value = _quietly(_norm, a)
    if math.isfinite(value):
        return value
    x = np.asarray(a)
    if not np.isfinite(x).all():
        return value
    x = x.astype(np.result_type(x, np.float64))  # a float32 rescale would overflow again
    c = _pow2_scale(x)
    value = _quietly(_norm, c * x) / c
    if math.isinf(value):
        raise ValueOverflowError(f"array of scale {_largest_part(x):.3e} (largest real or "
                                 "imaginary part) has a norm beyond the float range")
    return value


def _norm(a) -> float:
    """norm(a) with numpy's overflow: float(np.linalg.norm(a)), bit for bit and with its warnings.

    For a float64 or complex128 array these are np.linalg.norm's own steps,
    less its Python wrapper: ravel in memory order, the sum of squares of
    the real and imaginary parts by dot (which warns on overflow), then the
    square root, which IEEE rounds correctly in math.sqrt as in np.sqrt.
    The library's own norms run here, under the overflow rule or on
    values it bounds.
    """
    if type(a) is np.ndarray and a.dtype.char in "dD":
        x = a.ravel(order="K")
        if x.dtype.char == "d":
            return math.sqrt(x.dot(x))
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return float(np.linalg.norm(a))


def _all_finite(a: np.ndarray) -> bool:
    """bool(np.isfinite(a).all()) for a float or complex array, proven by one dot when true.

    A NaN or infinite entry x makes its term conj(x) x of np.vdot(a, a) NaN
    or infinite (its real part is |x|^2), and no finite term cancels it:
    the real parts of the terms are |x|^2 >= 0.  So a finite sum proves
    every entry finite.  A sum that overflows, from finite entries near
    the float range, proves nothing, and the mask decides.  vdot raises no
    floating-point warning.
    """
    return cmath.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def almost_equal(a, b) -> bool:
    """Relative Frobenius comparison: ||a - b|| <= TOL_EQ * (1 + max(||a||, ||b||)).

    When a norm overflows, the test decides on one exact power-of-two rescale
    of a and b, as in exact arithmetic (_at_scale).  A non-finite entry fails it.
    """
    return _almost_equal(np.asarray(_numeric(a, "array"), dtype=complex),
                         np.asarray(_numeric(b, "array"), dtype=complex))


def _almost_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """almost_equal of two complex arrays, read as they are."""
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    # A sum of squares that overflows makes max(||a||, ||b||) >= ||a - b|| / 2 > 6e153, where
    # 1 + max rounds to max: the test is ||a - b|| <= TOL_EQ max(||a||, ||b||), which one
    # exact power-of-two scale of both keeps.  The scaled max is above 2**99, where 1 +
    # max rounds to max too.
    scaled = _at_scale(_distance, a, b)
    if scaled is None:
        return False
    (gap, size), _ = scaled
    return gap <= TOL_EQ * (1.0 + size)


def _distance(c: float, a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(||a - b||, max(||a||, ||b||)), the measure of almost_equal."""
    return _norm(a - b), max(_norm(a), _norm(b))


def _quietly(fn, *args):
    """fn(*args) with overflow and invalid values ignored, the caller's other error modes kept."""
    token = _set_errors(over="ignore", invalid="ignore")
    try:
        return fn(*args)
    finally:
        _leave(token)


def _at_scale(measure, *arrays) -> tuple | None:
    """(measure(c, *(c a for a in arrays)), c), measured quietly: the one overflow rule.

    measure returns a tuple of norms, or of floats a norm bounds, and c is
    1.0 when they are finite.  When one overflows and every entry is finite,
    c is the exact power of two _pow2_scale of the array with the largest
    part.  The predicates measured here (almost_equal, hermitian_gap,
    _is_psd, _is_unitary) do not change under a positive rescale, so they
    decide on the scaled copies as in exact arithmetic; their norms are
    finite and far above 1.  A finite norm is at most the square root of
    the float range, about 1.3e154, so the values are finite exactly when
    their sum is.  A non-finite entry gives None.
    """
    value = _quietly(measure, 1.0, *arrays)
    if math.isfinite(sum(value)):
        return value, 1.0
    if not all(np.isfinite(a).all() for a in arrays):
        return None
    c = _pow2_scale(max(arrays, key=_largest_part))
    return _quietly(measure, c, *(c * a for a in arrays)), c


def _same_dim_matrices(*args) -> tuple:
    """as_matrix of each argument; DimensionError unless they share one n."""
    mats = tuple(as_matrix(a) for a in args)
    n = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape[0] != n:
            raise DimensionError(f"dimension mismatch: {n} vs {m.shape[0]}")
    return mats


def adjoint(a) -> np.ndarray:
    """The involution a -> a* (conjugate transpose)."""
    return as_matrix(a).conj().T


def herm_decompose(a):
    """Split a = h + i k with h, k Hermitian; h = (a + a*)/2."""
    a = as_matrix(a)
    h = (a + a.conj().T) / 2
    k = (a - a.conj().T) / (2j)
    return h, k


def _pow2_scale(a: np.ndarray) -> float:
    """The power of two that brings the largest real or imaginary part of a into [2**99, 2**100).

    Scaling by it is exact, and the norms of the scaled matrix and of its
    products are finite and far above 1, so a relative test whose norms
    overflowed decides on the scaled copy as in exact arithmetic.  The
    parts are taken apart because the modulus of a finite entry can overflow.
    """
    return 2.0 ** (100 - int(np.frexp(_largest_part(a))[1]))


def _largest_part(a: np.ndarray) -> float:
    """The largest real or imaginary part of a: its scale, finite when a is (|z| can overflow)."""
    return max(np.abs(a.real).max(), np.abs(a.imag).max())


def is_hermitian(a, tol: float = TOL_EQ) -> bool:
    return _hermitian_within(*hermitian_gap(as_matrix(a)), tol)


def _hermitian_within(gap: float, size: float, tol: float) -> bool:
    """The Hermitian rule on hermitian_gap's two floats: gap <= tol (1 + size); NaN fails."""
    return gap <= tol * (1.0 + size)


def hermitian_gap(a: np.ndarray) -> tuple[float, float]:
    """(||a - a*||, ||a||): is_hermitian(a, tol) is _hermitian_within(gap, size, tol).

    When a norm overflows, they are the norms of the exact power-of-two
    rescale of a (_at_scale), on which the test decides as in exact
    arithmetic.  A non-finite a gives NaN, which fails the test at every
    tolerance.
    """
    scaled = _at_scale(_skew_and_size, a)
    return (math.nan, math.nan) if scaled is None else scaled[0]


def _skew_and_size(c: float, a: np.ndarray) -> tuple[float, float]:
    """(||a - a*||, ||a||), the measure of hermitian_gap."""
    return _norm(a - a.conj().T), _norm(a)


def is_psd(a) -> bool:
    """Positive semidefinite test.

    Non-Hermitian input returns False (the order lives on Herm(A) only;
    no silent symmetrization).  Eigenvalues above -TOL_PSD * ||a|| count as
    nonnegative.  When ||a|| overflows, the test decides on the exact
    power-of-two rescale of a: positivity is invariant under positive scaling.
    """
    a = as_matrix(a)
    return is_hermitian(a) and _is_psd(a)


def _is_psd(a: np.ndarray) -> bool:
    """is_psd(a) less its Hermitian test, for an a Hermitian by construction.

    Such an a has entry (j, i) equal in value to the conjugate of entry (i, j),
    so a - a* is zero and a finite a passes is_hermitian.  The symmetrization
    stays: the two entries can differ in the sign of an exact zero, and the
    eigenvalues eigvalsh computes depend on that sign.  A non-finite entry fails.
    """
    scaled = _at_scale(_size_and_floor, a)
    if scaled is None:
        return False
    (size, least), _ = scaled
    return least >= -TOL_PSD * (1.0 + size)


def _size_and_floor(c: float, a: np.ndarray) -> tuple[float, float]:
    """(||a||, the least eigenvalue of (a + a*) / 2), the measure of _is_psd.

    The eigenvalues are computed only for a finite norm, which bounds the
    entries, so the symmetrization cannot overflow.
    """
    size = _norm(a)
    if not math.isfinite(size):
        return size, 0.0
    return size, float(eigvalsh((a + a.conj().T) / 2).min(initial=0.0))


def leq(a, b) -> bool:
    """The order of the Hermitian part: a <= b iff b - a is psd."""
    return is_psd(as_matrix(b) - as_matrix(a))


def is_invertible(a, tol: float = TOL_INV) -> bool:
    """s_min(a) > tol * s_max(a), with invertible_cond's errors."""
    return invertible_cond(as_matrix(a), tol) is not None


def invertible_cond(a: np.ndarray, tol: float = TOL_INV) -> float | None:
    """s_max(a) / s_min(a) of a square array a that passes is_invertible(a, tol), else None.

    The one rank rule of the package, s_min > tol s_max, with its SVD:
    is_invertible, inverse and ProjectiveMap decide here, and so does
    SubspacePoint's rank test where _triangular_full_rank's bound does not.
    The ratio is below 1 / tol, so it is finite.  A NaN or
    infinite entry raises NonFiniteError, checked before the SVD: LAPACK
    does not converge on a NaN entry, and on an all-infinite row its
    scaling routine rejects an argument and prints that to stdout.  Finite
    entries whose singular values overflow raise ValueOverflowError naming
    their scale: the ratio is unknown, not small.
    """
    if not _all_finite(a):
        raise NonFiniteError("matrix entries must be finite")
    try:
        s = singular_values(a)
    except np.linalg.LinAlgError:  # no convergence: decided below like a NaN output
        s = np.full(1, np.nan)
    if s[-1] > tol * max(s[0], 1e-300):
        return float(s[0] / s[-1])
    # the entries are finite, so a non-finite singular value is an overflow
    if not np.isfinite(s).all():
        raise ValueOverflowError(
            f"matrix of scale {_largest_part(a):.3e} (largest real or imaginary part) "
            "overflows the float range in its SVD")
    return None


def _triangular_full_rank(f: np.ndarray) -> bool:
    """Whether R = np.triu(f[:n]) passes the rank rule s_min > TOL_INV max(s_max, 1e-300).

    f is the second factor thin_qr returns for a finite m x n array, so R is
    that array's n x n factor.  R's diagonal and Frobenius norm prove full
    rank for all but near-singular R, with no SVD; the rest run
    invertible_cond(R), with its decisions and errors.  The proof, for
    singular values s_1 >= ... >= s_n of R:
    1. s_1 ... s_n = |det R| = |r_11 ... r_nn|;
    2. AM-GM on s_1, ..., s_(n-1), whose squares sum to at most ||R||_F^2,
       gives s_n >= |det R| ((n - 1) / ||R||_F^2)^((n - 1) / 2);
    3. s_1 <= ||R||_F, so s_n / s_1 >= L = prod(|r_ii| / ||R||_F) (n - 1)^((n - 1) / 2).
    4. The SVD's computed singular values lie within p(n) u s_1 of the exact
       ones (u = 2^-53), and the computed L within a relative n^3 u of L (its
       sum of n (n + 1) squares, raised to the power n / 2, and 3n more
       roundings): together below 1e-12 at n <= 16, far inside the factor 2
       below.  So a computed L > 2 TOL_INV passes the SVD's rule too, and a
       sum of squares above 1e-300 puts s_1 far above the rule's floor.
    A sum of squares that overflows (inf: vdot raises no floating-point
    warning) or lies at or below 1e-300, where subnormal squares lose
    digits, and an L that underflows to 0 (a zero diagonal entry) prove
    nothing, and the SVD decides.
    """
    n = f.shape[1]
    top = f[:n]
    upper = top.reshape(-1)[_upper_triangle(n)].view(np.float64)
    squares = float(np.vdot(upper, upper))
    if 1e-300 < squares < math.inf:
        ratios = np.abs(top.diagonal()) / math.sqrt(squares)
        if np.multiply.reduce(ratios) * (n - 1) ** ((n - 1) / 2) > 2 * TOL_INV:
            return True
    return invertible_cond(np.triu(top)) is not None


@lru_cache(maxsize=None)
def _upper_triangle(n: int) -> np.ndarray:
    """The C-order flat indices of the upper triangle of an n x n array (read-only)."""
    indices = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool)))
    indices.setflags(write=False)
    return indices


def inverse(a) -> np.ndarray:
    a = as_matrix(a)
    if invertible_cond(a) is None:
        raise SingularError("matrix is singular within tolerance")
    return proven_inverse(a)


# --- the linalg seam --------------------------------------------------------
# Every LAPACK call of the library runs here, bitwise equal to its numpy wrapper:
# thin QRs (np.linalg.qr), singular values (np.linalg.svd(a, compute_uv=False)),
# full SVDs (np.linalg.svd), proven inverses (np.linalg.inv), solves
# (np.linalg.solve), Hermitian eigen-decompositions and eigenvalues (np.linalg.eigh
# and eigvalsh, which read the lower triangle) and determinants (np.linalg.det).
# At n <= 16 most of a numpy linalg call is its Python wrapper, so the LAPACK
# gufuncs under those wrappers are called directly, at the wrappers' signatures,
# under the wrappers' own error state.  A QR runs both of its gufuncs (geqrf, then
# ungqr) under one such state and returns geqrf's packed factor, whose upper
# triangle is R.  Where numpy lacks these gufuncs, the public wrappers run instead.
# Two private entries run numpy's wrappers themselves: _numpy_qr (np.linalg.qr, for
# the R that obstate._line_factors solves with) and _numpy_svd (np.linalg.svd, for
# hermitian's LineFamily).  The obstates benchmark's trace counts only np.linalg calls,
# and these two keep its linalg.qr and linalg.svd counts above 0 until it counts here.

try:
    from numpy.linalg._umath_linalg import det as _det_gufunc
    from numpy.linalg._umath_linalg import eigh_lo as _eigh_gufunc
    from numpy.linalg._umath_linalg import eigvalsh_lo as _eigvalsh_gufunc
    from numpy.linalg._umath_linalg import inv as _inv_gufunc
    from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw_gufunc
    from numpy.linalg._umath_linalg import qr_reduced as _qr_reduced_gufunc
    from numpy.linalg._umath_linalg import solve as _solve_gufunc
    from numpy.linalg._umath_linalg import solve1 as _solve1_gufunc
    from numpy.linalg._umath_linalg import svd as _svd_gufunc
    from numpy.linalg._umath_linalg import svd_f as _svd_f_gufunc
except ImportError:  # pragma: no cover - depends on the numpy version
    _det_gufunc = _eigh_gufunc = _eigvalsh_gufunc = _inv_gufunc = None
    _qr_r_raw_gufunc = _qr_reduced_gufunc = _solve_gufunc = _solve1_gufunc = None
    _svd_gufunc = _svd_f_gufunc = None

# numpy's wrappers run each gufunc inside np.errstate(call=callback, invalid="call",
# over="ignore", divide="ignore", under="ignore").  Entering it builds an error state
# with _make_extobj from the current one and sets it in _extobj_contextvar; leaving
# it resets that variable.  Here each state is built once, at import, and set and
# reset around the gufunc the same way.  It is the same state: the call and all four
# error modes are given, so the one field taken from the state current at the build
# is bufsize, which sizes the buffers of casting ufunc loops and never changes a bit
# of these gufuncs' results (an exact-signature gufunc casts whole operands).  Where
# numpy lacks those internals, np.errstate itself is entered.
try:
    from numpy._core._multiarray_umath import _make_extobj
    from numpy._core._ufunc_config import _extobj_contextvar
except ImportError:  # pragma: no cover - depends on the numpy version
    _make_extobj = _extobj_contextvar = None

_LAPACK_ERRORS = {"invalid": "call", "over": "ignore", "divide": "ignore", "under": "ignore"}


def _lapack_state(message: str):
    """The error state of a LAPACK gufunc that raises LinAlgError(message) on failure.

    A failed call (LAPACK's info != 0) raises the invalid flag, whose
    callback raises, as numpy's wrappers do.
    """
    def raise_linalg_error(err, flag):
        raise np.linalg.LinAlgError(message)
    if _make_extobj is None:  # pragma: no cover - depends on the numpy version
        return raise_linalg_error
    return _make_extobj(call=raise_linalg_error, all=None, **_LAPACK_ERRORS)


# _quietly ignores overflow and invalid values and keeps the caller's other error
# modes, so its state cannot be built at import.  _set_errors(**modes) builds it when
# called, from the current state, exactly as entering np.errstate(**modes) does, and
# sets it the seam's way; _leave(token) resets it, in _quietly's finally.

if _make_extobj is None:  # pragma: no cover - depends on the numpy version
    def _set_errors(**modes):
        state = np.errstate(**modes)
        state.__enter__()
        return state

    def _enter(callback):
        return _set_errors(call=callback, **_LAPACK_ERRORS)

    def _leave(state):
        state.__exit__(None, None, None)
else:
    _enter, _leave = _extobj_contextvar.set, _extobj_contextvar.reset

    def _set_errors(**modes):
        return _enter(_make_extobj(**modes))

_SINGULAR = _lapack_state("Singular matrix")
_SVD_FAILED = _lapack_state("SVD did not converge")
_QR_FAILED = _lapack_state("Incorrect argument found while performing QR factorization")
_EIGH_FAILED = _lapack_state("Eigenvalues did not converge")


def _lapack(state, gufunc, *args, signature: str):
    """gufunc(*args, signature=signature) under the error state state, as numpy runs it."""
    token = _enter(state)
    try:
        return gufunc(*args, signature=signature)
    finally:
        _leave(token)


def thin_qr(a: np.ndarray):
    """(Q, F) of the thin QR a = Q R of an m x n array a, m >= n, with R = np.triu(F[:n]).

    Bitwise np.linalg.qr(a) for the library's complex128 and float64 arrays:
    Q is its Q, and np.triu(F[:n]) its R.  It is what np.linalg.qr does
    inside its wrapper, less the triu: geqrf writes R and the reflectors
    into a copy F of a in numpy's common type and returns tau, and ungqr
    forms Q from them.  numpy runs each gufunc under its own copy of one
    error state, and a failure (LAPACK's info != 0, raised as the invalid
    flag) raises before the second runs, so one state around both is the
    same.  Without the gufuncs, F is numpy's R.  Finite columns near the
    float range can overflow in the factorization: that raises
    ValueOverflowError naming their scale, never returns a NaN factor.  A
    non-finite reflector makes Q non-finite, so testing Q and F is testing Q and R.
    A finite sum of squares of a's entries proves both factors finite, and
    then neither is scanned (see the note at the site).
    """
    bounded = False
    if _qr_r_raw_gufunc is None:
        q, packed = np.linalg.qr(a)
    else:
        complex_ = a.dtype.kind == "c"
        packed = a.astype(np.complex128 if complex_ else np.float64)  # geqrf overwrites it
        # A finite sum of squares of the input proves both factors finite, before they
        # exist.  A NaN or infinite entry makes the sum non-finite (_all_finite), so a
        # finite sum gives finite entries and ||a||_F < sqrt(DBL_MAX) ~ 1.34e154.
        # Householder QR then stays far from overflow: every column of every
        # intermediate R has norm at most ||a||_F (1 + gamma), as the reflectors are
        # unitary; zlarfg takes its norms scaled and gives |tau| <= 2 and reflector
        # entries |v_i| <= 1, so each update w = A* v, A - tau v w* stays below a small
        # multiple of sqrt(m) ||a||_F; ungqr applies the same reflectors to the identity,
        # whose entries stay at most 1 + gamma.  A sum that overflows (finite entries
        # near the float range) or is non-finite proves nothing, and the scans decide.
        bounded = cmath.isfinite(np.vdot(packed, packed))
        token = _enter(_QR_FAILED)
        try:
            tau = _qr_r_raw_gufunc(packed, signature="D->D" if complex_ else "d->d")
            q = _qr_reduced_gufunc(packed, tau, signature="DD->D" if complex_ else "dd->d")
        finally:
            _leave(token)
    if not (bounded or (_all_finite(q) and _all_finite(packed))):
        raise _qr_overflow(a)
    return q, packed


def _numpy_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, R) = np.linalg.qr(a), with thin_qr's ValueOverflowError for a non-finite factor."""
    q, r = np.linalg.qr(a)
    if not (_all_finite(q) and _all_finite(r)):
        raise _qr_overflow(a)
    return q, r


def _qr_overflow(a: np.ndarray) -> ValueOverflowError:
    """The error of a QR of finite columns a whose factors overflow, naming a's scale."""
    return ValueOverflowError(
        f"basis of scale {_largest_part(a):.3e} (largest real or imaginary part) "
        "overflows the float range in its QR factorization")


def singular_values(a: np.ndarray) -> np.ndarray:
    """The singular values of a, in descending order: bitwise np.linalg.svd(a, compute_uv=False).

    An SVD that does not converge (LAPACK's answer to a NaN entry) raises
    LinAlgError, as numpy does.
    """
    if _svd_gufunc is None:
        return np.linalg.svd(a, compute_uv=False)
    return _lapack(_SVD_FAILED, _svd_gufunc, a,
                   signature="D->d" if a.dtype.kind == "c" else "d->d")


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, s, vh) with a = u diag(s) vh, u and vh square: bitwise np.linalg.svd(a).

    An SVD that does not converge raises LinAlgError, as numpy does.
    """
    if _svd_f_gufunc is None:
        return np.linalg.svd(a)
    return _lapack(_SVD_FAILED, _svd_f_gufunc, a,
                   signature="D->DdD" if a.dtype.kind == "c" else "d->ddd")


def _numpy_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.svd(a), run through numpy's wrapper: the bits of svd(a)."""
    return np.linalg.svd(a)


def proven_inverse(a: np.ndarray) -> np.ndarray:
    """a^-1 for a square a whose invertibility the caller has proven: bitwise np.linalg.inv(a).

    No invertibility test runs here (inverse() is the checked form).  An exactly
    singular a raises LinAlgError, as numpy does, with no RuntimeWarning.
    """
    if _inv_gufunc is None:
        return np.linalg.inv(a)
    return _lapack(_SINGULAR, _inv_gufunc, a,
                   signature="D->D" if a.dtype.kind == "c" else "d->d")


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for a square a and a 1-D or 2-D b: bitwise np.linalg.solve(a, b).

    numpy's rules: a 1-D b runs the solve1 gufunc, and the solve is complex
    when a or b is.  An exactly singular a raises LinAlgError, as numpy does,
    with no RuntimeWarning.
    """
    if _solve_gufunc is None:
        return np.linalg.solve(a, b)
    complex_ = a.dtype.kind == "c" or b.dtype.kind == "c"
    return _lapack(_SINGULAR, _solve1_gufunc if b.ndim == 1 else _solve_gufunc, a, b,
                   signature="DD->D" if complex_ else "dd->d")


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a Hermitian a: bitwise np.linalg.eigh(a).

    The eigenvalues ascend, and only a's lower triangle is read.  No
    convergence raises LinAlgError, as numpy does.
    """
    if _eigh_gufunc is None:
        return np.linalg.eigh(a)
    return _lapack(_EIGH_FAILED, _eigh_gufunc, a,
                   signature="D->dD" if a.dtype.kind == "c" else "d->dd")


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of a Hermitian a, ascending: bitwise np.linalg.eigvalsh(a).

    Only a's lower triangle is read.  No convergence raises LinAlgError, as
    numpy does.
    """
    if _eigvalsh_gufunc is None:
        return np.linalg.eigvalsh(a)
    return _lapack(_EIGH_FAILED, _eigvalsh_gufunc, a,
                   signature="D->d" if a.dtype.kind == "c" else "d->d")


def det(a: np.ndarray):
    """The determinant of a square a: bitwise np.linalg.det(a), which enters no error state."""
    if _det_gufunc is None:
        return np.linalg.det(a)
    return _det_gufunc(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


def is_unitary(a, tol: float = TOL_EQ) -> bool:
    return _is_unitary(as_matrix(a), tol)


def _is_unitary(a: np.ndarray, tol: float) -> bool:
    """a* a = I = a a* at the relative tolerance; a* a = I iff (c a)* (c a) = c^2 I (_at_scale)."""
    scaled = _at_scale(_unitary_gaps, a)
    if scaled is None:
        return False
    (left, right, size), c = scaled
    # finite gaps bound ||a||^2 by sqrt(n) (||a* a - c^2 I|| + c^2 sqrt(n)): no overflow
    scale = c * c + size ** 2
    return left <= tol * scale and right <= tol * scale


def _unitary_gaps(c: float, a: np.ndarray) -> tuple[float, float, float]:
    """(||a* a - c^2 I||, ||a a* - c^2 I||, ||a||), the measure of _is_unitary."""
    eye = c * c * _eye(a.shape[0])
    return _norm(a.conj().T @ a - eye), _norm(a @ a.conj().T - eye), _norm(a)


def trace_normalized(a) -> complex:
    """The trace normalized so a rank-one idempotent has trace 1.

    For M(n, C) that is the ordinary matrix trace; it is symmetric
    (trace(ab) = trace(ba)) and positive on psd elements.
    """
    return complex(np.trace(as_matrix(a)))


# --- homotopes ------------------------------------------------------------

def homotope_assoc(a, u, b) -> np.ndarray:
    """The u-homotope product a . b = aub."""
    a, u, b = _same_dim_matrices(a, u, b)
    return a @ u @ b


def homotope_lie(a, u, b) -> np.ndarray:
    """The u-homotope bracket [a, b] = aub - bua."""
    a, u, b = _same_dim_matrices(a, u, b)
    return a @ u @ b - b @ u @ a


def homotope_jordan(a, u, b) -> np.ndarray:
    """The u-homotope Jordan product (aub + bua)/2."""
    a, u, b = _same_dim_matrices(a, u, b)
    return (a @ u @ b + b @ u @ a) / 2


# --- associative pair (A, A) ----------------------------------------------

class PairElement(NamedTuple):
    """An element (e+, e-) of the associative pair (A, A)."""
    plus: np.ndarray
    minus: np.ndarray


def pair_triple(x, y, z) -> np.ndarray:
    """The triple product <xyz> of the pair (A, A): plain xyz."""
    x, y, z = _same_dim_matrices(x, y, z)
    return x @ y @ z


def is_pair_idempotent(e: PairElement) -> bool:
    """Check <e+ e- e+> = e+ and <e- e+ e-> = e-, at almost_equal's tolerance.

    Finite entries whose triple products overflow raise ValueOverflowError
    naming their scale: their distance from e+ and e- is unknown.  A
    non-finite entry fails the test.
    """
    p, m = _same_dim_matrices(e.plus, e.minus)
    pmp, mpm = _quietly(_triple_products, p, m)
    if not (_all_finite(pmp) and _all_finite(mpm)) and (
            np.isfinite(p).all() and np.isfinite(m).all()):
        raise ValueOverflowError(
            f"pair of scales {_largest_part(p):.3e} and {_largest_part(m):.3e} (largest real "
            "or imaginary parts) overflows the float range in its triple products")
    return _almost_equal(pmp, p) and _almost_equal(mpm, m)


def _triple_products(p: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p m p, m p m), the triple products of is_pair_idempotent."""
    return p @ m @ p, m @ p @ m


# --- JSON decoding ---------------------------------------------------------
# The repo's JSON number format, read only here: a matrix is nested real rows or
# {"n", "re", "im"}, a point's basis {"n", "basis_re", "basis_im"} (2n x n, n optional).

def size_from_json(value, what: str) -> int:
    """A JSON size field: a whole number (an int, or a float like 2.0), never a bool."""
    if isinstance(value, bool) or not (isinstance(value, int) or
                                       isinstance(value, float) and value.is_integer()):
        raise DecodeError(f"{what} must be a whole number, got {value!r:.40}")
    return int(value)


_NON_NUMBERS = frozenset((str, bool, type(None)))


def _rows_from_json(rows, dtype, what: str) -> np.ndarray:
    """np.array(rows, dtype) of finite JSON numbers; anything else raises DecodeError.

    String, bool and null entries are rejected first: numpy would read "1" and true
    as 1.0, "infinity" as inf and null as nan.  Two levels are searched, all a matrix has.
    """
    for row in rows if isinstance(rows, (list, tuple)) else (rows,):
        for v in row if isinstance(row, (list, tuple)) else (row,):
            if type(v) in _NON_NUMBERS:
                raise DecodeError(f"{what} entries must be numbers, got {v!r:.40}")
    try:
        m = np.array(rows, dtype=dtype)
    except TypeError as exc:  # an object where a number belongs
        raise DecodeError(f"{what} entries must be numbers: {exc}") from None
    except OverflowError as exc:  # an integer beyond float range
        raise DecodeError(f"{what} entries must be finite: {exc}") from None
    except ValueError as exc:  # rows of unequal length, or text below the second level
        raise DecodeError(f"{what} must be equal-length rows of numbers: {exc}") from None
    if not _all_finite(m):
        raise DecodeError(f"{what} entries must be finite")
    return m


def _complex_from_json(obj: dict, re_key: str, im_key: str, what: str, rows: int = 1):
    """re + 1j * im, (rows n) x n, for the JSON object {re_key: re, im_key: im, "n": n}.

    im defaults to zeros.  A matrix (rows = 1) states n; a basis (rows = 2) may leave
    it to its column count.  A missing key raises DecodeError, a wrong shape DimensionError.
    """
    try:
        n = size_from_json(obj["n"], f"{what} size n") if rows == 1 or "n" in obj else None
        re = _rows_from_json(obj[re_key], float, what)
    except KeyError as exc:
        raise DecodeError(f"{what} is missing the key {exc}") from None
    # no default allocated from n: a huge n must fail the shape check, not allocate
    im = _rows_from_json(obj[im_key], float, what) if im_key in obj else np.zeros_like(re)
    if rows == 2 and re.ndim != 2:
        raise DimensionError(f"{what} basis must be 2n x n, got shape {re.shape}")
    n = re.shape[1] if n is None else n
    if re.shape != (rows * n, n) or im.shape != (rows * n, n):
        raise DimensionError(f"{what} claims n={n} but carries shapes {re.shape}/{im.shape}")
    return re + 1j * im


def matrix_from_json(obj) -> np.ndarray:
    """Decode {"n", "re", "im"} (im optional) or a plain nested real list."""
    if isinstance(obj, dict):
        return _complex_from_json(obj, "re", "im", "matrix JSON")
    if not isinstance(obj, (list, tuple)):
        raise DecodeError("matrix JSON must be a nested list or an object, "
                          f"got {type(obj).__name__}")
    m = _rows_from_json(obj, complex, "matrix JSON")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix JSON must be square, got {m.shape}")
    return m


# --- random samplers -------------------------------------------------------

def rng_from(seed_or_rng) -> np.random.Generator:
    """Accept a Generator, an int seed, or None (fresh entropy)."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def random_matrix(n: int, rng) -> np.ndarray:
    """Complex Ginibre draw: independent standard complex Gaussian entries."""
    n = check_size(n)
    rng = rng_from(rng)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / _SQRT2


def random_hermitian(n: int, rng) -> np.ndarray:
    a = random_matrix(n, rng)
    return (a + a.conj().T) / 2


def random_invertible(n: int, rng) -> np.ndarray:
    rng = rng_from(rng)
    for _ in range(100):
        a = random_matrix(n, rng)
        if is_invertible(a):
            return a
    raise SingularError("could not draw an invertible matrix")


def random_unitary(n: int, rng) -> np.ndarray:
    """Haar-ish unitary: QR of a Ginibre matrix with phases normalized.

    The phases are R's diagonal over its modulus, read off the QR's packed
    factor.  A zero diagonal entry (a draw of probability zero) gets phase
    1, so Q diag(phases) stays unitary.
    """
    rng = rng_from(rng)
    q, packed = thin_qr(random_matrix(n, rng))
    d = packed.diagonal()
    size = np.abs(d)
    return q * np.divide(d, size, out=np.ones_like(d), where=size > 0)


def random_psd(n: int, rng) -> np.ndarray:
    c = random_matrix(n, rng)
    return c @ c.conj().T


def random_density(n: int, rng) -> np.ndarray:
    """Random density matrix: normalized Wishart (psd, trace one, full rank a.s.)."""
    w = random_psd(n, rng)
    return w / np.trace(w).real
