"""The matrix *-algebra A = M(n, C).

Products, involution, positivity order, normalized trace, homotope
products and associative-pair primitives, together with the numeric
tolerances and random samplers used throughout the package.

All functions are pure and operate on immutable-by-convention numpy
arrays (complex128); nothing here mutates its arguments.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NonFiniteError, SingularError

# Tolerances of the double-precision backend.  Dimensions stay small
# (n <= 16), which keeps conditioning mild enough for these to be safe.
TOL_EQ = 1e-9    # relative Frobenius tolerance for approximate equality
TOL_PSD = 1e-9   # eigenvalue floor for positivity, relative to ||a||
TOL_INV = 1e-10  # smallest/largest singular value ratio for invertibility


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix (complex128, C-contiguous copy)."""
    m = np.array(a, dtype=complex)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise DimensionError(f"expected a square matrix of size n >= 1, got shape {m.shape}")
    return m


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def zero(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=complex)


def norm(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def almost_equal(a, b, tol: float = TOL_EQ) -> bool:
    """Relative Frobenius comparison: ||a - b|| <= tol * (1 + max(||a||, ||b||))."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    scale = 1.0 + max(norm(a), norm(b))
    return norm(a - b) <= tol * scale


def _check_same_dim(*mats) -> int:
    n = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape[0] != n:
            raise DimensionError(f"dimension mismatch: {n} vs {m.shape[0]}")
    return n


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
    top = max(np.abs(a.real).max(), np.abs(a.imag).max())
    return 2.0 ** (100 - int(np.frexp(top)[1]))


def is_hermitian(a, tol: float = TOL_EQ) -> bool:
    a = as_matrix(a)
    with np.errstate(over="ignore", invalid="ignore"):
        gap, size = norm(a - a.conj().T), norm(a)
    if not math.isfinite(gap + size):
        return bool(np.isfinite(a).all()) and is_hermitian(a * _pow2_scale(a), tol)
    return gap <= tol * (1.0 + size)


def is_psd(a) -> bool:
    """Positive semidefinite test.

    Non-Hermitian input returns False (the order lives on Herm(A) only;
    no silent symmetrization).  Eigenvalues above -TOL_PSD * ||a|| count as
    nonnegative.  When ||a|| overflows, the test decides on the exact
    power-of-two rescale of a: positivity is invariant under positive scaling.
    """
    a = as_matrix(a)
    if not is_hermitian(a):
        return False
    with np.errstate(over="ignore"):
        size = norm(a)
    if not math.isfinite(size):  # a is finite here: is_hermitian rejects inf and nan
        return is_psd(a * _pow2_scale(a))
    evals = np.linalg.eigvalsh((a + a.conj().T) / 2)
    return bool(evals.min(initial=0.0) >= -TOL_PSD * (1.0 + size))


def leq(a, b) -> bool:
    """The order of the Hermitian part: a <= b iff b - a is psd."""
    return is_psd(as_matrix(b) - as_matrix(a))


def is_invertible(a, tol: float = TOL_INV) -> bool:
    """s_min(a) > tol * s_max(a); a NaN or infinite entry raises NonFiniteError.

    Finiteness is read off the SVD, not checked first: LAPACK does not
    converge on a NaN entry, and an infinite one gives NaN singular values.
    """
    a = as_matrix(a)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:  # no convergence: decided below like a NaN output
        s = np.full(1, np.nan)
    if s[-1] > tol * max(s[0], 1e-300):
        return True
    # a finite a can still overflow s_max to inf, so the entries decide
    if not np.isfinite(s).all() and not np.isfinite(a).all():
        raise NonFiniteError("matrix entries must be finite")
    return False


def inverse(a) -> np.ndarray:
    a = as_matrix(a)
    if not is_invertible(a):
        raise SingularError("matrix is singular within tolerance")
    return np.linalg.inv(a)


def is_unitary(a, tol: float = TOL_EQ) -> bool:
    return _is_unitary(as_matrix(a), 1.0, tol)


def _is_unitary(a: np.ndarray, unit: float, tol: float) -> bool:
    """a* a = unit^2 I = a a* at the relative tolerance."""
    eye = unit * unit * identity(a.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        left, right = norm(a.conj().T @ a - eye), norm(a @ a.conj().T - eye)
    if not math.isfinite(left + right):
        # a* a = I iff (c a)* (c a) = c^2 I: decide on the exact rescale c a
        c = _pow2_scale(a)
        return bool(np.isfinite(a).all()) and _is_unitary(c * a, c, tol)
    # finite gaps bound ||a||^2 by sqrt(n) (||a* a - I|| + sqrt(n)): no overflow
    scale = unit * unit + norm(a) ** 2
    return left <= tol * scale and right <= tol * scale


def trace_normalized(a) -> complex:
    """The trace normalized so a rank-one idempotent has trace 1.

    For M(n, C) that is the ordinary matrix trace; it is symmetric
    (trace(ab) = trace(ba)) and positive on psd elements.
    """
    return complex(np.trace(as_matrix(a)))


# --- homotopes ------------------------------------------------------------

def homotope_assoc(a, u, b) -> np.ndarray:
    """The u-homotope product a . b = aub."""
    a, u, b = as_matrix(a), as_matrix(u), as_matrix(b)
    _check_same_dim(a, u, b)
    return a @ u @ b


def homotope_lie(a, u, b) -> np.ndarray:
    """The u-homotope bracket [a, b] = aub - bua."""
    a, u, b = as_matrix(a), as_matrix(u), as_matrix(b)
    _check_same_dim(a, u, b)
    return a @ u @ b - b @ u @ a


def homotope_jordan(a, u, b) -> np.ndarray:
    """The u-homotope Jordan product (aub + bua)/2."""
    a, u, b = as_matrix(a), as_matrix(u), as_matrix(b)
    _check_same_dim(a, u, b)
    return (a @ u @ b + b @ u @ a) / 2


# --- associative pair (A, A) ----------------------------------------------

class PairElement(NamedTuple):
    """An element (e+, e-) of the associative pair (A, A)."""
    plus: np.ndarray
    minus: np.ndarray


def pair_triple(x, y, z) -> np.ndarray:
    """The triple product <xyz> of the pair (A, A): plain xyz."""
    x, y, z = as_matrix(x), as_matrix(y), as_matrix(z)
    _check_same_dim(x, y, z)
    return x @ y @ z


def is_pair_idempotent(e: PairElement) -> bool:
    """Check <e+ e- e+> = e+ and <e- e+ e-> = e-."""
    p, m = as_matrix(e.plus), as_matrix(e.minus)
    _check_same_dim(p, m)
    return almost_equal(p @ m @ p, p) and almost_equal(m @ p @ m, m)


# --- JSON encoding ---------------------------------------------------------
# Repo-wide matrix encoding: {"n": int, "re": [[..]], "im": [[..]]}, row-major.

def size_from_json(value, what: str) -> int:
    """A JSON size field: a whole number (an int, or a float like 2.0), never a bool."""
    if isinstance(value, bool) or not (isinstance(value, int) or
                                       isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{what} must be a whole number, got {value!r:.40}")
    return int(value)


_NON_NUMBERS = frozenset((str, bool, type(None)))


def _reject_non_numbers(rows, what: str) -> None:
    """Raise ValueError at a string, bool or null entry of JSON matrix rows.

    numpy would read "1" and true as 1.0, "infinity" as inf and null as
    nan, which the finiteness check would then name as the cause.  Two
    levels are searched, all that a matrix has; deeper nesting fails the
    decoder's shape check.
    """
    for row in rows if isinstance(rows, (list, tuple)) else (rows,):
        row = row if isinstance(row, (list, tuple)) else (row,)
        if not _NON_NUMBERS.isdisjoint(map(type, row)):
            bad = next(v for v in row if type(v) in _NON_NUMBERS)
            raise ValueError(f"{what} entries must be numbers, got {bad!r:.40}")


def matrix_from_json(obj) -> np.ndarray:
    """Decode {"n", "re", "im"} (im optional) or a plain nested real list."""
    try:
        if isinstance(obj, (list, tuple)):
            _reject_non_numbers(obj, "matrix JSON")
            m = np.array(obj, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise DimensionError(f"matrix JSON must be square, got {m.shape}")
        elif isinstance(obj, dict):
            n = size_from_json(obj["n"], "matrix JSON size n")
            for part in ("re", "im"):
                _reject_non_numbers(obj.get(part, ()), "matrix JSON")
            re = np.array(obj["re"], dtype=float)
            # no default allocated from n: a huge n must fail the shape check, not allocate
            im = np.array(obj["im"], dtype=float) if "im" in obj else np.zeros_like(re)
            if re.shape != (n, n) or im.shape != (n, n):
                raise DimensionError(
                    f"matrix JSON claims n={n} but carries shapes {re.shape}/{im.shape}")
            m = re + 1j * im
        else:
            raise ValueError("matrix JSON must be a nested list or an object, "
                             f"got {type(obj).__name__}")
    except TypeError as exc:  # an object where a number belongs
        raise ValueError(f"matrix JSON entries must be numbers: {exc}") from None
    except OverflowError as exc:  # an integer beyond float range
        raise ValueError(f"matrix JSON entries must be finite: {exc}") from None
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix JSON entries must be finite")
    return m


# --- random samplers -------------------------------------------------------

def rng_from(seed_or_rng) -> np.random.Generator:
    """Accept a Generator, an int seed, or None (fresh entropy)."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def random_matrix(n: int, rng) -> np.ndarray:
    """Complex Ginibre draw: independent standard complex Gaussian entries."""
    rng = rng_from(rng)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def random_hermitian(n: int, rng) -> np.ndarray:
    a = random_matrix(n, rng)
    return (a + a.conj().T) / 2


def random_invertible(n: int, rng) -> np.ndarray:
    rng = rng_from(rng)
    for _ in range(100):
        a = random_matrix(n, rng)
        if is_invertible(a):
            return a
    raise SingularError("could not draw an invertible matrix")  # pragma: no cover


def random_unitary(n: int, rng) -> np.ndarray:
    """Haar-ish unitary: QR of a Ginibre matrix with phases normalized."""
    rng = rng_from(rng)
    q, r = np.linalg.qr(random_matrix(n, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_psd(n: int, rng) -> np.ndarray:
    c = random_matrix(n, rng)
    return c @ c.conj().T


def random_density(n: int, rng) -> np.ndarray:
    """Random density matrix: normalized Wishart (psd, trace one, full rank a.s.)."""
    w = random_psd(n, rng)
    return w / np.trace(w).real
