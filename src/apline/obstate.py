"""Obstates: observable/state quadruples and their quantum dictionary.

An obstate bundles an observable point A, a state point W and a
reference pair (A0, Winf).  Expectation is the matrix trace of the
operator cross-ratio of the quadruple; with the standard reference pair
(0, infinity), Hermitian A = point_from_chart(a) and W the graph point
of a density matrix w, it reproduces trace(w a) exactly.

Slot calibration (the one place where conventions can silently break):
state points are built with point_from_cochart, i.e. the density matrix
w labels span[w; I], the graph over the *second* summand.  With the
kernel slotting kernel(A0, Winf, W, A) this is the unique combination
that yields trace(w a) rather than one of its inverted variants
trace(w^{-1} a), trace(a^{-1} w), ...; it also keeps singular density
matrices (pure states!) inside the domain, since span[w; I] is
transversal to 0 = span[I; 0] for every w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, grassmann, hermitian
from .crossratio import INF, classical_cr, is_inf, kernel
from .errors import (
    DecodeError,
    DimensionError,
    MembershipError,
    NonFiniteError,
    NonUniqueCompletionError,
    NotAntipodalError,
    NotHermitianError,
    NotInChartError,
    NotPureError,
    NotRankOneError,
    NotStrongError,
    NotTransversalError,
    TransversalityError,
    ZeroWeightError,
)
from .grassmann import (
    SubspacePoint,
    apply_map,
    infinity_point,
    point_from_chart,
    point_from_cochart,
    zero_point,
)

# Eigenvalues of a transported observable closer than this (relative)
# are reported as one spectral point with merged weight.
EIG_CLUSTER_RTOL = 1e-8

# Normalized smallest singular value at or below which the completion
# point counts as non-transversal to its target (the root's verification).
COMPLETION_TOL = 1e-6


@dataclass(frozen=True)
class Obstate:
    observable: SubspacePoint
    state: SubspacePoint
    ref_observable: SubspacePoint
    ref_state: SubspacePoint
    strong: bool


def new_obstate(A: SubspacePoint, W: SubspacePoint, A0: SubspacePoint,
                Winf: SubspacePoint, strong: bool = True) -> Obstate:
    """Validate and build an obstate; every error names the violated clause."""
    if not (A.n == W.n == A0.n == Winf.n):
        raise DimensionError("obstate slots have mixed dimensions")
    for name, point, space in (("observable A", A, "R"),
                               ("reference observable A0", A0, "R"),
                               ("state W", W, "Rprime"),
                               ("reference state Winf", Winf, "Rprime")):
        if not hermitian.membership(point, space):
            raise MembershipError(f"{name} is not a point of {space}")
    grassmann._require_transversal((
        (A0, Winf, "A0 and Winf are not transversal"),
        (W, A0, "A0 and W are not transversal"),
        (A, Winf, "A and Winf are not transversal")), TransversalityError)
    # A0 in R already puts it in R_{N,S} (see hermitian.membership)
    if strong and not grassmann._pair_value(_antipodal, A0, Winf):
        raise NotAntipodalError("strong obstate needs Winf = alpha(A0)")
    return Obstate(A, W, A0, Winf, bool(strong))


def _antipodal(A0: SubspacePoint, Winf: SubspacePoint) -> bool:
    """Whether Winf = alpha(A0): a pair value, kept while both live (the base points always do)."""
    return grassmann.is_orthocomplement(A0.basis, Winf.basis)


def state_from_density(w) -> SubspacePoint:
    """The state point of a density matrix w (Hermitian, any trace).

    Only finiteness and Hermitian symmetry are checked; positivity is not
    required here and is reported by report() as "positive" (is_positive).
    """
    w = algebra.as_matrix(w)
    if not algebra._all_finite(w):  # is_hermitian is False on NaN: name the cause first
        raise NonFiniteError("density entries must be finite")
    if not algebra.is_hermitian(w):
        raise NotHermitianError("density matrices must be Hermitian")
    return point_from_cochart(w)


def pure_state_point(psi) -> SubspacePoint:
    """The state point of a unit ray: density psi psi* / <psi, psi>."""
    psi = np.asarray(algebra._numeric(psi, "pure state"), dtype=complex).reshape(-1, 1)
    if not algebra._all_finite(psi):
        raise NonFiniteError("pure states need a finite vector")
    if not psi.size:
        raise DimensionError("pure states need a vector of length n >= 1")
    if not psi.any():
        raise ZeroWeightError("pure states need a nonzero vector")
    # an exact power-of-two rescale: the same bits, and <psi, psi> cannot overflow
    psi = psi * algebra._pow2_scale(psi)
    return point_from_cochart(psi @ psi.conj().T / float(np.vdot(psi, psi).real))


def standard_obstate(a, w) -> Obstate:
    """The strong obstate of (Hermitian a, density w) in the reference frame (0, inf)."""
    a = algebra.as_matrix(a)
    n = a.shape[0]
    return new_obstate(point_from_chart(a), state_from_density(w),
                       zero_point(n), infinity_point(n))


def expectation(o: Obstate) -> complex:
    """trace of the operator cross-ratio CR(A, W; A0, Winf).

    Equals trace(w a) in the standard frame; invariant under transport
    of all four slots by any automorphism of (S, tau).  In the frame
    (0, infinity) the kernel's gate runs no SVD for A and W built as graph
    points (their tags settle it, and the base points' memos the pair
    (A0, Winf)), and the kernel is w a, from the memoized cochart value of W
    and chart value of A.
    """
    return kernel(o.ref_observable, o.ref_state, o.state, o.observable).trace


def transport(o: Obstate, g: grassmann.ProjectiveMap) -> Obstate:
    """Move every slot of an obstate by a projective map (revalidating).

    A strong obstate stays strong iff the moved Winf is still alpha of
    the moved A0; new_obstate checks that the moved A0 is still in R.
    """
    ref_observable = apply_map(g, o.ref_observable)
    ref_state = apply_map(g, o.ref_state)
    strong = o.strong and grassmann._pair_value(_antipodal, ref_observable, ref_state)
    return new_obstate(apply_map(g, o.observable), apply_map(g, o.state),
                       ref_observable, ref_state, strong=strong)


# --- strong-obstate normal form ------------------------------------------------

def _strong_normal_form(o: Obstate) -> tuple[np.ndarray, np.ndarray]:
    """Chart pair (a, w) after the unitary transport sending A0 -> 0.

    The transport commutes with alpha and preserves R, so it carries
    (A0, Winf) to (0, infinity) exactly; the observable then has a
    Hermitian chart value and the state a Hermitian graph value.  When
    A0 is the base point 0 itself (the object zero_point built, not a
    point equal to it) the transport is skipped: a and w come from the
    memoized chart values of A and W, which the kernel of expectation and
    the order test read too, and a is the Hermitian part the order test
    reads.  The transport of 0 is the identity, its computed rep too (see
    hermitian.transport_to_zero), but apply_map's QR re-canonicalizes each
    moved basis, so a transported (a, w) differs from these in its last bits.
    The skip thus fixes the standard frame's bits, and it stays out of the
    shortcut audit, which switches off only shortcuts that keep every bit.
    Otherwise the moved A and W are cached on A and W while the transport
    lives (see apply_map).  Winf is never read.
    """
    if not o.strong:
        raise NotStrongError("second moments need a strong obstate")
    A, W = o.observable, o.state
    if not grassmann._is_zero_point(o.ref_observable):
        g = hermitian.transport_to_zero(o.ref_observable)
        A, W = apply_map(g, A), apply_map(g, W)
    # A's chart value and W's cochart value are each tested and symmetrized once per point,
    # A's with the order test's (see grassmann._hermitian_parts), at tolerance 1e-7
    gap, size, a = grassmann._hermitian_parts(A)
    w_gap, w_size, w = grassmann._cochart_hermitian_parts(W)
    if not algebra._hermitian_within(gap, size, 1e-7):
        raise NotHermitianError("transported observable has no Hermitian chart value")
    if not algebra._hermitian_within(w_gap, w_size, 1e-7):
        raise NotHermitianError("transported state has no Hermitian graph value")
    return a, w


def variance(o: Obstate) -> float:
    """trace(a w a) - trace(a w)^2 in the tangent algebra at A0."""
    return _variance(*_strong_normal_form(o))


def _variance(a: np.ndarray, w: np.ndarray) -> float:
    second = (a @ w @ a).trace().real
    first = (a @ w).trace().real
    return float(second - first * first)


def distribution(o: Obstate) -> list[tuple[float, float]]:
    """Spectral values of the observable with their state weights.

    Eigendecomposes the transported observable a = sum lambda_i P_i and
    returns the pairs (lambda_i, trace(w P_i)), nearly-equal eigenvalues
    merged; weights sum to trace(w).
    """
    return _distribution(*_strong_normal_form(o))


def _distribution(a: np.ndarray, w: np.ndarray) -> list[tuple[float, float]]:
    vals, vecs = algebra.eigh(a)
    scale = 1.0 + float(np.abs(vals).max(initial=0.0))
    out: list[tuple[float, float]] = []
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j] - vals[j - 1] <= EIG_CLUSTER_RTOL * scale:
            j += 1
        block = vecs[:, i:j]
        weight = float((block.conj().T @ w @ block).trace().real)
        # one eigenvalue's mean() is vals[i] + 0.0 bit for bit: numpy's sum starts at
        # +0.0, so -0.0 becomes +0.0
        value = float(vals[i]) + 0.0 if j == i + 1 else float(vals[i:j].mean())
        out.append((value, weight))
        i = j
    return out


# --- purity, positivity, cyclic order --------------------------------------------

def is_pure(o: Obstate) -> bool:
    """Whether (W, Winf) is a rank-one pair: whether arithmetic_distance(W, Winf) == 1.

    This is the decision of line_family, and so of report's "pure".
    """
    return hermitian.is_rank_one_pair(o.state, o.ref_state)


# an endpoint on the horizon of the cut chart is not inside any of its intervals
_ORDER_ERRORS = (NotInChartError, NotTransversalError, NotHermitianError)


def _on_arc(o: Obstate, z: SubspacePoint) -> bool:
    """Whether (A0, z, Winf) is cyclically ordered; A0's cached order value is computed once."""
    try:
        return hermitian._ordered(o.ref_observable, z, o.ref_state)
    except _ORDER_ERRORS:
        return False


def is_positive(o: Obstate) -> bool:
    """Whether (A0, W, Winf) is cyclically ordered."""
    return _on_arc(o, o.state)


def is_cyclically_ordered(o: Obstate) -> bool:
    """Whether (A0, A, Winf) and (A0, W, Winf) are both cyclically ordered.

    Both the observable and the state lie on the arc from A0 to Winf, so
    the pair (A0, Winf) does not separate (A, W) and the expectation
    value is nonnegative.  (Listing the first triple with A and A0
    exchanged would put A on the opposite arc and flip the sign of the
    expectation; the order used here is the one that makes the
    positivity consequence true.)
    """
    return _on_arc(o, o.observable) and _on_arc(o, o.state)


# --- pure-state expectation through the intrinsic line ----------------------------

def _line_factors(fam: "hermitian.LineFamily"):
    """The factors of fam that every target shares: Q and R of line(0) = QR, and q.

    line(t) = L0 + t q v^* with L0 = frame [I; base] and q = s frame [0; u],
    for the direction d = s u v^* that fam carries.
    """
    # the library's one np.linalg.qr, for the R that the solve reads; it is also the obstates
    # workload's only one, whose trace benchmarks/tests/test_benchmark.py asserts (linalg.qr > 0)
    q_basis, r = algebra.thin_qr(fam.raw_basis(0.0), with_r=True)
    return q_basis, r, fam.s * (fam.frame[:, fam.n:] @ fam.u)


def _completion_parameter(fam: "hermitian.LineFamily", factors, target: SubspacePoint):
    """Parameter t where the line meets the non-transversality locus of target.

    With factors = (Q, R, q) from _line_factors and M0 = [Q | T],
    T = target's basis, the matrix determinant lemma gives
    det [line(t) | T] = det M0 det R (1 + t k),
    k = v^* R^{-1} (M0^{-1} q)[:n].  So the root is t = -1/k, or INF when
    k vanishes against max(1, |1 + k|), and it is unique.  Needs line(0)
    transversal to target (new_obstate proves it for Winf against A and
    A0), so that M0 is invertible.  A complex root raises
    NonUniqueCompletionError, and the root is verified by the normalized
    smallest singular value of [line(root) | T] against COMPLETION_TOL.
    """
    q_basis, r, q = factors
    x = algebra.solve(np.concatenate((q_basis, target.basis), axis=1), q)[:fam.n]
    k = complex(fam.vh[0] @ algebra.solve(r, x))
    if abs(k) < 1e-12 * max(1.0, abs(1.0 + k)):
        root = INF
    else:
        z = -1.0 / k
        if abs(z.imag) > 1e-6 * (1.0 + abs(z.real)):
            raise NonUniqueCompletionError(
                "no real point of the line meets the non-transversality locus")
        root = float(z.real)
    s = algebra.singular_values(np.concatenate((fam.raw_basis(root), target.basis), axis=1))
    if s[-1] / s[0] > COMPLETION_TOL:
        raise NonUniqueCompletionError(
            "the closed-form completion point failed its singular-value check "
            "against COMPLETION_TOL")
    return root


def pure_expectation(o: Obstate):
    """Expectation of a pure obstate as a classical 4-point cross-ratio.

    Builds the intrinsic line through (W, Winf), locates the points a,
    a0 where the line leaves the affine neighborhoods of A and A0 (each
    the root of one rank-one determinant, in closed form by the matrix
    determinant lemma; see _completion_parameter), and returns
    CR(a, W; a0, Winf) of the four line parameters (W at 1, Winf at 0).
    Agrees with expectation(o) whenever the latter's trace is real.
    """
    try:
        fam = hermitian.line_family(o.state, o.ref_state)
    except NotRankOneError:
        raise NotPureError("pure_expectation needs a rank-one (W, Winf) pair") from None
    factors = _line_factors(fam)
    t_a = _completion_parameter(fam, factors, o.observable)
    t_a0 = _completion_parameter(fam, factors, o.ref_observable)
    return classical_cr(t_a, 1.0, t_a0, 0.0)


# --- JSON ------------------------------------------------------------------------
# The slots are read here; their numbers by algebra's JSON reader.

_NAMED_POINTS = {"zero": zero_point, "infinity": infinity_point,
                 "one": grassmann.one_point}


def _point_from_json(obj, role: str, n: int | None = None) -> SubspacePoint:
    if isinstance(obj, str):
        if n is None:
            raise DecodeError(f"{role}: named points need n known from another slot")
        if obj not in _NAMED_POINTS:
            raise DecodeError(f"{role}: unknown named point {obj!r}")
        return _NAMED_POINTS[obj](n)
    if isinstance(obj, dict):
        if "chart" in obj:
            return point_from_chart(algebra.matrix_from_json(obj["chart"]))
        if "density" in obj:
            return state_from_density(algebra.matrix_from_json(obj["density"]))
        if "basis_re" in obj:
            return SubspacePoint(algebra._complex_from_json(obj, "basis_re", "basis_im",
                                                            "point JSON", rows=2))
    raise DecodeError(f"{role}: expected a chart/density/basis point object "
                      "or the names 'zero'/'infinity'/'one'")


def obstate_from_json(obj: dict) -> Obstate:
    """Build an obstate from {"A":..., "W":..., "A0":..., "Winf":..., "strong":...}.

    Point slots accept {"chart": matrix}, {"density": matrix}, a raw
    basis object, or (for the slots after A) "zero" / "infinity" / "one".
    The slot "strong" is JSON true or false; without it the obstate is strong.
    A payload that does not decode raises DecodeError.
    """
    if not isinstance(obj, dict):
        raise DecodeError("obstate JSON must be an object with the slots A, W, A0, Winf, "
                          f"got {type(obj).__name__}")
    missing = [slot for slot in ("A", "W", "A0", "Winf") if slot not in obj]
    if missing:
        raise DecodeError(f"obstate JSON is missing the slot(s) {', '.join(missing)}")
    strong = obj.get("strong", True)
    if not isinstance(strong, bool):  # bool("false") is True
        raise DecodeError(f"obstate JSON slot strong must be true or false, got {strong!r}")
    A = _point_from_json(obj["A"], "A")
    return new_obstate(A,
                       _point_from_json(obj["W"], "W", A.n),
                       _point_from_json(obj["A0"], "A0", A.n),
                       _point_from_json(obj["Winf"], "Winf", A.n),
                       strong)


def _scalar_to_json(v):
    """A scalar as JSON: a float, "infinity", or {"re", "im"} when not real within 1e-12."""
    if is_inf(v):
        return "infinity"
    v = complex(v)
    if abs(v.imag) <= 1e-12 * (1.0 + abs(v)):
        return v.real
    return {"re": v.real, "im": v.imag}


def report(o: Obstate) -> dict:
    """The full dictionary for one obstate, JSON-ready."""
    out: dict = {"expectation": _scalar_to_json(expectation(o))}
    if o.strong:
        a, w = _strong_normal_form(o)
        out["variance"] = _variance(a, w)
        out["distribution"] = [[v, wt] for v, wt in _distribution(a, w)]
    # one pure_expectation call decides purity and, when pure, the value
    try:
        pure_out = {"pure_expectation": _scalar_to_json(pure_expectation(o))}
    except NotPureError:
        pure_out = {}
    except NonUniqueCompletionError as exc:
        pure_out = {"pure_expectation_error": str(exc)}
    out["pure"] = bool(pure_out)
    out["positive"] = _on_arc(o, o.state)
    out["cyclically_ordered"] = out["positive"] and _on_arc(o, o.observable)
    out.update(pure_out)
    return out
