"""A derandomized fuzz of the library, called directly.

The contract: every call ends in a value or an AplineError, never a numpy
LinAlgError, a NaN or a RuntimeWarning (tier-1 turns RuntimeWarning into
an error).  This slice aims at points near the horizons of 0 and infinity,
where the chart guards and the kernel's gate decide, and checks that a
guard or a gate settled by memoized sines or a graph point's tag decides as
its SVD does.
"""

import json
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from apline import algebra, classical, crossratio, grassmann, hermitian, obstate
from apline.crossratio import INF
from apline.errors import (AplineError, DimensionError, NotANumberError, NotInUniverseError,
                           NotTransversalError, ValueOverflowError)

# 10-based exponents of the smallest singular value: dense around the transversality
# threshold (a sine of about 2e-8) and the guards' sine bound, sparse elsewhere
_EXPONENTS = st.one_of(st.floats(-8.3, -7.3), st.floats(-17.0, -2.0), st.just(None))


def _near_singular(draw, n):
    """An n x n matrix with one small singular value (zero for exponent None)."""
    exponent = draw(_EXPONENTS)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = np.r_[0.0 if exponent is None else 10.0 ** exponent, rng.uniform(0.5, 2.0, n - 1)]
    u = algebra.random_unitary(n, rng)
    v = u.conj().T if draw(st.booleans()) else algebra.random_unitary(n, rng)
    return (u * s) @ v


_N = st.sampled_from([1, 2, 3, 4])


@st.composite
def _near_singular_matrix(draw):
    return _near_singular(draw, draw(_N))


@st.composite
def _near_singular_pair(draw):
    n = draw(_N)
    return _near_singular(draw, n), _near_singular(draw, n)


def _outcome(fn):
    """(fn()'s bits or its error's type and message, the warnings it gave)."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always", grassmann.TransversalityWarning)
        warnings.simplefilter("error", RuntimeWarning)
        try:
            value = np.asarray(fn())
            assert not np.isnan(value).any()
            value = value.tobytes()
        except AplineError as exc:
            value = (type(exc), str(exc))
    return value, [(r.category, str(r.message)) for r in record]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_near_singular_matrix())
def test_chart_guards_settled_by_memoized_sines_decide_as_their_svd(m):
    n = m.shape[0]
    # span[m; I] nears infinity, the chart's horizon, and span[I; m] nears 0, the cochart's
    for make, read, horizon in ((grassmann.point_from_cochart, grassmann.chart_repr,
                                 grassmann.infinity_point(n)),
                                (grassmann.point_from_chart, grassmann.cochart_repr,
                                 grassmann.zero_point(n))):
        fresh, memoized = make(m), make(m)
        grassmann.transversality_margin(memoized, horizon)
        assert _outcome(lambda: read(memoized)) == _outcome(lambda: read(fresh))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_near_singular_pair())
def test_the_kernel_in_the_frame_zero_infinity_decides_as_the_solve(pair):
    mb, my = pair
    n = mb.shape[0]
    # b nears 0 (the pair (b, x) of the gate) and y nears infinity (the pair (y, a))
    outcomes = [_outcome(lambda: crossratio.kernel(*frame, grassmann.point_from_chart(mb),
                                                   grassmann.point_from_cochart(my)).matrix)
                for frame in _frames(n)]
    assert outcomes[0] == outcomes[1]


def _frames(n):
    """The base points (0, infinity), then points built from their bases, equal but not them."""
    base = (grassmann.zero_point(n), grassmann.infinity_point(n))
    return base, tuple(grassmann.SubspacePoint(p.basis) for p in base)


def test_a_hand_built_obstate_failing_the_gate_gets_the_solves_error_and_warning():
    n = 2
    near = grassmann.point_from_chart(np.diag([1.0, 1e-7]))   # margin to 0 about 5e-8
    off = grassmann.point_from_chart(np.diag([1.0, 0.0]))      # meets 0
    beyond = grassmann.point_from_cochart(np.diag([1.0, 0.0]))  # meets infinity
    fine = grassmann.point_from_chart(np.eye(n))
    for A, W in ((fine, near), (fine, off), (beyond, fine), (beyond, near)):
        # new_obstate would reject these slots; the kernel's gate must, on both paths
        outcomes = [_outcome(lambda: obstate.expectation(obstate.Obstate(A, W, *frame, True)))
                    for frame in _frames(n)]
        assert outcomes[0] == outcomes[1]
    # the last case: W passes with a warning, then A is off the chart
    assert outcomes[0][0] == (NotTransversalError, "kernel needs y in U_a")
    assert [category for category, _ in outcomes[0][1]] == [grassmann.TransversalityWarning]


def _untagged(p):
    """A point with p's basis, bit for bit, and an empty memo: equal to p but not p."""
    q = grassmann.SubspacePoint.__new__(grassmann.SubspacePoint)
    q.n, q.basis, q._memo = p.n, p.basis, {}
    return q


@st.composite
def _hermitian_pair(draw):
    """Hermitian near-singular a and w of one size, a scaled across the graph norm bound."""
    n = draw(_N)
    a, w = (_hermitian_near_singular(draw, n) for _ in range(2))
    # scales on both sides of the tag's bound and of the gate's warning band and threshold
    return a * 10.0 ** draw(st.sampled_from([-2.0, 0.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.5])), w @ w


def _hermitian_near_singular(draw, n):
    m = _near_singular(draw, n)
    return (m + m.conj().T) / 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_hermitian_pair())
def test_a_hand_built_obstate_reports_the_same_with_tagged_and_untagged_slots(pair):
    a, w = pair
    n = a.shape[0]
    frame = (grassmann.zero_point(n), grassmann.infinity_point(n))

    def report(tag_a, tag_w):
        # new graph points per report, so no memo is shared between the paths
        A, W = grassmann.point_from_chart(a), grassmann.point_from_cochart(w)
        o = obstate.Obstate(A if tag_a else _untagged(A), W if tag_w else _untagged(W),
                            *frame, True)
        text = json.dumps(obstate.report(o), sort_keys=True)  # floats as exact reprs
        assert "NaN" not in text
        return np.frombuffer(text.encode(), dtype=np.uint8)

    outcomes = [_outcome(lambda: report(tag_a, tag_w))
                for tag_a in (True, False) for tag_w in (True, False)]
    assert all(outcome == outcomes[0] for outcome in outcomes)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_near_singular_matrix(), st.booleans())
def test_chart_in_frame_reads_the_base_frame_as_the_solve_does(m, memoized):
    n = m.shape[0]
    zero, infinity = grassmann.zero_point(n), grassmann.infinity_point(n)
    for make in (grassmann.point_from_chart, grassmann.point_from_cochart):
        for frame in ((infinity, zero), (zero, infinity)):
            z = make(m)
            if memoized:
                grassmann.transversality_margin(z, frame[1])
            # the base points, then points with their bases that are not them
            outcomes = [_outcome(lambda: hermitian.chart_in_frame(z, *f) + 0.0)
                        for f in (frame, tuple(_untagged(p) for p in frame))]
            # + 0.0 turns -0.0 into 0.0: the two may differ in the sign of an exact zero
            assert outcomes[0] == outcomes[1]


# --- the unitary torsor and the Cayley unitary near the edge of R_{N,S} ---------------

# the factor f of membership's tolerance by which a point is moved off R: inside, at the
# edge on both sides, and outside
_IN_R = st.sampled_from([0.0, 0.5, 0.99])
_OFF_R = st.sampled_from([0.0, 0.5, 0.99, 1.01, 2.0])
_SLOTS = st.sampled_from(["near", "near", "near", "north", "south", "other-n"])


def _membership_tol(n):
    """membership's bound on ||X* Omega X||_F for an orthonormal basis X (is_orthocomplement)."""
    return algebra.TOL_EQ * (1.0 + np.sqrt(n)) / np.sqrt(2.0)


def _near_r_point(draw, n, factors):
    """(a point whose Lagrangian residual is f times membership's tolerance, f).

    For X in R and a skew-Hermitian K with ||K||_F = 1, X + d Omega X K is orthonormal up to
    d^2 and has X'* Omega X' = -2 d K up to d^2, so d = f tol / 2 puts the residual at f tol.
    Its basis is handed to SubspacePoint at a scale 2^-500, 1 or 2^500.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = hermitian.random_r_point(n, rng).basis
    k = algebra.random_matrix(n, rng)
    k = (k - k.conj().T) / np.linalg.norm(k - k.conj().T)
    f = draw(factors)
    moved = x + f * _membership_tol(n) / 2 * np.vstack([x[n:], -x[:n]]) @ k
    return grassmann.SubspacePoint(moved * 2.0 ** draw(st.sampled_from([-500, 0, 500]))), f


@st.composite
def _torsor_arguments(draw):
    """Three (point, inside) arguments: moved off R by a factor f, a pole, or of another n.

    inside tells whether the point is within membership's tolerance.  Half the cases draw
    three points of one n inside it, which have a torsor.
    """
    n = draw(st.sampled_from([1, 2, 3, 4, 6]))
    inside = draw(st.booleans())
    args = []
    for slot in (draw(_SLOTS) if not inside else "near" for _ in range(3)):
        if slot in ("north", "south"):
            args.append((hermitian.poles(n)[slot == "south"], False))
        else:
            p, f = _near_r_point(draw, n if slot == "near" else n % 4 + 1,
                                 _IN_R if inside else _OFF_R)
            args.append((p, f < 1))
    return args


def _checked(fn):
    """fn()'s value, or the AplineError it raised; no RuntimeWarning, no other error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return fn()
        except AplineError as exc:
            return exc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_torsor_arguments())
def test_the_unitary_torsor_and_the_cayley_unitary_near_the_edge_of_the_universe(args):
    points = [p for p, _ in args]
    us = []
    for p, inside in args:
        u = _checked(lambda: hermitian.cayley_to_unitary(p))
        if inside:
            # membership's bound eps gives ||u* u - I||_F <= 2 eps / (1 - eps) (_cayley_unitary)
            assert np.linalg.norm(u.conj().T @ u - np.eye(p.n)) <= 2.5 * _membership_tol(p.n)
            us.append(u)
        else:
            assert isinstance(u, NotInUniverseError)
    w = _checked(lambda: hermitian.unitary_torsor(*points))
    if len({p.n for p in points}) > 1:
        assert isinstance(w, DimensionError)
    elif len(us) < 3:
        assert isinstance(w, NotInUniverseError)
    else:
        # the polar step keeps the torsor of three members a member
        assert hermitian.membership(w, "RNS")
        got = hermitian.cayley_to_unitary(w)
        want = us[0] @ us[1].conj().T @ us[2]
        assert np.linalg.norm(got - want) <= 1e-7 * (1.0 + np.linalg.norm(want))


# --- the public constructors at the edges of the float range -----------------------------

# binary exponents of an input's scale: a dot of the entries stays finite at 2^+-500 and
# overflows or underflows at 2^+-1000, where the finiteness proof falls through to the mask
_SCALES = st.sampled_from([-1000, -500, 500, 1000])


@st.composite
def _scaled_inputs(draw):
    """(n, a 2n x 2n complex Gaussian draw, per-entry scales), the scales one 2^k or two.

    Two scales put entries at 2^k and 2^-k (or 2^k and 1) into one input, a dynamic range
    that the rank rule may reject.
    """
    n = draw(_N)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = (rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))) / 2
    k = draw(_SCALES)
    low = draw(st.sampled_from([k, -k, 0]))
    scales = np.where(rng.random((2 * n, 2 * n)) < 0.5, 2.0 ** k, 2.0 ** low)
    return n, g, scales


def _constructor_calls(n, g, scales):
    """(name, call) of each public constructor on the scaled input."""
    m = g * scales
    h = (g[:n, :n] + g[:n, :n].conj().T) * scales[:n, :n]
    h = (h + h.conj().T) / 2  # Hermitian: a density need not be positive here
    weights = list(np.abs(m[0]))
    big = [int(v * 2.0 ** 52) << 1000 for v in np.abs(g[0])]
    return (("SubspacePoint", lambda: grassmann.SubspacePoint(m[:, :n]).basis),
            ("point_from_chart", lambda: grassmann.point_from_chart(m[:n, :n]).basis),
            ("state_from_density", lambda: obstate.state_from_density(h).basis),
            ("ProjectiveMap", lambda: grassmann.ProjectiveMap(m).rep),
            ("Measure", lambda: classical.Measure(weights).weights),
            ("ClassicalFn", lambda: classical.ClassicalFn(list(m[0].real)).values),
            # Python integers up to 2^1056, beyond the float range from 2^1024
            ("Measure-int", lambda: classical.Measure(big).weights),
            ("ClassicalFn-int", lambda: classical.ClassicalFn([-v for v in big]).values))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_scaled_inputs())
def test_the_public_constructors_at_the_edges_of_the_float_range(case):
    n, g, scales = case
    for name, call in _constructor_calls(n, g, scales):
        value = _checked(call)
        if isinstance(value, AplineError):
            continue
        value = np.asarray(value, dtype=complex if name != "Measure" else float)
        assert np.isfinite(value).all(), name
        if name in ("SubspacePoint", "point_from_chart", "state_from_density"):
            # an orthonormal basis of an n-dimensional subspace of C^2n
            assert value.shape == (2 * n, n), name
            assert np.linalg.norm(value.conj().T @ value - np.eye(n)) <= 1e-12, name


# --- the readers of public scalars and arrays ---------------------------------------------

# a value of each kind that a scalar or an array entry may be given: no number, a bool, the
# point INF, an integer beyond the float range, a list, non-finite floats, numpy and complex
_CATALOGUE = (None, "2", True, INF, 10 ** 400, [1], np.nan, np.inf, -np.inf, np.float32(0.5),
              2j)


def _pair(r):
    """An extended scalar as the numbers (p, q) of p / q: INF is (1, 0), and NaN stays NaN."""
    return (1.0, 0.0) if r is INF else (r, 1.0)


def _catalogue_calls(v):
    """(name, call) of each public entry point that reads v as a scalar or an array entry."""
    zero, infinity = grassmann.zero_point(1), grassmann.infinity_point(1)
    y = grassmann.point_from_chart(np.array([[2.0]]))
    return (("scalar_action", lambda: grassmann.scalar_action(v, infinity, zero, y).basis),
            ("classical_cr", lambda: _pair(crossratio.classical_cr(v, 1.0, 0.0, INF))),
            ("ratio", lambda: _pair(crossratio.ratio(v, 1.0, 0.0))),
            ("proj_equal", lambda: crossratio.proj_equal(v, 1.0)),
            ("is_hermitian", lambda: algebra.is_hermitian([[1.0, v], [v, 1.0]])),
            ("almost_equal", lambda: algebra.almost_equal([[1.0, v]], [[1.0, 1.0]])),
            ("almost_equal-right", lambda: algebra.almost_equal([[1.0, 1.0]], [[v, 1.0]])),
            ("inverse", lambda: algebra.inverse([[1.0, v], [0.0, 1.0]])),
            ("SubspacePoint", lambda: grassmann.SubspacePoint([[1.0], [v]]).basis),
            ("ProjectiveMap", lambda: grassmann.ProjectiveMap([[1.0, v], [0.0, 1.0]]).rep),
            ("pure_state_point", lambda: obstate.pure_state_point([1.0, v]).basis),
            ("pure_state_point-scalar", lambda: obstate.pure_state_point(v).basis))


def test_each_reader_of_public_scalars_and_arrays_gives_a_value_or_a_typed_error():
    for v in _CATALOGUE:
        for name, call in _catalogue_calls(v):
            # _outcome lets only an AplineError through, fails on a NaN value, and raises
            # on a RuntimeWarning
            value, caught = _outcome(call)
            assert caught == [], (name, v)
    # a number of every kind is read, and none that is not a number
    assert crossratio.classical_cr(np.float32(0.5), 1.0, 0.0, INF) == 0.5
    assert crossratio.classical_cr(2j, 1.0, 0.0, INF) == 2j
    # a numpy complex that is no Python complex is read as complex, not as its real part
    assert crossratio.classical_cr(np.complex64(2j), 1.0, 0.0, INF) == 2j
    for v, error in ((None, NotANumberError), ("2", NotANumberError), (True, NotANumberError),
                     ([1], NotANumberError), (10 ** 400, ValueOverflowError)):
        assert _outcome(lambda: crossratio.proj_equal(v, 1.0))[0][0] is error
    # almost_equal reads its arrays as the other entry points do: no entry is parsed or
    # read as NaN, and ragged rows are a dimension error
    for a, b, error in (([[None]], [[1]], NotANumberError), ([["2"]], [[2]], NotANumberError),
                        ([[1, 2], [3]], [[1]], DimensionError),
                        ([[1.0, INF]], [[1.0, 1.0]], NotANumberError),
                        ([[1.0]], [[10 ** 400]], NotANumberError)):
        assert _outcome(lambda: algebra.almost_equal(a, b))[0][0] is error
