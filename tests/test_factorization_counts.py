"""Pinned factorization counts of the hot geometry paths.

Each rank or transversality check costs a factorization (SVD, QR, inverse,
solve or eigenvalues).  These counts pin the checks that the inputs already
prove away, so losing one of those savings fails a test instead of only a
timing.
"""

import warnings

import numpy as np
import pytest

from apline import algebra, classical, crossratio, grassmann, hermitian, obstate, properties
from apline.crossratio import INF
from apline.errors import (DimensionError, NonFiniteError, NotInChartError,
                           NotTransversalError, SingularError, ValueOverflowError)


_COUNTED = ("svd", "qr", "inv", "solve", "eigvalsh")

# The linalg seam calls LAPACK gufuncs directly (see algebra.thin_qr,
# algebra.singular_values, algebra.svd, algebra.proven_inverse, algebra.solve and
# algebra.eigvalsh); they are counted where the seam binds them, beside the np.linalg
# calls.  A QR is its geqrf gufunc, unless it is the one that solves with R and runs
# through np.linalg.qr.  An SVD is either svd gufunc: singular values, or the full SVD.
# A solve is either solve gufunc, as numpy picks them by the right-hand side's ndim.
# Eigen-decompositions and determinants are not counted.
_SEAM = (("_svd_gufunc", "svd"), ("_svd_f_gufunc", "svd"), ("_inv_gufunc", "inv"),
         ("_qr_r_raw_gufunc", "qr"), ("_solve_gufunc", "solve"), ("_solve1_gufunc", "solve"),
         ("_eigvalsh_gufunc", "eigvalsh"))


def _tally(**pinned):
    """The counts of every counted factorization: the pinned ones, else 0."""
    return {name: pinned.get(name, 0) for name in _COUNTED}


@pytest.fixture
def counts(monkeypatch):
    tally = _tally()

    def count(owner, attr, name):
        original = getattr(owner, attr)
        if original is None:  # the seam runs np.linalg, which is counted already
            return

        def counted(*args, **kwargs):
            tally[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    for name in _COUNTED:
        count(np.linalg, name, name)
    for attr, name in _SEAM:
        count(algebra, attr, name)
    return tally


def _reset(tally):
    for name in tally:
        tally[name] = 0


def test_apply_map_runs_one_qr_and_no_svd(counts):
    rng = np.random.default_rng(11)
    g = grassmann.random_map(3, rng)
    x = grassmann.random_point(3, rng)
    _reset(counts)
    image = grassmann.apply_map(g, x)
    assert counts == _tally(qr=1)
    # a repeat while g lives returns the image cached on x and runs nothing
    assert grassmann.apply_map(g, x) is image and counts == _tally(qr=1)


@pytest.mark.parametrize("dtype", [complex, float], ids=["complex128", "float64"])
def test_a_q_only_qr_skips_numpys_wrapper_and_enters_one_error_state(monkeypatch, dtype):
    from numpy._core import _ufunc_config
    a = np.random.default_rng(36).standard_normal((8, 4)).astype(dtype)
    wrapper_calls, states, built = [], [], []
    qr, enter, make = np.linalg.qr, algebra._enter, _ufunc_config._make_extobj
    monkeypatch.setattr(np.linalg, "qr", lambda *args: wrapper_calls.append(args) or qr(*args))
    monkeypatch.setattr(algebra, "_enter", lambda state: states.append(state) or enter(state))
    # every np.errstate entered builds its state here
    monkeypatch.setattr(_ufunc_config, "_make_extobj",
                        lambda **kwargs: built.append(kwargs) or make(**kwargs))
    algebra.thin_qr(a)
    # geqrf and ungqr run under one error state, the one built at import: no np.linalg.qr
    # and no np.errstate
    assert (len(wrapper_calls), states, built) == (0, [algebra._QR_FAILED], [])
    algebra.thin_qr(a, with_r=True)
    # a QR that solves with R (obstate._line_factors) is np.linalg.qr itself, which enters
    # an np.errstate of its own around each of its two gufuncs
    assert (len(wrapper_calls), len(states), len(built)) == (1, 1, 2)


def test_a_public_point_proves_its_rank_from_r_and_runs_the_svd_only_near_singular(
        monkeypatch, counts):
    wrapper_calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *args: wrapper_calls.append(args) or qr(*args))
    rng = np.random.default_rng(38)
    cols = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    _reset(counts)
    grassmann.SubspacePoint(cols)
    # the QR's geqrf, with no np.linalg.qr and no singular_values: the bound on R decides
    assert counts == _tally(qr=1) and wrapper_calls == []
    # column sets of condition number about 1e9 and 1e11 are past the bound: the SVD decides
    u, _, vh = np.linalg.svd(cols, full_matrices=False)
    for exponent, singular in ((-9, False), (-11, True)):
        _reset(counts)
        try:
            grassmann.SubspacePoint((u * np.logspace(0, exponent, 4)) @ vh)
        except SingularError:
            assert singular
        else:
            assert not singular
        assert counts == _tally(qr=1, svd=1) and wrapper_calls == []


def test_inverse_runs_no_svd(counts):
    g = grassmann.random_map(3, np.random.default_rng(12))
    _reset(counts)
    inverse = g.inverse()
    # the rep's inverse, and no SVD of it
    assert counts == _tally(inv=1)
    # a second call returns the same map and runs nothing
    assert g.inverse() is inverse and counts == _tally(inv=1)


@pytest.mark.parametrize("involution", [hermitian.tau, hermitian.alpha], ids=["tau", "alpha"])
def test_an_involution_of_a_fresh_point_runs_its_full_svd_on_the_seam(
        monkeypatch, counts, involution):
    wrapper_calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: wrapper_calls.append(args)
                        or svd(*args, **kwargs))
    x = grassmann.random_point(3, 0)
    _reset(counts)
    involution(x)
    # the null space's full SVD, as the svd_f gufunc and not np.linalg.svd, and the QR of
    # its basis
    assert counts == _tally(svd=1, qr=1) and wrapper_calls == []


def test_unitary_torsor_runs_no_pole_margin_svd(counts):
    rng = np.random.default_rng(13)
    x, y, z = (hermitian.random_r_point(3, rng) for _ in range(3))
    hermitian.poles(3)
    _reset(counts)
    hermitian.unitary_torsor(x, y, z)
    # the Cayley law reads u_x, u_y and u_z, one n x n inverse each on fresh members (see
    # test_cayley_to_unitary_runs_no_svd_on_the_constant_map), and the polar step's result
    # is unitary, so its point needs no rank SVD: the QR canonicalizes it
    assert counts == _tally(inv=3, qr=1)


@pytest.mark.parametrize("n", [3, 16])
def test_unitary_torsor_runs_no_2n_by_2n_lapack_call(monkeypatch, n):
    rng = np.random.default_rng(130 + n)
    x, y, z = (hermitian.random_r_point(n, rng) for _ in range(3))
    hermitian.poles(n)
    shapes = []

    def record(owner, attr):
        original = getattr(owner, attr)
        if original is not None:
            monkeypatch.setattr(owner, attr, lambda *args, **kwargs: (
                shapes.append(np.shape(args[0])) or original(*args, **kwargs)))
    # every LAPACK gufunc of the seam, and every np.linalg factorization
    for attr in dir(algebra):
        if attr.endswith("_gufunc"):
            record(algebra, attr)
    for name in (*_COUNTED, "eigh", "det"):
        record(np.linalg, name)
    hermitian.unitary_torsor(x, y, z)
    # the three Cayley unitaries' inverses are n x n, and the QR of C [I; u] (geqrf, then
    # ungqr) is 2n x n
    assert sorted(shapes) == [(n, n), (n, n), (n, n), (2 * n, n), (2 * n, n)]


def test_cayley_to_unitary_runs_no_svd_on_the_constant_map(counts):
    x = hermitian.random_r_point(3, np.random.default_rng(14))
    _reset(counts)
    hermitian.cayley_to_unitary(x)
    # C^-1 = C*/2 exactly, so 2 C^-1 X = [N0* X; S0* X] needs no QR, and membership proves
    # N0* X invertible, so no SVD is left: the inverse of N0* X
    assert counts == _tally(inv=1)
    # no image point of C^-1 x is built or cached on x
    assert grassmann._image not in x._memo


def test_proven_unitaries_are_not_tested_again(monkeypatch):
    tested = []
    is_unitary = algebra.is_unitary
    monkeypatch.setattr(algebra, "is_unitary",
                        lambda *args, **kwargs: tested.append(args) or is_unitary(*args, **kwargs))
    rng = np.random.default_rng(37)
    # random_unitary's Q is unitary by construction, and membership proves a Cayley unitary
    x = hermitian.random_r_point(3, rng)
    u = hermitian.cayley_to_unitary(x)
    hermitian.transport_to_zero(hermitian.random_r_point(3, rng))
    assert tested == []
    # the public boundary still tests the matrix it is given
    hermitian.unitary_to_point(u)
    assert len(tested) == 1


def test_identity_map_runs_no_svd(counts):
    g = grassmann.identity_map(3)
    assert counts == _tally() and g._cond == 1.0


def _pure_obstate(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    return obstate.standard_obstate(algebra.random_hermitian(n, rng),
                                     psi @ psi.conj().T / np.vdot(psi, psi).real)


def test_pure_expectation_runs_one_rank_one_solve_per_target(counts, cold_base_points):
    o = _pure_obstate(4, 15)
    _reset(counts)
    obstate.pure_expectation(o)
    # line_family: the SVD of the distance's sines of W to Winf = infinity; the chart
    # search settles (W, 0) by W's tag and (infinity, 0), (0, infinity) by the base
    # points' set-up (the candidate infinity is Winf itself and is skipped); the frame
    # is (infinity, 0), so the chart values are -cochart(W), an inverse whose guard W's
    # tag settles, and -cochart(infinity), computed with the base points; the direction
    # SVD.  One QR of line(0) shared by both targets; per target the two solves of the
    # closed-form root and its verification SVD
    assert counts == _tally(svd=4, qr=1, inv=1, solve=4)


def test_line_family_horizon_point_runs_no_svd(counts):
    o = _pure_obstate(4, 16)
    fam = hermitian.line_family(o.state, o.ref_state)
    _reset(counts)
    fam.raw_basis(INF)
    assert counts == _tally()


def test_kernel_of_a_well_separated_quadruple_runs_only_its_three_margins(counts):
    rng = np.random.default_rng(17)
    x, a, b, y = (grassmann.random_point(4, rng) for _ in range(4))
    _reset(counts)
    crossratio.kernel(x, a, b, y)
    # the margins bound both graph blocks' condition, so neither block runs its own SVD:
    # the three margins, one solve for both graph decompositions and the blocks' inverses
    assert counts == _tally(svd=3, inv=2, solve=1)


def test_kernel_runs_one_solve(monkeypatch):
    rng = np.random.default_rng(19)
    x, a, b, y = (grassmann.random_point(4, rng) for _ in range(4))
    solves = []
    solve = algebra.solve

    def counted(*args):
        solves.append(args)
        return solve(*args)
    monkeypatch.setattr(algebra, "solve", counted)
    crossratio.kernel(x, a, b, y)
    # b and y share the frame [A | X], so one solve gives both graph decompositions
    assert len(solves) == 1


def _conditioned_map(n, rng):
    """A map U diag(s) V with unitary U, V and s in [1/e, e]: condition number at most e^2."""
    u, v = (algebra.random_unitary(2 * n, rng) for _ in range(2))
    return grassmann.ProjectiveMap((u * np.exp(rng.uniform(-1.0, 1.0, 2 * n))) @ v)


def test_kernel_of_a_quadruple_moved_by_one_map_runs_no_margin_svd(counts):
    rng = np.random.default_rng(34)
    x, a, b, y = (grassmann.random_point(4, rng) for _ in range(4))
    g = _conditioned_map(4, rng)
    crossratio.kernel(x, a, b, y)
    moved = [grassmann.apply_map(g, p) for p in (x, a, b, y)]
    _reset(counts)
    crossratio.kernel(*moved)
    # each moved margin is bounded by its sources' sine, cached by the first kernel's gate,
    # over cond(g); the bounds' products pass the margin-product test, so neither graph
    # block runs its SVD: the solve and the blocks' inverses
    assert counts == _tally(inv=2, solve=1)


@pytest.mark.parametrize("pid, calls", [
    # R's diagonal proves the rank of the random points and of torsor_product's result
    # points, so none runs a rank SVD (tests/test_shortcut_audit.py counts them)
    ("grassmann.torsor_group", {"thin_qr": 190, "singular_values": 130, "proven_inverse": 120}),
    # the moved quadruple's three margins are bounds, and R's diagonal proves the random
    # points' rank
    ("crossratio.naturality", {"thin_qr": 80, "singular_values": 40, "proven_inverse": 40}),
    # the moved pair (A0, Winf) is bounded from the sines of (0, infinity)
    ("obstate.invariance", {"thin_qr": 60, "singular_values": 30, "proven_inverse": 40}),
])
def test_the_moved_pair_and_torsor_trials_skip_their_proven_svds(seam_calls, pid, calls):
    spec = properties.SPECS[pid]
    properties.run_property(spec, properties.DEFAULT_N_LIST, 10, 0)  # fills the per-n caches
    _reset(seam_calls)
    properties.run_property(spec, properties.DEFAULT_N_LIST, 10, 0)
    assert seam_calls == calls


def test_projective_map_runs_one_svd_and_keeps_its_condition_number(counts):
    rep = _conditioned_map(3, np.random.default_rng(35)).rep
    _reset(counts)
    g = grassmann.ProjectiveMap(rep)
    assert counts == _tally(svd=1)
    s = np.linalg.svd(rep, compute_uv=False)
    assert g._cond == s[0] / s[-1]
    assert g.inverse()._cond == g._cond
    assert grassmann.identity_map(3)._cond == 1.0


@pytest.mark.parametrize("rep, error, match, svds", [
    # a non-finite entry is named before the SVD, which LAPACK would print about
    (np.diag([1.0, np.nan]), NonFiniteError, "matrix entries must be finite", 0),
    (1.5e308 * np.array([[1.0, 1.0], [1.0, -1.0]]), ValueOverflowError,
     r"^matrix of scale 1\.500e\+308 .* SVD$", 1),
    (np.diag([1.0, 0.0]), SingularError, "^projective map rep is singular$", 1),
], ids=["nan", "overflow", "singular"])
def test_projective_map_keeps_its_errors_from_its_one_svd(counts, rep, error, match, svds):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            grassmann.ProjectiveMap(rep)
    assert counts == _tally(svd=svds)


@pytest.mark.parametrize("make", [grassmann.point_from_chart, grassmann.point_from_cochart])
def test_graph_point_of_a_moderate_value_runs_no_svd(counts, make):
    value = algebra.random_hermitian(4, np.random.default_rng(18))
    _reset(counts)
    make(value)
    # a graph basis of a value with ||a||_F <= 1e6 has full rank by its singular values
    assert counts == _tally(qr=1)


def _warm(n):
    grassmann.zero_point(n)
    grassmann.infinity_point(n)
    hermitian.poles(n)


def _mixed_obstate(n, seed):
    rng = np.random.default_rng(seed)
    return obstate.standard_obstate(algebra.random_hermitian(n, rng),
                                    algebra.random_density(n, rng))


# The frame (0, infinity) caches A0's order chart on the shared base points, so the cold
# counts are pinned on new base points and the warm counts after a first report in the
# frame.  Its normal form runs no transport: A0 is the base point 0 itself.  Its gate
# passes A and W by their graph tags, and its kernel is cochart(W) chart(A): one inverse
# each, whose guards the tags settle.  The chart value of 0 (A0's order value) and the
# cochart value of infinity are computed with the base points, so the cold and the warm
# counts match.  W's chart guard is settled by the pure test's sines, pass or fail.


def test_decoding_a_standard_frame_payload_runs_no_svd(counts, cold_base_points):
    _warm(4)
    rng = np.random.default_rng(23)
    payload = {"A": {"chart": algebra.random_hermitian(4, rng).tolist()},
               "W": {"density": algebra.random_density(4, rng).tolist()},
               "A0": "zero", "Winf": "infinity"}
    _reset(counts)
    obstate.obstate_from_json(payload)
    # the QRs of A's and W's graph bases; the gate reads (A0, Winf) from the base points
    # and passes (W, A0) and (A, Winf) by the graph tags, and membership and the
    # antipodal test are Gram matrices
    assert counts == _tally(qr=2)

def test_standard_frame_mixed_report_svd_count(counts, cold_base_points):
    o = _mixed_obstate(4, 19)
    _warm(4)
    _reset(counts)
    obstate.report(o)
    # the pure test's sines of W to Winf, whose count rejects the pair, are the one SVD.
    # Inverses: the kernel's cochart(W) and chart(A), which the normal form and A's order
    # value share, then W's chart for its order value.  The two psd tests (positive,
    # cyclically_ordered) compute eigenvalues
    assert counts == _tally(svd=1, inv=3, eigvalsh=2)


def test_standard_frame_pure_report_svd_count(counts, cold_base_points):
    o = _pure_obstate(4, 20)
    _warm(4)
    _reset(counts)
    obstate.report(o)
    # pure_expectation: 4 SVDs, 1 QR and 4 solves (see above), and no inverse, as W's
    # cochart is the kernel's; the kernel's 2 inverses.  W's chart guard fails without an
    # SVD: span[w; I] of a singular w lies on the chart's horizon, and the pure test's
    # sines prove it (smallest about 0, largest about 0.7).  So positive is False, A's
    # order value is not read, and no psd test runs
    assert counts == _tally(svd=4, qr=1, inv=2, solve=4)


def test_warm_frame_mixed_report_svd_count(counts, cold_base_points):
    obstate.report(_mixed_obstate(4, 21))
    o = _mixed_obstate(4, 19)
    _reset(counts)
    obstate.report(o)
    # the cold count: the base points' values a warm frame could save are computed with them
    assert counts == _tally(svd=1, inv=3, eigvalsh=2)


def test_warm_frame_pure_report_svd_count(counts, cold_base_points):
    obstate.report(_pure_obstate(4, 21))
    o = _pure_obstate(4, 20)
    _reset(counts)
    obstate.report(o)
    # likewise the cold count; the QR is pure_expectation's line(0)
    assert counts == _tally(svd=4, qr=1, inv=2, solve=4)


def test_warm_mixed_is_pure_runs_no_svd(counts, cold_base_points):
    o = _mixed_obstate(4, 19)
    obstate.report(o)
    _reset(counts)
    assert not obstate.is_pure(o)
    # the distance's decision, as for the report's pure: the sines of W to
    # infinity are cached on W
    assert counts == _tally()


def _transported_obstate(seed):
    return obstate.transport(_mixed_obstate(4, seed),
                             hermitian.u_group_random(4, np.random.default_rng(seed)))


def test_transported_frame_expectation_svd_count(counts, cold_base_points):
    o = _transported_obstate(31)
    _reset(counts)
    obstate.expectation(o)
    # no slot is a base point or a graph point tagged with one, but the kernel's three
    # margins are the pairs new_obstate measured, whose sines the first point of each pair
    # keeps while the second lives: no SVD.  Its solve and the two graph blocks' inverses
    assert counts == _tally(inv=2, solve=1)


def test_transported_frame_report_svd_count(counts, cold_base_points):
    obstate.report(_transported_obstate(30))
    o = _transported_obstate(31)
    _reset(counts)
    obstate.report(o)
    # expectation: 1 solve and 2 inverses (see above); normal form: the inverse of N0* A0
    # for the transport, the QRs of A and W moved by it, and their 2 chart blocks (an SVD
    # and an inverse each); pure test: the sines of (W, Winf), with no chart; cyclic order
    # cut at Winf: Winf's chart, then A0's chart and gap once for both triples, W's chart
    # and gap for the positive state, and A's chart and gap for the observable (an SVD and
    # an inverse each), and the two psd tests.  No slot has memoized sines to a base point or a graph tag, so every
    # chart guard runs its SVD
    assert counts == _tally(svd=10, qr=2, inv=12, solve=1, eigvalsh=2)


def test_order_tests_after_a_transported_report_run_no_svd_and_no_inverse(counts,
                                                                         cold_base_points):
    o = _transported_obstate(31)
    report = obstate.report(o)
    _reset(counts)
    flags = (obstate.is_positive(o), obstate.is_cyclically_ordered(o), obstate.is_positive(o))
    assert flags == (report["positive"], report["cyclically_ordered"], report["positive"])
    # the report left the order values of A0, W and A cut at Winf in their pair tables, so
    # each test reads them and runs only its psd test (A is off the arc, so W is not tested)
    assert counts == _tally(eigvalsh=3)


def test_a_repeated_torsor_product_runs_only_its_result_point(counts):
    rng = np.random.default_rng(32)
    x, y, z, a, b = (grassmann.random_point(4, rng) for _ in range(5))
    grassmann.torsor_product(x, y, z, a, b)
    _reset(counts)
    grassmann.torsor_product(x, y, z, a, b)
    # the six margins and both projectors of m are kept on the pairs' first points; the
    # new point m y needs no rank SVD, as R's diagonal proves its rank: its QR
    assert counts == _tally(qr=1)


def test_a_repeated_tangent_product_runs_no_alpha_svd_and_no_repeated_margin(counts):
    rng = np.random.default_rng(33)
    base = hermitian.random_r_point(4, rng)
    x, y, w = (grassmann.random_point(4, rng) for _ in range(3))
    hermitian.tangent_product(base, x, y)
    _reset(counts)
    hermitian.tangent_product(base, x, w)
    # alpha(base) and transport_to_zero(base) are cached on base, the margin of
    # (x, alpha(base)) and the moved factor g x on x, with its chart value, and g's inverse
    # on g: only w's margin is measured.  The new moved factor g w (a QR) has no memoized
    # sines, so its chart guard runs its SVD before its inverse; the product's graph point
    # (a QR, no SVD) and its move back (a QR)
    assert counts == _tally(svd=2, qr=3, inv=1)


@pytest.fixture
def seam_calls(monkeypatch):
    """Calls of the linalg seam's three routines, by name."""
    tally = dict.fromkeys(("thin_qr", "singular_values", "proven_inverse"), 0)

    def count(name):
        original = getattr(algebra, name)

        def counted(*args, **kwargs):
            tally[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(algebra, name, counted)
    for name in tally:
        count(name)
    return tally


def test_the_tangent_algebra_trials_transport_each_live_pair_once(seam_calls):
    spec = properties.SPECS["hermitian.tangent_algebra"]
    properties.run_property(spec, properties.DEFAULT_N_LIST, 10, 0)  # fills the per-n caches
    _reset(seam_calls)
    properties.run_property(spec, properties.DEFAULT_N_LIST, 10, 0)
    # each repeated tangent_product reads its factor moved by g = transport_to_zero(base), the
    # factor's chart value and g's inverse from the memos, and each trial's R_{N,S} point
    # is built as C [I; u] by one QR, with no graph point moved by C
    assert seam_calls == {"thin_qr": 361, "singular_values": 181, "proven_inverse": 110}


def test_arithmetic_distance_runs_one_svd(counts):
    rng = np.random.default_rng(22)
    x, y = (grassmann.random_point(4, rng) for _ in range(2))
    _reset(counts)
    hermitian.arithmetic_distance(x, y)
    # the sines of the principal angles, from one 2n x n SVD; no chart is searched
    assert counts == _tally(svd=1)


@pytest.mark.parametrize("value, chart, base", [
    (grassmann.point_from_cochart, grassmann.chart_repr, grassmann.infinity_point),
    (grassmann.point_from_chart, grassmann.cochart_repr, grassmann.zero_point)])
def test_a_chart_guard_runs_its_svd_unless_memoized_sines_settle_it(counts, value, chart, base):
    # span[m; I] (span[I; m]) of m = diag(1, s) has smallest sine about s to infinity (0)
    for s, settled in ((1e-3, True), (2.1e-8, True), (1.2e-8, False)):
        assert (s > grassmann._HORIZON_SINE_BOUND) is settled
        fresh, memoized = (value(np.diag([1.0, s])) for _ in range(2))
        grassmann.transversality_margin(memoized, base(2))
        _reset(counts)
        chart(fresh)
        # no sines in the memo: the guard's SVD
        assert counts == _tally(svd=1, inv=1)
        _reset(counts)
        chart(memoized)
        # a smallest sine above the bound settles the guard; at or below it the SVD
        # runs, and here passes (the sine is above TRANSVERSALITY_RTOL)
        assert counts == _tally(svd=0 if settled else 1, inv=1)


@pytest.mark.parametrize("make, base", [(grassmann.point_from_chart, grassmann.infinity_point),
                                        (grassmann.point_from_cochart, grassmann.zero_point)])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_a_graph_point_at_the_norm_bound_passes_its_horizon_gate_by_its_tag(counts, make,
                                                                            base, n):
    # ||a||_2 = n max|a_ij| = 1e6 for a constant matrix: the largest value the tag covers
    a = np.full((n, n), 1e6 / n)
    assert n * np.abs(a).max() == 1e6
    x, horizon = make(a), base(n)
    _reset(counts)
    margins = grassmann._require_transversal(((x, horizon, "gate"),))
    assert counts == _tally() and margins == (grassmann._GRAPH_MARGIN_BOUND,)
    # the bound is proven: the margin measured afresh (about 5e-7) is not below it
    assert grassmann.transversality_margin(x, horizon) >= margins[0]


@pytest.mark.parametrize("make, base", [(grassmann.point_from_chart, grassmann.infinity_point),
                                        (grassmann.point_from_cochart, grassmann.zero_point)])
def test_a_horizon_gate_is_measured_unless_a_tagged_point_meets_its_base_point(counts, make,
                                                                               base):
    n = 2
    tagged = make(np.full((n, n), 1e6 / n))
    other = (grassmann.zero_point if base is grassmann.infinity_point
             else grassmann.infinity_point)(n)
    for x, a in ((make(np.full((n, n), 1e6 * (1 + 1e-9) / n)), base(n)),  # above the bound
                 (grassmann.SubspacePoint(tagged.basis), base(n)),  # equal, not built as a graph
                 (tagged, grassmann.SubspacePoint(base(n).basis)),  # equal to the base point
                 (make(np.eye(n)), other)):  # the base point of the other horizon
        _reset(counts)
        margins = grassmann._require_transversal(((x, a, "gate"),))
        assert counts == _tally(svd=1)
        assert margins == (grassmann.transversality_margin(x, a),)
    # the base point of the tag's horizon at another n is a dimension mismatch
    with pytest.raises(DimensionError):
        grassmann._require_transversal(((tagged, base(n + 1), "gate"),))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_memoized_sines_prove_a_pure_state_off_the_chart_as_its_svd_does(counts, n):
    rng = np.random.default_rng(24 + n)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fresh, memoized = (obstate.pure_state_point(psi) for _ in range(2))
    # the pure test's sines: the smallest is about 0, the largest about 0.7
    sines = grassmann._sines(memoized, grassmann.infinity_point(n))
    assert sines[-1] < 1e-12 and sines[0] > 0.5
    errors = []
    for x, svds in ((fresh, 1), (memoized, 0)):
        _reset(counts)
        with pytest.raises(NotInChartError) as info:
            grassmann.chart_repr(x)
        assert counts == _tally(svd=svds)
        errors.append(str(info.value))
    assert errors[0] == errors[1] == "point is not transversal to infinity"


@pytest.mark.parametrize("s, fails", [(0.0, True), (5e-9, True), (8e-9, False),
                                      (1.2e-8, False)])
def test_the_failure_certificate_fires_only_where_the_svd_fails(counts, s, fails):
    # span[m; I] of m = diag(1, s) has sines to infinity about 0.71 and s: the guard's
    # relative test fails for s below about 0.71 TRANSVERSALITY_RTOL
    fresh, memoized = (grassmann.point_from_cochart(np.diag([1.0, s])) for _ in range(2))
    grassmann._sines(memoized, grassmann.infinity_point(2))
    values, svds = [], []
    for x in (fresh, memoized):
        _reset(counts)
        try:
            values.append(grassmann.chart_repr(x).tobytes())
        except NotInChartError as exc:
            values.append(str(exc))
        svds.append(counts["svd"])
    assert values[0] == values[1]
    assert isinstance(values[0], str) is fails
    # the fresh point runs the guard's SVD; the memoized one only when the sines do not
    # decide (neither above the pass bound nor proving failure)
    assert svds == [1, 0 if fails else 1]


# --- the gate of a moved pair ---------------------------------------------------------

def _moved_pair(n, rng, cache=True):
    """(x, a, g, g x, g a): two random points, a map of condition number at most e^2 and the
    images, with the sources' sines cached unless not cache."""
    x, a = (grassmann.random_point(n, rng) for _ in range(2))
    g = _conditioned_map(n, rng)
    if cache:
        grassmann._sines(x, a)
    return x, a, g, grassmann.apply_map(g, x), grassmann.apply_map(g, a)


def _line_pair(sine):
    """Sources x = span[1; 0] and a = span[1; t] of n = 1 with the given smallest sine, moved
    by the identity map (condition number 1): (gx, ga, the held objects)."""
    t = sine / np.sqrt(1.0 - sine * sine)
    x, a = (grassmann.SubspacePoint(np.array([[1.0], [v]])) for v in (0.0, t))
    g = grassmann.identity_map(1)
    grassmann._sines(x, a)
    return grassmann.apply_map(g, x), grassmann.apply_map(g, a), (x, a, g)


def _dead_map(rng):
    x, a, g, gx, ga = _moved_pair(3, rng)
    return gx, ga, (x, a)  # g dies on return


def _dead_source(rng):
    x, a, g, gx, ga = _moved_pair(3, rng)
    return gx, ga, (a, g)  # x dies on return


def _uncached(rng):
    x, a, g, gx, ga = _moved_pair(3, rng, cache=False)
    return gx, ga, (x, a, g)


def _two_maps(rng):
    x, a, g, gx, ga = _moved_pair(3, rng)
    h = _conditioned_map(3, rng)
    return gx, grassmann.apply_map(h, a), (x, a, g, h)


def _large_cond(rng):
    x, a = (grassmann.random_point(3, rng) for _ in range(2))
    g = grassmann.ProjectiveMap(np.diag([1e4] * 3 + [1e-4] * 3))  # condition number 1e8
    grassmann._sines(x, a)
    return grassmann.apply_map(g, x), grassmann.apply_map(g, a), (x, a, g)


def _within_the_slack(rng):
    # the bound tan(theta / 2) of the sine s - d - slack lands in (1e-7, 1e-7 + slack]
    slack = grassmann._moved_pair_slack(1.0)
    gx, ga, held = _line_pair(2e-7 + 2 * slack + grassmann._SINE_ROUNDING)
    s = grassmann._cached_sine(*held[:2])
    bound = grassmann._half_angle_tangent(s - grassmann._SINE_ROUNDING - slack)
    assert 10 * grassmann.TRANSVERSALITY_RTOL < bound <= 10 * grassmann.TRANSVERSALITY_RTOL + slack
    return gx, ga, held


def _in_the_warning_decade(rng):
    return _line_pair(1e-7)  # margin about 5e-8


def _equal_sources(rng):
    x = grassmann.random_point(3, rng)
    a = grassmann.SubspacePoint(x.basis)  # a second object, the same point: sine 0
    g = _conditioned_map(3, rng)
    grassmann._sines(x, a)
    return grassmann.apply_map(g, x), grassmann.apply_map(g, a), (x, a, g)


@pytest.mark.parametrize("build", [_dead_map, _dead_source, _uncached, _two_maps, _large_cond,
                                   _within_the_slack, _in_the_warning_decade, _equal_sources])
def test_a_moved_pair_without_a_proven_bound_is_measured_with_its_decision_and_warning(counts,
                                                                                      build):
    gx, ga, held = build(np.random.default_rng(36))
    _reset(counts)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = grassmann._require_transversal(((gx, ga, "gate"),))
        except NotTransversalError as exc:
            outcome = str(exc)
    assert counts == _tally(svd=1)
    # the measured margin decides and warns as it always has
    margin = grassmann.transversality_margin(gx, ga)
    rtol = grassmann.TRANSVERSALITY_RTOL
    assert outcome == ((margin,) if margin > rtol else "gate")
    assert [type(w.message) for w in caught] == (
        [grassmann.TransversalityWarning] if rtol < margin < 10 * rtol else [])
    assert build not in (_in_the_warning_decade, _equal_sources) or margin < 10 * rtol


def test_a_moved_pair_bound_is_below_the_margin_and_outlives_the_map(counts):
    rng = np.random.default_rng(37)
    x, a, g, gx, ga = _moved_pair(4, rng)
    _reset(counts)
    (bound,) = grassmann._require_transversal(((gx, ga, "gate"),))
    assert counts == _tally()
    # the bound is kept with the pair: a later gate reads it after the map has died
    del g
    assert grassmann._require_transversal(((gx, ga, "gate"),)) == (bound,)
    assert counts == _tally()
    # a proven lower bound of the exact margin, which the gate did not cache
    assert id(ga) not in gx._memo.get(grassmann._principal_sines, {})
    assert 10 * grassmann.TRANSVERSALITY_RTOL < bound <= grassmann.transversality_margin(gx, ga)


# --- numpy's Python wrappers outside the seam -----------------------------------------------
# At n <= 16 a call of np.isfinite, np.linalg.norm or np.errstate costs about as much as
# the arithmetic it guards, and so does a call of np.vstack, np.hstack, np.block or np.eye
# beside the copy it makes.  The library proves finiteness by one dot (algebra._all_finite),
# norms by numpy's own steps (algebra.norm), scalars by math and cmath, builds error
# states at call time (algebra._set_errors), stacks by np.concatenate and reads the
# identity from algebra._eye, so its hot paths call none of them.

class _View:
    """A module whose named attributes are replaced; every other name is the module's."""

    def __init__(self, module, **replaced):
        self.__dict__.update(replaced)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


_LIBRARY = (algebra, classical, crossratio, grassmann, hermitian, obstate, properties)


@pytest.fixture
def wrapper_calls(monkeypatch):
    """Calls that library code makes of np.errstate (entries), np.linalg.norm, np.isfinite
    (on an array, or on a scalar), np.vstack, np.hstack, np.block and np.eye.

    Each library module's np is swapped for a view of numpy that counts those names, so
    numpy's own calls are not counted: a Generator's uniform tests its bounds with
    np.isfinite.
    """
    tally = dict.fromkeys(_NO_WRAPPER_CALLS, 0)

    class errstate(np.errstate):
        def __enter__(self):
            tally["errstate"] += 1
            return super().__enter__()

    def isfinite(x, *args, **kwargs):
        tally["isfinite_array" if isinstance(x, np.ndarray) else "isfinite_scalar"] += 1
        return np.isfinite(x, *args, **kwargs)

    def norm(*args, **kwargs):
        tally["norm"] += 1
        return np.linalg.norm(*args, **kwargs)
    def counted(name):
        def call(*args, **kwargs):
            tally[name] += 1
            return getattr(np, name)(*args, **kwargs)
        return call
    view = _View(np, errstate=errstate, isfinite=isfinite, linalg=_View(np.linalg, norm=norm),
                 **{name: counted(name) for name in _STACKING})
    for module in _LIBRARY:
        monkeypatch.setattr(module, "np", view)
    return tally


_STACKING = ("vstack", "hstack", "block", "eye")
_NO_WRAPPER_CALLS = {"errstate": 0, "norm": 0, "isfinite_array": 0, "isfinite_scalar": 0,
                     **dict.fromkeys(_STACKING, 0)}


def test_the_wrapper_count_sees_each_wrapper(wrapper_calls):
    # the slow paths still ask numpy: a norm of integers, and the mask after a dot that
    # overflows; the other two names are seen as library code would call them
    algebra.norm(np.arange(4))
    algebra._all_finite(np.full(4, 1e300))
    obstate.np.isfinite(1.0)
    with grassmann.np.errstate(over="ignore"):
        pass
    # the identity as algebra._eye builds it for a new n, and the stacking as library code
    # would call it
    algebra._eye.cache_clear()
    algebra._eye(5)
    properties.np.hstack([np.eye(2), np.eye(2)])
    hermitian.np.vstack([np.eye(2), np.eye(2)])
    grassmann.np.block([[np.eye(2)]])
    assert wrapper_calls == {"errstate": 1, "norm": 1, "isfinite_array": 1, "isfinite_scalar": 1,
                             "vstack": 1, "hstack": 1, "block": 1, "eye": 1}


def test_a_warm_standard_report_calls_no_numpy_wrapper(wrapper_calls, cold_base_points):
    rng = np.random.default_rng(41)
    psi = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    payloads = [{"A": {"chart": algebra.random_hermitian(4, rng).tolist()},
                 "W": {"density": w.tolist()}, "A0": "zero", "Winf": "infinity"}
                for w in (algebra.random_density(4, rng), psi @ psi.conj().T)]
    for payload in payloads:  # fills the frame's caches
        obstate.report(obstate.obstate_from_json(payload))
    _reset(wrapper_calls)
    for payload in payloads:  # a mixed and a pure state, as apline expect decodes them
        obstate.report(obstate.obstate_from_json(payload))
    assert wrapper_calls == _NO_WRAPPER_CALLS


def test_a_warm_kernel_and_unitary_torsor_at_n16_call_no_numpy_wrapper(wrapper_calls):
    n = 16
    rng = np.random.default_rng(42)
    _warm(n)
    quad = [(rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n)))
            for _ in range(4)]
    rep = grassmann.random_map(n, rng).rep
    rns = [hermitian.random_r_point(n, rng).basis for _ in range(3)]
    _reset(wrapper_calls)
    # the geometry benchmark's op: points from bases, the kernel before and after a map,
    # and the Cayley unitary of the torsor of three R_{N,S} points
    points = [grassmann.SubspacePoint(b) for b in quad]
    crossratio.kernel(*points)
    g = grassmann.ProjectiveMap(rep)
    crossratio.kernel(*(grassmann.apply_map(g, p) for p in points))
    hermitian.cayley_to_unitary(hermitian.unitary_torsor(
        *(grassmann.SubspacePoint(b) for b in rns)))
    assert wrapper_calls == _NO_WRAPPER_CALLS


def test_warm_classical_fn_obstate_trials_call_no_numpy_wrapper(wrapper_calls):
    spec = properties.SPECS["classical.fn_obstate"]
    properties.run_property(spec, properties.DEFAULT_N_LIST, 10, 0)
    _reset(wrapper_calls)
    result = properties.run_property(spec, properties.DEFAULT_N_LIST, 10, 0)
    assert result["ok"] and wrapper_calls == _NO_WRAPPER_CALLS
