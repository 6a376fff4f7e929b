import dataclasses

import numpy as np
import pytest

from apline import algebra, grassmann, hermitian, obstate
from apline.crossratio import INF, is_inf
from apline.errors import (
    DimensionError,
    MembershipError,
    NonUniqueCompletionError,
    NotAntipodalError,
    NotHermitianError,
    NotInChartError,
    NotPureError,
    NotRankOneError,
    NotStrongError,
    NotTransversalError,
    TransversalityError,
)

RNG = np.random.default_rng(11235)


def test_expectation_is_trace_wa_in_standard_frame():
    for n in (1, 2, 3):
        a = algebra.random_hermitian(n, RNG)
        w = algebra.random_density(n, RNG)
        o = obstate.standard_obstate(a, w)
        assert obstate.expectation(o) == pytest.approx(
            complex(np.trace(w @ a)), rel=1e-10, abs=1e-10)


def test_bundled_diag_example():
    o = obstate.standard_obstate(np.diag([1.0, -1.0]), np.diag([0.75, 0.25]))
    assert obstate.expectation(o) == pytest.approx(0.5)
    assert obstate.variance(o) == pytest.approx(0.75)
    dist = sorted(obstate.distribution(o))
    assert dist[0][0] == pytest.approx(-1.0)
    assert dist[0][1] == pytest.approx(0.25)
    assert dist[1][0] == pytest.approx(1.0)
    assert dist[1][1] == pytest.approx(0.75)


def test_pure_states_reduce_to_vector_expectation():
    n = 3
    a = algebra.random_hermitian(n, RNG)
    psi = RNG.standard_normal((n, 1)) + 1j * RNG.standard_normal((n, 1))
    psi /= np.linalg.norm(psi)
    o = obstate.new_obstate(
        grassmann.point_from_chart(a), obstate.pure_state_point(psi),
        grassmann.zero_point(n), grassmann.infinity_point(n))
    want = complex((psi.conj().T @ a @ psi)[0, 0])
    assert obstate.expectation(o) == pytest.approx(want, rel=1e-10, abs=1e-10)
    assert obstate.is_pure(o)


def test_mixed_state_is_not_pure():
    o = obstate.standard_obstate(np.eye(2), np.diag([0.5, 0.5]))
    assert not obstate.is_pure(o)
    with pytest.raises(NotPureError):
        obstate.pure_expectation(o)


def test_construction_validates_membership():
    n = 2
    skew = grassmann.point_from_chart(1j * np.eye(n))  # not tau-fixed
    w = obstate.state_from_density(np.diag([0.5, 0.5]))
    with pytest.raises(MembershipError, match="observable A"):
        obstate.new_obstate(skew, w, grassmann.zero_point(n),
                            grassmann.infinity_point(n))


def test_construction_validates_transversality():
    n = 2
    a = grassmann.point_from_chart(algebra.random_hermitian(n, RNG))
    w = obstate.state_from_density(np.diag([0.5, 0.5]))
    with pytest.raises(TransversalityError, match="A0 and Winf"):
        # both references at zero: the frame degenerates
        obstate.new_obstate(a, w, grassmann.zero_point(n),
                            grassmann.zero_point(n), strong=False)


def test_strong_needs_antipodal_reference():
    n = 2
    a = grassmann.point_from_chart(algebra.random_hermitian(n, RNG))
    w = obstate.state_from_density(np.diag([0.7, 0.3]))
    ref = grassmann.point_from_cochart(np.diag([1.0, 2.0]))  # not alpha(A0)
    with pytest.raises(NotAntipodalError):
        obstate.new_obstate(a, w, grassmann.zero_point(n), ref, strong=True)
    # the same data is a legal weak obstate
    o = obstate.new_obstate(a, w, grassmann.zero_point(n), ref, strong=False)
    assert not o.strong
    with pytest.raises(NotStrongError):
        obstate.variance(o)


def test_dimension_mismatch_rejected():
    a = grassmann.point_from_chart(np.zeros((2, 2)))
    w = obstate.state_from_density(np.eye(3) / 3.0)
    with pytest.raises(DimensionError):
        obstate.new_obstate(a, w, grassmann.zero_point(2),
                            grassmann.infinity_point(2))


def test_expectation_invariant_under_symplectic_transport():
    n = 3
    o = obstate.standard_obstate(algebra.random_hermitian(n, RNG),
                                 algebra.random_density(n, RNG))
    base = obstate.expectation(o)
    g = hermitian.aut_omega_random(n, RNG)
    o2 = obstate.transport(o, g)
    assert obstate.expectation(o2) == pytest.approx(base, rel=1e-8, abs=1e-8)


def test_variance_matches_second_moment():
    n = 3
    a = algebra.random_hermitian(n, RNG)
    w = algebra.random_density(n, RNG)
    o = obstate.standard_obstate(a, w)
    tr_aw = float(np.trace(w @ a).real)
    tr_awa = float(np.trace(a @ w @ a).real)
    assert obstate.variance(o) == pytest.approx(tr_awa - tr_aw ** 2, abs=1e-10)


def test_distribution_is_spectral_measure():
    lam = np.array([2.0, -1.0, 0.5])
    mu = np.array([0.5, 0.3, 0.2])
    o = obstate.standard_obstate(np.diag(lam), np.diag(mu))
    dist = obstate.distribution(o)
    assert len(dist) == 3
    got = {round(v, 9): w for v, w in dist}
    for l, m in zip(lam, mu):
        assert got[round(l, 9)] == pytest.approx(m)
    assert sum(w for _, w in dist) == pytest.approx(1.0)


def test_distribution_clusters_degenerate_eigenvalues():
    o = obstate.standard_obstate(np.eye(3), algebra.random_density(3, RNG))
    dist = obstate.distribution(o)
    assert len(dist) == 1
    assert dist[0][0] == pytest.approx(1.0)
    assert dist[0][1] == pytest.approx(1.0)
    assert obstate.variance(o) == pytest.approx(0.0, abs=1e-12)


def test_pure_expectation_agrees_with_kernel_trace():
    for n in (1, 2, 3):
        a = algebra.random_hermitian(n, RNG)
        psi = RNG.standard_normal((n, 1)) + 1j * RNG.standard_normal((n, 1))
        psi /= np.linalg.norm(psi)
        o = obstate.standard_obstate(a, psi @ psi.conj().T)
        pe = obstate.pure_expectation(o)
        ev = obstate.expectation(o)
        assert not is_inf(pe)
        assert float(pe) == pytest.approx(ev.real, rel=1e-7, abs=1e-7)


def test_pure_expectation_horizon_case():
    # <psi, a psi> = 0: the completing point on the observable line sits at
    # the reference A0 itself, i.e. coordinate 0 on the state line
    a = np.diag([1.0, -1.0])
    psi = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    o = obstate.standard_obstate(a, psi @ psi.conj().T)
    assert obstate.expectation(o) == pytest.approx(0.0, abs=1e-12)
    pe = obstate.pure_expectation(o)
    assert float(pe) == pytest.approx(0.0, abs=1e-8)


def test_positivity_flags():
    n = 2
    q = algebra.random_matrix(n, RNG)
    h = q @ q.conj().T + 0.1 * np.eye(n)
    w = algebra.random_psd(n, RNG) + 0.1 * np.eye(n)
    o = obstate.standard_obstate(h, w)
    assert obstate.is_cyclically_ordered(o)
    assert obstate.expectation(o).real >= -1e-12
    o2 = obstate.standard_obstate(-h, w)
    assert not obstate.is_cyclically_ordered(o2)


@pytest.mark.parametrize("n", [1, 2])
def test_positive_means_on_the_open_arc(n):
    # a state that meets Winf (a singular density) is not on the open arc from A0 to
    # Winf: every pure state at n >= 2; at n = 1 every nonzero density is invertible
    a = np.eye(n)
    pure = np.zeros((n, n))
    pure[0, 0] = 1.0
    for w, is_pure, on_arc in ((pure, True, n == 1), (np.eye(n) / n, n == 1, True)):
        o = obstate.standard_obstate(a, w)
        rep = obstate.report(o)
        assert rep["pure"] is is_pure
        assert rep["positive"] is obstate.is_positive(o) is on_arc
        assert rep["cyclically_ordered"] is obstate.is_cyclically_ordered(o) is on_arc
        assert rep["expectation"] == pytest.approx(np.trace(w @ a).real)


def test_report_and_json_roundtrip():
    payload = {
        "A": {"chart": [[1.0, 0.0], [0.0, -1.0]]},
        "W": {"density": [[0.75, 0.0], [0.0, 0.25]]},
        "A0": "zero",
        "Winf": "infinity",
        "strong": True,
    }
    o = obstate.obstate_from_json(payload)
    rep = obstate.report(o)
    assert rep["expectation"] == pytest.approx(0.5)
    assert rep["variance"] == pytest.approx(0.75)
    assert rep["pure"] is False
    assert rep["positive"] is True


def test_json_accepts_basis_points():
    basis = np.vstack([np.eye(2), np.zeros((2, 2))])  # the zero point
    payload = {
        "A": {"chart": [[1.0, 0.0], [0.0, 2.0]]},
        "W": {"density": [[0.5, 0.0], [0.0, 0.5]]},
        "A0": {"basis_re": basis.real.tolist(), "basis_im": basis.imag.tolist()},
        "Winf": "infinity",
    }
    o = obstate.obstate_from_json(payload)
    assert grassmann.point_eq(o.ref_observable, grassmann.zero_point(2))
    assert obstate.expectation(o) == pytest.approx(1.5)


def test_json_accepts_the_named_point_one():
    payload = {
        "A": {"chart": [[2.0, 0.0], [0.0, 3.0]]},
        "W": {"density": [[0.5, 0.0], [0.0, 0.5]]},
        "A0": "one",
        "Winf": {"chart": [[-1.0, 0.0], [0.0, -1.0]]},  # alpha(one)
    }
    o = obstate.obstate_from_json(payload)
    assert grassmann.point_eq(o.ref_observable, grassmann.one_point(2))
    assert o.strong
    assert "variance" in obstate.report(o)
    with pytest.raises(ValueError, match="unknown named point 'two'"):
        obstate.obstate_from_json(dict(payload, A0="two"))


# --- the closed-form completion point and the single chart search -----------------

def _transported_pure_obstate(n, seed):
    rng = np.random.default_rng(seed)
    a = algebra.random_hermitian(n, rng)
    psi = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    o = obstate.standard_obstate(a, psi @ psi.conj().T / np.vdot(psi, psi).real)
    # an Aut(omega) transport can leave the line frame ill-conditioned
    return obstate.transport(o, hermitian.aut_omega_random(n, rng))


@pytest.mark.parametrize("n, seeds", [(2, 100), (4, 100), (6, 300)])
def test_transported_pure_obstates_have_a_completion_point(n, seeds):
    for seed in range(seeds):
        o = _transported_pure_obstate(n, seed)
        rep = obstate.report(o)
        assert rep["pure"] is True and "pure_expectation_error" not in rep, seed
        ev = obstate.expectation(o)
        assert obstate.pure_expectation(o) == pytest.approx(ev.real, rel=1e-9), seed


def _determinant_root(fam, target):
    """The root of t -> det [raw_basis(t) | T] from its values at t = 0 and 1."""
    d0, d1 = (np.linalg.det(np.hstack([fam.raw_basis(t), target.basis])) for t in (0.0, 1.0))
    slope = d1 - d0
    if abs(slope) < 1e-12 * max(abs(d0), abs(d1)):
        return INF
    return float((-d0 / slope).real)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
def test_closed_form_root_equals_the_determinant_root(n):
    rng = np.random.default_rng(4000 + n)
    for _ in range(8):
        psi = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
        o = obstate.standard_obstate(algebra.random_hermitian(n, rng),
                                     psi @ psi.conj().T / np.vdot(psi, psi).real)
        fam = hermitian.line_family(o.state, o.ref_state)
        for target in (o.observable, o.ref_observable):
            root = obstate._completion_parameter(fam, obstate._line_factors(fam), target)
            expected = _determinant_root(fam, target)
            if is_inf(expected):
                assert is_inf(root)
            else:
                assert root == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_a_rank_two_direction_is_not_a_line():
    # span[I; diag(t, t - 1)] would meet 0 = span[I; 0] at t = 0 and t = 1
    with pytest.raises(NotRankOneError):
        hermitian.LineFamily(np.eye(4, dtype=complex), np.diag([0.0, -1.0]).astype(complex),
                             np.eye(2, dtype=complex))


def _diagonal_family():
    # line(t) = span[I; diag(t, 0)]: direction e1 e1*, horizon point span[e2; e1]
    return hermitian.LineFamily(np.eye(4, dtype=complex), np.zeros((2, 2), dtype=complex),
                                np.diag([1.0, 0.0]).astype(complex))


def test_a_constant_determinant_puts_the_root_at_inf():
    # det [I, 0; diag(t, 0), I] = 1 for every finite t, so k = 0
    fam = _diagonal_family()
    assert is_inf(obstate._completion_parameter(fam, obstate._line_factors(fam),
                                                grassmann.infinity_point(2)))


def test_a_complex_root_has_no_completion_point():
    # det [I, I; diag(t, 0), diag(i, 1)] = i - t vanishes only at t = i
    target = grassmann.point_from_chart(np.diag([1j, 1.0]))
    fam = _diagonal_family()
    with pytest.raises(NonUniqueCompletionError, match="no real point"):
        obstate._completion_parameter(fam, obstate._line_factors(fam), target)


def _report_from_public_calls(o):
    out = {"expectation": obstate._scalar_to_json(obstate.expectation(o))}
    if o.strong:
        out["variance"] = obstate.variance(o)
        out["distribution"] = [[v, w] for v, w in obstate.distribution(o)]
    out["pure"] = obstate.is_pure(o)
    out["positive"] = obstate.is_positive(o)
    out["cyclically_ordered"] = obstate.is_cyclically_ordered(o)
    if out["pure"]:
        try:
            out["pure_expectation"] = obstate._scalar_to_json(obstate.pure_expectation(o))
        except NonUniqueCompletionError as exc:
            out["pure_expectation_error"] = str(exc)
    return out


def test_report_equals_the_separate_public_calls():
    rng = np.random.default_rng(2718)
    seen = set()
    for n in (1, 2, 3, 4):
        for k in range(6):
            a = algebra.random_hermitian(n, rng)
            if k % 3 == 2:
                a = a @ a + 0.1 * np.eye(n)   # positive: cyclically ordered states
            psi = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
            w = (psi @ psi.conj().T / np.vdot(psi, psi).real if k % 2
                 else algebra.random_density(n, rng))
            for o in (obstate.standard_obstate(a, w),
                      obstate.new_obstate(grassmann.point_from_chart(a),
                                          obstate.state_from_density(w),
                                          grassmann.zero_point(n),
                                          grassmann.point_from_cochart(2 * np.eye(n)),
                                          strong=False)):
                rep = obstate.report(o)
                assert rep == _report_from_public_calls(o)
                seen.add((rep["pure"], rep["cyclically_ordered"]))
    assert seen == {(p, c) for p in (False, True) for c in (False, True)}


def test_report_keeps_the_completion_error(monkeypatch):
    def no_unique_point(fam, factors, target):
        raise NonUniqueCompletionError(
            "no real point of the line meets the non-transversality locus")

    monkeypatch.setattr(obstate, "_completion_parameter", no_unique_point)
    o = obstate.standard_obstate(np.diag([1.0, 2.0]), np.diag([1.0, 0.0]))
    rep = obstate.report(o)
    assert rep == _report_from_public_calls(o)
    assert rep["pure"] is True and "pure_expectation_error" in rep


def test_base_points_are_cached_and_read_only():
    for make in (grassmann.zero_point, grassmann.infinity_point, grassmann.one_point):
        x = make(3)
        assert make(3) is x
        assert make(2) is not x
        assert not x.basis.flags.writeable
        assert not x.projector.flags.writeable
        with pytest.raises(ValueError):
            x.basis[0, 0] = 2.0


def test_json_rejects_a_payload_that_is_not_an_object():
    for payload in ([1, 2], None, "zero"):
        with pytest.raises(ValueError, match="obstate JSON must be an object"):
            obstate.obstate_from_json(payload)


def _obstates_of_every_kind():
    """Standard, transported and weak obstates at n = 1..4, pure and mixed."""
    rng = np.random.default_rng(1618)
    for n in (1, 2, 3, 4):
        for k in range(6):
            a = algebra.random_hermitian(n, rng)
            if k % 3 == 2:
                a = a @ a + 0.1 * np.eye(n)
            psi = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
            w = (psi @ psi.conj().T / np.vdot(psi, psi).real if k % 2
                 else algebra.random_density(n, rng))
            o = obstate.standard_obstate(a, w)
            yield o
            yield obstate.transport(o, hermitian.aut_omega_random(n, rng))
            yield obstate.new_obstate(o.observable, o.state, grassmann.zero_point(n),
                                      grassmann.point_from_cochart(2 * np.eye(n)),
                                      strong=False)


def _ordered(a, b, c):
    """One cyclic-order triple on its own, an endpoint off the cut chart counting as False."""
    try:
        return hermitian.cyclic_triple(a, b, c)
    except (NotHermitianError, NotInChartError, NotTransversalError):
        return False


def test_report_order_flags_match_the_public_predicates():
    seen = set()
    for o in _obstates_of_every_kind():
        rep = obstate.report(o)
        flags = (rep["positive"], rep["cyclically_ordered"])
        assert flags == (obstate.is_positive(o), obstate.is_cyclically_ordered(o))
        # and each triple evaluated alone, without the shared cut
        state_on_arc = _ordered(o.ref_observable, o.state, o.ref_state)
        assert flags == (state_on_arc, state_on_arc and _ordered(
            o.ref_observable, o.observable, o.ref_state))
        seen.add(flags)
    assert seen == {(False, False), (True, False), (True, True)}


def test_expectation_of_a_copy_or_hand_built_obstate_has_the_same_bits():
    for o in _obstates_of_every_kind():
        for bare in (dataclasses.replace(o),
                     obstate.Obstate(o.observable, o.state, o.ref_observable,
                                     o.ref_state, o.strong)):
            assert bare == o
            assert obstate.expectation(bare) == obstate.expectation(o)


def test_expectation_warns_near_the_threshold_like_every_guarded_call():
    a = np.diag([1e7, 1.0])  # margin of (A, Winf) about 5e-8: within a decade of 1e-8
    w = np.diag([0.5, 0.5])
    with pytest.warns(grassmann.TransversalityWarning):
        o = obstate.standard_obstate(a, w)
    with pytest.warns(grassmann.TransversalityWarning) as record:
        ev = obstate.expectation(o)
    assert ev == pytest.approx(np.trace(w @ a))
    assert [r.filename for r in record] == [obstate.__file__]  # the kernel's caller


# (n, sigma_2 / sigma_1 of the density, pure in the standard frame, pure moved by U)
_NEAR_PURE = [(2, 1e-6, False, False), (2, 1e-7, False, False), (2, 1e-8, True, True),
              (4, 1e-6, False, True), (4, 1e-7, True, False), (4, 1e-8, True, True),
              (8, 1e-6, False, False), (8, 1e-7, False, True), (8, 1e-8, True, True)]


def test_pure_is_unchanged_near_the_rank_threshold():
    # the values the chart path computes at the 1e-7 rank threshold, rounding and all;
    # a rank certificate must leave them to it
    got = []
    for n in (2, 4, 8):
        rng = np.random.default_rng(7200 + n)
        for ratio in (1e-6, 1e-7, 1e-8):
            u = algebra.random_unitary(n, rng)
            s = np.zeros(n)
            s[0], s[1] = 1.0, ratio
            w = (u * s) @ u.conj().T
            o = obstate.standard_obstate(algebra.random_hermitian(n, rng), (w + w.conj().T) / 2)
            moved = obstate.transport(o, hermitian.u_group_random(n, rng))
            got.append((n, ratio, obstate.report(o)["pure"], obstate.report(moved)["pure"]))
    assert got == _NEAR_PURE
