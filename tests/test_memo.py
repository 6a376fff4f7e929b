"""The per-point memo: a cached value is the bits a new computation gives.

Each memoized function is compared, after its memo is filled, with the
same function on a new point built from the same columns; errors are
raised again on every call; and reports, the CLI and the returned arrays
do not change when the reference frame's work comes from the memo.
"""

import ast
import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import apline
from apline import algebra, grassmann, hermitian, obstate
from apline.cli import main
from apline.errors import (AplineError, DimensionError, NotHermitianError, NotInChartError,
                           NotInUniverseError, ValueOverflowError)
from apline.grassmann import SubspacePoint

_ROOT = Path(__file__).resolve().parents[1]


def _frames(n):
    """(name, columns of A0, columns of Winf) of the standard frame and a transported one."""
    zero = np.vstack([np.eye(n), np.zeros((n, n))])
    infinity = np.vstack([np.zeros((n, n)), np.eye(n)])
    g = hermitian.u_group_random(n, np.random.default_rng(100 + n)).rep
    return [("standard", zero, infinity), ("transported", g @ zero, g @ infinity)]


def _bits(value) -> bytes:
    if isinstance(value, grassmann.ProjectiveMap):
        value = value.rep
    return np.asarray(value).tobytes()


def _parts(parts):
    """The bits of a chart value's Hermitian parts: its gap, its size and its symmetrization."""
    gap, size, h = parts
    return gap.hex(), size.hex(), _bits(h)


def _outcome(fn, x):
    """fn(x), or the type of the AplineError it raises."""
    try:
        return fn(x)
    except AplineError as exc:
        return type(exc)


def _order_values(c, points):
    """The outcomes of the order values of points, cut at c."""
    return [_outcome(lambda z: _bits(hermitian._order_value(z, c)), z) for z in points]


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_memoized_values_are_bitwise_a_new_computation(n, cold_base_points):
    points = [grassmann.zero_point(n), grassmann.one_point(n),
              hermitian.random_r_point(n, np.random.default_rng(n))]
    cases = {
        "projector": lambda x: _bits(x.projector),
        "_chart_value": lambda x: _bits(grassmann._chart_value(x)),
        "_cochart_value": lambda x: _bits(grassmann._cochart_value(x)),
        "membership": lambda x: hermitian.membership(x, "R"),
        "cayley_to_unitary": lambda x: _bits(hermitian.cayley_to_unitary(x)),
        "transport_to_zero": lambda x: _bits(hermitian.transport_to_zero(x)),
        "_hermitian_chart": lambda x: _bits(hermitian._hermitian_chart(x)),
        "_hermitian_parts": lambda x: _parts(grassmann._hermitian_parts(x)),
        "_cochart_hermitian_parts": lambda x: _parts(grassmann._cochart_hermitian_parts(x)),
        # each point's order value cut at x: a Hermitian chart, or a pair value on the point
        "_order_value": lambda x: _order_values(x, points),
    }
    named = {"standard": (grassmann.zero_point(n), grassmann.infinity_point(n))}
    for frame, a0_cols, winf_cols in _frames(n):
        shared = named.get(frame) or (SubspacePoint(a0_cols), SubspacePoint(winf_cols))
        for x, cols in zip(shared, (a0_cols, winf_cols)):
            for name, fn in cases.items():
                first = _outcome(fn, x)
                again = _outcome(fn, x)  # from the memo
                fresh = _outcome(fn, SubspacePoint(cols))
                assert again == first == fresh, (frame, name)


def test_errors_are_raised_on_every_call():
    x = grassmann.random_point(3, np.random.default_rng(7))
    assert not hermitian.membership(x, "R")
    for fn in (hermitian.cayley_to_unitary, hermitian.transport_to_zero):
        for _ in range(3):
            with pytest.raises(NotInUniverseError):
                fn(x)


def test_a_written_cayley_unitary_leaves_the_next_result_unchanged():
    x = hermitian.random_r_point(3, np.random.default_rng(8))
    u = hermitian.cayley_to_unitary(x)
    expected = u.copy()
    u[:] = 0.0
    assert hermitian.cayley_to_unitary(x).tobytes() == expected.tobytes()


# (memoized value, public copy, the value from the blocks p, q of a basis [p; q]) of the
# chart and of the cochart
_CHARTS = ((grassmann._chart_value, grassmann.chart_repr, lambda p, q: q @ np.linalg.inv(p)),
           (grassmann._cochart_value, grassmann.cochart_repr, lambda p, q: p @ np.linalg.inv(q)))


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_the_chart_value_is_bitwise_a_fresh_q_inv_p_and_read_only(n):
    # and the cochart value a fresh p inv(q)
    rng = np.random.default_rng(300 + n)
    for x in (grassmann.random_point(n, rng), hermitian.random_r_point(n, rng),
              grassmann.point_from_chart(algebra.random_hermitian(n, rng)),
              grassmann.point_from_cochart(algebra.random_density(n, rng))):
        for memoized, _, fresh in _CHARTS:
            value = memoized(x)
            assert value.tobytes() == fresh(x.basis[:n, :], x.basis[n:, :]).tobytes()
            assert not value.flags.writeable
            assert memoized(x) is value


def test_chart_repr_returns_a_writable_copy_and_leaves_the_memo_untouched():
    # and so does cochart_repr
    x = grassmann.random_point(3, np.random.default_rng(9))
    for memoized, public, _ in _CHARTS:
        value = memoized(x)
        expected = value.tobytes()
        chart = public(x)
        assert chart.flags.writeable and chart is not value
        chart[:] = 0.0
        assert memoized(x) is value and value.tobytes() == expected
        assert public(x).tobytes() == expected


def test_a_point_off_the_chart_raises_on_every_call():
    # span[w; I] of a singular w meets infinity
    x = grassmann.point_from_cochart(np.diag([1.0, 0.0]))
    for fn in (grassmann._chart_value, grassmann.chart_repr, hermitian._hermitian_chart):
        for _ in range(3):
            with pytest.raises(NotInChartError):
                fn(x)
    assert grassmann._chart_value not in x._memo
    # span[I; a] of a singular a meets 0, also once its sines to 0 are memoized
    x = grassmann.point_from_chart(np.diag([1.0, 0.0]))
    assert not grassmann.is_transversal(x, grassmann.zero_point(2))
    for fn in (grassmann._cochart_value, grassmann.cochart_repr):
        for _ in range(3):
            with pytest.raises(NotInChartError, match="not transversal to zero"):
                fn(x)
    assert grassmann._cochart_value not in x._memo


def _matrix_json(m):
    return {"n": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def _pool(n=4, size=64, seed=2026):
    """Standard-frame obstate payloads; every fourth state is pure."""
    rng = np.random.default_rng(seed)
    payloads = []
    for i in range(size):
        a = algebra.random_hermitian(n, rng)
        if i % 4 == 3:
            psi = algebra.random_matrix(n, rng)[:, :1]
            w = psi @ psi.conj().T / np.vdot(psi, psi).real
        else:
            w = algebra.random_density(n, rng)
        payloads.append({"A": {"chart": _matrix_json(a)}, "W": {"density": _matrix_json(w)},
                         "A0": "zero", "Winf": "infinity"})
    return payloads


def _report_json(payload):
    return json.dumps(obstate.report(obstate.obstate_from_json(payload)), sort_keys=True)


def test_reports_from_a_cold_and_a_warm_frame_are_identical(cold_base_points):
    pool = _pool()
    cold = []
    for payload in pool:
        grassmann.zero_point.cache_clear()
        grassmann.infinity_point.cache_clear()
        cold.append(_report_json(payload))
    warm = [_report_json(payload) for payload in pool]
    assert warm == cold


def test_expect_prints_its_golden_output_twice_in_one_process(cold_base_points):
    runner = CliRunner()
    golden = (_ROOT / "tests" / "golden" / "expect_diag.txt").read_bytes()
    for _ in range(2):
        res = runner.invoke(main, ["expect", str(_ROOT / "sample_inputs" / "expect_diag.json")])
        assert res.exit_code == 0, res.output
        assert res.stdout_bytes == golden


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_margins_to_the_base_points_are_bitwise_a_new_computation(n, cold_base_points):
    rng = np.random.default_rng(200 + n)
    zero, infinity = grassmann.zero_point(n), grassmann.infinity_point(n)
    # building infinity computed the sines between the two base points, in their pair tables
    assert list(_sines_table(zero)) == [id(infinity)]
    assert list(_sines_table(infinity)) == [id(zero)]
    points = [grassmann.random_point(n, rng), grassmann.one_point(n), zero, infinity]
    for base in (zero, infinity):
        for x in points:
            fresh = grassmann._principal_sines(x, base)
            first = grassmann._sines(x, base)
            assert id(base) in _sines_table(x) and not first.flags.writeable
            assert grassmann._sines(x, base) is first
            assert first.tobytes() == fresh.tobytes()
            margin = grassmann._half_angle_tangent(fresh[-1]).hex()
            assert grassmann.transversality_margin(x, base).hex() == margin
    # any other second point is measured once and cached on the first point, under its
    # own key, beside the base points, while it lives; nothing is cached on the second point
    x, a = points[0], grassmann.random_point(n, rng)
    first = grassmann._sines(x, a)
    assert first.tobytes() == grassmann._principal_sines(x, a).tobytes()
    assert grassmann._sines(x, a) is first and not first.flags.writeable
    assert a._memo == {} and set(x._memo) == {grassmann._principal_sines}
    assert sorted(_sines_table(x)) == sorted([id(zero), id(infinity), id(a)])


def test_a_cached_margin_warns_on_every_call():
    x = grassmann.point_from_cochart(np.diag([1.0, 1e-7]))  # margin to infinity about 5e-8
    infinity = grassmann.infinity_point(2)
    for _ in range(3):
        with pytest.warns(grassmann.TransversalityWarning):
            assert grassmann.is_transversal(x, infinity)
    assert id(infinity) in _sines_table(x)


def test_memo_tags_are_names(cold_base_points):
    eye = np.eye(2)
    tags = {
        "zero": grassmann.zero_point(2)._memo[grassmann._base_point],
        "infinity": grassmann.infinity_point(2)._memo[grassmann._base_point],
        "chart": grassmann.point_from_chart(eye)._memo[grassmann._graph_point],
        "cochart": grassmann.point_from_cochart(eye)._memo[grassmann._graph_point],
    }
    assert tags == {"zero": "zero", "infinity": "infinity", "chart": "infinity",
                    "cochart": "zero"}
    # an image's source tag, under apply_map: weak references to its map and its source
    x, g = grassmann.one_point(2), grassmann.identity_map(2)
    map_ref, source_ref = grassmann.apply_map(g, x)._memo[grassmann.apply_map]
    assert isinstance(map_ref, weakref.ref) and isinstance(source_ref, weakref.ref)
    assert (map_ref(), source_ref()) == (g, x)


@pytest.mark.parametrize("fn", [grassmann.zero_point, grassmann.infinity_point,
                                grassmann.one_point, hermitian.poles, algebra._eye],
                         ids=lambda fn: fn.__name__)
def test_a_size_is_checked_before_the_cache(fn):
    # a numpy integer finds the entry of its int, and a bad size raises on a warm cache
    # as on a cold one: 2.0 equals np.int64(2), and a list is no cache key
    assert fn(np.int64(2)) is fn(2)
    for bad in (2.0, [2]):
        with pytest.raises(DimensionError, match="^a size must be a whole number n >= 1"):
            fn(bad)
    assert fn.cache_info().currsize >= 1


def test_the_chart_guard_reads_sines_to_a_named_base_point_and_builds_none(cold_base_points):
    n = 3
    x = grassmann.random_point(n, np.random.default_rng(250))
    assert grassmann._guard(x, "infinity") is None and grassmann._guard(x, "zero") is None
    assert grassmann.zero_point.cache_info().currsize == 0
    assert grassmann.infinity_point.cache_info().currsize == 0
    # a partner merely equal to infinity carries no name
    grassmann._sines(x, SubspacePoint(np.vstack([np.zeros((n, n)), np.eye(n)])))
    assert grassmann._guard(x, "infinity") is None
    grassmann._sines(x, grassmann.infinity_point(n))
    assert grassmann._guard(x, "infinity") is True and grassmann._guard(x, "zero") is None


def _memo_arrays(value):
    """The arrays a memo value holds: itself, a map's rep and its inverse's, an image's
    basis, a tuple's items or a pair table's values."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, grassmann.ProjectiveMap):
        return [value.rep] + _memo_arrays(value._inverse)
    if isinstance(value, SubspacePoint):
        return [value.basis]
    if isinstance(value, tuple):
        return [arr for v in value for arr in _memo_arrays(v)]
    if isinstance(value, dict):
        return [arr for _, v in value.values() for arr in _memo_arrays(v)]
    return []


def test_every_cached_array_is_read_only(cold_base_points):
    n = 4
    rng = np.random.default_rng(400)
    a = algebra.random_hermitian(n, rng)
    psi = algebra.random_matrix(n, rng)[:, :1]
    mixed = obstate.standard_obstate(a, algebra.random_density(n, rng))
    pure = obstate.standard_obstate(a, psi @ psi.conj().T / np.vdot(psi, psi).real)
    moved = obstate.transport(obstate.standard_obstate(a, algebra.random_density(n, rng)),
                              hermitian.u_group_random(n, rng))
    points = [grassmann.zero_point(n), grassmann.infinity_point(n)]
    for o in (mixed, pure, moved):
        obstate.report(o)
        points += [o.observable, o.state, o.ref_observable, o.ref_state]
    # the standard-frame kernel, normal form and order test share A's chart value and
    # the kernel and normal form W's cochart value
    assert grassmann._chart_value in mixed.observable._memo
    assert grassmann._cochart_value in mixed.state._memo
    # the moved frame's gate and kernel share the sines of (W, A0) in W's pair table
    assert id(moved.ref_observable) in moved.state._memo[grassmann._principal_sines]
    # the moved frame's normal form keeps A moved to 0 on A while the transport lives
    g = hermitian.transport_to_zero(moved.ref_observable)
    assert id(g) in moved.observable._memo[grassmann._image]
    x, a = (grassmann.random_point(n, rng) for _ in range(2))
    grassmann.projector(x, a)
    assert id(a) in x._memo[grassmann._projector_matrix]
    h = grassmann.random_map(n, rng)
    grassmann.apply_map(h.inverse(), grassmann.apply_map(h, x))
    points += [x, a, hermitian.tau(x), hermitian.alpha(x), hermitian.beta(x),
               grassmann.apply_map(h, x)]
    arrays = [arr for x in points for v in x._memo.values() for arr in _memo_arrays(v)]
    assert len(arrays) > 20
    assert any(arr is grassmann.apply_map(h, x).basis for arr in arrays)
    assert not any(arr.flags.writeable for arr in arrays)


# --- values of a pair of points ---------------------------------------------------

@pytest.fixture
def no_gc():
    """Run the test with the cyclic garbage collector off: only reference counts free."""
    gc.disable()
    yield
    gc.enable()


def _pair_table(x, fn):
    return x._memo.get(fn, {})


def _sines_table(x):
    """x's pair table of sines: id(partner) -> (a weak reference to it, the sines)."""
    return _pair_table(x, grassmann._principal_sines)


# (a fresh computation, whose name keys the pair table, and the cached value) of the sines
# and the projector
_PAIR_VALUES = ((grassmann._principal_sines, grassmann._sines),
                (grassmann._projector_matrix, grassmann._projector))


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_a_cached_pair_value_is_bitwise_a_fresh_computation_and_read_only(n):
    rng = np.random.default_rng(500 + n)
    x, a = grassmann.random_point(n, rng), hermitian.random_r_point(n, rng)
    for fresh, cached in _PAIR_VALUES:
        value = cached(x, a)
        assert not value.flags.writeable
        assert cached(x, a) is value  # from the memo
        assert value.tobytes() == fresh(x, a).tobytes()
        assert list(_pair_table(x, fresh)) == [id(a)] and fresh not in a._memo


def test_a_pair_its_reverse_and_a_point_with_itself_get_their_own_entries():
    rng = np.random.default_rng(510)
    x, a = (grassmann.random_point(3, rng) for _ in range(2))
    pairs = ((x, a), (a, x), (x, x))
    sines = [grassmann._sines(p, q) for p, q in pairs]
    assert set(_pair_table(x, grassmann._principal_sines)) == {id(a), id(x)}
    assert list(_pair_table(a, grassmann._principal_sines)) == [id(x)]
    for (p, q), value in zip(pairs, sines):
        assert grassmann._sines(p, q) is value
        assert value.tobytes() == grassmann._principal_sines(p, q).tobytes()
    # [X | X] has rank n: every sine of x to itself is at rounding level
    assert sines[2][0] < 1e-12 < sines[0][-1]
    # image and kernel exchanged: the complementary projector, kept apart
    p, q = grassmann._projector(x, a), grassmann._projector(a, x)
    assert p is not q and np.allclose(p + q, np.eye(6))
    assert list(_pair_table(a, grassmann._projector_matrix)) == [id(x)]


def test_an_entry_disappears_when_its_partner_dies(no_gc):
    rng = np.random.default_rng(520)
    x, a, b = (grassmann.random_point(2, rng) for _ in range(3))
    for _, cached in _PAIR_VALUES:
        cached(x, a)
        cached(x, b)
    del a
    for key, _ in _PAIR_VALUES:
        assert list(_pair_table(x, key)) == [id(b)]
    del b
    for key, _ in _PAIR_VALUES:
        assert _pair_table(x, key) == {}


def test_a_long_lived_base_point_keeps_no_entry_of_a_dead_partner(no_gc, cold_base_points):
    n = 2
    zero = grassmann.zero_point(n)
    references = weakref.getweakrefcount(zero)
    rng = np.random.default_rng(530)
    for _ in range(1000):
        a = grassmann.random_point(n, rng)
        grassmann._sines(zero, a)
        grassmann._projector(zero, a)
        grassmann._projector(a, zero)  # a's entry refers to zero weakly
        assert id(a) in _pair_table(zero, grassmann._projector_matrix)
    del a
    for key, _ in _PAIR_VALUES:
        assert _pair_table(zero, key) == {}
    # the dead partners' references to zero died with their tables
    assert weakref.getweakrefcount(zero) == references


def test_an_entry_whose_reference_gives_another_point_is_no_hit():
    rng = np.random.default_rng(535)
    x, a, other = (grassmann.random_point(2, rng) for _ in range(3))
    stale = np.zeros(2)
    x._memo[grassmann._principal_sines] = {id(a): (weakref.ref(other), stale)}
    sines = grassmann._sines(x, a)
    assert sines is not stale
    assert sines.tobytes() == grassmann._principal_sines(x, a).tobytes()
    assert grassmann._sines(x, a) is sines


def _linked_pair(rng):
    """Two points whose memos hold every kind of pair entry, between them and to x's images."""
    x, a = (grassmann.random_point(2, rng) for _ in range(2))
    for p, q in ((x, a), (a, x), (x, x)):
        grassmann._sines(p, q)
        if p is not q:  # [X | X] is singular: x is no kernel of a projector onto x
            grassmann._projector(p, q)
    for involution in (hermitian.tau, hermitian.alpha, hermitian.beta):
        image = involution(x)
        grassmann._sines(x, image)
        grassmann._sines(image, x)
    return x, a


@pytest.mark.parametrize("first", [0, 1])
def test_a_point_and_its_partner_are_freed_by_reference_counting(no_gc, first):
    points = list(_linked_pair(np.random.default_rng(540)))
    images = [involution(points[0]) for involution in (hermitian.tau, hermitian.alpha,
                                                       hermitian.beta)]
    refs = [weakref.ref(p) for p in points + images]
    del images
    points.pop(first)
    assert refs[first]() is None and refs[1 - first]() is not None
    points.pop()
    assert [ref() for ref in refs] == [None] * 5


def test_a_cached_pair_margin_warns_on_every_call():
    x = grassmann.point_from_cochart(np.diag([1.0, 1e-7]))  # margin to infinity about 5e-8
    a = SubspacePoint(grassmann.infinity_point(2).basis)  # equal to infinity, no base point
    for _ in range(3):
        with pytest.warns(grassmann.TransversalityWarning):
            assert grassmann.is_transversal(x, a)
    assert list(_pair_table(x, grassmann._principal_sines)) == [id(a)]


def test_projector_returns_a_writable_copy_and_leaves_the_memo_untouched():
    rng = np.random.default_rng(550)
    x, a = (grassmann.random_point(3, rng) for _ in range(2))
    value = grassmann._projector(x, a)
    expected = value.tobytes()
    p = grassmann.projector(x, a)
    assert p.flags.writeable and p is not value
    p[:] = 0.0
    assert grassmann._projector(x, a) is value and value.tobytes() == expected
    assert grassmann.projector(x, a).tobytes() == expected


@pytest.mark.parametrize("n", [1, 2, 4])
def test_the_involutions_are_cached_and_bitwise_a_fresh_build(n):
    rng = np.random.default_rng(560 + n)
    for x in (grassmann.random_point(n, rng), hermitian.random_r_point(n, rng)):
        for involution in (hermitian.tau, hermitian.alpha, hermitian.beta):
            image = involution(x)
            assert involution(x) is image  # from the memo
            assert image.basis.tobytes() == involution.__wrapped__(x).basis.tobytes()


def _memo_sites(tree):
    """Lines that read or write a point's memo: the attribute _memo, or the string "_memo"."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "_memo"
                or isinstance(node, ast.Constant) and node.value == "_memo"):
            yield node.lineno


def test_only_grassmann_reads_or_writes_a_point_memo():
    # one module owns the one store: other modules reach it through grassmann's functions
    found = {path.stem: list(_memo_sites(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted(Path(apline.__file__).parent.glob("*.py"))}
    assert {module: lines for module, lines in found.items()
            if lines and module != "grassmann"} == {}
    assert found["grassmann"]  # the scan sees the memo where it is


# --- images of a point under a map ------------------------------------------------

def _image_table(x):
    """x's pair table of images: id(map) -> (a weak reference to it, the image)."""
    return _pair_table(x, grassmann._image)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_a_cached_image_is_bitwise_a_fresh_transport_with_a_read_only_basis(n):
    rng = np.random.default_rng(600 + n)
    g = grassmann.random_map(n, rng)
    for x in (grassmann.random_point(n, rng), hermitian.random_r_point(n, rng)):
        image = grassmann.apply_map(g, x)
        assert grassmann.apply_map(g, x) is image  # from the memo
        fresh = SubspacePoint._full_rank(g.rep @ x.basis)
        assert image.basis.tobytes() == fresh.basis.tobytes()
        assert not image.basis.flags.writeable
        assert list(_image_table(x)) == [id(g)] and grassmann._image not in image._memo
    # the inverse: computed once, bitwise the inverse of the rep, and read-only
    inverse = g.inverse()
    assert g.inverse() is inverse
    assert inverse.rep.tobytes() == algebra.proven_inverse(g.rep).tobytes()
    assert not inverse.rep.flags.writeable


def test_each_map_gets_its_own_image_entry_which_dies_with_the_map(no_gc):
    rng = np.random.default_rng(610)
    x = grassmann.random_point(2, rng)
    g, h = (grassmann.random_map(2, rng) for _ in range(2))
    gx, hx = grassmann.apply_map(g, x), grassmann.apply_map(h, x)
    assert gx is not hx and not grassmann.point_eq(gx, hx)
    assert set(_image_table(x)) == {id(g), id(h)}
    assert grassmann.apply_map(g, x) is gx and grassmann.apply_map(h, x) is hx
    image = weakref.ref(gx)
    del g, gx
    assert list(_image_table(x)) == [id(h)]
    assert image() is None  # the entry held the image, and died with the map
    del h
    assert _image_table(x) == {}


def test_a_long_lived_base_point_keeps_no_image_of_a_dead_map(no_gc, cold_base_points):
    n = 2
    zero = grassmann.zero_point(n)
    references = weakref.getweakrefcount(zero)
    rng = np.random.default_rng(620)
    for _ in range(1000):
        g = grassmann.random_map(n, rng)
        grassmann.apply_map(g.inverse(), grassmann.apply_map(g, zero))
        assert id(g) in _image_table(zero)
    del g
    assert _image_table(zero) == {}
    assert weakref.getweakrefcount(zero) == references


@pytest.mark.parametrize("first", ["point", "map"])
def test_a_point_its_map_and_the_image_are_freed_by_reference_counting(no_gc, first):
    rng = np.random.default_rng(630)
    held = {"point": grassmann.random_point(2, rng), "map": grassmann.random_map(2, rng)}
    x, g = held["point"], held["map"]
    image = grassmann.apply_map(g, x)
    back = grassmann.apply_map(g.inverse(), image)  # on the image, keyed by the inverse
    grassmann._sines(image, x)
    grassmann._sines(x, image)
    refs = {name: weakref.ref(obj) for name, obj in
            (("point", x), ("map", g), ("image", image), ("inverse", g.inverse()),
             ("back", back))}
    del x, g, image, back
    # the memos hold the image and its move back while the point and the map both live
    assert all(ref() is not None for ref in refs.values())
    held.pop(first)
    dead = {"point": {"point", "image", "back"},
            "map": {"map", "inverse", "image", "back"}}[first]
    assert {name for name, ref in refs.items() if ref() is None} == dead
    held.clear()
    assert [ref() for ref in refs.values()] == [None] * 5


def test_an_overflowing_transport_raises_on_every_call():
    g = grassmann.ProjectiveMap(np.diag([1.7e308, 1.7e308]))
    x = SubspacePoint(np.array([[1.0], [1.0]]))
    for _ in range(3):
        with pytest.raises(ValueOverflowError, match=r"^basis of scale "):
            grassmann.apply_map(g, x)
    assert _image_table(x) == {}


def test_an_image_its_map_and_its_source_are_freed_by_reference_counting(no_gc):
    rng = np.random.default_rng(635)
    x, a = (grassmann.random_point(2, rng) for _ in range(2))
    g = grassmann.ProjectiveMap(algebra.random_unitary(4, rng))
    grassmann._sines(x, a)
    gx, ga = grassmann.apply_map(g, x), grassmann.apply_map(g, a)
    # the gate keeps its bound on the images, which tag their map and source weakly
    assert grassmann._require_transversal(((gx, ga, "gate"),)) == (
        _pair_table(gx, grassmann._moved_pair_bound)[id(ga)][1],)
    refs = [weakref.ref(obj) for obj in (x, a, g, gx, ga)]
    del x, a, g, gx, ga
    assert [ref() for ref in refs] == [None] * 5


def test_the_state_is_tested_and_symmetrized_once_per_obstate(monkeypatch, cold_base_points):
    rng = np.random.default_rng(645)
    o = obstate.standard_obstate(algebra.random_hermitian(4, rng), algebra.random_density(4, rng))
    w = grassmann._cochart_value(o.state)
    tested = []
    hermitian_gap = algebra.hermitian_gap

    def recorded(a):
        tested.append(a.tobytes())
        return hermitian_gap(a)
    monkeypatch.setattr(algebra, "hermitian_gap", recorded)
    first = obstate.report(o)
    obstate.variance(o)
    obstate.distribution(o)
    assert obstate.report(o) == first
    # W's cochart value is tested (and symmetrized) once, like A's chart value
    assert tested.count(w.tobytes()) == 1


def test_the_order_and_the_normal_form_decide_by_algebras_hermitian_rule(monkeypatch,
                                                                          cold_base_points):
    rng = np.random.default_rng(646)
    o = obstate.standard_obstate(algebra.random_hermitian(3, rng), algebra.random_density(3, rng))
    a, b = (grassmann.point_from_chart(algebra.random_hermitian(3, rng)) for _ in range(2))
    tolerances = []
    within = algebra._hermitian_within

    def recorded(gap, size, tol):
        tolerances.append(tol)
        return within(gap, size, tol)
    monkeypatch.setattr(algebra, "_hermitian_within", recorded)
    hermitian.cyclic_triple(a, b, grassmann.infinity_point(3))
    assert tolerances == [1e-8, 1e-8]
    tolerances.clear()
    obstate.variance(o)
    assert tolerances == [1e-7, 1e-7]


def test_one_hermitian_test_of_a_chart_value_decides_each_tolerance():
    # a chart value whose relative gap ||a - a*|| / (1 + ||a||) lies between 1e-8 and 1e-7:
    # the normal form's test (1e-7) passes, the order test's (1e-8) fails
    h = algebra.random_hermitian(2, np.random.default_rng(640))
    a = h + 3e-8 * (1.0 + np.linalg.norm(h)) * np.array([[0.0, 1.0], [-1.0, 0.0]])
    x = grassmann.point_from_chart(a)
    gap, size, sym = grassmann._hermitian_parts(x)
    chart = grassmann._chart_value(x)
    assert (gap, size) == algebra.hermitian_gap(chart)
    assert algebra.is_hermitian(chart, tol=1e-7) and not algebra.is_hermitian(chart, tol=1e-8)
    assert sym.tobytes() == ((chart + chart.conj().T) / 2).tobytes()
    for _ in range(2):
        with pytest.raises(NotHermitianError):
            hermitian._hermitian_chart(x)
    assert grassmann._hermitian_parts(x)[2] is sym
