import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apline import algebra, crossratio, grassmann
from apline.crossratio import INF, classical_cr, is_inf, ratio
from apline.errors import (
    DegenerateError,
    DimensionError,
    IndeterminateError,
    NotTransversalError,
    SingularError,
)

RNG = np.random.default_rng(424242)

finite = st.floats(min_value=-50, max_value=50,
                   allow_nan=False, allow_infinity=False)


def separated(*vals, gap=1e-3):
    return all(abs(a - b) > gap for i, a in enumerate(vals)
               for b in vals[i + 1:])


def test_classical_cr_worked_examples():
    assert classical_cr(0.0, 1.0, 2.0, 3.0) == pytest.approx(4.0 / 3.0)
    assert classical_cr(3.0, 1.0, 0.0, INF) == pytest.approx(3.0)
    assert classical_cr(2.0, 3.0, 1.0, INF) == pytest.approx(0.5)
    assert is_inf(classical_cr(1.0, 2.0, 3.0, 1.0))
    with pytest.raises(IndeterminateError):
        classical_cr(1.0, 1.0, 1.0, 2.0)


def test_ratio_is_cr_with_inf():
    assert ratio(2.0, 3.0, 1.0) == pytest.approx(0.5)
    assert ratio(5.0, 1.0, 0.0) == pytest.approx(5.0)
    with pytest.raises(DegenerateError):
        ratio(1.0, 2.0, 2.0)


@given(finite, finite, finite, finite)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_cr_pair_symmetries(a, b, c, d):
    if not separated(a, b, c, d):
        return
    cr = classical_cr(a, b, c, d)
    assert classical_cr(b, a, d, c) == pytest.approx(cr, rel=1e-9, abs=1e-9)
    assert classical_cr(c, d, a, b) == pytest.approx(cr, rel=1e-9, abs=1e-9)
    assert classical_cr(b, a, c, d) * cr == pytest.approx(1.0, rel=1e-9)


@given(finite, finite, finite)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_cr_normalizes_the_standard_frame(a, b, c):
    if not separated(a, b, c):
        return
    # the coordinate sending c -> 0, b -> 1, keeps the ordering data of a
    coord = classical_cr(a, b, c, INF)
    assert coord == pytest.approx(ratio(a, b, c), rel=1e-9, abs=1e-12)


def test_cr_accepts_complex_values():
    cr = classical_cr(0.0, 1.0, 1j, INF)
    assert isinstance(cr, complex)
    assert abs(cr.imag) > 0.1


def test_proj_equal_on_extended_scalars():
    assert crossratio.proj_equal(INF, INF)
    assert crossratio.proj_equal(2.0, 2.0 + 0.0j)
    assert not crossratio.proj_equal(2.0, INF)


def _kernel_quadruple(n):
    while True:
        x, a, b, y = (grassmann.random_point(n, RNG) for _ in range(4))
        if (grassmann.transversality_margin(x, a) > 1e-2
                and grassmann.transversality_margin(b, x) > 1e-2
                and grassmann.transversality_margin(y, a) > 1e-2):
            return x, a, b, y


def test_kernel_reduces_to_scalar_cr_at_n1():
    for _ in range(25):
        x, a, b, y = _kernel_quadruple(1)
        k = crossratio.kernel(x, a, b, y)
        vals = [crossratio.cp1_value(p) for p in (y, b, x, a)]
        want = classical_cr(*vals)
        assert complex(k.matrix[0, 0]) == pytest.approx(complex(want), rel=1e-9)


def test_kernel_trace_det_natural_under_maps():
    x, a, b, y = _kernel_quadruple(3)
    k = crossratio.kernel(x, a, b, y)
    g = grassmann.random_map(3, RNG)
    moved = crossratio.kernel(*(grassmann.apply_map(g, p) for p in (x, a, b, y)))
    assert moved.trace == pytest.approx(k.trace, rel=1e-8)
    assert moved.det == pytest.approx(k.det, rel=1e-8)


def test_kernel_standard_frame_is_wa():
    # observable chart a, state cochart w, references (0, infinity)
    n = 3
    am = algebra.random_hermitian(n, RNG)
    wm = algebra.random_density(n, RNG)
    k = crossratio.kernel(grassmann.zero_point(n), grassmann.infinity_point(n),
                          grassmann.point_from_cochart(wm),
                          grassmann.point_from_chart(am))
    assert np.allclose(k.matrix, wm @ am, atol=1e-10)
    assert k.trace == pytest.approx(complex(np.trace(wm @ am)))


def test_cp1_value_and_dimension_guard():
    assert is_inf(crossratio.cp1_value(grassmann.infinity_point(1)))
    assert crossratio.cp1_value(grassmann.zero_point(1)) == 0.0
    with pytest.raises(DimensionError):
        crossratio.cp1_value(grassmann.zero_point(2))


def test_transition_probability_range_and_symmetry():
    for _ in range(20):
        x = grassmann.random_point(1, RNG)
        y = grassmann.random_point(1, RNG)
        p = crossratio.transition_probability(x, y)
        assert 0.0 <= p <= 1.0 + 1e-12
        assert p == pytest.approx(crossratio.transition_probability(y, x))
    assert crossratio.transition_probability(
        grassmann.zero_point(1), grassmann.zero_point(1)) == pytest.approx(1.0)
    assert crossratio.transition_probability(
        grassmann.zero_point(1), grassmann.infinity_point(1)) == pytest.approx(0.0)


# --- the margin bound that lets kernel skip its graph-block checks ----------------

def _span(*cols):
    return grassmann.SubspacePoint(np.column_stack(cols))


def test_kernel_still_rejects_degenerate_graph_blocks_below_the_margin_bound():
    # a and x meet at an angle of ~3e-6, so [A | X]^{-1} stretches by ~3e5: graph
    # blocks of points transversal to x or a can then have condition above 1/TOL_INV
    e = np.eye(4)
    eps = 3e-6
    a = _span(e[0], e[1])
    x = _span(e[0] + eps * e[2], e[3])
    frame = np.hstack([a.basis, x.basis])
    cases = ((_span(e[2], eps * e[1] + e[3]), _span(e[0] + e[1] + e[2], e[1] - e[3]), "b"),
             (_span(e[1], e[2] + e[3]), _span(e[2], e[1] + eps * e[3]), "y"))
    for b, y, degenerate in cases:
        m_xa, m_bx, m_ya = (grassmann.transversality_margin(p, q)
                            for p, q in ((x, a), (b, x), (y, a)))
        assert min(m_xa, m_bx, m_ya) > 10 * grassmann.TRANSVERSALITY_RTOL
        block = (np.linalg.solve(frame, b.basis)[:2] if degenerate == "b"
                 else np.linalg.solve(frame, y.basis)[2:])
        assert not algebra.is_invertible(block)
        assert min(m_bx, m_ya) * m_xa < crossratio._MARGIN_PRODUCT_BOUND
        with pytest.raises(SingularError, match=f"decomposition of {degenerate} is degenerate"):
            crossratio.kernel(x, a, b, y)


def test_kernel_warns_at_its_callers_line():
    y = grassmann.point_from_chart(np.diag([1e7, 1.0]))  # margin to infinity about 5e-8
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        crossratio.kernel(grassmann.zero_point(2), grassmann.infinity_point(2),
                          grassmann.point_from_cochart(np.eye(2)), y)
    assert [(r.category, r.filename) for r in record] == [
        (grassmann.TransversalityWarning, __file__)]


@pytest.mark.filterwarnings("ignore::apline.grassmann.TransversalityWarning")
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_kernel_skips_a_block_check_only_where_it_would_pass(n):
    rng = np.random.default_rng(100 + n)

    def draw():
        return (rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))) / np.sqrt(2)

    def near(base):  # base tilted by a random scale between 1 and 1e-8
        return base + 10.0 ** -rng.uniform(0, 8) * draw()

    skipped = checked = 0
    for _ in range(150):
        a0 = draw()
        x0 = near(a0)
        x, a, b, y = (grassmann.SubspacePoint(c) for c in (x0, a0, near(x0), near(a0)))
        m_xa, m_bx, m_ya = (grassmann.transversality_margin(p, q)
                            for p, q in ((x, a), (b, x), (y, a)))
        if min(m_xa, m_bx, m_ya) <= grassmann.TRANSVERSALITY_RTOL:
            with pytest.raises(NotTransversalError):
                crossratio.kernel(x, a, b, y)
            continue
        frame = np.hstack([a.basis, x.basis])
        blocks = ((np.linalg.solve(frame, b.basis)[:n], m_bx * m_xa),
                  (np.linalg.solve(frame, y.basis)[n:], m_ya * m_xa))
        for block, bound in blocks:
            s = np.linalg.svd(block, compute_uv=False)
            assert s[-1] / s[0] >= 0.5 * bound  # the bound itself, with room for rounding
            if bound >= crossratio._MARGIN_PRODUCT_BOUND:
                assert algebra.is_invertible(block)
                skipped += 1
            else:
                checked += 1
        if all(bound >= crossratio._MARGIN_PRODUCT_BOUND for _, bound in blocks):
            crossratio.kernel(x, a, b, y)
    assert skipped and checked


# --- the frame (0, infinity) ---------------------------------------------------------

def _frame_copies(n):
    """Points equal to 0 and infinity, built from the same columns but not the base points."""
    zero = grassmann.SubspacePoint(np.vstack([np.eye(n), np.zeros((n, n))]))
    infinity = grassmann.SubspacePoint(np.vstack([np.zeros((n, n)), np.eye(n)]))
    return zero, infinity


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 16])
def test_kernel_in_the_frame_zero_infinity_is_bitwise_the_solve(n, seam_log):
    rng = np.random.default_rng(500 + n)
    zero, infinity = grassmann.zero_point(n), grassmann.infinity_point(n)
    # the bases the proof in kernel names: [I; 0] and -[0; I]
    assert (zero.basis == np.vstack([np.eye(n), np.zeros((n, n))])).all()
    assert (infinity.basis == -np.vstack([np.zeros((n, n)), np.eye(n)])).all()
    equal = _frame_copies(n)
    for hermitian_charts in (True, False):
        for _ in range(30):
            if hermitian_charts:
                a, w = algebra.random_hermitian(n, rng), algebra.random_density(n, rng)
            else:
                a, w = algebra.random_matrix(n, rng), algebra.random_matrix(n, rng)
            b, y = grassmann.point_from_cochart(w), grassmann.point_from_chart(a)
            seam_log.clear()
            fast = crossratio.kernel(zero, infinity, b, y).matrix
            assert seam_log.calls("solve") == {"solve": 0}
            solved = crossratio.kernel(*equal, b, y).matrix
            assert seam_log.calls("solve") == {"solve": 1}
            assert fast.tobytes() == solved.tobytes()


def test_kernel_in_the_frame_zero_infinity_on_diagonal_charts_is_the_solve_up_to_zero_signs():
    rng = np.random.default_rng(520)
    for n in (1, 2, 3, 4):
        zero, infinity = grassmann.zero_point(n), grassmann.infinity_point(n)
        for _ in range(20):
            a, w = np.diag(rng.standard_normal(n)), np.diag(np.abs(rng.standard_normal(n)))
            b, y = grassmann.point_from_cochart(w), grassmann.point_from_chart(a)
            fast = crossratio.kernel(zero, infinity, b, y)
            solved = crossratio.kernel(*_frame_copies(n), b, y)
            # an exact zero real or imaginary part may differ in sign, nothing else may
            parts, solved_parts = fast.matrix.view(float), solved.matrix.view(float)
            nonzero = parts != 0
            assert np.array_equal(parts, solved_parts)
            assert parts[nonzero].tobytes() == solved_parts[nonzero].tobytes()
            assert repr((fast.trace, fast.det)) == repr((solved.trace, solved.det))


def test_infinity_prints_as_inf_and_hashes_as_one_value():
    assert repr(INF) == "inf" and crossratio.Infinity() is INF
    assert hash(INF) == hash(crossratio.Infinity())
    assert {INF: 1}[crossratio.Infinity()] == 1


def test_transition_probability_needs_n_1():
    x, y = grassmann.random_point(2, RNG), grassmann.random_point(2, RNG)
    with pytest.raises(DimensionError, match="n = 1 only"):
        crossratio.transition_probability(x, y)
