"""The proof audit: switching every proven shortcut off moves no output byte.

Each shortcut of the library skips a factorization or a solve whose outcome
a proof at its site settles (README "Conventions"), and claims the same
bits, errors and warnings as the check it skips.  The shortcuts_off fixture
switches every one of them off by monkeypatching alone: the library has no
option, parameter or environment variable for it.

- Each switch has a bite test: a pinned seam count rises when the switch
  alone is applied, so a renamed or moved shortcut cannot drop out of the
  audit without a test failing.
- The differential tests compare the sweep at two seeds, a pool of reports
  and the inputs of tests/test_library_fuzz.py with every shortcut on and
  off: values, errors and warnings must be equal byte for byte.

A new shortcut adds its switch to _SWITCHES and a bite case to _BITES.  The
standard frame's normal form (obstate._strong_normal_form) skips a transport
whose computed rep is I only up to rounding, so it moves bits and stays out of
this audit (see tests/test_obstate.py).
"""

import functools
import json
import math
import warnings

import numpy as np
import pytest

import test_library_fuzz as fuzz
from apline import algebra, crossratio, grassmann, hermitian, obstate, properties
from apline.errors import AplineError


class _GrassmannAsRead:
    """The grassmann module as one other module reads it, with some functions replaced."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(grassmann, name)


def _never(*args):
    return False


def _graph_tags_off(monkeypatch):
    # no chart value is under the bound: graph points run the public constructor, untagged
    monkeypatch.setattr(grassmann, "_GRAPH_NORM_BOUND", -1.0)


def _memoized_sine_guards_off(monkeypatch):
    # no chart guard is settled by a tag or by cached sines: each runs its SVD
    monkeypatch.setattr(grassmann, "_guard", lambda x, horizon: None)


def _moved_pair_gates_off(monkeypatch):
    # the gate measures every pair of two images under one map
    monkeypatch.setattr(grassmann, "_moved_pair_margin", lambda x, a: None)


def _rank_bound_on_r_off(monkeypatch):
    # a public point's rank rule is decided by R's SVD, never by R's diagonal
    monkeypatch.setattr(algebra, "_triangular_full_rank",
                        lambda f: algebra.invertible_cond(np.triu(f[:f.shape[1]])) is not None)


def _zero_infinity_kernel_off(monkeypatch):
    # the kernel sees no base point 0, so it solves in every frame; _strong_normal_form
    # still reads grassmann itself, so its skip (which moves bits) stays on
    monkeypatch.setattr(crossratio, "grassmann", _GrassmannAsRead(_is_zero_point=_never))


def _base_point_frames_off(monkeypatch):
    # chart_in_frame sees no base point, so it solves in every frame
    monkeypatch.setattr(hermitian, "grassmann", _GrassmannAsRead(
        _is_zero_point=_never, _is_infinity_point=_never))


def _margin_product_bound_off(monkeypatch):
    # every graph block of the kernel's solve runs its invertibility SVD
    monkeypatch.setattr(crossratio, "_MARGIN_PRODUCT_BOUND", math.inf)


_SWITCHES = {
    "graph tags": _graph_tags_off,
    "memoized-sine guards": _memoized_sine_guards_off,
    "moved-pair gates": _moved_pair_gates_off,
    "rank bound on R": _rank_bound_on_r_off,
    "(0, inf) kernel": _zero_infinity_kernel_off,
    "chart_in_frame's base-point frames": _base_point_frames_off,
    "kernel margin-product bound": _margin_product_bound_off,
}


@pytest.fixture(autouse=True)
def new_base_points(cold_base_points):
    """Start on new base points, and leave none whose memo was filled under a switch.

    Its value clears them (see conftest.cold_base_points).
    """
    yield cold_base_points
    cold_base_points()


@pytest.fixture
def shortcuts_off(monkeypatch):
    """Every proven shortcut switched off, for the test's duration."""
    for switch_off in _SWITCHES.values():
        switch_off(monkeypatch)


# --- each switch bites ------------------------------------------------------------

_SEAM = ("thin_qr", "singular_values", "proven_inverse", "solve")


def _warm_seam_calls(pid):
    """The seam calls of pid's 10 trials at seed 0, run a second time on warm base points."""
    spec = properties.SPECS[pid]
    properties.run_property(spec, properties.DEFAULT_N_LIST, 10, 0)
    tally = dict.fromkeys(_SEAM, 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            tally[name] += 1
            return original(*args, **kwargs)
        return counted
    with pytest.MonkeyPatch.context() as seam:
        for name in _SEAM:
            seam.setattr(algebra, name, counting(name, getattr(algebra, name)))
        properties.run_property(spec, properties.DEFAULT_N_LIST, 10, 0)
    return tally


def _calls(thin_qr, singular_values, proven_inverse, solve):
    return dict(zip(_SEAM, (thin_qr, singular_values, proven_inverse, solve)))


# (switch, property, seam calls with every shortcut on, with the switch applied)
_BITES = [
    ("graph tags", "obstate.moments", _calls(60, 0, 60, 0), _calls(60, 60, 60, 0)),
    ("memoized-sine guards", "obstate.positivity",
     _calls(40, 10, 40, 0), _calls(40, 40, 40, 0)),
    # the moved quadruple's three margins are bounds from the sources' sines
    ("moved-pair gates", "crossratio.naturality",
     _calls(80, 40, 40, 20), _calls(80, 70, 40, 20)),
    # the moved pair (A0, Winf) is bounded from the sines of (0, infinity)
    ("moved-pair gates", "obstate.invariance", _calls(60, 30, 40, 10), _calls(60, 40, 40, 10)),
    # the random points and torsor_product's result points prove their rank from R
    ("rank bound on R", "grassmann.torsor_group",
     _calls(190, 130, 120, 0), _calls(190, 320, 120, 0)),
    ("rank bound on R", "crossratio.naturality", _calls(80, 40, 40, 20), _calls(80, 80, 40, 20)),
    ("(0, inf) kernel", "obstate.conservation", _calls(30, 0, 30, 0), _calls(30, 40, 40, 20)),
    ("chart_in_frame's base-point frames", "hermitian.line_chart",
     _calls(120, 130, 40, 20), _calls(120, 150, 40, 40)),
    ("kernel margin-product bound", "crossratio.n1_reduction",
     _calls(40, 30, 20, 10), _calls(40, 50, 20, 10)),
    ("kernel margin-product bound", "crossratio.naturality",
     _calls(80, 40, 40, 20), _calls(80, 80, 40, 20)),
]


def test_every_switch_has_a_bite_case():
    assert sorted({switch for switch, *_ in _BITES}) == sorted(_SWITCHES)


@pytest.mark.parametrize("switch, pid, on, off", _BITES,
                         ids=[f"{switch}-{pid}" for switch, pid, *_ in _BITES])
def test_each_switch_bites(monkeypatch, new_base_points, switch, pid, on, off):
    assert _warm_seam_calls(pid) == on
    new_base_points()
    _SWITCHES[switch](monkeypatch)
    assert _warm_seam_calls(pid) == off


# --- switched off, no output moves -----------------------------------------------------

def _outcome(fn):
    """(fn()'s value, or its AplineError's type and message; the warnings it gave)."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        try:
            value = fn()
        except AplineError as exc:
            value = (type(exc), str(exc))
    return value, [(r.category, str(r.message)) for r in record]


def _sweep(seed):
    return _outcome(lambda: json.dumps(properties.run_sweep(seed=seed, trials=10),
                                       sort_keys=True))


def _report_pool():
    """Reports of standard, pure and transported obstates at n = 1..4, drawn with numpy."""
    rng = np.random.default_rng(20261020)
    outcomes = []
    for n in (1, 2, 3, 4):
        for pure in (False, True, False, True):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = (m + m.conj().T) / 2
            shape = (n, 1 if pure else n)
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            w = v @ v.conj().T
            o = obstate.standard_obstate(a, w / w.trace().real)
            for move in (None, hermitian.u_group_random, hermitian.aut_omega_random):
                moved = o if move is None else obstate.transport(o, move(n, rng))
                # floats as exact reprs
                outcomes.append(_outcome(lambda: json.dumps(obstate.report(moved),
                                                            sort_keys=True)))
    return outcomes


_FUZZ_TESTS = [test for name, test in vars(fuzz).items() if name.startswith("test_")]


@functools.cache
def _fuzz_cases():
    """Each library fuzz test's body with the inputs hypothesis gives it, drawn once.

    The test runs with a recording body wrapped over its own: hypothesis
    derandomizes from the body's source and signature, which the wrapper
    carries, so it draws the inputs the fuzz test runs on.
    """
    cases = []
    for test in _FUZZ_TESTS:
        handle = getattr(test, "hypothesis", None)
        if handle is None:  # a fixed-input test
            cases.append((test, [{}]))
            continue
        body, inputs = handle.inner_test, []

        @functools.wraps(body)
        def record(**kwargs):
            inputs.append(kwargs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(handle, "inner_test", record)
            test()
        cases.append((body, inputs))
    return cases


def _library_fuzz():
    """Every outcome the library fuzz's tests compare, on their inputs.

    Each body runs as it is, with its own assertions; its _outcome is
    wrapped to record what it returns.
    """
    recorded = []
    outcome = fuzz._outcome

    def recording(fn):
        recorded.append(outcome(fn))
        return recorded[-1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fuzz, "_outcome", recording)
        for body, inputs in _fuzz_cases():
            for kwargs in inputs:
                body(**kwargs)
    return recorded


_DIFFERENTIALS = {
    "sweep at seed 0": lambda: _sweep(0),
    "sweep at seed 1000003": lambda: _sweep(1000003),
    "report pool": _report_pool,
    "library fuzz": _library_fuzz,
}


@pytest.fixture
def shortcuts_on(name, new_base_points):
    """The differential's outputs with every shortcut on; then new base points for the rest."""
    outputs = _DIFFERENTIALS[name]()
    new_base_points()
    return outputs


# shortcuts_on runs before shortcuts_off: same-scope fixtures are set up in the order requested
@pytest.mark.parametrize("name", list(_DIFFERENTIALS))
def test_switching_every_shortcut_off_moves_no_output_byte(name, shortcuts_on, shortcuts_off):
    assert _DIFFERENTIALS[name]() == shortcuts_on
