import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from apline import DEFAULT_TRIALS, algebra, classical, grassmann, hermitian, obstate, properties
from apline.crossratio import INF
from apline.errors import DimensionError, IndeterminateError, NonFiniteError


def test_registry_covers_every_module():
    prefixes = {pid.split(".")[0] for pid in properties.property_ids()}
    assert prefixes == {"algebra", "grassmann", "crossratio", "hermitian",
                        "obstate", "classical"}
    # ids are unique and dot-qualified
    ids = properties.property_ids()
    assert len(ids) == len(set(ids))
    assert all("." in pid for pid in ids)


def test_sub_seed_is_stable_and_distinct():
    s = properties.sub_seed(7, "algebra.trace", 3)
    assert s == properties.sub_seed(7, "algebra.trace", 3)
    assert s != properties.sub_seed(8, "algebra.trace", 3)
    assert s != properties.sub_seed(7, "algebra.trace", 4)
    assert s != properties.sub_seed(7, "algebra.involution", 3)


def test_run_sweep_report_schema():
    rep = properties.run_sweep(n_list=[2], trials=3, seed=5,
                               properties=["algebra.involution",
                                           "crossratio.chains"])
    assert rep["schema"] == 1
    assert rep["seed"] == 5
    assert set(rep["properties"]) == {"algebra.involution",
                                      "crossratio.chains"}
    assert rep["ok"] is True
    json.dumps(rep)  # must be serializable as-is


def test_run_sweep_rejects_unknown_backend_and_property():
    with pytest.raises(KeyError):
        properties.run_sweep(n_list=[2], trials=1, seed=0,
                             properties=["no.such.property"])


def test_failure_reports_carry_a_reproducer_sub_seed():
    # some trials can hit a residual of exactly 0.0, so only require that at
    # least one trips the absurd tolerance
    rep = properties.run_property(
        properties.SPECS["algebra.trace"], n_list=[2], trials=4, seed=11,
        tol=1e-300)
    assert rep["fail_count"] >= 1
    assert rep["ok"] is False
    ex = rep["example_failure"]
    assert ex["sub_seed"] == properties.sub_seed(11, "algebra.trace",
                                                 ex["trial"])


def test_trial_exceptions_become_failures_not_crashes():
    spec = properties.PropertySpec(
        pid="algebra.trace", summary="boom", tolerance=1e-9,
        trial=lambda rng, n: 1 / 0)
    rep = properties.run_property(spec, n_list=[2], trials=2, seed=0)
    assert rep["fail_count"] == 2
    assert rep["worst_residual"] == "inf"
    assert "division" in rep["example_failure"]["error"]


def test_a_sampler_that_never_accepts_is_a_reported_failure(monkeypatch):
    # every projective map then looks ill-conditioned, so _conditioned_map runs out
    random_map = grassmann.random_map

    def ill_conditioned(n, rng):
        g = random_map(n, rng)
        g._cond = np.inf
        return g
    monkeypatch.setattr(grassmann, "random_map", ill_conditioned)
    rep = properties.run_property(properties.SPECS["crossratio.naturality"],
                                  n_list=[2], trials=1, seed=0)
    assert rep["fail_count"] == 1
    assert rep["example_failure"]["error"].startswith("ResamplingExhausted: ")


def _harness_spec(trial):
    return properties.PropertySpec(pid="harness.probe", summary="probe", tolerance=1.0,
                                   trial=trial)


def test_every_trial_draws_from_its_own_sub_seeded_generator_across_blocks():
    # three blocks of generators, the last one short; the draws are those of one
    # default_rng(sub_seed(seed, pid, i)) per trial, in trial order
    trials = 2 * DEFAULT_TRIALS + 3
    drawn = []
    spec = _harness_spec(lambda rng, n: drawn.append(rng.random()) or drawn[-1])
    rep = properties.run_property(spec, [1, 2], trials, 9)
    assert rep["pass_count"] == trials
    assert drawn == [np.random.default_rng(properties.sub_seed(9, "harness.probe", i)).random()
                     for i in range(trials)]


def test_no_generator_is_built_more_than_one_block_ahead_of_its_trial(monkeypatch):
    # so apline check --trials 1000000 holds one block of generators, not a million
    trials = 2 * DEFAULT_TRIALS + 3
    events = []
    sub_seed = properties.sub_seed
    monkeypatch.setattr(properties, "sub_seed",
                        lambda seed, pid, i: events.append(("built", i)) or sub_seed(seed, pid, i))
    properties.run_property(_harness_spec(lambda rng, n: events.append(("ran", None)) or 0.0),
                            [1], trials, 0)
    built, ran = [], 0
    for event, i in events:
        if event == "built":
            assert i < ran + DEFAULT_TRIALS, f"generator {i} built after only {ran} trials ran"
            built.append(i)
        else:
            assert ran in built  # each trial's generator exists before the trial runs
            ran += 1
    assert (built, ran) == (list(range(trials)), trials)


class _Escape(BaseException):
    pass


def test_a_transversality_warning_in_a_trial_is_silent_and_the_filters_are_restored():
    def warns(rng, n):
        warnings.warn("margin near the threshold", grassmann.TransversalityWarning)
        return 0.0

    def escapes(rng, n):
        raise _Escape

    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        before = list(warnings.filters)
        assert properties.run_property(_harness_spec(warns), [1], 3, 0)["pass_count"] == 3
        assert shown == [] and warnings.filters == before
        rep = properties.run_property(_harness_spec(lambda rng, n: 1 / 0), [1], 2, 0)
        assert rep["fail_count"] == 2 and warnings.filters == before
        with pytest.raises(_Escape):  # not an Exception, so the harness lets it out
            properties.run_property(_harness_spec(escapes), [1], 2, 0)
        assert warnings.filters == before
        # the filter covers TransversalityWarning alone
        other = _harness_spec(lambda rng, n: warnings.warn("other", UserWarning) or 0.0)
        properties.run_property(other, [1], 1, 0)
        assert [type(w.message) for w in shown] == [UserWarning]


@pytest.mark.parametrize("n_list, trials, message", [
    ((), 3, "the sweep needs at least one size n"),
    ((1,), 0, "trials must be a whole number n >= 1"),
    ((0,), 1, "a size must be a whole number n >= 1"),
    ((2.5,), 1, "a size must be a whole number n >= 1"),
], ids=["no-size", "no-trial", "size-0", "size-2.5"])
def test_run_property_checks_its_sizes_as_run_sweep_does(n_list, trials, message):
    runs = (lambda: properties.run_property(properties.SPECS["algebra.trace"], n_list, trials, 0),
            lambda: properties.run_sweep(n_list, trials, 0, properties=["algebra.trace"]))
    for run in runs:
        with pytest.raises(DimensionError, match=message):
            run()


@pytest.mark.parametrize("arguments, error, message", [
    # NaN failed trials of residual 0.0 and infinity passed every trial, and neither is JSON
    ({"tol": np.nan}, NonFiniteError, "^the tolerance override must be finite"),
    ({"tol": np.inf}, NonFiniteError, "^the tolerance override must be finite"),
    ({"tol": -np.inf}, NonFiniteError, "^the tolerance override must be finite"),
    # a report of seed 1.5 read "seed": 1 while every sub-seed was drawn from "1.5:..."
    ({"seed": 1.5}, DimensionError, "^the seed must be a whole number"),
    ({"seed": "x"}, DimensionError, "^the seed must be a whole number"),
    ({"seed": None}, DimensionError, "^the seed must be a whole number"),
    # float() raised a bare ValueError and TypeError on these
    ({"tol": "x"}, DimensionError, "^the tolerance override must be a number, got 'x'$"),
    ({"tol": [1e-3]}, DimensionError, r"^the tolerance override must be a number, got \[0\.001\]$"),
], ids=["tol-nan", "tol-inf", "tol-minus-inf", "seed-float", "seed-text", "seed-none",
        "tol-text", "tol-list"])
def test_a_bad_seed_or_tolerance_raises_before_any_trial_runs(monkeypatch, arguments, error,
                                                                message):
    drawn = []
    monkeypatch.setattr(properties, "sub_seed", lambda *args: drawn.append(args) or 0)
    args = {"n_list": [2], "trials": 2, "seed": 0, **arguments}
    for run in (lambda: properties.run_property(properties.SPECS["algebra.trace"], **args),
                lambda: properties.run_sweep(properties=["algebra.trace"], **args)):
        with pytest.raises(error, match=message):
            run()
    assert drawn == []


def test_a_negative_tolerance_override_is_kept_and_fails_every_trial():
    rep = properties.run_property(properties.SPECS["algebra.trace"], [2], 2, 0, tol=-1.0)
    assert (rep["tolerance"], rep["fail_count"], rep["ok"]) == (-1.0, 2, False)


def test_a_numpy_integer_seed_reports_and_reproduces_as_its_int():
    args = dict(n_list=[2], trials=2, properties=["algebra.trace", "crossratio.chains"])
    rep = properties.run_sweep(seed=np.int64(7), **args)
    assert rep == properties.run_sweep(seed=7, **args)
    assert type(rep["seed"]) is int


def test_only_draw_raises_resampling_exhausted():
    # every sampler draws until accepted through _draw, the harness's one rejection site
    tree = ast.parse(Path(properties.__file__).read_text(encoding="utf-8"))
    raisers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Raise) and node.exc is not None
               and "ResamplingExhausted" in ast.dump(node.exc)}
    assert raisers == {"_draw"}


def test_draw_takes_count_values_in_draw_order_or_runs_out():
    values = iter(range(10))
    odd = properties._draw(lambda: next(values), lambda v, taken: v % 2 == 1, 6, "odd", 2)
    assert odd == [1, 3] and next(values) == 4
    # accept sees the values taken before; the tries count every draw
    values = iter(range(10))
    with pytest.raises(properties.ResamplingExhausted, match="^rising$"):
        properties._draw(lambda: next(values) % 3, lambda v, taken: v > max(taken, default=-1),
                         5, "rising", 4)


def test_a_point_of_the_line_on_the_chart_horizon_is_measured_projectively():
    h = algebra.random_hermitian(2, np.random.default_rng(40))
    u = np.array([[1.0], [1j]])
    x, y = grassmann.point_from_chart(h + u @ u.conj().T), grassmann.point_from_chart(h)
    infinity = grassmann.infinity_point(2)
    fam = hermitian.line_family(x, y, chart_point=infinity)
    at_infinity = fam.point(INF)
    assert not grassmann.is_transversal(at_infinity, infinity)
    assert properties._line_set_residual(at_infinity, fam, infinity) == 0.0


def test_an_infinite_pure_expectation_against_a_finite_expectation_fails_pure_line(
        monkeypatch):
    monkeypatch.setattr(obstate, "pure_expectation", lambda o: INF)
    assert properties._t_pure_line(np.random.default_rng(41), 2) == 1.0


def test_a_pairing_that_gives_0_times_inf_a_value_fails_the_pairing_axioms(monkeypatch):
    pairing = classical.pairing

    def lenient(mu, f, g):
        try:
            return pairing(mu, f, g)
        except IndeterminateError:
            return 0.0
    monkeypatch.setattr(classical, "pairing", lenient)
    assert properties._t_pairing_axioms(np.random.default_rng(42), 1) == 1.0
