import json

import pytest

from apline import properties


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
