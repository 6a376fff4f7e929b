import json

import pytest
from click.testing import CliRunner

from apline.cli import main

runner = CliRunner()


def test_crossratio_worked_example():
    res = runner.invoke(main, ["crossratio", "0", "1", "2", "3"])
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(4.0 / 3.0)


def test_crossratio_handles_inf():
    res = runner.invoke(main, ["crossratio", "2", "3", "1", "inf"])
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(0.5)
    res = runner.invoke(main, ["crossratio", "1", "2", "3", "1"])
    assert res.exit_code == 0
    assert res.output.strip() == "inf"


def test_crossratio_indeterminate_is_a_clean_error():
    res = runner.invoke(main, ["crossratio", "1", "1", "1", "2"])
    assert res.exit_code != 0
    assert "0/0" in res.output


@pytest.mark.parametrize("token", ["nan", "1e400", "-1e400", "nan+1j", "-inf"])
def test_crossratio_rejects_non_finite_scalars(token):
    res = runner.invoke(main, ["crossratio", "--", token, "1", "2", "3"])
    assert res.exit_code == 2
    assert "not a finite number" in res.output
    assert "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)


def test_crossratio_negative_values_after_double_dash():
    res = runner.invoke(main, ["crossratio", "--", "-1", "2", "3", "4"])
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(1.6)


def test_expect_bundled_example(tmp_path):
    payload = {
        "A": {"chart": [[1.0, 0.0], [0.0, -1.0]]},
        "W": {"density": [[0.75, 0.0], [0.0, 0.25]]},
        "A0": "zero",
        "Winf": "infinity",
        "strong": True,
    }
    path = tmp_path / "obstate.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, ["expect", str(path)])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["expectation"] == pytest.approx(0.5)
    assert rep["variance"] == pytest.approx(0.75)
    res_text = runner.invoke(main, ["expect", "--text", str(path)])
    assert res_text.exit_code == 0
    assert "expectation" in res_text.output


def test_expect_reports_domain_errors(tmp_path):
    payload = {
        "A": {"chart": [[0.0, 1.0], [0.0, 0.0]]},  # not Hermitian: not in R
        "W": {"density": [[1.0, 0.0], [0.0, 0.0]]},
        "A0": "zero",
        "Winf": "infinity",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, ["expect", str(path)])
    assert res.exit_code != 0
    assert "not a point of R" in res.output


def test_check_is_deterministic_and_green():
    args = ["check", "--n", "2", "--trials", "4", "--seed", "7"]
    r1 = runner.invoke(main, args)
    r2 = runner.invoke(main, args)
    assert r1.exit_code == 0
    assert r1.output == r2.output
    rep = json.loads(r1.output)
    assert rep["schema"] == 1
    assert rep["ok"] is True
    assert rep["seed"] == 7
    assert all(r["pass_count"] + r["fail_count"] == 4
               for r in rep["properties"].values())


def test_check_seed_changes_subseeds_not_schema():
    r1 = runner.invoke(main, ["check", "--n", "1", "--trials", "2",
                              "--seed", "1", "--property",
                              "crossratio.chains"])
    r2 = runner.invoke(main, ["check", "--n", "1", "--trials", "2",
                              "--seed", "2", "--property",
                              "crossratio.chains"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert json.loads(r1.output)["properties"].keys() == \
        json.loads(r2.output)["properties"].keys()


def test_check_env_var_seed(monkeypatch):
    r_env = runner.invoke(main, ["check", "--n", "1", "--trials", "2",
                                 "--property", "algebra.trace"],
                          env={"MATRYOSHKA_SEED": "99"})
    assert r_env.exit_code == 0
    assert json.loads(r_env.output)["seed"] == 99


def test_check_property_filter_and_unknown_id():
    res = runner.invoke(main, ["check", "--n", "2", "--trials", "3",
                               "--property", "obstate.conservation"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert list(rep["properties"]) == ["obstate.conservation"]
    bad = runner.invoke(main, ["check", "--property", "nope.nothing"])
    assert bad.exit_code != 0
    assert "known ids" in bad.output


def test_check_text_mode():
    res = runner.invoke(main, ["check", "--n", "1", "--trials", "2",
                               "--property", "algebra.involution", "--text"])
    assert res.exit_code == 0
    assert "[PASS] algebra.involution" in res.output
    assert "all properties passed" in res.output


def test_check_exact_backend_is_a_clean_error():
    # the declared-but-unimplemented backend option is gone
    res = runner.invoke(main, ["check", "--backend", "exact"])
    assert res.exit_code == 2
    assert "No such option" in res.output


def test_check_tol_override_can_fail():
    # an absurd tolerance turns numerically-fine trials into failures
    res = runner.invoke(main, ["check", "--n", "2", "--trials", "3",
                               "--property", "grassmann.projector_laws",
                               "--tol", "1e-30"])
    assert res.exit_code == 1
    rep = json.loads(res.output)
    assert rep["ok"] is False
    fail = rep["properties"]["grassmann.projector_laws"]
    assert fail["fail_count"] > 0
    assert "example_failure" in fail
    assert "sub_seed" in fail["example_failure"]


def test_classical_pairing_and_obstate(tmp_path):
    pairing = {
        "mu": {"m": 3, "weights": [1, 1, 1]},
        "f": {"m": 3, "values": [1, 1, 1]},
        "g": {"m": 3, "values": [1, 1, 1]},
    }
    p = tmp_path / "pairing.json"
    p.write_text(json.dumps(pairing))
    res = runner.invoke(main, ["classical", "pairing", str(p)])
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(3.0)

    ob = {
        "f": {"m": 2, "values": [4, 4]},
        "f1": {"m": 2, "values": [5, 5]},
        "f0": {"m": 2, "values": [2, 2]},
        "finf": {"m": 2, "values": ["inf", "inf"]},
        "mu": {"m": 2, "weights": [0.5, 0.5]},
        "h": {"m": 2, "values": [1, 1]},
    }
    q = tmp_path / "obstate.json"
    q.write_text(json.dumps(ob))
    res = runner.invoke(main, ["classical", "obstate", str(q)])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["coordinates"] == [
        pytest.approx(2.0 / 3.0), pytest.approx(2.0 / 3.0)]
    assert rep["expectation"] == pytest.approx(2.0 / 3.0)


def test_classical_csv_input(tmp_path):
    csv_text = "mu,1,1\nf,2,3\ng,1,1\n"
    p = tmp_path / "problem.csv"
    p.write_text(csv_text)
    res = runner.invoke(main, ["classical", "pairing", str(p)])
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(5.0)


def test_classical_missing_entry_is_an_error(tmp_path):
    p = tmp_path / "short.json"
    p.write_text(json.dumps({"mu": {"m": 1, "weights": [1]}}))
    res = runner.invoke(main, ["classical", "pairing", str(p)])
    assert res.exit_code != 0
    assert "missing entries" in res.output


def test_declared_m_mismatch_is_an_error(tmp_path):
    p = tmp_path / "mismatch.json"
    p.write_text(json.dumps({
        "mu": {"m": 2, "weights": [1]},
        "f": {"m": 1, "values": [1]},
        "g": {"m": 1, "values": [1]},
    }))
    res = runner.invoke(main, ["classical", "pairing", str(p)])
    assert res.exit_code != 0
    assert "declared m=2" in res.output


_GOOD_SLOTS = {"W": {"density": [[1.0]]}, "A0": "zero", "Winf": "infinity"}


@pytest.mark.parametrize("payload", [
    [1, 2],
    None,
    "zero",
    dict(_GOOD_SLOTS, A={"chart": "x"}),
    dict(_GOOD_SLOTS, A={"chart": 5}),
    dict(_GOOD_SLOTS, A={"chart": None}),
    dict(_GOOD_SLOTS, A={"chart": {"n": None, "re": [[1.0]]}}),
    dict(_GOOD_SLOTS, A={"basis_re": 5}),
])
def test_expect_malformed_payload_is_a_clean_error(tmp_path, payload):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, ["expect", str(path)])
    assert res.exit_code == 1
    assert res.output.startswith("Error: ")
    assert "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)


def test_classical_obstate_ragged_csv_is_a_clean_error(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("f,1,2,3\nf1,5,5\nf0,0,0,0\nfinf,inf,inf,inf\n")
    res = runner.invoke(main, ["classical", "obstate", str(p)])
    assert res.exit_code == 1
    assert "different site sets" in res.output
    assert "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("entry", [{"values": [None]}, {"m": None, "values": [1]},
                                   {"m": "x", "values": [1]}, [[1]], {"values": 5}])
def test_classical_malformed_json_entry_is_a_clean_error(tmp_path, entry):
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps({"mu": [1], "f": entry, "g": [1]}))
    res = runner.invoke(main, ["classical", "pairing", str(p)])
    assert res.exit_code == 1
    assert "malformed entry" in res.output
    assert "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)


def test_expect_names_every_missing_slot(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"A": {"chart": [[1]]}}))
    res = runner.invoke(main, ["expect", str(path)])
    assert res.exit_code == 1
    assert "missing the slot(s) W, A0, Winf" in res.output
    assert "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)
