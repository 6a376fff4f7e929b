import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("chart", [
    '{"n": Infinity, "re": [[1]]}',
    '{"n": 1e400, "re": [[1]]}',
    "[[" + "1" + "0" * 400 + "]]",
    '{"n": 10000000000, "re": [[1]]}',
], ids=["infinite-n", "overflowing-n", "integer-beyond-float", "huge-n"])
def test_expect_out_of_range_numbers_are_a_clean_error(tmp_path, chart):
    # json.load reads Infinity, 1e400 and 400-digit integers; int() and float() overflow on them
    path = tmp_path / "overflow.json"
    path.write_text('{"A": {"chart": %s}, "W": {"density": [[1.0]]}, '
                    '"A0": "zero", "Winf": "infinity"}' % chart)
    res = runner.invoke(main, ["expect", str(path)])
    assert res.exit_code == 1
    assert "matrix JSON" in res.output
    assert "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)


def test_expect_deeply_nested_json_is_a_clean_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    res = runner.invoke(main, ["expect", str(path)])
    assert res.exit_code == 1
    assert "recursion" in res.output
    assert "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)


def test_expect_and_import_start_without_scipy():
    # a fresh interpreter: this one may already hold scipy from other tests
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from click.testing import CliRunner
        import apline, apline.cli
        from apline import hermitian
        res = CliRunner().invoke(apline.cli.main, ["expect", "sample_inputs/expect_diag.json"])
        assert res.exit_code == 0, res.output
        assert "scipy" not in sys.modules
        omega = hermitian.omega_matrix(2)
        for g in (hermitian.u_group_random(2, 0), hermitian.aut_omega_random(2, 0)):
            assert np.allclose(g.rep.conj().T @ omega @ g.rep, omega)
        assert "scipy.linalg" in sys.modules
    """)
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


# --- fuzz of the expect payload decoder -------------------------------------------

_KEYS = st.sampled_from(["A", "W", "A0", "Winf", "strong", "chart", "density",
                         "basis_re", "basis_im", "n", "re", "im"])
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-10**400, 10**400),
                    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
                    st.sampled_from(["zero", "infinity", "one", "inf"]))
_TREES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.dictionaries(_KEYS | st.text(max_size=3), kids, max_size=4)),
    max_leaves=12)
_FINITE = st.one_of(st.floats(-4, 4), st.integers(-2, 2))


@st.composite
def _grid(draw, rows, cols, symmetric=False):
    m = draw(st.lists(st.lists(_FINITE, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if symmetric:
        m = [[m[min(i, j)][max(i, j)] for j in range(cols)] for i in range(rows)]
    if draw(st.integers(0, 3)) == 3:
        # one grid in four gets an entry of any JSON type: null, text, NaN, inf, huge ints
        m[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(_LEAVES)
    return m


@st.composite
def _matrices(draw, n, kind=None):
    kind = kind or draw(st.sampled_from(["symmetric", "rank one", "any"]))
    if kind == "rank one":
        # a pure density psi psi^T: the report runs pure_expectation
        psi = draw(st.lists(_FINITE, min_size=n, max_size=n))
        m = [[a * b for b in psi] for a in psi]
    else:
        m = draw(_grid(n, n, symmetric=kind == "symmetric"))
    if draw(st.booleans()):
        return m
    return {"n": draw(st.sampled_from([n, n, n + 1, 0, -1])), "re": m,
            **({"im": draw(_grid(n, n))} if draw(st.booleans()) else {})}


@st.composite
def _bases(draw, n):
    cols = draw(_grid(2 * n, n))
    if n > 1 and draw(st.booleans()):
        # rank deficient: the last column repeats the first
        cols = [row[:-1] + row[:1] for row in cols]
    obj = {"basis_re": cols}
    if draw(st.booleans()):
        obj["basis_im"] = draw(_grid(2 * n, n))
    if draw(st.booleans()):
        obj["n"] = draw(st.sampled_from([n, n + 1, 0]))
    return obj


def _points(n):
    return st.one_of(
        st.sampled_from(["zero", "infinity", "one", "two"]),
        _matrices(n).map(lambda m: {"chart": m}),
        _matrices(n).map(lambda m: {"density": m}),
        _bases(n),
        _TREES)


@st.composite
def _payloads(draw):
    """A standard obstate, then up to two slots replaced by any point of any n or any tree."""
    n = draw(st.integers(1, 3))
    payload = {"A": {"chart": draw(_matrices(n, "symmetric"))},
               "W": {"density": draw(_matrices(n, draw(st.sampled_from(["symmetric",
                                                                         "rank one"]))))},
               "A0": "zero", "Winf": "infinity"}
    for _ in range(draw(st.integers(0, 2))):
        payload[draw(st.sampled_from(sorted(payload)))] = draw(_points(draw(st.integers(1, 3))))
    if draw(st.booleans()):
        payload["strong"] = draw(_TREES)
    if draw(st.integers(0, 5)) == 5:
        del payload[draw(st.sampled_from(sorted(payload)))]
    return payload


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=st.one_of(_payloads(), _TREES))
def test_expect_fuzz_ends_in_an_exit_code_never_a_traceback(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, ["expect", str(path)], catch_exceptions=False)
    assert res.exit_code in (0, 1, 2)
    assert "Traceback" not in res.output
