import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apline import obstate
from apline.cli import main
from apline.errors import AplineError

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


def test_no_option_reads_an_environment_variable():
    # output is deterministic given the flags, so no environment variable stands in for one
    for command in main.commands.values():
        assert [p.name for p in command.params if p.envvar is not None] == [], command.name
    assert main.context_settings.get("auto_envvar_prefix") is None


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


def test_check_rejects_a_size_below_one():
    res = runner.invoke(main, ["check", "--n", "0"])
    # click's usage error, as for --trials 0
    assert res.exit_code == 2
    assert "Invalid value for '--n': 0 is not in the range x>=1." in res.output


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


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "1e999"])
def test_check_rejects_a_non_finite_tol_before_any_trial(tol):
    res = runner.invoke(main, ["check", "--n", "1", "--trials", "1",
                               "--property", "algebra.trace", "--tol", tol])
    assert res.exit_code == 1
    assert "Error: the tolerance override must be finite" in res.output
    # no report: its "tolerance" would be NaN or Infinity, which is not JSON
    assert "NaN" not in res.stdout and "Infinity" not in res.stdout


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


@pytest.mark.parametrize("entry, message", [
    ("true", "not a real number: true"),
    ("null", "not a real number: null"),
    ("[1, 2]", "not a real number: [1, 2]"),
    ("1" + "0" * 400, "entries must be real numbers in the float range, got 1000"),
    ('"x"', "not a number or 'inf': 'x'"),
], ids=["true", "null", "list", "integer-beyond-float", "text"])
def test_a_classical_json_entry_is_read_by_the_classical_reader(tmp_path, entry, message):
    # non-string entries go through algebra._as_real, strings through the token parser;
    # either way the command ends in a click error, never a traceback
    path = tmp_path / "entry.json"
    path.write_text('{"mu": [1, 1], "f": [2, %s], "g": [1, 1]}' % entry)
    res = runner.invoke(main, ["classical", "pairing", str(path)], catch_exceptions=False)
    assert res.exit_code == 1
    assert f"Error: {path}: malformed entry: {message}" in res.output


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


@pytest.mark.parametrize("chart", [
    {"n": 1, "re": [["1"]]},
    {"n": 1, "re": [[1.0]], "im": [["infinity"]]},
    {"n": 1, "re": [[True]]},
    [["1"]],
], ids=["string-number", "string-infinity", "bool", "string-in-plain-list"])
def test_expect_non_numeric_entries_are_a_clean_error(tmp_path, chart):
    # numpy reads "1" and true as 1.0 and "infinity" as inf
    path = tmp_path / "non_numeric.json"
    path.write_text(json.dumps(dict(_GOOD_SLOTS, A={"chart": chart})))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, ["expect", str(path)])
    assert res.exit_code == 1
    assert "matrix JSON entries must be numbers" in res.output
    assert "Traceback" not in res.output
    assert [str(w.message) for w in caught] == []


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
        import apline
        from apline import hermitian
        # the sweep harness and the classical model load only on use
        assert "apline.properties" not in sys.modules
        assert "apline.classical" not in sys.modules
        # a name deleted from a module but left in __all__ fails here
        assert [name for name in apline.__all__ if not hasattr(apline, name)] == []
        import apline.cli
        assert "apline.classical" not in sys.modules
        res = CliRunner().invoke(apline.cli.main, ["expect", "sample_inputs/expect_diag.json"])
        assert res.exit_code == 0, res.output
        assert "scipy" not in sys.modules
        assert "apline.classical" not in sys.modules
        eye, zero = np.eye(2), np.zeros((2, 2))
        omega = np.block([[zero, eye], [-eye, zero]])
        for g in (hermitian.u_group_random(2, 0), hermitian.aut_omega_random(2, 0)):
            assert np.allclose(g.rep.conj().T @ omega @ g.rep, omega)
        assert "scipy.linalg" in sys.modules
    """)
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_loads_the_sweep_harness_only_for_check():
    # a fresh interpreter: this one may already hold the harness from other tests
    script = textwrap.dedent("""
        import sys
        from click.testing import CliRunner
        import apline.cli
        assert "apline.properties" not in sys.modules
        res = CliRunner().invoke(apline.cli.main, ["check", "--help"])
        assert res.exit_code == 0, res.output
        assert "default: 100" in res.output, res.output
        assert "apline.properties" not in sys.modules
        res = CliRunner().invoke(apline.cli.main, ["check", "--n", "1", "--trials", "1",
                                                   "--property", "algebra.trace"])
        assert res.exit_code == 0, res.output
        from apline import properties
        assert properties.DEFAULT_TRIALS == 100
    """)
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("strong", ["false", 0, 1, None])
def test_expect_takes_only_a_json_boolean_for_strong(tmp_path, strong):
    payload = {"A": {"chart": [[1.0, 0.0], [0.0, -1.0]]},
               "W": {"density": [[0.75, 0.0], [0.0, 0.25]]},
               "A0": "zero", "Winf": "infinity", "strong": strong}
    path = tmp_path / "obstate.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, ["expect", str(path)])
    assert res.exit_code == 1
    assert "strong must be true or false" in res.output
    assert "Traceback" not in res.output
    weak = dict(payload, strong=False)
    path.write_text(json.dumps(weak))
    res = runner.invoke(main, ["expect", str(path)])
    assert res.exit_code == 0 and "variance" not in json.loads(res.output)


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(payload=st.one_of(_payloads(), _TREES))
@example(payload=dict(_GOOD_SLOTS, A={"chart": {"re": [[1.0]]}}))  # no "n": a KeyError once
def test_decoder_fuzz_ends_in_an_obstate_or_an_apline_error(payload):
    # the library decoder alone: no KeyError, TypeError or bare ValueError escapes it
    try:
        o = obstate.obstate_from_json(payload)
    except AplineError:
        return
    assert isinstance(o, obstate.Obstate)


@pytest.mark.parametrize("chart, message", [
    ({"re": [[1.0]]}, "matrix JSON is missing the key 'n'"),
    ({"n": 1}, "matrix JSON is missing the key 're'"),
    ([[1.0, 0.0], [0.0]], "matrix JSON must be equal-length rows of numbers: "),
], ids=["missing-n", "missing-re", "ragged-rows"])
def test_expect_names_a_missing_key_or_ragged_rows(tmp_path, chart, message):
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(dict(_GOOD_SLOTS, A={"chart": chart})))
    res = runner.invoke(main, ["expect", str(path)])
    assert res.exit_code == 1
    assert f"Error: {path}: {message}" in res.output


def test_expect_text_prints_a_complex_expectation(tmp_path):
    # a weak obstate whose expectation has an imaginary part above the 1e-12 snap
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({
        "A": {"chart": {"n": 2, "re": [[-9678.0, 19030.0], [19030.0, -17134.0]],
                        "im": [[0.0, 5518.0], [-5518.0, 0.0]]}},
        "W": {"density": [[0.5, 0.0], [0.0, 0.5]]},
        "A0": {"chart": {"n": 2, "re": [[0.0, 0.0], [0.0, 2.0]],
                         "im": [[0.0, -0.5], [0.5, 0.0]]}},
        "Winf": {"chart": {"n": 2, "re": [[3693.0, 7414.5], [7414.5, 8118.0]],
                           "im": [[0.0, -9751.0], [9751.0, 0.0]]}},
        "strong": False}))
    value = json.loads(runner.invoke(main, ["expect", str(path)]).output)["expectation"]
    res = runner.invoke(main, ["expect", "--text", str(path)], catch_exceptions=False)
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == (
        f"expectation          {value['re']:.12g}{value['im']:+.12g}j")
    assert abs(value["im"]) > 1e-12 * abs(value["re"])


def test_expect_overflowing_non_hermitian_density_is_named(tmp_path):
    # the Frobenius norms of this density overflow to inf; the Hermitian test must still fail
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"A": {"chart": [[1.0, 0.0], [0.0, -1.0]]},
                                "W": {"density": [[1e200, 0.0], [5e199, 1e200]]},
                                "A0": "zero", "Winf": "infinity"}))
    res = runner.invoke(main, ["expect", str(path)], catch_exceptions=False)
    assert res.exit_code == 1
    assert "density matrices must be Hermitian" in res.output


@pytest.mark.parametrize("name, content, code, message", [
    ("deep.json", b"[" * 100_000 + b"]" * 100_000, 1, "recursion"),
    ("infinite-m.json", b'{"mu": [1], "f": {"m": Infinity, "values": [1]}, "g": [1]}', 1,
     "m must be a whole number"),
    ("huge.json", b'{"mu": [1], "f": [1' + b"0" * 400 + b'], "g": [1]}', 1, "too large"),
    ("cut.json", b'{"mu": [1], "f": [1], "g": [1', 1, "delimiter"),
    ("latin1.csv", b"mu,1\nf,\xff\ng,1\n", 1, "utf-8"),
    ("inf-weight.json", b'{"mu": ["inf"], "f": [1], "g": [1]}', 1, "finite and nonnegative"),
    ("complex.json", b'{"mu": [1], "f": ["1j"], "g": [1]}', 1,
     "malformed entry: not a real number"),
    ("complex.csv", b"mu,1\nf,1+2j\ng,1\n", 1, "malformed entry: not a real number"),
    ("bool.json", b'{"mu": [1, 1], "f": [true, false], "g": [1, 1]}', 1,
     "malformed entry: not a real number: true"),
    ("bool-weight.json", b'{"mu": [false], "f": [1], "g": [1]}', 1,
     "malformed entry: not a real number: false"),
], ids=["nested-too-deeply", "infinite-m", "integer-beyond-float", "truncated-json",
        "not-utf8", "infinite-weight", "complex-json-value", "complex-csv-value",
        "boolean-value", "boolean-weight"])
def test_classical_malformed_file_is_a_clean_error(tmp_path, name, content, code, message):
    path = tmp_path / name
    path.write_bytes(content)
    res = runner.invoke(main, ["classical", "pairing", str(path)], catch_exceptions=False)
    assert res.exit_code == code
    assert "Error: " in res.output
    assert message in res.output


# --- fuzz of the classical files and the crossratio tokens -------------------------

_NAMES = st.sampled_from(["mu", "f", "g", "f1", "f0", "finf", "h"])
_SCALARS = st.one_of(_FINITE, _LEAVES, st.sampled_from(["inf", "-2", "0.5", "1j", "1e400"]))
_ENTRIES = st.one_of(st.lists(_SCALARS, max_size=4), _TREES,
                     st.fixed_dictionaries({"values": st.lists(_SCALARS, max_size=4),
                                            "m": _LEAVES | st.integers(0, 4)}))


@st.composite
def _classical_files(draw):
    """A problem both commands accept, up to two entries replaced by anything, as JSON or CSV."""
    m = draw(st.integers(1, 4))
    f1 = draw(st.lists(_FINITE, min_size=m, max_size=m))
    problem = {"mu": draw(st.lists(st.floats(0, 4), min_size=m, max_size=m)),
               "f1": f1, "f0": [v + 1 for v in f1],
               "finf": draw(st.sampled_from([["inf"] * m, [v + 2 for v in f1]]))}
    for name in ("f", "g", "h"):
        problem[name] = draw(st.lists(_FINITE, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        problem[draw(_NAMES | st.text(max_size=3))] = draw(_ENTRIES)
    if draw(st.integers(0, 5)) == 5:
        del problem[draw(st.sampled_from(sorted(problem)))]
    if draw(st.booleans()):
        return "fuzz.json", json.dumps(problem).encode()
    rows = [",".join([name] + ([str(v) for v in entry] if isinstance(entry, list)
                               else [json.dumps(entry)]))
            for name, entry in problem.items()]
    return "fuzz.csv", "\n".join(rows).encode() + draw(st.sampled_from([b"", b"\n", b"\xff"]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(["pairing", "obstate"]), file=_classical_files())
def test_classical_fuzz_ends_in_an_exit_code_never_a_traceback(tmp_path_factory, command,
                                                               file):
    path = tmp_path_factory.getbasetemp() / file[0]
    path.write_bytes(file[1])
    res = runner.invoke(main, ["classical", command, str(path)], catch_exceptions=False)
    assert res.exit_code in (0, 1, 2)
    assert "Traceback" not in res.output


_TOKENS = st.one_of(_FINITE.map(str), st.floats().map(str), st.integers().map(str),
                    st.complex_numbers().map(str),
                    st.sampled_from(["inf", "oo", "Infinity", "nan", "1j", "-0", "1e400"]),
                    st.text(max_size=6))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tokens=st.lists(_TOKENS, min_size=4, max_size=4) | st.lists(_TOKENS, max_size=6))
def test_crossratio_fuzz_ends_in_an_exit_code_never_a_traceback(tokens):
    res = runner.invoke(main, ["crossratio", "--", *tokens], catch_exceptions=False)
    assert res.exit_code in (0, 1, 2)
    assert "Traceback" not in res.output


# --- golden outputs of the bundled sample inputs --------------------------------------

_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args, golden", [
    (["expect", "sample_inputs/expect_diag.json"], "expect_diag.txt"),
    (["classical", "pairing", "sample_inputs/pairing.json"], "pairing.txt"),
    (["classical", "obstate", "sample_inputs/classical_obstate.csv"], "classical_obstate.txt"),
])
def test_sample_inputs_print_their_golden_output_byte_for_byte(args, golden):
    args = [str(_ROOT / a) if a.startswith("sample_inputs/") else a for a in args]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == (_ROOT / "tests" / "golden" / golden).read_bytes()


# --- a pairing that overflows the float range -----------------------------------------

@pytest.mark.parametrize("command, content", [
    ("pairing", {"mu": [1.0], "f": [1e308], "g": [1e308]}),
    ("pairing", {"mu": [1.0, 1.0], "f": [1e308, -1e308], "g": [1e308, 1e308]}),
    # coordinates (f - f0) / (f1 - f0) of 1e308 and -1e308, paired with h
    ("obstate", {"f": [1e308], "f1": [1.0], "f0": [0.0], "finf": ["inf"],
                 "mu": [1.0], "h": [1e308]}),
    ("obstate", {"f": [1e308, -1e308], "f1": [1.0, 1.0], "f0": [0.0, 0.0],
                 "finf": ["inf", "inf"], "mu": [1.0, 1.0], "h": [1e308, 1e308]}),
])
def test_classical_overflowing_pairing_is_a_clean_error(tmp_path, command, content):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(content))
    res = runner.invoke(main, ["classical", command, str(path)])
    assert res.exit_code == 1
    assert "overflows the float range" in res.output
    assert "Traceback" not in res.output


def test_classical_file_that_is_no_json_object_is_a_clean_error(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    res = runner.invoke(main, ["classical", "pairing", str(path)], catch_exceptions=False)
    assert res.exit_code == 1
    assert "expected a JSON object" in res.output


def test_check_text_names_the_first_failure_of_a_failing_property():
    # no residual of the trial is below an absurd tolerance
    res = runner.invoke(main, ["check", "--text", "--tol", "1e-30", "--n", "2", "--trials", "1",
                               "--property", "grassmann.chart_roundtrip"],
                        catch_exceptions=False)
    assert res.exit_code == 1
    lines = res.output.splitlines()
    assert lines[1].startswith("  [FAIL] grassmann.chart_roundtrip")
    assert lines[2].startswith("         first failure: trial=0 n=2 sub_seed=")
    assert lines[-1] == "FAILURES PRESENT (0/1)"
