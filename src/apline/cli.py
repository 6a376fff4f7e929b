"""Command-line front end: obstate evaluation, cross-ratios, the sweep harness.

All output is deterministic given the flags: reports carry no timestamps,
hostnames, or library versions, so identical invocations are byte-identical
(the acceptance suite checks this).
"""

from __future__ import annotations

import cmath
import csv
import json

import click

from . import DEFAULT_TRIALS, algebra, obstate
from .crossratio import INF, classical_cr, is_inf
from .errors import AplineError, NotARealError


def _parse_scalar(token: str):
    t = token.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return INF
    try:
        value = float(token)
    except ValueError:
        try:
            value = complex(token)
        except ValueError:
            raise click.BadParameter(f"not a number or 'inf': {token!r}")
    # float('nan') and float('1e400') parse; only the 'inf' names mean infinity
    if not cmath.isfinite(value):
        raise click.BadParameter(f"not a finite number: {token!r}")
    return value


def _parse_real(token: str):
    value = _parse_scalar(token)
    if isinstance(value, complex):
        raise click.BadParameter(f"not a real number or 'inf': {token!r}")
    return value


def _format_scalar(v) -> str:
    """Text for a scalar in obstate._scalar_to_json's form: float, "infinity" or {"re", "im"}."""
    if v == "infinity":
        return "inf"
    if isinstance(v, dict):
        return f"{v['re']:.12g}{v['im']:+.12g}j"
    return f"{v:.12g}"


def _emit_json(payload: dict) -> None:
    click.echo(json.dumps(payload, sort_keys=True, indent=2))


@click.group()
def main() -> None:
    """Operator-valued cross-ratio geometry on the matrix projective line."""


# --- expect -------------------------------------------------------------------------

@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--json/--text", "as_json", default=True,
              help="Machine-readable JSON (default) or a short text summary.")
def expect(path: str, as_json: bool) -> None:
    """Evaluate the obstate described by the JSON file at PATH.

    The file holds the four points: {"A": ..., "W": ..., "A0": ...,
    "Winf": ..., "strong": bool}.  Points are given as {"chart": matrix},
    {"density": matrix}, {"basis_re": ..., "basis_im": ...}, or the
    strings "zero" / "infinity" / "one"; matrices as {"n": int, "re": [[...]],
    "im": [[...]]} or plain nested lists.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        o = obstate.obstate_from_json(payload)
        rep = obstate.report(o)
    # json.load: ValueError on text that is not JSON, RecursionError on nesting too deep
    except (AplineError, ValueError, RecursionError) as exc:
        raise click.ClickException(f"{path}: {exc}")
    if as_json:
        _emit_json(rep)
        return
    click.echo(f"expectation          {_format_scalar(rep['expectation'])}")
    for key in ("variance", "pure_expectation"):
        if key in rep:
            click.echo(f"{key:<20} {_format_scalar(rep[key])}")
    if "distribution" in rep:
        pairs = ", ".join(f"{v:.6g}: {w:.6g}" for v, w in rep["distribution"])
        click.echo(f"distribution         {pairs}")
    for key in ("pure", "positive", "cyclically_ordered"):
        click.echo(f"{key:<20} {rep[key]}")


# --- crossratio ---------------------------------------------------------------------

@main.command()
@click.argument("values", nargs=4)
def crossratio(values) -> None:
    """Classical cross-ratio (A, B; C, D) of four scalars ('inf' allowed)."""
    a, b, c, d = (_parse_scalar(v) for v in values)
    try:
        click.echo(_format_scalar(obstate._scalar_to_json(classical_cr(a, b, c, d))))
    except AplineError as exc:
        raise click.ClickException(str(exc))


# --- check --------------------------------------------------------------------------

def _text_report(report: dict) -> str:
    lines = [
        "property sweep: seed={seed} trials={trials} n={n}".format(
            seed=report["seed"], trials=report["trials"],
            n=",".join(str(n) for n in report["n_list"]))
    ]
    for pid, res in report["properties"].items():
        status = "PASS" if res["ok"] else "FAIL"
        worst = res["worst_residual"]
        worst_s = worst if isinstance(worst, str) else f"{worst:.3e}"
        lines.append(f"  [{status}] {pid:<28} worst {worst_s:>10}  "
                     f"({res['pass_count']}/{res['pass_count'] + res['fail_count']})")
        if not res["ok"]:
            ex = res.get("example_failure", {})
            lines.append(f"         first failure: trial={ex.get('trial')} "
                         f"n={ex.get('n')} sub_seed={ex.get('sub_seed')} "
                         f"residual={ex.get('residual')}"
                         + (f" error={ex['error']}" if "error" in ex else ""))
    total = len(report["properties"])
    good = sum(1 for r in report["properties"].values() if r["ok"])
    verdict = "all properties passed" if report["ok"] else "FAILURES PRESENT"
    lines.append(f"{verdict} ({good}/{total})")
    return "\n".join(lines)


@main.command()
@click.option("--n", "n_list", multiple=True, type=click.IntRange(min=1),
              help="Dimension to sweep (repeatable; default 1 2 3 4 6).")
@click.option("--trials", default=DEFAULT_TRIALS, show_default=True,
              type=click.IntRange(min=1), help="Trials per property.")
@click.option("--seed", default=0, show_default=True, type=int, help="Sweep seed.")
@click.option("--tol", default=None, type=float,
              help="Override every property tolerance.")
@click.option("--property", "property_ids", multiple=True,
              help="Run only these property ids (repeatable).")
@click.option("--json/--text", "as_json", default=True,
              help="Machine-readable JSON (default) or a text table.")
@click.pass_context
def check(ctx, n_list, trials, seed, tol, property_ids, as_json) -> None:
    """Run the seeded property sweep and exit 0 iff every property passes."""
    # the harness loads only here, so the other commands start without it
    from . import properties

    ns = tuple(n_list) if n_list else properties.DEFAULT_N_LIST
    try:
        report = properties.run_sweep(
            n_list=ns, trials=trials, seed=seed,
            properties=list(property_ids) or None, tol=tol)
    except KeyError as exc:
        known = ", ".join(properties.property_ids())
        raise click.ClickException(f"{exc.args[0]}; known ids: {known}")
    except AplineError as exc:  # e.g. a NaN or infinite --tol
        raise click.ClickException(str(exc))
    if as_json:
        _emit_json(report)
    else:
        click.echo(_text_report(report))
    ctx.exit(0 if report["ok"] else 1)


# --- classical ----------------------------------------------------------------------

def _values_from_json(obj, what: str) -> list:
    if isinstance(obj, dict):
        vals = obj.get("values", obj.get("weights"))
        if vals is None:
            raise click.ClickException(f"{what}: expected a 'values' list")
        if "m" in obj and algebra.size_from_json(obj["m"], "m") != len(vals):
            raise click.ClickException(
                f"{what}: declared m={obj['m']} but {len(vals)} values given")
    elif isinstance(obj, list):
        vals = obj
    else:
        raise click.ClickException(f"{what}: expected an object or a list")
    return [_real_from_json(v) for v in vals]


def _real_from_json(v) -> float:
    """A JSON entry: a string as a command-line token, anything else as classical reads it."""
    if isinstance(v, str):
        return _parse_real(v)
    try:
        return algebra._as_real(v, "entries")
    except NotARealError:  # true, null, a list or an object
        raise click.BadParameter(f"not a real number: {json.dumps(v)}") from None
    except AplineError as exc:  # an integer beyond the float range
        raise click.BadParameter(str(exc)) from None


def _load_classical_problem(path: str) -> dict:
    """Named functions/measures from a JSON object or a name-prefixed CSV."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            if path.endswith(".csv"):
                payload = {row[0].strip(): row[1:]
                           for row in csv.reader(fh) if row and not row[0].startswith("#")}
            else:
                payload = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, malformed or too deeply nested
        raise click.ClickException(f"{path}: {exc}")
    if not isinstance(payload, dict):
        raise click.ClickException(f"{path}: expected a JSON object")
    try:
        return {name: _values_from_json(obj, name) for name, obj in payload.items()}
    # e.g. null, a list, "x" or "1j" for a real number, or an integer beyond float range
    except (TypeError, ValueError, OverflowError, click.BadParameter) as exc:
        raise click.ClickException(f"{path}: malformed entry: {exc}")


def _need(problem: dict, names, path: str) -> list:
    missing = [n for n in names if n not in problem]
    if missing:
        raise click.ClickException(f"{path}: missing entries {', '.join(missing)}")
    return [problem[n] for n in names]


@main.group()
def classical_cmd() -> None:
    """Finite classical model: pairings and function obstates."""


main.add_command(classical_cmd, name="classical")


@classical_cmd.command("pairing")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
def classical_pairing(path: str) -> None:
    """Pairing sum(mu_p f_p g_p) from a file with entries mu, f, g."""
    from . import classical  # the classical model loads only for its commands

    problem = _load_classical_problem(path)
    mu_w, f_v, g_v = _need(problem, ("mu", "f", "g"), path)
    try:
        value = classical.pairing(classical.Measure(mu_w),
                                  classical.ClassicalFn(f_v),
                                  classical.ClassicalFn(g_v))
    except (AplineError, ValueError) as exc:
        raise click.ClickException(str(exc))
    click.echo(_format_scalar(obstate._scalar_to_json(value)))


@classical_cmd.command("obstate")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
def classical_obstate(path: str) -> None:
    """Obstate coordinates of f in the frame (f1, f0, finf).

    Needs entries f, f1, f0, finf; when mu and h are also present, the
    paired expectation is reported as well.
    """
    from . import classical

    problem = _load_classical_problem(path)
    f_v, f1_v, f0_v, finf_v = _need(problem, ("f", "f1", "f0", "finf"), path)
    try:
        coords = classical.fn_obstate(
            classical.ClassicalFn(f_v), classical.ClassicalFn(f1_v),
            classical.ClassicalFn(f0_v), classical.ClassicalFn(finf_v))
        out = {"coordinates": [
            "inf" if is_inf(v) else float(v) for v in coords.values]}
        if "mu" in problem and "h" in problem:
            ev = classical.pairing(classical.Measure(problem["mu"]), coords,
                                   classical.ClassicalFn(problem["h"]))
            out["expectation"] = "inf" if is_inf(ev) else float(ev)
    except (AplineError, ValueError) as exc:
        raise click.ClickException(str(exc))
    _emit_json(out)


if __name__ == "__main__":  # pragma: no cover
    main()
