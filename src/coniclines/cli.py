"""Command-line front end.

One binary, four subcommands: ``analyze`` an arrangement or combinatorial-type
file, ``catalog`` to inspect and export named arrangements, ``search`` to
enumerate balanced types and scan the open questions, ``check`` to print
one named inequality verdict of the report ``analyze`` computes.

Exit codes are stable: 0 success, 2 parse error (including an unknown
catalog name, an export path that cannot be written and a bad ``search``
argument), 3 validation failure
(reducible conic, duplicate curve, non-ordinary input under --strict, or
an intersection the engine could not complete).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

import click

from . import catalog as cat
from . import search as searchmod
from .curves import (
    Arrangement,
    CombinatorialType,
    ParseError,
    ValidationError,
    parse_arrangement,
    parse_combinatorial_type,
    serialize_arrangement,
    serialize_combinatorial_type,
)
from .intersect import IntersectionError, combinatorial_type, has_six_line_subarrangement
from .invariants import analyze as analyze_ct
from .invariants import log_chern
from .polynomials import format_rational, parse_rational

EXIT_PARSE = 2
EXIT_VALIDATION = 3


@click.group()
def main() -> None:
    """Exact analysis of conic-line arrangements in the projective plane."""


def _slope_str(slope: Fraction | None) -> str:
    if slope is None:
        return "undefined"
    return f"{format_rational(slope)} (~{float(slope):.4f})"


def _fail(code: int, message: str) -> NoReturn:
    click.echo(message, err=True)
    sys.exit(code)


def _load_input(path: Path) -> Arrangement | CombinatorialType:
    """An arrangement or a combinatorial type, by the file's first record."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        _fail(EXIT_PARSE, f"parse error: {path} is not UTF-8 text ({exc.reason})")
    except OSError as exc:
        _fail(EXIT_PARSE, f"parse error: cannot read {path} ({exc.strerror})")
    first = next((ln.split("#", 1)[0].strip()
                  for ln in text.splitlines()
                  if ln.split("#", 1)[0].strip()), "")
    try:
        if first.startswith(("line:", "conic:")):
            return parse_arrangement(text)
        return parse_combinatorial_type(text)
    except ParseError as exc:
        _fail(EXIT_PARSE, f"parse error: {exc}")
    except ValidationError as exc:
        _fail(EXIT_VALIDATION, f"validation failed: {exc}")


def _report(target: str | Path, assume_six_lines: bool, strict: bool = False):
    """The AnalysisReport of a target, with the derived combinatorics of an
    arrangement file (None for a combinatorial type).

    A str target is a catalog name, else a file; a Path is always a file.
    An arrangement's six-line hypothesis is decided by search; a type's is
    ``assume_six_lines``.
    """
    if isinstance(target, str) and target in cat.catalog_list():
        data = cat.catalog_get(target).ct
    elif Path(target).exists():
        data = _load_input(Path(target))
    else:
        _fail(EXIT_PARSE, f"Error: {target!r} is neither a catalog name nor a file")
    if isinstance(data, CombinatorialType):
        return analyze_ct(data, source=str(target),
                          six_lines_subarrangement=assume_six_lines), None
    try:
        derived = combinatorial_type(data)
    except ValidationError as exc:
        _fail(EXIT_VALIDATION, f"validation failed: {exc}")
    except IntersectionError as exc:
        _fail(EXIT_VALIDATION, f"intersection failed: {exc}")
    warnings = [f"non-ordinary singularity at {p.location}: "
                "outside the ordinary-arrangement hypotheses"
                for p in derived.points if not p.ordinary]
    if strict and not derived.all_ordinary:
        for w in warnings:
            click.echo(f"!! {w}", err=True)
        _fail(EXIT_VALIDATION, "strict mode: non-ordinary arrangement rejected")
    report = analyze_ct(derived.ct, source=str(target),
                        six_lines_subarrangement=has_six_line_subarrangement(data),
                        warnings=warnings)
    return report, derived


@main.command()
@click.argument("path", type=click.Path(exists=True, path_type=Path))
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
@click.option("--strict", is_flag=True,
              help="treat non-ordinary singularities as failure")
@click.option("--assume-six-lines", is_flag=True,
              help="assert the 6-line subarrangement hypothesis for "
                   "combinatorial inputs")
def analyze(path: Path, as_json: bool, strict: bool, assume_six_lines: bool) -> None:
    """Full invariant report for an arrangement or combinatorial-type file."""
    report, derived = _report(path, assume_six_lines, strict)
    if as_json:
        payload = report.as_dict()
        if derived is not None:
            payload["points"] = [{"location": repr(p.location),
                                  "multiplicity": p.multiplicity,
                                  "ordinary": p.ordinary}
                                 for p in derived.points]
            payload["all_ordinary"] = derived.all_ordinary
        click.echo(json.dumps(payload, indent=2))
    else:
        click.echo(report.render_text(), nl=False)
        if derived is not None:
            click.echo("singular points:")
            for p in derived.points:
                flag = "" if p.ordinary else "  [non-ordinary]"
                click.echo(f"  {p.location!r}  r={p.multiplicity}{flag}")


@main.group()
def catalog() -> None:
    """Inspect the built-in catalog of named arrangements."""


def _catalog_entry(name: str) -> cat.CatalogEntry:
    try:
        return cat.catalog_get(name)
    except KeyError as exc:
        _fail(EXIT_PARSE, f"Error: {exc.args[0]}")


@catalog.command("list")
def catalog_list_cmd() -> None:
    for name in cat.catalog_list():
        click.echo(name)


@catalog.command("show")
@click.argument("name")
def catalog_show(name: str) -> None:
    entry = _catalog_entry(name)
    click.echo(f"{entry.name} ({entry.kind})")
    click.echo(f"  {entry.provenance}")
    if entry.parameters:
        click.echo(f"  parameters: {entry.parameters}")
    if entry.flags:
        click.echo(f"  flags: {', '.join(sorted(entry.flags))}")
    report = analyze_ct(entry.ct, source=entry.name)
    click.echo(report.render_text(), nl=False)


@catalog.command("export")
@click.argument("name")
@click.argument("path", type=click.Path(path_type=Path))
@click.option("--k", "k", type=int, default=None,
              help="pencil size for parameterized geometric entries")
@click.option("--t", "t_params", default=None,
              help="comma-separated pencil parameters, e.g. 1,2,3")
def catalog_export(name: str, path: Path, k: int | None, t_params: str | None) -> None:
    """Write a catalog entry to an arrangement or combinatorial-type file."""
    entry = _catalog_entry(name)
    if entry.builder is not None:
        kwargs = {}
        if k is not None:
            kwargs["k"] = k
        if t_params is not None:
            try:
                kwargs["t"] = [parse_rational(v) for v in t_params.split(",")]
            except ValueError as exc:
                _fail(EXIT_PARSE, f"parse error: --t: {exc}")
        try:
            arrangement = entry.build(**kwargs)
        except (ValidationError, TypeError) as exc:
            _fail(EXIT_VALIDATION, f"validation failed: {exc}")
        text = serialize_arrangement(arrangement)
    else:
        text = serialize_combinatorial_type(entry.ct)
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail(EXIT_PARSE, f"Error: cannot write {path} ({exc.strerror})")
    click.echo(f"wrote {path}")


@main.command()
@click.option("--d", "d", type=int, default=None, help="number of lines")
@click.option("--k", "k", type=int, default=None, help="number of conics")
@click.option("--max-mult", type=int, default=None,
              help="largest multiplicity allowed (default k+d)")
@click.option("--extremal", is_flag=True, help="report extremal slopes")
@click.option("--conjecture", type=click.Choice(searchmod.CONJECTURES),
              default=None, help="scan for violations of an open question")
@click.option("--catalog", "use_catalog", is_flag=True,
              help="scan the catalog types instead of enumerating")
@click.option("--field", type=click.Choice(["c", "r"]), default="c",
              help="ground-field reading for the 5/2 slope question")
def search(d, k, max_mult, extremal, conjecture, use_catalog, field) -> None:
    """Enumerate balanced combinatorial types and scan them."""
    if use_catalog:
        named = [(n, cat.catalog_get(n).ct) for n in cat.catalog_list()]
        types = [ct for _n, ct in named]
        labels = {id(ct): n for n, ct in named}
    else:
        if d is None or k is None:
            _fail(EXIT_PARSE, "Error: --d and --k are required without --catalog")
        if max_mult is None:
            max_mult = d + k
        try:
            types = list(searchmod.enumerate_types(d, k, max_mult))
        except ValueError as exc:
            _fail(EXIT_PARSE, f"Error: {exc}")
        labels = {}

    def describe(ct) -> str:
        name = labels.get(id(ct))
        tdesc = ", ".join(f"t_{r}={n}" for r, n in sorted(ct.t.items())) or "smooth"
        base = f"d={ct.d} k={ct.k} {tdesc}"
        return f"{name}: {base}" if name else base

    if conjecture:
        violations = searchmod.scan_conjecture(types, conjecture)
        click.echo(f"{len(types)} types scanned under {conjecture}: "
                   f"{len(violations)} violation(s)")
        for v in violations:
            click.echo(f"  {describe(v.ct)}  ({v.detail}; {v.note})")
        if conjecture == "slope_5_2" and violations:
            if field == "r":
                click.echo("note: the 5/2 question is posed over the real "
                           "projective plane; complex-realized types do not "
                           "answer it")
            else:
                click.echo("note: complex reading; the question's own ground "
                           "field is the real projective plane")
    elif extremal:
        try:
            result = searchmod.extremal_slopes(types)
        except ValueError as exc:
            _fail(EXIT_PARSE, f"Error: {exc}")
        click.echo(f"{result.considered} types with defined slope "
                   f"({result.skipped_zero_c2} skipped, c2 = 0); {result.note}")
        click.echo(f"  min slope {_slope_str(result.minimum.slope)} "
                   f"at {describe(result.minimum.ct)}")
        click.echo(f"  max slope {_slope_str(result.maximum.slope)} "
                   f"at {describe(result.maximum.ct)}")
    else:
        for ct in types:
            c1sq, c2 = log_chern(ct)
            slope = _slope_str(Fraction(c1sq, c2) if c2 else None)
            click.echo(f"{describe(ct)}  c1^2={c1sq} c2={c2} slope={slope}")
        click.echo(f"{len(types)} type(s)")


@main.command()
@click.argument("which", type=click.Choice(
    ["hirzebruch", "hirzebruch-improved", "debruijn-erdos", "urzua",
     "c2-positive"]))
@click.argument("target")
@click.option("--assume-six-lines", is_flag=True)
def check(which: str, target: str, assume_six_lines: bool) -> None:
    """Run one named inequality on a catalog entry, a type file or an
    arrangement file."""
    report, _derived = _report(target, assume_six_lines)
    name = "urzua-inequality" if which == "urzua" else which
    result = next(c for c in report.checks if c.name == name)
    holds = "holds" if result.conclusion_holds else "FAILS"
    hyp = "satisfied" if result.hypotheses_satisfied else "not satisfied"
    click.echo(f"{which}: conclusion {holds}; hypotheses {hyp}")


if __name__ == "__main__":
    main()
