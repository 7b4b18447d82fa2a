"""Command-line front end.

One binary, four subcommands: ``analyze`` an arrangement or combinatorial-type
file, ``catalog`` to inspect and export named arrangements, ``search`` to
enumerate balanced types and scan the open questions, ``check`` to run a
single named inequality.

Exit codes are stable: 0 success, 2 parse error, 3 validation failure
(reducible conic, duplicate curve, non-ordinary input under --strict, or
an intersection the engine could not complete).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import catalog as cat
from . import search as searchmod
from .curves import (
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


def _load_input(path: Path):
    """Returns ("arrangement", Arrangement) or ("ct", CombinatorialType)."""
    text = path.read_text(encoding="utf-8")
    first = next((ln.split("#", 1)[0].strip()
                  for ln in text.splitlines()
                  if ln.split("#", 1)[0].strip()), "")
    if first.startswith(("line:", "conic:")):
        return "arrangement", parse_arrangement(text)
    return "ct", parse_combinatorial_type(text)


def _derive(arrangement):
    """combinatorial_type, with its failures mapped to exit code 3."""
    try:
        return combinatorial_type(arrangement)
    except ValidationError as exc:
        click.echo(f"validation failed: {exc}", err=True)
    except IntersectionError as exc:
        click.echo(f"intersection failed: {exc}", err=True)
    sys.exit(EXIT_VALIDATION)


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
    try:
        kind, data = _load_input(path)
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    extra: dict = {}
    warnings: list[str] = []
    if kind == "arrangement":
        derived = _derive(data)
        ct = derived.ct
        six_lines = has_six_line_subarrangement(data)
        for p in derived.points:
            if not p.ordinary:
                warnings.append(f"non-ordinary singularity at {p.location}: "
                                "outside the ordinary-arrangement hypotheses")
        extra["points"] = [{"location": repr(p.location),
                            "multiplicity": p.multiplicity,
                            "ordinary": p.ordinary}
                           for p in derived.points]
        extra["all_ordinary"] = derived.all_ordinary
        if strict and not derived.all_ordinary:
            for w in warnings:
                click.echo(f"!! {w}", err=True)
            click.echo("strict mode: non-ordinary arrangement rejected", err=True)
            sys.exit(EXIT_VALIDATION)
        source = str(path)
    else:
        ct = data
        six_lines = assume_six_lines
        source = str(path)
    report = analyze_ct(ct, source=source,
                        six_lines_subarrangement=six_lines, warnings=warnings)
    if as_json:
        payload = report.as_dict()
        payload.update(extra)
        click.echo(json.dumps(payload, indent=2))
    else:
        click.echo(report.render_text(), nl=False)
        if "points" in extra:
            click.echo("singular points:")
            for p in extra["points"]:
                flag = "" if p["ordinary"] else "  [non-ordinary]"
                click.echo(f"  {p['location']}  r={p['multiplicity']}{flag}")


@main.group()
def catalog() -> None:
    """Inspect the built-in catalog of named arrangements."""


@catalog.command("list")
def catalog_list_cmd() -> None:
    for name in cat.catalog_list():
        click.echo(name)


@catalog.command("show")
@click.argument("name")
def catalog_show(name: str) -> None:
    try:
        entry = cat.catalog_get(name)
    except KeyError as exc:
        raise click.ClickException(str(exc)) from exc
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
    try:
        entry = cat.catalog_get(name)
    except KeyError as exc:
        raise click.ClickException(str(exc)) from exc
    if entry.builder is not None:
        kwargs = {}
        if k is not None:
            kwargs["k"] = k
        if t_params is not None:
            kwargs["t"] = [parse_rational(v) for v in t_params.split(",")]
        try:
            arrangement = entry.build(**kwargs)
        except (ValidationError, TypeError) as exc:
            click.echo(f"validation failed: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        path.write_text(serialize_arrangement(arrangement), encoding="utf-8")
    else:
        path.write_text(serialize_combinatorial_type(entry.ct), encoding="utf-8")
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
            raise click.ClickException("--d and --k are required without --catalog")
        if max_mult is None:
            max_mult = d + k
        types = list(searchmod.enumerate_types(d, k, max_mult))
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
            raise click.ClickException(str(exc)) from exc
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
    """Run one named inequality on a catalog entry or a type file."""
    from . import invariants as inv

    six_lines = assume_six_lines
    if target in cat.catalog_list():
        ct = cat.catalog_get(target).ct
    else:
        path = Path(target)
        if not path.exists():
            raise click.ClickException(
                f"{target!r} is neither a catalog name nor a file")
        try:
            kind, data = _load_input(path)
        except ParseError as exc:
            click.echo(f"parse error: {exc}", err=True)
            sys.exit(EXIT_PARSE)
        if kind == "arrangement":
            ct = _derive(data).ct
            six_lines = has_six_line_subarrangement(data)
        else:
            ct = data
    if which in ("hirzebruch", "hirzebruch-improved"):
        hyp, holds = inv.check_hirzebruch(
            ct, improved=which.endswith("improved"),
            six_lines_subarrangement=six_lines)
    elif which == "debruijn-erdos":
        hyp, holds = inv.check_debruijn_erdos(ct)
    elif which == "urzua":
        hyp, holds, _slope = inv.check_urzua(ct)
    else:
        hyp, holds = inv.check_c2_positive(ct)
    click.echo(f"{which}: conclusion {'holds' if holds else 'FAILS'}; "
               f"hypotheses {'satisfied' if hyp else 'not satisfied'}")


if __name__ == "__main__":
    main()
