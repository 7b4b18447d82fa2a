"""Differential test of the engine against recorded results.

``tests/data/engine_golden.json`` holds, per input, the (d, k, t), the
``all_ordinary`` flag, the sorted (multiplicity, ordinary) pairs of the
singular points and the sorted pair multiplicities of every curve pair, as
derived by the box-clustering engine that the Galois-orbit engine replaced.
To re-record it from some checkout of the package:

    PYTHONPATH=<checkout>/src python tests/test_engine_golden.py --record
"""

from __future__ import annotations

import ast
import json
import random
import sys
from fractions import Fraction as F
from itertools import combinations
from math import gcd
from pathlib import Path

import coniclines
from coniclines.algebraic import QQ, NumberField
from coniclines.catalog import build_pencil4, catalog_get, catalog_list
from coniclines.curves import Arrangement, PlaneCurve, ValidationError, validate_arrangement
from coniclines.intersect import combinatorial_type, intersect_pair

GOLDEN = Path(__file__).resolve().parent / "data" / "engine_golden.json"


def _criterion6_arrangement(rng: random.Random) -> Arrangement | None:
    """The generator of the acceptance test's criterion 6."""
    n_lines = rng.randint(0, 4)
    n_conics = rng.randint(0, 3)
    if n_lines + n_conics < 2:
        return None
    coeff = lambda: F(rng.randint(-4, 4), rng.randint(1, 3))  # noqa: E731
    curves = []
    for _ in range(n_lines):
        vals = [coeff() for _ in range(3)]
        if all(v == 0 for v in vals):
            return None
        curves.append(PlaneCurve("line", vals))
    for _ in range(n_conics):
        vals = [coeff() for _ in range(6)]
        try:
            curves.append(PlaneCurve("conic", vals))
        except ValidationError:  # all six coefficients zero
            return None
    return Arrangement(tuple(curves))


def _validates(arr: Arrangement) -> bool:
    try:
        validate_arrangement(arr)
    except ValidationError:
        return False
    return True


def criterion6_corpus(seed: int = 99, size: int = 20) -> list[Arrangement]:
    """The first ``size`` criterion-6 draws that validate."""
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        arr = _criterion6_arrangement(rng)
        if arr is not None and _validates(arr):
            out.append(arr)
    return out


def random_conics(n: int, seed: int = 7) -> Arrangement:
    """n smooth, pairwise distinct conics with integer coefficients in [-3, 3]."""
    rng = random.Random(seed)
    while True:
        curves = []
        while len(curves) < n:
            vals = [rng.randint(-3, 3) for _ in range(6)]
            if any(vals):
                curves.append(PlaneCurve("conic", vals))
        arr = Arrangement(tuple(curves))
        if _validates(arr):
            return arr


def irrational_pencil() -> Arrangement:
    """Lines y = +-z and three conics of the pencil x^2 - 2z^2 + t (y^2 - z^2):
    four 4-fold points (+-sqrt 2 : +-1 : 1) in two conjugate pairs."""
    curves = [PlaneCurve("line", (0, 1, s)) for s in (-1, 1)]
    curves += [PlaneCurve("conic", (1, t, -2 - t, 0, 0, 0)) for t in (1, 2, 3)]
    return Arrangement(tuple(curves))


def irrational_tangency() -> Arrangement:
    """Q = x^2 + y^2 - 3z^2, Q + (x - z)^2 and x = z: the conics are tangent
    at the conjugate points (1 : +-sqrt 2 : 1), which the line also passes."""
    return Arrangement((
        PlaneCurve("conic", (1, 1, -3, 0, 0, 0)),
        PlaneCurve("conic", (2, 1, -2, 0, -2, 0)),
        PlaneCurve("line", (1, 0, -1)),
    ))


def golden_inputs() -> list[tuple[str, Arrangement]]:
    inputs = [(f"criterion6-{i:02d}", arr) for i, arr in enumerate(criterion6_corpus())]
    for name in catalog_list():
        entry = catalog_get(name)
        if entry.builder is not None:
            inputs.append((f"catalog-{name}", entry.build()))
    inputs += [(f"pencil4-k{k}", build_pencil4(k, range(1, k + 1))) for k in range(2, 7)]
    inputs += [(f"random-conics-{n}", random_conics(n)) for n in (3, 5, 7)]
    inputs.append(("irrational-pencil", irrational_pencil()))
    inputs.append(("irrational-tangency", irrational_tangency()))
    return inputs


def summary(arr: Arrangement) -> dict:
    derived = combinatorial_type(arr)
    ct = derived.ct
    # the multiplicity of each geometric point, conjugates expanded
    pair_mults = [sorted(m for p, m in intersect_pair(arr.curves[i], arr.curves[j])
                         for _conj in p.conjugates())
                  for i, j in combinations(range(len(arr.curves)), 2)]
    return {"d": ct.d, "k": ct.k,
            "t": {str(r): n for r, n in sorted(ct.t.items())},
            "all_ordinary": bool(derived.all_ordinary),
            "points": sorted([p.multiplicity, bool(p.ordinary)] for p in derived.points),
            "pair_mults": pair_mults}


def test_engine_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    inputs = golden_inputs()
    assert [name for name, _arr in inputs] == list(golden)
    for name, arr in inputs:
        assert summary(arr) == golden[name], name


def test_engine_computes_no_numeric_value(monkeypatch):
    # the engine computes on integer vectors alone; the roots of a witness
    # and the numeric value of a field element are for display only
    arrangements = [catalog_get(name).build() for name in catalog_list()
                    if catalog_get(name).builder is not None]
    arrangements += criterion6_corpus(seed=1)
    expected = [[repr(p.location) for p in combinatorial_type(arr).points]
                for arr in arrangements]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the engine computed a numeric value")

    with monkeypatch.context() as patch:
        patch.setattr(NumberField, "roots", refuse)
        patch.setattr(NumberField, "value", refuse)
        derived = [combinatorial_type(arr) for arr in arrangements]
    assert any(p.location.field.degree > 1 for d in derived for p in d.points)
    assert [[repr(p.location) for p in d.points] for d in derived] == expected


def test_engine_builds_no_fraction(monkeypatch):
    # every root is a number field, a rational one of degree 1, and every
    # point is built from integer vectors; inputs are built first, since
    # their coefficients may be Fractions
    arrangements = [catalog_get(name).build() for name in catalog_list()
                    if catalog_get(name).builder is not None]
    arrangements += [build_pencil4(4, range(1, 5))] + criterion6_corpus(seed=1)

    def points(derived):
        return [(repr(p.location), p.incident, p.ordinary) for p in derived.points]

    expected = [points(combinatorial_type(arr)) for arr in arrangements]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the engine built a Fraction")

    with monkeypatch.context() as patch:
        patch.setattr(F, "__new__", refuse)
        derived = [combinatorial_type(arr) for arr in arrangements]
    locations = [p.location for d in derived for p in d.points]
    assert all(isinstance(p.field, NumberField) for p in locations)
    # every rational point lies in QQ, as its primitive integer 1-vectors
    # with the last nonzero entry positive
    rational = [p for p in locations if p.field.degree == 1]
    assert rational and all(p.field == QQ for p in rational)
    for p in rational:
        assert all(len(v) == 1 for v in p.vectors)
        x, y, z = (v[0] for v in p.vectors)
        assert gcd(x, y, z) == 1 and next(c for c in (z, y, x) if c) > 0
    assert [points(d) for d in derived] == expected



def _scoped_nodes(path: Path) -> list[tuple[ast.AST, str]]:
    """Every node of a module with the dotted name of the function or class
    it lies in ("" at module level); a def lies in its own scope."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            out.append((child, inner))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def test_sympy_and_mpmath_stay_where_they_are():
    # replacing sympy's one call stays a one-call swap: only algebraic.py
    # imports sympy, which serves factor_list in root_orbits and the symbol
    # _X of that call; mpmath is imported inside two display methods, the
    # root finder and the evaluation at a root.  Display stays in
    # algebraic.py too: no other module reads the roots, a value, an inverse,
    # the pivot quotients or an mpmath mantissa
    imports, sp_uses, x_uses, factor_lists, display = [], [], [], [], []
    for path in sorted(Path(coniclines.__file__).parent.glob("*.py")):
        for node, scope in _scoped_nodes(path):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            imports += [(name.split(".")[0], path.name, scope) for name in names
                        if name.split(".")[0] in ("sympy", "mpmath")]
            if isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id == "sp":
                    sp_uses.append((path.name, scope, node.attr))
                if node.attr == "factor_list":
                    factor_lists.append((path.name, scope))
                if node.attr in ("value", "roots", "inverse", "_quotients", "man_exp"):
                    display.append((path.name, scope, node.attr))
            if isinstance(node, ast.Name) and node.id == "_X":
                x_uses.append((path.name, scope, type(node.ctx).__name__))
    assert sorted(imports) == [("mpmath", "algebraic.py", "NumberField.roots"),
                               ("mpmath", "algebraic.py", "NumberField.value"),
                               ("sympy", "algebraic.py", "")]
    assert sorted(sp_uses) == [("algebraic.py", "", "Symbol"),
                               ("algebraic.py", "root_orbits", "Poly")]
    assert factor_lists == [("algebraic.py", "root_orbits")]
    assert display and {module for module, _scope, _attr in display} == {"algebraic.py"}
    assert sorted(x_uses) == [("algebraic.py", "", "Store"),
                              ("algebraic.py", "root_orbits", "Load")]


def test_differential_dump_on_the_catalog_builders():
    # tests/differential_dump.py compares two checkouts of the package; its
    # dump runs here so that it keeps working
    from differential_dump import catalog_inputs, dump
    lines = list(dump(catalog_inputs()))
    assert [line.split(":")[0] for line in lines if not line.startswith(" ")] == [
        "catalog-dbe-sharpness", "catalog-pencil4", "catalog-tangency-demo"]
    assert len(lines) == 3 + 7 + 5 + 1
    assert lines[0] == ("catalog-dbe-sharpness: d=6 k=3 t={2: 3, 6: 4} "
                        "all_ordinary=True six_lines=True")
    assert lines[-2:] == [("catalog-tangency-demo: d=1 k=1 t={2: 1} "
                           "all_ordinary=False six_lines=False"),
                          "  (0 : 1 : 1) r=2 ordinary=False incident=[0, 1]"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_engine_golden.py --record")
    record = {name: summary(arr) for name, arr in golden_inputs()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(record)} inputs to {GOLDEN}")
