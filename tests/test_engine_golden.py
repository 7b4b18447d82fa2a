"""Differential test of the engine against recorded results.

``tests/data/engine_golden.json`` holds, per input, the (d, k, t), the
``all_ordinary`` flag, the sorted (multiplicity, ordinary) pairs of the
singular points and the sorted pair multiplicities of every curve pair, as
derived by the box-clustering engine that the Galois-orbit engine replaced.
To re-record it from some checkout of the package:

    PYTHONPATH=<checkout>/src python tests/test_engine_golden.py --record
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

from coniclines.algebraic import AlgebraicNumber
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
    pair_mults = [sorted(m for _p, m in intersect_pair(arr.curves[i], arr.curves[j]))
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


def test_engine_builds_no_algebraic_number(monkeypatch):
    # the engine computes on integer vectors alone; AlgebraicNumber is built
    # only for display and the public API
    arrangements = [catalog_get(name).build() for name in catalog_list()
                    if catalog_get(name).builder is not None]
    arrangements += criterion6_corpus(seed=1)
    expected = [[repr(p.location) for p in combinatorial_type(arr).points]
                for arr in arrangements]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the engine built an AlgebraicNumber")

    with monkeypatch.context() as patch:
        patch.setattr(AlgebraicNumber, "__init__", refuse)
        derived = [combinatorial_type(arr) for arr in arrangements]
    assert any(p.location.field is not None for d in derived for p in d.points)
    assert [[repr(p.location) for p in d.points] for d in derived] == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_engine_golden.py --record")
    record = {name: summary(arr) for name, arr in golden_inputs()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(record)} inputs to {GOLDEN}")
