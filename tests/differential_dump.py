"""Dump the engine's results on a fixed seeded corpus, for a differential
check of two checkouts of the package.

For every input, in order, it prints the (d, k, t) and ``all_ordinary`` of
``combinatorial_type`` and the verdict of ``has_six_line_subarrangement``,
then one line per singular point: the ``repr`` of its location, its
multiplicity r, its ordinary flag and its sorted incident curves.  Two
checkouts agree when their dumps are identical byte for byte:

    PYTHONPATH=<parent>/src python tests/differential_dump.py > parent.txt
    PYTHONPATH=<change>/src python tests/differential_dump.py > change.txt
    cmp parent.txt change.txt

The corpus: the first 250 criterion-6 draws that validate for each of the
seeds 1-7, pencil4 with k = 2..10, every catalog builder, the
``tests/data/cli/big-*.txt`` inputs, 200 seeded line-conic pairs and 30
seeded arrangements of 6-12 lines, some with a conic, and 100 seeded
pencil arrangements: 2-5 members of a pencil of conics, some lines and a
rational chord through an irrational orbit of their base points.  The
script takes no
options; pytest does not collect it.  Like the CLI, it lifts Python's limit
on int-str conversion, so a point of any size prints.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from coniclines.catalog import build_pencil4, catalog_get, catalog_list
from coniclines.curves import Arrangement, PlaneCurve, parse_arrangement
from coniclines.intersect import (
    combinatorial_type,
    has_six_line_subarrangement,
    intersect_pair,
)
from test_engine_golden import _validates, criterion6_corpus

CLI_DATA = Path(__file__).resolve().parent / "data" / "cli"


def line_conic_pairs(count: int = 200, seed: int = 13) -> list[Arrangement]:
    """The first ``count`` valid pairs of a line and a conic with small
    coefficients, many of them zero, so that the restricted quadratic often
    loses degree."""
    rng = random.Random(seed)
    small = (-2, -1, 0, 0, 0, 1, 2)
    out = []
    while len(out) < count:
        line = [rng.choice(small) for _ in range(3)]
        conic = [rng.choice(small) for _ in range(6)]
        if not any(line) or not any(conic):
            continue
        arr = Arrangement((PlaneCurve("line", line), PlaneCurve("conic", conic)))
        if _validates(arr):
            out.append(arr)
    return out


def _cross(u: list[int], v: list[int]) -> list[int]:
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def line_heavy(count: int = 30, seed: int = 6) -> list[Arrangement]:
    """The first ``count`` valid arrangements of 6-12 lines with coefficients
    in [-3, 3], most of them through one of two drawn points, so that 4- and
    5-fold points are common; every third has a conic as well.  They decide
    the six-line search both ways."""
    rng = random.Random(seed)
    small = range(-3, 4)
    out = []
    while len(out) < count:
        centres = [[rng.choice(small) for _ in range(3)] for _ in range(2)]
        curves, seen = [], set()
        for _ in range(rng.randint(6, 12)):
            vector = [rng.choice(small) for _ in range(3)]
            centre = rng.choice(centres * 3 + [None])
            vector = vector if centre is None else _cross(centre, vector)
            if any(vector):
                line = PlaneCurve("line", vector)
                key = max(line.coefficients, tuple(-c for c in line.coefficients))
                if key not in seen:
                    seen.add(key)
                    curves.append(line)
        conic = [rng.choice(small) for _ in range(6)]
        if len(out) % 3 == 2 and any(conic):
            curves.append(PlaneCurve("conic", conic))
        arr = Arrangement(tuple(curves))
        if len(curves) >= 6 and _validates(arr):
            out.append(arr)
    return out


def _line_product(l1: list[int], l2: list[int]) -> list[int]:
    """The conic (a1 x + b1 y + c1 z)(a2 x + b2 y + c2 z)."""
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    return [a1 * a2, b1 * b2, c1 * c2, a1 * b2 + a2 * b1, a1 * c2 + a2 * c1,
            b1 * c2 + b2 * c1]


def _chord(c1: PlaneCurve, c2: PlaneCurve) -> PlaneCurve | None:
    """The rational line through a degree-2 orbit of two conics, or None
    when they have none.  An orbit's points P = v0 + b v1 and its conjugate
    span the line v0 x v1; of several such lines the least is taken, so the
    choice depends on neither the order nor the presentation of the orbits."""
    chords = []
    for point, _mult in intersect_pair(c1, c2):
        if point.field.degree == 2:
            v0, v1 = zip(*point.vectors)
            chord = PlaneCurve("line", _cross(list(v0), list(v1))).coefficients
            chords.append(max(chord, tuple(-c for c in chord)))
    return PlaneCurve("line", min(chords)) if chords else None


def pencils(count: int = 100, seed: int = 11) -> list[Arrangement]:
    """The first ``count`` valid arrangements of 2-5 smooth members
    s q1 + t q2 of a pencil of conics with coefficients in [-3, 3], 0-2
    random lines, and the chord of ``_chord`` through the first two members
    when it exists.  q1 is a random conic; q2 is a random conic, a double
    line (a bitangent pencil, whose members touch) or a line pair.  The
    members share their base points, so an orbit there lies on every member
    and often on the chord too: the inputs reach irrational points on three
    or more curves and tangencies between them."""
    rng = random.Random(seed)
    small = range(-3, 4)
    out = []
    while len(out) < count:
        q1 = [rng.choice(small) for _ in range(6)]
        kind = rng.choice(("conic", "double line", "line pair"))
        if kind == "conic":
            q2 = [rng.choice(small) for _ in range(6)]
        else:
            l1 = [rng.choice(small) for _ in range(3)]
            l2 = l1 if kind == "double line" else [rng.choice(small) for _ in range(3)]
            q2 = _line_product(l1, l2)
        curves = []
        for _ in range(rng.randint(2, 5)):
            s, t = rng.choice(small), rng.choice(small)
            member = [s * u + t * v for u, v in zip(q1, q2)]
            if any(member):
                curves.append(PlaneCurve("conic", member))
        for _ in range(rng.randint(0, 2)):
            line = [rng.choice(small) for _ in range(3)]
            if any(line):
                curves.append(PlaneCurve("line", line))
        arr = Arrangement(tuple(curves))
        if len(curves) < 2 or not _validates(arr):
            continue
        chord = _chord(curves[0], curves[1])
        with_chord = Arrangement(arr.curves + (chord,)) if chord else arr
        out.append(with_chord if _validates(with_chord) else arr)
    return out


def corpus() -> Iterator[tuple[str, Arrangement]]:
    for seed in range(1, 8):
        for i, arr in enumerate(criterion6_corpus(seed=seed, size=250)):
            yield f"criterion6-s{seed}-{i:03d}", arr
    for k in range(2, 11):
        yield f"pencil4-k{k}", build_pencil4(k)
    yield from catalog_inputs()
    for path in sorted(CLI_DATA.glob("big-*.txt")):
        yield f"cli-{path.stem}", parse_arrangement(path.read_text(encoding="utf-8"))
    for i, arr in enumerate(line_conic_pairs()):
        yield f"line-conic-{i:03d}", arr
    for i, arr in enumerate(line_heavy()):
        yield f"line-heavy-{i:02d}", arr
    for i, arr in enumerate(pencils()):
        yield f"pencil-{i:03d}", arr


def catalog_inputs() -> Iterator[tuple[str, Arrangement]]:
    for name in catalog_list():
        entry = catalog_get(name)
        if entry.builder is not None:
            yield f"catalog-{name}", entry.build()


def dump(inputs: Iterable[tuple[str, Arrangement]]) -> Iterator[str]:
    """The dump's lines for the named inputs, in order."""
    for name, arr in inputs:
        derived = combinatorial_type(arr)
        ct = derived.ct
        t = {r: n for r, n in sorted(ct.t.items())}
        six_lines = has_six_line_subarrangement(arr, derived)
        yield (f"{name}: d={ct.d} k={ct.k} t={t} all_ordinary={derived.all_ordinary} "
               f"six_lines={six_lines}")
        for p in derived.points:
            yield (f"  {p.location!r} r={p.multiplicity} ordinary={p.ordinary} "
                   f"incident={sorted(p.incident)}")


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: python tests/differential_dump.py (no options)")
    # coordinates may have any number of digits; as in the CLI, lift the
    # 4300-digit limit of Python 3.10.7+ on int-str conversion
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    for text in dump(corpus()):
        print(text)
