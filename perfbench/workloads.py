"""Inputs of the three benchmark workloads.

Each workload is a fixed corpus and the benchmark seed only shuffles the
order of its inputs.  Fresh random inputs per seed would swing the work far
beyond any usable bound: on this engine a fresh criterion-6 corpus takes
15-25 s with its median arrangement at 0.24-0.80 s, even with the shape of
each arrangement fixed, and a random CLI file with 10-digit coefficients
takes 1.5-9.4 s.  Reordering the curves of an input moves its cost too
(with shuffled curves the median rational-incidence input took 0.43-0.96 s
over ten seeds): the conic-conic retries seed their coordinate changes from
the pair's coefficients in order, and the report renders each point from
its first pair.  One reference per input serves every seed.

Only stable entry points of the package are used: ``PlaneCurve``,
``Arrangement``, ``TernaryForm``, ``validate_arrangement``, the ``catalog``
builders and ``serialize_arrangement``.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import combinations, product
from math import gcd

from coniclines.catalog import build_dbe_sharpness, build_pencil4
from coniclines.curves import (
    Arrangement,
    PlaneCurve,
    ValidationError,
    serialize_arrangement,
    validate_arrangement,
)
from coniclines.polynomials import TernaryForm

CRITERION6_SEED = 99  # the acceptance test's criterion-6 corpus
MIXED_SIZE = 20
LINES_SEED = 1
CLI_SEED = 1
CLI_FILES = 4


def _criterion6_arrangement(rng: random.Random) -> Arrangement | None:
    """One draw of the acceptance test's criterion-6 generator: 0-4 lines and
    0-3 conics, coefficients p/q with |p| <= 4 and 1 <= q <= 3."""
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
        curves.append(PlaneCurve("line", TernaryForm.line(*vals)))
    for _ in range(n_conics):
        vals = [coeff() for _ in range(6)]
        try:
            form = TernaryForm.conic(*vals)
        except ValueError:
            return None
        curves.append(PlaneCurve("conic", form))
    return Arrangement(tuple(curves))


def criterion6_corpus(seed: int = CRITERION6_SEED) -> list[Arrangement]:
    """The first MIXED_SIZE draws that pass validate_arrangement, as in the
    acceptance test's criterion 6."""
    rng = random.Random(seed)
    out = []
    while len(out) < MIXED_SIZE:
        arr = _criterion6_arrangement(rng)
        if arr is None:
            continue
        try:
            validate_arrangement(arr)
        except ValidationError:
            continue
        out.append(arr)
    return out


def mixed_irrational(seed: int) -> list[tuple[str, Arrangement, None]]:
    """The criterion-6 corpus: 0-4 lines and 0-3 conics per arrangement, most
    points in quadratic and quartic fields."""
    inputs = [(f"mixed-{i:02d}", arr, None) for i, arr in enumerate(criterion6_corpus())]
    random.Random(seed).shuffle(inputs)
    return inputs


def _primitive_lines(bound: int) -> list[tuple[int, int, int]]:
    """Integer line vectors with entries in [-bound, bound], one per line:
    gcd 1 and first nonzero entry positive."""
    out = []
    for v in product(range(-bound, bound + 1), repeat=3):
        nonzero = [c for c in v if c != 0]
        if nonzero and nonzero[0] > 0 and gcd(*v) == 1:
            out.append(v)
    return out


def line_arrangement_type(lines: list[tuple[int, int, int]]) -> dict[str, int]:
    """t of a line arrangement, computed here from exact cross products: the
    known answer the engine's result is checked against."""
    through: dict[tuple[F, ...], set[int]] = {}
    for i, j in combinations(range(len(lines)), 2):
        (a1, b1, c1), (a2, b2, c2) = lines[i], lines[j]
        v = (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)
        pivot = next(x for x in reversed(v) if x != 0)
        through.setdefault(tuple(F(x, pivot) for x in v), set()).update((i, j))
    t: dict[int, int] = {}
    for incident in through.values():
        t[len(incident)] = t.get(len(incident), 0) + 1
    return {str(r): n for r, n in sorted(t.items())}


def rational_incidence(seed: int) -> list[tuple[str, Arrangement, dict[str, int]]]:
    """pencil4 for k = 2..10 (parameters 1..k), dbe-sharpness, and 40 lines
    with coefficients in [-2, 2], whose many concurrent lines give rational
    points of high multiplicity; each with its known type."""
    inputs = [(f"pencil4-k{k}", build_pencil4(k, range(1, k + 1)),
               {"2": 1, str(k + 1): 4}) for k in range(2, 11)]
    inputs.append(("dbe-sharpness", build_dbe_sharpness(), {"2": 3, "6": 4}))
    vectors = random.Random(LINES_SEED).sample(_primitive_lines(2), 40)
    lines = [PlaneCurve("line", TernaryForm.line(*v), f"l{i + 1}")
             for i, v in enumerate(vectors)]
    inputs.append(("lines-40", Arrangement(tuple(lines)), line_arrangement_type(vectors)))
    random.Random(seed).shuffle(inputs)
    return inputs


def cli_files(seed: int) -> list[tuple[str, str]]:
    """CLI_FILES arrangement files of 2 lines and 2 conics with 10-digit
    integer coefficients, as text in the package's arrangement format."""
    base = random.Random(CLI_SEED)
    big = lambda: base.choice((-1, 1)) * base.randint(10 ** 9, 10 ** 10 - 1)  # noqa: E731
    out = []
    for i in range(CLI_FILES):
        while True:
            curves = [PlaneCurve("line", TernaryForm.line(*(big() for _ in range(3))))
                      for _ in range(2)]
            curves += [PlaneCurve("conic", TernaryForm.conic(*(big() for _ in range(6))))
                       for _ in range(2)]
            arr = Arrangement(tuple(curves))
            try:
                validate_arrangement(arr)
            except ValidationError:
                continue
            out.append((f"file-{i}", serialize_arrangement(arr)))
            break
    random.Random(seed).shuffle(out)
    return out
