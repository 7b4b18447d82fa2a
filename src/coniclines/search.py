"""Enumeration of balanced combinatorial types and conjecture scans.

The search space is purely combinatorial: every emitted (d, k, t) satisfies
the pairwise intersection identity, but nothing here claims geometric
realizability, and all results are labeled accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import ClassVar, Iterable, Iterator

from .curves import CombinatorialType
from .invariants import check_urzua, log_chern_slope, pair_total

NOT_REALIZABLE_NOTE = "combinatorial only - not necessarily realizable"


def enumerate_types(d: int, k: int, max_mult: int) -> Iterator[CombinatorialType]:
    """All t-vectors with sum C(r,2) t_r = 4*C(k,2) + C(d,2) + 2kd over
    2 <= r <= max_mult, in ascending lexicographic order of
    (t_max_mult, ..., t_2), one at a time.  Bad arguments raise ValueError
    here, before the first type."""
    if d < 0 or k < 0:
        raise ValueError("d and k must be nonnegative")
    if max_mult > k + d:
        raise ValueError("max_mult cannot exceed the number of curves")
    return _types(d, k, max_mult)


def _types(d: int, k: int, max_mult: int) -> Iterator[CombinatorialType]:
    """``enumerate_types`` as an odometer over (t_max_mult, ..., t_3), the
    last digit fastest; t_2, of weight C(2,2) = 1, takes the budget left."""
    left = pair_total(d, k)
    if max_mult < 2:
        if left == 0:
            yield CombinatorialType(d=d, k=k, t={})
        return
    mults = range(max_mult, 2, -1)
    weights = [comb(r, 2) for r in mults]
    counts = [0] * len(weights)
    while True:
        t = {r: n for r, n in zip(mults, counts) if n}
        t[2] = left
        yield CombinatorialType(d=d, k=k, t=t)
        # the last digit that can grow; the digits after it drop to 0
        i = len(counts) - 1
        while i >= 0 and left < weights[i]:
            left += counts[i] * weights[i]
            counts[i] = 0
            i -= 1
        if i < 0:
            return
        counts[i] += 1
        left -= weights[i]


@dataclass
class SlopeWitness:
    ct: CombinatorialType
    slope: Fraction


@dataclass
class ExtremalResult:
    minimum: SlopeWitness
    maximum: SlopeWitness
    considered: int
    skipped_zero_c2: int
    note: ClassVar[str] = NOT_REALIZABLE_NOTE


def extremal_slopes(types: Iterable[CombinatorialType]) -> ExtremalResult:
    """Minimum and maximum exact log-Chern slope over an enumeration.

    Types with log c2 = 0 have no slope; they are skipped and counted.  An
    empty enumeration, or one with no slope, raises ValueError."""
    lo = hi = None
    considered = skipped = 0
    for ct in types:
        slope = log_chern_slope(ct)
        if slope is None:
            skipped += 1
            continue
        considered += 1
        if lo is None or slope < lo.slope:
            lo = SlopeWitness(ct, slope)
        if hi is None or slope > hi.slope:
            hi = SlopeWitness(ct, slope)
    if lo is None:
        if not skipped:
            raise ValueError("no type was enumerated")
        raise ValueError("every enumerated type had log c2 = 0")
    return ExtremalResult(minimum=lo, maximum=hi,
                          considered=considered, skipped_zero_c2=skipped)


CONJECTURES = ("urzua", "slope_8_3", "slope_5_2")


@dataclass
class Violation:
    ct: CombinatorialType
    detail: str
    note: ClassVar[str] = NOT_REALIZABLE_NOTE


def scan_conjecture(types: Iterable[CombinatorialType], which: str
                    ) -> list[Violation]:
    """Collect every type violating the chosen inequality.

    ``urzua``     the combinatorial inequality 8k + 2 t2 + t3 >= d + 3 + ...
    ``slope_8_3`` log-Chern slope > 8/3
    ``slope_5_2`` log-Chern slope > 5/2 (posed over the real plane; the scan
                  itself is field-agnostic and callers label the reading)

    Types with undefined slope are never slope violations.
    """
    if which not in CONJECTURES:
        raise ValueError(f"unknown conjecture {which!r}; choose from {CONJECTURES}")
    out: list[Violation] = []
    for ct in types:
        if which == "urzua":
            _hyp, holds, _slope_ok = check_urzua(ct)
            if not holds:
                out.append(Violation(ct, "urzua inequality fails"))
            continue
        bound = Fraction(8, 3) if which == "slope_8_3" else Fraction(5, 2)
        slope = log_chern_slope(ct)
        if slope is not None and slope > bound:
            out.append(Violation(
                ct, f"slope {slope} = {float(slope):.4f} exceeds {bound}"))
    return out
