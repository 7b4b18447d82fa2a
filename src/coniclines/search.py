"""Enumeration of balanced combinatorial types and conjecture scans.

The search space is purely combinatorial: every emitted (d, k, t) satisfies
the pairwise intersection identity, but nothing here claims geometric
realizability, and all results are labeled accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Iterator

from .curves import CombinatorialType
from .invariants import bezout_defect, check_urzua, log_chern

NOT_REALIZABLE_NOTE = "combinatorial only - not necessarily realizable"


def pair_total(d: int, k: int) -> int:
    """Weighted number of pairwise intersections: 4*C(k,2) + C(d,2) + 2kd."""
    return 4 * comb(k, 2) + comb(d, 2) + 2 * k * d


def enumerate_types(d: int, k: int, max_mult: int,
                    extra_filters: Iterable[Callable[[CombinatorialType], bool]] = ()
                    ) -> Iterator[CombinatorialType]:
    """All t-vectors with sum C(r,2) t_r = 4*C(k,2) + C(d,2) + 2kd over
    2 <= r <= max_mult, in ascending lexicographic order of
    (t_max_mult, ..., t_2); every filter must accept the type."""
    if d < 0 or k < 0:
        raise ValueError("d and k must be nonnegative")
    if max_mult > k + d:
        raise ValueError("max_mult cannot exceed the number of curves")
    filters = tuple(extra_filters)
    total = pair_total(d, k)

    def rec(r: int, remaining: int, acc: dict[int, int]) -> Iterator[CombinatorialType]:
        if r == 2:
            acc[2] = remaining  # C(2,2) = 1 absorbs the remainder exactly
            ct = CombinatorialType(d=d, k=k,
                                   t={m: n for m, n in acc.items() if n})
            if all(f(ct) for f in filters):
                yield ct
            return
        weight = comb(r, 2)
        for count in range(remaining // weight + 1):
            acc[r] = count
            yield from rec(r - 1, remaining - count * weight, acc)
        acc.pop(r, None)

    if max_mult < 2:
        if total == 0:
            ct = CombinatorialType(d=d, k=k, t={})
            if all(f(ct) for f in filters):
                yield ct
        return
    yield from rec(max_mult, total, {})


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
    note: str = NOT_REALIZABLE_NOTE


def extremal_slopes(types: Iterable[CombinatorialType]) -> ExtremalResult:
    """Minimum and maximum exact log-Chern slope over an enumeration.

    Types with log c2 = 0 have no slope; they are skipped and counted."""
    lo = hi = None
    considered = skipped = 0
    for ct in types:
        c1sq, c2 = log_chern(ct)
        if c2 == 0:
            skipped += 1
            continue
        considered += 1
        slope = Fraction(c1sq, c2)
        if lo is None or slope < lo.slope:
            lo = SlopeWitness(ct, slope)
        if hi is None or slope > hi.slope:
            hi = SlopeWitness(ct, slope)
    if lo is None:
        raise ValueError("every enumerated type had log c2 = 0")
    return ExtremalResult(minimum=lo, maximum=hi,
                          considered=considered, skipped_zero_c2=skipped)


CONJECTURES = ("urzua", "slope_8_3", "slope_5_2")


@dataclass
class Violation:
    ct: CombinatorialType
    detail: str
    note: str = NOT_REALIZABLE_NOTE


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
        c1sq, c2 = log_chern(ct)
        if c2 == 0:
            continue
        slope = Fraction(c1sq, c2)
        if slope > bound:
            out.append(Violation(
                ct, f"slope {slope} = {float(slope):.4f} exceeds {bound}"))
    return out


def random_balanced_type(rng, d_max: int = 12, k_max: int = 12,
                         max_mult: int = 8) -> CombinatorialType:
    """A random (d, k, t) with zero pairwise defect, for property testing.

    Draws t_r for high multiplicities within budget and closes the identity
    exactly with double points (weight C(2,2) = 1)."""
    while True:
        d = rng.randint(0, d_max)
        k = rng.randint(0, k_max)
        if d + k >= 2:
            break
    remaining = pair_total(d, k)
    t: dict[int, int] = {}
    top = min(max_mult, d + k)
    for r in range(top, 2, -1):
        weight = comb(r, 2)
        cap = remaining // weight
        if cap == 0:
            continue
        count = rng.randint(0, cap)
        if count:
            t[r] = count
            remaining -= count * weight
    if remaining:
        t[2] = remaining
    ct = CombinatorialType(d=d, k=k, t=t)
    if bezout_defect(ct) != 0:
        raise RuntimeError(f"drew an unbalanced type {ct}")
    return ct
