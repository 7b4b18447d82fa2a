"""Exact rational and integer coefficients.

  coprime_integers  -- rational coefficients scaled to coprime integers: how
                       a line or conic is stored (``curves.PlaneCurve``);
  primitive         -- the same for a univariate polynomial, with positive
                       leading coefficient.  The engine computes in these
                       integers.
  parse_integer     -- the integers of the file formats, ASCII
                       ``[+-]?[0-9]+`` and nothing else;
  parse_rational    -- the rationals ``p`` and ``p/q`` of two such integers;
                       ``str`` of a ``Fraction`` writes them back.

Everything here is exact; there is no floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_integer(text: str) -> int:
    """Parse an integer written as ASCII ``[+-]?[0-9]+``.  ``int`` alone
    would also take ``_`` separators, surrounding whitespace and any Unicode
    decimal digit; those raise ValueError here."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse a rational written as ``p/q`` or ``p``, each of p and q an
    integer of ``parse_integer``."""
    num, slash, den = text.partition("/")
    den = parse_integer(den) if slash else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(parse_integer(num), den)


def coprime_integers(values: Sequence) -> tuple[int, ...]:
    """Integer or rational values, not all zero, scaled by one rational to
    coprime integers (the same curve or polynomial)."""
    try:
        common = gcd(*values)
    except TypeError:  # a Fraction among the values
        den = lcm(*(v.denominator for v in values))
        values = [v.numerator * (den // v.denominator) for v in values]
        common = gcd(*values)
    return tuple(values) if common == 1 else tuple([v // common for v in values])


def primitive(coeffs: Sequence) -> tuple[int, ...]:
    """The primitive integer polynomial of a nonzero univariate polynomial
    (integer or rational coefficients, lowest degree first, the last one
    nonzero): coprime integer coefficients with positive leading
    coefficient."""
    ints = coprime_integers(coeffs)
    return ints if ints[-1] > 0 else tuple([-v for v in ints])


class TernaryForm:
    """Two constructors kept only for ``perfbench/workloads.py``, which builds
    its inputs as ``PlaneCurve(kind, TernaryForm.line(...))`` and catches
    ValueError from ``TernaryForm.conic`` on a zero draw.  Each returns its
    arguments as a tuple.  To be deleted with those calls in the benchmark
    change of ROADMAP item 1."""

    @staticmethod
    def line(a, b, c) -> tuple:
        return _nonzero((a, b, c))

    @staticmethod
    def conic(a, b, c, d, e, f) -> tuple:
        return _nonzero((a, b, c, d, e, f))


def _nonzero(values: tuple) -> tuple:
    if not any(values):
        raise ValueError("zero form")
    return values
