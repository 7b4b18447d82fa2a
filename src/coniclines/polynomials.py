"""Exact polynomials over the rationals.

  TernaryForm       -- homogeneous forms in (x, y, z) with Fraction
                       coefficients, stored sparsely by exponent triple.
                       Used as the defining equations of lines and conics.
  coprime_integers  -- rational coefficients scaled to coprime integers;
  primitive         -- the same for a univariate polynomial, with positive
                       leading coefficient.  The engine computes in these
                       integers.

Everything here is exact; there is no floating point.  Rational parsing and
formatting for the file formats live here too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

Exponent = tuple[int, int, int]

VARS = ("x", "y", "z")


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def parse_rational(text: str) -> Fraction:
    """Parse a rational written as ``p/q`` or ``p``."""
    text = text.strip()
    if "/" in text:
        num, den = (int(v) for v in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    value = _frac(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def coprime_integers(values: Sequence) -> tuple[int, ...]:
    """Integer or rational values, not all zero, scaled by one rational to
    coprime integers (the same curve or polynomial)."""
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    common = gcd(*ints)
    return tuple(v // common for v in ints)


def primitive(coeffs: Sequence) -> tuple[int, ...]:
    """The primitive integer polynomial of a nonzero univariate polynomial
    (integer or rational coefficients, lowest degree first, the last one
    nonzero): coprime integer coefficients with positive leading
    coefficient."""
    ints = coprime_integers(coeffs)
    return ints if ints[-1] > 0 else tuple(-v for v in ints)


# --------------------------------------------------------------------------
# Homogeneous ternary forms


class TernaryForm:
    """Homogeneous form in (x, y, z) over Q, stored as {(a, b, c): coeff}."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Mapping[Exponent, object]):
        if degree < 1:
            raise ValueError("form degree must be >= 1")
        clean: dict[Exponent, Fraction] = {}
        for expo, c in coeffs.items():
            if sum(expo) != degree:
                raise ValueError(f"exponent {expo} not of degree {degree}")
            c = _frac(c)
            if c != 0:
                clean[tuple(expo)] = c  # type: ignore[index]
        if not clean:
            raise ValueError("zero form")
        self.degree = degree
        self.coeffs = clean

    @classmethod
    def line(cls, a, b, c) -> "TernaryForm":
        return cls(1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})

    @classmethod
    def conic(cls, a, b, c, d, e, f) -> "TernaryForm":
        """a x^2 + b y^2 + c z^2 + d xy + e xz + f yz."""
        return cls(2, {(2, 0, 0): a, (0, 2, 0): b, (0, 0, 2): c,
                       (1, 1, 0): d, (1, 0, 1): e, (0, 1, 1): f})

    def conic_coefficients(self) -> tuple[Fraction, ...]:
        if self.degree != 2:
            raise ValueError("not a conic")
        order = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        return tuple(self.coeffs.get(e, Fraction(0)) for e in order)

    def line_coefficients(self) -> tuple[Fraction, ...]:
        if self.degree != 1:
            raise ValueError("not a line")
        order = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        return tuple(self.coeffs.get(e, Fraction(0)) for e in order)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TernaryForm)
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.degree, tuple(sorted(self.coeffs.items()))))

    def scale(self, factor) -> "TernaryForm":
        factor = _frac(factor)
        if factor == 0:
            raise ValueError("scaling a form by zero")
        return TernaryForm(self.degree, {e: c * factor for e, c in self.coeffs.items()})

    def proportional_to(self, other: "TernaryForm") -> bool:
        if self.degree != other.degree or set(self.coeffs) != set(other.coeffs):
            return False
        expo = next(iter(self.coeffs))
        ratio = other.coeffs[expo] / self.coeffs[expo]
        return all(other.coeffs[e] == c * ratio for e, c in self.coeffs.items())

    def __call__(self, x, y, z):
        """Evaluate; works for Fraction, sympy, and AlgebraicNumber inputs."""
        total = None
        for (a, b, c), coeff in sorted(self.coeffs.items()):
            # build terms factor-wise: x**0 on foreign types can be surprising
            term = coeff
            for base, expo in ((x, a), (y, b), (z, c)):
                for _ in range(expo):
                    term = term * base
            total = term if total is None else total + term
        return total

    def __repr__(self) -> str:
        terms = []
        for expo, c in sorted(self.coeffs.items(), reverse=True):
            mono = "".join(v if e == 1 else f"{v}^{e}"
                           for v, e in zip(VARS, expo) if e)
            cs = format_rational(c)
            if mono:
                terms.append(mono if cs == "1" else f"{cs}*{mono}")
            else:
                terms.append(cs)
        return "TernaryForm(" + " + ".join(terms) + ")"
