"""Exact polynomial arithmetic over the rationals.

Two carriers are provided:

  UPoly       -- dense univariate polynomials with Fraction coefficients,
                 lowest degree first.  Used for eliminated/restricted
                 equations and as minimal-polynomial witnesses.
  TernaryForm -- homogeneous forms in (x, y, z) with Fraction coefficients,
                 stored sparsely by exponent triple.  Used as the defining
                 equations of lines and conics.

Everything here is exact; there is no floating point.  All degrees that
actually occur are small (<= 4 from conic-conic elimination), so the dense
univariate representation and Euclidean gcds are fine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

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


class UPoly:
    """Dense univariate polynomial over Q, coefficients lowest degree first.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: "UPoly") -> "UPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPoly(out)

    def __neg__(self) -> "UPoly":
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other)

    def __mul__(self, other) -> "UPoly":
        if isinstance(other, (int, Fraction)):
            return UPoly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return UPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.leading
        dd = other.degree
        while len(rem) - 1 >= dd and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            shift = len(rem) - 1 - dd
            factor = rem[-1] / dlead
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            rem.pop()
        return UPoly(quo), UPoly(rem)

    def __mod__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[1]

    def __call__(self, value):
        """Horner evaluation; works for Fraction and AlgebraicNumber inputs."""
        if self.is_zero:
            return Fraction(0)
        acc = self.coeffs[-1] + 0 * value  # coerce into the argument's ring
        for c in reversed(self.coeffs[:-1]):
            acc = acc * value + c
        return acc

    def monic(self) -> "UPoly":
        if self.is_zero:
            return self
        lead = self.leading
        return UPoly([c / lead for c in self.coeffs])

    def primitive(self) -> "UPoly":
        """Integer-content-normalized copy with positive leading coefficient."""
        if self.is_zero:
            return self
        den = lcm(*[c.denominator for c in self.coeffs])
        ints = [int(c * den) for c in self.coeffs]
        g = gcd(*ints)
        if ints[-1] < 0:
            g = -g
        return UPoly([Fraction(c, g) for c in ints])

    def __repr__(self) -> str:
        if self.is_zero:
            return "UPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(format_rational(c))
            else:
                pw = "x" if i == 1 else f"x^{i}"
                terms.append(pw if c == 1 else f"{format_rational(c)}*{pw}")
        return "UPoly(" + " + ".join(terms) + ")"


def poly_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic gcd by the Euclidean algorithm (fine at these degrees)."""
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


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

    def compose_linear(self, matrix: Sequence[Sequence[Fraction]]) -> "TernaryForm":
        """Substitute (x, y, z) -> M . (x, y, z) and expand."""
        rows = [[_frac(v) for v in row] for row in matrix]
        out: dict[Exponent, Fraction] = {}
        for expo, coeff in self.coeffs.items():
            # product of the three substituted linear forms, each repeated
            factors = []
            for axis in range(3):
                factors.extend([rows[axis]] * expo[axis])
            terms: dict[Exponent, Fraction] = {(0, 0, 0): coeff}
            for lin in factors:
                nxt: dict[Exponent, Fraction] = {}
                for e, c in terms.items():
                    for var in range(3):
                        if lin[var] == 0:
                            continue
                        ne = list(e)
                        ne[var] += 1
                        key = tuple(ne)
                        nxt[key] = nxt.get(key, Fraction(0)) + c * lin[var]
                terms = nxt
            for e, c in terms.items():
                out[e] = out.get(e, Fraction(0)) + c
        out = {e: c for e, c in out.items() if c != 0}
        if not out:
            raise ValueError("singular substitution matrix")
        return TernaryForm(self.degree, out)

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
