"""Exact algebraic numbers as elements of number fields.

Every irrational number the engine meets is born as a root of an
irreducible factor f of a univariate rational polynomial (a line-conic
quadratic or an eliminated conic-conic quartic).  It then lives in the
number field Q[a]/(f): an AlgebraicNumber is a rational, or a polynomial in
a reduced modulo f together with the index k of the conjugate root a_k of f
it is evaluated at.  The deg f conjugates share one exact representation;
anything decided by field arithmetic (zero tests, incidence, tangency)
holds for all of them at once.

Arithmetic, zero tests and equality are exact Fraction polynomial
arithmetic.  The only sympy call is ``factor_list``, which splits a
polynomial into its irreducible factors.  Numeric values are for display
only: mpmath ``polyroots`` (mpmath ships with sympy) finds the roots of f,
taken in a fixed order, and conjugate k evaluates its polynomial at the k-th.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp

from .polynomials import UPoly, format_rational

_X = sp.Symbol("x")


def upoly_to_sympy(p: UPoly) -> sp.Poly:
    return sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                   _X, domain="QQ")


def sympy_to_upoly(p) -> UPoly:
    poly = sp.Poly(p, _X, domain="QQ")
    return UPoly([Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


def _poly_inverse_mod(g: UPoly, f: UPoly) -> UPoly:
    """Inverse of g modulo the irreducible polynomial f (extended Euclid)."""
    r0, r1 = f, g
    s0, s1 = UPoly(), UPoly([Fraction(1)])
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise ZeroDivisionError("element not invertible modulo the witness")
    inv_lead = Fraction(1) / r0.coeffs[0]
    return UPoly([c * inv_lead for c in s0.coeffs])


class NumberField:
    """Q[a]/(f) for an irreducible witness f of degree >= 2.

    Fields compare equal when their primitive witnesses do.  The complex
    roots of f are computed on first use, for display only, and kept in one
    fixed order: conjugate k is the k-th root.
    """

    __slots__ = ("witness", "_roots")

    def __init__(self, witness: UPoly):
        if witness.degree < 2:
            raise ValueError("a number field witness has degree >= 2")
        self.witness = witness.primitive()
        self._roots: dict[int, list] = {}

    @property
    def degree(self) -> int:
        return self.witness.degree

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberField) and self.witness == other.witness

    def __hash__(self) -> int:
        return hash(self.witness)

    def roots(self, dps: int = 30) -> list:
        """The roots of the witness as mpmath numbers accurate to ``dps``
        digits, in the order fixed by the first call."""
        if dps not in self._roots:
            import mpmath

            coeffs = [int(c) for c in reversed(self.witness.coeffs)]
            with mpmath.workdps(dps):
                found = list(mpmath.polyroots(coeffs, maxsteps=200, extraprec=dps + 20))
            if self._roots:
                base = self._roots[min(self._roots)]
                found = [min(found, key=lambda r, b=b: abs(r - b)) for b in base]
            else:
                found.sort(key=lambda r: (round(float(r.real), 9), float(r.imag)))
            self._roots[dps] = found
        return self._roots[dps]

    def generator(self, conjugate: int = 0) -> "AlgebraicNumber":
        """The root a_k of the witness, for k = ``conjugate``."""
        return AlgebraicNumber(UPoly([0, 1]), self, conjugate)


class AlgebraicNumber:
    """A rational, or the value at a_k of a polynomial reduced modulo the
    witness of a number field.

    ``value`` is a Fraction when ``field`` is None, else a UPoly of degree
    1 .. deg f - 1 (the witness is irreducible, so such a value is never
    rational and is zero only as the zero polynomial).  Arithmetic mixes
    rationals with anything, and field elements only within one field at
    one conjugate; equality across fields or conjugates is not decided.
    """

    __slots__ = ("value", "field", "conjugate")

    def __init__(self, value, field: NumberField | None = None, conjugate: int = 0):
        if field is not None:
            if value.degree >= field.degree:
                value = value % field.witness
            if value.degree <= 0:
                value = value.coeffs[0] if value.coeffs else Fraction(0)
                field = None
        if field is None:
            value = value if isinstance(value, Fraction) else Fraction(value)
            conjugate = 0
        self.value = value
        self.field = field
        self.conjugate = conjugate

    @classmethod
    def from_rational(cls, value) -> "AlgebraicNumber":
        return cls(value)

    # -- predicates ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.field is None

    def as_fraction(self) -> Fraction:
        if self.field is not None:
            raise ValueError("not a rational number")
        return self.value

    @property
    def is_zero(self) -> bool:
        return self.field is None and self.value == 0

    def at_conjugate(self, conjugate: int) -> "AlgebraicNumber":
        """The same field element evaluated at another conjugate root."""
        if self.field is None:
            return self
        return AlgebraicNumber(self.value, self.field, conjugate)

    # -- arithmetic ---------------------------------------------------------

    def _operands(self, other):
        """(field, conjugate, value of self, value of other), the values as
        UPolys in the common field of two numbers, at least one irrational."""
        if self.field is not None and other.field is not None and (
                self.field != other.field or self.conjugate != other.conjugate):
            raise ValueError("the numbers lie in different fields or conjugates")
        lead = self if self.field is not None else other
        a = self.value if self.field is not None else UPoly([self.value])
        b = other.value if other.field is not None else UPoly([other.value])
        return lead.field, lead.conjugate, a, b

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field is None and other.field is None:
            return AlgebraicNumber(self.value + other.value)
        field, k, a, b = self._operands(other)
        return AlgebraicNumber(a + b, field, k)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(-self.value, self.field, self.conjugate)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field is None and other.field is None:
            return AlgebraicNumber(self.value * other.value)
        field, k, a, b = self._operands(other)
        return AlgebraicNumber(a * b, field, k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by an algebraic zero")
        if self.field is None and other.field is None:
            return AlgebraicNumber(self.value / other.value)
        field, k, a, b = self._operands(other)
        return AlgebraicNumber(a * _poly_inverse_mod(b, field.witness), field, k)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field is None or other.field is None:
            return self.field is other.field and self.value == other.value
        if self.field != other.field or self.conjugate != other.conjugate:
            raise ValueError("equality across fields or conjugates is not decided")
        return self.value == other.value

    def __hash__(self):
        if self.field is None:
            return hash(self.value)
        return hash((self.field, self.value, self.conjugate))

    # -- display ------------------------------------------------------------

    def approx(self, digits: int = 6) -> complex:
        """A complex approximation with at least ``digits`` correct digits,
        evaluated from the roots of the witness at rising precision until
        cancellation leaves enough of them."""
        if self.field is None:
            return complex(self.value)
        import mpmath

        dps = 30
        while True:
            root = self.field.roots(dps)[self.conjugate]
            with mpmath.workdps(dps):
                total, scale = mpmath.mpc(0), mpmath.mpf(0)
                for i, c in enumerate(self.value.coeffs):
                    term = mpmath.mpf(c.numerator) / c.denominator * root ** i
                    total += term
                    scale = max(scale, abs(term))
                lost = mpmath.log10(scale / abs(total)) if total != 0 else dps
            if dps - lost >= digits + 5 or dps >= 2000:
                return complex(total)
            dps *= 2

    def __repr__(self) -> str:
        if self.field is None:
            return f"AlgebraicNumber({format_rational(self.value)})"
        v = self.approx()
        return f"AlgebraicNumber(~{v.real:.6g}{v.imag:+.6g}j)"


def _coerce(value):
    if isinstance(value, AlgebraicNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return AlgebraicNumber(value)
    return NotImplemented


def root_orbits(p: UPoly) -> list[tuple[AlgebraicNumber, int]]:
    """One root per irreducible factor of p, with the factor's multiplicity.

    A linear factor gives its rational root; a factor f of degree >= 2 gives
    the generator of Q[a]/(f) at conjugate 0, which stands for all deg f
    roots of f.  Factors come in sympy's order; the roots counted with
    degree and multiplicity number deg p.
    """
    if p.is_zero:
        raise ValueError("cannot find the roots of the zero polynomial")
    out = []
    _coeff, factors = upoly_to_sympy(p).factor_list()
    for factor_sp, mult in factors:
        factor = sympy_to_upoly(factor_sp)
        if factor.degree == 1:
            out.append((AlgebraicNumber(-factor.coeffs[0] / factor.coeffs[1]), int(mult)))
        else:
            out.append((NumberField(factor).generator(), int(mult)))
    return out
