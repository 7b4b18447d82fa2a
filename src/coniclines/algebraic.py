"""Exact algebraic numbers as elements of number fields.

Every irrational number the engine meets is born as a root of an
irreducible factor f of a univariate rational polynomial (a line-conic
quadratic or an eliminated conic-conic quartic).  It then lives in the
number field Q[a]/(f): an AlgebraicNumber is a rational, or a field element
together with the index k of the conjugate root a_k of f it is evaluated
at.  The deg f conjugates share one exact representation; anything decided
by field arithmetic (zero tests, incidence, tangency) holds for all of them
at once.

Field arithmetic is integer arithmetic.  For the primitive integer witness
f = c_n a^n + ... + c_0, the number b = c_n a is a root of the monic integer
polynomial g(b) = c_n^(n-1) f(b / c_n) (Cohen, A Course in Computational
Algebraic Number Theory, GTM 138).  A field element is an integer
coefficient vector in 1, b, ..., b^(n-1) over one positive integer
denominator.  Because g is monic, a product is reduced modulo g by integer
multiply and subtract alone: no Fraction, no gcd per operation, no modular
inverse.  The reduced vector of an integral element is unique, so the zero
test is the zero vector.  Only division needs an inverse; it solves the
element's multiplication matrix by Cramer's rule over the integers, and the
engine uses it only to normalize a point for display.

The only sympy call is ``factor_list`` over ZZ, which splits a primitive
integer polynomial into its irreducible factors.  Numeric values are for
display only: mpmath ``polyroots`` (mpmath ships with sympy) finds the
roots of f, taken in a fixed order, and conjugate k evaluates its vector at
b_k = c_n a_k.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import sympy as sp

from .polynomials import UPoly, format_rational

_X = sp.Symbol("x")


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss elimination, every
    division exact)."""
    m = [list(row) for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


class NumberField:
    """Q[a]/(f) for an irreducible witness f of degree n >= 2, computed in
    the integral generator b = c_n a, a root of the monic g.

    ``witness`` is the primitive integer f with positive leading coefficient
    ``lead`` = c_n; ``monic`` holds g_0 .. g_(n-1), where g(b) = b^n +
    g_(n-1) b^(n-1) + ... + g_0 and g_i = c_i c_n^(n-1-i).  Fields compare
    equal when their witnesses do.  The complex roots of f are computed on
    first use, for display only, and kept in one fixed order: conjugate k
    is the k-th root.
    """

    __slots__ = ("witness", "lead", "monic", "_roots")

    def __init__(self, witness: UPoly):
        if witness.degree < 2:
            raise ValueError("a number field witness has degree >= 2")
        self.witness = witness.primitive()
        coeffs = [int(c) for c in self.witness.coeffs]
        n = len(coeffs) - 1
        self.lead = coeffs[-1]
        self.monic = tuple(c * self.lead ** (n - 1 - i) for i, c in enumerate(coeffs[:-1]))
        self._roots: dict[int, list] = {}

    @property
    def degree(self) -> int:
        return len(self.monic)

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberField) and self.witness == other.witness

    def __hash__(self) -> int:
        return hash(self.witness)

    # -- integer kernel -------------------------------------------------------

    def reduce(self, coeffs: list[int]) -> list[int]:
        """The integer vector in b of length n congruent to the polynomial
        ``coeffs`` (in b, lowest first, any length) modulo g; ``coeffs`` is
        consumed."""
        n, g = len(self.monic), self.monic
        for top in range(len(coeffs) - 1, n - 1, -1):
            c = coeffs[top]
            if c:
                base = top - n
                for i in range(n):
                    coeffs[base + i] -= c * g[i]
        del coeffs[n:]
        coeffs.extend([0] * (n - len(coeffs)))
        return coeffs

    def dot(self, us, vs) -> list[int]:
        """The reduced vector of sum_i us[i] * vs[i], for integer vectors in
        b of length at most n; one reduction for the whole sum."""
        acc = [0] * (2 * len(self.monic) - 1)
        for u, v in zip(us, vs):
            for i, ui in enumerate(u):
                if ui:
                    for j, vj in enumerate(v):
                        acc[i + j] += ui * vj
        return self.reduce(acc)

    def element(self, coeffs, den: int = 1, conjugate: int = 0) -> "AlgebraicNumber":
        """The number (sum_i coeffs[i] b^i) / den at conjugate k."""
        return AlgebraicNumber(tuple(coeffs), self, conjugate, den)

    def generator(self, conjugate: int = 0) -> "AlgebraicNumber":
        """The root a_k = b_k / c_n of the witness, for k = ``conjugate``."""
        return self.element((0, 1) + (0,) * (self.degree - 2), self.lead, conjugate)

    def _inverse(self, coeffs: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """(w, D) with (sum_i w_i b^i) / D the inverse of the nonzero
        element sum_i coeffs[i] b^i: Cramer's rule on its multiplication
        matrix, whose column j is coeffs * b^j."""
        n = self.degree
        columns, col = [], list(coeffs)
        for _ in range(n):
            columns.append(col)
            col = self.reduce([0] + col)
        matrix = [[columns[j][i] for j in range(n)] for i in range(n)]
        den = _det(matrix)
        if den == 0:
            raise ZeroDivisionError("element not invertible modulo the witness")
        unit = [1] + [0] * (n - 1)
        out = tuple(_det([row[:j] + [unit[i]] + row[j + 1:] for i, row in enumerate(matrix)])
                    for j in range(n))
        if den < 0:
            return tuple(-c for c in out), -den
        return out, den

    # -- display ----------------------------------------------------------------

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


class AlgebraicNumber:
    """A rational, or a field element at the conjugate root a_k.

    When ``field`` is None, ``value`` is a Fraction.  Otherwise ``value`` is
    the integer vector in b and ``den`` the positive denominator, and some
    coefficient of b^1 .. b^(n-1) is nonzero (such a value is never
    rational, so it is never zero).  Arithmetic mixes rationals with
    anything, and field elements only within one field at one conjugate;
    equality across fields or conjugates is not decided.
    """

    __slots__ = ("value", "den", "field", "conjugate")

    def __init__(self, value, field: NumberField | None = None,
                 conjugate: int = 0, den: int = 1):
        if field is not None and not any(value[1:]):
            value, field = Fraction(value[0], den), None
        if field is None:
            value = value if isinstance(value, Fraction) else Fraction(value)
            den, conjugate = 1, 0
        self.value = value
        self.den = den
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
        return AlgebraicNumber(self.value, self.field, conjugate, self.den)

    # -- arithmetic ---------------------------------------------------------

    def _operands(self, other):
        """(field, conjugate, (vector, den) of self, (vector, den) of other)
        in the common field of two numbers, at least one irrational."""
        if self.field is not None and other.field is not None and (
                self.field != other.field or self.conjugate != other.conjugate):
            raise ValueError("the numbers lie in different fields or conjugates")
        lead = self if self.field is not None else other
        n = lead.field.degree
        return lead.field, lead.conjugate, self._vector(n), other._vector(n)

    def _vector(self, n: int) -> tuple[tuple[int, ...], int]:
        if self.field is not None:
            return self.value, self.den
        return (self.value.numerator,) + (0,) * (n - 1), self.value.denominator

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field is None and other.field is None:
            return AlgebraicNumber(self.value + other.value)
        field, k, (u, du), (v, dv) = self._operands(other)
        if du == dv:
            return AlgebraicNumber(tuple(a + b for a, b in zip(u, v)), field, k, du)
        return AlgebraicNumber(tuple(a * dv + b * du for a, b in zip(u, v)), field, k, du * dv)

    __radd__ = __add__

    def __neg__(self):
        if self.field is None:
            return AlgebraicNumber(-self.value)
        return AlgebraicNumber(tuple(-c for c in self.value), self.field, self.conjugate, self.den)

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
        field, k, (u, du), (v, dv) = self._operands(other)
        if self.field is None or other.field is None:
            scalar, vector = (u[0], v) if self.field is None else (v[0], u)
            return AlgebraicNumber(tuple(scalar * c for c in vector), field, k, du * dv)
        return AlgebraicNumber(tuple(field.dot((u,), (v,))), field, k, du * dv)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicNumber":
        if self.is_zero:
            raise ZeroDivisionError("division by an algebraic zero")
        if self.field is None:
            return AlgebraicNumber(1 / self.value)
        w, den = self.field._inverse(self.value)
        return AlgebraicNumber(tuple(c * self.den for c in w), self.field, self.conjugate, den)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field is None or other.field is None:
            return self.field is other.field and self.value == other.value
        if self.field != other.field or self.conjugate != other.conjugate:
            raise ValueError("equality across fields or conjugates is not decided")
        return all(a * other.den == b * self.den for a, b in zip(self.value, other.value))

    def __hash__(self):
        if self.field is None:
            return hash(self.value)
        common = gcd(self.den, *self.value)
        return hash((self.field, tuple(c // common for c in self.value),
                     self.den // common, self.conjugate))

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
            with mpmath.workdps(dps):
                b = self.field.roots(dps)[self.conjugate] * self.field.lead
                total, scale = mpmath.mpc(0), mpmath.mpf(0)
                for i, c in enumerate(self.value):
                    term = mpmath.mpf(c) / self.den * b ** i
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
    coeffs = [int(c) for c in reversed(p.primitive().coeffs)]
    out = []
    _content, factors = sp.Poly(coeffs, _X, domain="ZZ").factor_list()
    for factor_sp, mult in factors:
        factor = [int(c) for c in reversed(factor_sp.rep.to_list())]
        if len(factor) == 2:
            out.append((AlgebraicNumber(Fraction(-factor[0], factor[1])), int(mult)))
        else:
            out.append((NumberField(UPoly(factor)).generator(), int(mult)))
    return out
