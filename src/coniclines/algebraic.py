"""Exact algebraic numbers as elements of number fields.

Every irrational number the engine meets is born as a root of an
irreducible factor f of a univariate integer polynomial (a line-conic
quadratic or an eliminated conic-conic quartic).  It then lives in the
number field Q[a]/(f), a ``NumberField``.  The deg f conjugates share one
exact representation, an integer vector; anything decided by field
arithmetic (zero tests, incidence, tangency) holds for all of them at once.

Field arithmetic is integer arithmetic.  For the primitive integer witness
f = c_n a^n + ... + c_0, the number b = c_n a is a root of the monic integer
polynomial g(b) = c_n^(n-1) f(b / c_n) (Cohen, A Course in Computational
Algebraic Number Theory, GTM 138).  A field element is an integer
coefficient vector in 1, b, ..., b^(n-1) over one positive integer
denominator.  Because g is monic, a product is reduced modulo g by integer
multiply and subtract alone: no Fraction, no gcd per operation, no modular
inverse.  The reduced vector of an integral element is unique, so the zero
test is the zero vector.  The engine computes on these vectors alone.  The
one division in the package is ``NumberField.inverse``, which solves an
element's multiplication matrix by Cramer's rule over the integers; it
serves only to display a point with its last nonzero coordinate 1.

An AlgebraicNumber is a rational, or a field element together with the
index k of the conjugate root a_k of f it is evaluated at.  It is the value
type of point coordinates and tangent lines for display and the public API:
it compares by value and approximates itself, and has no arithmetic.

Roots come in orbits (``root_orbits``), one per irreducible factor: a
rational root as a Fraction, or the NumberField of a factor of degree >= 2.
Integers decide the factors wherever they can.  A linear or quadratic
polynomial is split by the integer square root of its discriminant.  A
cubic or quartic is a single orbit when a modular certificate proves it
irreducible: its factor degrees modulo a few fixed small primes leave no
degree for a rational factor.  Modulo a prime that divides neither its
leading coefficient nor its discriminant D, those degrees follow from two
numbers: its count of roots mod p, and the parity of the factor count,
which the Legendre symbol (D/p) gives.  What is reducible, has a repeated
factor, is not certified or has degree >= 5 goes to sympy's
``factor_list`` over ZZ, the only sympy call.  Numeric values are for
display only: mpmath ``polyroots`` finds the roots of f, taken in a fixed
order, and conjugate k evaluates its vector at b_k = c_n a_k.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

import sympy as sp

from .polynomials import format_rational, primitive

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

    ``witness`` is the primitive integer f (coefficients lowest degree
    first) with positive leading coefficient ``lead`` = c_n; ``monic`` holds
    g_0 .. g_(n-1), where g(b) = b^n + g_(n-1) b^(n-1) + ... + g_0 and
    g_i = c_i c_n^(n-1-i).  Fields compare equal when their witnesses do.
    The complex roots of f are computed on first use, for display only, and
    kept in one fixed order: conjugate k is the k-th root.
    """

    __slots__ = ("witness", "lead", "monic", "_roots")

    def __init__(self, witness: Sequence[int]):
        if len(witness) < 3 or witness[-1] == 0:
            raise ValueError("a number field witness has degree >= 2")
        self.witness = coeffs = primitive(witness)
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

    def inverse(self, coeffs: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """(w, D) with (sum_i w_i b^i) / D the inverse of the nonzero
        element sum_i coeffs[i] b^i: Cramer's rule on its multiplication
        matrix, whose column j is coeffs * b^j.  The zero vector raises
        ZeroDivisionError."""
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

            coeffs = list(reversed(self.witness))
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
    """A rational, or a field element at the conjugate root a_k, for
    display and the public API; the engine builds none.

    When ``field`` is None, ``value`` is a Fraction.  Otherwise ``value`` is
    the integer vector in b and ``den`` the positive denominator, and some
    coefficient of b^1 .. b^(n-1) is nonzero (such a value is never
    rational, so it is never zero).  There is no arithmetic.  Numbers
    compare (==) and hash by value, also against int and Fraction; equality
    across fields or conjugates is not decided.
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

    @property
    def is_rational(self) -> bool:
        return self.field is None

    def as_fraction(self) -> Fraction:
        if self.field is not None:
            raise ValueError("not a rational number")
        return self.value

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.field is None and self.value == other
        if not isinstance(other, AlgebraicNumber):
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


# The primes of the irreducibility certificate, tried in this order.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def root_orbits(coeffs: Sequence[int]) -> list[tuple[Fraction | NumberField, int]]:
    """One root per irreducible factor of a nonzero integer polynomial
    (coefficients lowest degree first), with the factor's multiplicity.

    A linear factor gives its rational root as a Fraction; a factor f of
    degree >= 2 gives its NumberField Q[a]/(f), which stands for all deg f
    roots of f.  Factors come in sympy's order (degree, then multiplicity,
    then coefficients); the roots counted with degree and multiplicity
    number the degree of the polynomial.

    Integers decide what they can: a linear or quadratic polynomial is
    split by the integer square root of its discriminant, and a cubic or
    quartic is one orbit when a modular certificate proves it irreducible.
    Only a polynomial that is reducible, has a repeated factor, is not
    certified or has degree >= 5 goes to sympy's ``factor_list``.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("cannot find the roots of the zero polynomial")
    f = primitive(coeffs)
    n = len(f) - 1
    if n == 0:
        return []
    if n == 1:
        return [(Fraction(-f[0], f[1]), 1)]
    if n == 2:
        c, b, a = f
        disc = b * b - 4 * a * c
        root = isqrt(disc) if disc >= 0 else -1
        if root * root == disc:
            if root == 0:
                return [(Fraction(-b, 2 * a), 2)]
            # the primitive factor of p/q is q x - p: sympy sorts by q, then -p
            roots = sorted((Fraction(-b - root, 2 * a), Fraction(-b + root, 2 * a)),
                           key=lambda r: (r.denominator, -r.numerator))
            return [(r, 1) for r in roots]
        return [(NumberField(f), 1)]
    if n <= 4 and _certified_irreducible(f):
        return [(NumberField(f), 1)]
    out = []
    _content, factors = sp.Poly(list(reversed(f)), _X, domain="ZZ").factor_list()
    for factor_sp, mult in factors:
        factor = [int(c) for c in reversed(factor_sp.rep.to_list())]
        if len(factor) == 2:
            out.append((Fraction(-factor[0], factor[1]), int(mult)))
        else:
            out.append((NumberField(factor), int(mult)))
    return out


# -- the irreducibility certificate ----------------------------------------------
#
# A factor of f over Q of degree d reduces, modulo a prime p that does not
# divide the leading coefficient, to a product of irreducible factors of f
# mod p, so d is a sum of some of their degrees.  f is irreducible once no d
# in 1 .. n/2 is such a sum for every prime tried (von zur Gathen and
# Gerhard, Modern Computer Algebra, ch. 14-15).  For a cubic or a quartic
# two numbers fix those degrees modulo a prime p dividing neither the
# leading coefficient nor the discriminant D (f is then squarefree mod p):
# the count of its roots mod p, and for odd p the Legendre symbol (D/p),
# which is (-1)^(n - r) for r irreducible factors (Stickelberger; Swan,
# Pacific J. Math. 12, 1962).


def _certified_irreducible(f: tuple[int, ...]) -> bool:
    """Is f, a primitive cubic or quartic, proved irreducible over Q by its
    factor degrees modulo the primes of _PRIMES?  A polynomial with a
    repeated factor (discriminant 0) is never certified."""
    disc = _discriminant(f)
    if disc == 0:
        return False
    possible = set(range(1, (len(f) - 1) // 2 + 1))
    for p in _PRIMES:
        pattern = _degree_pattern(f, disc, p)
        if pattern is None:
            continue
        sums = {0}
        for d in pattern:
            sums |= {s + d for s in sums}
        possible &= sums
        if not possible:
            return True
    return False


def _discriminant(f: Sequence[int]) -> int:
    """The discriminant of an integer cubic or quartic (coefficients lowest
    degree first), from its closed form."""
    if len(f) == 4:
        d, c, b, a = f
        return (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d - 27 * a * a * d * d
                + 18 * a * b * c * d)
    e, d, c, b, a = f
    return (256 * a ** 3 * e ** 3 - 192 * a * a * b * d * e * e
            - 128 * a * a * c * c * e * e + 144 * a * a * c * d * d * e
            - 27 * a * a * d ** 4 + 144 * a * b * b * c * e * e - 6 * a * b * b * d * d * e
            - 80 * a * b * c * c * d * e + 18 * a * b * c * d ** 3 + 16 * a * c ** 4 * e
            - 4 * a * c ** 3 * d * d - 27 * b ** 4 * e * e + 18 * b ** 3 * c * d * e
            - 4 * b ** 3 * d ** 3 - 4 * b * b * c ** 3 * e + b * b * c * c * d * d)


def _degree_pattern(f: Sequence[int], disc: int, p: int) -> tuple[int, ...] | None:
    """The sorted degrees of the irreducible factors of the cubic or quartic
    f modulo the prime p, given its discriminant; None when p divides the
    leading coefficient or the discriminant.

    Otherwise f is squarefree mod p, so its roots mod p are its linear
    factors.  A cubic with none is irreducible; a quartic with none is one
    factor of degree 4 or two of degree 2, told apart by the Legendre symbol
    (D/p) = (-1)^(n - r) for r factors.  Over GF(2) there is one irreducible
    quadratic, so a squarefree quartic without roots is irreducible there.
    """
    if f[-1] % p == 0 or disc % p == 0:
        return None
    e, d, c, b, a = [v % p for v in f] + [0] * (5 - len(f))
    roots = sum(1 for x in range(p) if ((((a * x + b) * x + c) * x + d) * x + e) % p == 0)
    n = len(f) - 1
    if roots == 0:
        if n == 3 or p == 2 or pow(disc, (p - 1) // 2, p) != 1:
            return (n,)
        return (2, 2)
    return (1,) * roots + ((n - roots,) if roots < n else ())
