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
test is the zero vector.  The engine computes on these vectors alone.
Only display divides, and ``NumberField.show`` owns display: ``inverse``
writes the inverse of an element as an integer vector over one positive
integer, from the cofactors of the first row of its multiplication matrix
(Cramer's rule, with no integer division), so that a point prints with its
last nonzero coordinate 1, and ``value`` evaluates such a vector over its
denominator at one conjugate root, as an mpmath number.  No value type
wraps an element: a point's coordinates are its integer vectors.

Roots come in orbits (``root_orbits``), one NumberField per irreducible
factor of a polynomial of degree <= 4.  A rational root p/q is no
exception: it is the field Q[a]/(q a - p) of degree 1, whose integral
generator is b = p, so reducing modulo its witness evaluates at p.  A
point's field is one of these, or ``QQ`` = Q[a]/(a) for a rational point.
Integers decide the factors wherever they can.  A linear polynomial is
its own field of degree 1, and a quadratic is split by the integer square
root of its discriminant.  A cubic or quartic is a single orbit when a modular certificate proves it
irreducible: its factor degrees modulo a few fixed small primes leave no
degree for a rational factor.  Modulo a prime that divides neither its
leading coefficient nor its discriminant D, those degrees follow from two
numbers: its count of roots mod p, and the parity of the factor count,
which the Legendre symbol (D/p) gives.  What is reducible, has a repeated
factor or is not certified goes to sympy's ``factor_list`` over ZZ, the
only sympy call.  Numeric values are for display only: mpmath
``polyroots`` finds the roots of f, each to a precision relative to its own
modulus, taken in a fixed order, and conjugate k evaluates its vector at
b_k = c_n a_k.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from sys import float_info
from typing import Sequence

import sympy as sp

from .polynomials import primitive

_X = sp.Symbol("x")

# The digits that ``NumberField.value`` keeps past cancellation; ``show`` prints 4.
_DIGITS = 6


def _format_part(x, sign: str = "") -> str:
    """A real part x, an mpmath number (``NumberField.value``), as its
    float's ``.4g`` prints it, ``sign`` "+" to sign a nonnegative one.
    Where the float is +-inf, past the double range, or subnormal, which
    can keep too few bits for 4 digits, the exact value of x is printed in
    the same style: 4 significant digits, trailing zeros stripped, a signed
    exponent of at least two digits (``-1.414e+400``, ``1.414e-322``).  A
    float of 0 prints as ``0`` or ``-0``."""
    f = float(x)
    if f == 0 or float_info.min <= abs(f) <= float_info.max:
        return f"{f:{sign}.4g}"
    man, exp = x.man_exp  # |x| = man 2^exp
    size = Fraction(man) * Fraction(2) ** exp
    e = len(str(size.numerator)) - len(str(size.denominator))
    if size < Fraction(10) ** e:
        e -= 1
    digits = round(size / Fraction(10) ** (e - 3))  # ties to even, as float formatting
    if digits == 10 ** 4:
        digits, e = 10 ** 3, e + 1
    return f"{'-' if x < 0 else sign}{digits / 1000:g}e{e:+03d}"


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by cofactor expansion along
    the first row: no pivoting and no division.  The matrices here are the
    minors of a multiplication matrix, at most 3x3; the empty one is 1."""
    if not rows:
        return 1
    return sum((-1) ** j * c * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, c in enumerate(rows[0]) if c)


class NumberField:
    """Q[a]/(f) for an irreducible witness f of degree n >= 1, computed in
    the integral generator b = c_n a, a root of the monic g.  At n = 1 the
    witness q a - p has the rational root p/q, and b = p.

    ``witness`` is the primitive integer f (coefficients lowest degree
    first) with positive leading coefficient ``lead`` = c_n; ``monic`` holds
    g_0 .. g_(n-1), where g(b) = b^n + g_(n-1) b^(n-1) + ... + g_0 and
    g_i = c_i c_n^(n-1-i), and ``degree`` is n, a plain attribute, as the
    engine reads it at every point it builds or tests.  Fields compare equal
    when their witnesses do.  The complex roots of f are computed on first
    use, for display only, and kept in one fixed order: conjugate k is the
    k-th root.
    """

    __slots__ = ("witness", "lead", "monic", "degree", "_roots")

    def __init__(self, witness: Sequence[int]):
        if len(witness) < 2 or witness[-1] == 0:
            raise ValueError("a number field witness has degree >= 1")
        self.witness = coeffs = primitive(witness)
        n = len(coeffs) - 1
        self.lead = lead = coeffs[-1]
        self.monic = coeffs[:-1] if lead == 1 or n == 1 else tuple(
            [c * lead ** (n - 1 - i) for i, c in enumerate(coeffs[:-1])])
        self.degree = n
        self._roots: dict[int, list] = {}

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberField) and self.witness == other.witness

    def __hash__(self) -> int:
        return hash(self.witness)

    # -- integer kernel -------------------------------------------------------

    def reduce(self, coeffs: list[int]) -> list[int]:
        """The integer vector in b of length n congruent to the polynomial
        ``coeffs`` (in b, lowest first, any length) modulo g; ``coeffs`` is
        consumed."""
        n, g = self.degree, self.monic
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
        b of length at most n; one reduction for the whole sum.  At degree 1,
        a rational point's case, it is the plain sum of integer products.  At
        degree 2 the sum c_0 + c_1 b + c_2 b^2 of the products
        (u_0 + u_1 b)(v_0 + v_1 b), a vector of length 1 read as u_1 = 0, is
        reduced in closed form by b^2 = -g_1 b - g_0."""
        if self.degree == 1:
            return [sum(u[0] * v[0] for u, v in zip(us, vs))]
        if self.degree == 2:
            c0 = c1 = c2 = 0
            for u, v in zip(us, vs):
                u0, u1 = u if len(u) == 2 else (u[0], 0)
                v0, v1 = v if len(v) == 2 else (v[0], 0)
                c0 += u0 * v0
                c1 += u0 * v1 + u1 * v0
                c2 += u1 * v1
            g0, g1 = self.monic
            return [c0 - c2 * g0, c1 - c2 * g1]
        acc = [0] * (2 * self.degree - 1)
        for u, v in zip(us, vs):
            for i, ui in enumerate(u):
                if ui:
                    for j, vj in enumerate(v):
                        acc[i + j] += ui * vj
        return self.reduce(acc)

    def inverse(self, coeffs: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """(w, D) with (sum_i w_i b^i) / D the inverse of the nonzero
        element sum_i coeffs[i] b^i, and D > 0.  Cramer's rule on its
        multiplication matrix M, whose column j is coeffs * b^j, needs only
        the cofactors C_0j of M's first row: w_j = C_0j and
        D = det M = sum_j M_0j C_0j, both negated when det M < 0.  The zero
        vector raises ZeroDivisionError."""
        n = self.degree
        columns, col = [], list(coeffs)
        for _ in range(n):
            columns.append(col)
            col = self.reduce([0] + col)
        matrix = [[columns[j][i] for j in range(n)] for i in range(n)]
        cofactors = [(-1) ** j * _det([row[:j] + row[j + 1:] for row in matrix[1:]])
                     for j in range(n)]
        den = sum(m * c for m, c in zip(matrix[0], cofactors))
        if den == 0:
            raise ZeroDivisionError("element not invertible modulo the witness")
        if den < 0:
            return tuple(-c for c in cofactors), -den
        return tuple(cofactors), den

    # -- display ----------------------------------------------------------------

    def roots(self, dps: int = 30) -> list:
        """The roots of the witness as mpmath numbers, in the order fixed by
        the first call, each accurate relative to its own modulus.

        mpmath's ``polyroots`` starts near the unit circle and stops on an
        absolute step below its working epsilon, so a root list is accepted
        only when it converged and its error estimate times 10^(``_DIGITS``
        + 5) is at most every root's modulus.  The first try is at ``dps``
        digits, ``dps`` + 20 extra bits and 200 steps.  For f = c_n x^n +
        ... + c_0 of degree n <= 4 and H = max |c_i|, Cauchy's bounds give
        2^-lo <= |root| <= 2^hi, lo and hi one more than the bit lengths of
        (|c_0| + H) // |c_0| and H // |c_n|.  The first retry works at
        ``dps`` digits plus lo bits, so its error floor lies ``dps`` digits
        below the smallest root, with that precision plus lo + hi + 20
        extra bits and 200 + 2 (lo + hi) steps; each further one doubles
        all three.

        The retries end.  Two roots of the squarefree f lie at least 2^-S
        apart, S = (n-1)(bits(H) + 2) + 6, by Mahler's bound sqrt(3)
        n^(-(n+2)/2) ||f||^(1-n).  At a root, rounding moves a step by at
        most 2^(6 + (n+1) hi + (n-1) S) working epsilons, below the stopping
        test once the extra bits exceed that exponent by 20.  A list still
        not accepted then raises ArithmeticError.  The witness a of ``QQ``
        has the exact root 0."""
        if dps not in self._roots:
            import mpmath

            w = self.witness
            coeffs = list(reversed(w))
            with mpmath.workdps(dps):
                prec = mpmath.mp.prec
            extra, steps, cap = dps + 20, 200, None
            while True:
                try:
                    with mpmath.workprec(prec):
                        found, error = mpmath.polyroots(coeffs, maxsteps=steps, extraprec=extra,
                                                        error=True)
                except mpmath.mp.NoConvergence:
                    pass
                else:
                    if not w[0] or all(error * 10 ** (_DIGITS + 5) <= abs(r) for r in found):
                        break
                if cap is None:
                    n, height = len(w) - 1, max(map(abs, w))
                    lo = ((height + abs(w[0])) // abs(w[0])).bit_length() + 1
                    hi = (height // w[-1]).bit_length() + 1
                    cap = 26 + (n + 1) * hi + (n - 1) * ((n - 1) * (height.bit_length() + 2) + 6)
                    prec, extra, steps = prec + lo, prec + 2 * lo + hi + 20, 200 + 2 * (lo + hi)
                elif extra < cap:
                    prec, extra, steps = 2 * prec, 2 * extra, 2 * steps
                else:
                    raise ArithmeticError(f"no accurate roots of the witness {w}")
            if self._roots:
                base = self._roots[min(self._roots)]
                found = [min(found, key=lambda r, b=b: abs(r - b)) for b in base]
            else:
                found.sort(key=lambda r: (round(float(r.real), 9), float(r.imag)))
            self._roots[dps] = found
        return self._roots[dps]

    def value(self, vector, den: int = 1, conjugate: int = 0):
        """(sum_i vector[i] b^i) / den at conjugate k, as an mpmath complex
        number with no bound on its exponent: evaluated from the roots of
        the witness, each accurate relative to its own modulus (``roots``),
        at rising precision until cancellation leaves ``_DIGITS`` digits.
        Those are correct unless two roots agree to more digits than
        ``roots`` asks for: it lets them through as one, and this rule
        cannot see the roots' error."""
        import mpmath

        dps = 30
        while True:
            with mpmath.workdps(dps):
                b = self.roots(dps)[conjugate] * self.lead
                total, scale = mpmath.mpc(0), mpmath.mpf(0)
                for i, c in enumerate(vector):
                    term = mpmath.mpf(c) / den * b ** i
                    total += term
                    scale = max(scale, abs(term))
                lost = mpmath.log10(scale / abs(total)) if total != 0 else dps
            if dps - lost >= _DIGITS + 5 or dps >= 2000:
                return total
            dps *= 2

    def show(self, vectors, conjugate: int) -> str:
        """The point of the coordinate ``vectors`` at conjugate k, as its
        ``repr`` prints: divided by its last nonzero coordinate
        (``_quotients``), a quotient with no irrational part exactly, any
        other as ``~`` and its ``value`` at the conjugate, by ``_format_part``.
        Past Python's int-str limit (4300 digits by default) it raises
        ValueError; the CLI lifts it: ``sys.set_int_max_str_digits(0)``."""
        parts = []
        for v, den in self._quotients(vectors):
            if not any(v[1:]):
                parts.append(str(Fraction(v[0], den)))
            else:
                z = self.value(v, den, conjugate)
                parts.append(f"~{_format_part(z.real)}{_format_part(z.imag, '+')}j")
        return "(" + " : ".join(parts) + ")"

    def _quotients(self, vectors) -> list[tuple[tuple[int, ...], int]]:
        """The coordinates divided by the last nonzero one (the pivot), each
        the (vector, den) of a field element: a vector before the pivot
        times the field inverse of the pivot's vector, then 1, then 0."""
        pivot = max(i for i, v in enumerate(vectors) if any(v))
        inverse, den = self.inverse(vectors[pivot])
        return ([(tuple(self.dot((v,), (inverse,))), den) for v in vectors[:pivot]]
                + [((1,), 1)] + [((0,), 1)] * (2 - pivot))


QQ = NumberField((0, 1))  # Q as Q[a]/(a): the field of every rational point


# The primes of the irreducibility certificate, tried in this order.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def root_orbits(coeffs: Sequence[int]) -> list[tuple[NumberField, int]]:
    """One NumberField per irreducible factor f of a nonzero integer
    polynomial of degree <= 4 (coefficients lowest degree first), with the
    factor's multiplicity: Q[a]/(f) stands for all deg f roots of f, and a
    rational root p/q is the field of q a - p, of degree 1.  Factors come in
    sympy's order (degree, then multiplicity, then coefficients); the roots
    counted with degree and multiplicity number the degree of the
    polynomial.  Degree 5 or more raises ValueError.

    Integers decide what they can: a linear polynomial is its own field of
    degree 1, a quadratic is split by the integer square root of its
    discriminant, and a cubic or quartic is one orbit when a modular
    certificate proves it irreducible.
    Only a polynomial that is reducible, has a repeated factor or is not
    certified goes to sympy's ``factor_list``.
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
    if n > 4:
        raise ValueError(f"root_orbits takes degree <= 4, not {n}")
    if n == 2:
        c, b, a = f
        disc = b * b - 4 * a * c
        root = isqrt(disc) if disc >= 0 else -1
        if root * root == disc:
            # the root p/q = (-b -+ root) / 2a has the witness q a - p
            if root == 0:
                return [(NumberField((b, 2 * a)), 2)]
            # sympy sorts the primitive factors q a - p by q, then -p
            first, second = NumberField((b + root, 2 * a)), NumberField((b - root, 2 * a))
            if first.witness[::-1] > second.witness[::-1]:
                first, second = second, first
            return [(first, 1), (second, 1)]
    if n <= 2 or _certified_irreducible(f):
        return [(NumberField(f), 1)]
    _content, factors = sp.Poly(list(reversed(f)), _X, domain="ZZ").factor_list()
    return [(NumberField([int(c) for c in reversed(factor.rep.to_list())]), int(mult))
            for factor, mult in factors]


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
