from fractions import Fraction as F
from itertools import product

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_from_int_poly

from coniclines.algebraic import (
    _PRIMES,
    AlgebraicNumber,
    NumberField,
    _certified_irreducible,
    _degree_pattern,
    _discriminant,
    root_orbits,
)


def conjugate_values(p):
    """Numeric values of all roots of p, each orbit expanded, with mults."""
    out = []
    for root, mult in root_orbits(p):
        degree = root.field.degree if root.field is not None else 1
        out += [(root.at_conjugate(k).approx(), mult) for k in range(degree)]
    return out


def _product(*factors):
    """The product of integer polynomials (coefficients lowest first)."""
    out = [1]
    for factor in factors:
        acc = [0] * (len(out) + len(factor) - 1)
        for i, u in enumerate(out):
            for j, v in enumerate(factor):
                acc[i + j] += u * v
        out = acc
    return out


def sqrt2():
    field = NumberField([-2, 0, 1])
    return max((field.generator(k) for k in (0, 1)), key=lambda r: r.approx().real)


def test_isolate_sqrt2():
    orbits = root_orbits([-2, 0, 1])
    assert len(orbits) == 1
    root, mult = orbits[0]
    assert mult == 1 and root.field.witness == (-2, 0, 1)
    values = sorted(v.real for v, _m in conjugate_values([-2, 0, 1]))
    assert values[0] == pytest.approx(-1.41421356, abs=1e-6)
    assert values[1] == pytest.approx(1.41421356, abs=1e-6)
    # the conjugates are one exact element at two roots
    assert root.at_conjugate(1).value == root.value
    assert root.at_conjugate(0).approx() != root.at_conjugate(1).approx()


def test_isolate_conjugate_pair():
    imags = sorted(v.imag for v, _m in conjugate_values([1, 0, 1]))  # x^2 + 1
    assert imags[0] == pytest.approx(-1.0, abs=1e-9)
    assert imags[1] == pytest.approx(1.0, abs=1e-9)


def test_isolate_repeated_root():
    roots = root_orbits([1, -2, 1])  # (x - 1)^2
    assert len(roots) == 1
    num, mult = roots[0]
    assert mult == 2
    assert num.is_rational and num.as_fraction() == 1


def test_isolate_multiplicities_sum_to_degree():
    p = _product([-1, 1], [-1, 1], [1, 0, 1], [-2, 0, 1])
    values = conjugate_values(p)
    assert sum(m for _v, m in values) == len(p) - 1
    assert len(values) == 5


def test_isolate_zero_rejected():
    with pytest.raises(ValueError):
        root_orbits([])


def test_alg_equal_rationals():
    assert AlgebraicNumber.from_rational(F(1, 2)) == AlgebraicNumber.from_rational(F(1, 2))
    assert AlgebraicNumber.from_rational(F(1, 2)) != AlgebraicNumber.from_rational(F(1, 3))
    assert AlgebraicNumber.from_rational(F(1, 2)) == F(1, 2)


def test_alg_equal_opposite_square_roots():
    plus = sqrt2()
    minus = -plus
    assert plus != minus
    assert plus == -minus
    assert (minus * minus - 2).is_zero
    assert minus.approx().real == pytest.approx(-2 ** 0.5)


def test_alg_equal_is_an_equivalence_relation():
    # exact equality of rationals and of elements of one field at one conjugate
    root = sqrt2()
    values = [root, -root, root * root - 1, root + 1, (root * 2 + 2) * F(1, 2),
              AlgebraicNumber.from_rational(0), AlgebraicNumber.from_rational(1)]
    for a in values:
        assert a == a
    for a, b in product(values, repeat=2):
        assert (a == b) == (b == a)
    for a, b, c in product(values, repeat=3):
        if a == b and b == c:
            assert a == c
    assert root + 1 == (root * 2 + 2) * F(1, 2)
    assert root * root - 1 == AlgebraicNumber.from_rational(1)


def test_equality_across_conjugates_is_not_decided():
    field = NumberField([-2, 0, 1])
    with pytest.raises(ValueError):
        field.generator(0) == field.generator(1)
    with pytest.raises(ValueError):
        field.generator(0) + field.generator(1)


def test_arithmetic_and_zero_detection():
    root = sqrt2()
    assert (root * root - 2).is_zero
    assert not (root - 1).is_zero
    # (sqrt2+1)/(sqrt2-1) = 3 + 2 sqrt2
    ratio = 3 + 2 * root
    assert ratio * (root - 1) == root + 1
    assert ratio.approx().real == pytest.approx(3 + 2 * 2 ** 0.5)


def test_isolate_rescaled_sympy_roots():
    # x^2 + 4: the conjugates are +-2i, each a root of the witness
    roots = root_orbits([4, 0, 1])
    imags = sorted(v.imag for v, _m in conjugate_values([4, 0, 1]))
    assert imags[0] == pytest.approx(-2.0, abs=1e-9)
    assert imags[1] == pytest.approx(2.0, abs=1e-9)
    for r, _m in roots:
        assert (r * r + 4).is_zero


def test_minpoly_of_combination():
    half = sqrt2() * F(1, 2)
    # sqrt2 / 2 is a root of 2x^2 - 1 and of no rational linear polynomial
    assert (2 * half * half - 1).is_zero
    assert not half.is_rational
    assert half.approx().real == pytest.approx(2 ** 0.5 / 2)


def test_approx_survives_cancellation():
    # sqrt2 - p/q for a convergent p/q with q > 10^14 is below 10^-28: its
    # leading digits need more precision than the first 30-digit pass has
    import mpmath

    p, q = 1, 1
    while q < 10 ** 14:
        p, q = p + 2 * q, p + q
    value = sqrt2() - F(p, q)
    with mpmath.workdps(80):
        expected = float(mpmath.sqrt(2) - mpmath.mpf(p) / q)
    assert abs(expected) < 1e-28
    assert value.approx().real == pytest.approx(expected, rel=1e-6)


# -- the integer kernel on random witnesses ----------------------------------


@st.composite
def _witnesses(draw):
    """A primitive irreducible f of degree 2, 3 or 4 whose leading
    coefficient is not a unit, so b = c_n a differs from a."""
    degree = draw(st.integers(2, 4))
    lead = draw(st.integers(2, 7)) * draw(st.sampled_from([1, -1]))
    coeffs = draw(st.lists(st.integers(-7, 7), min_size=degree, max_size=degree)) + [lead]
    assume(sp.Poly(list(reversed(coeffs)), sp.Symbol("x"), domain="QQ").is_irreducible)
    field = NumberField(coeffs)
    assume(field.lead >= 2)
    return field


def _elements(field):
    """Field elements (random integer vectors in b over a random positive
    denominator) and rationals."""
    vector = st.lists(st.integers(-30, 30), min_size=field.degree, max_size=field.degree)
    return st.one_of(
        st.builds(field.element, vector, st.integers(1, 12)),
        st.builds(lambda p, q: AlgebraicNumber.from_rational(F(p, q)),
                  st.integers(-9, 9), st.integers(1, 5)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_ring_laws(data):
    field = data.draw(_witnesses())
    x, y, z = (data.draw(_elements(field)) for _ in range(3))
    assert (x * y) * z == x * (y * z)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x and x + y == y + x


def _mp_values(field, p, dps=60):
    """p(a_k) at every conjugate root of the witness, for a polynomial p in a
    with integer coefficients (lowest first)."""
    import mpmath

    with mpmath.workdps(dps):
        return [mpmath.polyval(list(reversed(p)), root) for root in field.roots(dps)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_zero_test_agrees_with_numerics(data):
    # P = q * f + r is zero in the field iff r is; the exact test must agree
    # with P evaluated at every conjugate root of f
    field = data.draw(_witnesses())
    n = field.degree
    q = data.draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3))
    r = data.draw(st.one_of(st.just([0] * n),
                            st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    f = field.witness
    p = [0] * (len(q) + n)
    for i, qi in enumerate(q):
        for j, fj in enumerate(f):
            p[i + j] += qi * fj
    p = [pi + (r[i] if i < n else 0) for i, pi in enumerate(p)]
    a = field.generator()
    value = AlgebraicNumber.from_rational(0)
    for c in reversed(p):
        value = value * a + c
    numeric = _mp_values(field, p)
    scale = max(1, *(abs(c) for c in p)) * max(1, *(abs(root) for root in field.roots(60))) ** len(p)
    assert value.is_zero == all(abs(v) < scale * 1e-40 for v in numeric)
    assert value.is_zero == (not any(r))
    for k, v in enumerate(numeric):
        assert abs(complex(v) - value.at_conjugate(k).approx()) <= 1e-9 * max(1, abs(complex(v)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_inverse(data):
    field = data.draw(_witnesses())
    v = data.draw(st.lists(st.integers(-30, 30), min_size=field.degree,
                           max_size=field.degree))
    assume(any(v))
    w, den = field.inverse(v)
    assert den > 0
    assert field.element(v) * field.element(w, den) == 1
    with pytest.raises(ZeroDivisionError):
        field.inverse([0] * field.degree)


# -- root_orbits against sympy's factor_list -----------------------------------


def _sympy_factors(coeffs):
    """sympy's irreducible factors over ZZ with their multiplicities, in its
    order; each factor as integer coefficients lowest first."""
    _content, factors = sp.Poly(list(reversed(coeffs)), sp.Symbol("x"), domain="ZZ").factor_list()
    return [(tuple(int(c) for c in reversed(f.all_coeffs())), int(m)) for f, m in factors]


def _orbit_factors(orbits):
    """The primitive factor of each orbit: q x - p for a rational root p/q,
    else the witness, whose generator at conjugate 0 the orbit must be."""
    out = []
    for root, mult in orbits:
        if root.is_rational:
            value = root.as_fraction()
            out.append(((-value.numerator, value.denominator), mult))
        else:
            field = root.field
            assert root == field.generator(0)
            out.append((field.witness, mult))
    return out


@st.composite
def _factor(draw, degree):
    lead = draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1]))
    return draw(st.lists(st.integers(-9, 9), min_size=degree, max_size=degree)) + [lead]


@st.composite
def _polynomials(draw):
    """Integer polynomials of degree 1-4 with a non-unit leading
    coefficient: random ones, products of random factors, and products with
    a squared factor; times a random integer."""
    kind = draw(st.sampled_from(["random", "product", "square"]))
    if kind == "random":
        degree = draw(st.integers(1, 4))
        lead = draw(st.integers(2, 9)) * draw(st.sampled_from([1, -1]))
        coeffs = draw(st.lists(st.integers(-20, 20), min_size=degree, max_size=degree)) + [lead]
    else:
        factors, budget = [], 4
        if kind == "square":
            square = draw(_factor(draw(st.integers(1, 2))))
            factors, budget = [square, square], 4 - 2 * (len(square) - 1)
        while budget > 0 and (len(factors) < 2 or draw(st.booleans())):
            factors.append(draw(_factor(draw(st.integers(1, min(3, budget))))))
            budget -= len(factors[-1]) - 1
        coeffs = _product(*factors)
    assume(abs(coeffs[-1]) >= 2)
    return [c * draw(st.sampled_from([1, -1, 2, -3])) for c in coeffs]


@settings(max_examples=300, deadline=None)
@given(_polynomials())
def test_root_orbits_agree_with_sympy(coeffs):
    assert _orbit_factors(root_orbits(coeffs)) == _sympy_factors(coeffs)


@pytest.mark.parametrize("coeffs, expected", [
    # irreducible, but reducible modulo every prime: no certificate exists
    ([1, 0, -10, 0, 1], [((1, 0, -10, 0, 1), 1)]),
    ([1, 0, 0, 0, 1], [((1, 0, 0, 0, 1), 1)]),
    # (2x^2 + 1)^2: never squarefree modulo a prime
    ([1, 0, 4, 0, 4], [((1, 0, 2), 2)]),
    # (3x - 2)(2x^3 + x + 1)
    (_product([-2, 3], [1, 1, 0, 2]), [((-2, 3), 1), ((1, 1, 0, 2), 1)]),
    # (x^2 + 1)(x^2 + 2): no root modulo 7, but two quadratic factors there
    ([2, 0, 3, 0, 1], [((1, 0, 1), 1), ((2, 0, 1), 1)]),
], ids=["x4-10x2+1", "x4+1", "square", "cubic-times-linear", "two-quadratics"])
def test_root_orbits_fixed_cases(coeffs, expected):
    assert _orbit_factors(root_orbits(coeffs)) == expected == _sympy_factors(coeffs)


def test_certificate_needs_an_irreducible_pattern():
    # x^3 + x + 1 has no root modulo 2; x^4 - 10x^2 + 1 and x^4 + 1 split
    # modulo every prime, so only factor_list decides them
    assert _certified_irreducible((1, 1, 0, 1))
    assert not _certified_irreducible((1, 0, -10, 0, 1))
    assert not _certified_irreducible((1, 0, 0, 0, 1))
    # (x^2 + 1)(x^2 + 2) has no root modulo 7; only the parity of the
    # discriminant tells its pattern [2, 2] there from an irreducible [4]
    assert _degree_pattern((2, 0, 3, 0, 1), 32, 7) == (2, 2)
    assert not _certified_irreducible((2, 0, 3, 0, 1))


@st.composite
def _cubics_and_quartics(draw):
    """Integer cubics and quartics: random ones, and products of a linear
    or quadratic factor with another, so that every degree pattern shows."""
    degree = draw(st.sampled_from([3, 4]))
    if draw(st.booleans()):
        lead = draw(st.integers(1, 60)) * draw(st.sampled_from([1, -1]))
        return draw(st.lists(st.integers(-60, 60), min_size=degree, max_size=degree)) + [lead]
    first = draw(st.integers(1, 2))
    return _product(draw(_factor(first)), draw(_factor(degree - first)))


@settings(max_examples=300, deadline=None)
@given(_cubics_and_quartics(), st.sampled_from(_PRIMES))
def test_degree_pattern_agrees_with_galoistools(f, p):
    # sympy is the oracle: its discriminant, and its factorization modulo p
    disc = _discriminant(f)
    assert disc == sp.discriminant(sp.Poly(list(reversed(f)), sp.Symbol("x")))
    pattern = _degree_pattern(f, disc, p)
    if f[-1] % p == 0 or disc % p == 0:
        assert pattern is None
        return
    _lead, factors = gf_factor(gf_from_int_poly(list(reversed(f)), p), p, ZZ)
    assert all(mult == 1 for _factor, mult in factors)
    assert pattern == tuple(sorted(len(factor) - 1 for factor, _mult in factors))
