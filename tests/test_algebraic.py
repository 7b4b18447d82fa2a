from fractions import Fraction as F
from itertools import product

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from coniclines.algebraic import AlgebraicNumber, NumberField, root_orbits
from coniclines.polynomials import UPoly


def conjugate_values(p):
    """Numeric values of all roots of p, each orbit expanded, with mults."""
    out = []
    for root, mult in root_orbits(p):
        degree = root.field.degree if root.field is not None else 1
        out += [(root.at_conjugate(k).approx(), mult) for k in range(degree)]
    return out


def sqrt2():
    field = NumberField(UPoly([-2, 0, 1]))
    return max((field.generator(k) for k in (0, 1)), key=lambda r: r.approx().real)


def test_isolate_sqrt2():
    orbits = root_orbits(UPoly([-2, 0, 1]))
    assert len(orbits) == 1
    root, mult = orbits[0]
    assert mult == 1 and root.field.witness == UPoly([-2, 0, 1])
    values = sorted(v.real for v, _m in conjugate_values(UPoly([-2, 0, 1])))
    assert values[0] == pytest.approx(-1.41421356, abs=1e-6)
    assert values[1] == pytest.approx(1.41421356, abs=1e-6)
    # the conjugates are one exact element at two roots
    assert root.at_conjugate(1).value == root.value
    assert root.at_conjugate(0).approx() != root.at_conjugate(1).approx()


def test_isolate_conjugate_pair():
    imags = sorted(v.imag for v, _m in conjugate_values(UPoly([1, 0, 1])))  # x^2 + 1
    assert imags[0] == pytest.approx(-1.0, abs=1e-9)
    assert imags[1] == pytest.approx(1.0, abs=1e-9)


def test_isolate_repeated_root():
    roots = root_orbits(UPoly([1, -2, 1]))  # (x - 1)^2
    assert len(roots) == 1
    num, mult = roots[0]
    assert mult == 2
    assert num.is_rational and num.as_fraction() == 1


def test_isolate_multiplicities_sum_to_degree():
    p = UPoly([-1, 1]) * UPoly([-1, 1]) * UPoly([1, 0, 1]) * UPoly([-2, 0, 1])
    values = conjugate_values(p)
    assert sum(m for _v, m in values) == p.degree
    assert len(values) == 5


def test_isolate_zero_rejected():
    with pytest.raises(ValueError):
        root_orbits(UPoly())


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
    values = [root, -root, root * root - 1, root + 1, (root * 2 + 2) / 2,
              AlgebraicNumber.from_rational(0), AlgebraicNumber.from_rational(1)]
    for a in values:
        assert a == a
    for a, b in product(values, repeat=2):
        assert (a == b) == (b == a)
    for a, b, c in product(values, repeat=3):
        if a == b and b == c:
            assert a == c
    assert root + 1 == (root * 2 + 2) / 2
    assert root * root - 1 == AlgebraicNumber.from_rational(1)


def test_equality_across_conjugates_is_not_decided():
    field = NumberField(UPoly([-2, 0, 1]))
    with pytest.raises(ValueError):
        field.generator(0) == field.generator(1)
    with pytest.raises(ValueError):
        field.generator(0) + field.generator(1)


def test_arithmetic_and_zero_detection():
    root = sqrt2()
    assert (root * root - 2).is_zero
    assert not (root - 1).is_zero
    ratio = (root + 1) / (root - 1)
    # (sqrt2+1)/(sqrt2-1) = 3 + 2 sqrt2
    assert (ratio - 2 * root - 3).is_zero
    assert ratio.approx().real == pytest.approx(3 + 2 * 2 ** 0.5)


def test_division_by_zero_rejected():
    one = AlgebraicNumber.from_rational(1)
    zero = AlgebraicNumber.from_rational(0)
    with pytest.raises(ZeroDivisionError):
        one / zero


def test_isolate_rescaled_sympy_roots():
    # x^2 + 4: the conjugates are +-2i, each a root of the witness
    roots = root_orbits(UPoly([4, 0, 1]))
    imags = sorted(v.imag for v, _m in conjugate_values(UPoly([4, 0, 1])))
    assert imags[0] == pytest.approx(-2.0, abs=1e-9)
    assert imags[1] == pytest.approx(2.0, abs=1e-9)
    for r, _m in roots:
        assert (r * r + 4).is_zero


def test_minpoly_of_combination():
    half = sqrt2() / 2
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
    field = NumberField(UPoly(coeffs))
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
    f = [int(c) for c in field.witness.coeffs]
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
    x = data.draw(_elements(field))
    assume(not x.is_zero)
    assert x * x.inverse() == 1
    assert x / x == 1
    y = data.draw(_elements(field))
    assert (y / x) * x == y
