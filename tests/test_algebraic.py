from fractions import Fraction as F
from itertools import product

import pytest

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
