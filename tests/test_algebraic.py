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
        if isinstance(root, F):
            out.append((complex(root), mult))
        else:
            out += [(_generator(root, k).approx(), mult) for k in range(root.degree)]
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


def _generator(field, conjugate=0):
    """The root a_k = b_k / c_n of the witness, for k = ``conjugate``."""
    return field.element((0, 1) + (0,) * (field.degree - 2), field.lead, conjugate)


def _scaled_value(field, p):
    """The reduced vector of c_n^D p(b / c_n) = c_n^D p(a), for p in a with
    integer coefficients (lowest first) and D = deg p."""
    top = len(p) - 1
    return field.reduce([c * field.lead ** (top - i) for i, c in enumerate(p)])


def _is_root(field, p):
    """Is p(a) = 0 in the field?  The zero test is the zero vector."""
    return not any(_scaled_value(field, p))


SQRT2 = NumberField([-2, 0, 1])
# the conjugate of SQRT2 at which its generator is the positive root
PLUS = max((0, 1), key=lambda k: _generator(SQRT2, k).approx().real)


def test_isolate_sqrt2():
    orbits = root_orbits([-2, 0, 1])
    assert orbits == [(SQRT2, 1)]
    values = sorted(v.real for v, _m in conjugate_values([-2, 0, 1]))
    assert values[0] == pytest.approx(-1.41421356, abs=1e-6)
    assert values[1] == pytest.approx(1.41421356, abs=1e-6)
    # the conjugates are one exact element at two roots
    assert _generator(SQRT2, 0).approx() != _generator(SQRT2, 1).approx()


def test_isolate_conjugate_pair():
    imags = sorted(v.imag for v, _m in conjugate_values([1, 0, 1]))  # x^2 + 1
    assert imags[0] == pytest.approx(-1.0, abs=1e-9)
    assert imags[1] == pytest.approx(1.0, abs=1e-9)


def test_isolate_repeated_root():
    roots = root_orbits([1, -2, 1])  # (x - 1)^2
    assert roots == [(1, 2)]
    assert isinstance(roots[0][0], F)


def test_isolate_multiplicities_sum_to_degree():
    p = _product([-1, 1], [-1, 1], [1, 0, 1], [-2, 0, 1])
    values = conjugate_values(p)
    assert sum(m for _v, m in values) == len(p) - 1
    assert len(values) == 5


def test_isolate_zero_rejected():
    with pytest.raises(ValueError):
        root_orbits([])


def test_alg_equal_rationals():
    assert AlgebraicNumber(F(1, 2)) == AlgebraicNumber(F(1, 2))
    assert AlgebraicNumber(F(1, 2)) != AlgebraicNumber(F(1, 3))
    assert AlgebraicNumber(F(1, 2)) == F(1, 2)
    assert AlgebraicNumber(3) == 3 and AlgebraicNumber(3) != F(1, 3)
    # a field vector with no irrational part is its rational
    assert SQRT2.element((3, 0), 6) == F(1, 2)
    assert hash(SQRT2.element((3, 0), 6)) == hash(F(1, 2))


def test_alg_equal_opposite_square_roots():
    plus = SQRT2.element((0, 1), conjugate=PLUS)
    minus = SQRT2.element((0, -1), conjugate=PLUS)
    assert plus != minus
    assert plus == SQRT2.element((0, 2), 2, PLUS)
    assert plus != 1 and plus != F(3, 2)
    # (-sqrt2)^2 - 2 reduces to the zero vector
    assert SQRT2.dot([(0, -1), (-2, 0)], [(0, -1), (1, 0)]) == [0, 0]
    assert minus.approx().real == pytest.approx(-2 ** 0.5)


def test_alg_equal_is_an_equivalence_relation():
    # exact equality of rationals and of elements of one field at one conjugate
    element = SQRT2.element
    values = [element((0, 1)), element((0, -1)), element((1, 0)), element((1, 1)),
              element((2, 2), 2), AlgebraicNumber(0), AlgebraicNumber(1), element((4, 0), 4)]
    for a in values:
        assert a == a
    for a, b in product(values, repeat=2):
        assert (a == b) == (b == a)
        if a == b:
            assert hash(a) == hash(b)
    for a, b, c in product(values, repeat=3):
        if a == b and b == c:
            assert a == c
    assert element((1, 1)) == element((2, 2), 2)
    assert element((4, 0), 4) == AlgebraicNumber(1)


def test_equality_across_conjugates_is_not_decided():
    with pytest.raises(ValueError):
        _generator(SQRT2, 0) == _generator(SQRT2, 1)
    with pytest.raises(ValueError):
        _generator(SQRT2) == _generator(NumberField([-3, 0, 1]))


def test_arithmetic_and_zero_detection():
    assert _is_root(SQRT2, [-2, 0, 1])
    assert not _is_root(SQRT2, [-1, 1])
    # (sqrt2+1)/(sqrt2-1) = 3 + 2 sqrt2: (3 + 2b)(b - 1) = b + 1
    assert SQRT2.dot([(3, 2)], [(-1, 1)]) == [1, 1]
    assert SQRT2.element((3, 2), conjugate=PLUS).approx().real == \
        pytest.approx(3 + 2 * 2 ** 0.5)


def test_isolate_rescaled_sympy_roots():
    # x^2 + 4: the conjugates are +-2i, each a root of the witness
    roots = root_orbits([4, 0, 1])
    imags = sorted(v.imag for v, _m in conjugate_values([4, 0, 1]))
    assert imags[0] == pytest.approx(-2.0, abs=1e-9)
    assert imags[1] == pytest.approx(2.0, abs=1e-9)
    for field, _m in roots:
        assert _is_root(field, [4, 0, 1])


def test_minpoly_of_combination():
    # sqrt2 / 2 is a root of 2x^2 - 1 and of no rational linear polynomial:
    # 2 (b/2)^2 - 1 is zero iff its numerator 2 b^2 - 4 is
    half = SQRT2.element((0, 1), 2, PLUS)
    assert SQRT2.dot([(0, 2), (-4, 0)], [(0, 1), (1, 0)]) == [0, 0]
    assert not half.is_rational
    assert half.approx().real == pytest.approx(2 ** 0.5 / 2)


def test_approx_survives_cancellation():
    # sqrt2 - p/q for a convergent p/q with q > 10^14 is below 10^-28: its
    # leading digits need more precision than the first 30-digit pass has
    import mpmath

    p, q = 1, 1
    while q < 10 ** 14:
        p, q = p + 2 * q, p + q
    value = SQRT2.element((-p, q), q, PLUS)
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


def _vectors(field):
    """Integer vectors in b of length deg f: field elements, and rationals
    as their first entry alone."""
    n = field.degree
    return st.one_of(
        st.lists(st.integers(-30, 30), min_size=n, max_size=n),
        st.builds(lambda c: [c] + [0] * (n - 1), st.integers(-9, 9)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_ring_laws(data):
    field = data.draw(_witnesses())
    x, y, z = (data.draw(_vectors(field)) for _ in range(3))
    one = [1] + [0] * (field.degree - 1)
    dot = field.dot
    assert dot([dot([x], [y])], [z]) == dot([x], [dot([y], [z])])
    assert dot([x], [[u + v for u, v in zip(y, z)]]) == dot([x, x], [y, z])
    assert dot([x], [y]) == dot([y], [x])
    assert dot([x], [one]) == x


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
    vector = _scaled_value(field, p)
    numeric = _mp_values(field, p)
    scale = max(1, *(abs(c) for c in p)) * max(1, *(abs(root) for root in field.roots(60))) ** len(p)
    assert (not any(vector)) == all(abs(v) < scale * 1e-40 for v in numeric)
    assert (not any(vector)) == (not any(r))
    for k, v in enumerate(numeric):
        value = field.element(vector, field.lead ** (len(p) - 1), k)
        assert abs(complex(v) - value.approx()) <= 1e-9 * max(1, abs(complex(v)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_inverse(data):
    field = data.draw(_witnesses())
    v = data.draw(st.lists(st.integers(-30, 30), min_size=field.degree,
                           max_size=field.degree))
    assume(any(v))
    w, den = field.inverse(v)
    assert den > 0
    assert field.dot([v], [w]) == [den] + [0] * (field.degree - 1)
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
    else the witness of its field."""
    out = []
    for root, mult in orbits:
        if isinstance(root, F):
            out.append(((-root.numerator, root.denominator), mult))
        else:
            assert isinstance(root, NumberField)
            out.append((root.witness, mult))
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
