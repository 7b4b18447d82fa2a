import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_from_int_poly

from coniclines.algebraic import (
    _PRIMES,
    QQ,
    NumberField,
    _certified_irreducible,
    _degree_pattern,
    _discriminant,
    root_orbits,
)
from oracles import field_approx


def conjugate_values(p):
    """Numeric values of all roots of p, each orbit expanded, with mults."""
    return [(_generator(field, k), mult) for field, mult in root_orbits(p)
            for k in range(field.degree)]


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
    """The value of the root a_k = b_k / c_n of the witness, for
    k = ``conjugate``."""
    return field_approx(field, field.reduce([0, 1]), field.lead, conjugate)


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
PLUS = max((0, 1), key=lambda k: _generator(SQRT2, k).real)


def test_isolate_sqrt2():
    orbits = root_orbits([-2, 0, 1])
    assert orbits == [(SQRT2, 1)]
    values = sorted(v.real for v, _m in conjugate_values([-2, 0, 1]))
    assert values[0] == pytest.approx(-1.41421356, abs=1e-6)
    assert values[1] == pytest.approx(1.41421356, abs=1e-6)
    # the conjugates are one exact element at two roots
    assert _generator(SQRT2, 0) != _generator(SQRT2, 1)


def test_isolate_conjugate_pair():
    imags = sorted(v.imag for v, _m in conjugate_values([1, 0, 1]))  # x^2 + 1
    assert imags[0] == pytest.approx(-1.0, abs=1e-9)
    assert imags[1] == pytest.approx(1.0, abs=1e-9)


def test_isolate_repeated_root():
    roots = root_orbits([1, -2, 1])  # (x - 1)^2
    assert roots == [(NumberField((-1, 1)), 2)]
    assert conjugate_values([1, -2, 1]) == [(1, 2)]


def test_isolate_multiplicities_sum_to_degree():
    p = _product([-1, 1], [-1, 1], [-2, 0, 1])  # (x - 1)^2 (x^2 - 2)
    values = conjugate_values(p)
    assert sum(m for _v, m in values) == len(p) - 1
    assert len(values) == 3


def test_root_orbits_rejects_degree_five():
    with pytest.raises(ValueError, match="degree <= 4"):
        root_orbits(_product([-1, 1], [-1, 1], [1, 0, 1], [-2, 0, 1]))


def test_isolate_zero_rejected():
    with pytest.raises(ValueError):
        root_orbits([])


def test_number_field_needs_degree_one():
    with pytest.raises(ValueError, match="degree >= 1"):
        NumberField((3,))


@pytest.mark.parametrize("p, q", [(3, 2), (-5, 7), (0, 1), (4, 1)])
def test_degree_one_field_is_its_rational_root(p, q):
    # Q[a]/(q a - p): the generator b = q a is p, and reducing a polynomial
    # in b evaluates it at p
    field = NumberField((-p, q))
    assert (field.degree, field.lead) == (1, q)
    assert field.reduce([0, 1]) == [p]
    assert field.reduce([5, -3, 2, 1]) == [5 - 3 * p + 2 * p ** 2 + p ** 3]
    assert _generator(field) == p / q
    # the inverse of the element c is 1/c, over a positive denominator
    for c in (3, -7):
        assert field.inverse((c,)) == (((1,), c) if c > 0 else ((-1,), -c))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, NumberField((-3, 2)), NumberField((5, 7))]),
       st.lists(st.tuples(st.integers(-10 ** 30, 10 ** 30), st.integers(-99, 99)),
                max_size=4))
def test_degree_one_dot_is_the_plain_sum(field, pairs):
    # at degree 1 the vectors are integers, whatever the rational root
    us = [(u,) for u, _v in pairs]
    vs = [(v,) for _u, v in pairs]
    assert field.dot(us, vs) == [sum(u * v for u, v in pairs)]


_BIG = st.integers(-10 ** 30, 10 ** 30)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
                 st.integers(-10 ** 6, 10 ** 6).filter(bool)),
       st.lists(st.tuples(st.lists(_BIG, min_size=1, max_size=2),
                          st.lists(_BIG, min_size=1, max_size=2)), max_size=4))
def test_degree_two_dot_is_the_reduced_product(witness, pairs):
    # the closed form at degree 2 is the generic multiply, then reduce, for
    # vectors of length 2 and 1 (the tests' oracle passes a line's 1-vectors)
    field = NumberField(witness)
    acc = [0, 0, 0]
    for u, v in pairs:
        for i, c in enumerate(_product(u, v)):
            acc[i] += c
    assert field.dot([u for u, _v in pairs], [v for _u, v in pairs]) == field.reduce(acc)


def test_arithmetic_and_zero_detection():
    assert _is_root(SQRT2, [-2, 0, 1])
    assert not _is_root(SQRT2, [-1, 1])
    # (sqrt2+1)/(sqrt2-1) = 3 + 2 sqrt2: (3 + 2b)(b - 1) = b + 1
    assert SQRT2.dot([(3, 2)], [(-1, 1)]) == [1, 1]
    assert field_approx(SQRT2, (3, 2), 1, PLUS).real == pytest.approx(3 + 2 * 2 ** 0.5)
    # (-sqrt2)^2 - 2 reduces to the zero vector
    assert SQRT2.dot([(0, -1), (-2, 0)], [(0, -1), (1, 0)]) == [0, 0]
    assert field_approx(SQRT2, (0, -1), 1, PLUS).real == pytest.approx(-2 ** 0.5)
    # a vector with no irrational part is its rational, at every conjugate
    assert field_approx(SQRT2, (3, 0), 6, 0) == field_approx(SQRT2, (3, 0), 6, 1) == 0.5


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
    assert SQRT2.dot([(0, 2), (-4, 0)], [(0, 1), (1, 0)]) == [0, 0]
    assert field_approx(SQRT2, (0, 1), 2, PLUS).real == pytest.approx(2 ** 0.5 / 2)


def test_approx_survives_cancellation():
    # sqrt2 - p/q for a convergent p/q with q > 10^14 is below 10^-28: its
    # leading digits need more precision than the first 30-digit pass has
    import mpmath

    p, q = 1, 1
    while q < 10 ** 14:
        p, q = p + 2 * q, p + q
    with mpmath.workdps(80):
        expected = float(mpmath.sqrt(2) - mpmath.mpf(p) / q)
    assert abs(expected) < 1e-28
    assert field_approx(SQRT2, (-p, q), q, PLUS).real == pytest.approx(expected, rel=1e-6)


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
        value = field_approx(field, vector, field.lead ** (len(p) - 1), k)
        assert abs(complex(v) - value) <= 1e-9 * max(1, abs(complex(v)))


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
    # Cramer's rule, with sympy as the oracle: D = |det M| and w is the
    # first column of adj(M), both with the sign of det M, for the
    # multiplication matrix M whose column j is v * b^j
    n = field.degree
    unit = [[int(i == j) for i in range(n)] for j in range(n)]
    matrix = sp.Matrix([field.dot([v], [u]) for u in unit]).T
    det = matrix.det()
    sign = 1 if det > 0 else -1
    assert den == abs(det)
    assert list(w) == [sign * c for c in matrix.adjugate()[:, 0]]
    with pytest.raises(ZeroDivisionError):
        field.inverse([0] * field.degree)


# -- root_orbits against sympy's factor_list -----------------------------------


def _sympy_factors(coeffs):
    """sympy's irreducible factors over ZZ with their multiplicities, in its
    order; each factor as integer coefficients lowest first."""
    _content, factors = sp.Poly(list(reversed(coeffs)), sp.Symbol("x"), domain="ZZ").factor_list()
    return [(tuple(int(c) for c in reversed(f.all_coeffs())), int(m)) for f, m in factors]


def _orbit_factors(orbits):
    """The witness of each orbit's field: q x - p for a rational root p/q."""
    assert all(isinstance(field, NumberField) for field, _mult in orbits)
    return [(field.witness, mult) for field, mult in orbits]


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
