from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from coniclines.intersect import IntersectionError, _eliminate_x, _intersect_conics, _NotGeneric
from coniclines.polynomials import (
    TernaryForm,
    UPoly,
    format_rational,
    parse_rational,
    poly_gcd,
)


def test_rational_round_trip():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(5)) == "5"


def test_upoly_divmod():
    p = UPoly([1, -3, 0, 2])  # 2x^3 - 3x + 1
    q = UPoly([-1, 1])        # x - 1
    quo, rem = divmod(p, q)
    assert rem.is_zero
    assert quo * q == p


def test_upoly_eval_horner():
    p = UPoly([1, 2, 3])
    assert p(F(1, 2)) == 1 + 1 + F(3, 4)


def test_poly_gcd_common_factor():
    a = UPoly([-1, 1])      # x - 1
    b = UPoly([1, 1])       # x + 1
    c = UPoly([2, 0, 1])    # x^2 + 2
    assert poly_gcd(a * a * b, a * c * 3) == a.monic()
    assert poly_gcd(a * b * c, UPoly([F(1, 2)]) * b * c) == (b * c).monic()
    assert poly_gcd(a, b) == UPoly([1])
    assert poly_gcd(UPoly(), c) == c.monic()


def test_primitive_normalization():
    p = UPoly([F(1, 2), F(-3, 4)])
    prim = p.primitive()
    assert prim == UPoly([-2, 3])
    assert prim.leading > 0


def test_resultant_self_vanishes():
    p = TernaryForm.conic(1, 1, -2, 0, 0, 0)
    assert _eliminate_x(p, p)[0].is_zero
    assert _eliminate_x(p, p.scale(F(-3, 2)))[0].is_zero
    with pytest.raises(IntersectionError, match="identical curves"):
        _intersect_conics(p, p.scale(3))


def test_resultant_nothing_to_eliminate():
    # without an x^2 term the conic passes through (1:0:0), where the
    # elimination would lose a point; the engine changes coordinates
    p = TernaryForm.conic(0, 1, -1, 1, 0, 0)
    q = TernaryForm.conic(1, 1, -1, 0, 0, 0)
    with pytest.raises(_NotGeneric, match="passes through"):
        _eliminate_x(p, q)


_COEFF = st.integers(-6, 6)
_CONIC = st.tuples(*[_COEFF] * 6)


@settings(max_examples=60, deadline=None)
@given(_CONIC, _CONIC)
def test_resultant_specialization(pc, qc):
    # the closed-form quartic is sympy's resultant in x at z = 1
    assume(pc[0] != 0 and qc[0] != 0)
    x, y = sp.symbols("x y")
    p, q = TernaryForm.conic(*pc), TernaryForm.conic(*qc)
    expected = sp.Poly(sp.resultant(p(x, y, 1), q(x, y, 1), x), y)
    coeffs = [F(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())]
    assert _eliminate_x(p, q)[0] == UPoly(coeffs)


def test_compose_linear_swap():
    p = TernaryForm.conic(1, 2, 3, 0, 0, 0)
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert p.compose_linear(swap) == TernaryForm.conic(2, 1, 3, 0, 0, 0)


def test_gradient():
    p = TernaryForm.conic(1, 1, -1, 0, 0, 0)
    gx, gy, gz = p.gradient()
    assert gx == TernaryForm.line(2, 0, 0)
    assert gy == TernaryForm.line(0, 2, 0)
    assert gz == TernaryForm.line(0, 0, -2)
