from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from coniclines.curves import PlaneCurve
from coniclines.intersect import (
    IntersectionError,
    _changed_conic,
    _conic_value,
    _eliminate_x,
    _intersect_conics,
    _NotGeneric,
)
from coniclines.polynomials import (
    TernaryForm,
    format_rational,
    parse_rational,
    primitive,
)


def test_rational_round_trip():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(5)) == "5"


def test_primitive_normalization():
    prim = primitive([F(1, 2), F(-3, 4)])
    assert prim == (-2, 3)
    assert prim[-1] > 0
    assert primitive([4, -6, -8]) == (-2, 3, 4)


def test_resultant_self_vanishes():
    p = (1, 1, -2, 0, 0, 0)
    assert not any(_eliminate_x(p, p)[0])
    assert not any(_eliminate_x(p, tuple(-3 * c for c in p))[0])
    conic = TernaryForm.conic(*p)
    with pytest.raises(IntersectionError, match="identical curves"):
        _intersect_conics(PlaneCurve("conic", conic), PlaneCurve("conic", conic.scale(3)))


def test_resultant_nothing_to_eliminate():
    # without an x^2 term the conic passes through (1:0:0), where the
    # elimination would lose a point; the engine changes coordinates
    p = (0, 1, -1, 1, 0, 0)
    q = (1, 1, -1, 0, 0, 0)
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
    coeffs = [int(c) for c in reversed(expected.all_coeffs())]
    quartic = _eliminate_x(pc, qc)[0]
    assert quartic == coeffs + [0] * (5 - len(coeffs))


@settings(max_examples=60, deadline=None)
@given(_CONIC, st.lists(st.integers(-3, 3), min_size=9, max_size=9),
       st.tuples(*[st.integers(-5, 5)] * 3))
def test_changed_conic_is_the_substitution(pc, entries, v):
    # the changed conic at v is the conic at M v
    matrix = [entries[0:3], entries[3:6], entries[6:9]]
    mv = [sum(matrix[i][j] * v[j] for j in range(3)) for i in range(3)]
    assert _conic_value(_changed_conic(pc, matrix), *v) == _conic_value(pc, *mv)
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert _changed_conic((1, 2, 3, 0, 0, 0), swap) == (2, 1, 3, 0, 0, 0)
