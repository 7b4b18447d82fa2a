from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from coniclines.intersect import (
    IntersectionError,
    _changed_conic,
    _conic_value,
    _eliminate_x,
    _intersect_conics,
    _NotGeneric,
)
from coniclines.polynomials import (
    coprime_integers,
    parse_integer,
    parse_rational,
    primitive,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=6).filter(any),
       st.integers(1, 30))
def test_coprime_integers_of_integers_agree_with_fractions(values, den):
    expected = coprime_integers([F(v, den) for v in values])
    assert coprime_integers(values) == coprime_integers(tuple(values)) == expected
    assert primitive(values) == primitive([F(v, den) for v in values])


def test_rational_round_trip():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)


def _in_integer_grammar(text: str) -> bool:
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits != "" and all(c in "0123456789" for c in digits)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=5) | st.from_regex(r"[+-]?[0-9_ \u0660-\u0669\uff10-\uff19]{0,4}",
                                            fullmatch=True))
def test_parse_integer_takes_exactly_ascii_digits(text):
    # int() alone takes "_" separators, surrounding spaces and any Unicode
    # decimal digit
    if _in_integer_grammar(text):
        assert parse_integer(text) == int(text)
    else:
        with pytest.raises(ValueError):
            parse_integer(text)


@pytest.mark.parametrize("text, value", [
    ("+5", F(5)), ("-0", F(0)), ("007/-014", F(-1, 2)), ("12/8", F(3, 2)),
])
def test_rational_grammar_accepts(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", [
    "1_0", "\u0661", "\uff12", "1/2_0", "1/\u0662", " 2", "2 ", "1 /2", "1/ 2",
    "", "/", "1/", "/2", "1/2/3", "+-1", "2.0", "1e3", "0x10", "1/0",
])
def test_rational_grammar_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_primitive_normalization():
    prim = primitive([F(1, 2), F(-3, 4)])
    assert prim == (-2, 3)
    assert prim[-1] > 0
    assert primitive([4, -6, -8]) == (-2, 3, 4)


def test_resultant_self_vanishes():
    p = (1, 1, -2, 0, 0, 0)
    assert not any(_eliminate_x(p, p)[0])
    assert not any(_eliminate_x(p, tuple(-3 * c for c in p))[0])
    with pytest.raises(IntersectionError, match="identical curves"):
        _intersect_conics(p, tuple(3 * c for c in p))


def test_resultant_nothing_to_eliminate():
    # without an x^2 term the conic passes through the projection centre
    # (1:0:0), where the elimination would lose a point; the engine moves
    # the centre
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
    expected = sp.Poly(sp.resultant(_conic_value(pc, x, y, 1), _conic_value(qc, x, y, 1), x), y)
    coeffs = [int(c) for c in reversed(expected.all_coeffs())]
    quartic = _eliminate_x(pc, qc)[0]
    assert quartic == coeffs + [0] * (5 - len(coeffs))


@settings(max_examples=60, deadline=None)
@given(_CONIC, st.integers(0, 30))
def test_changed_conic_is_the_substitution(pc, t):
    # the changed conic is the conic at M_t v = (X, t X + Y, t^3 X + Z): a
    # conic is determined by its values at these six points
    changed = _changed_conic(pc, t)
    for x, y, z in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]:
        assert _conic_value(changed, x, y, z) == _conic_value(pc, x, t * x + y, t ** 3 * x + z)
