from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from coniclines import intersect
from coniclines.intersect import (
    _conic_value,
    _expansion,
    _intersect_conics,
    _intersect_conics_from,
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


def test_resultant_nothing_to_eliminate():
    # without an x^2 term the conic passes through the projection centre
    # (1:0:0), where the elimination would lose a point; the engine moves
    # the centre; C_1 = (1 : 1 : 1) fails the fiber test, and C_2 decides
    p = (0, 1, -1, 1, 0, 0)
    q = (1, 1, -1, 0, 0, 0)
    assert _intersect_conics_from(p, q, 0) is None
    assert _intersect_conics_from(p, q, 1) is None
    assert _intersect_conics(p, q) == _intersect_conics_from(p, q, 2)


_COEFF = st.integers(-6, 6)
_CONIC = st.tuples(*[_COEFF] * 6)


def _quartic(p, q, t):
    """The binary quartic that ``_intersect_conics_from`` factors at the
    centre C_t, or None when it returns before factoring."""
    seen = []
    points = intersect._points
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(intersect, "_points",
                            lambda form, coords: seen.append(form) or points(form, coords))
        _intersect_conics_from(p, q, t)
    return seen[0] if seen else None


@settings(max_examples=60, deadline=None)
@given(_CONIC, _CONIC, st.integers(0, 4))
def test_resultant_specialization(pc, qc, t):
    # the quartic is sympy's resultant in x of the conics at
    # (x, t x + y, t^3 x + 1), up to a nonzero rational factor
    quartic = _quartic(pc, qc, t)
    assume(quartic is not None)
    x, y = sp.symbols("x y")
    point = (x, t * x + y, t ** 3 * x + 1)
    expected = sp.Poly(sp.resultant(_conic_value(pc, *point), _conic_value(qc, *point), x), y)
    coeffs = [int(c) for c in reversed(expected.all_coeffs())]
    coeffs += [0] * (5 - len(coeffs))
    i = next(i for i, c in enumerate(coeffs) if c)
    assert quartic[i] and all(u * coeffs[i] == quartic[i] * v for u, v in zip(quartic, coeffs))


_SMALL = st.integers(-50, 50)


@settings(max_examples=200, deadline=None)
@given(_CONIC, st.integers(0, 30), _SMALL, _SMALL, _SMALL)
def test_expansion_at_the_centre(pc, t, x, y, z):
    # Q(X C + (0, Y, Z)) = Q(C) X^2 + (grad Q(C) . (0, Y, Z)) X + Q(0, Y, Z)
    # for C = (1, t, t^3), at integer (X, Y, Z)
    a2, a1, a0 = _expansion(pc, t)
    value = _conic_value(pc, x, t * x + y, t ** 3 * x + z)
    assert value == (a2 * x * x + (a1[0] * z + a1[1] * y) * x
                     + a0[0] * z * z + a0[1] * y * z + a0[2] * y * y)
