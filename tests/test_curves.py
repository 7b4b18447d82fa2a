import math
from fractions import Fraction as F

import mpmath
import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from coniclines.algebraic import NumberField, root_orbits
from coniclines.catalog import catalog_get, catalog_list
from coniclines.curves import (
    Arrangement,
    CombinatorialType,
    ParseError,
    PlaneCurve,
    ProjectivePoint,
    SingularPoint,
    ValidationError,
    _det_2a,
    parse_arrangement,
    parse_combinatorial_type,
    parse_input,
    serialize_arrangement,
    serialize_combinatorial_type,
    validate_arrangement,
    validate_curve,
)
from coniclines.intersect import combinatorial_type, intersect_pair
from oracles import approx, from_coords


def line(a, b, c):
    return PlaneCurve("line", (a, b, c))


def conic(*cs):
    return PlaneCurve("conic", cs)


def test_unit_circle_is_smooth():
    c = conic(1, 1, -1, 0, 0, 0)
    # det(2A) = 8 det(A), and det(A) = -1
    assert _det_2a(c.coefficients) == -8
    validate_curve(c)


def test_line_pair_rejected():
    c = conic(1, -1, 0, 0, 0, 0)  # x^2 - y^2
    assert _det_2a(c.coefficients) == 0
    with pytest.raises(ValidationError, match="line pair or double line"):
        validate_curve(c)


def test_degenerate_pencil_member_rejected():
    # x^2 - z^2 + t (y^2 - z^2) with t = -1 becomes x^2 - y^2
    t = F(-1)
    c = conic(1, t, -(1 + t), 0, 0, 0)
    with pytest.raises(ValidationError):
        validate_curve(c)


def test_coordinate_triangle_validates():
    validate_arrangement(Arrangement((line(1, 0, 0), line(0, 1, 0),
                                      line(0, 0, 1))))


def test_proportional_forms_rejected():
    arr = Arrangement((line(1, 0, -1), line(2, 0, -2)))
    with pytest.raises(ValidationError, match=r"pair \(0, 1\)"):
        validate_arrangement(arr)


# -- integer validation against the Fraction definitions ----------------------


def _fraction_det(values):
    """Determinant of the symmetric matrix of a conic with rational
    coefficients a x^2 + b y^2 + c z^2 + d xy + e xz + f yz."""
    a, b, c, d, e, f = values
    h, g, i = d / 2, e / 2, f / 2
    return a * (b * c - i * i) - h * (h * c - i * g) + g * (h * i - b * g)


def _fraction_proportional(u, v):
    """Are two rational coefficient vectors proportional?"""
    if len(u) != len(v) or [x == 0 for x in u] != [x == 0 for x in v]:
        return False
    k = next(i for i, x in enumerate(u) if x != 0)
    ratio = v[k] / u[k]
    return all(y == x * ratio for x, y in zip(u, v))


_RATIONAL = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _rational_curves(draw):
    """(kind, rational coefficients): random lines and conics, and line
    pairs and double lines, whose determinant is zero."""
    kind = draw(st.sampled_from(["line", "conic", "line pair"]))
    if kind == "line":
        values = draw(st.lists(_RATIONAL, min_size=3, max_size=3))
    elif kind == "conic":
        values = draw(st.lists(_RATIONAL, min_size=6, max_size=6))
    else:
        (a1, b1, c1), (a2, b2, c2) = draw(st.lists(
            st.lists(_RATIONAL, min_size=3, max_size=3), min_size=2, max_size=2))
        values = [a1 * a2, b1 * b2, c1 * c2, a1 * b2 + a2 * b1, a1 * c2 + a2 * c1,
                  b1 * c2 + b2 * c1]
    assume(any(values))
    return ("line" if len(values) == 3 else "conic"), values


def _curve(kind, values):
    return PlaneCurve(kind, values)


@settings(max_examples=200, deadline=None)
@given(_rational_curves())
def test_integer_smoothness_agrees_with_fractions(curve):
    kind, values = curve
    singular = kind == "conic" and _fraction_det(values) == 0
    try:
        validate_curve(_curve(kind, values))
    except ValidationError as exc:
        assert singular and "line pair or double line" in str(exc)
    else:
        assert not singular


@settings(max_examples=100, deadline=None)
@given(_rational_curves(), _rational_curves(),
       st.sampled_from([None, 1, -1, 3, F(-2, 3), F(5, 7)]))
def test_integer_duplicates_agree_with_fractions(first, second, scale):
    # with a scale the second curve is the first one scaled, else drawn
    # independently; a line never matches a conic
    if scale is not None:
        second = (first[0], [scale * v for v in first[1]])
    for kind, values in (first, second):
        assume(kind == "line" or _fraction_det(values) != 0)
    duplicate = _fraction_proportional(first[1], second[1])
    try:
        validate_arrangement(Arrangement((_curve(*first), _curve(*second))))
    except ValidationError as exc:
        assert duplicate and str(exc) == "duplicate curve: pair (0, 1)"
    else:
        assert not duplicate


# -- one representation: a curve is its kind and coprime integers ------------


_COEFF = st.builds(F, st.integers(-50, 50), st.integers(1, 20))
_SCALE = st.builds(F, st.integers(-20, 20).filter(bool), st.integers(1, 20))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["line", "conic"]), st.data(), _SCALE)
def test_scaled_coefficients_are_one_curve(kind, data, scale):
    values = data.draw(st.lists(_COEFF, min_size=3 if kind == "line" else 6,
                                max_size=3 if kind == "line" else 6).filter(any))
    curve = PlaneCurve(kind, values)
    scaled = PlaneCurve(kind, [scale * v for v in values])
    # coprime integers fix the curve up to sign, and a negative scale flips it
    sign = 1 if scale > 0 else -1
    assert scaled.coefficients == tuple(sign * v for v in curve.coefficients)
    if scale > 0:
        assert scaled == curve
    assume(kind == "line" or _det_2a(curve.coefficients) != 0)
    with pytest.raises(ValidationError) as exc:
        validate_arrangement(Arrangement((curve, scaled)))
    assert str(exc.value) == "duplicate curve: pair (0, 1)"
    arr = Arrangement((PlaneCurve(kind, values, f"{kind}1"),
                       PlaneCurve(kind, [scale * v for v in values], f"{kind}2")))
    assert parse_arrangement(serialize_arrangement(arr)) == arr


@pytest.mark.parametrize("kind, values, message", [
    ("line", (1, 0), "a line needs 3 coefficients"),
    ("conic", (1, 1, -1), "a conic needs 6 coefficients"),
    ("line", (1, 0, 0, 0, 0, 0), "a line needs 3 coefficients"),
    ("line", (0, 0, 0), "zero polynomial"),
    ("conic", (F(0),) * 6, "zero polynomial"),
    ("circle", (1, 1, -1), "unknown curve kind 'circle'"),
    ("line", (0.5, 1, 0), "coefficients must be integers or Fractions"),
])
def test_plane_curve_rejects_bad_coefficients(kind, values, message):
    with pytest.raises(ValidationError) as exc:
        PlaneCurve(kind, values)
    assert str(exc.value) == message


def test_validation_names_curve_index_and_label():
    arr = parse_arrangement("line: 0 1 0\nline: 1 0 0\nconic: 1 0 -1 0 0 0\n")
    with pytest.raises(ValidationError) as exc:
        validate_arrangement(arr)
    assert str(exc.value) == "curve 2 (conic3): conic is a line pair or double line"
    # an unlabeled curve is named by its record
    with pytest.raises(ValidationError) as exc:
        validate_arrangement(Arrangement((line(0, 1, 0), conic(2, 0, -2, 0, 0, 0))))
    assert str(exc.value) == ("curve 1 (conic: 1 0 -1 0 0 0): "
                              "conic is a line pair or double line")
    with pytest.raises(ValidationError) as exc:
        validate_curve(conic(2, 0, -2, 0, 0, 0))
    assert str(exc.value) == "conic: 1 0 -1 0 0 0: conic is a line pair or double line"


def test_pencil4_catalog_entry_validates():
    arr = catalog_get("pencil4").build(k=3, t=(1, 2, 3))
    assert len(arr.curves) == 5
    validate_arrangement(arr)


def test_empty_arrangement_rejected():
    with pytest.raises(ValidationError, match="at least one curve"):
        Arrangement(())


def test_combinatorial_type_invariants():
    ct = CombinatorialType(d=2, k=0, t={2: 1})
    assert ct.t_of(2) == 1 and ct.t_of(3) == 0
    with pytest.raises(ValidationError):
        CombinatorialType(d=1, k=0, t={2: 1})  # only one curve
    with pytest.raises(ValidationError):
        CombinatorialType(d=2, k=0, t={1: 1})
    with pytest.raises(ValidationError):
        CombinatorialType(d=-1, k=0, t={})


def test_parse_simple_records():
    arr = parse_arrangement("line: 1 0 -1\nconic: 1 1 -2 0 0 0\n")
    assert arr.curves[0].kind == "line"
    assert (arr.curves[0].kind, arr.curves[0].coefficients) == ("line", (1, 0, -1))
    assert (arr.curves[1].kind, arr.curves[1].coefficients) == ("conic", (1, 1, -2, 0, 0, 0))


def test_parse_reducible_conic_is_a_downstream_rejection():
    # the parser accepts the record; validation rejects it
    arr = parse_arrangement("conic: 1 0 -1 0 0 0\n")
    with pytest.raises(ValidationError):
        validate_arrangement(arr)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="line 2"):
        parse_arrangement("line: 1 0 -1\nline: 1 0\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_arrangement("circle: 1 1 -1\n")
    with pytest.raises(ParseError, match="coefficient"):
        parse_arrangement("line: 1 0 z\n")
    for text, message in [("line: 1 0 -1\nconic: 1 2 3\n", "line 2: a conic needs 6 coefficients"),
                          ("# x\nline: 0 0/5 0\n", "line 2: zero polynomial"),
                          ("circle: 1 1 -1\n", "line 1: unknown record 'circle'")]:
        with pytest.raises(ParseError) as exc:
            parse_arrangement(text)
        assert str(exc.value) == message


def test_arrangement_round_trip():
    text = "line: 1 0 -1\nconic: 1/2 1 -2 0 0 3/7\n"
    arr = parse_arrangement(text)
    assert parse_arrangement(serialize_arrangement(arr)) == arr


def test_catalog_round_trips():
    for name in catalog_list():
        entry = catalog_get(name)
        ct_text = serialize_combinatorial_type(entry.ct)
        assert parse_combinatorial_type(ct_text) == entry.ct
        if entry.builder is not None:
            arr = entry.build()
            back = parse_arrangement(serialize_arrangement(arr))
            assert [(c.kind, c.coefficients) for c in back.curves] == \
                [(c.kind, c.coefficients) for c in arr.curves]


def test_combinatorial_type_file_format():
    text = "d=9 k=12\nt 9 = 9\nt 5 = 12\nt 2 = 72\n"
    ct = parse_combinatorial_type(text)
    assert ct == CombinatorialType(d=9, k=12, t={9: 9, 5: 12, 2: 72})
    with pytest.raises(ParseError):
        parse_combinatorial_type("t 2 = 5\n")
    with pytest.raises(ParseError):
        parse_combinatorial_type("d=2 k=0\nt2=1\n")


def test_repeated_type_count_rejected():
    with pytest.raises(ParseError, match="line 3: t 2 is given twice"):
        parse_combinatorial_type("d=2 k=1\nt 2 = 1\nt 2 = 5\n")


@pytest.mark.parametrize("header", ["d=2 k=1 d=3", "k=1 d=2 k=1", "d=2 k=1 x",
                                    "d=2 k=1 r=3", "d=2 k", "d=2", "d=2 d=2"])
def test_malformed_type_header_rejected(header):
    # a repeated key is not its last value, and a stray token is not dropped
    with pytest.raises(ParseError, match="line 2: expected header 'd=<int> k=<int>', "
                                         "each once and nothing else"):
        parse_combinatorial_type(f"# type\n{header}\nt 2 = 1\n")


@pytest.mark.parametrize("record, token", [
    ("line: 1_0 0 -1", "1_0"),
    ("line: 0 \u0661 -1", "\u0661"),
    ("conic: 1 1 -2 0 0 1/\uff12", "\uff12"),
], ids=["underscore", "arabic-indic-digit", "fullwidth-denominator"])
def test_arrangement_coefficients_are_ascii_integers(record, token):
    with pytest.raises(ParseError) as info:
        parse_arrangement(f"line: 0 1 -1\n{record}\n")
    assert str(info.value) == f"line 2: bad coefficient (not an integer: {token!r})"


@pytest.mark.parametrize("text, lineno, token", [
    ("d=1_0 k=0\n", 1, "1_0"),
    ("d=2 k=\u0661\n", 1, "\u0661"),
    ("d=2 k=0\nt \uff12 = 1\n", 2, "\uff12"),
    ("d=2 k=0\nt 2 = 4_5\n", 2, "4_5"),
], ids=["underscore-d", "arabic-indic-k", "fullwidth-r", "underscore-count"])
def test_type_integers_are_ascii(text, lineno, token):
    with pytest.raises(ParseError) as info:
        parse_combinatorial_type(text)
    assert str(info.value) == f"line {lineno}: expected an integer, got {token!r}"


def test_record_without_a_colon_rejected():
    with pytest.raises(ParseError) as info:
        parse_arrangement("line: 1 0 -1\nconic 1 1 -1 0 0 0\n")
    assert str(info.value) == "line 2: expected 'line:' or 'conic:' record"


def test_arrangement_without_records_rejected():
    with pytest.raises(ParseError, match="no curve records found"):
        parse_arrangement("# only a comment\n\n   \n")


def test_singular_point_needs_two_curves():
    point = ProjectivePoint.from_integers(0, 0, 1)
    with pytest.raises(ValidationError, match="multiplicity >= 2"):
        SingularPoint(location=point, incident=frozenset({0}), delta=0)
    # every pair of a point's three curves meets there at least once
    with pytest.raises(ValidationError, match=r"^delta 2 < C\(3, 2\)$"):
        SingularPoint(location=point, incident=frozenset({0, 1, 2}), delta=2)
    assert SingularPoint(location=point, incident=frozenset({0, 1}),
                         delta=1).multiplicity == 2


def test_combinatorial_types_hash_by_value():
    # a zero count is dropped, so t with it equals t without it
    a = CombinatorialType(d=3, k=1, t={2: 3, 3: 1, 4: 0})
    b = CombinatorialType(d=3, k=1, t={3: 1, 2: 3})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert CombinatorialType(d=3, k=1, t={2: 3}) not in {a}


def test_type_header_in_either_order():
    assert parse_combinatorial_type("k=1 d=2\nt 2 = 1\n") == \
        CombinatorialType(d=2, k=1, t={2: 1})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(" \t", min_size=1, max_size=3), min_size=4, max_size=4),
       st.sampled_from(["\n", "\r\n"]), st.sampled_from(["", "# \u00a0\u2028\x0c"]))
def test_record_fields_are_separated_by_ascii_spaces_and_tabs(seps, end, comment):
    # any run of spaces and tabs separates fields, before and after them
    # too; a comment may hold any character
    record = seps[0] + "line:" + seps[1] + "1/2" + seps[2] + "0" + seps[3] + "-1"
    arr = parse_arrangement(f"conic: 1 1 -2 0 0 0{end}{record}{comment}{end}")
    assert arr.curves[1].coefficients == (1, 0, -2)


@settings(max_examples=200, deadline=None)
@given(st.characters().filter(lambda c: not c.isprintable() and c not in " \t\n\r"),
       st.integers(0, len("line: 1 0 -1")))
def test_other_unprintable_characters_rejected(char, position):
    # U+00A0 and U+3000 are whitespace to str.split, and U+2028 and a form
    # feed end a line for str.splitlines
    record = "line: 1 0 -1"
    text = f"line: 0 1 -1\n{record[:position]}{char}{record[position:]} # c\n"
    with pytest.raises(ParseError) as info:
        parse_arrangement(text)
    assert str(info.value) == (f"line 2: unexpected character U+{ord(char):04X}; "
                               "fields are separated by ASCII spaces and tabs")


@pytest.mark.parametrize("text, lineno, char", [
    ("line: 1\u00a00 -1\n", 1, "\u00a0"),
    ("line: 1 0 -1\u2028line: 0 1 -1\n", 1, "\u2028"),
    ("line: 1 0 -1\x0cline: 0 1 -1\n", 1, "\x0c"),
    ("line: 1 0 -1\rline: 0 1 -1\n", 1, "\r"),
    ("line: 0 1 -1\nline: 1 0\r -1\r\n", 2, "\r"),
    ("d=2 k=1\nt 2\u3000= 1\n", 2, "\u3000"),
    ("\ufeffd=2 k=1\nt 2 = 1\n", 1, "\ufeff"),
], ids=["no-break-space", "line-separator", "form-feed", "lone-cr", "inner-cr",
        "ideographic-space", "bom-in-text"])
def test_records_outside_the_grammar(text, lineno, char):
    # str.split takes U+00A0 and U+3000 as separators, and str.splitlines
    # ends a record at U+2028, a form feed or a lone "\r"
    with pytest.raises(ParseError, match=f"line {lineno}: unexpected character "
                                         f"U\\+{ord(char):04X}"):
        parse_input(text)


@pytest.mark.parametrize("record", ["t 2 1", "t 2=1", "t 2 = 1", "t 2= 1", "t 2 =1",
                                    "\tt\t2\t=\t1\t"])
def test_type_record_takes_at_most_one_equals_sign(record):
    assert parse_combinatorial_type(f"d=2 k=1\n{record}\n") == \
        CombinatorialType(d=2, k=1, t={2: 1})


@pytest.mark.parametrize("record", ["t = 2 1", "t=2 1", "t 2 == 1", "t 2 = = 1",
                                    "t 2 1 =", "t 2=1=", "t 2 1 1", "t 21", "s 2 = 1"])
def test_malformed_type_record_rejected(record):
    # every "=" used to become a space, so "t = 2 1" was read as t_2 = 1
    with pytest.raises(ParseError, match="line 2: expected 't <r> = <count>', "
                                         "the '=' optional"):
        parse_combinatorial_type(f"d=2 k=1\n{record}\n")


def test_parse_input_reads_the_format_from_the_first_record():
    assert parse_input("# x\n\n line: 1 0 -1\n") == parse_arrangement("line: 1 0 -1\n")
    assert parse_input("d=2 k=1\r\nt 2 1\r\n") == CombinatorialType(d=2, k=1, t={2: 1})
    with pytest.raises(ParseError, match="missing 'd=<int> k=<int>' header"):
        parse_input("# only a comment\n")


def test_projective_point_normalization():
    p = from_coords(F(2), F(4), F(2))
    assert p.vectors == ((1,), (2,), (1,)) and repr(p) == "(1 : 2 : 1)"
    q = from_coords(F(-3, 2), F(-5, 2), F(0))
    assert q.vectors == ((3,), (5,), (0,)) and repr(q) == "(3/5 : 1 : 0)"
    with pytest.raises(ValidationError):
        from_coords(F(0), F(0), F(0))


def test_from_coords_takes_only_ints_and_fractions():
    # a field element's vector, a complex number or a float is no
    # rational coordinate
    for coords in (((0, 1), F(0), F(1)), (F(1), F(2), 1j), (0.5, 1, 1)):
        with pytest.raises(TypeError):
            from_coords(*coords)


@pytest.mark.parametrize("witness, vectors, text", [
    # a purely imaginary quotient keeps its real part exactly 0
    ([3, 0, 1], ((0, 1), (0, 0), (3, 0)), "(~0-0.5774j : 0 : 1)"),
    # a rational quotient of irrational vectors prints exactly
    ([3, 0, 1], ((1, 1), (0, 0), (2, 2)), "(1/2 : 0 : 1)"),
    # z = 0, so y is the pivot
    ([-2, 0, 1], ((0, 1), (1, 0), (0, 0)), "(~-1.414+0j : 1 : 0)"),
], ids=["imaginary", "rational-quotient", "pivot-y"])
def test_display_divides_by_the_pivot_exactly(witness, vectors, text):
    point = ProjectivePoint(NumberField(witness), 0, vectors)
    assert repr(point) == text


_COORD = st.integers(-40, 40) | st.sampled_from([0, 0, 1, -1])


@settings(max_examples=200, deadline=None)
@given(st.tuples(_COORD, _COORD, _COORD).filter(any), st.integers(1, 6),
       st.sampled_from([1, -1]))
def test_integer_points_agree_with_from_coords(xyz, den, sign):
    point = ProjectivePoint.from_integers(*xyz)
    # the same point given by Fractions over a common denominator
    other = from_coords(*(F(sign * v, den) for v in xyz))
    pivot = next(v for v in reversed(xyz) if v != 0)
    normalized = [F(v, pivot) for v in xyz]
    common = math.lcm(*(c.denominator for c in normalized))
    vectors = tuple((c.numerator * (common // c.denominator),) for c in normalized)
    for p in (point, other):
        assert approx(p) == tuple(complex(c) for c in normalized)
        assert p.vectors == vectors
        assert p.field.degree == 1 and p.conjugate == 0
        assert repr(p) == repr(point)
    assert point == other and hash(point) == hash(other)


def test_zero_point_rejected():
    with pytest.raises(ValidationError):
        ProjectivePoint.from_integers(0, 0, 0)


@st.composite
def _irrational_points(draw):
    """A point of random integer vectors in the field of a random integer
    quadratic, cubic or quartic's irreducible factor."""
    degree = draw(st.integers(2, 4))
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=degree, max_size=degree))
    coeffs.append(draw(st.integers(1, 4)))
    fields = [root for root, _mult in root_orbits(coeffs) if isinstance(root, NumberField)]
    assume(fields)
    field = draw(st.sampled_from(fields))
    vector = st.tuples(*[st.integers(-9, 9)] * field.degree)
    vectors = draw(st.tuples(vector, vector, vector).filter(
        lambda vs: any(any(v[1:]) for v in vs)))
    return draw(st.sampled_from(ProjectivePoint(field, 0, vectors).conjugates()))


@settings(max_examples=100, deadline=None)
@given(_irrational_points())
def test_conjugates_share_vectors(point):
    orbit = point.conjugates()
    assert len(orbit) == point.field.degree and orbit[point.conjugate] is point
    for k, conj in enumerate(orbit):
        assert conj.conjugate == k and conj.field == point.field
        assert conj.vectors is point.vectors
        # the display of conjugate k is the quotient of the vectors'
        # values at b_k = c_n a_k, by the last nonzero one
        with mpmath.workdps(30):
            b = point.field.roots()[k] * point.field.lead
            values = [complex(mpmath.polyval(list(reversed(v)), b)) for v in point.vectors]
        pivot = next(value for value in reversed(values) if value != 0)
        assert approx(conj) == pytest.approx([value / pivot for value in values],
                                              rel=1e-6, abs=1e-9)


def test_display_of_coordinates_far_below_one():
    # x^2 + y^2 - z^2, plus 10^-80 (x - z)^2 and a 10^-240-scaled conic, all
    # times 10^240: the four points have y of modulus about 2.3e-40, far
    # below the absolute stopping test of polyroots at 30 digits
    big, mid = 10 ** 240, 10 ** 160
    a, b, c, d, e, f = (big + mid + 3, big - 2, -big + mid + 5, 7, -2 * mid - 1, 2)
    points = combinatorial_type(Arrangement((conic(1, 1, -1, 0, 0, 0),
                                             conic(a, b, c, d, e, f)))).points
    x, y = sp.symbols("x y")
    unit = x ** 2 + y ** 2 - 1
    other = a * x ** 2 + b * y ** 2 + c + d * x * y + e * x + f * y
    expected = []
    with mpmath.workdps(60):
        for root in sp.Poly(sp.resultant(unit, other, x), y).nroots(n=60, maxsteps=500):
            yk = mpmath.mpc(*map(str, root.as_real_imag()))
            # other - a * unit is linear in x
            xk = -((b - a) * yk ** 2 + f * yk + (c + a)) / (d * yk + e)
            expected.append((complex(xk), complex(yk)))
    assert len(points) == len(expected) == 4
    for point in points:
        xk, yk, zk = approx(point.location)
        want = min(expected, key=lambda pair: abs(pair[1] - yk))
        expected.remove(want)
        assert zk == 1 and abs(yk) < 1e-39
        assert (xk, yk) == pytest.approx(want, rel=1e-6, abs=0)


def test_roots_give_up_after_doubling_to_their_cap(monkeypatch):
    # every try fails.  For y^2 - 2 10^100, Cauchy's bounds put the first
    # retry below the cap from Mahler's bound, so the tries double, all
    # three settings at once, before roots raises naming the witness
    tries = []

    def failing(coeffs, maxsteps, extraprec, error):
        tries.append((mpmath.mp.prec, extraprec, maxsteps))
        raise mpmath.mp.NoConvergence

    monkeypatch.setattr(mpmath, "polyroots", failing)
    field = NumberField((-2 * 10 ** 100, 0, 1))
    with pytest.raises(ArithmeticError) as info:
        field.roots()
    assert str(info.value) == f"no accurate roots of the witness {field.witness}"
    assert len(tries) >= 3
    for before, after in zip(tries[1:], tries[2:]):
        assert after == tuple(2 * x for x in before)


def test_approx_past_the_double_range():
    # the tests' float view: a part past the double range is +-inf by its
    # sign, and one below it 0, for a rational coordinate as for an
    # irrational one; repr stays exact
    huge = ProjectivePoint.from_integers(10**400, 1, 1)
    assert approx(huge) == (math.inf, 1, 1)
    assert repr(huge) == f"({10**400} : 1 : 1)"
    assert approx(ProjectivePoint.from_integers(-10**400, 1, 1)) == (-math.inf, 1, 1)
    assert approx(ProjectivePoint.from_integers(1, -1, 10**400)) == (0, 0, 1)
    # x = z meets x^2 + y^2 = (1 + 2 10^800) z^2 at (1 : +-sqrt 2 10^400 : 1)
    [(orbit, _)] = intersect_pair(line(1, 0, -1), conic(1, 1, -(1 + 2 * 10**800), 0, 0, 0))
    assert sorted(approx(p)[1].real for p in orbit.conjugates()) == [-math.inf, math.inf]


def test_repr_past_the_double_range():
    # a part whose float is +-inf, or subnormal with too few bits for 4
    # digits, prints from its exact value, in .4g style
    reprs = []
    for ln, c in [((1, 0, -1), (1, 1, -(1 + 2 * 10**800), 0, 0, 0)),  # y = +-sqrt 2 10^400
                  ((1, 0, -1), (1, 1, 2 * 10**800 - 1, 0, 0, 0)),     # y = +-i sqrt 2 10^400
                  ((1, 0, -1), (1, 1, -10**802, 0, 0, 0)),  # y = +-(10^401 - 5e-402)
                  ((0, 1, 0), (10**642, 1, -2, 0, 0, 0)),   # x = +-sqrt 2 10^-321
                  ((0, 1, 0), (10**644, 1, -2, 0, 0, 0)),   # x = +-sqrt 2 10^-322
                  ((0, 1, 0), (10**646, 1, -2, 0, 0, 0))]:  # x = +-sqrt 2 10^-323
        [(orbit, _)] = intersect_pair(line(*ln), conic(*c))
        reprs += sorted(repr(p) for p in orbit.conjugates())
    assert reprs == ["(1 : ~-1.414e+400+0j : 1)", "(1 : ~1.414e+400+0j : 1)",
                     "(1 : ~0+1.414e+400j : 1)", "(1 : ~0-1.414e+400j : 1)",
                     "(1 : ~-1e+401+0j : 1)", "(1 : ~1e+401+0j : 1)",
                     "(~-1.414e-321+0j : 0 : 1)", "(~1.414e-321+0j : 0 : 1)",
                     "(~-1.414e-322+0j : 0 : 1)", "(~1.414e-322+0j : 0 : 1)",
                     "(~-1.414e-323+0j : 0 : 1)", "(~1.414e-323+0j : 0 : 1)"]


def test_projective_point_equality_is_projective():
    p = from_coords(F(2), F(4), F(2))
    q = from_coords(F(1), F(2), F(1))
    assert p == q
    r = from_coords(F(1), F(2), F(3))
    assert p != r
