import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from coniclines.algebraic import NumberField, root_orbits
from coniclines.catalog import catalog_get, catalog_list
from coniclines.curves import (
    Arrangement,
    CombinatorialType,
    ParseError,
    PlaneCurve,
    ProjectivePoint,
    ValidationError,
    _det_2a,
    parse_arrangement,
    parse_combinatorial_type,
    serialize_arrangement,
    serialize_combinatorial_type,
    validate_arrangement,
    validate_curve,
)


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


def test_projective_point_normalization():
    p = ProjectivePoint.from_coords(F(2), F(4), F(2))
    assert [c.as_fraction() for c in p.coords] == [1, 2, 1]
    q = ProjectivePoint.from_coords(F(3), F(5), F(0))
    assert [c.as_fraction() for c in q.coords] == [F(3, 5), 1, 0]
    with pytest.raises(ValidationError):
        ProjectivePoint.from_coords(F(0), F(0), F(0))


def test_from_coords_takes_only_ints_and_fractions():
    field = NumberField([-2, 0, 1])
    root, other = field.element((0, 1)), field.element((1, 1))
    for coords in ((root, F(0), F(1)), (F(1), F(2), other), (0.5, 1, 1)):
        with pytest.raises(TypeError):
            ProjectivePoint.from_coords(*coords)


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
    other = ProjectivePoint.from_coords(*(F(sign * v, den) for v in xyz))
    pivot = next(v for v in reversed(xyz) if v != 0)
    normalized = [F(v, pivot) for v in xyz]
    common = math.lcm(*(c.denominator for c in normalized))
    vectors = tuple((c.numerator * (common // c.denominator),) for c in normalized)
    for p in (point, other):
        assert [c.as_fraction() for c in p.coords] == normalized
        assert p.vectors == vectors
        assert p.field is None and p.conjugate == 0
        assert repr(p) == repr(point)
    assert point == other and hash(point) == hash(other)


def test_zero_point_rejected():
    with pytest.raises(ValidationError):
        ProjectivePoint.from_integers(0, 0, 0)
    [(field, _mult)] = root_orbits([-2, 0, 1])
    with pytest.raises(ValidationError):
        ProjectivePoint.in_field(field, ((0, 0), (0, 0), (0, 0)))
    # rational vectors in a field give the rational point
    assert ProjectivePoint.in_field(field, ((2, 0), (0, 0), (-4, 0))) == \
        ProjectivePoint.from_integers(-1, 0, 2)


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
    return ProjectivePoint.in_field(field, vectors, draw(st.integers(0, field.degree - 1)))


@settings(max_examples=100, deadline=None)
@given(_irrational_points())
def test_conjugates_share_vectors(point):
    orbit = point.conjugates()
    assert len(orbit) == point.field.degree and orbit[point.conjugate] is point
    for k, conj in enumerate(orbit):
        assert conj.conjugate == k and conj.field == point.field
        assert conj.vectors is point.vectors
        assert conj.coords == tuple(point.field.element(v, conjugate=k) for v in point.vectors)


def test_projective_point_equality_is_projective():
    p = ProjectivePoint.from_coords(F(2), F(4), F(2))
    q = ProjectivePoint.from_coords(F(1), F(2), F(1))
    assert p == q
    r = ProjectivePoint.from_coords(F(1), F(2), F(3))
    assert p != r
