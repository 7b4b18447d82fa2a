from fractions import Fraction as F

import pytest

from coniclines.catalog import catalog_get, catalog_list
from coniclines.curves import (
    Arrangement,
    CombinatorialType,
    ParseError,
    PlaneCurve,
    ProjectivePoint,
    ValidationError,
    conic_matrix_det,
    parse_arrangement,
    parse_combinatorial_type,
    serialize_arrangement,
    serialize_combinatorial_type,
    validate_arrangement,
    validate_curve,
)
from coniclines.polynomials import TernaryForm


def line(a, b, c):
    return PlaneCurve("line", TernaryForm.line(a, b, c))


def conic(*cs):
    return PlaneCurve("conic", TernaryForm.conic(*cs))


def test_unit_circle_is_smooth():
    c = conic(1, 1, -1, 0, 0, 0)
    assert conic_matrix_det(c.form) == -1
    validate_curve(c)


def test_line_pair_rejected():
    c = conic(1, -1, 0, 0, 0, 0)  # x^2 - y^2
    assert conic_matrix_det(c.form) == 0
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
    assert arr.curves[0].form == TernaryForm.line(1, 0, -1)
    assert arr.curves[1].form == TernaryForm.conic(1, 1, -2, 0, 0, 0)


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
            assert [(c.kind, c.form) for c in back.curves] == \
                [(c.kind, c.form) for c in arr.curves]


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


def test_projective_point_equality_is_projective():
    p = ProjectivePoint.from_coords(F(2), F(4), F(2))
    q = ProjectivePoint.from_coords(F(1), F(2), F(1))
    assert p.same_point(q)
    r = ProjectivePoint.from_coords(F(1), F(2), F(3))
    assert not p.same_point(r)
