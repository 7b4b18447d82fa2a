from fractions import Fraction as F
from itertools import combinations

import pytest

import coniclines.intersect as intersect
from coniclines.catalog import build_dbe_sharpness, build_pencil4, build_tangency_demo
from coniclines.curves import Arrangement, PlaneCurve, ProjectivePoint
from coniclines.intersect import (
    IntersectionError,
    check_ordinary,
    combinatorial_type,
    has_six_line_subarrangement,
    intersect_pair,
    tangent_line,
)
from coniclines.polynomials import TernaryForm


def line(a, b, c, label=""):
    return PlaneCurve("line", TernaryForm.line(a, b, c), label=label or None)


def conic(*cs):
    return PlaneCurve("conic", TernaryForm.conic(*cs))


def test_two_lines_meet_once():
    pts = intersect_pair(line(1, 0, -1), line(0, 1, -1))
    assert len(pts) == 1
    pt, mult = pts[0]
    assert mult == 1
    assert pt.same_point(ProjectivePoint.from_coords(F(1), F(1), F(1)))


def test_parallel_lines_meet_at_infinity():
    pts = intersect_pair(line(1, 0, -1), line(1, 0, -2))
    pt, mult = pts[0]
    assert mult == 1
    assert pt.same_point(ProjectivePoint.from_coords(F(0), F(1), F(0)))


def test_identical_lines_rejected():
    with pytest.raises(IntersectionError):
        intersect_pair(line(1, 0, -1), line(2, 0, -2))


def test_line_conic_transversal():
    # x = z meets x^2 + y^2 - 2 z^2 at (1 : +-1 : 1)
    pts = intersect_pair(line(1, 0, -1), conic(1, 1, -2, 0, 0, 0))
    assert sum(m for _p, m in pts) == 2
    coords = sorted(float(p.coords[1].approx().real) for p, _m in pts)
    assert coords == pytest.approx([-1.0, 1.0])


def test_line_conic_tangent():
    # y = z is tangent to x^2 + y^2 - z^2 at (0 : 1 : 1)
    pts = intersect_pair(line(0, 1, -1), conic(1, 1, -1, 0, 0, 0))
    assert len(pts) == 1
    pt, mult = pts[0]
    assert mult == 2
    assert pt.same_point(ProjectivePoint.from_coords(F(0), F(1), F(1)))


def test_line_conic_irrational_points():
    # x = 0 meets x^2 + y^2 - 2 z^2 at (0 : +-sqrt(2) : 1)
    pts = intersect_pair(line(1, 0, 0), conic(1, 1, -2, 0, 0, 0))
    assert sum(m for _p, m in pts) == 2
    for p, _m in pts:
        y = p.coords[1]
        assert (y * y - 2).is_zero


def test_conic_conic_pencil_base_points():
    # x^2 + y^2 - 2z^2 and x^2 + 2y^2 - 3z^2 share the base points (+-1:+-1:1)
    pts = intersect_pair(conic(1, 1, -2, 0, 0, 0), conic(1, 2, -3, 0, 0, 0))
    assert sum(m for _p, m in pts) == 4
    assert len(pts) == 4
    got = set()
    for p, m in pts:
        assert m == 1
        got.add((round(float(p.coords[0].approx().real)),
                 round(float(p.coords[1].approx().real))))
    assert got == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_conic_conic_tangent_pair():
    # internally tangent circles meet with multiplicity 2 at two points
    a = conic(1, 1, -1, 0, 0, 0)          # x^2 + y^2 = z^2
    b = conic(1, 2, -2, 0, 0, 0)          # x^2 + 2 y^2 = 2 z^2
    pts = intersect_pair(a, b)
    assert sum(m for _p, m in pts) == 4
    mults = sorted(m for _p, m in pts)
    assert mults == [2, 2]


def test_pair_multiplicities_sum_to_degree_product():
    curves = [line(1, 0, -1), line(1, 1, 0),
              conic(1, 1, -2, 0, 0, 0), conic(1, 2, -3, 0, 0, 0)]
    for c1, c2 in combinations(curves, 2):
        total = sum(m for _p, m in intersect_pair(c1, c2))
        assert total == c1.degree * c2.degree


def test_tangent_line_of_a_line_is_itself():
    l = line(1, 2, -3)
    pt = ProjectivePoint.from_coords(F(1), F(1), F(1))
    grad = tangent_line(l, pt)
    assert [g.as_fraction() for g in grad] == [1, 2, -3]


def test_tangent_line_of_conic():
    c = conic(1, 1, -1, 0, 0, 0)
    pt = ProjectivePoint.from_coords(F(0), F(1), F(1))
    grad = tangent_line(c, pt)
    assert [g.as_fraction() for g in grad] == [0, 2, -2]


def test_tangent_line_needs_incidence():
    c = conic(1, 1, -1, 0, 0, 0)
    with pytest.raises(Exception, match="does not lie"):
        tangent_line(c, ProjectivePoint.from_coords(F(2), F(0), F(1)))


def test_cluster_triangle():
    curves = (line(1, 0, 0), line(0, 1, 0), line(0, 0, 1))
    derived = combinatorial_type(Arrangement(curves))
    assert derived.ct.d == 3 and derived.ct.k == 0
    assert derived.ct.t == {2: 3}
    assert derived.all_ordinary
    assert not derived.outside_ordinary_hypotheses


def test_cluster_concurrent_lines():
    curves = (line(1, 0, 0), line(0, 1, 0), line(1, 1, 0), line(1, -1, 0))
    derived = combinatorial_type(Arrangement(curves))
    assert derived.ct.t == {4: 1}
    assert derived.all_ordinary


def test_cluster_pencil4():
    derived = combinatorial_type(build_pencil4(k=3))
    assert derived.ct.d == 2 and derived.ct.k == 3
    assert derived.ct.t == {2: 1, 4: 4}
    assert derived.all_ordinary


def test_cluster_dbe_sharpness():
    derived = combinatorial_type(build_dbe_sharpness())
    assert derived.ct.d == 6 and derived.ct.k == 3
    assert derived.ct.t == {6: 4, 2: 3}
    assert derived.all_ordinary


def test_cluster_tangency_flagged():
    derived = combinatorial_type(build_tangency_demo())
    assert derived.ct.t == {2: 1}
    assert not derived.all_ordinary
    assert derived.outside_ordinary_hypotheses


def test_check_ordinary_agrees_with_cluster():
    for build in (build_pencil4, build_dbe_sharpness, build_tangency_demo):
        arr = build()
        derived = combinatorial_type(arr)
        for point in derived.points:
            assert check_ordinary(point, arr) == point.ordinary


def test_clusters_are_distinct_points():
    derived = combinatorial_type(build_pencil4(k=3))
    pts = [p.location for p in derived.points]
    for a, b in combinations(pts, 2):
        assert not a.same_point(b)


def test_six_line_subarrangement():
    hexagon = Arrangement((line(1, 0, -1), line(1, 0, 1), line(0, 1, -1),
                           line(0, 1, 1), line(1, 1, -2), line(1, -1, 2)))
    assert has_six_line_subarrangement(hexagon)
    # four concurrent lines plus two more: every 6-subset needs 6 lines
    assert not has_six_line_subarrangement(Arrangement((
        line(1, 0, 0), line(0, 1, 0), line(1, 1, 0))))
    # six concurrent lines fail the multiplicity bound
    pencil = Arrangement(tuple(line(1, i, 0) for i in range(6)))
    assert not has_six_line_subarrangement(pencil)


def test_six_line_search_meets_each_line_pair_once(monkeypatch):
    meets = []
    original = intersect._intersect_lines

    def counting(l1, l2):
        meets.append((l1, l2))
        return original(l1, l2)

    monkeypatch.setattr(intersect, "_intersect_lines", counting)
    concurrent = Arrangement(tuple(line(1, i, 0) for i in range(12)))
    assert not has_six_line_subarrangement(concurrent)
    assert len(meets) == 12 * 11 // 2
