from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

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


@pytest.mark.parametrize("first, second", [
    ((2, 2, -4), (1, 2, -3)),
    ((F(1, 2), F(1, 2), -1), (1, 2, -3)),
    ((1, 1, -2), (2, 4, -6)),
    ((1, 1, -2), (F(1, 2), 1, F(-3, 2))),
])
def test_conic_conic_points_do_not_depend_on_scaling(first, second):
    expected = intersect_pair(conic(1, 1, -2, 0, 0, 0), conic(1, 2, -3, 0, 0, 0))
    assert intersect_pair(conic(*first, 0, 0, 0), conic(*second, 0, 0, 0)) == expected


def test_conics_through_the_first_centres_are_decided_at_t4(monkeypatch):
    # both conics pass through C_0 ... C_3 = (1 : t : t^3): they meet in
    # exactly those four points, and C_4 is the first usable centre
    p, q = (0, -239, -1, 150, 90, 0), (0, -74, -1, 60, 0, 15)
    centres = [(1, t, t ** 3) for t in range(5)]
    for coeffs in (p, q):
        assert [intersect._conic_value(coeffs, *c) == 0 for c in centres] == [True] * 4 + [False]
    in_coords = intersect._intersect_conics_in_coords
    attempts = []

    def recording(p, q, matrix):
        attempts.append(matrix)
        return in_coords(p, q, matrix)

    monkeypatch.setattr(intersect, "_intersect_conics_in_coords", recording)
    points = intersect._intersect_conics(p, q)
    assert [m and tuple(row[0] for row in m) for m in attempts] == [None] + centres[1:]
    assert sorted(p.vectors for p, _m in points) == sorted(
        ProjectivePoint.from_integers(*c).vectors for c in centres[:4])
    assert [m for _p, m in points] == [1] * 4


def test_point_at_infinity_needs_no_other_centre():
    # the conics meet transversally at (1 : 1 : 0), whose projection from
    # (1 : 0 : 0) is the root (1 : 0) of the binary quartic
    p, q = (1, 2, -1, -3, 1, -1), (2, -2, 1, 0, 0, 1)
    points = intersect._intersect_conics_in_coords(p, q, None)
    expected = [(1, 1, 0), (0, 1, 1), (0, -1, 2), (10, 11, 3)]
    assert sorted(p.vectors for p, _m in points) == sorted(
        ProjectivePoint.from_integers(*v).vectors for v in expected)
    assert [m for _p, m in points] == [1] * 4


def test_tangency_on_every_centre_line():
    # (0 : 1 : 0) lies on the line z = t^3 x through C_t and (0 : 1 : 0),
    # for every t; the conics are tangent there
    p, q = (1, 0, -1, 0, 0, 1), (2, 0, -1, 0, 1, 3)
    points = intersect_pair(conic(*p), conic(*q))
    assert sum(m for _p, m in points) == 4
    assert (ProjectivePoint.from_integers(0, 1, 0), 2) in points


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


def test_conjugate_points_compare_unequal():
    # x = 0 meets x^2 + y^2 - 2z^2 at the conjugates (0 : +-sqrt 2 : 1)
    (p, _), (q, _) = intersect_pair(line(1, 0, 0), conic(1, 1, -2, 0, 0, 0))
    assert p.field is not None and p.vectors is q.vectors
    assert p != q and p == p and not p == q
    assert p not in [q] and len({p, q}) == 2
    derived = combinatorial_type(Arrangement((
        line(1, 0, 0), conic(1, 1, -2, 0, 0, 0), conic(1, 2, -3, 0, 0, 0))))
    # two singular points at the conjugates of one orbit
    a, b = [s for s in derived.points if s.location.field is not None][:2]
    assert a.location.vectors is b.location.vectors
    assert a != b and a == a


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


def _brute_force_six_lines(vectors):
    """Some 6 of the lines meet only in double and triple points: every
    6-subset tried, its meets computed from exact cross products."""
    for subset in combinations(range(len(vectors)), 6):
        through = {}
        for i, j in combinations(subset, 2):
            (a1, b1, c1), (a2, b2, c2) = vectors[i], vectors[j]
            v = (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)
            pivot = next(x for x in reversed(v) if x != 0)
            through.setdefault(tuple(F(x, pivot) for x in v), set()).update((i, j))
        if all(len(lines) <= 3 for lines in through.values()):
            return True
    return False


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


_SMALL = st.integers(-3, 3)
_VECTOR = st.tuples(_SMALL, _SMALL, _SMALL)


@st.composite
def _line_vectors(draw):
    """Up to 9 distinct lines; most pass through one of two drawn points, so
    4- and 5-fold points are common."""
    centers = draw(st.lists(_VECTOR.filter(any), min_size=2, max_size=2))
    vectors, seen = [], set()
    for _ in range(draw(st.integers(6, 9))):
        center = draw(st.sampled_from(centers + [None]))
        v = draw(_VECTOR) if center is None else _cross(center, draw(_VECTOR))
        if not any(v):
            continue
        pivot = next(x for x in v if x != 0)
        key = tuple(F(x, pivot) for x in v)
        if key not in seen:
            seen.add(key)
            vectors.append(v)
    assume(len(vectors) >= 6)
    return vectors


@settings(max_examples=150, deadline=None)
@given(_line_vectors())
def test_six_line_search_agrees_with_brute_force(vectors):
    arrangement = Arrangement(tuple(line(*v) for v in vectors))
    assert has_six_line_subarrangement(arrangement) == _brute_force_six_lines(vectors)
