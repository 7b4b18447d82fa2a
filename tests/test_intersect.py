from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import coniclines.intersect as intersect
from coniclines.catalog import build_dbe_sharpness, build_pencil4, build_tangency_demo
from coniclines.algebraic import root_orbits
from coniclines.curves import (
    Arrangement,
    PlaneCurve,
    ProjectivePoint,
    ValidationError,
    validate_arrangement,
)
from coniclines.intersect import (
    IntersectionError,
    check_ordinary,
    combinatorial_type,
    has_six_line_subarrangement,
    intersect_pair,
    tangent_line,
)


def line(a, b, c, label=""):
    return PlaneCurve("line", (a, b, c), label=label or None)


def conic(*cs, label=""):
    return PlaneCurve("conic", cs, label=label or None)


def test_two_lines_meet_once():
    pts = intersect_pair(line(1, 0, -1), line(0, 1, -1))
    assert len(pts) == 1
    pt, mult = pts[0]
    assert mult == 1
    assert pt == ProjectivePoint.from_coords(F(1), F(1), F(1))


def test_parallel_lines_meet_at_infinity():
    pts = intersect_pair(line(1, 0, -1), line(1, 0, -2))
    pt, mult = pts[0]
    assert mult == 1
    assert pt == ProjectivePoint.from_coords(F(0), F(1), F(0))


def test_identical_lines_rejected():
    with pytest.raises(IntersectionError):
        intersect_pair(line(1, 0, -1), line(2, 0, -2))


def test_unlabeled_curves_are_named_by_their_records():
    with pytest.raises(IntersectionError) as exc:
        intersect_pair(line(1, 0, -1), line(2, 0, -2))
    assert str(exc.value) == "line: 1 0 -1 and line: 1 0 -1: identical curves"


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
    assert pt == ProjectivePoint.from_coords(F(0), F(1), F(1))


def test_line_conic_irrational_points():
    # x = 0 meets x^2 + y^2 - 2 z^2 at (0 : +-sqrt(2) : 1)
    pts = intersect_pair(line(1, 0, 0), conic(1, 1, -2, 0, 0, 0))
    assert sum(m for _p, m in pts) == 2
    for p, _m in pts:
        # x = 0, and y^2 = 2 z^2 with y / z irrational
        x, y, z = p.vectors
        assert p.field is not None and not any(x)
        assert p.field.dot([y, z], [y, [-2 * c for c in z]]) == [0] * p.field.degree
        assert abs(p.approx()[1]) == pytest.approx(2 ** 0.5)


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

    def recording(p, q, t):
        attempts.append(t)
        return in_coords(p, q, t)

    monkeypatch.setattr(intersect, "_intersect_conics_in_coords", recording)
    points = intersect._intersect_conics(p, q)
    assert attempts == [0, 1, 2, 3, 4]
    assert sorted(p.vectors for p, _m in points) == sorted(
        ProjectivePoint.from_integers(*c).vectors for c in centres[:4])
    assert [m for _p, m in points] == [1] * 4


def test_point_at_infinity_needs_no_other_centre():
    # the conics meet transversally at (1 : 1 : 0), whose projection from
    # (1 : 0 : 0) is the root (1 : 0) of the binary quartic
    p, q = (1, 2, -1, -3, 1, -1), (2, -2, 1, 0, 0, 1)
    points = intersect._intersect_conics_in_coords(p, q, 0)
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


# the line x = 0 and members Q + s x^2 of a bitangent pencil, pairwise tangent at
# (0 : +-sqrt 2 : 1): an irrational orbit through all four curves, found at the
# transversal pair of the line and the first conic
_BITANGENT = Arrangement((line(1, 0, 0),)
                         + tuple(conic(1 + s, 1, -2, 0, 0, 0) for s in range(3)))
# three members of the pencil through (+-sqrt 2 : +-1 : 1) and the line y = z:
# irrational orbits through 3 and 4 curves, all transversal
_IRRATIONAL_PENCIL = Arrangement((conic(1, 1, -3, 0, 0, 0), conic(1, -1, -1, 0, 0, 0),
                                  conic(3, -1, -5, 0, 0, 0), line(0, 1, -1)))


def test_check_ordinary_agrees_with_cluster():
    irrational = set()
    for arr in (build_pencil4(), build_dbe_sharpness(), build_tangency_demo(),
                _BITANGENT, _IRRATIONAL_PENCIL):
        for point in combinatorial_type(arr).points:
            assert check_ordinary(point, arr) == point.ordinary
            if point.location.field is not None:
                irrational.add((point.multiplicity, point.ordinary))
    assert irrational == {(3, True), (4, True), (4, False)}


def _sqrt3_everywhere(monkeypatch):
    # every restricted quadratic and eliminated quartic gets the wrong root sqrt 3
    monkeypatch.setattr(intersect, "root_orbits", lambda coeffs: root_orbits([-3, 0, 1]))


@pytest.mark.parametrize("first, second", [
    (line(1, 0, 0), conic(1, 1, -2, 0, 0, 0)),
    (conic(1, 1, -2, 0, 0, 0), conic(1, 2, -3, 0, 0, 0)),
], ids=["line-conic", "conic-conic"])
def test_wrong_root_fails_verification(monkeypatch, first, second):
    _sqrt3_everywhere(monkeypatch)
    with pytest.raises(IntersectionError, match="back-substitution verification failed"):
        intersect_pair(first, second)


def test_wrong_line_meet_fails_verification(monkeypatch):
    # the lines meet at (1 : 2 : 1); a point built with x and y swapped is on neither
    original = ProjectivePoint.from_integers
    monkeypatch.setattr(ProjectivePoint, "from_integers",
                        classmethod(lambda cls, x, y, z: original(y, x, z)))
    with pytest.raises(IntersectionError, match="back-substitution verification failed"):
        intersect_pair(line(1, 0, -1), line(0, 1, -2))


def test_intersection_error_names_curve_indices(monkeypatch):
    _sqrt3_everywhere(monkeypatch)
    curves = (line(1, 0, -1, label="l1"), line(0, 1, -1, label="l2"),
              conic(1, 1, -2, 0, 0, 0, label="C"))
    with pytest.raises(IntersectionError) as info:
        combinatorial_type(Arrangement(curves))
    assert str(info.value) == "curves 0 and 2, l1 and C: back-substitution verification failed"


def _square(a, b, c):
    return (a * a, b * b, c * c, 2 * a * b, 2 * a * c, 2 * b * c)


@st.composite
def _tangency_rich_arrangements(draw):
    """Members Q + s L^2 of a bitangent pencil, which are pairwise tangent
    where L meets Q, members of a conic pencil with four shared base points,
    L itself and random lines."""
    small = st.integers(-3, 3)
    q = draw(st.tuples(*[small] * 6))
    l = draw(st.tuples(*[small] * 3).filter(any))
    curves = [conic(*(u + s * w for u, w in zip(q, _square(*l))))
              for s in draw(st.lists(st.integers(-3, 3), max_size=3, unique=True))]
    q1, q2 = draw(st.tuples(*[small] * 6)), draw(st.tuples(*[small] * 6))
    for s, t in draw(st.lists(st.tuples(st.integers(1, 3), small), max_size=3, unique=True)):
        values = [s * u + t * v for u, v in zip(q1, q2)]
        assume(any(values))
        curves.append(conic(*values))
    if draw(st.booleans()):
        curves.append(line(*l))
    curves += [line(*v) for v in draw(st.lists(st.tuples(*[small] * 3).filter(any),
                                               max_size=2))]
    assume(len(curves) >= 2)
    # in any order, so that an orbit is often found at a transversal pair
    arrangement = Arrangement(tuple(draw(st.permutations(curves))))
    try:
        validate_arrangement(arrangement)
    except ValidationError:
        assume(False)
    return arrangement


@settings(max_examples=60, deadline=None)
@given(_tangency_rich_arrangements())
def test_ordinarity_agrees_with_tangents(arrangement):
    # the flags read from pair multiplicities against the tangent oracle
    for point in combinatorial_type(arrangement).points:
        assert point.ordinary == check_ordinary(point, arrangement)


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
    assert len(set(pts)) == len(pts)


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
