from fractions import Fraction as F
from functools import cache
from itertools import combinations

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

import coniclines.intersect as intersect
from coniclines.catalog import build_dbe_sharpness, build_pencil4, build_tangency_demo
from coniclines.algebraic import QQ, NumberField, root_orbits
from coniclines.cli import main
from coniclines.curves import (
    Arrangement,
    PlaneCurve,
    ProjectivePoint,
    ValidationError,
    validate_arrangement,
)
from coniclines.intersect import (
    IntersectionError,
    combinatorial_type,
    has_six_line_subarrangement,
    intersect_pair,
)
from coniclines.invariants import AnalysisReport, milnor_total
from oracles import approx, check_ordinary, from_coords, tangent_line


def line(a, b, c, label=""):
    return PlaneCurve("line", (a, b, c), label=label or None)


def conic(*cs, label=""):
    return PlaneCurve("conic", cs, label=label or None)


def test_two_lines_meet_once():
    pts = intersect_pair(line(1, 0, -1), line(0, 1, -1))
    assert len(pts) == 1
    pt, mult = pts[0]
    assert mult == 1
    assert pt == from_coords(F(1), F(1), F(1))


def test_parallel_lines_meet_at_infinity():
    pts = intersect_pair(line(1, 0, -1), line(1, 0, -2))
    pt, mult = pts[0]
    assert mult == 1
    assert pt == from_coords(F(0), F(1), F(0))


def test_line_conic_root_at_infinity_of_the_parameter():
    # on z = 0 the conic xy - z^2 restricts to s t: the parameter root (1 : 0),
    # the point (1 : 0 : 0), comes first, then (0 : 1 : 0)
    points = intersect_pair(line(0, 0, 1), conic(0, 0, -1, 1, 0, 0))
    assert points == [(ProjectivePoint.from_integers(1, 0, 0), 1),
                      (ProjectivePoint.from_integers(0, 1, 0), 1)]


def test_line_conic_double_root_at_infinity_of_the_parameter():
    # on z = 0 the conic y^2 - xz restricts to t^2: tangent at (1 : 0 : 0)
    points = intersect_pair(line(0, 0, 1), conic(0, 1, 0, 0, -1, 0))
    assert points == [(ProjectivePoint.from_integers(1, 0, 0), 2)]


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
    coords = sorted(approx(p)[1].real for p, _m in pts)
    assert coords == pytest.approx([-1.0, 1.0])
    # two roots of degree 1, each a point of QQ with primitive 1-vectors,
    # not a point of the root's own field
    assert all(p.field is QQ for p, _m in pts)
    assert sorted(p.vectors for p, _m in pts) == [((1,), (-1,), (1,)), ((1,), (1,), (1,))]


def test_line_conic_tangent():
    # y = z is tangent to x^2 + y^2 - z^2 at (0 : 1 : 1)
    pts = intersect_pair(line(0, 1, -1), conic(1, 1, -1, 0, 0, 0))
    assert len(pts) == 1
    pt, mult = pts[0]
    assert mult == 2
    assert pt == from_coords(F(0), F(1), F(1))


def test_line_conic_irrational_points():
    # x = 0 meets x^2 + y^2 - 2 z^2 at (0 : +-sqrt(2) : 1), one orbit
    [(orbit, mult)] = intersect_pair(line(1, 0, 0), conic(1, 1, -2, 0, 0, 0))
    assert orbit.field.degree == 2 and mult == 1
    # x = 0, and y^2 = 2 z^2 with y / z irrational
    x, y, z = orbit.vectors
    assert not any(x)
    assert orbit.field.dot([y, z], [y, [-2 * c for c in z]]) == [0, 0]
    points = orbit.conjugates()
    assert [p.conjugate for p in points] == [0, 1] and orbit in points
    assert sorted(approx(p)[1].real for p in points) == pytest.approx(
        [-2 ** 0.5, 2 ** 0.5])


def test_conic_conic_pencil_base_points():
    # x^2 + y^2 - 2z^2 and x^2 + 2y^2 - 3z^2 share the base points (+-1:+-1:1)
    pts = intersect_pair(conic(1, 1, -2, 0, 0, 0), conic(1, 2, -3, 0, 0, 0))
    assert sum(m for _p, m in pts) == 4
    assert len(pts) == 4
    got = set()
    for p, m in pts:
        assert m == 1
        x, y, _z = approx(p)
        got.add((round(x.real), round(y.real)))
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


def _intersect_recording_centres(monkeypatch, p, q, expected):
    """The points of the conics p and q, after checking that the engine
    tried exactly the centres C_t of ``expected``, in order."""
    from_centre = intersect._intersect_conics_from
    attempts = []

    def recording(p, q, t):
        attempts.append(t)
        return from_centre(p, q, t)

    monkeypatch.setattr(intersect, "_intersect_conics_from", recording)
    points = intersect._intersect_conics(p, q)
    assert attempts == expected
    return points


def test_conics_through_the_first_centres_are_decided_at_t4(monkeypatch):
    # both conics pass through C_0 ... C_3 = (1 : t : t^3): they meet in
    # exactly those four points, and C_4 is the first usable centre
    p, q = (0, -239, -1, 150, 90, 0), (0, -74, -1, 60, 0, 15)
    centres = [(1, t, t ** 3) for t in range(5)]
    for coeffs in (p, q):
        assert [intersect._conic_value(coeffs, *c) == 0 for c in centres] == [True] * 4 + [False]
    points = _intersect_recording_centres(monkeypatch, p, q, [0, 1, 2, 3, 4])
    assert sorted(p.vectors for p, _m in points) == sorted(
        ProjectivePoint.from_integers(*c).vectors for c in centres[:4])
    assert [m for _p, m in points] == [1] * 4


def test_point_at_infinity_needs_no_other_centre():
    # the conics meet transversally at (1 : 1 : 0), whose projection from
    # (1 : 0 : 0) is the root (1 : 0) of the binary quartic
    p, q = (1, 2, -1, -3, 1, -1), (2, -2, 1, 0, 0, 1)
    points = intersect._intersect_conics_from(p, q, 0)
    expected = [(1, 1, 0), (0, 1, 1), (0, -1, 2), (10, 11, 3)]
    assert sorted(p.vectors for p, _m in points) == sorted(
        ProjectivePoint.from_integers(*v).vectors for v in expected)
    assert [m for _p, m in points] == [1] * 4



def test_root_at_infinity_needs_no_field(monkeypatch):
    # the root (1 : 0) of a pair's binary form is read off the leading
    # coefficients of its point's forms; intersect.py builds no field itself,
    # every field comes from root_orbits
    built, seen = [], []
    points = intersect._points

    def recording_field(witness):
        built.append(tuple(witness))
        return NumberField(witness)

    def recording_points(form, columns):
        seen.append((form, columns))
        return points(form, columns)

    monkeypatch.setattr(intersect, "NumberField", recording_field, raising=False)
    monkeypatch.setattr(intersect, "_points", recording_points)
    # the line x + 2y + 3z has P0 = (-2 : 1 : 0), on x^2 - 4y^2 + z^2
    line_conic = intersect_pair(line(1, 2, 3), conic(1, -4, 1, 0, 0, 0))
    # the conics meet at (1 : 1 : 0), the root (1 : 0) from C_0 = (1 : 0 : 0)
    p, q = (1, 2, -1, -3, 1, -1), (2, -2, 1, 0, 0, 1)
    conic_conic = intersect._intersect_conics_from(p, q, 0)
    assert built == []
    assert line_conic == [(ProjectivePoint.from_integers(-2, 1, 0), 1),
                          (ProjectivePoint.from_integers(-8, -5, 6), 1)]
    assert conic_conic[0] == (ProjectivePoint.from_integers(1, 1, 0), 1)
    for (form, columns), result in zip(seen, (line_conic, conic_conic)):
        assert form[-1] == 0 and form[-2] != 0
        leading = ProjectivePoint.from_integers(*columns[-1])
        assert result[0] == (leading, 1)


def test_two_points_on_one_fiber_move_the_centre(monkeypatch):
    # both conics miss C_0 = (1 : 0 : 0), but lin1 = -2 y there vanishes at
    # the root (0 : 1) of the quartic: the two conjugate points of an orbit
    # lie on the fiber y = 0, and C_1 decides
    p, q = (2, 0, 2, -1, -2, 0), (-2, -2, -2, 2, 2, -2)
    (a2, a1, a0), (b2, b1, b0) = intersect._expansion(p, 0), intersect._expansion(q, 0)
    assert a2 and b2
    assert [b2 * u - a2 * v for u, v in zip(a1, b1)] == [0, -2]
    points = _intersect_recording_centres(monkeypatch, p, q, [0, 1])
    assert [p.field.degree for p, _m in points if not any(p.vectors[1])] == [2]
    for point, _m in points:
        assert intersect._vanishes(p, point.field, point.vectors)
        assert intersect._vanishes(q, point.field, point.vectors)
    assert sum(m * point.field.degree for point, m in points) == 4


def test_no_generic_centre_names_the_pair(monkeypatch):
    # unreachable for smooth conics (see _CENTRES): every centre is tried,
    # in order, and the error names both curves
    tried = []

    def never_generic(p, q, t):
        tried.append(t)

    monkeypatch.setattr(intersect, "_intersect_conics_from", never_generic)
    with pytest.raises(IntersectionError) as info:
        intersect_pair(conic(1, 1, -2, 0, 0, 0, label="P"), conic(1, 2, -3, 0, 0, 0, label="Q"))
    assert str(info.value) == "P and Q: none of the 31 projection centres is generic"
    assert tried == list(range(31))


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


@pytest.mark.parametrize("first, second, message", [
    (conic(1, 1, -2, 0, 0, 0), conic(1, 2, -3, 0, 0, 0),
     "pair multiplicities sum to 1, not 4"),
    (line(1, -1, 0), conic(1, 1, -2, 0, 0, 0), "pair multiplicities sum to 1, not 2"),
], ids=["conic-conic", "line-conic"])
def test_pair_multiplicity_certificate_fires(monkeypatch, first, second, message):
    # only the first orbit of each form survives: every point found is on
    # both curves, so only the multiplicity sum can catch the lost ones
    monkeypatch.setattr(intersect, "root_orbits", lambda coeffs: root_orbits(coeffs)[:1])
    with pytest.raises(IntersectionError) as info:
        intersect_pair(first, second)
    assert str(info.value) == f"{first.name} and {second.name}: {message}"


@pytest.mark.parametrize("first, second", [
    (line(1, 0, 0), conic(1, 0, 0, 0, 0, 0)),  # x and x^2: a component
    (line(1, 0, 0), conic(0, 0, 0, 1, 0, 0)),  # x and xy: a component
    (line(1, 1, 1), conic(0, 0, 0, 1, 0, 0)),  # x + y + z and xy
    (line(0, 1, -1), conic(1, -1, 0, 0, 0, 0)),  # y = z and x^2 - y^2
])
def test_singular_conic_of_a_line_pair_rejected(first, second):
    # a smooth conic contains no line; a singular one is refused before any
    # point is computed, in either order
    for pair in ((first, second), (second, first)):
        with pytest.raises(ValidationError) as info:
            intersect_pair(*pair)
        assert str(info.value) == f"{second.name}: conic is a line pair or double line"


def test_conic_and_its_multiple_are_identical_curves():
    # the coprime integers of -3 (x^2 + y^2 - 2 z^2) are its own negated
    first, second = conic(1, 1, -2, 0, 0, 0), conic(-3, -3, 6, 0, 0, 0)
    for pair in ((first, second), (second, first)):
        with pytest.raises(IntersectionError) as info:
            intersect_pair(*pair)
        assert str(info.value) == f"{pair[0].name} and {pair[1].name}: identical curves"



@pytest.mark.parametrize("first, second", [
    ((0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)),  # xy and xz
    ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),  # x^2 and y^2
    ((1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)),  # x^2 and x^2 + y^2
])
def test_singular_conic_of_a_conic_pair_rejected(first, second):
    # the bound on failing projection centres needs smooth conics; these
    # pairs once raised "identical curves" or ran out of centres
    with pytest.raises(ValidationError) as info:
        intersect_pair(conic(*first), conic(*second))
    assert str(info.value) == f"{conic(*first).name}: conic is a line pair or double line"


def test_engine_builds_each_conjugate_point_once(monkeypatch):
    # each irrational orbit here lies on two curves only, so it is found at
    # one pair, and its deg f points are built once, as singular points
    arr = Arrangement((line(1, 0, 0), conic(1, 1, -2, 0, 0, 0),
                       conic(1, 3, -5, 1, 0, 0)))
    built = []
    original = ProjectivePoint.__init__

    def recording(self, field, conjugate, vectors):
        if field.degree > 1:
            built.append((field.witness, conjugate, vectors))
        original(self, field, conjugate, vectors)

    monkeypatch.setattr(ProjectivePoint, "__init__", recording)
    points = [p.location for p in combinatorial_type(arr).points]
    irrational = [(p.field.witness, p.conjugate, p.vectors)
                  for p in points if p.field.degree > 1]
    assert len(irrational) >= 6
    assert sorted(built) == sorted(irrational)


@pytest.mark.parametrize("arrangement", [
    build_dbe_sharpness(),
    Arrangement((line(1, 0, 0), conic(1, 1, -2, 0, 0, 0), conic(1, 3, -5, 1, 0, 0),
                 conic(1, 2, -3, 0, 0, 0))),
], ids=["dbe-sharpness", "irrational-orbits"])
def test_engine_intersects_through_the_public_pair_api(monkeypatch, arrangement):
    # a wrapper of the module's intersect_pair sees each of the C(n, 2)
    # pairs once, in order, and changes nothing
    expected = combinatorial_type(arrangement)
    calls = []

    def counting(c1, c2):
        calls.append((c1, c2))
        return intersect_pair(c1, c2)

    monkeypatch.setattr(intersect, "intersect_pair", counting)
    derived = combinatorial_type(arrangement)
    curves = arrangement.curves
    assert calls == [(curves[i], curves[j]) for i, j in combinations(range(len(curves)), 2)]
    assert derived == expected


def test_tangent_line_of_a_line_is_itself():
    l = line(1, 2, -3)
    pt = from_coords(F(1), F(1), F(1))
    assert tangent_line(l, pt) == ((1,), (2,), (-3,))


def test_tangent_line_of_conic():
    c = conic(1, 1, -1, 0, 0, 0)
    pt = from_coords(F(0), F(1), F(1))
    assert tangent_line(c, pt) == ((0,), (2,), (-2,))


def test_tangent_line_at_an_irrational_point():
    # x = 0 meets x^2 + y^2 - 2 z^2 at (0 : +-sqrt(2) : 1); the conic's
    # tangent there is a vector in the point's field and passes through it
    c = conic(1, 1, -2, 0, 0, 0)
    for p, _m in intersect_pair(line(1, 0, 0), c):
        tangent = tangent_line(c, p)
        assert [len(g) for g in tangent] == [p.field.degree] * 3
        assert p.field.dot(p.vectors, tangent) == [0] * p.field.degree
        assert tangent_line(line(1, 0, 0), p) == ((1,), (0,), (0,))


def test_tangent_line_needs_incidence():
    c = conic(1, 1, -1, 0, 0, 0)
    with pytest.raises(Exception, match="does not lie"):
        tangent_line(c, from_coords(F(2), F(0), F(1)))


def test_cluster_triangle():
    curves = (line(1, 0, 0), line(0, 1, 0), line(0, 0, 1))
    derived = combinatorial_type(Arrangement(curves))
    assert derived.ct.d == 3 and derived.ct.k == 0
    assert derived.ct.t == {2: 3}
    assert derived.all_ordinary


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


def test_rational_point_reads_every_pair_of_its_curves():
    # x = 0 crosses the conic yz = x^2 at (0 : 0 : 1), where y = 0 touches
    # it: the point's first pair is transversal, a later pair is not
    arr = Arrangement((line(1, 0, 0), conic(-1, 0, 0, 0, 0, 1), line(0, 1, 0)))
    [triple] = [p for p in combinatorial_type(arr).points if p.multiplicity == 3]
    assert triple.location == ProjectivePoint.from_integers(0, 0, 1)
    assert not triple.ordinary and not check_ordinary(triple, arr)


def test_tangency_has_delta_two_and_milnor_number_three():
    # a line tangent to a conic: an A3 point, where (r - 1)^2 would give 1
    derived = combinatorial_type(build_tangency_demo())
    [point] = derived.points
    assert (point.multiplicity, point.delta, point.mu, point.ordinary) == (2, 2, 3, False)
    report = AnalysisReport(derived.ct, points=derived.points)
    assert (report.invariants["milnor"], milnor_total(derived.ct)) == (3, 1)
    assert "\ntotal Milnor number: 3\n" in report.render_text()


def test_pairwise_contact_four_sums_to_delta_twelve():
    # x^2 + y^2 - z^2 + s (y - z)^2 for s = 0, 1, 2: each pair meets only at
    # (0 : 1 : 1), with multiplicity 4
    arr = Arrangement(tuple(conic(1, 1 + s, s - 1, 0, 0, -2 * s) for s in range(3)))
    derived = combinatorial_type(arr)
    [point] = derived.points
    assert point.location == ProjectivePoint.from_integers(0, 1, 1)
    assert (point.multiplicity, point.delta, point.mu, point.ordinary) == (3, 12, 22, False)
    report = AnalysisReport(derived.ct, points=derived.points)
    assert (report.invariants["milnor"], milnor_total(derived.ct)) == (22, 4)


def test_an_orbit_sums_the_shared_multiplicity_of_each_pair():
    # x^2 + y^2 - z^2 + s (x - 2z)^2 for s = 0, 1, 2: each pair is tangent at
    # the conjugate points (2 : +-sqrt -3 : 1), one orbit through all three
    arr = Arrangement(tuple(conic(1 + s, 1, 4 * s - 1, 0, -4 * s, 0) for s in range(3)))
    derived = combinatorial_type(arr)
    assert [(p.location.field.degree, p.multiplicity, p.delta, p.mu)
            for p in derived.points] == [(2, 3, 6, 10)] * 2
    assert not any(check_ordinary(p, arr) for p in derived.points)
    report = AnalysisReport(derived.ct, points=derived.points)
    assert (report.invariants["milnor"], milnor_total(derived.ct)) == (20, 8)


@pytest.mark.parametrize("second, total", [
    (conic(1, 1, -1, 0, 0, 0), 1),  # x = 0 meets it in (0 : +-1 : 1)
    (conic(1, 1, 1, 0, 0, 0), 0),  # x = 0 meets it in the orbit (0 : +-i : 1)
])
def test_delta_certificate_fires_when_a_pair_loses_an_orbit(monkeypatch, second, total):
    # the pair passes its own certificate, and then loses its first orbit:
    # only the sum of delta over the points can catch it
    monkeypatch.setattr(intersect, "intersect_pair",
                        lambda c1, c2: intersect_pair(c1, c2)[1:])
    with pytest.raises(IntersectionError) as info:
        combinatorial_type(Arrangement((line(1, 0, 0), second)))
    assert str(info.value) == f"the points' deltas sum to {total}, not 2"


# the line x = 0 and members Q + s x^2 of a bitangent pencil, pairwise tangent at
# (0 : +-sqrt 2 : 1): an irrational orbit through all four curves, found at the
# transversal pair of the line and the first conic
_BITANGENT = Arrangement((line(1, 0, 0),)
                         + tuple(conic(1 + s, 1, -2, 0, 0, 0) for s in range(3)))
# three members of the pencil through (+-sqrt 2 : +-1 : 1) and the line y = z:
# irrational orbits through 3 and 4 curves, all transversal
_IRRATIONAL_PENCIL = Arrangement((conic(1, 1, -3, 0, 0, 0), conic(1, -1, -1, 0, 0, 0),
                                  conic(3, -1, -5, 0, 0, 0), line(0, 1, -1)))


@cache
def _pencils():
    # the seeded pencil arrangements of the differential dump: irrational
    # orbits on three or more curves, some of them tangential
    from differential_dump import pencils
    return pencils()


def test_check_ordinary_agrees_with_cluster():
    # the engine reads ordinarity from pair multiplicities; check_ordinary
    # compares tangents, an independent method
    irrational = set()
    for arr in (build_pencil4(), build_dbe_sharpness(), build_tangency_demo(),
                _BITANGENT, _IRRATIONAL_PENCIL):
        for point in combinatorial_type(arr).points:
            assert check_ordinary(point, arr) == point.ordinary
            if point.location.field.degree > 1:
                irrational.add((point.multiplicity, point.ordinary))
    assert irrational == {(3, True), (4, True), (4, False)}
    through_three = tangential = 0
    for arr in _pencils():
        points = combinatorial_type(arr).points
        assert [check_ordinary(p, arr) for p in points] == [p.ordinary for p in points]
        orbits = [p for p in points if p.location.field.degree > 1 and p.multiplicity >= 3]
        through_three += bool(orbits)
        tangential += any(not p.ordinary for p in orbits)
    assert (through_three, tangential) == (80, 17)


def test_irrational_orbits_of_a_pair_share_one_multiplicity(monkeypatch):
    # degrees times multiplicities sum to at most 4, so a pair's irrational
    # orbits, of degree 2 or more, cannot have two multiplicities; the pair
    # certificate raises it, so it holds under python -O too.  The orbit
    # (0 : +-sqrt 2 : 1), returned twice, passes back-substitution
    pair = intersect._intersect_line_conic
    monkeypatch.setattr(intersect, "_intersect_line_conic", lambda line, conic: [
        (point, m) for (point, _m), m in zip(pair(line, conic) * 2, (1, 2))])
    curves = (line(1, 0, 0, label="L"), conic(1, 1, -2, 0, 0, 0, label="C"))
    message = "L and C: irrational orbits of multiplicities [1, 2]"
    with pytest.raises(IntersectionError) as info:
        intersect_pair(*curves)
    assert str(info.value) == message
    with pytest.raises(IntersectionError) as info:
        combinatorial_type(Arrangement(curves))
    assert str(info.value) == f"curves 0 and 1, {message}"


_HEXAGON = Arrangement((line(1, 0, -1), line(1, 0, 1), line(0, 1, -1),
                        line(0, 1, 1), line(1, 1, -2), line(1, -1, 2)))


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


def _six_lines(arrangement):
    return has_six_line_subarrangement(arrangement, combinatorial_type(arrangement))


def test_wrong_six_line_meet_fails_verification(monkeypatch):
    # the meets of the six-line search are the points combinatorial_type
    # certifies pair by pair
    original = ProjectivePoint.from_integers
    monkeypatch.setattr(ProjectivePoint, "from_integers",
                        classmethod(lambda cls, x, y, z: original(y, x, z)))
    with pytest.raises(IntersectionError, match="back-substitution verification failed"):
        _six_lines(_HEXAGON)


def test_six_line_search_names_duplicate_lines():
    lines = Arrangement(tuple(line(1, i, 0) for i in range(5)) + (line(-1, 0, 0),))
    with pytest.raises(ValidationError) as info:
        _six_lines(lines)
    assert str(info.value) == "duplicate curve: pair (0, 5)"


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
    curves = []
    for s in draw(st.lists(st.integers(-3, 3), max_size=3, unique=True)):
        values = [u + s * w for u, w in zip(q, _square(*l))]
        assume(any(values))  # q = -s L^2 is no conic
        curves.append(conic(*values))
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
    [(orbit, _)] = intersect_pair(line(1, 0, 0), conic(1, 1, -2, 0, 0, 0))
    p, q = orbit.conjugates()
    assert p.field.degree > 1 and p.vectors is q.vectors
    assert p != q and p == p and not p == q
    assert p not in [q] and len({p, q}) == 2
    derived = combinatorial_type(Arrangement((
        line(1, 0, 0), conic(1, 1, -2, 0, 0, 0), conic(1, 2, -3, 0, 0, 0))))
    # two singular points at the conjugates of one orbit
    a, b = [s for s in derived.points if s.location.field.degree > 1][:2]
    assert a.location.vectors is b.location.vectors
    assert a != b and a == a


def test_clusters_are_distinct_points():
    derived = combinatorial_type(build_pencil4(k=3))
    pts = [p.location for p in derived.points]
    assert len(set(pts)) == len(pts)


def test_six_line_subarrangement():
    assert _six_lines(_HEXAGON)
    # the lines are found among the curves by their indices
    assert _six_lines(Arrangement((conic(1, 1, -16, 0, 0, 0),) + _HEXAGON.curves))
    # four concurrent lines plus two more: every 6-subset needs 6 lines
    assert not _six_lines(Arrangement((
        line(1, 0, 0), line(0, 1, 0), line(1, 1, 0))))
    # six concurrent lines fail the multiplicity bound
    pencil = Arrangement(tuple(line(1, i, 0) for i in range(6)))
    assert not _six_lines(pencil)


def test_six_line_search_meets_each_line_pair_once(monkeypatch, tmp_path):
    # analyze intersects each line pair once: the six-line search reads the
    # points of combinatorial_type
    meets = []
    original = intersect._intersect_lines

    def counting(l1, l2):
        meets.append((l1, l2))
        return original(l1, l2)

    monkeypatch.setattr(intersect, "_intersect_lines", counting)
    target = tmp_path / "concurrent.txt"
    target.write_text("".join(f"line: 1 {i} 0\n" for i in range(12)))
    result = CliRunner().invoke(main, ["analyze", str(target)])
    assert result.exit_code == 0
    assert "t_12=1" in result.output
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
    assert _six_lines(arrangement) == _brute_force_six_lines(vectors)
