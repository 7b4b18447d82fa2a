"""Exact intersection of arrangement curves and derived combinatorics.

Pairwise intersections are computed exactly, in integers, from each
curve's coprime integer coefficients: linear solving for two lines,
substitution into an integer parametrization for line/conic, and resultant
elimination with back-substitution for conic/conic.  The conic/conic route
projects the common points from a centre onto a line: it eliminates x into
a binary quartic in (y : z), whose roots are the projected points, and
solves lin1(y, z) x + lin0(y, z) = 0 on each fiber.  With lin1 = u y + v z,
the fiber test is quartic(-v, u) != 0, and a root (1 : 0) is a point on z = 0.
The centre is (1 : 0 : 0) of the given coordinates when it lies on neither
conic and passes the fiber test, else (1 : t : t^3) for the first t that
does, through x = M_t v with the integer matrix M_t of determinant 1, which
maps (X, Y, Z) to (X, t X + Y, t^3 X + Z).  The changed conic is that
substitution, in closed form, and the points are mapped back by it, on
integers and on field vectors alike.  At most 30 centres fail (see
``_CENTRES``), so the first 31 always decide the pair.  Every point a pair
routine returns is checked on both curves by exact evaluation.

The unit of work is the conjugate orbit: each irreducible factor f of the
restricted quadratic or the eliminated quartic gives one exact point with
coordinates in Q[a]/(f), which stands for deg f geometric points.  The
point is built projectively, never divided: with b = c_n a the integral
generator of the field, a line-conic point is b*P0 + c_n*P1 and a
conic-conic point is M_t (-lin0(y) : y lin1(y) : lin1(y)) times c_n^2, so its
coordinates are integer vectors in b.  Incidence and tangency are
Galois-invariant, so one exact evaluation in the field decides them for the
whole orbit: the curves' primitive integer forms are evaluated at those
vectors, a line entrywise and a conic with integer arithmetic modulo the
monic witness of b.  No point is divided or turned into Fractions on the
way: a rational point is its primitive integer vector (last nonzero entry
positive), and rational points are grouped by those vectors; an irrational
orbit is evaluated against the other curves and counted at the pair of its
two lowest-index curves.

A point is ordinary iff each pair of its curves meets transversally there.
For lines and smooth conics that is a pair multiplicity of 1 (Fulton,
*Algebraic Curves*, ch. 3), and the pair layer already has it as a root
multiplicity: a rational point turns up at every pair of its curves, and an
orbit through only the two curves of its pair has that pair's multiplicity.
Only an orbit through three or more curves compares tangents, since the
other pairs' multiplicities are not at hand; ``check_ordinary`` compares
tangents for any point.

Pair multiplicities always sum to the product of the curve degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebraic import AlgebraicNumber, NumberField, root_orbits
from .curves import (
    Arrangement,
    CombinatorialType,
    PlaneCurve,
    ProjectivePoint,
    SingularPoint,
    ValidationError,
    validate_arrangement,
)

PairResult = list[tuple[ProjectivePoint, int]]


class IntersectionError(RuntimeError):
    """The engine could not complete an exact intersection computation."""


def _pair_error(c1: PlaneCurve, c2: PlaneCurve, message) -> IntersectionError:
    return IntersectionError(f"{c1.name} and {c2.name}: {message}")


def intersect_pair(c1: PlaneCurve, c2: PlaneCurve) -> PairResult:
    """All intersection points of two distinct curves with pair multiplicities.

    Multiplicities sum to deg(c1) * deg(c2); complex points are included.
    The deg f points of an orbit come consecutively, by conjugate index,
    and share their exact coordinates.
    """
    u, v = c1.coefficients, c2.coefficients
    # the coprime integer coefficients of one curve agree up to sign
    if u == v or u == tuple(-c for c in v):
        raise _pair_error(c1, c2, "identical curves")
    kinds = (c1.kind, c2.kind)
    try:
        if kinds == ("line", "line"):
            orbits = _intersect_lines(u, v)
        elif kinds == ("line", "conic"):
            orbits = _intersect_line_conic(u, v)
        elif kinds == ("conic", "line"):
            orbits = _intersect_line_conic(v, u)
        else:
            orbits = _intersect_conics(u, v)
    except IntersectionError as exc:
        raise _pair_error(c1, c2, exc) from None
    points = [(conj, mult) for point, mult in orbits for conj in point.conjugates()]
    total = sum(m for _p, m in points)
    if total != c1.degree * c2.degree:
        raise _pair_error(c1, c2, f"pair multiplicities sum to {total}, "
                                  f"not {c1.degree * c2.degree}")
    return points


def _intersect_lines(l1: tuple[int, ...], l2: tuple[int, ...]) -> PairResult:
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    cross = (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)
    if all(v == 0 for v in cross):
        raise IntersectionError("identical curves")
    point = ProjectivePoint.from_integers(*cross)
    _verify_on_both((l1, l2), point)
    return [(point, 1)]


def _gradient(coeffs: tuple[int, ...], point: list[list[int]]) -> list[list[int]]:
    """The gradient of an integer line or conic at the integer vectors of a
    point, as three integer vectors.  It is linear in the point, so nothing
    needs reducing; by Euler's identity point . gradient is deg * value."""
    if len(coeffs) == 3:
        return [[c] for c in coeffs]
    a, b, c, d, e, f = coeffs
    xs, ys, zs = point
    return [[2 * a * x + d * y + e * z for x, y, z in zip(xs, ys, zs)],
            [d * x + 2 * b * y + f * z for x, y, z in zip(xs, ys, zs)],
            [e * x + f * y + 2 * c * z for x, y, z in zip(xs, ys, zs)]]


def _dot(field: NumberField | None, us, vs) -> list[int]:
    """The reduced vector of sum_i us[i] * vs[i]; a 1-vector over Q."""
    if field is None:
        return [sum(u[0] * v[0] for u, v in zip(us, vs))]
    return field.dot(us, vs)


def _vanishes(coeffs: tuple[int, ...], field: NumberField | None, point) -> bool:
    """Does the integer curve pass through the point (integer vectors)?  A
    line's value is linear in the reduced vectors, so it is taken entrywise
    and needs no reducing."""
    if len(coeffs) == 3:
        a, b, c = coeffs
        return not any(a * x + b * y + c * z for x, y, z in zip(*point))
    return not any(_dot(field, point, _gradient(coeffs, point)))


def _line_basis(a: int, b: int, c: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two independent integer points spanning the line a*x + b*y + c*z = 0."""
    if a != 0:
        return (-b, a, 0), (-c, 0, a)
    if b != 0:
        return (1, 0, 0), (0, -c, b)
    return (1, 0, 0), (0, 1, 0)


def _conic_value(coeffs: tuple[int, ...], x: int, y: int, z: int) -> int:
    a, b, c, d, e, f = coeffs
    return a * x * x + b * y * y + c * z * z + d * x * y + e * x * z + f * y * z


def _intersect_line_conic(line: tuple[int, ...], conic: tuple[int, ...]) -> PairResult:
    p0, p1 = _line_basis(*line)
    # restrict the conic to the line: Q(s*P0 + t*P1) = A s^2 + B st + C t^2
    quad_a = _conic_value(conic, *p0)
    quad_c = _conic_value(conic, *p1)
    quad_b = _conic_value(conic, *(u + v for u, v in zip(p0, p1))) - quad_a - quad_c
    points: PairResult = []
    if quad_a != 0:
        for root, mult in root_orbits([quad_c, quad_b, quad_a]):
            if isinstance(root, Fraction):
                # the root s = num / den: s*P0 + P1 is the point num*P0 + den*P1
                num, den = root.as_integer_ratio()
                points.append((ProjectivePoint.from_integers(
                    *(num * p0[i] + den * p1[i] for i in range(3))), mult))
                continue
            # the root s = b / c_n: s*P0 + P1 is the point b*P0 + c_n*P1
            field = root
            zeros = (0,) * (field.degree - 2)
            vectors = tuple((field.lead * p1[i], p0[i], *zeros) for i in range(3))
            points.append((ProjectivePoint.in_field(field, vectors), mult))
    elif quad_b != 0:
        # t * (B s + C t): the parameter point (1 : 0) plus one simple root
        points.append((ProjectivePoint.from_integers(*p0), 1))
        points.append((ProjectivePoint.from_integers(
            *(quad_b * p1[i] - quad_c * p0[i] for i in range(3))), 1))
    else:
        if quad_c == 0:
            raise IntersectionError("line is a component of the conic")
        points.append((ProjectivePoint.from_integers(*p0), 2))
    for point, _mult in points:
        _verify_on_both((line, conic), point)
    return points


# A projection centre C fails only if it lies on one of the conics, or on a
# line component of a degenerate member of their pencil: the member through C
# is lin1 x + lin0, and a root shared by the quartic and lin1 is a root of
# lin0 (the quartic is a2 lin0^2 - a1 lin0 lin1 + a0 lin1^2 up to a nonzero
# factor), so the fiber line through it is a component of the member; for
# lin1 = 0 the member is a binary quadratic in (y : z), two lines through C.
# The pencil has at most 3 degenerate members, since det(A + s B) is a cubic
# in s with leading coefficient det B != 0.  The centres C_t = (1 : t : t^3)
# lie on the irreducible cuspidal cubic x^2 z = y^3, so by Bezout at most
# 6 + 6 + 6 * 3 = 30 of them fail, and one of the first 31 works.
_CENTRES = 31


def _intersect_conics(p: tuple[int, ...], q: tuple[int, ...]) -> PairResult:
    for t in range(_CENTRES):
        try:
            return _intersect_conics_in_coords(p, q, t)
        except _NotGeneric:
            pass
    raise IntersectionError(f"none of the {_CENTRES} projection centres is generic")


class _NotGeneric(Exception):
    pass


def _intersect_conics_in_coords(p: tuple[int, ...], q: tuple[int, ...],
                                t: int) -> PairResult:
    """The points of the conics p and q, found in the coordinates v of the
    change x = M_t v, by projection from the centre (1 : 0 : 0) of those
    coordinates.  M_t = [[1,0,0],[t,1,0],[t^3,0,1]] has first column
    C_t = (1 : t : t^3) and determinant 1; M_0 is the identity.  The
    quartic, lin1 and lin0 are binary forms in (y : z)."""
    if t:
        quartic, lin1, lin0 = _eliminate_x(_changed_conic(p, t), _changed_conic(q, t))
    else:
        quartic, lin1, lin0 = _eliminate_x(p, q)
    if not any(quartic):
        raise IntersectionError("identical curves")
    # lin1 = u*y + v*z must not vanish at a root, else x is not determined
    # there: lin1 is not zero, and quartic(-v, u) != 0
    v, u = lin1
    if u == v == 0 or not sum(c * (-v) ** i * u ** (4 - i) for i, c in enumerate(quartic)):
        raise _NotGeneric("two intersection points share a fiber")

    def rational_point(num: int, den: int) -> ProjectivePoint:
        # x = -lin0 / lin1: in the changed coordinates the point over
        # (y : z) = (num : den) is (-lin0 : y lin1 : z lin1), times den^2,
        # and M_t maps (x, y, z) back to (x, t x + y, t^3 x + z)
        lin1_y = lin1[0] * den + lin1[1] * num
        x = -(lin0[0] * den * den + lin0[1] * num * den + lin0[2] * num * num)
        return ProjectivePoint.from_integers(x, t * x + num * lin1_y,
                                             t ** 3 * x + den * lin1_y)

    points: PairResult = []
    # the root (1 : 0) has the multiplicity the quartic's degree lost; lin1
    # does not vanish there, so its point is rational
    degree = max(i for i, c in enumerate(quartic) if c)
    if degree < 4:
        points.append((rational_point(1, 0), 4 - degree))
    for root, mult in root_orbits(quartic):
        if isinstance(root, Fraction):
            points.append((rational_point(*root.as_integer_ratio()), mult))
        else:
            # at (y : z) = (b : c_n), times c_n^2: polynomials in b of degree <= 2
            field, c = root, root.lead
            x = field.reduce([-lin0[0] * c * c, -lin0[1] * c, -lin0[2]])
            y = field.reduce([0, lin1[0] * c, lin1[1]])
            z = field.reduce([lin1[0] * c * c, lin1[1] * c])
            if t:
                y = [t * u + v for u, v in zip(x, y)]
                z = [t ** 3 * u + v for u, v in zip(x, z)]
            points.append((ProjectivePoint.in_field(field, (x, y, z)), mult))
    for point, _mult in points:
        _verify_on_both((p, q), point)
    return points


def _changed_conic(coeffs: tuple[int, ...], t: int) -> tuple[int, ...]:
    """The integer conic Q(M_t v) = Q(X, t X + Y, t^3 X + Z) in the
    coordinates v = (X, Y, Z).  Only the X^2, XY and XZ coefficients
    change."""
    a, b, c, d, e, f = coeffs
    u = t ** 3
    return (a + (b * t + d) * t + (c * u + e) * u + f * t * u, b, c,
            2 * b * t + d + f * u, 2 * c * u + e + f * t, f)


def _poly_mul(u: list[int], v: list[int]) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    return out


def _eliminate_x(p: tuple[int, ...], q: tuple[int, ...]
                 ) -> tuple[list[int], list[int], list[int]]:
    """Eliminate x from two integer conics.

    Each conic a x^2 + b y^2 + c z^2 + d xy + e xz + f yz is read as
    a2 x^2 + a1 x + a0, with a2 = a and the binary forms a1 = e z + d y,
    a0 = c z^2 + f yz + b y^2.  Returns (quartic, lin1, lin0), binary forms
    in (y : z) as integer coefficients of y^0, y^1, ... (5, 2 and 3 of
    them): the resultant in x, and b2*p - a2*q = lin1*x + lin0, where a2
    and b2 are the x^2 coefficients of p and q.
    """
    a2, b2 = p[0], q[0]
    if a2 == 0 or b2 == 0:
        raise _NotGeneric("a conic passes through the projection centre")
    a1, b1 = [p[4], p[3]], [q[4], q[3]]
    a0, b0 = [p[2], p[5], p[1]], [q[2], q[5], q[1]]
    lin1 = [b2 * u - a2 * v for u, v in zip(a1, b1)]
    lin0 = [b2 * u - a2 * v for u, v in zip(a0, b0)]
    # (a2 b0 - a0 b2)^2 - (a2 b1 - a1 b2)(a1 b0 - a0 b1)
    cross = [u - v for u, v in zip(_poly_mul(a1, b0), _poly_mul(a0, b1))]
    quartic = [u + v for u, v in zip(_poly_mul(lin0, lin0), _poly_mul(lin1, cross))]
    return quartic, lin1, lin0


def _verify_on_both(curves, point: ProjectivePoint) -> None:
    """Check that the point lies on both curves of its pair, by exact
    evaluation of their integer forms at its integer vectors."""
    vectors = point.vectors
    for coeffs in curves:
        if not _vanishes(coeffs, point.field, vectors):
            raise IntersectionError("back-substitution verification failed")


def _element(field: NumberField | None, conjugate: int, vector: list[int]) -> AlgebraicNumber:
    if field is None:
        return AlgebraicNumber(vector[0])
    return field.element(vector + [0] * (field.degree - len(vector)), conjugate=conjugate)


def tangent_line(curve: PlaneCurve, point: ProjectivePoint
                 ) -> tuple[AlgebraicNumber, AlgebraicNumber, AlgebraicNumber]:
    """Tangent of the curve at a point of it, as a line: the gradient of the
    curve's integer form at the point's integer vectors (a multiple of the
    gradient at the normalized point)."""
    field, vectors = point.field, point.vectors
    return tuple(_element(field, point.conjugate, g)
                 for g in _tangent(curve.coefficients, field, vectors))


def _tangent(coeffs: tuple[int, ...], field: NumberField | None, point) -> list[list[int]]:
    """The gradient of an integer curve at a point of it (integer vectors)."""
    gradient = _gradient(coeffs, point)
    if any(_dot(field, point, gradient)):
        raise ValidationError("point does not lie on the curve")
    return gradient


def _tangents_proportional(field: NumberField | None, u, v) -> bool:
    # reduced vectors are unique, so each 2x2 minor u_i v_j - u_j v_i
    # vanishes iff its reduced vector is zero
    return not any(any(_dot(field, (u[i], u[j]), (v[j], [-c for c in v[i]])))
                   for i, j in ((0, 1), (0, 2), (1, 2)))


def _tangents_distinct(curves: list[tuple[int, ...]], location: ProjectivePoint) -> bool:
    """Are the tangents of the integer curves at the point pairwise distinct?"""
    field, vectors = location.field, location.vectors
    tangents = [_tangent(coeffs, field, vectors) for coeffs in curves]
    return not any(_tangents_proportional(field, u, v) for u, v in combinations(tangents, 2))


def check_ordinary(point: SingularPoint, arrangement: Arrangement) -> bool:
    """Decide ordinarity from tangent lines: pairwise non-proportional."""
    curves = [arrangement.curves[i].coefficients for i in sorted(point.incident)]
    return _tangents_distinct(curves, point.location)


@dataclass
class DerivedCombinatorics:
    """Output of the full engine run on one arrangement."""

    ct: CombinatorialType
    points: list[SingularPoint]
    all_ordinary: bool

    @property
    def outside_ordinary_hypotheses(self) -> bool:
        return not self.all_ordinary


def has_six_line_subarrangement(arrangement: Arrangement) -> bool:
    """Is there a 6-line subarrangement meeting only in double and triple
    points?  Decided exactly by a search over the meets of the line pairs,
    which are rational points.

    Subsets grow one line at a time, by increasing index.  A point through
    four lines of a subset is met by the last of them at a point shared with
    three chosen lines, and every superset keeps it, so such a branch is
    abandoned as soon as that happens.
    """
    lines = [c.coefficients for c in arrangement.curves if c.kind == "line"]
    n = len(lines)
    if n < 6:
        return False
    # each pair of lines meets once; the search runs over the stored meets,
    # numbered by their primitive integer vectors
    numbers: dict[tuple[tuple[int], ...], int] = {}
    meet = [[-1] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        [(point, _mult)] = _intersect_lines(lines[i], lines[j])
        meet[i][j] = meet[j][i] = numbers.setdefault(point.vectors, len(numbers))

    def extend(chosen: list[int], start: int) -> bool:
        if len(chosen) == 6:
            return True
        for line in range(start, n - 5 + len(chosen)):
            through = [meet[other][line] for other in chosen]
            if any(through.count(point) >= 3 for point in through):
                continue
            chosen.append(line)
            if extend(chosen, line + 1):
                return True
            chosen.pop()
        return False

    return extend([], 0)


def combinatorial_type(arrangement: Arrangement) -> DerivedCombinatorics:
    """Intersect all curve pairs, decide incidence exactly, and count
    r-fold points.

    Every point turns up at each pair of its curves; it is collected at the
    pair of its two lowest-index curves, which the pairs reach first.  A
    rational point's curves are the union of the pairs it turns up at, and
    it is ordinary iff each of those pairs has multiplicity 1 there; an
    irrational orbit's curves are found by evaluating the other curves in
    its field, once for all its conjugates, and it is ordinary iff its pair
    has multiplicity 1 there and, when three or more curves pass through
    it, their tangents are pairwise distinct.  An ``IntersectionError``
    names the indices and labels of the pair's curves.

    Non-ordinary points are flagged, never rejected; the combinatorics are
    still returned so the invariant formulas can be evaluated (with a
    hypothesis warning downstream).
    """
    validate_arrangement(arrangement)
    curves = arrangement.curves
    forms = [c.coefficients for c in curves]
    # [points of one orbit, incident curve indices, ordinary], by first pair
    found: list[list] = []
    # the entries of the rational points, by their primitive integer vectors
    rational: dict[tuple[tuple[int], ...], list] = {}
    for i, j in combinations(range(len(curves)), 2):
        try:
            pair = intersect_pair(curves[i], curves[j])
        except IntersectionError as exc:
            raise IntersectionError(f"curves {i} and {j}, {exc}") from None
        for point, mult in pair:
            if point.field is None:
                entry = rational.get(point.vectors)
                if entry is None:
                    entry = rational[point.vectors] = [[point], set(), True]
                    found.append(entry)
                entry[1].update((i, j))
                entry[2] = entry[2] and mult == 1
            elif point.conjugate == 0:
                incident = _orbit_incidence(forms, point, i, j)
                if incident is None:
                    continue
                # through three or more curves the other pairs' multiplicities
                # are not at hand, so their tangents decide
                ordinary = mult == 1 and (len(incident) == 2 or _tangents_distinct(
                    [forms[k] for k in sorted(incident)], point))
                found.append([point.conjugates(), incident, ordinary])
    points = []
    for orbit, incident, ordinary in found:
        points.extend(SingularPoint(location=p, incident=frozenset(incident),
                                    multiplicity=len(incident), ordinary=ordinary)
                      for p in orbit)
    t: dict[int, int] = {}
    for p in points:
        t[p.multiplicity] = t.get(p.multiplicity, 0) + 1
    ct = CombinatorialType(d=arrangement.d, k=arrangement.k, t=t)
    return DerivedCombinatorics(ct=ct, points=points,
                                all_ordinary=all(p.ordinary for p in points))


def _orbit_incidence(forms, point: ProjectivePoint, i: int, j: int) -> set[int] | None:
    """The curves through an irrational orbit found at pair (i, j), or None
    when a curve of lower index than j other than i passes through it (the
    orbit is then collected at a lower pair).  ``forms`` are the integer
    forms of the curves."""
    field, vectors = point.field, point.vectors
    incident = {i, j}
    for other, coeffs in enumerate(forms):
        if other in (i, j) or not _vanishes(coeffs, field, vectors):
            continue
        if other < j:
            return None
        incident.add(other)
    return incident
