"""Exact intersection of arrangement curves and derived combinatorics.

Pairwise intersections are computed exactly, in integers, from each
curve's coprime integer coefficients: linear solving for two lines,
substitution into an integer parametrization for line/conic, and resultant
elimination with back-substitution for conic/conic.  The conic/conic route
works in randomly changed projective coordinates, retried until the change
is generic (no intersection at infinity, no two points sharing an
elimination fiber), and maps the points back afterwards.  The changed
conic is M^T (2A) M of the conic's integer symmetric matrix 2A; the
eliminated quartic and the x-equation lin1(y) x + lin0(y) are integer
polynomials; and with lin1 = u y + v, the fiber test is
u^4 quartic(-v/u) != 0.

The unit of work is the conjugate orbit: each irreducible factor f of the
restricted quadratic or the eliminated quartic gives one exact point with
coordinates in Q[a]/(f), which stands for deg f geometric points.  The
point is built projectively, never divided: with b = c_n a the integral
generator of the field, a line-conic point is b*P0 + c_n*P1 and a
conic-conic point is M (-lin0(y) : y lin1(y) : lin1(y)) times c_n^2, so its
coordinates are integer vectors in b.  Incidence and tangency are
Galois-invariant, so one exact evaluation in the field decides them for the
whole orbit: the curves' primitive integer forms and their gradients are
evaluated at those vectors, with integer arithmetic modulo the monic
witness of b.  Rational points are normalized and grouped by their
coordinates; an irrational orbit is evaluated against the other curves and
counted at the pair of its two lowest-index curves.  A point is ordinary
iff the tangents of its curves are pairwise distinct.

Pair multiplicities always sum to the product of the curve degrees; a pair
multiplicity >= 2 at a point is a tangency and makes the point non-ordinary.
"""

from __future__ import annotations

import random
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
    names = [c.label or repr(c.form) for c in (c1, c2)]
    return IntersectionError(f"{names[0]} and {names[1]}: {message}")


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
            orbits = _intersect_conics(c1, c2)
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
    return [(ProjectivePoint.from_coords(*cross), 1)]


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
    """Does the integer curve pass through the point (integer vectors)?"""
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
        for s, mult in root_orbits([quad_c, quad_b, quad_a]):
            if s.is_rational:
                # s = num / den, so s*P0 + P1 is the point num*P0 + den*P1
                num, den = s.as_fraction().as_integer_ratio()
                coords = [num * p0[i] + den * p1[i] for i in range(3)]
                points.append((ProjectivePoint.from_coords(*coords), mult))
                continue
            # s = b / c_n, so s*P0 + P1 is the point b*P0 + c_n*P1
            field = s.field
            zeros = [0] * (field.degree - 2)
            vectors = [[field.lead * p1[i], p0[i], *zeros] for i in range(3)]
            points.append((ProjectivePoint.in_field(field, vectors), mult))
    elif quad_b != 0:
        # t * (B s + C t): the parameter point (1 : 0) plus one simple root
        points.append((ProjectivePoint.from_coords(*p0), 1))
        coords = [quad_b * p1[i] - quad_c * p0[i] for i in range(3)]
        points.append((ProjectivePoint.from_coords(*coords), 1))
    else:
        if quad_c == 0:
            raise IntersectionError("line is a component of the conic")
        points.append((ProjectivePoint.from_coords(*p0), 2))
    return points


def _identity() -> list[list[int]]:
    return [[int(i == j) for j in range(3)] for i in range(3)]


def _random_matrix(rng: random.Random) -> list[list[int]]:
    while True:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det != 0:
            return m


def _intersect_conics(c1: PlaneCurve, c2: PlaneCurve) -> PairResult:
    seed = repr(sorted(c1.form.coeffs.items())) + "|" + repr(sorted(c2.form.coeffs.items()))
    rng = random.Random(seed)
    last_reason = "no attempt made"
    for attempt in range(25):
        matrix = _identity() if attempt == 0 else _random_matrix(rng)
        try:
            return _intersect_conics_in_coords(c1.coefficients, c2.coefficients, matrix)
        except _NotGeneric as exc:
            last_reason = str(exc)
    raise IntersectionError(
        f"no generic coordinate change found after 25 attempts ({last_reason})")


class _NotGeneric(Exception):
    pass


def _intersect_conics_in_coords(p: tuple[int, ...], q: tuple[int, ...],
                                matrix) -> PairResult:
    quartic, lin1, lin0 = _eliminate_x(_changed_conic(p, matrix), _changed_conic(q, matrix))
    if not any(quartic):
        raise IntersectionError("identical curves")
    if quartic[4] == 0:
        raise _NotGeneric("intersection point at infinity")
    # lin1 = u*y + v must not vanish at a root, else x is not determined
    # there: lin1 is not zero, and u^4 quartic(-v/u) != 0 when u != 0
    v, u = lin1
    if u == v == 0 or u != 0 and not sum(
            c * (-v) ** i * u ** (4 - i) for i, c in enumerate(quartic)):
        raise _NotGeneric("two intersection points share a fiber")
    # x = -lin0(y) / lin1(y): in the changed coordinates a point is
    # (-lin0(y) : y lin1(y) : lin1(y)), and M maps it back
    points: PairResult = []
    for y, mult in root_orbits(quartic):
        if y.is_rational:
            # at y = num / den, times den^2
            num, den = y.as_fraction().as_integer_ratio()
            lin1_y = lin1[0] * den + lin1[1] * num
            vec = [-(lin0[0] * den * den + lin0[1] * num * den + lin0[2] * num * num),
                   num * lin1_y, den * lin1_y]
            point = ProjectivePoint.from_coords(
                *(sum(matrix[i][j] * vec[j] for j in range(3)) for i in range(3)))
        else:
            # at y = b / c_n, times c_n^2: polynomials in b of degree <= 2
            field, c = y.field, y.field.lead
            vec = [field.reduce([-lin0[0] * c * c, -lin0[1] * c, -lin0[2]]),
                   field.reduce([0, lin1[0] * c, lin1[1]]),
                   field.reduce([lin1[0] * c * c, lin1[1] * c])]
            point = ProjectivePoint.in_field(field, [
                [sum(matrix[i][j] * vec[j][k] for j in range(3)) for k in range(field.degree)]
                for i in range(3)])
        _verify_on_both((p, q), point)
        points.append((point, mult))
    return points


def _changed_conic(coeffs: tuple[int, ...], matrix) -> tuple[int, ...]:
    """The integer conic Q(M v) in the coordinates v: M^T (2A) M is the
    symmetric matrix of 2 Q(M v), where 2A = [[2a, d, e], [d, 2b, f],
    [e, f, 2c]] is that of 2 Q.  Its diagonal is even."""
    a, b, c, d, e, f = coeffs
    twice = ((2 * a, d, e), (d, 2 * b, f), (e, f, 2 * c))
    right = [[sum(twice[i][k] * matrix[k][j] for k in range(3)) for j in range(3)]
             for i in range(3)]
    t = [[sum(matrix[k][i] * right[k][j] for k in range(3)) for j in range(3)]
         for i in range(3)]
    return t[0][0] // 2, t[1][1] // 2, t[2][2] // 2, t[0][1], t[0][2], t[1][2]


def _poly_mul(u: list[int], v: list[int]) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    return out


def _eliminate_x(p: tuple[int, ...], q: tuple[int, ...]
                 ) -> tuple[list[int], list[int], list[int]]:
    """Eliminate x from two integer conics at z = 1.

    Each conic a x^2 + b y^2 + c z^2 + d xy + e xz + f yz is read as
    a2 x^2 + a1(y) x + a0(y), with a2 = a, a1 = e + d y, a0 = c + f y + b y^2.
    Returns (quartic, lin1, lin0), integer coefficients lowest degree first
    (5, 2 and 3 of them): the resultant in x, a polynomial in y of degree
    <= 4, and b2*p - a2*q = lin1*x + lin0, where a2 and b2 are the x^2
    coefficients of p and q.
    """
    a2, b2 = p[0], q[0]
    if a2 == 0 or b2 == 0:
        raise _NotGeneric("a conic passes through (1:0:0)")
    a1, b1 = [p[4], p[3]], [q[4], q[3]]
    a0, b0 = [p[2], p[5], p[1]], [q[2], q[5], q[1]]
    lin1 = [b2 * u - a2 * v for u, v in zip(a1, b1)]
    lin0 = [b2 * u - a2 * v for u, v in zip(a0, b0)]
    # (a2 b0 - a0 b2)^2 - (a2 b1 - a1 b2)(a1 b0 - a0 b1)
    cross = [u - v for u, v in zip(_poly_mul(a1, b0), _poly_mul(a0, b1))]
    quartic = [u + v for u, v in zip(_poly_mul(lin0, lin0), _poly_mul(lin1, cross))]
    return quartic, lin1, lin0


def _verify_on_both(curves, point: ProjectivePoint) -> None:
    """Check that the point lies on both conics, by exact evaluation of
    their integer forms at its integer vectors."""
    vectors = point.vectors()
    for coeffs in curves:
        if not _vanishes(coeffs, point.field, vectors):
            raise IntersectionError("back-substitution verification failed")


def _element(field: NumberField | None, conjugate: int, vector: list[int]) -> AlgebraicNumber:
    if field is None:
        return AlgebraicNumber.from_rational(vector[0])
    return field.element(vector + [0] * (field.degree - len(vector)), conjugate=conjugate)


def tangent_line(curve: PlaneCurve, point: ProjectivePoint
                 ) -> tuple[AlgebraicNumber, AlgebraicNumber, AlgebraicNumber]:
    """Tangent of the curve at a point of it, as a line: the gradient of the
    curve's integer form at the point's integer vectors (a multiple of the
    gradient at the normalized point)."""
    field, vectors = point.field, point.vectors()
    return tuple(_element(field, point.conjugate, g)
                 for g in _tangent(curve.coefficients, field, vectors))


def _tangent(coeffs: tuple[int, ...], field: NumberField | None, point) -> list[list[int]]:
    """The gradient of an integer curve at a point of it (integer vectors)."""
    gradient = _gradient(coeffs, point)
    if any(_dot(field, point, gradient)):
        raise ValidationError("point does not lie on the curve")
    return gradient


def _tangents_proportional(field: NumberField | None, u, v) -> bool:
    # reduced vectors are unique, so each 2x2 minor vanishes iff its two
    # products have equal vectors
    return all(_dot(field, (u[i],), (v[j],)) == _dot(field, (u[j],), (v[i],))
               for i, j in ((0, 1), (0, 2), (1, 2)))


def _tangents_distinct(curves: list[tuple[int, ...]], location: ProjectivePoint) -> bool:
    """Are the tangents of the integer curves at the point pairwise distinct?"""
    field, vectors = location.field, location.vectors()
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
    # numbered by their normalized coordinates
    numbers: dict[tuple[Fraction, ...], int] = {}
    meet = [[-1] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        [(point, _mult)] = _intersect_lines(lines[i], lines[j])
        key = tuple(c.as_fraction() for c in point.coords)
        meet[i][j] = meet[j][i] = numbers.setdefault(key, len(numbers))

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
    rational point's curves are the union of the pairs it turns up at; an
    irrational orbit's are found by evaluating the other curves in its
    field, once for all its conjugates.

    Non-ordinary points are flagged, never rejected; the combinatorics are
    still returned so the invariant formulas can be evaluated (with a
    hypothesis warning downstream).
    """
    validate_arrangement(arrangement)
    curves = arrangement.curves
    forms = [c.coefficients for c in curves]
    # (points of one orbit, their incident curve indices), by first pair
    found: list[tuple[list[ProjectivePoint], set[int]]] = []
    rational: dict[tuple[Fraction, ...], set[int]] = {}
    for i, j in combinations(range(len(curves)), 2):
        for point, _mult in intersect_pair(curves[i], curves[j]):
            if point.field is None:
                key = tuple(c.as_fraction() for c in point.coords)
                if key not in rational:
                    rational[key] = set()
                    found.append(([point], rational[key]))
                rational[key].update((i, j))
            elif point.conjugate == 0:
                incident = _orbit_incidence(forms, point, i, j)
                if incident is not None:
                    found.append((point.conjugates(), incident))
    points = []
    for orbit, incident in found:
        ordinary = _tangents_distinct([forms[i] for i in sorted(incident)], orbit[0])
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
    field, vectors = point.field, point.vectors()
    incident = {i, j}
    for other, coeffs in enumerate(forms):
        if other in (i, j) or not _vanishes(coeffs, field, vectors):
            continue
        if other < j:
            return None
        incident.add(other)
    return incident
