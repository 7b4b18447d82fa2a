"""Exact intersection of arrangement curves and derived combinatorics.

Pairwise intersections are computed exactly: linear solving for two lines,
substitution into a rational parametrization for line/conic, and resultant
elimination with back-substitution for conic/conic.  The conic/conic route
works in randomly changed projective coordinates, retried until the change
is generic (no intersection at infinity, no two points sharing an
elimination fiber), and maps the points back afterwards.

The unit of work is the conjugate orbit: each irreducible factor f of the
restricted quadratic or the eliminated quartic gives one exact point with
coordinates in Q[a]/(f), which stands for deg f geometric points.
Incidence and tangency are Galois-invariant, so one exact evaluation in the
field decides them for the whole orbit.  Rational points are grouped by
their normalized coordinates; an irrational orbit is evaluated against the
other curves and counted at the pair of its two lowest-index curves.  A
point is ordinary iff the tangents of its curves are pairwise distinct.

Pair multiplicities always sum to the product of the curve degrees; a pair
multiplicity >= 2 at a point is a tangency and makes the point non-ordinary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebraic import AlgebraicNumber, root_orbits
from .curves import (
    Arrangement,
    CombinatorialType,
    PlaneCurve,
    ProjectivePoint,
    SingularPoint,
    ValidationError,
    validate_arrangement,
)
from .polynomials import TernaryForm, UPoly, poly_gcd

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
    if c1.form.proportional_to(c2.form):
        raise _pair_error(c1, c2, "identical curves")
    kinds = (c1.kind, c2.kind)
    try:
        if kinds == ("line", "line"):
            orbits = _intersect_lines(c1.form, c2.form)
        elif kinds == ("line", "conic"):
            orbits = _intersect_line_conic(c1.form, c2.form)
        elif kinds == ("conic", "line"):
            orbits = _intersect_line_conic(c2.form, c1.form)
        else:
            orbits = _intersect_conics(c1.form, c2.form)
    except IntersectionError as exc:
        raise _pair_error(c1, c2, exc) from None
    points = [(conj, mult) for point, mult in orbits for conj in point.conjugates()]
    total = sum(m for _p, m in points)
    if total != c1.degree * c2.degree:
        raise _pair_error(c1, c2, f"pair multiplicities sum to {total}, "
                                  f"not {c1.degree * c2.degree}")
    return points


def _intersect_lines(l1: TernaryForm, l2: TernaryForm) -> PairResult:
    a1, b1, c1 = l1.line_coefficients()
    a2, b2, c2 = l2.line_coefficients()
    cross = (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)
    if all(v == 0 for v in cross):
        raise IntersectionError("identical curves")
    return [(ProjectivePoint.from_coords(*cross), 1)]


def _line_basis(line: TernaryForm) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Two independent rational points spanning the line a*x + b*y + c*z = 0."""
    a, b, c = line.line_coefficients()
    if a != 0:
        return (-b, a, Fraction(0)), (-c, Fraction(0), a)
    if b != 0:
        return (Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), -c, b)
    return (Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))


def _intersect_line_conic(line: TernaryForm, conic: TernaryForm) -> PairResult:
    p0, p1 = _line_basis(line)
    # restrict the conic to the line: Q(s*P0 + t*P1) = A s^2 + B st + C t^2
    quad_a = conic(*p0)
    quad_c = conic(*p1)
    both = tuple(u + v for u, v in zip(p0, p1))
    quad_b = conic(*both) - quad_a - quad_c
    points: PairResult = []
    if quad_a != 0:
        for s, mult in root_orbits(UPoly([quad_c, quad_b, quad_a])):
            coords = [s * p0[i] + p1[i] for i in range(3)]
            points.append((ProjectivePoint.from_coords(*coords), mult))
    elif quad_b != 0:
        # t * (B s + C t): the parameter point (1 : 0) plus one simple root
        points.append((ProjectivePoint.from_coords(*p0), 1))
        s = -quad_c / quad_b
        coords = [s * p0[i] + p1[i] for i in range(3)]
        points.append((ProjectivePoint.from_coords(*coords), 1))
    else:
        if quad_c == 0:
            raise IntersectionError("line is a component of the conic")
        points.append((ProjectivePoint.from_coords(*p0), 2))
    return points


def _identity() -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


def _random_matrix(rng: random.Random) -> list[list[Fraction]]:
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det != 0:
            return m


def _x_coefficients(conic: TernaryForm) -> tuple[Fraction, UPoly, UPoly]:
    """Read a conic as a2*x^2 + a1(y)*x + a0(y) at z = 1."""
    a2 = conic.coeffs.get((2, 0, 0), Fraction(0))
    a1 = UPoly([conic.coeffs.get((1, 0, 1), Fraction(0)),
                conic.coeffs.get((1, 1, 0), Fraction(0))])
    a0 = UPoly([conic.coeffs.get((0, 0, 2), Fraction(0)),
                conic.coeffs.get((0, 1, 1), Fraction(0)),
                conic.coeffs.get((0, 2, 0), Fraction(0))])
    return a2, a1, a0


def _intersect_conics(p: TernaryForm, q: TernaryForm) -> PairResult:
    seed = repr(sorted(p.coeffs.items())) + "|" + repr(sorted(q.coeffs.items()))
    rng = random.Random(seed)
    last_reason = "no attempt made"
    for attempt in range(25):
        matrix = _identity() if attempt == 0 else _random_matrix(rng)
        try:
            return _intersect_conics_in_coords(p, q, matrix)
        except _NotGeneric as exc:
            last_reason = str(exc)
    raise IntersectionError(
        f"no generic coordinate change found after 25 attempts ({last_reason})")


class _NotGeneric(Exception):
    pass


def _intersect_conics_in_coords(p: TernaryForm, q: TernaryForm,
                                matrix) -> PairResult:
    pt = p.compose_linear(matrix)
    qt = q.compose_linear(matrix)
    quartic, lin1, lin0 = _eliminate_x(pt, qt)
    if quartic.is_zero:
        raise IntersectionError("identical curves")
    if quartic.degree < 4:
        raise _NotGeneric("intersection point at infinity")
    if poly_gcd(quartic, lin1).degree >= 1:
        # lin1 vanishes at a root, so x is not determined there
        raise _NotGeneric("two intersection points share a fiber")
    points: PairResult = []
    for y_val, mult in root_orbits(quartic):
        x_val = -_number(lin0(y_val)) / _number(lin1(y_val))
        _verify_on_both(pt, qt, lin0, lin1, y_val)
        # map back: original point is M . (x, y, 1)
        vec = (x_val, y_val, AlgebraicNumber.from_rational(1))
        coords = [sum((matrix[i][j] * vec[j] for j in range(3)),
                      AlgebraicNumber.from_rational(0)) for i in range(3)]
        points.append((ProjectivePoint.from_coords(*coords), mult))
    return points


def _eliminate_x(p: TernaryForm, q: TernaryForm) -> tuple[UPoly, UPoly, UPoly]:
    """Eliminate x from two conics at z = 1.

    Returns (quartic, lin1, lin0): the resultant in x, a polynomial in y of
    degree <= 4, and the coefficients of b2*p - a2*q = lin1*x + lin0, where
    a2 and b2 are the x^2 coefficients of p and q.
    """
    a2, a1, a0 = _x_coefficients(p)
    b2, b1, b0 = _x_coefficients(q)
    if a2 == 0 or b2 == 0:
        raise _NotGeneric("a conic passes through (1:0:0)")
    lin1 = b2 * a1 - a2 * b1
    lin0 = b2 * a0 - a2 * b0
    # (a2 b0 - a0 b2)^2 - (a2 b1 - a1 b2)(a1 b0 - a0 b1)
    quartic = lin0 * lin0 + lin1 * (a1 * b0 - a0 * b1)
    return quartic, lin1, lin0


def _number(value) -> AlgebraicNumber:
    return value if isinstance(value, AlgebraicNumber) else AlgebraicNumber.from_rational(value)


def _verify_on_both(pt: TernaryForm, qt: TernaryForm,
                    lin0: UPoly, lin1: UPoly, y_val: AlgebraicNumber) -> None:
    """Check x = -lin0/lin1 satisfies both conics at the fiber of y_val.

    Clearing denominators turns the check into the exact evaluation of a
    rational polynomial at y_val.
    """
    for form in (pt, qt):
        c2, c1, c0 = _x_coefficients(form)
        # lin1^2 * f(-lin0/lin1, y, 1)
        num = c2 * (lin0 * lin0) - (c1 * lin0) * lin1 + c0 * (lin1 * lin1)
        if not _number(num(y_val)).is_zero:
            raise IntersectionError("back-substitution verification failed")


def tangent_line(curve: PlaneCurve, point: ProjectivePoint
                 ) -> tuple[AlgebraicNumber, AlgebraicNumber, AlgebraicNumber]:
    """Tangent of the curve at a point of it: the gradient, as a line."""
    if not _number(curve.form(*point.coords)).is_zero:
        raise ValidationError("point does not lie on the curve")
    out = []
    for part in curve.form.gradient():
        if part is None:
            out.append(AlgebraicNumber.from_rational(0))
        elif isinstance(part, Fraction):
            out.append(AlgebraicNumber.from_rational(part))
        else:
            out.append(_number(part(*point.coords)))
    return tuple(out)


def _tangents_proportional(u, v) -> bool:
    minors = (u[0] * v[1] - u[1] * v[0],
              u[0] * v[2] - u[2] * v[0],
              u[1] * v[2] - u[2] * v[1])
    return all(m.is_zero for m in minors)


def _tangents_distinct(arrangement: Arrangement, location: ProjectivePoint,
                       incident) -> bool:
    tangents = [tangent_line(arrangement.curves[i], location) for i in sorted(incident)]
    return not any(_tangents_proportional(u, v) for u, v in combinations(tangents, 2))


def check_ordinary(point: SingularPoint, arrangement: Arrangement) -> bool:
    """Decide ordinarity from tangent lines: pairwise non-proportional."""
    return _tangents_distinct(arrangement, point.location, point.incident)


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
    points?  Decided exactly by finite search over the meets of the line
    pairs, which are rational points."""
    lines = [c.form for c in arrangement.curves if c.kind == "line"]
    if len(lines) < 6:
        return False
    # each pair of lines meets once; the subsets search over the stored
    # meets, numbered by their normalized coordinates
    numbers: dict[tuple[Fraction, ...], int] = {}
    meets: dict[tuple[int, int], int] = {}
    for pair in combinations(range(len(lines)), 2):
        [(point, _mult)] = _intersect_lines(lines[pair[0]], lines[pair[1]])
        key = tuple(c.as_fraction() for c in point.coords)
        meets[pair] = numbers.setdefault(key, len(numbers))
    for subset in combinations(range(len(lines)), 6):
        incidence: dict[int, set[int]] = {}
        for pair in combinations(subset, 2):
            incidence.setdefault(meets[pair], set()).update(pair)
        if all(len(through) <= 3 for through in incidence.values()):
            return True
    return False


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
                incident = _orbit_incidence(curves, point, i, j)
                if incident is not None:
                    found.append((point.conjugates(), incident))
    points = []
    for orbit, incident in found:
        ordinary = _tangents_distinct(arrangement, orbit[0], incident)
        points.extend(SingularPoint(location=p, incident=frozenset(incident),
                                    multiplicity=len(incident), ordinary=ordinary)
                      for p in orbit)
    t: dict[int, int] = {}
    for p in points:
        t[p.multiplicity] = t.get(p.multiplicity, 0) + 1
    ct = CombinatorialType(d=arrangement.d, k=arrangement.k, t=t)
    return DerivedCombinatorics(ct=ct, points=points,
                                all_ordinary=all(p.ordinary for p in points))


def _orbit_incidence(curves, point: ProjectivePoint, i: int, j: int) -> set[int] | None:
    """The curves through an irrational orbit found at pair (i, j), or None
    when a curve of lower index than j other than i passes through it (the
    orbit is then collected at a lower pair)."""
    incident = {i, j}
    for other, curve in enumerate(curves):
        if other in (i, j) or not _number(curve.form(*point.coords)).is_zero:
            continue
        if other < j:
            return None
        incident.add(other)
    return incident
