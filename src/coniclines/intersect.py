"""Exact intersection of arrangement curves and derived combinatorics.

Pairwise intersections are computed exactly, in integers, from each
curve's coprime integer coefficients: linear solving for two lines,
substitution into an integer parametrization for line/conic, and projection
from a centre C for conic/conic.  A conic Q is read on the lines through C
as Q(X C + (0, Y, Z)) = a2 X^2 + a1 X + a0: a2 = Q(C) and
a1 = grad Q(C) . (0, Y, Z) are its value and gradient at C, and
a0 = Q(0, Y, Z).  For the conics p and q, the member b2 p - a2 q =
lin1 X + lin0 of their pencil has no X^2 term; the resultant in X of p and
that member, a2 lin0^2 - a1 lin0 lin1 + a0 lin1^2, is a binary quartic in
(Y : Z) whose roots are the projected points, and X = -lin0 / lin1 on each
fiber.  With lin1 = u Y + v Z, the fiber test is quartic(-v, u) != 0, and a
root (1 : 0) is a point on the line through C and (0 : 1 : 0).  The centre
is C_t = (1 : t : t^3) for the first t = 0, 1, ... at which it lies on
neither conic and passes the fiber test, and the point is
(X, t X + Y, t^3 X + Z).  At most 30 centres fail (see ``_CENTRES``), so
the first 31 always decide the pair.

Each pair routine is a binary form, the restriction of the conic to the
line (a quadratic in the line's parameter (s : t)) or the quartic in
(Y : Z), and its point as a binary form in the same variables with
integer points as coefficients; ``_points`` evaluates the point at each
root of the form, (1 : 0) first.
``intersect_pair`` takes only smooth conics, in every pair, as the paper's
arrangements do, and certifies a pair: every point lies on both curves,
by exact evaluation of their integer forms, the irrational orbits share
one multiplicity (below), and the pair multiplicities, each orbit's times
its degree, sum to the product of the curve degrees.
The six-line search intersects nothing: it reads its line meets from the
singular points of ``combinatorial_type``.

The unit of work is the conjugate orbit: each irreducible factor f of the
restricted quadratic or the eliminated quartic gives one exact point with
coordinates in Q[a]/(f), which stands for deg f geometric points.  The
engine carries that one point from ``intersect_pair`` to its singular
points, where ``conjugates()`` builds the deg f points, once.  Incidence
and tangency are Galois-invariant, so one exact evaluation in the field
decides them for the whole orbit: the curves' primitive integer forms are
evaluated at its vectors, a line entrywise and a conic by
``NumberField.dot``, integer arithmetic modulo the monic witness of b.
Every point has a field: a rational point lies in ``QQ``, as its primitive
integer 1-vectors (last nonzero entry positive).  No point is divided and
no Fraction is built on the way.  Once every pair is certified, rational
points are grouped by their vectors; an irrational orbit is evaluated
against the other curves and counted at its two lowest-index curves.

A point's delta is the sum of the pair multiplicities of its curves there,
each a root multiplicity of the pair layer, and it is ordinary iff each of
them is 1, a transversal meet (Fulton, *Algebraic Curves*, ch. 3).  An
irrational orbit has degree at least 2 and a pair's degrees times
multiplicities sum to at most 4, so all irrational orbits of one pair share
one multiplicity: there is one such orbit, or two quadratic ones of
multiplicity 1, as ``intersect_pair`` certifies.  So every point is read
from its pairs' multiplicities, and no tangent is compared; the tests'
oracle (``tests/oracles.py``) decides ordinarity from tangent lines,
independently.  By Bezout, the points' deltas sum to ``pair_total(d, k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebraic import NumberField, root_orbits
from .curves import (
    Arrangement,
    CombinatorialType,
    PlaneCurve,
    ProjectivePoint,
    SingularPoint,
    validate_arrangement,
    validate_curve,
)
from .invariants import pair_total

PairResult = list[tuple[ProjectivePoint, int]]


class IntersectionError(RuntimeError):
    """The engine could not complete an exact intersection computation."""


def intersect_pair(c1: PlaneCurve, c2: PlaneCurve) -> PairResult:
    """The intersection of two distinct curves, one point per Galois orbit
    with its pair multiplicity, certified (or IntersectionError): each lies
    on both curves, the irrational orbits share one multiplicity, and the
    multiplicities times the orbits' degrees sum to deg(c1) * deg(c2).
    ``point.conjugates()`` gives an orbit's deg f points, each of that
    multiplicity.  A singular conic raises ValidationError in any pair: the
    pair routines assume smooth conics, which contain no line, and two
    distinct ones have a nonzero quartic and a generic centre among
    ``_CENTRES``."""
    u, v = c1.coefficients, c2.coefficients
    kind = c1.kind
    try:
        # the coprime integer coefficients of one curve agree up to sign
        if kind == c2.kind and (u == v or u == tuple([-c for c in v])):
            raise IntersectionError("identical curves")
        validate_curve(c1)
        validate_curve(c2)
        if kind != c2.kind:
            orbits = _intersect_line_conic(u, v) if kind == "line" else _intersect_line_conic(v, u)
        elif kind == "line":
            orbits = _intersect_lines(u, v)
        else:
            orbits = _intersect_conics(u, v)
        # one pass over the orbits: exact evaluation of both integer forms at
        # each orbit's vectors, the one multiplicity of the irrational
        # orbits, and the sum of multiplicities times degrees
        total, shared = 0, None
        for point, mult in orbits:
            field, vectors = point.field, point.vectors
            if not (_vanishes(u, field, vectors) and _vanishes(v, field, vectors)):
                raise IntersectionError("back-substitution verification failed")
            if field.degree > 1:
                if shared is None:
                    shared = mult
                elif mult != shared:
                    raise IntersectionError("irrational orbits of multiplicities "
                                            f"{sorted({shared, mult})}")
            total += mult * field.degree
        if total != c1.degree * c2.degree:
            raise IntersectionError(f"pair multiplicities sum to {total}, "
                                    f"not {c1.degree * c2.degree}")
    except IntersectionError as exc:
        raise IntersectionError(f"{c1.name} and {c2.name}: {exc}") from None
    return orbits


def _intersect_lines(l1: tuple[int, ...], l2: tuple[int, ...]) -> PairResult:
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    return [(ProjectivePoint.from_integers(
        b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2), 1)]


def _vanishes(coeffs: tuple[int, ...], field: NumberField, point) -> bool:
    """Does the integer curve pass through the point (integer vectors)?  At
    a rational point, of field degree 1, the form's value is one integer.
    Otherwise a line's value is linear in the reduced vectors, so it is
    taken entrywise and needs no reducing, and a conic's is its value Q
    itself, not Euler's 2Q = point . gradient, read as
    x (a x + d y + e z) + y (b y + f z) + z (c z): the second factors are
    linear in the point, three integer vectors, and ``NumberField.dot``
    reduces the sum of the three products once."""
    if field.degree == 1:
        (x,), (y,), (z,) = point
        if len(coeffs) == 3:
            a, b, c = coeffs
            return not a * x + b * y + c * z
        a, b, c, d, e, f = coeffs
        return not x * (a * x + d * y + e * z) + y * (b * y + f * z) + c * z * z
    xs, ys, zs = point
    if len(coeffs) == 3:
        a, b, c = coeffs
        for x, y, z in zip(xs, ys, zs):
            if a * x + b * y + c * z:
                return False
        return True
    a, b, c, d, e, f = coeffs
    first, second, third = [], [], []
    for x, y, z in zip(xs, ys, zs):
        first.append(a * x + d * y + e * z)
        second.append(b * y + f * z)
        third.append(c * z)
    return not any(field.dot(point, (first, second, third)))


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


def _points(form: list[int], columns) -> PairResult:
    """The points over the roots of the nonzero binary form
    sum_i form[i] s^i t^(n-i), one per orbit with its multiplicity: the
    point is the binary form sum_i C_i s^i t^(m-i) of one degree m, whose
    coefficients ``columns`` C_0 .. C_m are integer points, at the root.
    The root (1 : 0) comes first, with the multiplicity the form's degree
    in s lost, as the point C_m.  Then each field of ``root_orbits`` at
    (b : c_n), b its integral generator, where the term C_i s^i t^(m-i) is
    c_n^(m-i) C_i b^i.  A field of degree 1 is the rational root (p : q),
    b = p and c_n = q: the point sum_i p^i q^(m-i) C_i, by Horner's rule,
    is the point of ``QQ``.  Any other is the point at conjugate 0 of that
    field, standing for its orbit: its three vectors in b have length
    m + 1, reduced modulo the witness when m is at least the field's
    degree n and padded with zeros to length n otherwise."""
    m = len(columns) - 1
    points = []
    if not form[-1]:
        lost = 1
        while not form[-1 - lost]:
            lost += 1
        points.append((ProjectivePoint.from_integers(*columns[m]), lost))
    for field, mult in root_orbits(form):
        w = field.lead
        if field.degree == 1:
            p, (x, y, z), scale = -field.monic[0], columns[m], 1
            for i in range(m - 1, -1, -1):
                scale *= w
                cx, cy, cz = columns[i]
                x, y, z = x * p + cx * scale, y * p + cy * scale, z * p + cz * scale
            points.append((ProjectivePoint.from_integers(x, y, z), mult))
            continue
        n, xs, ys, zs, scale = field.degree, [], [], [], w ** m
        for cx, cy, cz in columns:
            xs.append(cx * scale)
            ys.append(cy * scale)
            zs.append(cz * scale)
            scale //= w
        if m >= n:
            xs, ys, zs = field.reduce(xs), field.reduce(ys), field.reduce(zs)
        elif m + 1 < n:
            pad = [0] * (n - 1 - m)
            xs, ys, zs = xs + pad, ys + pad, zs + pad
        points.append((ProjectivePoint(field, 0, (tuple(xs), tuple(ys), tuple(zs))), mult))
    return points


def _intersect_line_conic(line: tuple[int, ...], conic: tuple[int, ...]) -> PairResult:
    p0, p1 = _line_basis(*line)
    # restrict the conic to the line: Q(s*P0 + t*P1) = A s^2 + B st + C t^2
    quad_a = _conic_value(conic, *p0)
    quad_c = _conic_value(conic, *p1)
    quad_b = _conic_value(conic, p0[0] + p1[0], p0[1] + p1[1], p0[2] + p1[2]) - quad_a - quad_c
    # the root (s : t) is the point s*P0 + t*P1
    return _points([quad_c, quad_b, quad_a], (p1, p0))


# A projection centre C fails only if it lies on one of the conics, or on a
# line component of a degenerate member of their pencil: the member through C
# is lin1 X + lin0, and a root shared by the quartic and lin1 is a root of
# lin0 (the quartic is a2 lin0^2 - a1 lin0 lin1 + a0 lin1^2), so the fiber
# line through it is a component of the member; for lin1 = 0 the member is a
# binary quadratic in (Y : Z), two lines through C.  The pencil has at most
# 3 degenerate members, since det(A + s B) is a cubic in s with leading
# coefficient det B != 0.  The centres C_t = (1 : t : t^3) lie on the
# irreducible cuspidal cubic x^2 z = y^3, so by Bezout at most
# 6 + 6 + 6 * 3 = 30 of them fail, and one of the first 31 works.
_CENTRES = 31


def _intersect_conics(p: tuple[int, ...], q: tuple[int, ...]) -> PairResult:
    for t in range(_CENTRES):
        points = _intersect_conics_from(p, q, t)
        if points is not None:
            return points
    raise IntersectionError(f"none of the {_CENTRES} projection centres is generic")


def _expansion(coeffs: tuple[int, ...], t: int
               ) -> tuple[int, list[int], list[int]]:
    """The integer conic Q at X C + (0, Y, Z), C = (1, t, t^3), as
    a2 X^2 + a1 X + a0: a2 = Q(C), a1 = grad Q(C) . (0, Y, Z) and
    a0 = Q(0, Y, Z), the binary forms as coefficients of Y^0, Y^1, ..."""
    a, b, c, d, e, f = coeffs
    u = t ** 3
    return (_conic_value(coeffs, 1, t, u), [e + f * t + 2 * c * u, d + 2 * b * t + f * u],
            [c, f, b])


def _intersect_conics_from(p: tuple[int, ...], q: tuple[int, ...],
                           t: int) -> PairResult | None:
    """The points of the conics p and q, by projection from the centre
    C = C_t onto the line x = 0 as the module docstring sets out, each conic
    read at X C + (0, Y, Z) by ``_expansion``, or None when C is not
    generic."""
    a2, a1, a0 = _expansion(p, t)
    b2, b1, b0 = _expansion(q, t)
    if a2 == 0 or b2 == 0:
        return None  # a conic passes through the centre
    lin1 = [b2 * u - a2 * v for u, v in zip(a1, b1)]
    lin0 = [b2 * u - a2 * v for u, v in zip(a0, b0)]
    quartic = [a2 * u - v + w for u, v, w in zip(
        _poly_mul(lin0, lin0), _poly_mul(a1, _poly_mul(lin0, lin1)),
        _poly_mul(a0, _poly_mul(lin1, lin1)))]
    # lin1 = u*Y + v*Z must not vanish at a root, else X is not determined
    # there: lin1 is not zero, and quartic(-v, u) != 0
    v, u = lin1
    if u == v == 0 or not sum(c * (-v) ** i * u ** (4 - i) for i, c in enumerate(quartic)):
        return None  # two intersection points share a fiber
    # X = -lin0 / lin1: over the root (Y : Z) = (s : w), (X : Y : Z) is
    # (-lin0 : s lin1 : w lin1), and the point is (X, t X + Y, t^3 X + Z),
    # with the coefficients of Z^2, YZ and Y^2 as its columns
    x0, x1, x2 = [-c for c in lin0]
    cube = t ** 3
    return _points(quartic, ((x0, t * x0, cube * x0 + v), (x1, t * x1 + v, cube * x1 + u),
                             (x2, t * x2 + u, cube * x2)))


def _poly_mul(u: list[int], v: list[int]) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    return out


@dataclass
class DerivedCombinatorics:
    """Output of the full engine run on one arrangement: the type and the
    singular points it counts.  ``all_ordinary`` is read from the points."""

    ct: CombinatorialType
    points: list[SingularPoint]

    @property
    def all_ordinary(self) -> bool:
        return all(p.ordinary for p in self.points)


def has_six_line_subarrangement(arrangement: Arrangement,
                                derived: DerivedCombinatorics) -> bool:
    """Is there a 6-line subarrangement meeting only in double and triple
    points?  ``derived`` is ``combinatorial_type(arrangement)``.  Decided
    exactly by a search over the meets of the line pairs: the meet of lines
    i and j is the one singular point whose incident curves hold both, and
    it is rational, since two lines never meet in an irrational orbit.

    Subsets grow one line at a time, by increasing index.  A point through
    four lines of a subset is met by the last of them at a point shared with
    three chosen lines, and every superset keeps it, so such a branch is
    abandoned as soon as that happens.
    """
    lines = [i for i, c in enumerate(arrangement.curves) if c.kind == "line"]
    n = len(lines)
    if n < 6:
        return False
    # line i is curve lines[i]; a meet is numbered by its point's position
    line_of = {curve: i for i, curve in enumerate(lines)}
    meet = [[-1] * n for _ in range(n)]
    for number, point in enumerate(derived.points):
        through = [line_of[c] for c in point.incident if c in line_of]
        for i, j in combinations(through, 2):
            meet[i][j] = meet[j][i] = number

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

    Every pair is certified by ``intersect_pair`` first, and an
    ``IntersectionError`` names the indices and labels of its curves.  A
    point turns up at each pair of its curves and is collected at the
    first, that of its two lowest-index curves.  A rational point's curves
    are the union of the pairs it turns up at; an irrational orbit's are
    found by evaluating the other curves in its field, once for all its
    conjugates.  A point's delta sums its pair multiplicities: a rational
    point's at each pair it turns up at, an orbit's the one multiplicity of
    each pair's irrational orbits (the module docstring's lemma).  The
    deltas sum to ``pair_total(d, k)``, for any arrangement, or raise.

    Non-ordinary points are kept, never rejected; the combinatorics are
    still returned so the invariant formulas can be evaluated (with a
    hypothesis warning downstream).
    """
    validate_arrangement(arrangement)
    curves = arrangement.curves
    forms = [c.coefficients for c in curves]
    pairs = {}
    for i, j in combinations(range(len(curves)), 2):
        try:
            pairs[i, j] = intersect_pair(curves[i], curves[j])
        except IntersectionError as exc:
            raise IntersectionError(f"curves {i} and {j}, {exc}") from None
    # the one multiplicity of each pair's irrational orbits, by pair
    shared = {pair: m for pair, orbits in pairs.items()
              for p, m in orbits if p.field.degree > 1}
    # [one point of an orbit, incident curve indices, delta], by first pair
    found: list[list] = []
    # the entries of the rational points, by their primitive integer vectors
    rational: dict[tuple[tuple[int], ...], list] = {}
    for (i, j), orbits in pairs.items():
        for point, mult in orbits:
            # by vector: O(n^2) for n lines, where _orbit_incidence is O(n^3)
            if point.field.degree == 1:
                entry = rational.get(point.vectors)
                if entry is None:
                    entry = rational[point.vectors] = [point, set(), 0]
                    found.append(entry)
                entry[1].update((i, j))
                entry[2] += mult
            else:
                incident = _orbit_incidence(forms, point, i, j)
                if incident is not None:
                    found.append([point, incident, sum(
                        shared[pair] for pair in combinations(sorted(incident), 2))])
    points = [SingularPoint(location=p, incident=frozenset(incident), delta=delta)
              for point, incident, delta in found for p in point.conjugates()]
    total, expected = sum(p.delta for p in points), pair_total(arrangement.d, arrangement.k)
    if total != expected:
        raise IntersectionError(f"the points' deltas sum to {total}, not {expected}")
    t: dict[int, int] = {}
    for p in points:
        t[p.multiplicity] = t.get(p.multiplicity, 0) + 1
    ct = CombinatorialType(d=arrangement.d, k=arrangement.k, t=t)
    return DerivedCombinatorics(ct=ct, points=points)


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
