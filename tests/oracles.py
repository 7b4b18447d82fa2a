"""Independent oracles and generators that only the tests use.

``tangent_line`` and ``check_ordinary`` decide ordinarity from tangent
lines.  The engine reads it from pair multiplicities, so the two methods
check each other; they share no code but the field arithmetic
(``NumberField.dot``).  ``from_coords`` builds a rational point from int or
Fraction coordinates, and ``random_balanced_type`` draws a combinatorial
type with zero pairwise defect for property tests.  ``approx`` and
``field_approx`` give a point's display coordinates and a field element as
complex numbers, for comparison with values computed independently.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, inf

from coniclines.algebraic import NumberField
from coniclines.curves import (
    Arrangement,
    CombinatorialType,
    PlaneCurve,
    ProjectivePoint,
    SingularPoint,
    ValidationError,
)
from coniclines.invariants import bezout_defect, pair_total
from coniclines.polynomials import coprime_integers


def tangent_line(curve: PlaneCurve, point: ProjectivePoint
                 ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Tangent of the curve at a point of it, as the three integer vectors
    of its line coefficients (a, b, c): the gradient of the curve's integer
    form at the point's integer vectors, a nonzero multiple of the gradient
    at the normalized point.  A line's gradient is its coefficients, as
    1-vectors; a conic's is 2A times the point, for its symmetric matrix A,
    in the integral generator b of the point's field.  Raises
    ValidationError when the point is not on the curve (by Euler's
    identity, point . gradient is deg times the form's value)."""
    vectors = point.vectors
    if curve.kind == "line":
        gradient = tuple((c,) for c in curve.coefficients)
    else:
        a, b, c, d, e, f = curve.coefficients
        twice_a = ((2 * a, d, e), (d, 2 * b, f), (e, f, 2 * c))
        gradient = tuple(tuple(sum(m * v[i] for m, v in zip(row, vectors))
                               for i in range(len(vectors[0])))
                         for row in twice_a)
    if any(point.field.dot(vectors, gradient)):
        raise ValidationError("point does not lie on the curve")
    return gradient


def check_ordinary(point: SingularPoint, arrangement: Arrangement) -> bool:
    """Decide ordinarity from tangent lines: pairwise non-proportional.
    Reduced vectors are unique, so a 2x2 minor u_i v_j - u_j v_i of two
    tangents vanishes iff its reduced vector is 0."""
    location = point.location
    tangents = [tangent_line(arrangement.curves[k], location) for k in sorted(point.incident)]
    return all(any(any(location.field.dot((u[i], u[j]), (v[j], [-c for c in v[i]])))
                   for i, j in ((0, 1), (0, 2), (1, 2)))
               for u, v in combinations(tangents, 2))


def from_coords(x, y, z) -> ProjectivePoint:
    """The rational point (x : y : z) of int or Fraction coordinates,
    scaled to integers."""
    if not all(isinstance(v, (int, Fraction)) for v in (x, y, z)):
        raise TypeError("from_coords takes int or Fraction coordinates")
    if x == y == z == 0:
        raise ValidationError("(0 : 0 : 0) is not a projective point")
    return ProjectivePoint.from_integers(*coprime_integers((x, y, z)))


def field_approx(field: NumberField, vector, den: int = 1, conjugate: int = 0) -> complex:
    """(sum_i vector[i] b^i) / den at conjugate k, as a complex number:
    ``NumberField.value`` as a float pair.  A vector with no irrational part
    is evaluated exactly.  A part past the double range is +-inf by its
    sign, and one below it 0, on both paths."""
    if not any(vector[1:]):
        try:
            return complex(vector[0] / den)
        except OverflowError:  # +-inf, as complex() of an mpc gives
            return complex(inf if (vector[0] > 0) == (den > 0) else -inf)
    return complex(field.value(vector, den, conjugate))


def approx(point: ProjectivePoint) -> tuple[complex, complex, complex]:
    """The display coordinates of a point, its last nonzero one 1, as
    complex numbers (``field_approx``)."""
    return tuple(field_approx(point.field, v, den, point.conjugate)
                 for v, den in point.field._quotients(point.vectors))


def random_balanced_type(rng, d_max: int = 12, k_max: int = 12,
                         max_mult: int = 8) -> CombinatorialType:
    """A random (d, k, t) with zero pairwise defect, for property testing.

    Draws t_r for high multiplicities within budget and closes the identity
    exactly with double points (weight C(2,2) = 1)."""
    while True:
        d = rng.randint(0, d_max)
        k = rng.randint(0, k_max)
        if d + k >= 2:
            break
    remaining = pair_total(d, k)
    t: dict[int, int] = {}
    top = min(max_mult, d + k)
    for r in range(top, 2, -1):
        weight = comb(r, 2)
        cap = remaining // weight
        if cap == 0:
            continue
        count = rng.randint(0, cap)
        if count:
            t[r] = count
            remaining -= count * weight
    if remaining:
        t[2] = remaining
    ct = CombinatorialType(d=d, k=k, t=t)
    if bezout_defect(ct) != 0:
        raise RuntimeError(f"drew an unbalanced type {ct}")
    return ct
