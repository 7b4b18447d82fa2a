"""Metamorphic test: the combinatorics of an arrangement do not depend on
the coordinates or on the order of its curves.

An integer projective transform M maps each curve Q to Q(M v), and the
curves are permuted; the r-fold point counts, the ordinarity flag and the
sorted (r, delta) of the points must not change.  Inputs are pencil4,
the de Bruijn-Erdos sharpness example, and random members of a conic
pencil, which meet in four shared base points, often irrational ones, with
a few random lines.
"""

from fractions import Fraction as F
from functools import lru_cache

from hypothesis import assume, given, settings, strategies as st

from coniclines.catalog import build_dbe_sharpness, build_pencil4
from coniclines.curves import Arrangement, PlaneCurve, ValidationError, validate_arrangement
from coniclines.intersect import combinatorial_type


def _signature(arrangement):
    derived = combinatorial_type(arrangement)
    return (derived.ct.t, derived.all_ordinary,
            sorted((p.multiplicity, p.delta) for p in derived.points))


@lru_cache(maxsize=None)
def _catalog(name):
    arrangement = build_pencil4(5, range(1, 6)) if name == "pencil4" else build_dbe_sharpness()
    return arrangement, _signature(arrangement)


def _transformed(curve, m):
    """The curve Q(M v) in the coordinates v."""
    if curve.kind == "line":
        a = curve.coefficients
        return PlaneCurve("line", [sum(m[k][j] * a[k] for k in range(3)) for j in range(3)])
    a, b, c, d, e, f = curve.coefficients
    s = ((2 * a, d, e), (d, 2 * b, f), (e, f, 2 * c))  # the matrix of 2 Q
    t = [[sum(m[k][i] * s[k][l] * m[l][j] for k in range(3) for l in range(3))
          for j in range(3)] for i in range(3)]
    # the diagonal of M^T (2 Q) M is 2 Q at the columns of M: even
    return PlaneCurve("conic", (t[0][0] // 2, t[1][1] // 2, t[2][2] // 2,
                                t[0][1], t[0][2], t[1][2]))


_SMALL = st.integers(-3, 3)


@st.composite
def _matrices(draw):
    m = [draw(st.lists(_SMALL, min_size=3, max_size=3)) for _ in range(3)]
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    assume(det != 0)
    return m


@st.composite
def _pencil_arrangements(draw):
    """2-4 members s Q1 + t Q2 of a random conic pencil and 0-3 random lines."""
    q1, q2 = (draw(st.lists(_SMALL, min_size=6, max_size=6)) for _ in range(2))
    params = draw(st.lists(st.tuples(st.integers(1, 3), _SMALL),
                           min_size=2, max_size=4, unique=True))
    curves = []
    for s, t in params:
        values = [s * u + t * v for u, v in zip(q1, q2)]
        assume(any(values))
        curves.append(PlaneCurve("conic", values))
    for _ in range(draw(st.integers(0, 3))):
        values = draw(st.lists(_SMALL, min_size=3, max_size=3))
        assume(any(values))
        curves.append(PlaneCurve("line", values))
    arrangement = Arrangement(tuple(curves))
    try:
        validate_arrangement(arrangement)
    except ValidationError:
        assume(False)
    return arrangement


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(["pencil4", "dbe-sharpness"]), _pencil_arrangements()),
       _matrices(), st.randoms(use_true_random=False))
def test_combinatorics_are_projectively_invariant(source, matrix, rng):
    if isinstance(source, str):
        arrangement, expected = _catalog(source)
    else:
        arrangement, expected = source, _signature(source)
    curves = [_transformed(c, matrix) for c in arrangement.curves]
    rng.shuffle(curves)
    assert _signature(Arrangement(tuple(curves))) == expected
