"""Named arrangements: geometric where explicit rational equations exist,
combinatorial-only where only the (d, k, t) data is published.

Geometric entries come with a builder producing explicit curves; their
stored combinatorial type must re-derive exactly through the intersection
engine (enforced by the test suite).  Combinatorial entries are bare
(d, k, t) records; one of them (pappus-cl) is stored verbatim although its
pairwise count does not balance, and carries a known-inconsistent flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .curves import Arrangement, CombinatorialType, PlaneCurve, ValidationError

KNOWN_INCONSISTENT = "known-inconsistent"
NON_ORDINARY = "non-ordinary"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    ct: CombinatorialType
    provenance: str
    flags: frozenset[str] = frozenset()
    builder: Callable[..., Arrangement] | None = None
    parameters: str = ""

    @property
    def kind(self) -> str:
        """"geometric" with a builder of explicit curves, else "combinatorial"."""
        return "combinatorial" if self.builder is None else "geometric"

    def build(self, **kwargs) -> Arrangement:
        if self.builder is None:
            raise ValidationError(
                f"{self.name} is combinatorial-only; no equations are published")
        return self.builder(**kwargs)


def _line(a, b, c, label) -> PlaneCurve:
    return PlaneCurve("line", (a, b, c), label)


def _pencil_conic(t: Fraction, label: str) -> PlaneCurve:
    # x^2 - z^2 + t (y^2 - z^2); reducible exactly for t in {0, -1}
    t = Fraction(t)
    if t == 0 or t == -1:
        raise ValidationError(f"pencil parameter t={t} gives a reducible member")
    return PlaneCurve("conic", (1, t, -(1 + t), 0, 0, 0), label)


def build_pencil4(k: int | None = None, t: Sequence | None = None) -> Arrangement:
    """Two lines x = +-z plus k members of the conic pencil through the four
    base points (+-1 : +-1 : 1), at the parameters t.  Without t the
    parameters are 1..k, and without k there are len(t) conics; without
    both, k = 3."""
    if t is None:
        t = range(1, (3 if k is None else k) + 1)
    t = [Fraction(v) for v in t]
    if k is None:
        k = len(t)
    if k < 1:
        raise ValidationError(f"need at least one pencil conic, got k = {k}")
    if len(t) != k:
        raise ValidationError("need exactly k distinct pencil parameters")
    if len(set(t)) != k:
        raise ValidationError("pencil parameters must be distinct")
    curves = [_line(1, 0, -1, "l1"), _line(1, 0, 1, "l2")]
    curves += [_pencil_conic(v, f"C{i + 1}") for i, v in enumerate(t)]
    return Arrangement(tuple(curves))


def pencil4_type(k: int) -> CombinatorialType:
    # for k = 1 the four base points are double points too and merge with
    # the crossing of the two lines
    t = {2: 1}
    t[k + 1] = t.get(k + 1, 0) + 4
    return CombinatorialType(d=2, k=k, t=t)


def build_dbe_sharpness() -> Arrangement:
    """All six lines through pairs of the four points (+-1 : +-1 : 1) plus
    three pencil conics through the same points: the sharpness example for
    the de Bruijn-Erdos-type bound (f0 = 7 < 9 = k + d)."""
    curves = [
        _line(1, 0, -1, "l1"), _line(1, 0, 1, "l2"),
        _line(0, 1, -1, "l3"), _line(0, 1, 1, "l4"),
        _line(1, -1, 0, "l5"), _line(1, 1, 0, "l6"),
    ]
    curves += [_pencil_conic(v, f"C{i + 1}") for i, v in enumerate((1, 2, 3))]
    return Arrangement(tuple(curves))


def build_tangency_demo() -> Arrangement:
    """A line tangent to a circle: the minimal non-ordinary example."""
    return Arrangement((
        _line(0, 1, -1, "l1"),
        PlaneCurve("conic", (1, 1, -1, 0, 0, 0), "C1"),
    ))


def _entries() -> list[CatalogEntry]:
    ct = CombinatorialType
    return [
        CatalogEntry(
            name="chilean", ct=ct(d=0, k=12, t={8: 9, 2: 12}),
            provenance="12 conics from the index-2 Halphen pencil; nine 8-fold "
                       "points and 12 pairwise double points"),
        CatalogEntry(
            name="extended-chilean", ct=ct(d=9, k=12, t={9: 9, 5: 12, 2: 72}),
            provenance="the 12 Chilean conics plus the 9 dual-Hesse lines; "
                       "identical (d, k, t) data to the Hesse arrangement of "
                       "conics and lines used in the slope examples"),
        CatalogEntry(
            name="klein", ct=ct(d=21, k=21, t={2: 42, 3: 252, 4: 189}),
            provenance="Klein's 21 lines and the 21 polar conics of the "
                       "quartic at the quadruple points"),
        CatalogEntry(
            name="dual-hesse", ct=ct(d=9, k=0, t={3: 12}),
            provenance="dual Hesse line arrangement (9_4, 12_3)"),
        CatalogEntry(
            name="hesse-lines", ct=ct(d=12, k=0, t={4: 9, 2: 12}),
            provenance="Hesse line arrangement (12_3, 9_4) from the Hesse "
                       "pencil of cubics"),
        CatalogEntry(
            name="conic-65", ct=ct(d=0, k=6, t={5: 6}),
            provenance="the (6_5, 6_5) conic configuration showing sharpness "
                       "of the conic-only point bound"),
        CatalogEntry(
            name="pappus-cl", ct=ct(d=9, k=4, t={7: 2, 5: 4, 4: 2, 2: 36}),
            provenance="9 Pappus lines plus 4 conics through chosen quintuples "
                       "of the 9 marked points; t-vector stored as published",
            flags=frozenset({KNOWN_INCONSISTENT})),
        CatalogEntry(
            name="pencil4", ct=pencil4_type(3),
            provenance="pencil-type arrangement: 2 lines and k pencil conics "
                       "through 4 base points (stored type is the k=3 default)",
            builder=build_pencil4,
            parameters="k: int = len(t), or 3; t: k distinct rationals not in "
                       "{0, -1}, by default 1..k"),
        CatalogEntry(
            name="dbe-sharpness", ct=ct(d=6, k=3, t={6: 4, 2: 3}),
            provenance="4 points, all 6 connecting lines, 3 pencil conics: "
                       "the lower-bound hypotheses cannot be weakened",
            builder=build_dbe_sharpness),
        CatalogEntry(
            name="tangency-demo", ct=ct(d=1, k=1, t={2: 1}),
            provenance="a line tangent to a smooth conic; its double point is "
                       "not ordinary",
            flags=frozenset({NON_ORDINARY}),
            builder=build_tangency_demo),
    ]


_CATALOG: dict[str, CatalogEntry] = {e.name: e for e in _entries()}


def catalog_list() -> list[str]:
    return sorted(_CATALOG)


def catalog_get(name: str) -> CatalogEntry:
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"valid names: {', '.join(_CATALOG)}") from None


def catalog_build(name: str, **parameters) -> Arrangement:
    return catalog_get(name).build(**parameters)
