"""Domain model for conic-line arrangements.

Curves are lines and irreducible conics, each stored once as its coprime
integer coefficients: the rational equation scaled to integers with gcd 1,
which is the same curve.  An arrangement is a finite list of pairwise
non-proportional curves.  Both invariants are checked on those integers,
which the engine computes with as well: a conic is smooth iff det(2A) != 0
for its integer symmetric matrix 2A, and two curves are proportional iff
their coefficients agree up to sign.  The
combinatorial type (d, k, t) records the number of lines, conics, and
r-fold intersection points; it is also a first-class input on its own,
because several named arrangements are known only through their published
(d, k, t) data.  A point of P^2 lies in a number field and is stored as
integer vectors in the field's integral generator, shared by its
conjugates.  A rational point lies in ``QQ`` = Q[a]/(a), as its primitive
integer 1-vectors, which key it.  The engine builds both kinds from the
fields of its roots, a rational root being a field of degree 1 whose
1-vectors give the point of ``QQ`` (``from_integers``).  This module does
no numerics: ``NumberField.show`` prints a point.

File formats (UTF-8 text, ``#`` comments), read by ``parse_input``:

  arrangement file       one record per line:
                           line: a b c            -> a*x + b*y + c*z = 0
                           conic: a b c d e f     -> a*x^2 + b*y^2 + c*z^2
                                                     + d*xy + e*xz + f*yz = 0
                         coefficients are rationals "p/q" or integers; they
                         are written back as the coprime integers
  combinatorial type     header ``d=<int> k=<int>`` (each once, either order,
                         nothing else), then lines ``t <r> = <count>``, the
                         ``=`` optional and the only one

Both formats share one record grammar (``_records``): a record ends at a
line feed, a carriage return before it dropped, and its fields are
separated by ASCII spaces and tabs; any other character that does not
print, outside a comment, is a ParseError naming the line.  Every integer
of both formats, p and q included, is ASCII ``[+-]?[0-9]+``
(``polynomials.parse_integer``): no ``_`` separator, no other digit.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd

from .algebraic import QQ, NumberField
from .polynomials import coprime_integers, parse_integer, parse_rational


class ValidationError(ValueError):
    """A curve or arrangement violates a structural invariant."""


class ParseError(ValueError):
    """Malformed arrangement or combinatorial-type file."""


# the number of coefficients of each curve kind
_COUNTS = {"line": 3, "conic": 6}


@dataclass(frozen=True)
class PlaneCurve:
    """A line a x + b y + c z = 0 or a conic
    a x^2 + b y^2 + c z^2 + d xy + e xz + f yz = 0.

    ``coefficients`` may be given as any int or Fraction sequence, the
    line's (a, b, c) or the conic's (a, b, c, d, e, f), not all zero; it is
    stored scaled to coprime integers, which is the same curve.  Two curves
    are equal when their kinds, integers and labels are; a negative scale
    negates the integers, so ``validate_arrangement`` compares them up to
    sign."""

    kind: str  # "line" | "conic"
    coefficients: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        count = _COUNTS.get(self.kind)
        if count is None:
            raise ValidationError(f"unknown curve kind {self.kind!r}")
        values = tuple(self.coefficients)
        if not all(isinstance(v, (int, Fraction)) for v in values):
            raise ValidationError("coefficients must be integers or Fractions")
        if len(values) != count:
            raise ValidationError(f"a {self.kind} needs {count} coefficients")
        if not any(values):
            raise ValidationError("zero polynomial")
        object.__setattr__(self, "coefficients", coprime_integers(values))

    @property
    def degree(self) -> int:
        return 1 if self.kind == "line" else 2

    @property
    def record(self) -> str:
        """The curve as a record of the arrangement format."""
        return f"{self.kind}: " + " ".join(map(str, self.coefficients))

    @property
    def name(self) -> str:
        """The label, or the record of an unlabeled curve, for messages."""
        return self.label or self.record


def _det_2a(coeffs: tuple[int, ...]) -> int:
    """det(2A) of the integer conic (a, b, c, d, e, f), where
    2A = [[2a, d, e], [d, 2b, f], [e, f, 2c]] is twice its symmetric matrix;
    nonzero iff the conic is smooth."""
    a, b, c, d, e, f = coeffs
    return 2 * (4 * a * b * c + d * e * f - a * f * f - b * e * e - c * d * d)


def validate_curve(curve: PlaneCurve, index: int | None = None) -> None:
    """Raise ValidationError unless the curve invariants hold.  The message
    names the curve, and its ``index`` in an arrangement when given."""
    if curve.kind == "conic" and _det_2a(curve.coefficients) == 0:
        name = curve.name if index is None else f"curve {index} ({curve.name})"
        raise ValidationError(f"{name}: conic is a line pair or double line")


@dataclass(frozen=True)
class Arrangement:
    curves: tuple[PlaneCurve, ...]

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        if not self.curves:
            raise ValidationError("an arrangement needs at least one curve")

    @property
    def d(self) -> int:
        return sum(1 for c in self.curves if c.kind == "line")

    @property
    def k(self) -> int:
        return sum(1 for c in self.curves if c.kind == "conic")


def validate_arrangement(arrangement: Arrangement) -> None:
    """Validate every curve and reject repeated (proportional) curves."""
    for i, curve in enumerate(arrangement.curves):
        validate_curve(curve, i)
    # proportional curves have coprime integer coefficients equal up to sign
    keys = [max(c.coefficients, tuple(-v for v in c.coefficients))
            for c in arrangement.curves]
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if keys[i] == keys[j]:
                raise ValidationError(f"duplicate curve: pair ({i}, {j})")


@dataclass(frozen=True)
class CombinatorialType:
    """The (d, k, t) data of an arrangement: line/conic counts and the map
    r -> t_r counting r-fold points."""

    d: int
    k: int
    t: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 0 or self.k < 0:
            raise ValidationError("d and k must be nonnegative")
        clean = {}
        for r, count in self.t.items():
            if r < 2:
                raise ValidationError(f"t_{r} is undefined for r < 2")
            if count < 0:
                raise ValidationError(f"t_{r} must be nonnegative")
            if count > 0:
                if r > self.k + self.d:
                    raise ValidationError(
                        f"t_{r} > 0 impossible with only {self.k + self.d} curves")
                clean[r] = count
        object.__setattr__(self, "t", dict(sorted(clean.items())))

    def t_of(self, r: int) -> int:
        return self.t.get(r, 0)

    def __hash__(self):
        return hash((self.d, self.k, tuple(sorted(self.t.items()))))


class ProjectivePoint:
    """Point of P^2 with algebraic coordinates, stored as integer vectors.

    ``field`` is the number field of the coordinates, ``QQ`` for a rational
    point (``field.degree == 1``); ``conjugate`` is the index of the point
    in its orbit, 0 for a rational point; ``vectors`` are the three
    coordinates times one nonzero number, as integer vectors in the field's
    integral generator b, of length deg f each.  A rational point's
    1-vectors are primitive with their last nonzero entry positive, so they
    serve as its dict key.  An irrational point stands for itself and the
    other deg f conjugate points of its orbit, which share its vectors.
    Every point is built from integers, a rational one by
    ``from_integers`` and an irrational one by the constructor, and the
    engine never divides it: ``repr`` prints it with ``NumberField.show``.
    Points compare and hash by (field, conjugate, vectors), never changed
    after construction.
    """

    __slots__ = ("field", "conjugate", "vectors")

    def __init__(self, field: NumberField, conjugate: int,
                 vectors: tuple[tuple[int, ...], ...]):
        self.field = field
        self.conjugate = conjugate
        self.vectors = vectors

    @classmethod
    def from_integers(cls, x: int, y: int, z: int) -> "ProjectivePoint":
        """The rational point (x : y : z) of integer coordinates, in ``QQ``."""
        common = gcd(x, y, z)
        if common == 0:
            raise ValidationError("(0 : 0 : 0) is not a projective point")
        if (z or y or x) < 0:
            common = -common
        return cls(QQ, 0, ((x // common,), (y // common,), (z // common,)))

    def conjugates(self) -> list["ProjectivePoint"]:
        """The points of this point's orbit, by conjugate index; this point
        is one of them, and all share its vectors."""
        return [self if k == self.conjugate else ProjectivePoint(self.field, k, self.vectors)
                for k in range(self.field.degree)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return (self.vectors == other.vectors and self.conjugate == other.conjugate
                and self.field == other.field)

    def __hash__(self) -> int:
        return hash((self.field, self.conjugate, self.vectors))

    def __repr__(self) -> str:
        return self.field.show(self.vectors, self.conjugate)


@dataclass
class SingularPoint:
    """A point where two or more curves meet: its location, the indices of
    the curves through it, and delta, the sum of their pair multiplicities
    there: its delta invariant, as each branch of a line or smooth conic is
    smooth.  With r the number of curves, it is ordinary iff delta = C(r, 2),
    and mu = 2 delta - r + 1 (Milnor, *Singular Points of Complex
    Hypersurfaces*, Thm. 10.5)."""

    location: ProjectivePoint
    incident: frozenset[int]
    delta: int

    @property
    def multiplicity(self) -> int:
        return len(self.incident)

    @property
    def ordinary(self) -> bool:
        return self.delta == comb(self.multiplicity, 2)

    @property
    def mu(self) -> int:
        return 2 * self.delta - self.multiplicity + 1

    def __post_init__(self):
        if self.multiplicity < 2:
            raise ValidationError("singular points have multiplicity >= 2")
        if self.delta < comb(self.multiplicity, 2):  # each pair meets here
            raise ValidationError(f"delta {self.delta} < C({self.multiplicity}, 2)")


# --------------------------------------------------------------------------
# (de)serialization


_SEPARATOR = re.compile(r"[ \t]+")
# a type record, its fields joined by one space: at most one "=", between r
# and the count
_TYPE_RECORD = re.compile(r"t ([^ =]+)(?: | ?= ?)([^ =]+)")


def _records(text: str) -> Iterator[tuple[int, str]]:
    """The nonblank records of a file, as (line number, its fields joined by
    one space).  A record ends at a line feed, a carriage return before it
    dropped, and a "#" starts a comment to its end.  Any character that
    does not print, other than the separators, is a ParseError naming the
    line: other whitespace (``str.split`` would take U+00A0 as a separator)
    and control and format characters (``splitlines`` would end a record at
    U+2028 or a form feed)."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r").split("#", 1)[0]
        fields = [f for f in _SEPARATOR.split(line) if f]
        bad = next((c for f in fields for c in f if not c.isprintable()), None)
        if bad is not None:
            raise ParseError(f"line {lineno}: unexpected character U+{ord(bad):04X}; "
                             "fields are separated by ASCII spaces and tabs")
        if fields:
            yield lineno, " ".join(fields)


def parse_input(text: str) -> Arrangement | CombinatorialType:
    """An arrangement or a combinatorial type, by the file's first record:
    only arrangement records hold a colon."""
    _lineno, first = next(_records(text), (0, ""))
    if ":" in first:
        return parse_arrangement(text)
    return parse_combinatorial_type(text)


def parse_arrangement(text: str) -> Arrangement:
    curves = []
    for lineno, record in _records(text):
        if ":" not in record:
            raise ParseError(f"line {lineno}: expected 'line:' or 'conic:' record")
        head, _, rest = record.partition(":")
        head = head.strip(" ")
        try:
            values = [parse_rational(tok) for tok in rest.split()]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad coefficient ({exc})") from None
        if head not in _COUNTS:
            raise ParseError(f"line {lineno}: unknown record {head!r}")
        try:
            curves.append(PlaneCurve(head, values, label=f"{head}{len(curves) + 1}"))
        except ValidationError as exc:  # a wrong count or all zeros
            raise ParseError(f"line {lineno}: {exc}") from None
    if not curves:
        raise ParseError("no curve records found")
    return Arrangement(tuple(curves))


def serialize_arrangement(arrangement: Arrangement) -> str:
    """One record per curve, with its coprime integer coefficients."""
    return "".join(curve.record + "\n" for curve in arrangement.curves)


def _parse_int(token: str, lineno: int) -> int:
    try:
        return parse_integer(token)
    except ValueError:
        raise ParseError(f"line {lineno}: expected an integer, got {token!r}") from None


def parse_combinatorial_type(text: str) -> CombinatorialType:
    d = k = None
    t: dict[int, int] = {}
    for lineno, record in _records(text):
        if d is None:
            pairs = [tok.split("=", 1) for tok in record.split()]
            if len(pairs) != 2 or sorted(p[0] for p in pairs if len(p) == 2) != ["d", "k"]:
                raise ParseError(f"line {lineno}: expected header 'd=<int> k=<int>', "
                                 "each once and nothing else")
            header = dict(pairs)
            d, k = _parse_int(header["d"], lineno), _parse_int(header["k"], lineno)
            continue
        match = _TYPE_RECORD.fullmatch(record)
        if match is None:
            raise ParseError(f"line {lineno}: expected 't <r> = <count>', "
                             "the '=' optional")
        r = _parse_int(match[1], lineno)
        if r in t:
            raise ParseError(f"line {lineno}: t {r} is given twice")
        t[r] = _parse_int(match[2], lineno)
    if d is None:
        raise ParseError("missing 'd=<int> k=<int>' header")
    return CombinatorialType(d=d, k=k, t=t)


def serialize_combinatorial_type(ct: CombinatorialType) -> str:
    lines = [f"d={ct.d} k={ct.k}"]
    for r, count in sorted(ct.t.items()):
        lines.append(f"t {r} = {count}")
    return "\n".join(lines) + "\n"
