"""Domain model for conic-line arrangements.

Curves are lines or irreducible conics given by homogeneous rational forms.
An arrangement is a finite list of pairwise non-proportional curves.  The
combinatorial type (d, k, t) records the number of lines, conics, and
r-fold intersection points; it is also a first-class input on its own,
because several named arrangements are known only through their published
(d, k, t) data.

File formats (UTF-8 text, ``#`` comments):

  arrangement file       one record per line:
                           line: a b c            -> a*x + b*y + c*z = 0
                           conic: a b c d e f     -> a*x^2 + b*y^2 + c*z^2
                                                     + d*xy + e*xz + f*yz = 0
                         coefficients are rationals "p/q" or integers
  combinatorial type     header ``d=<int> k=<int>`` then lines ``t <r> = <count>``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .algebraic import AlgebraicNumber, NumberField
from .polynomials import TernaryForm, coprime_integers, format_rational, parse_rational


class ValidationError(ValueError):
    """A curve or arrangement violates a structural invariant."""


class ParseError(ValueError):
    """Malformed arrangement or combinatorial-type file."""


@dataclass(frozen=True)
class PlaneCurve:
    kind: str  # "line" | "conic"
    form: TernaryForm
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("line", "conic"):
            raise ValidationError(f"unknown curve kind {self.kind!r}")
        expected = 1 if self.kind == "line" else 2
        if self.form.degree != expected:
            raise ValidationError(
                f"{self.kind} must have a degree-{expected} form")

    @property
    def degree(self) -> int:
        return self.form.degree

    @cached_property
    def coefficients(self) -> tuple[int, ...]:
        """The line's (a, b, c) or the conic's (a, b, c, d, e, f), scaled to
        coprime integers: the same curve.  The engine computes with these;
        they are worked out once per curve."""
        form = self.form
        values = form.line_coefficients() if form.degree == 1 else form.conic_coefficients()
        return coprime_integers(values)


def conic_matrix_det(form: TernaryForm) -> Fraction:
    """Determinant of the symmetric matrix of a conic; nonzero iff smooth."""
    a, b, c, d, e, f = form.conic_coefficients()
    h, g, i = d / 2, e / 2, f / 2
    return (a * (b * c - i * i) - h * (h * c - i * g) + g * (h * i - b * g))


def validate_curve(curve: PlaneCurve) -> None:
    """Raise ValidationError unless the curve invariants hold."""
    if curve.kind == "conic" and conic_matrix_det(curve.form) == 0:
        raise ValidationError(
            f"conic {curve.label or curve.form!r} is a line pair or double line")


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
    """Validate every curve and reject repeated (proportional) forms."""
    for curve in arrangement.curves:
        validate_curve(curve)
    curves = arrangement.curves
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            if curves[i].form.proportional_to(curves[j].form):
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


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of P^2 with algebraic coordinates.

    A rational point is normalized so the last nonzero coordinate is 1, so
    its coordinates can serve as a dict key.  An irrational point has its
    coordinates in one number field at one conjugate and stands for itself
    and the other deg f conjugate points of its orbit, which share its exact
    coordinates.  The engine builds it projectively from integer vectors in
    the field's integral generator b and never divides it; ``normalized``
    divides by the last nonzero coordinate (with the field inverse), and
    display goes through it.
    """

    coords: tuple[AlgebraicNumber, AlgebraicNumber, AlgebraicNumber]

    @classmethod
    def from_coords(cls, x, y, z) -> "ProjectivePoint":
        """The point (x : y : z), normalized."""
        coords = [v if isinstance(v, AlgebraicNumber)
                  else AlgebraicNumber.from_rational(v) for v in (x, y, z)]
        pivot = None
        for i in (2, 1, 0):
            if not coords[i].is_zero:
                pivot = i
                break
        if pivot is None:
            raise ValidationError("(0 : 0 : 0) is not a projective point")
        div = coords[pivot].inverse()
        normalized = [coords[i] * div for i in range(pivot)]
        normalized.append(AlgebraicNumber.from_rational(1))
        normalized.extend(AlgebraicNumber.from_rational(0)
                          for _ in range(pivot + 1, 3))
        return cls(tuple(normalized))

    @classmethod
    def in_field(cls, field: NumberField, vectors) -> "ProjectivePoint":
        """The point at conjugate 0 whose coordinates are the three integer
        vectors in b (length deg f each), not normalized."""
        coords = tuple(field.element(v) for v in vectors)
        if all(c.is_zero for c in coords):
            raise ValidationError("(0 : 0 : 0) is not a projective point")
        return cls(coords)

    @property
    def field(self) -> NumberField | None:
        """The number field of the coordinates; None for a rational point."""
        return next((c.field for c in self.coords if c.field is not None), None)

    @property
    def conjugate(self) -> int:
        """Index of this point in its orbit; 0 for a rational point."""
        return next((c.conjugate for c in self.coords if c.field is not None), 0)

    def conjugates(self) -> list["ProjectivePoint"]:
        """The points of this point's orbit, by conjugate index."""
        field = self.field
        if field is None:
            return [self]
        return [ProjectivePoint(tuple(c.at_conjugate(k) for c in self.coords))
                for k in range(field.degree)]

    def vectors(self) -> list[list[int]]:
        """The coordinates times one positive integer, as integer vectors in
        b of length deg f (length 1 for a rational point): the same point."""
        field = self.field
        n = 1 if field is None else field.degree
        dens = [c.den if c.field is not None else c.value.denominator for c in self.coords]
        common = lcm(*dens)
        out = []
        for c, den in zip(self.coords, dens):
            scale = common // den
            if c.field is not None:
                out.append([v * scale for v in c.value])
            else:
                out.append([c.value.numerator * scale] + [0] * (n - 1))
        return out

    def normalized(self) -> "ProjectivePoint":
        """The same point with its last nonzero coordinate 1."""
        return ProjectivePoint.from_coords(*self.coords)

    def same_point(self, other: "ProjectivePoint") -> bool:
        """Exact projective equality; decided for rational points and for
        points of one field at one conjugate, else ValueError."""
        a, b = self.coords, other.coords
        return all(a[i] * b[j] == a[j] * b[i] for i, j in ((0, 1), (0, 2), (1, 2)))

    def approx(self) -> tuple[complex, complex, complex]:
        return tuple(c.approx() for c in self.normalized().coords)

    def __repr__(self) -> str:
        parts = []
        for c in self.normalized().coords:
            if c.is_rational:
                parts.append(format_rational(c.as_fraction()))
            else:
                v = c.approx()
                parts.append(f"~{v.real:.4g}{v.imag:+.4g}j")
        return "(" + " : ".join(parts) + ")"


@dataclass
class SingularPoint:
    location: ProjectivePoint
    incident: frozenset[int]
    multiplicity: int
    ordinary: bool

    def __post_init__(self):
        if self.multiplicity != len(self.incident):
            raise ValidationError("multiplicity must equal the incidence count")
        if self.multiplicity < 2:
            raise ValidationError("singular points have multiplicity >= 2")


# --------------------------------------------------------------------------
# (de)serialization


def parse_arrangement(text: str) -> Arrangement:
    curves = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'line:' or 'conic:' record")
        head, _, rest = line.partition(":")
        head = head.strip()
        try:
            values = [parse_rational(tok) for tok in rest.split()]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad coefficient ({exc})") from None
        if head == "line":
            if len(values) != 3:
                raise ParseError(f"line {lineno}: a line needs 3 coefficients")
            if all(v == 0 for v in values):
                raise ParseError(f"line {lineno}: zero polynomial")
            form = TernaryForm.line(*values)
        elif head == "conic":
            if len(values) != 6:
                raise ParseError(f"line {lineno}: a conic needs 6 coefficients")
            if all(v == 0 for v in values):
                raise ParseError(f"line {lineno}: zero polynomial")
            form = TernaryForm.conic(*values)
        else:
            raise ParseError(f"line {lineno}: unknown record {head!r}")
        curves.append(PlaneCurve(head, form, label=f"{head}{len(curves) + 1}"))
    if not curves:
        raise ParseError("no curve records found")
    return Arrangement(tuple(curves))


def serialize_arrangement(arrangement: Arrangement) -> str:
    lines = []
    for curve in arrangement.curves:
        if curve.kind == "line":
            coeffs = curve.form.line_coefficients()
        else:
            coeffs = curve.form.conic_coefficients()
        lines.append(f"{curve.kind}: " + " ".join(format_rational(c) for c in coeffs))
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: expected an integer, got {token!r}") from None


def parse_combinatorial_type(text: str) -> CombinatorialType:
    d = k = None
    t: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if d is None:
            tokens = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
            if "d" not in tokens or "k" not in tokens:
                raise ParseError(f"line {lineno}: expected header 'd=<int> k=<int>'")
            d, k = _parse_int(tokens["d"], lineno), _parse_int(tokens["k"], lineno)
            continue
        parts = line.replace("=", " ").split()
        if len(parts) != 3 or parts[0] != "t":
            raise ParseError(f"line {lineno}: expected 't <r> = <count>'")
        r = _parse_int(parts[1], lineno)
        if r in t:
            raise ParseError(f"line {lineno}: t {r} is given twice")
        t[r] = _parse_int(parts[2], lineno)
    if d is None:
        raise ParseError("missing 'd=<int> k=<int>' header")
    return CombinatorialType(d=d, k=k, t=t)


def serialize_combinatorial_type(ct: CombinatorialType) -> str:
    lines = [f"d={ct.d} k={ct.k}"]
    for r, count in sorted(ct.t.items()):
        lines.append(f"t {r} = {count}")
    return "\n".join(lines) + "\n"
