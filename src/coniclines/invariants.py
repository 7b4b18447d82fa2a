"""Closed-form invariants and inequality checks for conic-line combinatorics.

The formulas are pure functions of a CombinatorialType (d lines, k conics,
t_r counts of r-fold points, ordinary by hypothesis), plus a few numeric
helpers for freeness and covers.  All arithmetic is exact: integers and
Fractions, with decimals only at the reporting surface.  The report
(``AnalysisReport``) is written here alone; for an arrangement it lists the
engine's singular points, and reads its Milnor total and warnings from them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import comb

from .curves import CombinatorialType, SingularPoint


def pair_total(d: int, k: int) -> int:
    """Weighted number of pairwise intersections: 4*C(k,2) + C(d,2) + 2kd."""
    return 4 * comb(k, 2) + comb(d, 2) + 2 * k * d


def bezout_defect(ct: CombinatorialType) -> int:
    """LHS minus RHS of the pairwise intersection count
    pair_total(d, k) = sum_r C(r,2) t_r; zero iff the identity holds."""
    return pair_total(ct.d, ct.k) - sum(comb(r, 2) * n for r, n in ct.t.items())


def incidence_sums(ct: CombinatorialType) -> tuple[int, int]:
    """(f0, f1) = (number of singular points, sum of their multiplicities)."""
    f0 = sum(ct.t.values())
    f1 = sum(r * n for r, n in ct.t.items())
    return f0, f1


def h_index(ct: CombinatorialType) -> Fraction:
    """((2k+d)^2 - sum r^2 t_r) / f0.

    When the pairwise count balances (bezout_defect == 0) this agrees with
    the incidence form (4k + d - f1) / f0; a disagreement raises
    RuntimeError.
    """
    f0, f1 = incidence_sums(ct)
    if f0 == 0:
        raise ValueError("smooth arrangement, H-index undefined")
    sum_r2 = sum(r * r * n for r, n in ct.t.items())
    value = Fraction((2 * ct.k + ct.d) ** 2 - sum_r2, f0)
    if bezout_defect(ct) == 0 and value != Fraction(4 * ct.k + ct.d - f1, f0):
        raise RuntimeError(f"the two H-index forms disagree on {ct}")
    return value


def milnor_total(ct: CombinatorialType) -> int:
    """Total Milnor number: sum over points of (multiplicity - 1)^2."""
    return sum((r - 1) ** 2 * n for r, n in ct.t.items())


def log_chern(ct: CombinatorialType) -> tuple[int, int]:
    """Chern numbers of the log pair (blown-up plane, reduced total transform):
    c1^2 = 9 - 5d - 8k + sum (3r-4) t_r, c2 = 3 - 2d - 2k + sum (r-1) t_r."""
    c1sq = 9 - 5 * ct.d - 8 * ct.k + sum((3 * r - 4) * n for r, n in ct.t.items())
    c2 = 3 - 2 * ct.d - 2 * ct.k + sum((r - 1) * n for r, n in ct.t.items())
    return c1sq, c2


def log_chern_slope(ct: CombinatorialType) -> Fraction | None:
    """The slope c1^2 / c2 of the log pair, as an exact rational, or None
    when it is undefined (log c2 = 0)."""
    c1sq, c2 = log_chern(ct)
    return Fraction(c1sq, c2) if c2 else None


def cover_chern(ct: CombinatorialType) -> tuple[int, int, int]:
    """Scaled invariants of the order-2 abelian cover desingularization:
    (e(Y), K_Y^2, BMY defect K_Y^2 - 3e(Y)), all divided by 2^(k+d-3).

    The identity k2 - 3e == defect holds for every input; a violation
    raises RuntimeError.
    """
    f0, f1 = incidence_sums(ct)
    t2 = ct.t_of(2)
    e_scaled = 12 - 4 * ct.k - 4 * ct.d + f1 - t2
    k2_scaled = 36 - 20 * ct.k - 11 * ct.d + 5 * f1 - 9 * f0 + t2
    defect = 2 * f1 - 9 * f0 + ct.d + 4 * t2 - 8 * ct.k
    if k2_scaled - 3 * e_scaled != defect:
        raise RuntimeError(f"cover invariants violate K^2 - 3e = defect on {ct}")
    return e_scaled, k2_scaled, defect


def check_hirzebruch(ct: CombinatorialType, improved: bool = False,
                     six_lines_subarrangement: bool = False) -> tuple[bool, bool]:
    """Hirzebruch-type inequality: (hypotheses_ok, conclusion_holds).

    Standard form: 8k + t2 + 3 t3 + t4 >= d + sum_{r>=5} (2r-9) t_r.
    Improved form drops t4 and weakens t3 to (3/4) t3.  The published
    theorem display shows 'k +' on the right; the derivation and the
    improved variant both use 'd +', and so does this check.

    The six-line sub-arrangement hypothesis is not a function of (d, k, t)
    and must be supplied by the caller.
    """
    t2, t3, t4 = ct.t_of(2), ct.t_of(3), ct.t_of(4)
    rhs = ct.d + sum((2 * r - 9) * n for r, n in ct.t.items() if r >= 5)
    if improved:
        lhs = Fraction(8 * ct.k + t2) + Fraction(3, 4) * t3
    else:
        lhs = Fraction(8 * ct.k + t2 + 3 * t3 + t4)
    hypotheses_ok = (ct.d >= 6 and ct.k >= 2 and ct.t_of(ct.d + ct.k) == 0
                     and six_lines_subarrangement)
    return hypotheses_ok, lhs >= rhs


def check_debruijn_erdos(ct: CombinatorialType) -> tuple[bool, bool]:
    """de Bruijn-Erdos-type bound: if d >= 2, k >= 2 and the four top
    multiplicity counts t_{k+d} .. t_{k+d-3} vanish, then f0 >= k + d."""
    n = ct.k + ct.d
    hypotheses_ok = (ct.d >= 2 and ct.k >= 2
                     and all(ct.t_of(n - i) == 0 for i in range(4) if n - i >= 2))
    f0, _ = incidence_sums(ct)
    return hypotheses_ok, f0 >= n


def check_urzua(ct: CombinatorialType) -> tuple[bool, bool, bool | None]:
    """The open combinatorial question 8k + 2 t2 + t3 >= d + 3 + sum_{r>=5}
    (r-4) t_r, plus the slope question E <= 8/3.

    Returns (hypotheses_ok, inequality_holds, slope_at_most_8_3); the slope
    entry is None when the slope is undefined (log c2 = 0).
    """
    hypotheses_ok = ct.k >= 2 and ct.d >= 2
    lhs = 8 * ct.k + 2 * ct.t_of(2) + ct.t_of(3)
    rhs = ct.d + 3 + sum((r - 4) * n for r, n in ct.t.items() if r >= 5)
    slope = log_chern_slope(ct)
    slope_ok = None if slope is None else slope <= Fraction(8, 3)
    return hypotheses_ok, lhs >= rhs, slope_ok


def check_c2_positive(ct: CombinatorialType) -> tuple[bool, bool]:
    """Positivity of log c2 under k, d >= 2 and vanishing of the two top
    multiplicity counts."""
    n = ct.k + ct.d
    hypotheses_ok = (ct.k >= 2 and ct.d >= 2
                     and ct.t_of(n) == 0 and ct.t_of(n - 1) == 0)
    _c1sq, c2 = log_chern(ct)
    return hypotheses_ok, c2 > 0


def tjurina_from_exponents(divisor_degree: int, d1: int, d2: int) -> int:
    """Total Tjurina number of a free curve from its exponents:
    (degree - 1)^2 - d1*d2."""
    if d1 < 0 or d2 < 0 or d1 > d2:
        raise ValueError("exponents must satisfy 0 <= d1 <= d2")
    return (divisor_degree - 1) ** 2 - d1 * d2


def poincare_from_exponents(d1: int, d2: int) -> tuple[int, int, int, int]:
    """Coefficients of (1 + t)(1 + d1 t)(1 + d2 t), constant term first."""
    return (1, 1 + d1 + d2, d1 + d2 + d1 * d2, d1 * d2)


def hurwitz_genus(m: int) -> int:
    """Genus of the curve over an exceptional divisor in the order-2 cover:
    2 - 2g = 2^(m-2) (4 - m), for a blown-up point of multiplicity m >= 3."""
    if m < 3:
        raise ValueError("only points of multiplicity >= 3 are blown up")
    # 2^(m-3) is an integer for m >= 3; g = 1 - 2^(m-3) (4 - m)
    return 1 - 2 ** (m - 3) * (4 - m)


def general_log_chern(degrees: list[int], f0: int, f1: int) -> tuple[int, int]:
    """Log-Chern numbers for an arrangement of smooth curves of arbitrary
    degrees with ordinary intersections:
    c1^2 = 9 + sum (di^2 - 6 di) + 3 f1 - 4 f0,
    c2   = 3 + sum (di^2 - 3 di) + f1 - f0.

    On degree lists of only 1s and 2s this specializes to log_chern.
    """
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be >= 1")
    c1sq = 9 + sum(d * d - 6 * d for d in degrees) + 3 * f1 - 4 * f0
    c2 = 3 + sum(d * d - 3 * d for d in degrees) + f1 - f0
    return c1sq, c2


# --------------------------------------------------------------------------
# Reports


@dataclass
class CheckResult:
    name: str
    hypotheses_satisfied: bool
    conclusion_holds: bool | None


def rational_with_decimal(v: Fraction | None) -> str:
    """A rational as "p/q (~x.xxxx)", or "undefined" for None."""
    if v is None:
        return "undefined"
    try:
        approx = f"{float(v):.4f}"
    except OverflowError:
        approx = "inf" if v > 0 else "-inf"
    return f"{v} (~{approx})"


@dataclass
class AnalysisReport:
    """The report on one combinatorial type, in text and as JSON.  Its inputs
    are the type, its source, the six-line sub-arrangement hypothesis and an
    arrangement's singular points (None for a bare type: no points section).
    Everything else is derived from them once, here: ``invariants`` under
    the names ``as_dict`` gives them, then ``warnings`` (non-ordinary points,
    the Bezout defect, a point on every curve) and the six ``checks``;
    "milnor" sums the points' mu (a bare type's is ``milnor_total``).  A
    failed self-check of ``h_index`` or ``cover_chern`` raises here."""

    ct: CombinatorialType
    source: str = "ad hoc"
    six_lines_subarrangement: bool = False
    points: list[SingularPoint] | None = None
    invariants: dict[str, int | Fraction | None] = field(init=False)
    warnings: list[str] = field(init=False)
    checks: list[CheckResult] = field(init=False)

    def __post_init__(self) -> None:
        ct, six = self.ct, self.six_lines_subarrangement
        f0, f1 = incidence_sums(ct)
        c1sq, c2 = log_chern(ct)
        e_scaled, k2_scaled, bmy = cover_chern(ct)
        self.invariants = {
            "bezout_defect": bezout_defect(ct), "f0": f0, "f1": f1,
            "h_index": h_index(ct) if f0 > 0 else None,
            "milnor": milnor_total(ct) if self.points is None
            else sum(p.mu for p in self.points), "c1sq": c1sq, "c2": c2,
            "slope": log_chern_slope(ct),
            "cover_e": e_scaled, "cover_k2": k2_scaled, "bmy_defect": bmy,
        }
        self.warnings = [f"non-ordinary singularity at {p.location}: outside the "
                         "ordinary-arrangement hypotheses"
                         for p in self.points or [] if not p.ordinary]
        if defect := self.invariants["bezout_defect"]:
            self.warnings.append(f"pairwise intersection count off by {defect}: "
                                 "not the combinatorics of an ordinary arrangement")
        if ct.t_of(ct.d + ct.k) != 0:
            self.warnings.append("t_{k+d} != 0: all curves share a point, outside the "
                                 "standing assumption of the slope formulas")
        urzua_hyp, urzua_holds, slope_ok = check_urzua(ct)
        self.checks = [
            CheckResult("hirzebruch", *check_hirzebruch(ct, False, six)),
            CheckResult("hirzebruch-improved", *check_hirzebruch(ct, True, six)),
            CheckResult("debruijn-erdos", *check_debruijn_erdos(ct)),
            CheckResult("urzua-inequality", urzua_hyp, urzua_holds),
            CheckResult("slope-at-most-8/3", urzua_hyp, slope_ok),
            CheckResult("c2-positive", *check_c2_positive(ct)),
        ]

    def as_dict(self) -> dict:
        data = {
            "source": self.source,
            "d": self.ct.d,
            "k": self.ct.k,
            "t": {str(r): n for r, n in sorted(self.ct.t.items())},
            **{name: str(v) if isinstance(v, Fraction) else v
               for name, v in self.invariants.items()},
            "checks": [asdict(c) for c in self.checks],
            "warnings": list(self.warnings),
        }
        if self.points is not None:
            data["points"] = [{"location": repr(p.location), "multiplicity": p.multiplicity,
                               "ordinary": p.ordinary} for p in self.points]
            data["all_ordinary"] = all(p.ordinary for p in self.points)
        return data

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def render_text(self) -> str:
        v = self.invariants
        lines = [f"!! {w}" for w in self.warnings]
        lines.append(f"source: {self.source}")
        tdesc = ", ".join(f"t_{r}={n}" for r, n in sorted(self.ct.t.items())) or "none"
        lines.append(f"type: d={self.ct.d} lines, k={self.ct.k} conics; {tdesc}")
        lines.append(f"bezout defect: {v['bezout_defect']}")
        lines.append(f"f0={v['f0']}  f1={v['f1']}")
        lines.append(f"H-index: {rational_with_decimal(v['h_index'])}")
        lines.append(f"total Milnor number: {v['milnor']}")
        lines.append(f"log Chern numbers: c1^2={v['c1sq']}  c2={v['c2']}")
        lines.append(f"log Chern slope: {rational_with_decimal(v['slope'])}")
        lines.append(f"cover (scaled): e={v['cover_e']}  "
                     f"K^2={v['cover_k2']}  BMY defect={v['bmy_defect']}")
        lines.append("checks:")
        for c in self.checks:
            holds = "n/a" if c.conclusion_holds is None else \
                ("holds" if c.conclusion_holds else "FAILS")
            hyp = "hypotheses ok" if c.hypotheses_satisfied else "hypotheses not met"
            lines.append(f"  {c.name}: {holds} ({hyp})")
        if self.points is not None:
            lines.append("singular points:")
            for p in self.points:
                flag = "" if p.ordinary else "  [non-ordinary]"
                lines.append(f"  {p.location!r}  r={p.multiplicity}{flag}")
        return "\n".join(lines) + "\n"
