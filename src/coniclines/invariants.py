"""Closed-form invariants and inequality checks for conic-line combinatorics.

Everything here is a pure function of a CombinatorialType (d lines, k conics,
t_r counts of r-fold ordinary points), plus a few standalone numeric helpers
for freeness and cover computations.  All arithmetic is exact: integers and
Fractions throughout, with decimal renderings only at the reporting surface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .curves import CombinatorialType
from .polynomials import format_rational


def bezout_defect(ct: CombinatorialType) -> int:
    """LHS minus RHS of the pairwise intersection count
    4*C(k,2) + C(d,2) + 2kd = sum_r C(r,2) t_r; zero iff the identity holds."""
    lhs = 4 * comb(ct.k, 2) + comb(ct.d, 2) + 2 * ct.k * ct.d
    rhs = sum(comb(r, 2) * n for r, n in ct.t.items())
    return lhs - rhs


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


def log_chern_slope(ct: CombinatorialType) -> Fraction:
    """The slope c1^2 / c2 of the log pair, as an exact rational."""
    c1sq, c2 = log_chern(ct)
    if c2 == 0:
        raise ValueError("slope undefined: log c2 = 0")
    return Fraction(c1sq, c2)


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
                     six_lines_subarrangement: bool = False,
                     rhs_uses_d: bool = True) -> tuple[bool, bool]:
    """Hirzebruch-type inequality: (hypotheses_ok, conclusion_holds).

    Standard form: 8k + t2 + 3 t3 + t4 >= d + sum_{r>=5} (2r-9) t_r.
    Improved form drops t4 and weakens t3 to (3/4) t3.  The published
    theorem display shows 'k +' on the right; the derivation and the
    improved variant both use 'd +', so d is the default and the k-form is
    available via rhs_uses_d=False.

    The six-line sub-arrangement hypothesis is not a function of (d, k, t)
    and must be supplied by the caller.
    """
    t2, t3, t4 = ct.t_of(2), ct.t_of(3), ct.t_of(4)
    rhs_base = ct.d if rhs_uses_d else ct.k
    rhs = rhs_base + sum((2 * r - 9) * n for r, n in ct.t.items() if r >= 5)
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
    _c1sq, c2 = log_chern(ct)
    slope_ok: bool | None = None
    if c2 != 0:
        slope_ok = log_chern_slope(ct) <= Fraction(8, 3)
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

    def as_dict(self) -> dict:
        return {"name": self.name,
                "hypotheses_satisfied": self.hypotheses_satisfied,
                "conclusion_holds": self.conclusion_holds}


@dataclass
class AnalysisReport:
    """All computed invariants and inequality verdicts for one input."""

    source: str
    ct: CombinatorialType
    bezout_defect: int
    f0: int
    f1: int
    h_index: Fraction | None
    milnor_total: int
    log_c1sq: int
    log_c2: int
    slope: Fraction | None
    cover_e_scaled: int
    cover_k2_scaled: int
    bmy_defect: int
    checks: list[CheckResult] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        def rat(v):
            return None if v is None else format_rational(v)
        return {
            "source": self.source,
            "d": self.ct.d,
            "k": self.ct.k,
            "t": {str(r): n for r, n in sorted(self.ct.t.items())},
            "bezout_defect": self.bezout_defect,
            "f0": self.f0,
            "f1": self.f1,
            "h_index": rat(self.h_index),
            "milnor": self.milnor_total,
            "c1sq": self.log_c1sq,
            "c2": self.log_c2,
            "slope": rat(self.slope),
            "cover_e": self.cover_e_scaled,
            "cover_k2": self.cover_k2_scaled,
            "bmy_defect": self.bmy_defect,
            "checks": [c.as_dict() for c in self.checks],
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def render_text(self) -> str:
        def rat(v):
            if v is None:
                return "undefined"
            try:
                approx = f"{float(v):.4f}"
            except OverflowError:
                approx = "inf" if v > 0 else "-inf"
            return f"{format_rational(v)} (~{approx})"
        lines = []
        for w in self.warnings:
            lines.append(f"!! {w}")
        lines.append(f"source: {self.source}")
        tdesc = ", ".join(f"t_{r}={n}" for r, n in sorted(self.ct.t.items())) or "none"
        lines.append(f"type: d={self.ct.d} lines, k={self.ct.k} conics; {tdesc}")
        lines.append(f"bezout defect: {self.bezout_defect}")
        lines.append(f"f0={self.f0}  f1={self.f1}")
        lines.append(f"H-index: {rat(self.h_index)}")
        lines.append(f"total Milnor number: {self.milnor_total}")
        lines.append(f"log Chern numbers: c1^2={self.log_c1sq}  c2={self.log_c2}")
        lines.append(f"log Chern slope: {rat(self.slope)}")
        lines.append(f"cover (scaled): e={self.cover_e_scaled}  "
                     f"K^2={self.cover_k2_scaled}  BMY defect={self.bmy_defect}")
        lines.append("checks:")
        for c in self.checks:
            holds = "n/a" if c.conclusion_holds is None else \
                ("holds" if c.conclusion_holds else "FAILS")
            hyp = "hypotheses ok" if c.hypotheses_satisfied else "hypotheses not met"
            lines.append(f"  {c.name}: {holds} ({hyp})")
        return "\n".join(lines) + "\n"


def analyze(ct: CombinatorialType, source: str = "ad hoc",
            six_lines_subarrangement: bool = False,
            warnings: list[str] | None = None) -> AnalysisReport:
    """Compute every invariant and every check for one combinatorial type."""
    f0, f1 = incidence_sums(ct)
    defect = bezout_defect(ct)
    warns = list(warnings or [])
    if defect != 0:
        warns.append(f"pairwise intersection count off by {defect}: "
                     "not the combinatorics of an ordinary arrangement")
    if ct.t_of(ct.d + ct.k) != 0:
        warns.append("t_{k+d} != 0: all curves share a point, outside the "
                     "standing assumption of the slope formulas")
    hx = h_index(ct) if f0 > 0 else None
    c1sq, c2 = log_chern(ct)
    slope = Fraction(c1sq, c2) if c2 != 0 else None
    e_s, k2_s, bmy = cover_chern(ct)
    checks = []
    hyp, holds = check_hirzebruch(ct, improved=False,
                                  six_lines_subarrangement=six_lines_subarrangement)
    checks.append(CheckResult("hirzebruch", hyp, holds))
    hyp, holds = check_hirzebruch(ct, improved=True,
                                  six_lines_subarrangement=six_lines_subarrangement)
    checks.append(CheckResult("hirzebruch-improved", hyp, holds))
    hyp, holds = check_debruijn_erdos(ct)
    checks.append(CheckResult("debruijn-erdos", hyp, holds))
    hyp, holds, slope_ok = check_urzua(ct)
    checks.append(CheckResult("urzua-inequality", hyp, holds))
    checks.append(CheckResult("slope-at-most-8/3", hyp, slope_ok))
    hyp, holds = check_c2_positive(ct)
    checks.append(CheckResult("c2-positive", hyp, holds))
    return AnalysisReport(
        source=source, ct=ct, bezout_defect=defect, f0=f0, f1=f1,
        h_index=hx, milnor_total=milnor_total(ct),
        log_c1sq=c1sq, log_c2=c2, slope=slope,
        cover_e_scaled=e_s, cover_k2_scaled=k2_s, bmy_defect=bmy,
        checks=checks, warnings=warns)
