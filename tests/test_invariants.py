import json
from fractions import Fraction as F

import pytest

from coniclines.catalog import catalog_get, pencil4_type
from coniclines.curves import CombinatorialType, ProjectivePoint, SingularPoint
from coniclines.invariants import (
    AnalysisReport,
    bezout_defect,
    check_c2_positive,
    check_debruijn_erdos,
    check_hirzebruch,
    check_urzua,
    cover_chern,
    general_log_chern,
    h_index,
    hurwitz_genus,
    incidence_sums,
    log_chern,
    log_chern_slope,
    milnor_total,
    poincare_from_exponents,
    rational_with_decimal,
    tjurina_from_exponents,
)

CHILEAN = catalog_get("chilean").ct
EXTENDED = catalog_get("extended-chilean").ct
KLEIN = catalog_get("klein").ct
DUAL_HESSE = catalog_get("dual-hesse").ct
PAPPUS = catalog_get("pappus-cl").ct


def test_bezout_defect_of_named_types():
    assert bezout_defect(CHILEAN) == 0
    assert bezout_defect(EXTENDED) == 0
    assert bezout_defect(KLEIN) == 0
    assert bezout_defect(DUAL_HESSE) == 0
    assert bezout_defect(PAPPUS) == 2


def test_incidence_sums():
    assert incidence_sums(EXTENDED) == (93, 285)
    assert incidence_sums(KLEIN) == (483, 1596)
    assert incidence_sums(CHILEAN) == (21, 96)


def test_h_index_values():
    assert h_index(EXTENDED) == F(-76, 31)
    assert h_index(DUAL_HESSE) == F(-9, 4)
    assert h_index(CHILEAN) == F(-16, 7)
    assert h_index(KLEIN) == F(-71, 23)


def test_h_index_undefined_without_singular_points():
    smooth = CombinatorialType(d=0, k=2, t={2: 4})
    assert h_index(smooth) == F((2 * 2) ** 2 - 16, 4)
    with pytest.raises(ValueError, match="H-index undefined"):
        h_index(CombinatorialType(d=0, k=0, t={}))


def test_milnor_total():
    assert milnor_total(CHILEAN) == 453
    assert milnor_total(DUAL_HESSE) == 48


def test_log_chern_values():
    assert log_chern(EXTENDED) == (351, 153)
    assert log_chern(KLEIN) == (2592, 1032)
    assert log_chern(PAPPUS) == (98, 47)


def test_log_chern_slopes():
    assert log_chern_slope(EXTENDED) == F(39, 17)
    assert log_chern_slope(KLEIN) == F(108, 43)
    assert log_chern_slope(PAPPUS) == F(98, 47)
    assert log_chern_slope(pencil4_type(1)) == F(1, 2)
    # two lines: c2 = 3 - 4 + 1 = 0, no slope
    assert log_chern_slope(CombinatorialType(d=2, k=0, t={2: 1})) is None


def test_pencil_family_slope_formula():
    for k in range(1, 30):
        assert log_chern_slope(pencil4_type(k)) == 2 - F(3, 2 * k)


def test_slope_undefined_when_c2_vanishes():
    # a pencil of two conics alone: d=0, k=2, t2=4 gives c2 = 3 - 4 + 4 = 3
    pencil_two = CombinatorialType(d=0, k=2, t={2: 4})
    assert log_chern(pencil_two)[1] == 3
    near = CombinatorialType(d=3, k=0, t={3: 1})
    assert log_chern(near)[1] == -1
    triangle = CombinatorialType(d=3, k=0, t={2: 3})
    assert log_chern(triangle) == (0, 0)
    assert log_chern_slope(triangle) is None


def test_cover_chern_values():
    assert cover_chern(EXTENDED) == (141, 357, -66)
    assert cover_chern(KLEIN) == (1398, 3060, -1134)


def test_cover_identity_on_odd_inputs():
    for ct in (CHILEAN, DUAL_HESSE, PAPPUS, pencil4_type(4)):
        e, k2, defect = cover_chern(ct)
        assert k2 - 3 * e == defect


def test_hirzebruch_check():
    hyp, holds = check_hirzebruch(KLEIN, six_lines_subarrangement=True)
    assert hyp and holds
    # 8*21 + 42 + 3*252 + 189 = 1155 >= 21
    hyp, holds = check_hirzebruch(KLEIN, improved=True,
                                  six_lines_subarrangement=True)
    assert hyp and holds
    hyp, _holds = check_hirzebruch(KLEIN, six_lines_subarrangement=False)
    assert not hyp


def test_hirzebruch_matches_bmy_sign_on_balanced_types():
    # for defect-0 combinatorics the standard inequality is equivalent to a
    # non-positive BMY defect of the cover
    for ct in (CHILEAN, EXTENDED, KLEIN, DUAL_HESSE, pencil4_type(2),
               pencil4_type(5)):
        if bezout_defect(ct) != 0:
            continue
        _e, _k2, bmy = cover_chern(ct)
        _hyp, holds = check_hirzebruch(ct, six_lines_subarrangement=True)
        assert holds == (bmy <= 0)


def test_debruijn_erdos():
    hyp, holds = check_debruijn_erdos(EXTENDED)
    assert hyp and holds        # 93 >= 21
    dbe = catalog_get("dbe-sharpness").ct
    hyp, holds = check_debruijn_erdos(dbe)
    assert not hyp              # t_6 = 4 with k + d = 9 does not block, but
    # t_{k+d-3} = t_6 != 0 breaks the hypothesis; and indeed f0 = 7 < 9
    assert not holds


def test_urzua():
    hyp, holds, slope_ok = check_urzua(EXTENDED)
    assert hyp and holds and slope_ok
    hyp, holds, slope_ok = check_urzua(KLEIN)
    assert hyp and holds
    assert slope_ok            # 108/43 < 8/3
    assert log_chern_slope(KLEIN) > F(5, 2)
    triangle = CombinatorialType(d=3, k=0, t={2: 3})
    _hyp, _holds, slope_ok = check_urzua(triangle)
    assert slope_ok is None


def test_c2_positive():
    hyp, holds = check_c2_positive(EXTENDED)
    assert hyp and holds
    hyp, _holds = check_c2_positive(CombinatorialType(d=2, k=2, t={4: 1}))
    assert not hyp


def test_tjurina_from_exponents():
    assert tjurina_from_exponents(24, 7, 16) == 417
    assert tjurina_from_exponents(24, 7, 16) < milnor_total(CHILEAN)
    with pytest.raises(ValueError):
        tjurina_from_exponents(10, 5, 3)


def test_poincare_from_exponents():
    assert poincare_from_exponents(4, 4) == (1, 9, 24, 16)
    assert poincare_from_exponents(7, 16) == (1, 24, 135, 112)


def test_hurwitz_genus():
    assert hurwitz_genus(3) == 0
    assert hurwitz_genus(4) == 1
    assert hurwitz_genus(8) == 129
    with pytest.raises(ValueError):
        hurwitz_genus(2)


def test_general_log_chern_specializes():
    for ct in (CHILEAN, EXTENDED, KLEIN, DUAL_HESSE):
        degrees = [1] * ct.d + [2] * ct.k
        f0, f1 = incidence_sums(ct)
        assert general_log_chern(degrees, f0, f1) == log_chern(ct)
    with pytest.raises(ValueError):
        general_log_chern([0, 2], 1, 2)


def test_general_log_chern_mixed_degrees():
    # a smooth cubic and a line meeting transversally in three points
    c1sq, c2 = general_log_chern([3, 1], 3, 6)
    assert c1sq == 9 + (9 - 18) + (1 - 6) + 18 - 12
    assert c2 == 3 + (9 - 9) + (1 - 3) + 6 - 3


def test_analyze_report_fields():
    report = AnalysisReport(EXTENDED, source="extended-chilean",
                            six_lines_subarrangement=True)
    data = json.loads(report.to_json())
    assert data["d"] == 9 and data["k"] == 12
    assert data["h_index"] == "-76/31"
    assert data["slope"] == "39/17"
    assert data["cover_e"] == 141 and data["cover_k2"] == 357
    assert data["bmy_defect"] == -66
    assert data["warnings"] == []
    names = {c["name"] for c in data["checks"]}
    assert names == {"hirzebruch", "hirzebruch-improved", "debruijn-erdos",
                     "urzua-inequality", "slope-at-most-8/3", "c2-positive"}
    assert all(c["conclusion_holds"] for c in data["checks"])
    text = report.render_text()
    assert "H-index: -76/31 (~-2.4516)" in text
    assert "slope: 39/17 (~2.2941)" in text


def test_rational_with_decimal_past_the_float_range():
    assert rational_with_decimal(F(10 ** 400)) == f"{10 ** 400} (~inf)"
    assert rational_with_decimal(F(-10 ** 400)) == f"{-10 ** 400} (~-inf)"


def test_analyze_warns_on_defect():
    report = AnalysisReport(PAPPUS, source="pappus-cl")
    assert any("off by 2" in w for w in report.warnings)


def test_analyze_warns_on_shared_point():
    shared = CombinatorialType(d=3, k=0, t={3: 1})
    report = AnalysisReport(shared)
    assert any("share a point" in w for w in report.warnings)


def test_analyze_warns_on_non_ordinary_points_first():
    # the tangency of a line and a conic at (0 : 1 : 1)
    tangency = SingularPoint(ProjectivePoint.from_integers(0, 1, 1), frozenset({0, 1}), delta=2)
    report = AnalysisReport(CombinatorialType(d=1, k=1, t={2: 1}), points=[tangency])
    assert report.warnings[0] == ("non-ordinary singularity at (0 : 1 : 1): "
                                  "outside the ordinary-arrangement hypotheses")
    assert [w.split(":")[0] for w in report.warnings[1:]] == [
        "pairwise intersection count off by 1", "t_{k+d} != 0"]
    assert report.as_dict()["all_ordinary"] is False
    assert report.render_text().endswith("  (0 : 1 : 1)  r=2  [non-ordinary]\n")


def test_only_an_arrangement_report_has_a_points_section():
    # a bare type has no points; an arrangement of one line has none to list
    one_line = CombinatorialType(d=1, k=0, t={})
    bare = AnalysisReport(one_line)
    assert not {"points", "all_ordinary"} & bare.as_dict().keys()
    assert "singular points:" not in bare.render_text()
    point_free = AnalysisReport(one_line, points=[])
    data = json.loads(point_free.to_json())
    assert data["points"] == [] and data["all_ordinary"] is True
    assert point_free.render_text().endswith("\nsingular points:\n")


def test_source_has_no_assert_statements():
    # correctness checks must run under python -O, so they are raised
    import ast
    from pathlib import Path

    import coniclines

    for path in Path(coniclines.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not asserts, f"{path.name}: assert at lines {asserts}"
