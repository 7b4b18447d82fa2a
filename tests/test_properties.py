import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from coniclines.catalog import catalog_get, catalog_list
from coniclines.curves import (
    CombinatorialType,
    parse_combinatorial_type,
    serialize_combinatorial_type,
)
from coniclines.invariants import (
    AnalysisReport,
    bezout_defect,
    check_hirzebruch,
    cover_chern,
    general_log_chern,
    h_index,
    incidence_sums,
    log_chern,
    log_chern_slope,
    milnor_total,
)
from coniclines.search import enumerate_types, pair_total
from oracles import random_balanced_type

balanced_types = st.integers(min_value=0).map(
    lambda seed: random_balanced_type(random.Random(seed)))


@given(balanced_types)
@settings(max_examples=200)
def test_balanced_types_are_balanced(ct):
    assert bezout_defect(ct) == 0


@given(balanced_types)
@settings(max_examples=200)
def test_h_index_forms_agree(ct):
    f0, f1 = incidence_sums(ct)
    if f0 == 0:
        return
    # h_index asserts internally that both closed forms agree at defect 0
    assert h_index(ct) == F(4 * ct.k + ct.d - f1, f0)


@given(balanced_types)
@settings(max_examples=200)
def test_cover_identity(ct):
    e, k2, defect = cover_chern(ct)
    assert k2 - 3 * e == defect


@given(balanced_types)
@settings(max_examples=200)
def test_hirzebruch_iff_bmy_nonpositive(ct):
    _e, _k2, bmy = cover_chern(ct)
    _hyp, holds = check_hirzebruch(ct, six_lines_subarrangement=True)
    assert holds == (bmy <= 0)


@given(balanced_types)
@settings(max_examples=200)
def test_h_index_bounded_when_bmy_nonpositive(ct):
    f0, _f1 = incidence_sums(ct)
    _e, _k2, bmy = cover_chern(ct)
    if f0 > 0 and bmy <= 0:
        assert h_index(ct) >= F(-9, 2)


@given(balanced_types)
@settings(max_examples=200)
def test_general_log_chern_specializes(ct):
    degrees = [1] * ct.d + [2] * ct.k
    f0, f1 = incidence_sums(ct)
    assert general_log_chern(degrees, f0, f1) == log_chern(ct)


@given(balanced_types)
@settings(max_examples=200)
def test_milnor_nonnegative_and_zero_iff_no_points(ct):
    mu = milnor_total(ct)
    assert mu >= 0
    assert (mu == 0) == (not ct.t)


@given(balanced_types)
@settings(max_examples=100)
def test_type_serialization_round_trip(ct):
    assert parse_combinatorial_type(serialize_combinatorial_type(ct)) == ct


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_enumeration_is_exhaustive_and_balanced(d, k):
    if d + k < 2:
        return
    total = pair_total(d, k)
    seen = set()
    for ct in enumerate_types(d, k, min(d + k, 5)):
        assert bezout_defect(ct) == 0
        key = tuple(sorted(ct.t.items()))
        assert key not in seen
        seen.add(key)
        assert sum(r * (r - 1) // 2 * n for r, n in ct.t.items()) == total


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=120))
@settings(max_examples=100)
def test_general_log_chern_difference(degrees, f0, f1):
    # c1^2 - 2 c2 = 3 + f1 - 2 f0 - sum d_i^2: the degree terms cancel
    # except for the squares
    c1sq, c2 = general_log_chern(degrees, f0, f1)
    assert c1sq - 2 * c2 == 3 + f1 - 2 * f0 - sum(d * d for d in degrees)


def _assert_report_is_the_standalone_functions(ct):
    data = AnalysisReport(ct).as_dict()
    f0, f1 = incidence_sums(ct)
    c1sq, c2 = log_chern(ct)
    slope = log_chern_slope(ct)
    cover_e, cover_k2, bmy = cover_chern(ct)
    assert data["bezout_defect"] == bezout_defect(ct)
    assert (data["f0"], data["f1"]) == (f0, f1)
    assert data["h_index"] == (str(h_index(ct)) if f0 else None)
    assert data["milnor"] == milnor_total(ct)
    assert (data["c1sq"], data["c2"]) == (c1sq, c2)
    assert data["slope"] == (None if slope is None else str(slope))
    assert (data["cover_e"], data["cover_k2"], data["bmy_defect"]) == (cover_e, cover_k2, bmy)


@given(balanced_types)
@settings(max_examples=200)
def test_report_values_are_the_standalone_functions(ct):
    _assert_report_is_the_standalone_functions(ct)


@pytest.mark.parametrize("name", catalog_list())
def test_catalog_report_values_are_the_standalone_functions(name):
    _assert_report_is_the_standalone_functions(catalog_get(name).ct)
