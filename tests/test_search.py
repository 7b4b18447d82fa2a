import random
from fractions import Fraction as F
from itertools import product
from math import comb

import pytest

from coniclines.catalog import catalog_get, pencil4_type
from coniclines.curves import CombinatorialType
from coniclines.invariants import bezout_defect, log_chern_slope
from coniclines.search import (
    CONJECTURES,
    NOT_REALIZABLE_NOTE,
    enumerate_types,
    extremal_slopes,
    pair_total,
    random_balanced_type,
    scan_conjecture,
)


def test_pair_total():
    assert pair_total(2, 1) == 5
    assert pair_total(9, 12) == 4 * 66 + 36 + 216
    assert pair_total(0, 2) == 4
    assert pair_total(2, 0) == 1


def test_enumerate_small_case():
    types = list(enumerate_types(d=2, k=1, max_mult=3))
    assert types == [
        CombinatorialType(d=2, k=1, t={2: 5}),
        CombinatorialType(d=2, k=1, t={3: 1, 2: 2}),
    ]


def test_enumerate_matches_brute_force():
    d, k, max_mult = 3, 1, 4
    total = pair_total(d, k)
    expected = set()
    bound = total + 1
    for t4, t3 in product(range(bound), repeat=2):
        rest = total - comb(4, 2) * t4 - comb(3, 2) * t3
        if rest >= 0:
            items = {4: t4, 3: t3, 2: rest}
            expected.add(tuple(sorted((r, n) for r, n in items.items() if n)))
    got = {tuple(sorted(ct.t.items())) for ct in
           enumerate_types(d=d, k=k, max_mult=max_mult)}
    assert got == expected


def test_enumerate_every_type_is_balanced():
    for ct in enumerate_types(d=2, k=2, max_mult=4):
        assert bezout_defect(ct) == 0


def test_enumerate_argument_checks():
    with pytest.raises(ValueError):
        list(enumerate_types(d=-1, k=1, max_mult=2))
    with pytest.raises(ValueError):
        list(enumerate_types(d=1, k=1, max_mult=3))


def test_extremal_slopes_small_case():
    result = extremal_slopes(enumerate_types(d=2, k=1, max_mult=3))
    assert result.minimum.slope == F(0)
    assert result.maximum.slope == F(1, 2)
    assert result.maximum.ct == CombinatorialType(d=2, k=1, t={2: 5})
    assert result.considered == 2
    assert result.skipped_zero_c2 == 0
    assert result.note == NOT_REALIZABLE_NOTE


def test_extremal_slopes_counts_undefined():
    triangle = CombinatorialType(d=3, k=0, t={2: 3})  # c1^2 = c2 = 0
    square = CombinatorialType(d=2, k=1, t={2: 5})
    result = extremal_slopes([triangle, square])
    assert result.skipped_zero_c2 == 1 and result.considered == 1
    with pytest.raises(ValueError, match="every enumerated type had log c2 = 0"):
        extremal_slopes([triangle])
    # two lines have one double point, which max_mult = 1 leaves no room for
    with pytest.raises(ValueError, match="no type was enumerated"):
        extremal_slopes(enumerate_types(d=2, k=0, max_mult=1))


def test_scan_urzua_finds_no_violation_in_small_ranges():
    for d, k in ((2, 2), (3, 2), (2, 3)):
        assert scan_conjecture(enumerate_types(d, k, min(5, d + k)),
                               "urzua") == []


def test_scan_slope_8_3_clean_on_catalog():
    types = [catalog_get(n).ct for n in
             ("chilean", "extended-chilean", "klein", "dual-hesse")]
    assert scan_conjecture(types, "slope_8_3") == []


def test_scan_slope_5_2_flags_klein():
    klein = catalog_get("klein").ct
    violations = scan_conjecture([klein], "slope_5_2")
    assert len(violations) == 1
    assert violations[0].ct == klein
    assert "2.5116" in violations[0].detail
    assert violations[0].note == NOT_REALIZABLE_NOTE
    # exact witness: 2592/1032 > 5/2 because 2 * 2592 > 5 * 1032
    assert 2 * 2592 > 5 * 1032
    assert log_chern_slope(klein) == F(108, 43)


def test_scan_rejects_unknown_conjecture():
    assert CONJECTURES == ("urzua", "slope_8_3", "slope_5_2")
    with pytest.raises(ValueError):
        scan_conjecture([], "fermat")


def test_pencil_family_is_the_max_slope_for_its_budget():
    # within its own (d, k) class the pencil type maximizes nothing in
    # general, but its slope follows 2 - 3/(2k) exactly
    for k in (1, 2, 10, 100):
        assert log_chern_slope(pencil4_type(k)) == 2 - F(3, 2 * k)


def test_random_balanced_type_properties():
    rng = random.Random(12345)
    for _ in range(200):
        ct = random_balanced_type(rng)
        assert bezout_defect(ct) == 0
        assert ct.d + ct.k >= 2
        assert all(2 <= r <= ct.d + ct.k for r in ct.t)
