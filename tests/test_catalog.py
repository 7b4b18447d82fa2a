import pytest

from coniclines.catalog import (
    build_pencil4,
    catalog_build,
    catalog_get,
    catalog_list,
    pencil4_type,
)
from coniclines.curves import ValidationError, validate_arrangement
from coniclines.intersect import combinatorial_type
from coniclines.invariants import bezout_defect


def test_catalog_names_are_sorted_and_unique():
    names = catalog_list()
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for expected in ("chilean", "extended-chilean", "klein", "dual-hesse",
                     "hesse-lines", "conic-65", "pappus-cl", "pencil4",
                     "dbe-sharpness", "tangency-demo"):
        assert expected in names


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        catalog_get("no-such-entry")


def test_combinatorial_entry_has_no_equations():
    with pytest.raises(ValidationError, match="klein is combinatorial-only"):
        catalog_build("klein")


def test_defects_of_catalog_types():
    # the pairwise count assumes transversal intersections, so the one
    # tangential entry is exempt alongside the flagged-inconsistent one
    for name in catalog_list():
        entry = catalog_get(name)
        defect = bezout_defect(entry.ct)
        if "known-inconsistent" in entry.flags:
            assert defect != 0
        elif "non-ordinary" in entry.flags:
            assert defect == 1, name
        else:
            assert defect == 0, name


def test_pappus_is_the_only_inconsistent_entry():
    inconsistent = [n for n in catalog_list()
                    if "known-inconsistent" in catalog_get(n).flags]
    assert inconsistent == ["pappus-cl"]
    assert bezout_defect(catalog_get("pappus-cl").ct) == 2


def test_tangency_demo_is_flagged_non_ordinary():
    entry = catalog_get("tangency-demo")
    assert "non-ordinary" in entry.flags
    derived = combinatorial_type(entry.build())
    assert not derived.all_ordinary


def test_geometric_entries_rederive_their_stored_type():
    for name in catalog_list():
        entry = catalog_get(name)
        if entry.builder is None:
            continue
        arr = entry.build()
        validate_arrangement(arr)
        derived = combinatorial_type(arr)
        assert derived.ct == entry.ct, name
        assert derived.all_ordinary == ("non-ordinary" not in entry.flags)


def test_pencil4_parameters():
    arr = catalog_build("pencil4", k=2, t=(1, 5))
    derived = combinatorial_type(arr)
    assert derived.ct == pencil4_type(2)
    single = combinatorial_type(build_pencil4(k=1, t=(2,)))
    assert single.ct == pencil4_type(1)
    assert single.ct.t == {2: 5}


def test_pencil4_rejects_degenerate_parameters():
    with pytest.raises(ValidationError):
        build_pencil4(k=2, t=(1, 1))
    with pytest.raises(ValidationError):
        build_pencil4(k=2, t=(1,))
    with pytest.raises(ValidationError):
        build_pencil4(k=1, t=(0,))     # x^2 - z^2 is a line pair
    with pytest.raises(ValidationError):
        build_pencil4(k=1, t=(-1,))    # x^2 - y^2 is a line pair
    for kwargs, k in (({"k": 0}, 0), ({"k": -2}, -2), ({"t": []}, 0)):
        with pytest.raises(ValidationError, match=f"^need at least one pencil conic, got k = {k}$"):
            build_pencil4(**kwargs)


def test_every_entry_has_provenance():
    for name in catalog_list():
        entry = catalog_get(name)
        assert entry.provenance.strip()
        assert entry.kind in ("combinatorial", "geometric")
        assert (entry.builder is not None) == (entry.kind == "geometric")
