import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import coniclines.cli as cli
import coniclines.intersect as intersect
from coniclines.algebraic import root_orbits
from coniclines.cli import EXIT_PARSE, EXIT_VALIDATION, main
from coniclines.intersect import IntersectionError

SRC = Path(__file__).resolve().parents[1] / "src"

HEXAGON_AND_TWO_CONICS = """\
line: 1 0 -1
line: 1 0 1
line: 0 1 -1
line: 0 1 1
line: 1 1 -2
line: 1 -1 2
conic: 1 1 -16 0 0 0
conic: 2 1 -20 0 0 0
"""


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def test_catalog_list():
    result = run("catalog", "list")
    assert result.exit_code == 0
    names = result.output.split()
    assert "klein" in names and "extended-chilean" in names
    assert names == sorted(names)


def test_catalog_show():
    result = run("catalog", "show", "extended-chilean")
    assert result.exit_code == 0
    assert "H-index: -76/31" in result.output
    assert "39/17 (~2.2941)" in result.output
    assert "e=141" in result.output and "K^2=357" in result.output
    assert "BMY defect=-66" in result.output


def test_catalog_show_unknown():
    result = run("catalog", "show", "nope")
    assert result.exit_code != 0
    assert "unknown catalog entry" in result.output


def test_catalog_show_unknown_exits_with_parse_error():
    _assert_clean_exit(run("catalog", "show", "nope"), EXIT_PARSE)


def test_catalog_export_unknown_exits_with_parse_error(tmp_path):
    target = tmp_path / "out.txt"
    _assert_clean_exit(run("catalog", "export", "nope", str(target)), EXIT_PARSE)
    assert not target.exists()


def test_catalog_export_to_a_missing_directory(tmp_path):
    target = tmp_path / "missing" / "out.txt"
    _assert_clean_exit(run("catalog", "export", "pencil4", str(target)), EXIT_PARSE)


def test_export_combinatorial_entry_rejects_parameters(tmp_path):
    target = tmp_path / "klein.txt"
    result = run("catalog", "export", "klein", str(target), "--k", "3")
    _assert_clean_exit(result, EXIT_PARSE)
    assert "takes no --k" in result.output
    assert not target.exists()


def test_export_entry_without_parameters_rejects_them(tmp_path):
    target = tmp_path / "dbe.txt"
    result = run("catalog", "export", "dbe-sharpness", str(target), "--k", "3")
    _assert_clean_exit(result, EXIT_PARSE)
    assert "takes no --k" in result.output and "TypeError" not in result.output
    assert not target.exists()


def test_export_and_analyze_round_trip(tmp_path):
    target = tmp_path / "pencil.txt"
    result = run("catalog", "export", "pencil4", str(target))
    assert result.exit_code == 0
    assert target.exists()

    result = run("analyze", str(target), "--json")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["d"] == 2 and data["k"] == 3
    assert data["t"] == {"2": 1, "4": 4}
    assert data["slope"] == "3/2"
    assert data["all_ordinary"] is True
    assert data["bezout_defect"] == 0
    for key in ("source", "f0", "f1", "h_index", "milnor", "c1sq", "c2",
                "cover_e", "cover_k2", "bmy_defect", "checks", "warnings",
                "points"):
        assert key in data


def test_export_combinatorial_entry(tmp_path):
    target = tmp_path / "klein.txt"
    assert run("catalog", "export", "klein", str(target)).exit_code == 0
    result = run("analyze", str(target), "--json", "--assume-six-lines")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["slope"] == "108/43"
    assert data["cover_k2"] == 3060
    hirzebruch = next(c for c in data["checks"] if c["name"] == "hirzebruch")
    assert hirzebruch["hypotheses_satisfied"] and hirzebruch["conclusion_holds"]


def test_export_with_parameters(tmp_path):
    target = tmp_path / "p2.txt"
    result = run("catalog", "export", "pencil4", str(target),
                 "--k", "2", "--t", "1,7/2")
    assert result.exit_code == 0
    data = json.loads(run("analyze", str(target), "--json").output)
    assert data["k"] == 2 and data["t"] == {"2": 1, "3": 4}


def test_export_writes_coprime_integers(tmp_path):
    target = tmp_path / "p2.txt"
    result = run("catalog", "export", "pencil4", str(target),
                 "--k", "2", "--t", "1,7/2")
    assert result.exit_code == 0
    assert target.read_text() == ("line: 1 0 -1\nline: 1 0 1\n"
                                  "conic: 1 1 -2 0 0 0\nconic: 2 7 -9 0 0 0\n")
    rational = tmp_path / "rational.txt"
    rational.write_text("line: 1 0 -1\nline: 1 0 1\n"
                        "conic: 1 1 -2 0 0 0\nconic: 1 7/2 -9/2 0 0 0\n")
    reports = []
    for path in (target, rational):
        result = run("analyze", str(path), "--json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data.pop("source") == str(path)
        reports.append(data)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("args, k, text", [
    (["--k", "5"], 5, None),
    (["--t", "1,2"], 2, "line: 1 0 -1\nline: 1 0 1\nconic: 1 1 -2 0 0 0\nconic: 1 2 -3 0 0 0\n"),
    (["--k", "3", "--t", "1,2"], None, None),
], ids=["k-alone", "t-alone", "k-and-t-disagree"])
def test_export_pencil4_with_one_of_k_and_t(tmp_path, args, k, text):
    # --k alone takes t = 1..k, --t alone takes k = len(t)
    target = tmp_path / "pencil.txt"
    result = run("catalog", "export", "pencil4", str(target), *args)
    if k is None:
        _assert_clean_exit(result, EXIT_VALIDATION)
        assert "need exactly k distinct pencil parameters" in result.output
        assert not target.exists()
        return
    assert result.exit_code == 0, result.output
    if text is not None:
        assert target.read_text() == text
    data = json.loads(run("analyze", str(target), "--json").output)
    assert data["k"] == k and data["t"] == {"2": 1, str(k + 1): 4}


def test_export_degenerate_parameters(tmp_path):
    target = tmp_path / "bad.txt"
    result = run("catalog", "export", "pencil4", str(target),
                 "--k", "2", "--t", "1,1")
    assert result.exit_code == EXIT_VALIDATION


def test_analyze_parse_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("line: 1 0\n")
    result = run("analyze", str(bad))
    assert result.exit_code == EXIT_PARSE


def test_analyze_validation_error(tmp_path):
    bad = tmp_path / "dup.txt"
    bad.write_text("line: 1 0 -1\nline: 2 0 -2\n")
    result = run("analyze", str(bad))
    assert result.exit_code == EXIT_VALIDATION


def test_analyze_reducible_conic(tmp_path):
    bad = tmp_path / "red.txt"
    bad.write_text("line: 0 1 0\nconic: 1 0 -1 0 0 0\n")
    result = run("analyze", str(bad))
    assert result.exit_code == EXIT_VALIDATION


def test_analyze_names_the_reducible_conic(tmp_path):
    bad = tmp_path / "red.txt"
    bad.write_text("line: 0 1 0\nconic: 1 0 -1 0 0 0\n")
    result = run("analyze", str(bad))
    _assert_clean_exit(result, EXIT_VALIDATION)
    assert result.output.strip() == ("validation failed: curve 1 (conic2): "
                                     "conic is a line pair or double line")


def test_strict_mode_rejects_tangency(tmp_path):
    target = tmp_path / "tan.txt"
    assert run("catalog", "export", "tangency-demo", str(target)).exit_code == 0
    relaxed = run("analyze", str(target))
    assert relaxed.exit_code == 0
    assert "non-ordinary" in relaxed.output
    strict = run("analyze", str(target), "--strict")
    assert strict.exit_code == EXIT_VALIDATION


def test_search_enumeration():
    result = run("search", "--d", "2", "--k", "1", "--max-mult", "3")
    assert result.exit_code == 0
    assert "2 type(s)" in result.output
    assert "t_2=5" in result.output


def test_search_extremal():
    result = run("search", "--d", "2", "--k", "1", "--max-mult", "3",
                 "--extremal")
    assert result.exit_code == 0
    assert "min slope 0" in result.output
    assert "max slope 1/2" in result.output
    assert "not necessarily realizable" in result.output


def test_search_extremal_of_an_empty_enumeration():
    # two lines meet in a double point, so max_mult 1 enumerates no type
    result = run("search", "--d", "2", "--k", "0", "--max-mult", "1", "--extremal")
    _assert_clean_exit(result, EXIT_PARSE)
    assert result.output.strip() == "Error: no type was enumerated"


def test_search_requires_dimensions():
    assert run("search", "--extremal").exit_code != 0


def test_search_extremal_without_dimensions_exits_with_parse_error():
    _assert_clean_exit(run("search", "--extremal"), EXIT_PARSE)


@pytest.mark.parametrize("args", [["--d", "-1", "--k", "1"],
                                  ["--d", "1", "--k", "0", "--max-mult", "5"]],
                         ids=["negative-d", "max-mult-too-large"])
def test_search_bad_dimensions_exit_with_parse_error(args):
    _assert_clean_exit(run("search", *args), EXIT_PARSE)


def test_search_catalog_slope_scan():
    result = run("search", "--catalog", "--conjecture", "slope_5_2")
    assert result.exit_code == 0
    assert "klein" in result.output
    assert "2.5116" in result.output
    assert "ground field" in result.output
    real = run("search", "--catalog", "--conjecture", "slope_5_2",
               "--field", "r")
    assert "real projective plane" in real.output


def test_search_catalog_urzua_scan():
    result = run("search", "--catalog", "--conjecture", "urzua")
    assert result.exit_code == 0
    assert "0 violation(s)" in result.output


def test_check_catalog_target():
    result = run("check", "debruijn-erdos", "extended-chilean")
    assert result.exit_code == 0
    assert "holds" in result.output and "satisfied" in result.output
    result = run("check", "hirzebruch", "klein", "--assume-six-lines")
    assert "conclusion holds; hypotheses satisfied" in result.output
    result = run("check", "hirzebruch", "klein")
    assert "hypotheses not satisfied" in result.output


def test_check_file_target(tmp_path):
    target = tmp_path / "dbe.txt"
    assert run("catalog", "export", "dbe-sharpness", str(target)).exit_code == 0
    result = run("check", "debruijn-erdos", str(target))
    assert result.exit_code == 0
    assert "FAILS" in result.output and "not satisfied" in result.output


def test_check_missing_target():
    result = run("check", "urzua", "missing-file.txt")
    assert result.exit_code == EXIT_PARSE
    assert "neither a catalog name nor a file" in result.output


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_analyze_output_does_not_depend_on_conic_scaling(tmp_path, fmt):
    target = tmp_path / "two-conics.txt"
    outputs = []
    for first, second in [("1 1 -2", "1 2 -3"), ("2 2 -4", "1 2 -3"), ("1/2 1/2 -1", "1 2 -3"),
                          ("1 1 -2", "2 4 -6"), ("1 1 -2", "1/2 1 -3/2")]:
        target.write_text(f"conic: {first} 0 0 0\nconic: {second} 0 0 0\n")
        result = run("analyze", str(target), *fmt)
        assert result.exit_code == 0
        outputs.append(result.output)
    assert outputs == [outputs[0]] * len(outputs)


def _fail_to_intersect(_arrangement):
    raise IntersectionError("curves 2 and 3, conic3 and conic4: "
                            "none of the 31 projection centres is generic")


def test_analyze_intersection_error(tmp_path, monkeypatch):
    target = tmp_path / "pair.txt"
    target.write_text("line: 1 0 -1\nline: 0 1 -1\n")
    monkeypatch.setattr(cli, "combinatorial_type", _fail_to_intersect)
    result = run("analyze", str(target))
    assert result.exit_code == EXIT_VALIDATION
    assert result.output.strip().splitlines() == [
        "intersection failed: curves 2 and 3, conic3 and conic4: "
        "none of the 31 projection centres is generic"]


def test_analyze_names_the_curves_of_a_failed_pair(tmp_path, monkeypatch):
    # a wrong root for the line-conic pair fails the on-curve check
    target = tmp_path / "pair.txt"
    target.write_text("line: 1 0 0\nconic: 1 1 -2 0 0 0\n")
    monkeypatch.setattr(intersect, "root_orbits", lambda coeffs: root_orbits([-3, 0, 1]))
    result = run("analyze", str(target))
    assert result.exit_code == EXIT_VALIDATION
    assert result.output.strip().splitlines() == [
        "intersection failed: curves 0 and 1, line1 and conic2: "
        "back-substitution verification failed"]


def test_check_intersection_error(tmp_path, monkeypatch):
    target = tmp_path / "pair.txt"
    target.write_text("line: 1 0 -1\nline: 0 1 -1\n")
    monkeypatch.setattr(cli, "combinatorial_type", _fail_to_intersect)
    result = run("check", "c2-positive", str(target))
    assert result.exit_code == EXIT_VALIDATION
    assert result.output.startswith("intersection failed:")


def test_check_decides_six_lines_like_analyze(tmp_path):
    target = tmp_path / "hexagon.txt"
    target.write_text(HEXAGON_AND_TWO_CONICS)
    data = json.loads(run("analyze", str(target), "--json").output)
    hirzebruch = next(c for c in data["checks"] if c["name"] == "hirzebruch")
    assert hirzebruch["hypotheses_satisfied"]
    result = run("check", "hirzebruch", str(target))
    assert result.exit_code == 0
    assert "hypotheses satisfied" in result.output


def test_analyze_gaussian_rational_pair_in_a_subprocess(tmp_path):
    # sympy 1.14's Poly.all_roots does not return on 9s^2 + 12s + 8, which
    # this line-conic pair restricts to; the engine must not call it
    target = tmp_path / "gauss.txt"
    target.write_text("line: 3 0 4\nconic: 2 -2 0 2 4 0\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "coniclines.cli", "analyze",
                           str(target), "--json"],
                          capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert (data["d"], data["k"], data["t"]) == (1, 1, {"2": 2})
    assert data["all_ordinary"] is True


def _assert_clean_exit(result, code):
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert len(result.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("text, code", [
    ("line: 1 0 1/0\n", EXIT_PARSE),
    ("d=x k=1\n", EXIT_PARSE),
    ("d=2 k=1\nt 1 = 1\n", EXIT_VALIDATION),
    ("d=2 k=1\nt 2 = -1\n", EXIT_VALIDATION),
], ids=["zero-denominator", "non-integer-header", "t1", "negative-count"])
def test_analyze_malformed_input(tmp_path, text, code):
    target = tmp_path / "bad.txt"
    target.write_text(text)
    _assert_clean_exit(run("analyze", str(target)), code)


@pytest.mark.parametrize("data, code, message", [
    (b"line : 1 0 -1\nconic: 1 1 -1 0 0 0\n", 0, "type: d=1 lines, k=1 conics"),
    (b"\xef\xbb\xbfline: 1 0 -1\nconic: 1 1 -1 0 0 0\n", 0, "type: d=1 lines, k=1 conics"),
    (b"\xef\xbb\xbfd=2 k=1\nt 2 = 1\n", 0, "type: d=2 lines, k=1 conics"),
    (b"foo: 1 2 3\n", EXIT_PARSE, "parse error: line 1: unknown record 'foo'"),
], ids=["space-before-colon", "bom-arrangement", "bom-type", "unknown-record"])
def test_analyze_picks_the_format_like_the_parser(tmp_path, data, code, message):
    # a colon marks an arrangement record, and parse_arrangement judges its head
    target = tmp_path / "input.txt"
    target.write_bytes(data)
    result = run("analyze", str(target))
    assert result.exit_code == code, result.output
    assert message in result.output


def test_analyze_repeated_type_count(tmp_path):
    target = tmp_path / "twice.txt"
    target.write_text("d=2 k=1\nt 2 = 1\nt 2 = 5\n")
    result = run("analyze", str(target))
    _assert_clean_exit(result, EXIT_PARSE)
    assert "t 2 is given twice" in result.stderr


def test_analyze_forty_concurrent_lines_in_a_subprocess(tmp_path):
    # no 6 of the lines qualify, so the six-line search must prune: the full
    # walk over C(40, 6) subsets takes half a minute
    target = tmp_path / "pencil.txt"
    target.write_text("".join(f"line: 1 {i} 0\n" for i in range(40)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "coniclines.cli", "analyze",
                           str(target), "--json"],
                          capture_output=True, text=True, timeout=15, env=env)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert (data["d"], data["k"], data["t"]) == (40, 0, {"40": 1})
    hirzebruch = next(c for c in data["checks"] if c["name"] == "hirzebruch")
    assert not hirzebruch["hypotheses_satisfied"]


def test_analyze_utf16_file(tmp_path):
    target = tmp_path / "utf16.txt"
    target.write_text("line: 1 0 -1\nline: 0 1 -1\n", encoding="utf-16")
    _assert_clean_exit(run("analyze", str(target)), EXIT_PARSE)


def test_analyze_directory(tmp_path):
    _assert_clean_exit(run("analyze", str(tmp_path)), EXIT_PARSE)


@pytest.mark.parametrize("params", ["1,x", "1/0,2"])
def test_export_malformed_parameters(tmp_path, params):
    result = run("catalog", "export", "pencil4", str(tmp_path / "out.txt"),
                 "--k", "2", "--t", params)
    _assert_clean_exit(result, EXIT_PARSE)


def test_analyze_renders_huge_invariants(tmp_path):
    # H-index 10^400 - 4 does not fit in a float
    target = tmp_path / "huge.txt"
    target.write_text(f"d={10 ** 200} k=0\nt 2 = 1\n")
    result = run("analyze", str(target))
    assert result.exit_code == 0, result.output
    assert f"H-index: {10 ** 400 - 4} (~inf)" in result.output


_FRAGMENTS = st.sampled_from(["line:", "conic:", "d=", "k=", "d=2", "k=1", "t", "=",
                              "#", "0", "1", "-2", "3/0", "x", "1/2", "2/-3", ":", "\t"])
_RANDOM_TEXT = st.one_of(
    st.text(max_size=60),
    st.lists(st.lists(_FRAGMENTS, max_size=8).map(" ".join), max_size=5).map("\n".join),
)
_COEFF = st.builds(lambda p, q: str(p) if q == 1 else f"{p}/{q}",
                   st.integers(-3, 3), st.sampled_from([1] * 20 + [2, 3, 0]))
_RECORD = st.one_of(
    st.lists(_COEFF, min_size=3, max_size=3).map(lambda cs: "line: " + " ".join(cs)),
    st.lists(_COEFF, min_size=6, max_size=6).map(lambda cs: "conic: " + " ".join(cs)),
)
_RECORDS = st.lists(_RECORD, min_size=1, max_size=4).map(lambda rs: "\n".join(rs) + "\n")


@settings(max_examples=40, deadline=None)
@given(st.one_of(_RANDOM_TEXT.map(str.encode), st.binary(max_size=40)))
def test_analyze_exit_contract_on_random_text(tmp_path_factory, data):
    target = tmp_path_factory.mktemp("fuzz") / "input.txt"
    target.write_bytes(data)
    result = run("analyze", str(target))
    assert result.exit_code in (0, EXIT_PARSE, EXIT_VALIDATION), repr(result.exception)


@settings(max_examples=40, deadline=None)
@given(_RECORDS)
def test_analyze_exit_contract_on_random_records(tmp_path_factory, text):
    target = tmp_path_factory.mktemp("fuzz") / "input.txt"
    target.write_text(text)
    result = run("analyze", str(target), "--json")
    assert result.exit_code in (0, EXIT_PARSE, EXIT_VALIDATION), repr(result.exception)
