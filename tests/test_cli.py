import gc
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import coniclines.cli as cli
import coniclines.intersect as intersect
from coniclines.algebraic import root_orbits
from coniclines.cli import EXIT_PARSE, EXIT_VALIDATION, main
from coniclines.curves import CombinatorialType
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


@pytest.mark.parametrize("name, line", [
    ("pencil4", "  parameters: k: int = len(t), or 3; "
                "t: k distinct rationals not in {0, -1}, by default 1..k"),
    ("tangency-demo", "  flags: non-ordinary"),
])
def test_catalog_show_prints_parameters_and_flags(name, line):
    result = run("catalog", "show", name)
    assert result.exit_code == 0
    assert result.output.splitlines()[2] == line


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


@pytest.mark.parametrize("args, k, text, error", [
    (["--k", "5"], 5, None, None),
    (["--t", "1,2"], 2, "line: 1 0 -1\nline: 1 0 1\nconic: 1 1 -2 0 0 0\nconic: 1 2 -3 0 0 0\n",
     None),
    (["--k", "3", "--t", "1,2"], None, None, "need exactly k distinct pencil parameters"),
    (["--k", "0"], None, None, "need at least one pencil conic, got k = 0"),
    (["--k", "-2"], None, None, "need at least one pencil conic, got k = -2"),
], ids=["k-alone", "t-alone", "k-and-t-disagree", "k-zero", "k-negative"])
def test_export_pencil4_with_one_of_k_and_t(tmp_path, args, k, text, error):
    # --k alone takes t = 1..k, --t alone takes k = len(t)
    target = tmp_path / "pencil.txt"
    result = run("catalog", "export", "pencil4", str(target), *args)
    if error is not None:
        _assert_clean_exit(result, EXIT_VALIDATION)
        assert f"validation failed: {error}" in result.output
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


@pytest.mark.parametrize("mode", [[], ["--extremal"], ["--conjecture", "urzua"]],
                         ids=["list", "extremal", "conjecture"])
def test_search_streams_its_types(monkeypatch, mode):
    # a stand-in enumeration counts, before each type, the types it yielded
    # that are still alive: the one in hand, and the extremal witnesses
    alive = []

    def stand_in(d, k, max_mult):
        refs = []
        for n in range(40):
            alive.append(sum(ref() is not None for ref in refs))
            ct = CombinatorialType(d=d, k=k, t={2: 5} if n % 2 else {2: 2, 3: 1})
            refs.append(weakref.ref(ct))
            yield ct

    monkeypatch.setattr(cli.searchmod, "enumerate_types", stand_in)
    result = run("search", "--d", "2", "--k", "1", *mode)
    assert result.exit_code == 0 and "40 type" in result.output
    assert max(alive) <= 3


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


def test_analyze_coordinates_past_the_int_str_digit_limit_in_a_subprocess(tmp_path):
    # y = 10^2200 x and z = 10^2200 y meet at (1 : 10^2200 : 10^4400);
    # Python's default int-str limit is 4300 digits, which the CLI lifts
    big = "1" + "0" * 2200
    target = tmp_path / "big.txt"
    target.write_text(f"line: {big} -1 0\nline: 0 {big} -1\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "coniclines.cli", "analyze",
                           str(target), "--json"],
                          capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert (data["d"], data["k"], data["t"]) == (2, 0, {"2": 1})
    assert data["points"] == [{"location": "(1/1" + "0" * 4400 + " : 1/" + big + " : 1)",
                               "multiplicity": 2, "ordinary": True}]


def test_process_entry_freezes_its_import_heap():
    # run, the console script and python -m, freezes what the imports made
    # before main runs, so the collection at interpreter exit skips it
    script = ("import gc, sys\n"
              "import coniclines.cli as c\n"
              "sys.argv = ['coniclines', 'catalog', 'list']\n"
              "try:\n"
              "    c.run()\n"
              "except SystemExit as exc:\n"
              "    print(exc.code, gc.get_freeze_count())\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    *names, last = proc.stdout.splitlines()
    code, frozen = last.split()
    assert "pencil4" in names
    assert code == "0"
    assert int(frozen) > 0


def test_main_leaves_its_host_heap_unfrozen():
    # in-process callers (tests, a traced benchmark run, a library host)
    # call main, which must not freeze the heap of a long-lived process
    before = gc.get_freeze_count()
    assert run("catalog", "list").exit_code == 0
    assert gc.get_freeze_count() == before


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


@pytest.mark.parametrize("header", ["d=2 k=1 d=3", "d=2 k=1 x"],
                         ids=["repeated-d", "stray-token"])
def test_analyze_malformed_type_header(tmp_path, header):
    # a repeated key is not its last value, and a stray token is not dropped
    target = tmp_path / "header.txt"
    target.write_text(f"{header}\nt 2 = 1\n")
    result = run("analyze", str(target))
    _assert_clean_exit(result, EXIT_PARSE)
    assert "line 1: expected header 'd=<int> k=<int>', each once" in result.stderr


@pytest.mark.parametrize("text, message", [
    ("line: 1_0 0 -1\nline: 0 1 -1\n", "line 1: bad coefficient (not an integer: '1_0')"),
    ("line: 1 0 -1\nline: 0 \u0661 -1\n",
     "line 2: bad coefficient (not an integer: '\u0661')"),
    ("d=1_0 k=0\n", "line 1: expected an integer, got '1_0'"),
    ("d=2 k=0\nt \uff12 = 4_5\n", "line 2: expected an integer, got '\uff12'"),
], ids=["underscore", "arabic-indic-digit", "type-header", "fullwidth-r"])
def test_analyze_integers_outside_the_grammar(tmp_path, text, message):
    # int() would read these as 10, 1, 10 and 2
    target = tmp_path / "input.txt"
    target.write_text(text, encoding="utf-8")
    result = run("analyze", str(target))
    _assert_clean_exit(result, EXIT_PARSE)
    assert result.stderr == f"parse error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("line: 1\u00a00 -1\nline: 0 1 -1\n",
     "line 1: unexpected character U+00A0; fields are separated by ASCII spaces and tabs"),
    ("line: 1 0 -1\u2028line: 0 1 -1\n",
     "line 1: unexpected character U+2028; fields are separated by ASCII spaces and tabs"),
    ("d=2 k=1\nt = 2 1\n", "line 2: expected 't <r> = <count>', the '=' optional"),
], ids=["no-break-space", "line-separator", "equals-before-r"])
def test_analyze_records_outside_the_grammar(tmp_path, text, message):
    # each used to exit 0: as the line (1, 0, -1), as two records, as t_2 = 1
    target = tmp_path / "input.txt"
    target.write_text(text, encoding="utf-8")
    result = run("analyze", str(target))
    _assert_clean_exit(result, EXIT_PARSE)
    assert result.stderr == f"parse error: {message}\n"


def test_analyze_tabs_crlf_and_comments(tmp_path):
    target = tmp_path / "input.txt"
    target.write_bytes(b"\xef\xbb\xbf# two lines\r\nline:\t1 0\t-1\t# x\xc2\xa0\r\n"
                       b"\r\n  line : 0 1 -1\r\n")
    result = run("analyze", str(target))
    assert result.exit_code == 0, result.output
    assert "type: d=2 lines, k=0 conics; t_2=1" in result.output


def test_analyze_record_without_a_colon(tmp_path):
    target = tmp_path / "input.txt"
    target.write_text("line: 1 0 -1\nconic 1 1 -1 0 0 0\n")
    result = run("analyze", str(target))
    _assert_clean_exit(result, EXIT_PARSE)
    assert result.stderr == "parse error: line 2: expected 'line:' or 'conic:' record\n"


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


def test_export_parameters_outside_the_grammar(tmp_path):
    # int() would read 1_5 as 15 and write conic: 1 15 -16 0 0 0
    out = tmp_path / "out.txt"
    result = run("catalog", "export", "pencil4", str(out), "--t", "1_5,2")
    _assert_clean_exit(result, EXIT_PARSE)
    assert result.stderr == "parse error: --t: not an integer: '1_5'\n"
    assert not out.exists()


def test_export_parameters_are_stripped_of_ascii_spaces_and_tabs_only(tmp_path):
    # str.strip() would also drop the no-break space and write t = 1, 2
    out = tmp_path / "out.txt"
    result = run("catalog", "export", "pencil4", str(out), "--t", "1,\u00a02")
    _assert_clean_exit(result, EXIT_PARSE)
    assert result.stderr == "parse error: --t: not an integer: '\\xa02'\n"
    assert not out.exists()
    result = run("catalog", "export", "pencil4", str(out), "--t", " 1 ,\t2 ")
    assert result.exit_code == 0, result.output
    assert out.read_text(encoding="utf-8").startswith("line: 1 0 -1\nline: 1 0 1\n")

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


def large_coefficient_corpus(seed: int, count: int) -> list[str]:
    """``count`` arrangement files of 1-2 lines and 1-2 conics, drawn from
    ``random.Random(seed)``: each coefficient is zero with probability 1/3,
    else uniform in [-10^e, 10^e], with e drawn from {0, 1, 5, 20, 40, 60}
    for a line and from {0, 1, 10, 30, 50} for a conic.  Their points have
    coordinates of very different sizes, which display must print."""
    rng = random.Random(seed)

    def record(kind: str, size: int, exponents: tuple[int, ...]) -> str:
        coeffs = []
        for _ in range(size):
            e = rng.choice(exponents)
            value = rng.randint(-10 ** e, 10 ** e)
            coeffs.append(0 if rng.random() < 1 / 3 else value)
        return f"{kind}: " + " ".join(map(str, coeffs))

    files = []
    for _ in range(count):
        records = [record("line", 3, (0, 1, 5, 20, 40, 60)) for _ in range(rng.randint(1, 2))]
        records += [record("conic", 6, (0, 1, 10, 30, 50)) for _ in range(rng.randint(1, 2))]
        files.append("\n".join(records) + "\n")
    return files


def test_analyze_prints_the_points_of_large_coefficient_arrangements(tmp_path):
    # the first 40 files take a few seconds; 12 of them, the first three
    # included, ended in an mpmath NoConvergence traceback before roots
    # were judged by their own modulus
    for i, text in enumerate(large_coefficient_corpus(1, 40)):
        target = tmp_path / f"corpus-{i}.txt"
        target.write_text(text)
        result = run("analyze", str(target))
        assert result.exit_code in (0, EXIT_PARSE, EXIT_VALIDATION), (text, result.exception)
