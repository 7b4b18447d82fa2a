"""Run the committed hand-made mutants of the package against the tests.

Each entry of ``MUTANTS`` is a name, a file of the tree, the exact old text,
the new text and the test expected to kill the mutant.  For each entry the
script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies the edit there, runs the expected test and then, when
that test passes, the Tier-1 suite with ``-x``.  It prints one line per
entry:

    killed    the expected test fails, or else another test does (named)
    survived  every test passes
    stale     the old text does not occur exactly once in the file, the
              edited file does not compile, or the expected test is not
              found: the entry needs updating

and exits 1 when any entry survived or is stale.  The working tree is never
touched.  Run it from anywhere:

    python tests/mutants.py                 # every entry
    python tests/mutants.py NAME [NAME ...] # the named entries

A run of every entry takes a few minutes.  pytest does not collect this
file.  A change that adds a test for a mutant it found adds the entry here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    test: str


MUTANTS = [
    # the pair certificate and the points over a binary form's roots
    Mutant("pair-sum-check-deleted", "src/coniclines/intersect.py",
           "        if total != c1.degree * c2.degree:\n",
           "        if False:\n",
           "tests/test_intersect.py::test_pair_multiplicity_certificate_fires"),
    Mutant("pair-sum-counts-each-orbit-once", "src/coniclines/intersect.py",
           "            total += mult * field.degree\n",
           "            total += mult\n",
           "tests/test_intersect.py::test_line_conic_irrational_points"),
    Mutant("intersect-pair-expands-conjugates", "src/coniclines/intersect.py",
           "    return orbits\n",
           "    return [(conj, m) for p, m in orbits for conj in p.conjugates()]\n",
           "tests/test_intersect.py::test_line_conic_irrational_points"),
    Mutant("root-read-at-t-s", "src/coniclines/intersect.py",
           "[quad_c, quad_b, quad_a], (p1, p0))",
           "[quad_c, quad_b, quad_a], (p0, p1))",
           "tests/test_intersect.py::test_line_conic_tangent"),
    Mutant("expansion-drops-the-f-t-term", "src/coniclines/intersect.py",
           "[e + f * t + 2 * c * u, d + 2 * b * t + f * u]",
           "[e + 2 * c * u, d + 2 * b * t + f * u]",
           "tests/test_polynomials.py::test_expansion_at_the_centre"),
    Mutant("point-map-takes-t-for-t-cubed", "src/coniclines/intersect.py",
           "    cube = t ** 3\n",
           "    cube = t\n",
           "tests/test_intersect.py::"
           "test_conics_through_the_first_centres_are_decided_at_t4"),
    Mutant("centre-search-stops-one-short", "src/coniclines/intersect.py",
           "    for t in range(_CENTRES):\n",
           "    for t in range(_CENTRES - 1):\n",
           "tests/test_intersect.py::test_no_generic_centre_names_the_pair"),
    Mutant("fiber-test-deleted", "src/coniclines/intersect.py",
           "    if u == v == 0 or not sum(",
           "    if u == v == 0 or False and not sum(",
           "tests/test_intersect.py::test_two_points_on_one_fiber_move_the_centre"),
    Mutant("degree-one-root-kept-in-its-field", "src/coniclines/intersect.py",
           "        if field.degree == 1:\n",
           "        if False:\n",
           "tests/test_intersect.py::test_line_conic_transversal"),
    Mutant("points-skips-reduce-at-degree-m", "src/coniclines/intersect.py",
           "        if m >= n:\n",
           "        if m > n:\n",
           "tests/test_intersect.py::test_two_points_on_one_fiber_move_the_centre"),
    Mutant("rational-vanishes-drops-the-z-term", "src/coniclines/intersect.py",
           "+ y * (b * y + f * z) + c * z * z",
           "+ y * (b * y + f * z)",
           "tests/test_intersect.py::test_line_conic_transversal"),
    Mutant("binary-roots-drops-one-zero", "src/coniclines/intersect.py",
           "        points.append((ProjectivePoint.from_integers(*columns[m]), lost))\n",
           "        pass\n",
           "tests/test_intersect.py::test_line_conic_root_at_infinity_of_the_parameter"),
    Mutant("points-reads-the-constant-term-at-infinity", "src/coniclines/intersect.py",
           "from_integers(*columns[m])",
           "from_integers(*columns[0])",
           "tests/test_intersect.py::test_root_at_infinity_needs_no_field"),
    Mutant("pair-validation-deleted", "src/coniclines/intersect.py",
           "        validate_curve(c1)\n        validate_curve(c2)\n",
           "",
           "tests/test_intersect.py::test_singular_conic_of_a_conic_pair_rejected"),
    Mutant("pair-skips-conic-validation", "src/coniclines/intersect.py",
           "        validate_curve(c1)\n",
           "",
           "tests/test_intersect.py::test_singular_conic_of_a_line_pair_rejected"),
    Mutant("degree-one-witness-with-the-wrong-sign", "src/coniclines/algebraic.py",
           "NumberField((b, 2 * a))",
           "NumberField((-b, 2 * a))",
           "tests/test_algebraic.py::test_isolate_repeated_root"),
    Mutant("engine-keeps-one-point-per-orbit", "src/coniclines/intersect.py",
           "for point, incident, delta in found for p in point.conjugates()]",
           "for point, incident, delta in found for p in [point]]",
           "tests/test_intersect.py::test_engine_builds_each_conjugate_point_once"),
    # delta, and ordinarity, from pair multiplicities
    Mutant("orbit-ordinary-reads-its-first-pair-only", "src/coniclines/intersect.py",
           "shared[pair] for pair in combinations(sorted(incident), 2))])",
           "shared[i, j] for pair in combinations(sorted(incident), 2))])",
           "tests/test_intersect.py::test_check_ordinary_agrees_with_cluster"),
    Mutant("orbit-delta-reads-its-first-pair-only", "src/coniclines/intersect.py",
           "shared[pair] for pair in combinations(sorted(incident), 2))])",
           "shared[pair] for pair in [(i, j)])])",
           "tests/test_intersect.py::"
           "test_an_orbit_sums_the_shared_multiplicity_of_each_pair"),
    Mutant("rational-point-adds-its-multiplicity-once", "src/coniclines/intersect.py",
           "                entry[2] += mult\n",
           "                entry[2] = entry[2] or mult\n",
           "tests/test_intersect.py::test_pairwise_contact_four_sums_to_delta_twelve"),
    Mutant("delta-certificate-deleted", "src/coniclines/intersect.py",
           "    if total != expected:\n",
           "    if False:\n",
           "tests/test_intersect.py::"
           "test_delta_certificate_fires_when_a_pair_loses_an_orbit"),
    Mutant("shared-multiplicity-check-deleted", "src/coniclines/intersect.py",
           "                elif mult != shared:\n",
           "                elif False:\n",
           "tests/test_intersect.py::"
           "test_irrational_orbits_of_a_pair_share_one_multiplicity"),
    Mutant("rational-point-keeps-its-first-multiplicity", "src/coniclines/intersect.py",
           "                entry[2] += mult\n",
           "                entry[2] += mult if len(entry[1]) <= 2 else 1\n",
           "tests/test_intersect.py::test_rational_point_reads_every_pair_of_its_curves"),
    # display and the field kernel
    Mutant("engine-calls-value", "src/coniclines/intersect.py",
           "                incident = _orbit_incidence(forms, point, i, j)\n",
           "                point.field.value(point.vectors[0], 1, point.conjugate)\n"
           "                incident = _orbit_incidence(forms, point, i, j)\n",
           "tests/test_engine_golden.py::test_engine_computes_no_numeric_value"),
    Mutant("repr-prints-every-coordinate-numerically", "src/coniclines/algebraic.py",
           "            if not any(v[1:]):\n",
           "            if False:\n",
           "tests/test_curves.py::test_display_divides_by_the_pivot_exactly"),
    Mutant("show-pivots-on-the-first-coordinate", "src/coniclines/algebraic.py",
           "pivot = max(i for i, v in enumerate(vectors) if any(v))",
           "pivot = min(i for i, v in enumerate(vectors) if any(v))",
           "tests/test_curves.py::test_display_divides_by_the_pivot_exactly"),
    Mutant("inverse-drops-cofactor-signs", "src/coniclines/algebraic.py",
           "cofactors = [(-1) ** j * _det(", "cofactors = [_det(",
           "tests/test_algebraic.py::test_kernel_inverse"),
    Mutant("det-drops-cofactor-signs", "src/coniclines/algebraic.py",
           "return sum((-1) ** j * c * _det(", "return sum(c * _det(",
           "tests/test_algebraic.py::test_kernel_inverse"),
    Mutant("dot-takes-the-plain-sum-at-degree-two", "src/coniclines/algebraic.py",
           "        if self.degree == 1:\n",
           "        if self.degree <= 2:\n",
           "tests/test_algebraic.py::test_arithmetic_and_zero_detection"),
    Mutant("dot-degree-two-drops-the-g1-term", "src/coniclines/algebraic.py",
           "return [c0 - c2 * g0, c1 - c2 * g1]",
           "return [c0 - c2 * g0, c1]",
           "tests/test_algebraic.py::test_degree_two_dot_is_the_reduced_product"),
    Mutant("value-ignores-the-conjugate", "src/coniclines/algebraic.py",
           "b = self.roots(dps)[conjugate] * self.lead",
           "b = self.roots(dps)[0] * self.lead",
           "tests/test_curves.py::test_conjugates_share_vectors"),
    Mutant("roots-trusts-the-absolute-error", "src/coniclines/algebraic.py",
           "if not w[0] or all(error * 10 ** (_DIGITS + 5) <= abs(r) for r in found):",
           "if True:",
           "tests/test_curves.py::test_display_of_coordinates_far_below_one"),
    Mutant("roots-never-doubles", "src/coniclines/algebraic.py",
           "                elif extra < cap:\n",
           "                elif False:\n",
           "tests/test_curves.py::test_roots_give_up_after_doubling_to_their_cap"),
    Mutant("roots-lets-no-convergence-escape", "src/coniclines/algebraic.py",
           "                except mpmath.mp.NoConvergence:\n",
           "                except ZeroDivisionError:\n",
           "tests/test_cli_golden.py::test_command_output_matches_recording[huge-root.text]"),
    Mutant("repr-prints-inf-past-the-double-range", "src/coniclines/algebraic.py",
           "abs(f) <= float_info.max:",
           "abs(f):",
           "tests/test_curves.py::test_repr_past_the_double_range"),
    Mutant("subnormal-part-printed-through-its-float", "src/coniclines/algebraic.py",
           "float_info.min <= abs(f)",
           "abs(f)",
           "tests/test_curves.py::test_repr_past_the_double_range"),
    Mutant("overflow-rounding-keeps-five-digits", "src/coniclines/algebraic.py",
           "    if digits == 10 ** 4:\n",
           "    if False:\n",
           "tests/test_curves.py::test_repr_past_the_double_range"),
    Mutant("approx-lets-overflow-escape", "tests/oracles.py",
           "        except OverflowError:  # +-inf, as complex() of an mpc gives\n",
           "        except ZeroDivisionError:\n",
           "tests/test_curves.py::test_approx_past_the_double_range"),
    # the tests' tangent oracle
    Mutant("tangent-line-truncated", "tests/oracles.py",
           "for i in range(len(vectors[0])))",
           "for i in range(1))",
           "tests/test_intersect.py::test_tangent_line_at_an_irrational_point"),
    # the search and the package's reach
    Mutant("search-lists-its-types", "src/coniclines/cli.py",
           "types = searchmod.enumerate_types(d, k, max_mult)",
           "types = list(searchmod.enumerate_types(d, k, max_mult))",
           "tests/test_cli.py::test_search_streams_its_types"),
    Mutant("odometer-skips-an-exact-fill", "src/coniclines/search.py",
           "while i >= 0 and left < weights[i]:",
           "while i >= 0 and left <= weights[i]:",
           "tests/test_search.py::test_enumerate_matches_brute_force"),
    Mutant("public-helper-nobody-calls", "src/coniclines/search.py",
           "    return out\n",
           "    return out\n\n\ndef count_types(d: int, k: int, max_mult: int) -> int:\n"
           "    return sum(1 for _ct in enumerate_types(d, k, max_mult))\n",
           "tests/test_structure.py::test_every_public_definition_is_reached"),
    Mutant("guard-ignores-receiver-types", "tests/test_structure.py",
           "out.append((module, child, receiver(child.value, scope)))",
           "out.append((module, child, None))",
           "tests/test_structure.py::test_the_guard_reads_receivers"),
    Mutant("guard-ignores-parameter-annotations", "tests/test_structure.py",
           "inner = {**scope, **{a.arg: _class_named(a.annotation, classes)\n",
           "inner = {**scope, **{a.arg: None\n",
           "tests/test_structure.py::test_the_guard_reads_receivers"),
    # parsing, reports and the CLI
    Mutant("integer-grammar-check-deleted", "src/coniclines/polynomials.py",
           "    if not _INTEGER.fullmatch(text):\n",
           "    if False:\n",
           "tests/test_polynomials.py::test_rational_grammar_rejects"),
    Mutant("record-reader-splits-on-any-whitespace", "src/coniclines/curves.py",
           "fields = [f for f in _SEPARATOR.split(line) if f]",
           "fields = [f for f in line.split() if f]",
           "tests/test_curves.py::test_records_outside_the_grammar"),
    Mutant("type-header-check-deleted", "src/coniclines/curves.py",
           "            if len(pairs) != 2 or sorted(",
           "            if False and sorted(",
           "tests/test_curves.py::test_malformed_type_header_rejected"),
    Mutant("negative-overflow-printed-as-inf", "src/coniclines/invariants.py",
           'approx = "inf" if v > 0 else "-inf"',
           'approx = "inf"',
           "tests/test_invariants.py::test_rational_with_decimal_past_the_float_range"),
    Mutant("report-points-need-a-point", "src/coniclines/invariants.py",
           "        if self.points is not None:\n            lines.append(\"singular points:\")\n",
           "        if self.points:\n            lines.append(\"singular points:\")\n",
           "tests/test_cli_golden.py::test_analyze_output_matches_recording[point-free-text]"),
    Mutant("analyze-drops-point-warnings", "src/coniclines/invariants.py",
           "for p in self.points or [] if not p.ordinary]",
           "for p in [] if not p.ordinary]",
           "tests/test_cli_golden.py::test_analyze_output_matches_recording[tangency-demo-text]"),
    Mutant("strict-echoes-no-warning", "src/coniclines/cli.py",
           "            click.echo(f\"!! {w}\", err=True)\n",
           "            pass\n",
           "tests/test_cli_golden.py::test_command_output_matches_recording[tangency-demo.strict]"),
    # the process entry point freezes the import heap, and only it does
    Mutant("entry-skips-the-freeze", "src/coniclines/cli.py",
           "    gc.freeze()\n    main()\n",
           "    main()\n",
           "tests/test_cli.py::test_process_entry_freezes_its_import_heap"),
    Mutant("main-freezes-its-host", "src/coniclines/cli.py",
           "        sys.set_int_max_str_digits(0)\n"
           "\n\n"
           "def run() -> None:\n"
           "    \"\"\"One ``coniclines`` process: ``main`` on a frozen import heap.\"\"\"\n"
           "    # the package and sympy are imported by now; frozen, their objects are\n"
           "    # skipped by every later collection, the one at interpreter exit too.\n"
           "    # main leaves gc alone, so a long-lived host is never frozen\n"
           "    gc.freeze()\n",
           "        sys.set_int_max_str_digits(0)\n"
           "    gc.freeze()\n"
           "\n\n"
           "def run() -> None:\n",
           "tests/test_cli.py::test_main_leaves_its_host_heap_unfrozen"),
    Mutant("cli-keeps-the-digit-limit", "src/coniclines/cli.py",
           "        sys.set_int_max_str_digits(0)\n",
           "        pass\n",
           "tests/test_cli.py::"
           "test_analyze_coordinates_past_the_int_str_digit_limit_in_a_subprocess"),
    Mutant("six-line-search-reads-curve-indices", "src/coniclines/intersect.py",
           "through = [line_of[c] for c in point.incident if c in line_of]",
           "through = [c for c in point.incident if c in line_of]",
           "tests/test_intersect.py::test_six_line_subarrangement"),
]


def _copy_tree(target: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", target / "pyproject.toml")


def _pytest(tree: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *TIER1, *args], cwd=tree, env=env,
                          capture_output=True, text=True, timeout=1200)


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return "(no test named; see pytest's output)"


def run(mutant: Mutant) -> str:
    """The verdict line of one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        target = tree / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return (f"stale     {mutant.name}: the old text occurs "
                    f"{text.count(mutant.old)} times in {mutant.path}")
        text = text.replace(mutant.old, mutant.new)
        try:
            compile(text, mutant.path, "exec")
        except SyntaxError as exc:
            return f"stale     {mutant.name}: the edit does not compile ({exc.msg})"
        target.write_text(text, encoding="utf-8")
        expected = _pytest(tree, [mutant.test])
        if expected.returncode in (4, 5):
            return f"stale     {mutant.name}: {mutant.test} not found"
        if expected.returncode != 0:
            return f"killed    {mutant.name}: by {mutant.test}"
        tier1 = _pytest(tree, [])
        if tier1.returncode != 0:
            return (f"killed    {mutant.name}: by {_first_failure(tier1.stdout)}, "
                    f"not by {mutant.test}")
        return f"survived  {mutant.name}"


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = False
    for mutant in [known[n] for n in names] if names else MUTANTS:
        verdict = run(mutant)
        print(verdict, flush=True)
        failed |= verdict.startswith(("survived", "stale"))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
