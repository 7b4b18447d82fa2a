"""Checks that the traced run tolerates layers the package no longer has.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# a package without the layers that the Galois-orbit engine would delete
INSTALL_WITHOUT_DELETED_LAYERS = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import coniclines, coniclines.algebraic as alg, coniclines.intersect as inter
import coniclines.polynomials as poly, coniclines.curves as curves
for module in (coniclines, alg, inter, poly, curves):
    for name in ("cluster_points", "alg_equal", "resultant"):
        module.__dict__.pop(name, None)
del alg.AlgebraicNumber.refine_box
import json, layers, tracer
print(json.dumps(layers.install(tracer.Tracer())))
"""


def test_install_skips_missing_functions():
    script = INSTALL_WITHOUT_DELETED_LAYERS.format(src=str(HERE.parent / "src"),
                                                   bench=str(HERE))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120, check=True).stdout
    wrapped = set(json.loads(out))
    assert "intersect.combinatorial_type" in wrapped
    assert "intersect.pair" in wrapped
    for gone in ("intersect.cluster_points", "algebraic.alg_equal",
                 "polynomials.resultant", "algebraic.refine_box"):
        assert gone not in wrapped


def test_per_layer_reports_missing_layers_as_absent():
    untraced = {"wall_s": 1.0}
    traced = [{"wall_s": 1.5, "wrapped": ["intersect.combinatorial_type", "intersect.pair"],
               "layers": {"intersect.combinatorial_type": {"calls": 2, "s": 1.2, "self_s": 0.1},
                          "intersect.pair.line_line": {"calls": 1, "s": 0.1, "self_s": 0.1}},
               "counters": {"intersect.cluster.points": 3}}]
    metrics, table = run.per_layer(untraced, traced)
    assert metrics["intersect.cluster_points.s"]["value"] == 0.0
    assert metrics["intersect.combinatorial_type.s"]["value"] == 1.2
    assert metrics["intersect.cluster.points"]["value"] == 3
    assert metrics["intersect.cluster.match_ratio"]["value"] == 0.0
    assert metrics["trace.overhead_s"]["value"] == 0.5
    assert "intersect.cluster_points" in table["absent"]
    assert "intersect.pair.line_line" not in table["absent"]
    assert "cli.process" not in table["absent"]
