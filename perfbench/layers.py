"""The layers the traced run wraps, and the counts it takes at them.

Wrapping is done from here, from outside the package: every public function
of the modules in MODULES, the callbacks of the CLI commands, a few methods,
and the sympy calls the package makes.  A layer whose function no longer
exists is reported as absent; nothing else changes.
"""

from __future__ import annotations

import importlib
import inspect
import sys

from tracer import Tracer

MODULES = ("curves", "polynomials", "algebraic", "intersect", "invariants", "cli")

# (layer, module, attribute path) wrapped on top of the public functions
METHODS = (
    ("algebraic.refine_box", "coniclines.algebraic", "AlgebraicNumber.refine_box"),
    ("curves.same_point", "coniclines.curves", "ProjectivePoint.same_point"),
    ("curves.point_repr", "coniclines.curves", "ProjectivePoint.__repr__"),
    ("invariants.render", "coniclines.invariants", "AnalysisReport.render_text"),
    ("invariants.render", "coniclines.invariants", "AnalysisReport.as_dict"),
    ("sympy.factor_list", "sympy.polys.polytools", "Poly.factor_list"),
    ("sympy.all_roots", "sympy.polys.polytools", "Poly.all_roots"),
    ("sympy.eval_rational", "sympy.polys.rootoftools", "ComplexRootOf.eval_rational"),
    ("sympy.minimal_polynomial", "sympy", "minimal_polynomial"),
    ("sympy.N", "sympy", "N"),
)

PAIR_KINDS = {("line", "line"): "line_line", ("line", "conic"): "line_conic",
              ("conic", "line"): "line_conic", ("conic", "conic"): "conic_conic"}


def _pair_layer(c1, c2, *_rest) -> str:
    kind = PAIR_KINDS.get((getattr(c1, "kind", None), getattr(c2, "kind", None)))
    return f"intersect.pair.{kind or 'other'}"


def _rebind(old, new) -> None:
    """Point every package-level name bound to ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if name == "coniclines" or name.startswith("coniclines."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def _resolve(module_name: str, path: str):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, parts[-1]


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer; return the names of the layers that were wrapped."""
    counters = tracer.counters
    modules = {}
    for short in MODULES:
        try:
            modules[short] = importlib.import_module(f"coniclines.{short}")
        except ImportError:
            continue

    def count_pair(_args, result):
        counters["intersect.cluster.occurrences"] += len(result)

    def count_type(_args, result):
        counters["intersect.cluster.points"] += len(getattr(result, "points", ()))

    def count_roots(_args, result):
        for number, _mult in result:
            witness = getattr(number, "minpoly", None)
            degree = getattr(witness, "degree", "unknown")
            counters[f"algebraic.roots_by_degree.{degree}"] += 1

    def count_match(_args, result):
        counters["curves.same_point.true"] += bool(result)

    hooks = {"intersect.intersect_pair": (_pair_layer, count_pair),
             "intersect.combinatorial_type": (None, count_type),
             "algebraic.isolate_roots": (None, count_roots)}
    wrapped = set()
    for short, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            layer = f"{short}.{attr}"
            namer, hook = hooks.get(layer, (None, None))
            _rebind(fn, tracer.wrap(fn, namer or layer, hook))
            wrapped.add(layer if namer is None else "intersect.pair")
    if "cli" in modules:
        stack = [modules["cli"].main]
        while stack:
            command = stack.pop()
            stack.extend(getattr(command, "commands", {}).values())
            if command.callback is not None:
                command.callback = tracer.wrap(command.callback, f"cli.{command.name}")
                wrapped.add(f"cli.{command.name}")
    for layer, module_name, path in METHODS:
        owner, attr = _resolve(module_name, path)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            continue
        hook = count_match if layer == "curves.same_point" else None
        setattr(owner, attr, tracer.wrap(fn, layer, hook))
        wrapped.add(layer)
    return sorted(wrapped)
