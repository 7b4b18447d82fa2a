"""Structural checks on the package source, read as syntax trees.

Every public top-level function, class and method of ``src/coniclines``
must be reached: referenced somewhere in the package outside its own
definition (a docstring does not count), exported by ``__init__``, or a
click command registered on ``cli.main``.  A function or class is
referenced as an AST name or attribute, a method only as an attribute
(``obj.method``): a variable of the method's spelling does not reach it.
Code that only the tests call belongs under ``tests/``; ``oracles.py``
holds the independent oracles.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coniclines"

# reached from outside the package only: the benchmark's input generator,
# perfbench/workloads.py, builds its curves with them (see its docstring)
KEPT = {"TernaryForm", "TernaryForm.line", "TernaryForm.conic"}

# the definitions that left the package for tests/oracles.py
MOVED = {"tangent_line", "check_ordinary", "from_coords", "random_balanced_type"}


def _package() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree: ast.Module):
    """The public top-level functions and classes of a module and the public
    methods of its classes, as (qualified name, node)."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(node: ast.AST, name: str, method: bool) -> list[ast.AST]:
    """The attributes ``name`` under ``node``, and for a function or class
    (not a ``method``) also the bare names ``name``."""
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and n.attr == name
            or not method and isinstance(n, ast.Name) and n.id == name]


def _exports(tree: ast.Module) -> set[str]:
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _commands(tree: ast.Module) -> set[str]:
    """``main`` and the functions that click registers on it: those whose
    decorator is ``<group>.command(...)`` or ``<group>.group(...)`` of a
    registered group."""
    groups = {"main"}
    size = 0
    while size != len(groups):
        size = len(groups)
        for node in tree.body:
            for decorator in getattr(node, "decorator_list", []):
                func = decorator.func if isinstance(decorator, ast.Call) else decorator
                if (isinstance(func, ast.Attribute) and func.attr in ("command", "group")
                        and isinstance(func.value, ast.Name) and func.value.id in groups):
                    groups.add(node.name)
    return groups


def unreached(trees: dict[str, ast.Module]) -> list[str]:
    """The public definitions that nothing in ``trees`` (module file name to
    syntax tree, ``__init__.py`` and ``cli.py`` among them) reaches, as
    "module:line qualified.name"."""
    reached = _exports(trees["__init__.py"]) | _commands(trees["cli.py"])
    out = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            method = "." in qualname
            if not method and node.name in reached:
                continue
            inside = {id(n) for n in _references(node, node.name, method)}
            if all(id(ref) in inside for other in trees.values()
                   for ref in _references(other, node.name, method)):
                out.append(f"{module}:{node.lineno} {qualname}")
    return out


# a package of three modules, and what the guard finds unreached in it
_TOY = {
    "__init__.py": "from .a import exported\n",
    "cli.py": "import click\n"
              "@click.group()\ndef main(): pass\n"
              "@main.group()\ndef sub(): pass\n"
              "@sub.command('x')\ndef sub_command(): pass\n"
              "@click.command()\ndef loose(): pass\n",
    "a.py": "def exported(): pass\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
            "def documented():\n    '''called by nobody: not even used()'''\n"
            "def used(size=0): return size\n"
            "class Box:\n    def get(self): pass\n    def put(self): pass\n"
            "    def size(self): pass\n"
            "value = Box().get() or used()\n",
}
# Box.size is named only by used()'s parameter, which is not the method
_TOY_UNREACHED = ["cli.py:9 loose", "a.py:2 recursive", "a.py:4 documented", "a.py:9 Box.put",
                  "a.py:10 Box.size"]


def test_every_public_definition_is_reached():
    assert unreached({name: ast.parse(text) for name, text in _TOY.items()}) == _TOY_UNREACHED
    found = unreached(_package())
    assert [entry for entry in found if entry.split()[1] not in KEPT] == []
    # a kept name that the package comes to reach leaves KEPT
    assert {entry.split()[1] for entry in found} == KEPT


def test_the_oracles_live_outside_the_package():
    # the engine reads ordinarity from pair multiplicities only: no module of
    # the package defines the tangent oracle or imports the tests' module
    for module, tree in _package().items():
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & MOVED, module
        imported = {name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names for name in alias.name.split(".")}
        imported |= {name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     for name in (node.module or "").split(".")}
        assert not imported & {"tests", "oracles"}, module
