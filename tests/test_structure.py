"""Structural checks on the package source, read as syntax trees.

Every public top-level function, class and method of ``src/coniclines``
must be reached: referenced somewhere in the package outside its own
definition (a docstring does not count), exported by ``__init__``, or a
click command registered on ``cli.main``.  A function or class is
referenced as an AST name or attribute, a method only as an attribute
(``obj.method``): a variable of the method's spelling does not reach it.

An attribute reaches the method of its receiver's class wherever the code
says which package class that is:

    C.m                       C is a package class
    self.m, cls.m             the first parameter of a method of C
    p.m                       a parameter annotated ``p: C``
    self.attr.m, p.attr.m     attr annotated ``attr: C`` in the class body,
                              or stored by ``__init__`` from a parameter
                              annotated ``C`` (``self.attr = attr``)

A receiver of a package class reaches that class's method and no other.
Any other receiver falls back to the method of that name in every class;
``fallbacks`` lists those references, and running this file prints them.
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
MOVED = {"tangent_line", "check_ordinary", "from_coords", "random_balanced_type", "approx"}


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


def _references(node: ast.AST, name: str) -> list[ast.AST]:
    """The names and attributes ``name`` under ``node``."""
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and n.attr == name
            or isinstance(n, ast.Name) and n.id == name]


def _class_named(annotation: ast.AST | None, classes: set[str]) -> str | None:
    """The package class that an annotation names, as ``C`` or ``"C"``."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value if annotation.value in classes else None
    if isinstance(annotation, ast.Name) and annotation.id in classes:
        return annotation.id
    return None


def _attribute_classes(trees: dict[str, ast.Module]) -> dict[str, dict[str, str]]:
    """Each package class, with the package class of each attribute that
    its body annotates or that its ``__init__`` stores from a parameter
    annotated with one."""
    nodes = [node for tree in trees.values() for node in tree.body
             if isinstance(node, ast.ClassDef)]
    classes = {node.name for node in nodes}
    out = {}
    for node in nodes:
        attrs = out[node.name] = {}
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                kind = _class_named(item.annotation, classes)
                if kind:
                    attrs[item.target.id] = kind
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                params = {a.arg: _class_named(a.annotation, classes) for a in item.args.args}
                for stmt in ast.walk(item):
                    if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name)
                            and params.get(stmt.value.id)):
                        for target in stmt.targets:
                            if (isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"):
                                attrs[target.attr] = params[stmt.value.id]
    return out


def _attributes(trees: dict[str, ast.Module]) -> list[tuple[str, ast.Attribute, str | None]]:
    """Every attribute of the package, as (module, node, the package class
    of its receiver, or None where the code does not say)."""
    attrs = _attribute_classes(trees)
    classes = set(attrs)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    out = []

    def receiver(node: ast.AST, scope: dict[str, str | None]) -> str | None:
        if isinstance(node, ast.Name):
            return scope[node.id] if node.id in scope else _class_named(node, classes)
        if isinstance(node, ast.Attribute):
            owner = receiver(node.value, scope)
            return attrs[owner].get(node.attr) if owner else None
        return None

    def visit(module: str, node: ast.AST, scope: dict[str, str | None]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, functions):
                params = child.args.posonlyargs + child.args.args + child.args.kwonlyargs
                inner = {**scope, **{a.arg: _class_named(a.annotation, classes)
                                     for a in params}}
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in getattr(child, "decorator_list", []))
                if isinstance(node, ast.ClassDef) and params and not static:
                    inner[params[0].arg] = node.name  # self, or cls
            if isinstance(child, ast.Attribute):
                out.append((module, child, receiver(child.value, scope)))
            visit(module, child, inner)

    for module, tree in trees.items():
        visit(module, tree, {})
    return out


def fallbacks(trees: dict[str, ast.Module]) -> list[str]:
    """The references to a method name whose receiver's class the code does
    not say, as "module:line receiver.method": each reaches the method of
    that name in every class."""
    methods = {name.split(".")[1] for tree in trees.values()
               for name, _node in _definitions(tree) if "." in name}
    return [f"{module}:{node.lineno} {ast.unparse(node)}"
            for module, node, owner in _attributes(trees)
            if owner is None and node.attr in methods]


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
    attributes = _attributes(trees)
    out = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            if "." in qualname:
                owner = qualname.split(".")[0]
                refs = [ref for _module, ref, kind in attributes
                        if ref.attr == node.name and kind in (None, owner)]
            elif node.name in reached:
                continue
            else:
                refs = [ref for other in trees.values() for ref in _references(other, node.name)]
            inside = {id(n) for n in ast.walk(node)}
            if all(id(ref) in inside for ref in refs):
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
# a call's result is a receiver of no known class
_TOY_FALLBACKS = ["a.py:11 Box().get"]


# two classes that share three method names, and calls whose receivers say
# which class each reaches: Field.norm, Point.approx and Point.degree are
# named only on receivers of the other class, a parameter annotated Point,
# a class-body annotation and an annotated __init__ parameter
_RECEIVERS = ("class Field:\n"
              "    def approx(self): pass\n    def degree(self): pass\n    def norm(self): pass\n"
              "class Point:\n"
              "    field: Field\n"
              "    def __init__(self, other: 'Field'):\n        self.other = other\n"
              "    def approx(self): pass\n    def degree(self): pass\n    def norm(self): pass\n"
              "    def __repr__(self):\n"
              "        return f'{self.field.approx()} {self.other.degree()}'\n"
              "def show(p: Point): return p.norm()\n"
              "shown = show(Point(Field()))\n")


def test_every_public_definition_is_reached():
    toy = {name: ast.parse(text) for name, text in _TOY.items()}
    assert unreached(toy) == _TOY_UNREACHED
    assert fallbacks(toy) == _TOY_FALLBACKS
    found = unreached(_package())
    assert [entry for entry in found if entry.split()[1] not in KEPT] == []
    # a kept name that the package comes to reach leaves KEPT
    assert {entry.split()[1] for entry in found} == KEPT


def test_the_guard_reads_receivers():
    # by name alone, each of the three is reached
    toy = {"__init__.py": ast.parse(""), "cli.py": ast.parse(""), "b.py": ast.parse(_RECEIVERS)}
    assert unreached(toy) == ["b.py:4 Field.norm", "b.py:9 Point.approx", "b.py:10 Point.degree"]
    assert fallbacks(toy) == []


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


if __name__ == "__main__":
    print("\n".join(fallbacks(_package())))
