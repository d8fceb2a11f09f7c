"""Every name a package module imports is used in that module, and every
module-level function and method is referenced elsewhere in the package,
but for the entry points the README documents."""

import ast
from pathlib import Path

import qbichromate

PACKAGE = Path(qbichromate.__file__).parent


def unused_imports(source):
    """Names bound by the module's import statements that no other line
    of it reads; a name listed in __all__ counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    source = ("import os.path\nfrom fractions import Fraction\n"
              "from itertools import permutations as perms, product\n"
              "from .polyq import qint\n__all__ = ['qint']\n"
              "x = product(os.sep)\n")
    assert unused_imports(source) == [(2, "Fraction"), (3, "perms")]


def test_package_modules_use_every_import():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8"))
              for path in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def unreferenced_helpers(sources, public=False):
    """(module, name) of each module-level function whose name starts
    with a single "_" that no code in sources names outside its own def,
    as a plain name or an attribute; sources maps module names to text.
    With public, the functions checked are instead the module-level
    functions and the methods of module-level classes whose names do
    not start with "_"."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    if public:
        helpers = [(module, node) for module, tree in trees.items()
                   for top in tree.body
                   for node in (top.body if isinstance(top, ast.ClassDef)
                                else [top])
                   if isinstance(node, functions)
                   and not node.name.startswith("_")]
    else:
        helpers = [(module, node) for module, tree in trees.items()
                   for node in tree.body
                   if isinstance(node, functions)
                   and node.name.startswith("_")
                   and not node.name.startswith("__")]
    refs = [(id(node), node.id if isinstance(node, ast.Name) else node.attr)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for module, helper in helpers:
        inside = {id(node) for node in ast.walk(helper)}
        if not any(name == helper.name and key not in inside
                   for key, name in refs):
            unused.append((module, helper.name))
    return sorted(unused)


def test_unreferenced_helpers_are_found():
    sources = {
        "a": ("def _called():\n    pass\n\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n\n"
              "def _by_attribute():\n    pass\n\n"
              "def __dunder__():\n    pass\n\n"
              "class K:\n    def _method(self):\n        pass\n\n"
              "x = _called()\n"),
        "b": "from . import a\n\ny = a._by_attribute()\n",
    }
    assert unreferenced_helpers(sources) == [("a", "_recursive")]


def test_package_references_every_private_helper():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_helpers(sources) == []


def test_unreferenced_public_names_are_found():
    sources = {
        "a": ("def called():\n    pass\n\n"
              "def recursive(n):\n    return recursive(n - 1)\n\n"
              "def _private():\n    pass\n\n"
              "class K:\n    def used(self):\n        pass\n\n"
              "    def unused(self):\n        pass\n\n"
              "    def __init__(self):\n        pass\n\n"
              "x = called()\n"),
        "b": "from . import a\n\ny = a.K().used()\n",
    }
    assert unreferenced_helpers(sources, public=True) == [
        ("a", "recursive"), ("a", "unused")]


# The entry points the README documents that no package code calls.
ENTRY_POINTS = {("arcflow.py", "main_flow_weight")}


def test_package_references_every_public_name():
    # src/ keeps only what the CLI runs: a public function or method that
    # only the tests read belongs in tests/oracles.py or a test helper
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert set(unreferenced_helpers(sources, public=True)) == ENTRY_POINTS
