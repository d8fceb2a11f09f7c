"""Every name a package module imports is used in that module."""

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
