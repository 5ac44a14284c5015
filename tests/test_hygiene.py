"""Import hygiene: every name a library module imports is used in it, and
every import sits at module level.

The project has no linter among its dependencies, so an import left behind
by a deletion, or one hidden in a function body, would otherwise go unseen.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mvtk"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _unused_imports(tree):
    """(line, name) of each imported name that never occurs as an ast.Name."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_reported():
    tree = ast.parse("import os.path\nfrom fractions import Fraction\nfrom math import comb as c\n"
                     "x = c(3, 1)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "Fraction")]


def _function_level_imports(tree):
    """(line, function name) of each import statement inside a function body."""
    return sorted({(node.lineno, fn.name) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_function_body_imports(path):
    assert _function_level_imports(ast.parse(path.read_text())) == []


def test_a_function_level_import_is_reported():
    tree = ast.parse("import os\n\ndef f():\n    from math import comb\n    return comb(3, 1)\n\n"
                     "class C:\n    def g(self):\n        import re\n        return re\n")
    assert _function_level_imports(tree) == [(4, "f"), (9, "g")]


def _orphans(trees):
    """(module, line, name) of each private function, class or method, over the
    {module: tree} given, that no ast.Name or attribute outside its own body reads."""
    defs, refs = [], []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defs.append((module, node))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                refs.append((module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr))
    return sorted((module, node.lineno, node.name) for module, node in defs
                  if not any(name == node.name and not (where == module and
                                                        node.lineno <= line <= node.end_lineno)
                             for where, line, name in refs))


def test_every_private_definition_is_referenced():
    # a helper left behind by a deletion shows here
    trees = {str(p.relative_to(SRC)): ast.parse(p.read_text()) for p in SRC.rglob("*.py")}
    assert _orphans(trees) == []


def test_an_orphaned_private_definition_is_reported():
    trees = {"a.py": ast.parse("def _used():\n    return 1\n\ndef _recursive(n):\n"
                               "    return _recursive(n - 1)\n\nclass C:\n    def _left(self):\n"
                               "        return 0\n    def __len__(self):\n        return 0\n"),
             "b.py": ast.parse("from a import _used\nx = _used()\n")}
    assert _orphans(trees) == [("a.py", 4, "_recursive"), ("a.py", 8, "_left")]
