"""Import hygiene: every name a library module imports is used in it, and
every import sits at module level.  Every per-layer timing or call-count
metric of the benchmark names a function that its tracer wraps.

The project has no linter among its dependencies, so an import left behind
by a deletion, or one hidden in a function body, would otherwise go unseen.
"""

import ast
import importlib
import importlib.util
import json
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mvtk"
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


def _tracer_module():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _unwrapped_metrics(names, tracing):
    """Each `<layer>.<key>_s` or `_calls` name among `names` with no timed or counted key
    `<layer>.<key>` in the tracer (`self_s` needs only the layer): the public functions
    of each layer module under their ALIASES, then METHODS and COUNTED."""
    timed = set()
    for layer, modname in tracing.LAYERS.items():
        for name, obj in vars(importlib.import_module(modname)).items():
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == modname):
                timed.add(tracing.ALIASES.get(f"{layer}.{name}", f"{layer}.{name}"))
    timed |= {f"{layer}.{key}" for layer, _, _, key in tracing.METHODS}
    counted = timed | {f"{layer}.{key}" for layer, _, _, key in tracing.COUNTED}
    out = []
    for name in names:
        layer, _, key = name.partition(".")
        if layer not in tracing.LAYERS or key == "self_s":
            continue   # flag_s, gate.* and trace.* are not layer spans; self_s needs the layer only
        if (key.endswith("_s") and name[:-2] not in timed
                or key.endswith("_calls") and name[:-6] not in counted):
            out.append(name)
    return out


def test_every_layer_metric_names_a_wrapped_function():
    # a rename that leaves a metric without its function reads it as 0, silently
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in bench["per_layer"]]
    assert _unwrapped_metrics(names, _tracer_module()) == []


def test_an_unwrapped_layer_metric_is_reported():
    names = ["groebner.groebner_s", "groebner.in_ideal_s", "mdeg.hilbert_calls",
             "mdeg.multigraded_hilbert_s", "measures.ratfunc_new_calls", "measures.ratfunc_new_s",
             "preproj.self_s", "flag_s", "orbital.sections_total", "gate.known_defect_ops"]
    assert _unwrapped_metrics(names, _tracer_module()) == [
        "groebner.in_ideal_s", "mdeg.multigraded_hilbert_s", "measures.ratfunc_new_s"]
