"""Source hygiene of the library, checked with the stdlib ast module: no
unused imports, no bare assert statements (python -O strips them, so
the library raises its invariant errors explicitly), no rule names in
the CLI (the rule registry is the one place that knows a rule), no
integer-scaled measure data outside cake_measure.py (its kernel is the
one place that reads it), and no private helper, function, class or
method of a library class, that only the tests use (a test-only helper
belongs in the tests, and a replaced kernel entry is not left behind),
no public method of a library class that no library code calls unless
the benchmark traces it, and no package export that no test names."""

import ast
from collections import Counter
from pathlib import Path

import pytest

from cakecut.monotonicity_harness import RULES

from test_traced_names import traced_targets

SOURCES = sorted((Path(__file__).parents[1] / "src" / "cakecut").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree) -> list[str]:
    """Imported names never read.  The library uses postponed annotations,
    so a type named only in an annotation still appears as a Name node."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


# __init__.py imports names only to re-export them
@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_asserts(path):
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert lines == []


def string_literals(tree) -> set[str]:
    """Every string constant, f-string parts included."""
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_cli_names_no_rule():
    cli = next(p for p in SOURCES if p.name == "cli.py")
    assert sorted(string_literals(_tree(cli)) & set(RULES)) == []


KERNEL_NAMES = {"scaled", "_prefix"}


def kernel_reads(tree) -> list[str]:
    """Every attribute, name or import named after the integer
    representation: scaled (the grid's and the density's ints) or _prefix
    (the name of the former prefix evaluator, whose values were in the
    kernel's units; prefix evaluation now runs inside _mark and _value,
    and the name stays refused so such a helper cannot return outside
    cake_measure).  The mark and value entries, _mark and _value, return
    plain rational pairs and may be called anywhere."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in KERNEL_NAMES:
            found.append(f"{name} (line {getattr(node, 'lineno', '?')})")
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "cake_measure.py"],
                         ids=lambda p: p.name)
def test_integer_measure_stays_in_cake_measure(path):
    assert kernel_reads(_tree(path)) == []


def test_kernel_read_finder_sees_attributes_and_imports():
    tree = ast.parse("from .cake_measure import _prefix\n"
                     "s, b = d.grid.scaled\nscaled = 1\n"
                     "at = d._prefix(1, 2)\n")
    assert sorted(kernel_reads(tree)) == [
        "_prefix (line 1)", "_prefix (line 4)", "scaled (line 2)",
        "scaled (line 3)"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _names(node):
    """Every name, attribute and import named inside node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unreferenced_private(trees: dict[str, ast.Module]) -> list[str]:
    """Private (one leading underscore) module-level functions and classes,
    and private methods of module-level classes, that nothing outside their
    own definition names, as a name, an attribute or an import, in any of
    the trees."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if (isinstance(stmt, (*functions, ast.ClassDef))
                    and _private(stmt.name)):
                defined.append((f"{module}:{stmt.name}", stmt))
            if isinstance(stmt, ast.ClassDef):
                defined += [(f"{module}:{stmt.name}.{method.name}", method)
                            for method in stmt.body
                            if isinstance(method, functions)
                            and _private(method.name)]
    return _named_only_inside(defined, trees)


def _named_only_inside(defined, trees) -> list[str]:
    """The labels of the (label, definition) pairs whose name nothing
    outside the definition names in any of the trees."""
    named = Counter(name for tree in trees.values() for name in _names(tree))
    return sorted(label for label, d in defined
                  if named[d.name] == Counter(_names(d))[d.name])


def test_every_private_helper_has_a_library_caller():
    assert unreferenced_private({p.name: _tree(p) for p in SOURCES}) == []


def test_private_helper_finder_sees_callers_in_other_modules():
    trees = {
        "a.py": ast.parse("def _used(): pass\n"
                          "def _recursive(): return _recursive()\n"
                          "class _Left: pass\n"
                          "def __dunder__(): pass\n"),
        "b.py": ast.parse("from a import _used\n"),
    }
    assert unreferenced_private(trees) == ["a.py:_Left", "a.py:_recursive"]


def test_private_helper_finder_sees_methods():
    trees = {
        "a.py": ast.parse("class Public:\n"
                          "    def _used(self): return self._inner()\n"
                          "    def _inner(self): pass\n"
                          "    def _dead(self): pass\n"
                          "    def _recursive(self): return self._recursive()\n"
                          "    def __init__(self): pass\n"
                          "    def public(self): pass\n"
                          "class _Private:\n"
                          "    def _dead(self): pass\n"),
        "b.py": ast.parse("Public()._used()\n_Private\n"),
    }
    assert unreferenced_private(trees) == ["a.py:Public._dead",
                                           "a.py:Public._recursive",
                                           "a.py:_Private._dead"]


def uncalled_public_methods(trees: dict[str, ast.Module]) -> list[str]:
    """Public methods (no leading underscore) of module-level classes
    that nothing outside their own definition names, as a name, an
    attribute or an import, in any of the trees."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = [(f"{module}:{stmt.name}.{method.name}", method)
               for module, tree in trees.items() for stmt in tree.body
               if isinstance(stmt, ast.ClassDef)
               for method in stmt.body
               if isinstance(method, functions)
               and not method.name.startswith("_")]
    return _named_only_inside(defined, trees)


def test_every_public_method_has_a_library_caller_or_is_traced(monkeypatch):
    """A public method that no library code calls is either measured by
    the benchmark or left behind by a replaced algorithm."""
    uncalled = uncalled_public_methods({p.name: _tree(p) for p in SOURCES})
    traced = {f"{module.__name__.rpartition('.')[2]}.py:{attr}"
              for _, module, attr, _ in traced_targets(monkeypatch)}
    assert sorted(set(uncalled) - traced) == []


def test_public_method_finder_sees_callers_and_recursion():
    trees = {
        "a.py": ast.parse("class Public:\n"
                          "    def used(self): return self.inner()\n"
                          "    def inner(self): pass\n"
                          "    def dead(self): pass\n"
                          "    def recursive(self): return self.recursive()\n"
                          "    def _private(self): pass\n"
                          "    def __init__(self): pass\n"),
        "b.py": ast.parse("Public().used()\n"),
    }
    assert uncalled_public_methods(trees) == ["a.py:Public.dead",
                                              "a.py:Public.recursive"]


def exported_names(tree) -> list[str]:
    """Every name a module imports from another: the package's exports."""
    return [alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_every_export_is_named_in_a_test():
    init = next(p for p in SOURCES if p.name == "__init__.py")
    exports = exported_names(_tree(init))
    named = {name for path in Path(__file__).parent.glob("*.py")
             for name in _names(_tree(path))}
    assert exports and sorted(set(exports) - named) == []


def test_string_literal_finder_sees_f_string_parts():
    tree = ast.parse('x = ("a", f"b{x}c", 3)\n')
    assert string_literals(tree) == {"a", "b", "c"}


def test_unused_import_finder_sees_unused_and_used_names():
    tree = ast.parse("import os\nfrom typing import Optional, Sequence\n"
                     "def f(x: Optional[int]) -> 'os': return Sequence\n")
    assert unused_imports(tree) == ["os (line 1)"]


def test_sources_found():
    assert {"__init__.py", "divisions.py", "rules_monotone.py"} <= {
        p.name for p in SOURCES}
