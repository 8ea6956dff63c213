"""Every name a fraug module imports at module level is used in its code."""

import ast
from pathlib import Path

import pytest

import fraug

MODULES = sorted(p for p in Path(fraug.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    # A docstring is an ast.Constant, so a name mentioned only there is unused.
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert _unused_imports(path.read_text()) == []


def test_a_name_only_in_a_docstring_counts_as_unused():
    source = ('import math\nfrom os import sep\n\n'
              'def f():\n    """Uses sep."""\n    return math.pi\n')
    assert _unused_imports(source) == ["sep (line 2)"]
