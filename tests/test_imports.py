"""Every name a siegelq module imports is used in that module.

No linter ships with the package, so this walks the syntax tree: a name
bound by an import must occur as a name somewhere else in the module (an
attribute access counts through its leftmost name).  The package
__init__ is exempt, since its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

import siegelq

MODULES = sorted(p for p in Path(siegelq.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_sees_unused_and_used_names():
    source = ("import json\nimport os.path\nfrom math import comb, lcm as l\n"
              "print(os.path.sep, l(2, 3))\n")
    assert unused_imports(source) == [(1, "json"), (3, "comb")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
