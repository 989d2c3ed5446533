"""Every name a siegelq module imports is used in that module, and every
module-level private function is referenced somewhere in the package.

No linter ships with the package, so this walks the syntax tree: a name
bound by an import must occur as a name somewhere else in the module (an
attribute access counts through its leftmost name).  The package
__init__ is exempt, since its imports are the public re-exports.

A private function (a module-level def whose name starts with one
underscore) is referenced if some other top-level statement of any
package module names it: as a name, an attribute or an imported name.
Calls from its own body do not count.

No module calls json.dump or json.dumps: every output goes through the
one writer, qexpansion.json_text, so the package has one encoder and one
byte format.

No module but halfint checks an integer argument by hand with
"if not is_int(": every such check is halfint.require_int, so the
package has one rule and one message for a rejected integer.

No module but halfint compares a row's length by hand with
"len(row) != ": every matrix argument is read by halfint.square_matrix,
so the package has one rule and one message for a malformed matrix.

No module but halfint computes a modular inverse with "pow(x, -1, p)":
every inverse mod p comes from halfint.row_reduce, so the package has
one Gauss-Jordan elimination, over F_p only.  No module calls
row_reduce or mat_inverse without a prime argument, by position or as
p=: nothing asks for Gauss-Jordan over Q, and a lattice's level comes
from halfint.adjugate in integers.

No module but halfint updates a matrix entry in place as an elimination
step does, "a[k][l] -= ...": the integer quadratic completion of the
short-vector search comes from halfint.psd_rows, so every fraction-free
elimination of the package is in halfint, bareiss for determinants and
psd_rows for definiteness and completions.

No module raises a hand-written series error ("degree mismatch", "shape
mismatch", "expected a FourierExpansion", "... scalar expansion"): every
series argument is read by qexpansion.require_expansion, so the package
has one rule and one message, naming the argument, for a rejected
series.

No module but qexpansion and theta wraps a series with "_trusted(":
every series that diffops, padic and cli return comes from qexpansion
(the ring operations, _decode and _blocks) or from theta, so coefficient
values are made in one place.

No module but qexpansion calls "_decode(" or "_keys(": packed terms are
decoded only there, a scalar result by _decode and a block result by
_blocks, each key once through _keys, so diffops hands packed entries to
_blocks unread.

Importing siegelq.cli loads no module that a bare interpreter does not
already load from dataclasses, inspect, ast, dis and tokenize: those
cost several milliseconds and about a megabyte in every process, and
the package needs none of them.

No module but halfint builds an identity by hand, "1 if i == j else 0",
or fills a symmetric matrix by hand, "g[i][j] = g[j][i]": every identity
is halfint.identity and every symmetric matrix from its upper triangle
is halfint.symmetric, so the package has one builder of each.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import siegelq

PACKAGE = sorted(Path(siegelq.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _referenced(statement):
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_private_functions(sources):
    """(module, name) of each module-level private def in the mapping
    module -> source that no other top-level statement references."""
    statements = [(module, statement) for module, source in sources.items()
                  for statement in ast.parse(source).body]
    out = []
    for module, statement in statements:
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = statement.name
        if not name.startswith("_") or name.startswith("__"):
            continue
        if not any(name in _referenced(other)
                   for _, other in statements if other is not statement):
            out.append((module, name))
    return sorted(out)


DUMPERS = {"dump", "dumps"}


def json_dump_calls(source):
    """Lines of the calls of json.dump or json.dumps in source, through
    any name the json module or either function is bound to."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name
                           for alias in node.names if alias.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions.update(alias.asname or alias.name
                             for alias in node.names if alias.name in DUMPERS)
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in DUMPERS
                and isinstance(func.value, ast.Name) and func.value.id in modules
                or isinstance(func, ast.Name) and func.id in functions):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_sees_unused_and_used_names():
    source = ("import json\nimport os.path\nfrom math import comb, lcm as l\n"
              "print(os.path.sep, l(2, 3))\n")
    assert unused_imports(source) == [(1, "json"), (3, "comb")]


def test_checker_sees_unreferenced_private_functions():
    sources = {
        "a": ("def _local():\n    pass\n\n"
              "def _shared():\n    pass\n\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n\n"
              "def _dead():\n    pass\n\n"
              "def public():\n    return _local()\n\n"
              "def __dunder__():\n    pass\n"),
        "b": "from .a import _shared\n",
    }
    assert unreferenced_private_functions(sources) == [
        ("a", "_dead"), ("a", "_recursive")]


def test_checker_sees_json_dump_calls():
    source = ("import json\nimport json as j\nfrom json import dumps as d\n"
              "json.dumps(1)\nj.dump(1, f)\nd(1)\njson.loads('1')\n"
              "def dumps(f):\n    return f\ndumps(1)\nx.dumps(1)\n")
    assert json_dump_calls(source) == [4, 5, 6]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_one_json_writer(path):
    assert json_dump_calls(path.read_text(encoding="utf-8")) == []


HAND_INT_CHECK = re.compile(r"if not is_int\(")


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "halfint.py"],
                         ids=lambda p: p.name)
def test_one_integer_rule(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [n for n, line in enumerate(lines, 1) if HAND_INT_CHECK.search(line)] == []


HAND_ROW_CHECK = re.compile(r"len\(row\) != ")


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "halfint.py"],
                         ids=lambda p: p.name)
def test_one_matrix_rule(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [n for n, line in enumerate(lines, 1) if HAND_ROW_CHECK.search(line)] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_unreferenced_private_functions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_private_functions(sources) == []


MODULAR_INVERSE = re.compile(r"pow\([^()]*, -1,")


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "halfint.py"],
                         ids=lambda p: p.name)
def test_one_elimination(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [n for n, line in enumerate(lines, 1) if MODULAR_INVERSE.search(line)] == []


PRIME_TAKERS = {"row_reduce", "mat_inverse"}


def calls_without_prime(source):
    """Lines of the calls of row_reduce or mat_inverse, by name or as an
    attribute, that pass neither a second positional argument nor p=."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if (name in PRIME_TAKERS and len(node.args) < 2
                and not any(k.arg == "p" for k in node.keywords)):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_sees_calls_without_prime():
    source = ("row_reduce(m, p)\n"
              "halfint.mat_inverse(a, 3)\n"
              "mat_inverse(m)\n"
              "x = halfint.row_reduce(rows)\n"
              "mat_inverse(m, p=q)\n"
              "def row_reduce(rows, p):\n"
              "    return [row_reduce(r) for r in rows]\n"
              "reduce(m)\n")
    assert calls_without_prime(source) == [3, 4, 7]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_gauss_jordan_only_mod_p(path):
    assert calls_without_prime(path.read_text(encoding="utf-8")) == []


ELIMINATION_STEP = re.compile(r"\w+\[\w+\]\[\w+\] -= ")


def test_checker_sees_elimination_steps():
    source = ("a[k][l] -= a[i][k] * a[i][l] / c\n"
              "a[k][l] = a[k][l] - x\n"
              "row[j] -= 1\n"
              "m[i + 1][j] -= 1\n"
              "    acc[i][j] -= t\n")
    lines = source.splitlines()
    assert [n for n, line in enumerate(lines, 1) if ELIMINATION_STEP.search(line)] == [1, 5]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "halfint.py"],
                         ids=lambda p: p.name)
def test_one_fraction_free_elimination(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [n for n, line in enumerate(lines, 1) if ELIMINATION_STEP.search(line)] == []


HAND_SERIES_CHECK = re.compile(
    r'raise \w+Error\("(degree mismatch|shape mismatch|expected a FourierExpansion'
    r'|[^"]*scalar expansion)')


def test_checker_sees_hand_written_series_checks():
    source = ('raise ValueError("degree mismatch")\n'
              'raise ValueError("shape mismatch")\n'
              'raise TypeError("expected a FourierExpansion")\n'
              'raise ValueError("theta operator needs a scalar expansion")\n'
              'raise ValueError("powers are defined for scalar expansions only")\n'
              'raise ValueError("key degree mismatch")\n'
              'raise TypeError("%s: expected a FourierExpansion, got %r" % (name, f))\n'
              'raise ValueError("degree or prime mismatch")\n')
    lines = source.splitlines()
    assert [n for n, line in enumerate(lines, 1)
            if HAND_SERIES_CHECK.search(line)] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_one_expansion_rule(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [n for n, line in enumerate(lines, 1) if HAND_SERIES_CHECK.search(line)] == []


HAND_IDENTITY = re.compile(r"1 if \w+ == \w+ else 0")
HAND_SYMMETRIC_FILL = re.compile(r"(\w+)\[(\w+)\]\[(\w+)\] = \1\[\3\]\[\2\]")


def hand_built_matrices(lines):
    return [n for n, line in enumerate(lines, 1)
            if HAND_IDENTITY.search(line) or HAND_SYMMETRIC_FILL.search(line)]


def test_checker_sees_hand_built_matrices():
    source = ("row = [1 if c == k else 0 for c in range(n)]\n"
              "g[i][j] = g[j][i] = key[at]\n"
              "d[i][j] = v\n"
              "g[i][j] = h[j][i]\n"
              "x = 2 if i == j else 0\n"
              "    m[a][b] = m[b][a]\n"
              "s[i][j] - (1 if i == j else 0)\n")
    assert hand_built_matrices(source.splitlines()) == [1, 2, 6, 7]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "halfint.py"],
                         ids=lambda p: p.name)
def test_one_identity_and_symmetric_builder(path):
    assert hand_built_matrices(path.read_text(encoding="utf-8").splitlines()) == []


TRUSTED_CALL = re.compile(r"\b_trusted\(")
SERIES_MAKERS = {"qexpansion.py", "theta.py"}


def trusted_calls(lines):
    return [n for n, line in enumerate(lines, 1) if TRUSTED_CALL.search(line)]


def test_checker_sees_trusted_calls():
    source = ("return _trusted(h.degree, h.trace_bound, coeffs)\n"
              "x = qexpansion._trusted(1, 2, {})\n"
              "from .qexpansion import _trusted, json_fields\n"
              "def _trusted_entries(f):\n"
              "y = untrusted(1)\n"
              "    out = [_trusted(d, b, c) for c in cs]\n")
    assert trusted_calls(source.splitlines()) == [1, 2, 6]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name not in SERIES_MAKERS],
                         ids=lambda p: p.name)
def test_series_made_in_one_place(path):
    assert trusted_calls(path.read_text(encoding="utf-8").splitlines()) == []


DECODE_CALL = re.compile(r"\b_(decode|keys)\(")


def decode_calls(lines):
    return [n for n, line in enumerate(lines, 1) if DECODE_CALL.search(line)]


def test_checker_sees_decode_calls():
    source = ("return _decode(_pair_loop(products, n, bound), n, bound, None, None)\n"
              "keys = qexpansion._keys(codes, degree, bound)\n"
              "from .qexpansion import _decode, _keys\n"
              "def _decode_all(packed):\n"
              "x = decode(packed)\n"
              "    for k in _keys(codes, 2, 3):\n")
    assert decode_calls(source.splitlines()) == [1, 2, 6]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "qexpansion.py"],
                         ids=lambda p: p.name)
def test_keys_decoded_in_one_place(path):
    assert decode_calls(path.read_text(encoding="utf-8").splitlines()) == []


HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def loaded(statement):
    """Which HEAVY modules a fresh interpreter has loaded after statement."""
    src = str(Path(siegelq.__file__).parent.parent)
    script = statement + "\nimport sys\nprint(*[m for m in %r if m in sys.modules])" % (HEAVY,)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    return set(done.stdout.decode().split())


def test_cli_import_loads_no_heavy_module():
    assert loaded("import siegelq.cli") <= loaded("pass")
