"""Checks on the package source itself, read with the standard ast module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "macdaha"


def unused_imports(source):
    """Names an import binds in source that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_detected():
    source = "import math, os.path\nfrom .qfield import CR_ONE, qnum as qn\nx = qn(math.pi)\n"
    assert unused_imports(source) == ["CR_ONE", "os"]


def test_no_unused_imports_in_package():
    # __init__.py re-exports the public names it imports.
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def function_imports(source):
    """Names of the functions in source whose body contains an import."""
    tree = ast.parse(source)
    return sorted(fn.name for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(isinstance(node, (ast.Import, ast.ImportFrom))
                          for stmt in fn.body for node in ast.walk(stmt)))


def test_function_imports_detected():
    source = ("import math\n"
              "def f():\n    from .qfield import qnum\n    return qnum(1)\n"
              "def g():\n    def h():\n        import os\n    return math.pi\n"
              "class C:\n    def m(self):\n        return 1\n")
    assert function_imports(source) == ["f", "g", "h"]


def test_no_imports_inside_functions():
    found = {path.name: function_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
