"""Checks on the package source itself, read with the standard ast module."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "macdaha"


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


def test_no_unused_imports_in_tests():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(TESTS.glob("*.py"))}
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


def _functions(node, prefix=""):
    """(qualified name, node) for every function and method under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, prefix + child.name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


class _OneClassName(ast.NodeTransformer):
    def __init__(self, classes):
        self.classes = classes

    def visit_Name(self, node):
        if node.id in self.classes:
            node.id = "<class>"
        return node


def duplicate_bodies(sources):
    """Groups of functions, across {module name: source}, whose bodies have
    at least 2 statements and are the same AST once a docstring is dropped
    and every class the sources define is read as one name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    rename = _OneClassName(classes)
    groups = {}
    for module, tree in trees.items():
        for name, fn in _functions(tree):
            body = fn.body
            if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            if len(body) < 2:
                continue
            key = "\n".join(ast.dump(rename.visit(stmt)) for stmt in body)
            groups.setdefault(key, []).append(f"{module}.{name}")
    return sorted(sorted(g) for g in groups.values() if len(g) > 1)


def test_duplicate_bodies_detected():
    a = ("class A:\n"
         "    def f(self, n):\n        \"\"\"Doc.\"\"\"\n        x = A(n)\n        return x\n"
         "    def g(self):\n        return 1\n"
         "def h(n):\n    y = A(n)\n    return y\n")
    b = ("class B:\n"
         "    def f(self, n):\n        x = B(n)\n        return x\n"
         "    def g(self):\n        return 1\n"
         "    def k(self, n):\n        x = int(n)\n        return x\n")
    assert duplicate_bodies({"a": a, "b": b}) == [["a.A.f", "b.B.f"]]


def test_no_duplicate_bodies_in_package():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert duplicate_bodies(sources) == []


def unread_definitions(sources):
    """The top-level functions and classes, across {module name: source},
    whose name no other top-level statement of any module reads, as a
    name, an attribute or an imported name (so a re-export counts, and a
    function that only calls itself does not)."""
    definitions, reads = [], []
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(a.name for a in node.names)
            defines = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            reads.append((stmt.name if defines else None, module, names))
            if defines:
                definitions.append((module, stmt.name))
    return sorted(f"{module}.{name}" for module, name in definitions
                  if not any(name in names for own, mod, names in reads
                             if (own, mod) != (name, module)))


def test_unread_definitions_detected():
    a = ("from .b import used\n"
         "def loop(n):\n    return loop(n - 1)\n"
         "def caller():\n    return helper() + B.method()\n"
         "def helper():\n    return 1\n"
         "class B:\n    @staticmethod\n    def method():\n        return 2\n")
    b = ("def used():\n    return 0\n"
         "def orphan():\n    return used()\n"
         "def via_attr():\n    return 3\n"
         "x = b.via_attr\n")
    assert unread_definitions({"a": a, "b": b}) == ["a.caller", "a.loop", "b.orphan"]


def test_every_definition_is_read_in_package():
    # A helper left behind by a removal, unexported, fails here.
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_definitions(sources) == []


def check_dict_builders(source):
    """Qualified names of the functions in source that build a dict literal
    with a "pass" key."""
    return sorted(name for name, fn in _functions(ast.parse(source))
                  if any(isinstance(node, ast.Dict)
                         and any(isinstance(key, ast.Constant) and key.value == "pass"
                                 for key in node.keys)
                         for node in ast.walk(fn)))


def test_check_dict_builders_detected():
    source = ("def _check(name, outcomes):\n    return {\"name\": name, \"pass\": True}\n"
              "def suite(ok):\n    return [{\"name\": \"x\", \"pass\": ok}, {\"pass2\": 1}]\n"
              "def other():\n    return {\"name\": \"pass\"}\n")
    assert check_dict_builders(source) == ["_check", "suite"]


def test_checks_built_only_by_the_check_helper():
    # Every check goes through suites._check, which counts its instances
    # and fails on none; run_suite alone folds checks into a suite report.
    found = {f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in check_dict_builders(path.read_text())}
    assert found == {"suites._check", "suites.run_suite"}
