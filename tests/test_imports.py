"""Every name a module imports is used in it, over the package and the
tests, and every module-level private function of the package is read by
some code in the repository: stand-ins for a linter's unused-import and
dead-code checks. Every public op of ``pkge.tensor`` has a caller in the
package, bar a named few that tests use. No package module reads the
process environment, so every option is a flag or a config-file key, and no
package module imports inside a function, so the module import graph is the
whole of it. No package function takes a ``training`` flag: the dropout
stream is the only dropout switch."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "pkge", "*.py")))
MODULES = PACKAGE + sorted(glob.glob(os.path.join(ROOT, "tests", "*.py")))
# Code that may read a package function: the package, tests, scripts, bench.
READERS = MODULES + sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py"))
                           + glob.glob(os.path.join(ROOT, "bench", "*.py")))


def unused_imports(source):
    """Names bound by import statements in ``source`` that no expression
    reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_unused_import():
    source = "import os\nimport sys\nfrom a import b, c as d\n__all__ = ['d']\nsys.exit()\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[os.path.relpath(p, ROOT) for p in MODULES])
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def _names_read(node):
    """Names ``node`` reads: loaded names, attributes and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unused_private_functions(package, readers):
    """(path, line, name) of each module-level ``_function`` defined in the
    ``package`` sources that no ``readers`` source reads outside its own
    body. Both arguments map a path to its source."""
    read = set()
    for source in readers.values():
        for stmt in ast.parse(source).body:
            names = _names_read(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.discard(stmt.name)    # recursion is not a use
            read |= names
    return sorted(
        (path, stmt.lineno, stmt.name)
        for path, source in package.items()
        for stmt in ast.parse(source).body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and stmt.name not in read)


def test_detects_unused_private_function():
    pkg = {"a.py": "def _called():\n    pass\n\n"
                   "def _dead():\n    return _dead()\n\n"
                   "def _imported():\n    pass\n\n"
                   "def _attribute():\n    pass\n\n"
                   "def __getattr__(name):\n    pass\n\n"
                   "class C:\n    def _method(self):\n        pass\n\n"
                   "def public():\n    return _called()\n"}
    readers = dict(pkg, **{"b.py": "from a import _imported\n",
                           "c.py": "import a\na._attribute()\n"})
    assert unused_private_functions(pkg, readers) == [("a.py", 4, "_dead")]


def sources(paths):
    """Map each path, relative to the repository root, to its source."""
    out = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out[os.path.relpath(path, ROOT)] = fh.read()
    return out


def test_no_unused_private_functions():
    assert unused_private_functions(sources(PACKAGE), sources(READERS)) == []


def unused_public_functions(name, package):
    """(line, function) of each public module-level function of the package
    module ``name`` that no package code reads. ``package`` maps module names
    to sources. A read is a name the module itself loads outside the
    function's own body, or, in another module, an import of the function
    from ``name`` or an attribute of a name bound to ``name``."""
    tree = ast.parse(package[name])
    read = set()
    for stmt in tree.body:
        loads = {node.id for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            loads.discard(stmt.name)    # recursion is not a use
        read |= loads
    for other, source in package.items():
        if other == name:
            continue
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == name):
                read.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id == name):
                read.add(node.attr)
    return [(stmt.lineno, stmt.name) for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not stmt.name.startswith("_") and stmt.name not in read]


def test_detects_unused_public_function():
    package = {"ops": "def imported():\n    pass\n\n"
                      "def attribute():\n    pass\n\n"
                      "def helper():\n    pass\n\n"
                      "def dead():\n    return dead() + helper()\n\n"
                      "def numpy_named():\n    pass\n\n"
                      "def _private():\n    pass\n",
               "model": "import numpy as np\nfrom . import ops\n"
                        "from .ops import imported\n"
                        "ops.attribute()\nnp.numpy_named()\n"}
    assert unused_public_functions("ops", package) == [
        (10, "dead"), (13, "numpy_named")]


# Public ops of ``pkge.tensor`` with no caller in the package. The ops only
# tests use live in ``tests/reference_ops.py``.
TENSOR_OPS_KEPT_FOR_TESTS = set()


def test_every_tensor_op_has_a_package_caller():
    package = {os.path.splitext(os.path.basename(path))[0]: source
               for path, source in sources(PACKAGE).items()}
    unused = {name for _, name in unused_public_functions("tensor", package)}
    assert unused == TENSOR_OPS_KEPT_FOR_TESTS


ENV_READERS = ("environ", "environb", "getenv", "getenvb")


def environment_reads(source):
    """(line, name) of each read of the process environment in ``source``:
    ``os.environ`` or ``os.getenv`` through any name bound to ``os``, and
    those names imported from ``os``."""
    tree = ast.parse(source)
    os_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os":
                    os_names.add(alias.asname or "os")
                elif alias.name.startswith("os.") and not alias.asname:
                    os_names.add("os")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in ENV_READERS]
        elif (isinstance(node, ast.Attribute) and node.attr in ENV_READERS
              and isinstance(node.value, ast.Name)
              and node.value.id in os_names):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_detects_environment_reads():
    source = ("import os\nimport os as o\nimport os.path\n"
              "from os import environ, path\nfrom os import getenv as g\n"
              "x = os.environ.get('A')\ny = o.getenv('B')\n"
              "z = os.path.join('a')\nenv = {}.get('environ')\n"
              "class C:\n    environ = 1\nw = C.environ\n")
    assert environment_reads(source) == [
        (4, "environ"), (5, "getenv"), (6, "environ"), (7, "getenv")]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[os.path.relpath(p, ROOT) for p in PACKAGE])
def test_package_reads_no_environment(path):
    with open(path, encoding="utf-8") as fh:
        assert environment_reads(fh.read()) == []


def function_imports(source):
    """(line, function) of each import statement inside a function body of
    ``source``, naming the outermost function that holds it."""
    found = {}
    for node in ast.walk(ast.parse(source)):    # breadth first: outer first
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    found.setdefault(sub.lineno, node.name)
    return sorted(found.items())


def test_detects_function_imports():
    source = ("import os\n\ndef f():\n    import sys\n"
              "    def g():\n        from a import b\n\n"
              "class C:\n    async def m(self):\n        import json\n\n"
              "if os:\n    import re\n")
    assert function_imports(source) == [(4, "f"), (6, "f"), (10, "m")]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[os.path.relpath(p, ROOT) for p in PACKAGE])
def test_package_imports_at_module_level(path):
    with open(path, encoding="utf-8") as fh:
        assert function_imports(fh.read()) == []


def training_parameters(source):
    """(line, function) of each function or lambda in ``source`` that takes a
    parameter named ``training``: dropout runs exactly when a forward is
    handed a dropout stream, so no flag may say it a second time."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            if any(p.arg == "training" for p in params):
                found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return sorted(found)


def test_detects_training_parameters():
    source = ("def f(x, training):\n    pass\n\n"
              "class C:\n    def m(self, *, training=False):\n        pass\n\n"
              "    def ok(self, rng=None):\n        training = 1\n\n"
              "g = lambda training=True: training\n")
    assert training_parameters(source) == [(1, "f"), (5, "m"), (11, "<lambda>")]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[os.path.relpath(p, ROOT) for p in PACKAGE])
def test_package_takes_no_training_flag(path):
    with open(path, encoding="utf-8") as fh:
        assert training_parameters(fh.read()) == []
