"""Every name a module imports is used in it: a stand-in for a linter's
unused-import check, over the package and the tests."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "pkge", "*.py"))
                 + glob.glob(os.path.join(ROOT, "tests", "*.py")))


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
