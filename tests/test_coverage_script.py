"""scripts/coverage.py's tracer and line accounting on a small module."""

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "coverage_script", os.path.join(ROOT, "scripts", "coverage.py"))
coverage_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coverage_script)

MODULE = '''"""Doc."""


def sign(x):
    if x < 0:
        return -1
    return 1


class Box:
    def unused(self):
        return 0
'''


def test_unrun_lines_are_the_branch_and_method_not_taken(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(MODULE)
    (pkg / "notes.txt").write_text("not python\n")
    sys.path.insert(0, str(pkg))
    tracer = coverage_script.LineTracer(str(pkg))
    tracer.start()
    try:
        import mod
        assert mod.sign(3) == 1
    finally:
        tracer.stop()
        sys.path.remove(str(pkg))
        sys.modules.pop("mod", None)
    missed, total = coverage_script.unrun_lines(str(pkg), tracer.hits)
    assert [line for _, line in missed] == [6, 12]
    assert total == len(coverage_script.executable_lines(str(pkg / "mod.py")))
    assert sys.gettrace() is not tracer
