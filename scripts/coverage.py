#!/usr/bin/env python3
"""List the lines of ``src/pkge`` that no in-process test runs.

    python3 scripts/coverage.py

Runs the test suite (``pytest`` from the repository root, without gates P6
and P9, which take most of its time) under a ``sys.settrace`` tracer that records each line executed in a
``src/pkge`` file. Then prints every executable line no test ran, as
``path:line: source``, and their count. Code that runs only in a subprocess,
such as ``__main__.py`` and ``cli.py``'s ``sys.exit(main())``, is not traced
and so is listed. Tracing about doubles the suite's time, so this is a tool
to run by hand, not a test. Exits with pytest's status.
"""

import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "pkge")
SKIPPED_GATES = ("tests/test_acceptance.py::test_p06_benchmark_parity",
                 "tests/test_acceptance.py::test_p09_relation_dim_robustness")


def executable_lines(path):
    """Line numbers of ``path`` that hold bytecode, over every code object
    the module compiles to."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        # Line 0 holds a module's preamble (RESUME in CPython 3.11), no source.
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


class LineTracer:
    """Records ``(realpath, line)`` for each line run in files under
    ``directory``; other frames are not traced line by line."""

    def __init__(self, directory):
        self.directory = os.path.realpath(directory) + os.sep
        self.hits = set()
        self._inside = {}

    def _wanted(self, filename):
        path = self._inside.get(filename)
        if path is None:
            real = os.path.realpath(filename)
            path = self._inside[filename] = (
                real if real.startswith(self.directory) else "")
        return path

    def __call__(self, frame, event, arg):
        path = self._wanted(frame.f_code.co_filename)
        if not path:
            return None
        hits = self.hits

        def local(frame, event, arg):
            if event == "line":
                hits.add((path, frame.f_lineno))
            return local
        # A frame's first line event comes after its call event; the def line
        # of a function runs as a call.
        hits.add((path, frame.f_lineno))
        return local

    def start(self):
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self)
        sys.settrace(self)

    def stop(self):
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])


def unrun_lines(directory, hits):
    """Sorted ``(path, line)`` of each executable line in ``directory``'s
    ``.py`` files absent from ``hits``, and the number of executable lines."""
    missed, total = [], 0
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(directory, name))
        lines = executable_lines(path)
        total += len(lines)
        missed += [(path, line) for line in sorted(lines)
                   if (path, line) not in hits]
    return missed, total


def main():
    os.chdir(ROOT)
    tracer = LineTracer(PACKAGE)
    argv = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    for test in SKIPPED_GATES:
        argv += ["--deselect", test]
    tracer.start()
    try:
        status = pytest.main(argv)
    finally:
        tracer.stop()
    missed, total = unrun_lines(PACKAGE, tracer.hits)
    sources = {}
    for path, line in missed:
        if path not in sources:
            with open(path, encoding="utf-8") as fh:
                sources[path] = fh.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        print(f"{rel}:{line}: {sources[path][line - 1].strip()}")
    print(f"{len(missed)} of {total} executable lines in "
          f"{os.path.relpath(PACKAGE, ROOT)} run in no in-process test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
