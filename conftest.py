"""Repository-wide pytest fixtures."""

import glob
import os

import pytest

ROOT = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="session", autouse=True)
def remove_bench_trace_files():
    """Delete the span files that the traced runs of ``bench/test_smoke.py``
    write to ``.bench_work/`` once the session ends. Only files named after
    this process are removed, so a benchmark running alongside keeps its own."""
    yield
    pattern = os.path.join(ROOT, ".bench_work", f"trace-*-p{os.getpid()}.jsonl")
    for path in glob.glob(pattern):
        os.remove(path)
