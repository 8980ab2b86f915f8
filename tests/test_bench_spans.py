"""Every package name that bench/spans.py traces still resolves.

The tracer skips a ``FUNCTION_SPANS`` entry whose attribute is gone, and the
metric of that span then reads 0 without an error. So a rename in the
package must fail here instead."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_spans", os.path.join(ROOT, "bench", "spans.py"))
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("owner, attr", [entry[:2] for entry in spans.FUNCTION_SPANS],
                         ids=[entry[2] for entry in spans.FUNCTION_SPANS])
def test_traced_function_resolves(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"
