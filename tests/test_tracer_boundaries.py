"""The benchmark tracer's patch points exist in the program.

``perfbench/tracer.py`` wraps module attributes by name; a renamed or
removed one would only surface as a failure inside a traced benchmark run.
The tracer is loaded by file path, since ``perfbench`` is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "module, attr", [*tracer.BOUNDARIES, *tracer.COUNTED],
    ids=lambda v: v)
def test_tracer_patch_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
