"""The benchmark tracer wraps package functions by name; every name it lists
must still resolve, or ``bench/run.py --trace 1`` breaks."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    # loaded from its file and kept out of sys.modules: nothing is installed
    spec = importlib.util.spec_from_file_location("xview_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_the_package():
    tracer = _tracer_module()
    assert tracer.TRACED and tracer.TRACED_METHODS
    for module, function, _kind, _recursive in tracer.TRACED:
        home = importlib.import_module(f"xview.{module}")
        assert callable(getattr(home, function, None)), f"xview.{module}.{function}"
    for module, cls, method, _kind in tracer.TRACED_METHODS:
        owner = getattr(importlib.import_module(f"xview.{module}"), cls, None)
        assert owner is not None, f"xview.{module}.{cls}"
        # the tracer reads the method off the class's own dict
        assert callable(vars(owner).get(method)), f"xview.{module}.{cls}.{method}"
