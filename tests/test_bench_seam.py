"""The benchmark times layers by replacing names in the modules that call
them (bench/spans.py, TRACED); every traced name must exist there."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_traced_names_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, attr, _span, _counts in spans.TRACED:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"
