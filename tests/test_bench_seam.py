"""The benchmark times layers by replacing names in the modules that call
them (bench/spans.py, TRACED); every traced name must exist there and be
called, or its layer would read 0 without any error."""

import functools
import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture()
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(spans):
    assert spans.TRACED
    for module, attr, _span, _counts in spans.TRACED:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"


def test_traced_names_are_called(spans, monkeypatch, tmp_path):
    calls: Counter = Counter()

    def counting(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    traced = [(module, attr) for module, attr, _span, _counts in spans.TRACED]
    for module, attr in traced:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, counting((module, attr), getattr(mod, attr)))

    from otnplan import oracle
    from otnplan.cli import RunRequest, run_cli
    from otnplan.instance import load_instance
    from otnplan.modes import SurvivabilityMode

    path = tmp_path / "ring4.json"
    path.write_text(json.dumps({
        "nodes": [0, 1, 2, 3],
        "links": [[0, 1], [1, 2], [2, 3], [3, 0]],
        "params": {"C": 10, "W": 32, "Q": 1, "T": 6},
        "cost_ratio": "CR1",
        "demands": [{"s": 0, "d": 2, "b": 10}, {"s": 1, "d": 3, "b": 4}],
    }), encoding="utf-8")
    out = str(tmp_path / "out")
    for request in (
            RunRequest(str(path), mode="single-layer", gap=0.0, output_dir=out,
                       verify=True),
            RunRequest(str(path), approach="integrated", gap=0.0, output_dir=out),
            RunRequest(str(path), emit_lp=True, output_dir=out)):
        assert run_cli(request) == 0, request
    oracle.brute_force_optimum(load_instance(path, SurvivabilityMode.SINGLE_LAYER))

    missing = [f"{module}.{attr}" for module, attr in traced if not calls[(module, attr)]]
    assert not missing
