"""The benchmark's traced layers name functions that exist in fmest."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "fmbench" / "spans.py"


def test_every_traced_layer_resolves(monkeypatch):
    """Each layer of fmbench/spans.py except the sampler, which is wrapped on
    return, is an attribute of its fmest module, so deleting or renaming a
    traced function fails here and not only in the benchmark's own tests."""
    spec = importlib.util.spec_from_file_location("fmbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    missing = []
    for layer in spans.LAYERS:
        if layer.name == spans.SAMPLER:
            continue
        module_name, func = layer.name.split(".")
        if not callable(getattr(importlib.import_module(f"fmest.{module_name}"), func, None)):
            missing.append(layer.name)
    assert not missing
