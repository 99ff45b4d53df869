"""The benchmark's traced layers and command lines fit fmest."""

import importlib
import importlib.util
import sys
from pathlib import Path

import fmest
from fmest.cli import build_parser
from fmest.simulation import read_scenario_config

FMBENCH = Path(__file__).resolve().parents[1] / "fmbench"


def _load(monkeypatch, name: str):
    """The module ``fmbench/<name>.py``, loaded without running the benchmark."""
    spec = importlib.util.spec_from_file_location(f"fmbench_{name}", FMBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(monkeypatch):
    """Each layer of fmbench/spans.py except the sampler, which is wrapped on
    return, is an attribute of its fmest module, so deleting or renaming a
    traced function fails here and not only in the benchmark's own tests."""
    spans = _load(monkeypatch, "spans")
    missing = []
    for layer in spans.LAYERS:
        if layer.name == spans.SAMPLER:
            continue
        module_name, func = layer.name.split(".")
        if not callable(getattr(importlib.import_module(f"fmest.{module_name}"), func, None)):
            missing.append(layer.name)
    assert not missing


def test_every_workload_command_line_parses(monkeypatch, tmp_path):
    """The CLI accepts each workload's arguments at the small size, where
    fanova still passes --mixture-draws, and the scenario file of a simulate
    workload parses, so deleting a flag or key the benchmark passes fails
    here and not only in the benchmark run."""
    workloads = _load(monkeypatch, "workloads")
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        args = build_parser().parse_args(workload.prepare(fmest, work, 1, workloads.SMALL).argv)
        if args.command == "simulate":
            read_scenario_config(args.config)
