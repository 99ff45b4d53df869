"""The benchmark's traced layers and command lines fit fmest."""

import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np

import fmest
from conftest import random_partial_dataset
from fmest import inference
from fmest.cli import build_parser
from fmest.losses import ScaledHuber
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


def test_split_ensemble_spans_nest_on_the_calling_thread(monkeypatch):
    """The tracer keeps one span stack, so traced layers must be entered on
    the thread that runs the traced call.  An ensemble split across 2 CPUs
    starts a thread, yet enters every traced layer on the main thread; its
    spans nest, with no negative self time, and sum to the root span."""
    spans = _load(monkeypatch, "spans")
    monkeypatch.setattr(inference, "PART_MIN", 1)
    monkeypatch.setattr(inference, "_usable_cpus", lambda: 2)
    tracer = spans.Tracer()
    wrap, entered, started = tracer.wrap, [], []

    def recording_wrap(name, fn, work=None):
        traced = wrap(name, fn, work)

        def entry(*args, **kwargs):
            entered.append((name, threading.current_thread()))
            return traced(*args, **kwargs)

        return entry

    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(tracer, "wrap", recording_wrap)
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    ds = random_partial_dataset(np.random.default_rng(3), n=12, J=6)
    with tracer.tracing():
        wrap(spans.ROOT, lambda: inference.bootstrap_ensemble(ds, ScaledHuber(3.0), 300, 8))()
    assert len(started) == 1
    assert {"estimator.solve_locations", "estimator.mad_cutoffs"} <= {n for n, _ in entered}
    assert {t for _, t in entered} == {threading.main_thread()}
    assert min(spans.self_times(tracer.spans)) >= 0
    assert spans.accounting_errors(tracer.spans) == []
