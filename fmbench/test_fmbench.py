"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest -q fmbench
"""

from __future__ import annotations

import json
import math

import pytest

import run
import spans
import workloads

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)


def _run(capsys, name: str, trace: int) -> tuple[list, dict]:
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--size", "small"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("name", NAMES)
def test_smoke_prints_every_end_to_end_metric(capsys, name):
    lines, result = _run(capsys, name, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for metric, unit in spec.items():
        line = next(ln for ln in lines if ln.startswith(f"{metric} = "))
        assert line.split()[3] == unit
        assert result["metrics"][metric]["value"] > 0
    failed = next(ln for ln in lines if ln.startswith("failed_frac = "))
    assert float(failed.split()[2]) == 0.0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_layer_metric(capsys, name):
    _, result = _run(capsys, name, trace=1)
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    assert values["cli.main.self_s"] > 0 and values["failed_frac"] == 0
    bypassed = {"trend-scaled": "simulation.run_ise_study.self_s",
                "fanova-huber": "estimator.mad_cutoffs.calls",
                "ise-sim": "inference.bootstrap_ensemble.replicates"}[name]
    assert values[bypassed] == 0


@pytest.mark.parametrize("name", NAMES)
def test_self_times_sum_to_root_span_and_tracing_changes_nothing(tmp_path, name):
    fmest = run.import_fmest()
    prepared = workloads.WORKLOADS[name].prepare(fmest, tmp_path, 5, workloads.SMALL)
    original = fmest.estimator.solve_locations
    _, rc, _, plain = run.call(fmest, prepared.argv, prepared.result)
    tracer = spans.Tracer()
    with tracer.tracing():
        assert fmest.inference.solve_locations is not original
        _, rc_traced, _, traced = run.call(fmest, prepared.argv, prepared.result)
    assert fmest.estimator.solve_locations is original
    assert fmest.inference.solve_locations is original
    assert rc == rc_traced == 0 and plain == traced

    roots = [s for s in tracer.spans if s[1] is None]
    assert [s[3] for s in roots] == [spans.ROOT]
    own = spans.self_times(tracer.spans)
    assert min(own) >= 0
    assert sum(own) == roots[0][5] - roots[0][4]
    assert spans.accounting_errors(tracer.spans) == []


def test_tail_is_highest_percentile_with_ten_calls_beyond():
    times = [float(i) for i in range(1, 21)]
    assert run.tail(times) == (10.0, 50.0, 10)
    assert run.tail(times[:11]) == (1.0, 100.0 / 11, 10)
    assert run.tail([2.0]) == (2.0, 100.0, 0)


def test_reference_p_value_allows_three_monte_carlo_errors():
    ref = {"statistic": 2.0, "p_value": 0.5}
    se = math.sqrt(0.25 / 50_000)
    assert workloads.compare_reference({"statistic": 2.0, "p_value": 0.5 + 2.9 * se}, ref, 50_000) == []
    assert workloads.compare_reference({"statistic": 2.0, "p_value": 0.5 + 3.1 * se}, ref, 50_000)
    assert workloads.compare_reference({"statistic": 2.0 * (1 + 2e-6), "p_value": 0.5}, ref, 50_000)


def test_refuses_to_run_without_the_package(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.import_fmest()
    assert exc.value.code != 0
