"""End-to-end command line runs (in-process through main())."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fmest
from conftest import random_partial_dataset
from fmest.cli import main
from fmest.data import Dataset, Grid, PartialCurve, save_csv
from fmest.sampling import generate_masks, parse_scheme


@pytest.fixture
def curves_csv(tmp_path, rng):
    ds = random_partial_dataset(rng, n=12, J=15)
    p = tmp_path / "curves.csv"
    save_csv(ds, p)
    return p, ds


@pytest.fixture
def two_group_csv(tmp_path, rng):
    """Two byte-identical groups, so the group test must come out null."""
    ds = random_partial_dataset(rng, n=10, J=12, group="a")
    twin = Dataset(ds.grid, ds.curves + tuple(
        PartialCurve(c.id + "b", "b", c.values, c.mask) for c in ds.curves
    ))
    p = tmp_path / "groups.csv"
    save_csv(twin, p)
    return p


def test_estimate_writes_fit_and_manifest(tmp_path, curves_csv):
    data, ds = curves_csv
    out = tmp_path / "fit.csv"
    assert main(["estimate", "--data", str(data), "--loss", "huber:0.8",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == ds.grid.size
    assert set(rows[0]) == {"t", "theta", "n_eff", "status"}
    assert all(r["status"] in ("solved", "interpolated") for r in rows)
    manifest = json.loads((tmp_path / "fit.csv.manifest.json").read_text())
    assert manifest["command"] == "estimate"
    assert manifest["config"]["loss"] == "huber:0.8"
    assert str(out) in manifest["outputs"]


def test_estimate_output_is_deterministic(tmp_path, curves_csv):
    data, _ = curves_csv
    out1 = tmp_path / "fit1.csv"
    out2 = tmp_path / "fit2.csv"
    main(["estimate", "--data", str(data), "--loss", "huber-scaled:3", "--out", str(out1)])
    main(["estimate", "--data", str(data), "--loss", "huber-scaled:3", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_fanova_identical_groups_null(tmp_path, two_group_csv, capsys):
    out = tmp_path / "result.json"
    code = main(["fanova", "--data", str(two_group_csv), "--B", "100",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["statistic"] == 0.0
    assert payload["p_value"] >= 0.999
    assert payload["group_labels"] == ["a", "b"]
    assert "mixture_draws" not in payload
    assert "p = " in capsys.readouterr().out
    # the deprecated flag is accepted, ignored and reported on one stderr line
    again = tmp_path / "again.json"
    assert main(["fanova", "--data", str(two_group_csv), "--B", "100",
                 "--mixture-draws", "2000", "--seed", "5", "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--mixture-draws is deprecated" in err
    manifest = json.loads((tmp_path / "again.json.manifest.json").read_text())
    assert "mixture_draws" not in manifest["config"]


def test_fanova_rejects_single_group(tmp_path, curves_csv):
    data, _ = curves_csv
    out = tmp_path / "r.json"
    assert main(["fanova", "--data", str(data), "--B", "100", "--seed", "1",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_trend_run_and_flag(tmp_path, curves_csv, capsys):
    data, _ = curves_csv
    out = tmp_path / "ci.json"
    code = main(["trend", "--data", str(data), "--probe", "constant",
                 "--B", "150", "--seed", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["probe"] == "constant"
    assert payload["lower"] <= payload["upper"]
    assert payload["alpha"] == 0.05
    shown = capsys.readouterr().out
    assert "95% CI" in shown
    if payload["significant"]:
        assert "*" in shown


def test_trend_step_probe(tmp_path, curves_csv):
    data, _ = curves_csv
    out = tmp_path / "ci.json"
    assert main(["trend", "--data", str(data), "--probe", "step:0.4",
                 "--B", "100", "--seed", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["probe"] == "step:0.4"


def test_bad_inputs_exit_2(tmp_path, curves_csv):
    data, _ = curves_csv
    out = tmp_path / "x.out"
    assert main(["estimate", "--data", str(tmp_path / "nope.csv"),
                 "--out", str(out)]) == 2
    assert main(["estimate", "--data", str(data), "--loss", "huber:-1",
                 "--out", str(out)]) == 2
    assert main(["trend", "--data", str(data), "--probe", "septic",
                 "--B", "100", "--seed", "1", "--out", str(out)]) == 2
    # argparse usage failures also map to exit 2
    assert main(["estimate", "--data", str(data)]) == 2
    assert main(["no-such-command"]) == 2


def test_simulate_from_config(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "study = ise\nmodel = model1\nscheme = random-interval:0.3,0.3\n"
        "n = 15\ngrid_size = 25\nlosses = square; huber:0.8\nR = 4\nseed = 77\n",
        encoding="utf-8",
    )
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["metric"] for r in rows} >= {"median_ise"}
    assert all(r["scenario"] == "model1" for r in rows)
    assert "median_ise" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
    assert manifest["config"]["R"] == 4
    assert manifest["seed"] == 77


def test_simulate_size_study(tmp_path):
    cfg = tmp_path / "size.cfg"
    cfg.write_text(
        "study = size\nmodel = model1\nscheme = random-interval:0.3,0.3\n"
        "n = 8\ngrid_size = 15\nlosses = huber:0.8; square\nB = 100\nR = 2\n"
        "shift = 3\nseed = 5\n",
        encoding="utf-8",
    )
    out = tmp_path / "size.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    metrics = ["rejection_rate", "p_value_q25", "p_value_q50", "p_value_q75"]
    assert [(r["estimator"], r["metric"]) for r in rows] == \
        [(loss, m) for loss in ("huber:0.8", "square") for m in metrics]
    assert all(0.0 <= float(r["value"]) <= 1.0 for r in rows)
    manifest = json.loads((tmp_path / "size.csv.manifest.json").read_text())
    assert manifest["config"]["study"] == "size"
    assert manifest["config"]["shift"] == 3.0


def test_simulate_seed_and_thread_overrides(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "study = ise\nmodel = model1\nscheme = complete\n"
        "n = 12\ngrid_size = 20\nlosses = huber:0.8\nR = 3\nseed = 1\n",
        encoding="utf-8",
    )
    outs = []
    for name, extra in [("a.csv", []), ("b.csv", ["--seed", "1", "--threads", "2"]),
                        ("c.csv", ["--seed", "2"])]:
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out)] + extra) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]  # same seed, threads do not matter
    assert outs[0] != outs[2]  # different seed


def test_masks_diagnostics(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert main(["masks", "--scheme", "random-interval:0.3,0.3", "--n", "500",
                 "--grid-size", "60", "--seed", "4", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60
    b_hat = np.array([float(r["b_hat"]) for r in rows])
    b_true = np.array([float(r["b_analytic"]) for r in rows])
    assert np.max(np.abs(b_hat - b_true)) < 0.1
    assert "W_n" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert manifest["config"]["w_n"] > 0


@pytest.mark.parametrize("scheme", ["snippet:0.1", "complete"])
def test_masks_manifest_counts_redraws(tmp_path, scheme):
    """The manifest's ``redraws`` is the count generate_masks reports; on 6
    grid points most snippets of width 0.1 miss every point."""
    out = tmp_path / "b.csv"
    assert main(["masks", "--scheme", scheme, "--n", "40", "--grid-size", "6",
                 "--seed", "8", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    _, redraws = generate_masks(parse_scheme(scheme), 40, Grid.uniform(6), 8,
                                return_redraws=True)
    assert manifest["config"]["redraws"] == redraws
    assert (redraws > 0) == (scheme != "complete")


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "fmest" in capsys.readouterr().out


# -- scipy stays off the import path --------------------------------------------

_SCIPY_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
argv = json.loads(sys.argv[2])
if argv:
    from fmest.cli import main
    assert main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _scipy_loaded(module, argv=()):
    """The scipy modules a fresh interpreter holds after importing ``module``
    and, if ``argv`` is given, running ``fmest.cli.main(argv)``."""
    src = str(Path(fmest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, module, json.dumps(list(argv))],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("module", ["fmest", "fmest.cli"])
def test_import_loads_no_scipy(module):
    assert _scipy_loaded(module) == set()


def test_estimate_trend_fanova_simulate_load_no_scipy(tmp_path, curves_csv, rng):
    data, _ = curves_csv
    a = random_partial_dataset(rng, n=10, J=12, group="a")
    b = random_partial_dataset(rng, n=10, J=12, group="b")
    groups = tmp_path / "groups.csv"
    save_csv(Dataset(a.grid, a.curves + tuple(
        PartialCurve(c.id + "b", "b", c.values, c.mask) for c in b.curves)), groups)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("study = ise\nmodel = model1\nscheme = random-interval:0.3,0.3\n"
                   "n = 10\ngrid_size = 15\nlosses = huber:0.8\nR = 2\nseed = 3\n",
                   encoding="utf-8")
    for argv in (["estimate", "--data", str(data), "--loss", "huber-scaled:3",
                  "--out", str(tmp_path / "fit.csv")],
                 ["trend", "--data", str(data), "--probe", "linear", "--B", "100",
                  "--seed", "1", "--out", str(tmp_path / "ci.json")],
                 ["fanova", "--data", str(groups), "--B", "100", "--seed", "1",
                  "--out", str(tmp_path / "r.json")],
                 ["simulate", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]):
        assert _scipy_loaded("fmest.cli", argv) == set(), argv[0]


def test_masks_loads_scipy_special_on_first_use(tmp_path):
    masks = _scipy_loaded("fmest.cli", [
        "masks", "--scheme", "random-interval:0.3,0.3", "--n", "50", "--grid-size", "20",
        "--seed", "4", "--out", str(tmp_path / "b.csv")])
    assert "scipy.special" in masks
    assert not {"scipy.integrate", "scipy.stats"} & masks


# -- results do not depend on the BLAS thread count -------------------------------

def test_fanova_bytes_equal_at_one_and_two_blas_threads(tmp_path, rng):
    """The group test's covariance is summed without BLAS, so its result file
    is the same at any OpenBLAS thread count.  J = 100 is large enough for
    OpenBLAS to split a matrix product over two threads."""
    a = random_partial_dataset(rng, n=10, J=100, group="a")
    b = random_partial_dataset(rng, n=10, J=100, group="b")
    groups = tmp_path / "groups.csv"
    save_csv(Dataset(a.grid, a.curves + tuple(
        PartialCurve(c.id + "b", "b", c.values, c.mask) for c in b.curves)), groups)
    src = str(Path(fmest.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"r{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
        proc = subprocess.run([sys.executable, "-m", "fmest.cli", "fanova", "--data", str(groups),
                               "--B", "100", "--seed", "1", "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        results.append(out.read_bytes())
    assert results[0] == results[1]


# -- results do not depend on the CPU count ------------------------------------------

# PART_MIN = 1 lets the small test batches split across threads
_PINNED_MAIN = """
import json, os, sys
if sys.argv[1] != "all":
    os.sched_setaffinity(0, {int(sys.argv[1])})
import fmest.estimator
fmest.estimator.PART_MIN = 1
from fmest.cli import main
sys.exit(main(json.loads(sys.argv[2])))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and at least 2 usable CPUs")
def test_trend_and_fanova_bytes_equal_on_one_and_all_cpus(tmp_path, rng):
    """Batched solves split across one thread per usable CPU; a child
    pinned to one CPU and an unpinned one write the same result bytes."""
    curves = tmp_path / "curves.csv"
    save_csv(random_partial_dataset(rng, n=12, J=40), curves)
    a = random_partial_dataset(rng, n=10, J=30, group="a")
    b = random_partial_dataset(rng, n=10, J=30, group="b")
    groups = tmp_path / "groups.csv"
    save_csv(Dataset(a.grid, a.curves + tuple(
        PartialCurve(c.id + "b", "b", c.values, c.mask) for c in b.curves)), groups)
    src = str(Path(fmest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    one_cpu = str(min(os.sched_getaffinity(0)))
    runs = {"trend": ["trend", "--data", str(curves), "--loss", "huber-scaled:3",
                      "--probe", "linear", "--B", "200", "--seed", "2"],
            "fanova": ["fanova", "--data", str(groups), "--B", "200", "--seed", "2"]}
    for command, argv in runs.items():
        results = []
        for cpus in (one_cpu, "all"):
            out = tmp_path / f"{command}-{cpus}.json"
            proc = subprocess.run([sys.executable, "-c", _PINNED_MAIN, cpus,
                                   json.dumps(argv + ["--out", str(out)])],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            results.append(out.read_bytes())
        assert results[0] == results[1], command
