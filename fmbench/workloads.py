"""The three benchmark workloads: inputs, CLI arguments and output checks.

Each workload is a closed loop with one caller: ``fmest.cli.main(argv)`` is
called in-process, and the next call starts when the previous one returns.
Inputs come from the workload seed through the public ``generate_curves``,
``generate_masks`` and ``save_csv`` before timing starts; the program only
sees the CSV or scenario file written here.  Why each workload exists, with
the layer shares measured on its traced run, is in ``WORKLOADS`` below and in
``README.md``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REL_TOL = 1e-6
MC_SIGMAS = 3.0


@dataclass(frozen=True)
class Size:
    """Problem sizes: ``FULL`` for measurement, ``SMALL`` for the smoke test."""

    n: int
    grid: int
    trend_B: int
    fanova_B: int
    mixture_draws: int
    ise_R: int


FULL = Size(n=80, grid=100, trend_B=1000, fanova_B=800, mixture_draws=50_000, ise_R=160)
SMALL = Size(n=20, grid=30, trend_B=100, fanova_B=100, mixture_draws=2_000, ise_R=2)
SIZES = {"full": FULL, "small": SMALL}

SCHEME = "random-interval:0.3,0.3"


@dataclass(frozen=True)
class Prepared:
    argv: list
    result: Path
    fits_per_call: int


def _dataset(fmest, model: str, n: int, size: Size, key: tuple, group: str, prefix: str):
    grid = fmest.Grid.uniform(size.grid)
    values = fmest.generate_curves(fmest.model_preset(model), n, grid, key + (0,))
    masks = fmest.generate_masks(fmest.parse_scheme(SCHEME), n, grid, key + (1,))
    return fmest.matrix_dataset(grid, values, masks, group=group,
                                ids=[f"{prefix}{i}" for i in range(n)])


def _prepare_trend(fmest, work: Path, seed: int, size: Size) -> Prepared:
    data = work / "trend.csv"
    fmest.save_csv(_dataset(fmest, "probe-cauchy", size.n, size, (seed, 0), "0", "c"), data)
    out = work / "trend.json"
    argv = ["trend", "--data", str(data), "--loss", "huber-scaled:3", "--probe", "quadratic",
            "--B", str(size.trend_B), "--seed", str(seed), "--out", str(out)]
    return Prepared(argv, out, size.trend_B + 1)


def _prepare_fanova(fmest, work: Path, seed: int, size: Size) -> Prepared:
    half = size.n // 2
    # both groups come from model1, so the null holds and p is not pinned at 0 or 1
    a = _dataset(fmest, "model1", half, size, (seed, 1, 0), "a", "a")
    b = _dataset(fmest, "model1", half, size, (seed, 1, 1), "b", "b")
    data = work / "fanova.csv"
    fmest.save_csv(fmest.Dataset(a.grid, a.curves + b.curves), data)
    out = work / "fanova.json"
    argv = ["fanova", "--data", str(data), "--loss", "huber:0.8", "--B", str(size.fanova_B),
            "--seed", str(seed), "--out", str(out)]
    if size.mixture_draws != FULL.mixture_draws:
        argv[-2:-2] = ["--mixture-draws", str(size.mixture_draws)]
    return Prepared(argv, out, 2 * (size.fanova_B + 1))


ISE_LOSSES = ("square", "huber:0.8", "quantile:0.5")


def _prepare_ise(fmest, work: Path, seed: int, size: Size) -> Prepared:
    config = work / "ise.cfg"
    config.write_text(
        "study = ise\nmodel = model3\n"
        f"scheme = {SCHEME}\ntrim = 0.05\n"
        f"n = {size.n}\ngrid_size = {size.grid}\n"
        f"losses = {'; '.join(ISE_LOSSES)}\nR = {size.ise_R}\n"
        f"seed = {seed}\nthreads = 1\n",
        encoding="utf-8")
    out = work / "ise.csv"
    argv = ["simulate", "--config", str(config), "--seed", str(seed), "--threads", "1",
            "--out", str(out)]
    return Prepared(argv, out, size.ise_R * len(ISE_LOSSES))


# -- result parsing and checks ------------------------------------------------

def _parse_json(raw: bytes, keys: tuple) -> dict:
    payload = json.loads(raw)
    return {k: payload[k] for k in keys}


def _parse_trend(raw: bytes) -> dict:
    return _parse_json(raw, ("coefficient", "lower", "upper", "B"))


def _parse_fanova(raw: bytes) -> dict:
    return _parse_json(raw, ("statistic", "p_value", "groups", "B"))


def _parse_ise(raw: bytes) -> dict:
    rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
    return {f"{r['estimator']}/{r['metric']}": float(r["value"]) for r in rows}


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _sanity_trend(v: dict, size: Size) -> list:
    problems = [f"{k} not finite" for k in ("coefficient", "lower", "upper") if not _finite(v[k])]
    if not problems and not v["lower"] <= v["upper"]:
        problems.append(f"lower {v['lower']} > upper {v['upper']}")
    if v["B"] != size.trend_B:
        problems.append(f"B={v['B']}, asked for {size.trend_B}")
    return problems


def _sanity_fanova(v: dict, size: Size) -> list:
    problems = []
    if not (_finite(v["p_value"]) and 0.0 <= v["p_value"] <= 1.0):
        problems.append(f"p_value {v['p_value']} outside [0, 1]")
    if not (_finite(v["statistic"]) and v["statistic"] >= 0.0):
        problems.append(f"statistic {v['statistic']} not a finite nonnegative number")
    if v["groups"] != 2 or v["B"] != size.fanova_B:
        problems.append(f"groups={v['groups']}, B={v['B']}")
    return problems


def _sanity_ise(v: dict, size: Size) -> list:
    expected = {f"{loss}/median_ise" for loss in ISE_LOSSES}
    expected |= {f"{loss}/median_ise_ratio_square_over_this" for loss in ISE_LOSSES[1:]}
    problems = [f"rows {sorted(v)} differ from {sorted(expected)}"] if set(v) != expected else []
    problems += [f"{k} = {x} is not finite and positive"
                 for k, x in v.items() if not (_finite(x) and x > 0)]
    return problems


def compare_reference(values: dict, reference: dict, mixture_draws: int = 0) -> list:
    """Reference values agree to relative 1e-6; a Monte Carlo p-value agrees
    within 3 standard errors at the reference's ``mixture_draws``, so an exact
    p-value still passes."""
    if set(values) != set(reference):
        return [f"fields {sorted(values)} differ from reference {sorted(reference)}"]
    problems = []
    for key, ref in reference.items():
        got = values[key]
        if key == "p_value":
            ok = abs(got - ref) <= MC_SIGMAS * math.sqrt(ref * (1.0 - ref) / mixture_draws)
        else:
            ok = abs(got - ref) <= REL_TOL * abs(ref)
        if not ok:
            problems.append(f"{key} = {got!r}, reference {ref!r}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable
    parse: Callable[[bytes], dict]
    sanity: Callable[[dict, Size], list]


WORKLOADS = {w.name: w for w in (
    Workload(
        "trend-scaled",
        # fmest trend --loss huber-scaled:3 --probe quadratic --B 1000 on 80
        # probe-cauchy curves, J=100, random-interval:0.3,0.3 masks.
        "Per-replicate cutoff path of acceptance test c6: MAD cutoffs take about 61% "
        "of a call, the per-replicate root-solve loop 31%; no sampler, no dataset builds.",
        _prepare_trend, _parse_trend, _sanity_trend),
    Workload(
        "fanova-huber",
        # fmest fanova --loss huber:0.8 --B 800 with 50,000 mixture draws on
        # 2 groups x 40 model1 curves, random-interval:0.3,0.3 masks.
        "Batched fixed-cutoff solve of acceptance test c7: root solve about 63% of a "
        "call, chi-square mixture sampler 26%; MAD never runs, so MAD changes leave it flat.",
        _prepare_fanova, _parse_fanova, _sanity_fanova),
    Workload(
        "ise-sim",
        # fmest simulate: study ise, model3, random-interval:0.3,0.3, trim 0.05,
        # n=80, J=100, losses square;huber:0.8;quantile:0.5, R=160, threads=1.
        "No bootstrap: make_rng 23%, dataset build 31%, masks 13%, single unbatched "
        "fits 23%; shows dataset and mask changes, catches batched-only solve speedups.",
        _prepare_ise, _parse_ise, _sanity_ise),
)}
