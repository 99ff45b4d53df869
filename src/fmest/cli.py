"""Command line interface.

Commands: estimate, fanova, trend, simulate, masks.  Every run writes its
primary output plus a ``<out>.manifest.json`` sidecar recording the command,
resolved configuration, seed, package version, timestamps, and output paths.
Exit codes: 0 success, 1 numerical failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import DataFormatError, Grid, integrate, load_csv
from .estimator import NumericalError, fit
from .inference import anova_l2_test, parse_probe, trend_ci
from .losses import parse_loss
from .sampling import analytic_b, empirical_b, generate_masks, parse_scheme, sup_deviation
from .simulation import read_scenario_config, run_study

_NUM_FMT = "%.12g"


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_manifest(out_path: Path, command: str, config: dict, seed,
                    outputs: list, started: str) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "started_at": started,
        "finished_at": _utcnow(),
        "outputs": [str(p) for p in outputs],
    }
    path = Path(str(out_path) + ".manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_rows_csv(rows: list, columns: list, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([
                _NUM_FMT % v if isinstance(v, float) else v for v in (row[c] for c in columns)
            ])


def _cmd_estimate(args) -> int:
    started = _utcnow()
    dataset = load_csv(args.data)
    est = fit(dataset, parse_loss(args.loss))
    out = Path(args.out)
    rows = [{"t": float(t), "theta": float(theta), "n_eff": int(n_eff), "status": status}
            for t, theta, n_eff, status in zip(dataset.grid.source_points, est.theta,
                                               est.n_eff, est.status)]
    _write_rows_csv(rows, ["t", "theta", "n_eff", "status"], out)
    _write_manifest(out, "estimate",
                    {"data": str(args.data), "loss": args.loss}, None, [out], started)
    return 0


def _cmd_fanova(args) -> int:
    started = _utcnow()
    dataset = load_csv(args.data)
    labels = sorted(dataset.group_labels())
    if len(labels) < 2:
        raise DataFormatError(f"{args.data}: need at least 2 groups, found {labels}")
    groups = [dataset.subset_group(lab) for lab in labels]
    choice = parse_loss(args.loss)
    if args.mixture_draws is not None:
        print("warning: --mixture-draws is deprecated and ignored (the p-value is exact)",
              file=sys.stderr)
    result = anova_l2_test(groups, choice, args.B, args.seed)
    out = Path(args.out)
    payload = {
        "statistic": result.statistic,
        "p_value": result.p_value,
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "trace": result.trace,
        "groups": result.groups,
        "group_labels": labels,
        "B": result.B,
    }
    _write_json(payload, out)
    print(f"T = {result.statistic:.6g}, p = {result.p_value:.6g} "
          f"({result.groups} groups, B={result.B})")
    _write_manifest(out, "fanova",
                    {"data": str(args.data), "loss": args.loss, "B": args.B},
                    args.seed, [out], started)
    return 0


def _cmd_trend(args) -> int:
    started = _utcnow()
    dataset = load_csv(args.data)
    choice = parse_loss(args.loss)
    name, probe = parse_probe(args.probe, dataset.grid)
    ci = trend_ci(dataset, choice, probe, args.B, args.seed, alpha=args.alpha,
                  probe_name=name)
    out = Path(args.out)
    payload = {
        "probe": ci.probe,
        "coefficient": ci.coefficient,
        "lower": ci.lower,
        "upper": ci.upper,
        "alpha": ci.alpha,
        "B": ci.B,
        "significant": ci.significant,
    }
    _write_json(payload, out)
    print(f"coef({ci.probe}) = {ci.coefficient:.6g}, "
          f"{100 * (1 - ci.alpha):g}% CI [{ci.lower:.6g}, {ci.upper:.6g}]"
          + (" *" if ci.significant else ""))
    _write_manifest(out, "trend",
                    {"data": str(args.data), "loss": args.loss, "probe": args.probe,
                     "B": args.B, "alpha": args.alpha},
                    args.seed, [out], started)
    return 0


def _cmd_simulate(args) -> int:
    started = _utcnow()
    study, config = read_scenario_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.threads is not None:
        config = replace(config, threads=args.threads)
    rows = run_study(study, config)
    out = Path(args.out)
    _write_rows_csv(rows, ["scenario", "estimator", "probe", "metric", "value"], out)
    for row in rows:
        probe = f" {row['probe']}" if row["probe"] else ""
        print(f"{row['scenario']} {row['estimator']}{probe} {row['metric']} = {row['value']:.6g}")
    _write_manifest(out, "simulate",
                    {"config": str(args.config), "study": study,
                     "model": config.model_name, "scheme": config.scheme.describe(),
                     "n": config.n, "grid_size": config.grid_size,
                     "losses": list(config.losses), "B": config.B,
                     "R": config.repetitions, "probes": list(config.probes),
                     "alpha": config.alpha, "shift": config.shift,
                     "threads": config.threads},
                    config.seed, [out], started)
    return 0


def _cmd_masks(args) -> int:
    started = _utcnow()
    scheme = parse_scheme(args.scheme, epsilon_trim=args.trim)
    grid = Grid.uniform(args.grid_size)
    masks, redraws = generate_masks(scheme, args.n, grid, args.seed, return_redraws=True)
    b_hat = empirical_b(masks, grid)
    b_true = analytic_b(scheme, grid)
    w_n = sup_deviation(masks, b_true)
    out = Path(args.out)
    rows = [{"t": float(grid.points[j]), "b_hat": float(b_hat[j]),
             "b_analytic": float(b_true[j])} for j in range(grid.size)]
    _write_rows_csv(rows, ["t", "b_hat", "b_analytic"], out)
    print(f"W_n = {w_n:.6g} over {args.n} masks ({scheme.describe()})")
    _write_manifest(out, "masks",
                    {"scheme": args.scheme, "n": args.n, "grid_size": args.grid_size,
                     "trim": args.trim, "w_n": w_n, "redraws": redraws},
                    args.seed, [out], started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmest",
        description="Robust location estimation and bootstrap inference for "
                    "partially observed curves.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="pointwise location fit of a curve file")
    p_est.add_argument("--data", required=True, help="input CSV (curve_id,group,t,value)")
    p_est.add_argument("--loss", default="huber:0.8", help="square | huber:<c> | quantile:<tau>"
                       " | squantile:<tau>,<h> | huber-scaled:<r>")
    p_est.add_argument("--out", required=True, help="output CSV (t,theta,n_eff,status)")
    p_est.set_defaults(func=_cmd_estimate)

    p_fan = sub.add_parser("fanova", help="L2 bootstrap test of equal group locations")
    p_fan.add_argument("--data", required=True)
    p_fan.add_argument("--loss", default="huber:0.8")
    p_fan.add_argument("--B", type=int, default=800, help="bootstrap replicates per group")
    p_fan.add_argument("--mixture-draws", type=int, help="deprecated and ignored")
    p_fan.add_argument("--seed", type=int, required=True)
    p_fan.add_argument("--out", required=True, help="output JSON")
    p_fan.set_defaults(func=_cmd_fanova)

    p_tr = sub.add_parser("trend", help="percentile bootstrap CI for a probe coefficient")
    p_tr.add_argument("--data", required=True)
    p_tr.add_argument("--loss", default="huber:0.8")
    p_tr.add_argument("--probe", required=True,
                      help="constant | linear | quadratic | step:<x0>, x0 in the data's "
                      "t units")
    p_tr.add_argument("--B", type=int, default=3000)
    p_tr.add_argument("--alpha", type=float, default=0.05)
    p_tr.add_argument("--seed", type=int, required=True)
    p_tr.add_argument("--out", required=True, help="output JSON")
    p_tr.set_defaults(func=_cmd_trend)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo scenario file")
    p_sim.add_argument("--config", required=True, help="flat key=value scenario file")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--threads", type=int, default=None,
                       help="worker threads of a coverage or size study; an ise study "
                       "draws on the calling thread (results are identical for any value)")
    p_sim.add_argument("--out", required=True, help="output CSV")
    p_sim.set_defaults(func=_cmd_simulate)

    p_mk = sub.add_parser("masks", help="draw observation masks and report coverage diagnostics")
    p_mk.add_argument("--scheme", required=True)
    p_mk.add_argument("--n", type=int, required=True)
    p_mk.add_argument("--grid-size", type=int, default=100)
    p_mk.add_argument("--trim", type=float, default=0.0)
    p_mk.add_argument("--seed", type=int, required=True)
    p_mk.add_argument("--out", required=True, help="output CSV (t,b_hat,b_analytic)")
    p_mk.set_defaults(func=_cmd_masks)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
