"""Benchmark for fmest: three CLI workloads, end-to-end and per-layer metrics.

    python3 fmbench/run.py --workload trend-scaled --seed 1 --seconds 30 --trace 0

Run from the repository root.  The benchmark imports ``fmest`` from ``src/``
next to this directory and exits 1 without a result when it is missing.
``--trace 0`` times untraced calls and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced calls and prints the per-layer
metrics.  Every call's result file is checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
TAIL_BEYOND = 10
# a run never starts a new call after this long, whatever --seconds says
MAX_LOOP_S = 120.0
# fresh interpreters timed for setup_s, calls/pairs a run makes at least
SETUP_REPS = {"full": 3, "small": 1}
MIN_CALLS = {"full": TAIL_BEYOND + 1, "small": 1}
MIN_PAIRS = {"full": 3, "small": 1}

END_TO_END = {
    "call_s.p50": "s",
    "call_s.tail": "s",
    "fits_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
EXTRA_LAYER = {
    "trace.overhead_frac": "ratio",
    "cli.outputs_identical": "ratio",
    "failed_frac": "ratio",
}

_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import fmest; print(time.perf_counter() - t)")


def import_fmest():
    """Import fmest from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "fmest" / "__init__.py").is_file():
        raise SystemExit(f"fmbench: no fmest package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fmest
    import fmest.cli

    if SRC.resolve() not in Path(fmest.__file__).resolve().parents:
        raise SystemExit(f"fmbench: imported fmest from {fmest.__file__}, not {SRC}")
    return fmest


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through its own getter."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", maps))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def setup_times(reps: int) -> list[float]:
    """Wall seconds of ``import fmest`` in ``reps`` fresh interpreters."""
    out = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip()))
    return out


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND calls beyond it (fewer
    when the run made fewer calls): (value, percentile, calls beyond)."""
    ordered = sorted(times)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    k = len(ordered) - beyond
    return ordered[k - 1], 100.0 * k / len(ordered), beyond


@dataclass
class Checker:
    """Checks every call's result file: exit code, sanity, repeatability,
    and the stored reference values at the default seed."""

    workload: workloads.Workload
    size: workloads.Size
    reference: dict | None
    first: bytes | None = None
    attempted: int = 0
    failed: int = 0
    identical: int = 0
    problems: list = field(default_factory=list)

    def check(self, rc: int, err: str, raw: bytes | None) -> bool:
        self.attempted += 1
        found = [f"exit code {rc}: {err.strip()[-300:]}"] if rc != 0 or raw is None else []
        if not found:
            if self.first is None:
                self.first = raw
            elif raw != self.first:
                found.append("result file differs from the run's first call")
            try:
                values = self.workload.parse(raw)
                found += self.workload.sanity(values, self.size)
                if self.reference is not None:
                    found += workloads.compare_reference(
                        values, self.reference["values"], self.reference.get("mixture_draws", 0))
            except (ValueError, KeyError, TypeError) as exc:
                found.append(f"unreadable result file: {exc!r}")
            expected = self.reference["sha256"] if self.reference else \
                hashlib.sha256(self.first).hexdigest()
            self.identical += hashlib.sha256(raw).hexdigest() == expected
        if found:
            self.failed += 1
            self.problems.extend(found)
        return not found


def call(fmest, argv: list, result: Path) -> tuple[float, int, str, bytes | None]:
    """One in-process CLI call: (wall seconds, exit code, stderr, result bytes)."""
    out, err = io.StringIO(), io.StringIO()
    result.unlink(missing_ok=True)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = fmest.cli.main(argv)
        except Exception:  # a crash is a failed call, not a failed benchmark
            rc = -1
            traceback.print_exc()
        seconds = time.perf_counter() - start
    raw = result.read_bytes() if result.exists() else None
    return seconds, rc, err.getvalue(), raw


def _reference_for(name: str, seed: int, size: str) -> dict | None:
    if seed != DEFAULT_SEED or size != "full":
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][name]


def measure(fmest, name: str, seed: int, seconds: float, trace: bool, size: str,
            work: Path) -> dict:
    """Run one workload; returns the result object plus a report for the log."""
    workload = workloads.WORKLOADS[name]
    prepared = workload.prepare(fmest, work, seed, workloads.SIZES[size])
    checker = Checker(workload, workloads.SIZES[size], _reference_for(name, seed, size))
    report = {"workload": name, "seed": seed, "size": size, "argv": prepared.argv}

    def timed():
        dt, rc, err, raw = call(fmest, prepared.argv, prepared.result)
        return dt, checker.check(rc, err, raw), raw

    metrics = {}
    if not trace:
        setup = setup_times(SETUP_REPS[size])
        timed()  # warm-up: lazy imports and first-touch allocations finish here
        times, ok_calls = [], 0
        start = time.perf_counter()
        while (len(times) < MIN_CALLS[size] or time.perf_counter() - start < seconds) \
                and time.perf_counter() - start < MAX_LOOP_S:
            dt, ok, _ = timed()
            times.append(dt)
            ok_calls += ok
        value, pct, beyond = tail(times)
        metrics = {
            "call_s.p50": statistics.median(times),
            "call_s.tail": value,
            "fits_per_s": prepared.fits_per_call * ok_calls / sum(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report.update(calls=len(times), tail_percentile=pct, tail_beyond=beyond,
                      setup_runs=setup, call_s=times)
    else:
        tracer = spans.Tracer()
        plain, traced = [], []
        timed()
        start = time.perf_counter()
        while (len(traced) < MIN_PAIRS[size] or time.perf_counter() - start < seconds) \
                and time.perf_counter() - start < MAX_LOOP_S:
            dt, _, raw_plain = timed()
            plain.append(dt)
            tracer.call_id = len(traced)
            with tracer.tracing():
                dt, _, raw_traced = timed()
            traced.append(dt)
            if raw_traced != raw_plain:
                # the repeatability check has already failed the call; say why
                checker.problems.append(f"TRACING CHANGED THE RESULT FILE on traced call "
                                        f"{len(traced)}")
        accounting = spans.accounting_errors(tracer.spans)
        checker.problems += accounting
        metrics = spans.layer_metrics(tracer.spans)
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        report.update(pairs=len(traced), call_s=plain, traced_call_s=traced,
                      accounting_ok=not accounting)
        (WORK / f"spans-{name}.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
        metrics["cli.outputs_identical"] = checker.identical / checker.attempted
        metrics["failed_frac"] = checker.failed / checker.attempted
    report["failed_frac"] = checker.failed / checker.attempted
    report["outputs_identical"] = checker.identical / checker.attempted
    report["problems"] = checker.problems[:20]
    return {"correct": not checker.problems and checker.attempted > 0,
            "attempted": checker.attempted, "failed": checker.failed,
            "metrics": metrics, "report": report}


def unit_of(metric: str) -> str:
    return END_TO_END.get(metric) or EXTRA_LAYER.get(metric) or spans.layer_unit(metric)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="small: reduced inputs for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    fmest = import_fmest()
    WORK.mkdir(exist_ok=True)
    machine = machine_info()
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        result = measure(fmest, args.workload, args.seed, args.seconds, bool(args.trace),
                         args.size, Path(tmp))
    report = result.pop("report")
    report["machine"] = machine
    report["metrics"] = result["metrics"]
    (WORK / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"fmest {' '.join(report['argv'])}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    metrics = {}
    for name, value in result["metrics"].items():
        unit = unit_of(name)
        metrics[name] = {"value": value, "unit": unit}
        note = ""
        if name == "call_s.tail":
            note = (f"  (p{report['tail_percentile']:.1f} of {report['calls']} calls, "
                    f"{report['tail_beyond']} beyond)")
        elif name == "setup_s":
            note = f"  (median of {len(report['setup_runs'])} fresh interpreters)"
        print(f"{name} = {value:.6g} {unit}{note}")
    if not args.trace:
        print(f"failed_frac = {report['failed_frac']:.6g} ratio  "
              f"({result['failed']} of {result['attempted']} calls)")
        print(f"cli.outputs_identical = {report['outputs_identical']:.6g} ratio")
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
