"""Rewrite ``reference.json``: each workload's result at the default seed.

    python3 fmbench/make_reference.py

Run it only when a change is meant to alter the numbers, and say so in the
change; the benchmark compares every default-seed call against this file.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    fmest = run.import_fmest()
    run.WORK.mkdir(exist_ok=True)
    out = {"seed": run.DEFAULT_SEED, "size": "full", "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            prepared = workload.prepare(fmest, Path(tmp), run.DEFAULT_SEED, workloads.FULL)
            _, rc, err, raw = run.call(fmest, prepared.argv, prepared.result)
        if rc != 0 or raw is None:
            print(f"{name}: exit code {rc}: {err}", file=sys.stderr)
            return 1
        entry = {"values": workload.parse(raw), "sha256": hashlib.sha256(raw).hexdigest()}
        if name == "fanova-huber":
            entry["mixture_draws"] = workloads.FULL.mixture_draws
        out["workloads"][name] = entry
    run.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
