#!/usr/bin/env python3
"""Regenerates BENCH_core.json in one command.

    python3 bench/regenerate_bench_core.py     # several minutes

Builds micro_core and parallel_core in Release under build-rel/, runs
`micro_core --core-report` for the serial event-core section ("current") and
`parallel_core --report` for the sharded paper-scale section ("parallel"),
and records the host's core count. The "baseline" section is a fixed
historical measurement (the closure event core before the typed one) and is
carried over from the existing file unchanged. The CI perf-smoke job gates
`current.engine_events_per_sec` and `current.sim_events_per_sec` at half
the committed values and `current.uts_spawn_ns_per_child` at twice the
committed value, so commit a file regenerated on the host you quote.
"""

import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-rel"
OUT = ROOT / "BENCH_core.json"

WORKLOAD = (
    "micro_core --core-report: 512-actor steal/poll/delivery event loop "
    "(4M measured events) + fig06-shaped run_simulation (SIM200K, 256 ranks, "
    "Rand 1/N, congestion) + UtsRng::spawn_pair over 2M sibling pairs; "
    "parallel_core: sharded paper-scale run (SIM2M, "
    "8192 ranks, Ref 1/N, congestion)")


def run(cmd):
    print("+ " + " ".join(str(c) for c in cmd), file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, stdout=sys.stderr)


def compiler():
    """First line of `--version` of the build's C++ compiler."""
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            cxx = line.split("=", 1)[1]
            out = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True, check=False).stdout
            return out.splitlines()[0] if out else cxx
    return "unknown"


def main():
    run(["cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", BUILD, "-j", str(os.cpu_count()),
         "--target", "micro_core", "parallel_core"])

    baseline = json.loads(OUT.read_text())["baseline"]
    with tempfile.TemporaryDirectory() as tmp:
        core_path = Path(tmp) / "core.json"
        run([BUILD / "bench" / "micro_core", f"--core-report={core_path}"])
        core = json.loads(core_path.read_text())
    for key in ("schema", "version"):
        core.pop(key, None)

    report = {
        "schema": "dws.bench.core",
        "version": 2,
        "workload": WORKLOAD,
        "regenerate": "python3 bench/regenerate_bench_core.py",
        "host_cores": os.cpu_count(),
        "host": {"machine": platform.machine(), "compiler": compiler(),
                 "build_type": "Release"},
        "baseline": baseline,
        "current": dict(
            {"note": "typed event core, structural ordering key (time, "
                     "t_sched, kind, rank, src, seq); measured by micro_core "
                     "--core-report on the host above"},
            **core),
    }
    OUT.write_text(json.dumps(report, indent=2) + "\n")

    # parallel_core merges its "parallel" section into the file in place.
    run([BUILD / "bench" / "parallel_core", f"--report={OUT}"])


if __name__ == "__main__":
    main()
