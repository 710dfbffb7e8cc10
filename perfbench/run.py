#!/usr/bin/env python3
"""Repository benchmark for dws: builds perfbench/ (the dws libraries from
../src plus the dws_perfbench runner) in Release and runs one workload.

    python3 perfbench/run.py --workload ref_1n_512 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # every workload, tiny inputs
    python3 perfbench/run.py --layers --seed 1  # traced run of every workload
                                                # plus the layer-separation checks

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1. Lines before it carry the host facts,
the derived seeds and the exact-count digest of every run. The build goes to
$CARGO_TARGET_DIR (default .bench_build) under the checkout root.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
MASK = (1 << 64) - 1


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


# The service workload's job stream (svc.seed) is part of the workload, not of
# the seed: over ten stream seeds the 32-job mix held 4 to 14 SIM200K jobs and
# 0.91M to 2.81M nodes. This stream has 8 of them and 1,418,396 nodes.
SVC_STREAM_SEED = 16778118630780010966


def derive_seeds(seed):
    """Per-stream seeds of one benchmark seed: victim selection (ws.seed),
    fault draws (fault.seed) and the reference workload's tree root seed.
    The holdout seed names the unseen seed on which a claimed gain must also
    hold."""
    return {
        "seed": seed,
        "ws_seed": splitmix64(4 * seed + 1),
        "fault_seed": splitmix64(4 * seed + 2),
        "tree_seed": splitmix64(4 * seed + 3) & 0xFFFFFFFF,
        "svc_seed": SVC_STREAM_SEED,
        "holdout_seed": splitmix64(4 * seed + 4) % 1_000_000_007,
    }


def build():
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    binary = build_dir / "dws_perfbench"
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", "4"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return binary


def run_benchmark(binary, workload, seeds, seconds, trace, smoke=False):
    cmd = [str(binary), "--workload", workload,
           "--ws-seed", str(seeds["ws_seed"]),
           "--fault-seed", str(seeds["fault_seed"]),
           "--svc-seed", str(seeds["svc_seed"]),
           "--tree-seed", str(seeds["tree_seed"]),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: runner exceeded {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: runner exited with {proc.returncode}")
        sys.exit(1)
    return lines[:-1], json.loads(lines[-1])


def checked_result(spec, result, trace):
    """The result restricted to the metric list of BENCHMARK.json; exits if a
    metric is missing, has another unit or is not a finite number."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}: {got}")
            sys.exit(1)
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"metric {m['name']} is not a finite number: {value}")
            sys.exit(1)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    return {"correct": bool(result["correct"]) and failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke(spec, binary):
    """Every workload's code path on tiny inputs, both modes: every named
    metric must appear with its unit and every operation must check out."""
    seeds = derive_seeds(1)
    ok = True
    for w in spec["workloads"]:
        for trace in (False, True):
            _, result = run_benchmark(binary, w["name"], seeds, 0.5, trace,
                                   smoke=True)
            res = checked_result(spec, result, trace)
            status = "ok" if res["correct"] else "FAILED"
            ok = ok and res["correct"]
            log(f"smoke {w['name']} trace={int(trace)}: {status} "
                f"({res['failed']}/{res['attempted']} failed, "
                f"{len(res['metrics'])} metrics)")
    return ok


def layers(spec, binary, seed):
    """Traced run of every workload and the checks that the workloads split
    the simulator by layer."""
    seeds = derive_seeds(seed)
    per = {}
    for w in spec["workloads"]:
        _, result = run_benchmark(binary, w["name"], seeds, 0, True)
        res = checked_result(spec, result, True)
        per[w["name"]] = {k: v["value"] for k, v in res["metrics"].items()}
        per[w["name"]]["correct"] = res["correct"]
    names = list(per)
    width = max(len(m["name"]) for m in spec["per_layer"])
    print(f"{'metric':<{width}} " + " ".join(f"{n:>24}" for n in names))
    for m in spec["per_layer"]:
        print(f"{m['name']:<{width}} " +
              " ".join(f"{per[n][m['name']]:>24.6g}" for n in names))

    def victim_s(n):
        return per[n]["proto.victim.draws"] * per[n]["proto.victim.ns_per_draw"]

    ref, tofu, svc = "ref_1n_512", "tofu_half_8g_1024", "svc_mixed_lossy"
    checks = {
        "all runs correct": all(per[n]["correct"] for n in names),
        "merge ambiguities are 0": all(
            per[n]["shard.merge_ambiguities"] == 0 for n in names),
        "msgs_per_node ref >= 5x svc": per[ref]["sim.network.msgs_per_node"]
        >= 5 * per[svc]["sim.network.msgs_per_node"],
        "victim draw time largest on tofu": victim_s(tofu) == max(
            victim_s(n) for n in names),
        "uts.share largest on svc": per[svc]["uts.share"] == max(
            per[n]["uts.share"] for n in names),
    }
    for name, passed in checks.items():
        print(f"check {'ok  ' if passed else 'FAIL'} {name}")
    return all(checks.values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--layers", action="store_true")
    args = ap.parse_args()

    spec = json.loads(SPEC_PATH.read_text())
    binary = build()
    if args.smoke:
        sys.exit(0 if smoke(spec, binary) else 1)
    if args.layers:
        sys.exit(0 if layers(spec, binary, args.seed) else 1)

    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        sys.exit(2)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seeds = derive_seeds(args.seed)
    print("seeds " + json.dumps(seeds))
    context, result = run_benchmark(binary, args.workload, seeds, seconds,
                                 args.trace == 1)
    for line in context:
        print(line)
    print(json.dumps(checked_result(spec, result, args.trace == 1)))


if __name__ == "__main__":
    main()
