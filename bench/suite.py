"""Run every workload, untraced and traced, each in its own process, and
print all end-to-end metrics by name and unit, the failed ratio, the
tracing overhead and the per-layer shares.

    python3 bench/suite.py --seed 1 --seconds 50 --out bench/results/BENCH_seed.json

The record written with --out is stamped with the Python version, nproc,
the CPU model, the commit and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import run
import workloads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    run.WORK.mkdir(parents=True, exist_ok=True)
    out = run.WORK / f"suite-{workload}-{trace}-{os.getpid()}.json"
    try:
        subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
            check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--out", help="write the stamped record to this JSON file")
    args = parser.parse_args(argv)

    record = {
        "stamp": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "commit": run.commit(),
            "seed": args.seed,
            "seconds": args.seconds,
        },
        "workloads": {},
    }
    print(f"stamp {json.dumps(record['stamp'])}")
    print(f"{'workload':14} {'metric':28} {'value':>14}  unit")
    for workload in workloads.WORKLOADS:
        plain = run_one(workload, args.seed, args.seconds, 0)
        traced = run_one(workload, args.seed, args.seconds, 1)
        e2e = {name: m["value"] for name, m in plain["metrics"].items()}
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        failed_ratio = plain["failed"] / plain["attempted"]
        overhead = layers["trace.overhead"]
        rows = [(name, e2e[name], unit) for name, unit in run.END_TO_END.items()]
        rows.append(("failed_ratio", failed_ratio, "fraction"))
        rows.append(("trace_overhead", overhead, "fraction"))
        rows += [(f"{layer}.share", layers[f"{layer}.share"], "fraction") for layer in run.LAYERS]
        for name, value, unit in rows:
            print(f"{workload:14} {name:28} {value:14.6g}  {unit}")
        for failure in plain["failures"] + traced["failures"]:
            print(f"{workload:14} FAIL {failure}")
        record["workloads"][workload] = {
            "untraced": {"correct": plain["correct"], "attempted": plain["attempted"], "failed": plain["failed"],
                         "failed_ratio": failed_ratio, "metrics": e2e, "pass_busy_s": plain["pass_busy_s"],
                         "kind_shares": plain["kind_shares"]},
            "traced": {"correct": traced["correct"], "metrics": layers, "pass_busy_s": traced["pass_busy_s"]},
            "trace_overhead": overhead,
        }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
