"""Run-to-run spread of the end-to-end metrics, and the baseline record.

Run from the repository root:

    python3 perfbench/spread.py --workload catalog --seeds 1-10 \\
        [--seconds 30] [--baseline perfbench/baseline.json]

Runs `perfbench/run.py` once per seed, one run at a time, and prints per
end-to-end metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  With --baseline it also makes one traced run (first seed)
and stores both under the workload's key in that file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n{proc.stderr}")
    return result


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", metavar="FILE")
    args = parser.parse_args()

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        metrics = one_run(args.workload, seed, args.seconds, 0)["metrics"]
        for name in values:
            values[name].append(metrics[name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
              flush=True)

    summary = {}
    print(f"{'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} bound")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  above a third of the bound"
        print(f"{m['name']:14s} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:7.3f} "
              f"{m['bound']}{flag}")
        summary[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                              "spread": spread, "values": vals}

    if args.baseline:
        traced = one_run(args.workload, args.seeds[0], args.seconds, 1)["metrics"]
        record = {}
        if os.path.exists(args.baseline):
            with open(args.baseline, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        record[args.workload] = {
            "seeds": args.seeds, "run_seconds": args.seconds,
            "environment": run.environment(args.seeds[0]),
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced.items()},
        }
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
