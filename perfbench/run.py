"""The polarium benchmark: `check` and `replay` through the CLI, in process.

Run from the repository root:

    python3 perfbench/run.py --workload catalog|stretch|replay --seed N \\
        --seconds S --trace 0|1

One closed-loop client calls `polarium.cli.main` for one operation at a time
-- `check <spec>` on `catalog` and `stretch`, `replay <report> <space>/<prop>`
on `replay` -- in whole passes over the workload, each pass in a seeded
order, until the next pass would end after `--seconds`.  Every output is
compared with a reference report.  `--trace 1` runs every operation
untraced and traced, back to back, and reports the per-layer figures of the
traced calls.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`, whose names and units come from
BENCHMARK.json.  The lines before it give the same run under the names used
in perfbench/README.md, and perfbench/out/ receives the full record (and the
spans of a traced run).  Exit code 2 means the program or its references
are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "golden", "catalog.json")
STRETCH_REF = os.path.join(HERE, "reference", "stretch.json")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("catalog", "stretch", "replay")
STRETCH = ["W(3,5)", "Q(4,4)", "Q(4,5)", "Q-(5,3)", "H(4,4)", "Q+(5,3)"]
REPORT_FIELDS = ("verdict", "witness", "checked_count")   # never `millis`
SETUP_PROBES = 11
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    """The program or a reference report is missing."""


class Op:
    """One CLI call and the reference its output must match."""

    def __init__(self, argv, expect):
        self.argv = list(argv)
        self.expect = expect

    def accepts(self, stdout: str) -> bool:
        if isinstance(self.expect, str):         # replay: the exact verdict line
            return stdout == self.expect
        reports = json.loads(stdout)
        return len(reports) == 1 and same_report(reports[0], self.expect)


def same_report(got: dict, want: dict) -> bool:
    """Equal space, property set, and verdict/witness/checked_count per property."""
    props = want["properties"]
    return (got.get("space") == want["space"]
            and got.get("properties", {}).keys() == props.keys()
            and all(got["properties"][p].get(f) == v.get(f)
                    for p, v in props.items() for f in REPORT_FIELDS))


def read_reports(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return {r["space"]: r for r in json.load(fh)}


def failing_witnesses(path: str, reports: dict) -> list:
    """Replay operations for every failing property of a report file."""
    return [Op(("replay", path, f"{space}/{prop}"), f"{space}/{prop}: witness valid\n")
            for space, rep in reports.items()
            for prop, v in sorted(rep["properties"].items()) if v["verdict"] == "fails"]


def load(workload: str, seed: int, golden: str = GOLDEN, stretch_ref: str = STRETCH_REF):
    """Everything before the first timed operation: import polarium (and with
    it numpy) and read the references.  Returns the cli module and the ops."""
    for path in (os.path.join(SRC, "polarium", "__init__.py"), golden, stretch_ref):
        if not os.path.isfile(path):
            raise SetupError(f"missing {os.path.relpath(path, ROOT)}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from polarium import catalog, cli

    gold = read_reports(golden)
    seed_args = ("--seed", str(seed))
    if workload == "catalog":
        return cli, [Op(("check", s) + seed_args, gold[s]) for s in catalog.CATALOG]
    stretch = read_reports(stretch_ref)
    if workload == "stretch":
        return cli, [Op(("check", s) + seed_args, stretch[s]) for s in STRETCH]
    return cli, failing_witnesses(golden, gold) + failing_witnesses(stretch_ref, stretch)


def run_op(cli, op: Op) -> tuple:
    """(seconds, ok) for one call of `cli.main`; parsing and comparing are untimed."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except (Exception, SystemExit):
        elapsed = time.perf_counter() - t0
        print(f"perfbench: {op.argv} raised:", file=sys.stderr)
        traceback.print_exc()
        return elapsed, False
    elapsed = time.perf_counter() - t0
    try:
        ok = code == 0 and op.accepts(out.getvalue())
    except (ValueError, KeyError, TypeError, AttributeError):   # malformed report
        ok = False
    if not ok:
        print(f"perfbench: {op.argv} exit {code}, output differs from the reference "
              f"{err.getvalue().strip()}", file=sys.stderr)
    return elapsed, ok


class Yardstick:
    """Fixed work shaped like polarium's hot loops: perp and double-perp
    scans on a boolean collinearity matrix, and Python-int popcounts.

    It is timed after every call.  The host's speed drifts by up to 1.6x
    within minutes, and the drift slows this work about as much as it slows
    polarium, so a pass time divided by the yardstick time keeps most of a
    program change and loses most of the drift."""

    def __init__(self, n: int = 120):
        import numpy as np
        rng = random.Random(7)
        coll = np.array([[rng.random() < 0.25 for _ in range(n)] for _ in range(n)])
        coll |= coll.T
        np.fill_diagonal(coll, True)
        self.coll = coll
        self.bits = [sum(1 << int(j) for j in np.flatnonzero(row) if j != i)
                     for i, row in enumerate(coll)]

    def __call__(self) -> float:
        coll, bits = self.coll, self.bits
        n, found = len(bits), 0
        t0 = time.perf_counter()
        for a in range(0, n, 3):
            for b in range(a + 1, n, 7):
                perp = coll[a] & coll[b]
                found += int(coll[perp].all(axis=0).sum())
                found += bin(bits[a] & bits[b]).count("1")
        seconds = time.perf_counter() - t0
        assert found > 0
        return seconds


def run_pass(cli, ops: list, rng: random.Random, yardstick: Yardstick,
             tracer=None) -> dict:
    """Every operation once, in a seeded order, each followed by the yardstick.

    With a tracer, each operation runs twice back to back, untraced and
    traced, the first side alternating, so that machine-speed drift hits
    both sides alike.  The traced calls add `traced_seconds`, the per-layer
    summary ({span name: (self seconds, calls)}) and the counters."""
    order = list(ops)
    rng.shuffle(order)
    latencies, traced, yard, failed = [], [], [], 0
    sides = [(None, tracer), (tracer, None)] if tracer else [(None,)]
    if tracer:
        tracer.counts.clear()
        lo = tracer.mark()
    for k, op in enumerate(order):
        for side in sides[k % len(sides)]:
            if side:
                side.install()
            try:
                seconds, ok = run_op(cli, op)
            finally:
                if side:
                    side.uninstall()
            (traced if side else latencies).append(seconds)
            failed += not ok
        yard.append(yardstick())
    result = {"seconds": sum(latencies), "latencies": latencies, "failed": failed,
              "attempted": len(latencies) + len(traced), "yardstick": yard}
    if tracer:
        result["traced_seconds"] = sum(traced)
        result["layers"] = tracer.summarize(lo, tracer.mark())
        result["counts"] = dict(tracer.counts)
    return result


def measure(cli, ops: list, seconds: float, rng: random.Random, tracer=None,
            probe=None) -> tuple:
    """Whole passes until the next one is predicted to end after `seconds`;
    at least one.  With a probe, SETUP_PROBES set-up times are taken between
    passes, spread evenly over the run so that they meet the machine in the
    same states as the passes.  Returns the passes and the set-up times."""
    passes, setup = [], []
    yardstick = Yardstick()
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(cli, ops, rng, yardstick, tracer))
        now = time.perf_counter()
        elapsed = now - t_start
        done = elapsed + (now - t0) > seconds
        if probe:
            due = SETUP_PROBES if done else 1 + int(SETUP_PROBES * elapsed / seconds)
            while len(setup) < min(due, SETUP_PROBES):
                setup.append(probe())
        if done:
            return passes, setup


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it is ready for its
    first timed operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    if line != b"ready\n" or proc.returncode != 0:
        raise SetupError(f"setup probe failed with exit code {proc.returncode}")
    return seconds


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(passes: list, setup: list) -> dict:
    """`pass_s` is the mean over passes: pass times are bimodal when the
    machine's speed flips, and a median of a few of them jumps between the
    modes where the mean moves in proportion to the time spent in each.
    The `_rel` values are divided by the mean yardstick time."""
    pass_s = statistics.mean(p["seconds"] for p in passes)
    yard = statistics.mean(t for p in passes for t in p["yardstick"])
    latencies = [t for p in passes for t in p["latencies"]]
    values = {
        "pass_s": pass_s,
        "pass_rel": pass_s / yard,
        "call_rel.p50": percentile(latencies, 50) / yard,
        "call_rel.p90": percentile(latencies, 90) / yard,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if setup:
        values["setup_s"] = statistics.median(setup)
    return values


def per_layer(passes: list, counters) -> tuple:
    """Per-layer values (medians over passes for times, per-pass counts
    otherwise) and whether every pass counted the same."""
    first = passes[0]
    values = {}
    for name, (_, calls) in first["layers"].items():
        values[f"{name}_s"] = statistics.median(p["layers"][name][0] for p in passes)
        values[f"{name}.calls"] = calls
    values["cli.self_s"] = values.pop("cli.main_s")
    values.update({k: first["counts"].get(k, 0) for k in counters})
    values["trace.overhead_s"] = statistics.median(p["traced_seconds"] - p["seconds"]
                                                   for p in passes)
    def tally(p):
        return {n: c for n, (_, c) in p["layers"].items()}, p["counts"]
    return values, all(tally(p) == tally(first) for p in passes)


def environment(seed: int) -> dict:
    import numpy
    return {"seed": seed, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def describe(workload: str, passes: list, values: dict, setup: list, failed: int,
             attempted: int) -> list:
    """The untraced calls under the metric names of perfbench/README.md."""
    totals = [p["seconds"] for p in passes]
    latencies = [t for p in passes for t in p["latencies"]]
    if workload == "replay":
        pass_name, op_name, unit, scale = "replay pass_s", "replay_ms", "ms", 1000.0
    else:
        pass_name, op_name, unit, scale = "check_s", "space_s", "s", 1.0
    lines = [f"workload {workload}  passes {len(passes)}",
             f"{pass_name:14s} median {statistics.median(totals):.4f} s"
             f"  mean {values['pass_s']:.4f} s  max {max(totals):.4f} s  n={len(totals)}",
             f"pass_rel       {values['pass_rel']:.2f} x the yardstick"]
    lines += [f"{op_name}.p{q}  {percentile(latencies, q) * scale:.4f} {unit}"
              f"  (n={len(latencies)})" for q in (50, 90)]
    lines += [f"peak_rss_mb    {values['peak_rss_mb']:.3f} MB",
              f"failed_frac    {failed / attempted:.4f}  ({failed}/{attempted})"]
    if setup:
        lines.append(f"setup_s        median {values['setup_s']:.4f} s  of {len(setup)} probes")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        cli, ops = load(args.workload, args.seed)
        if args.probe:
            print("ready", flush=True)
            return 0
        tracer = probe = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        else:
            probe = functools.partial(probe_setup, args.workload, args.seed)
        passes, setup = measure(cli, ops, args.seconds, random.Random(args.seed),
                                tracer, probe)
    except (OSError, SetupError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0
    plain = end_to_end(passes, setup)
    if args.trace:
        values, repeat = per_layer(passes, Tracer.COUNTERS)
        if not repeat:
            print("perfbench: traced passes counted differently", file=sys.stderr)
            correct = False
        wanted = spec["per_layer"]
    else:
        values = plain
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    lines = describe(args.workload, passes, plain, setup, failed, attempted)
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed), "setup_s": setup,
              "pass_s": [p["seconds"] for p in passes],
              "traced_pass_s": [p.get("traced_seconds") for p in passes],
              "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer:
        tracer.write(stem + "-spans.json")
    print("\n".join(lines))
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
