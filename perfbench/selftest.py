"""Self-test of the benchmark's own checks.  Run from the repository root:

    python3 perfbench/selftest.py

1. Two traced passes of each workload, in the orders of two seeds, give
   identical `.calls`, `.count`, `.points` and `.checked` values.
2. On `catalog` and `stretch`, `props.<P>.checked` equals the sum of the
   reference `checked_count` of P.
3. Tampered references -- a verdict, a witness and a checked_count of a
   `check` report, and two `replay` witnesses -- each make their operation
   fail, so `failed_frac` is above 0.

Prints one line per check and exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import random
import sys

import run
from tracer import Tracer

PROPS = ("A", "B_prime", "B_triads", "C", "D", "regular_pairs", "symplectic")
FAILURES = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def counts_of(cli, ops, seed):
    result = run.run_pass(cli, ops, random.Random(seed), run.Yardstick(), Tracer())
    calls = {name: c for name, (_, c) in result["layers"].items()}
    return result["failed"], calls, result["counts"]


def determinism(workload: str):
    cli, ops = run.load(workload, 0)
    failed_1, calls_1, counts_1 = counts_of(cli, ops, 1)
    failed_2, calls_2, counts_2 = counts_of(cli, ops, 2)
    expect(failed_1 == failed_2 == 0, f"{workload}: untampered passes have no failures")
    expect(calls_1 == calls_2, f"{workload}: span calls repeat")
    expect(counts_1 == counts_2, f"{workload}: counters repeat")
    if workload == "replay":
        return
    ref = run.read_reports(run.GOLDEN if workload == "catalog" else run.STRETCH_REF)
    for p in PROPS:
        want = sum(r["properties"][p]["checked_count"] for r in ref.values())
        expect(counts_1.get(f"props.{p}.checked", 0) == want,
               f"{workload}: props.{p}.checked = reference sum {want}")


def write_copy(reports: dict, name: str) -> str:
    os.makedirs(run.OUT, exist_ok=True)
    path = os.path.join(run.OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(list(reports.values()), fh)
    return path


def tampered_failures(workload: str, golden: str, stretch_ref: str, wanted) -> tuple:
    """(failed, attempted) over the ops of `wanted` (space or witness ids)."""
    cli, ops = run.load(workload, 0, golden=golden, stretch_ref=stretch_ref)
    ops = [op for op in ops if op.argv[-1] in wanted or op.argv[1] in wanted]
    failed = sum(not run.run_op(cli, op)[1] for op in ops)
    return failed, len(ops)


def tampering():
    gold = run.read_reports(run.GOLDEN)
    stretch = run.read_reports(run.STRETCH_REF)

    bad = copy.deepcopy(gold)
    bad["W(3,2)"]["properties"]["A"]["verdict"] = "fails"
    bad["Q(4,3)"]["properties"]["C"]["checked_count"] += 1
    witness = bad["Q-(5,2)"]["properties"]["A"]["witness"]
    witness["generator"] = witness["generator"][::-1]
    path = write_copy(bad, "tampered-catalog.json")
    failed, attempted = tampered_failures("catalog", path, run.STRETCH_REF,
                                          {"W(3,2)", "Q(4,3)", "Q-(5,2)"})
    expect(attempted == 3 and failed == 3,
           f"catalog: tampered verdict, checked_count and witness fail ({failed}/{attempted})")

    bad = copy.deepcopy(stretch)
    bad["Q-(5,3)"]["properties"]["regular_pairs"]["checked_count"] -= 1
    path = write_copy(bad, "tampered-stretch.json")
    failed, attempted = tampered_failures("stretch", run.GOLDEN, path, {"Q-(5,3)"})
    expect(attempted == 1 and failed == 1,
           f"stretch: tampered checked_count fails ({failed}/{attempted})")

    bad = copy.deepcopy(stretch)
    d = bad["Q(4,5)"]["properties"]["D"]["witness"]
    d["point"] = d["hyperbolic_line"][0]
    t = bad["Q+(5,3)"]["properties"]["B_triads"]["witness"]
    t["c"] = t["a"]
    path = write_copy(bad, "tampered-stretch.json")
    failed, attempted = tampered_failures("replay", run.GOLDEN, path,
                                          {"Q(4,5)/D", "Q+(5,3)/B_triads"})
    expect(attempted == 2 and failed == 2,
           f"replay: tampered witnesses fail ({failed}/{attempted})")


def main() -> int:
    for workload in run.WORKLOADS:
        determinism(workload)
    tampering()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
