"""Write perfbench/reference/stretch.json, the reference for the `stretch` workload.

Run from the repository root:  python3 perfbench/make_reference.py

The reports come from `polarium check` itself.  Before anything is written,
the theorem matrix is asserted: W(3,5) is symplectic and Q(4,4) is too
through its characteristic-2 nucleus quotient, so every property holds on
both; the other four spaces are not symplectic.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run

SYMPLECTIC = {"W(3,5)", "Q(4,4)"}


def main() -> int:
    sys.path.insert(0, run.SRC)
    from polarium import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", *run.STRETCH, "--seed", "0"])
    if code != 0:
        raise SystemExit(f"polarium check exited {code}")
    payload = out.getvalue()
    reports = json.loads(payload)

    if [r["space"] for r in reports] != run.STRETCH:
        raise SystemExit("report order differs from the stretch spaces")
    witnesses = 0
    for r in reports:
        verdicts = {p: v["verdict"] for p, v in r["properties"].items()}
        if r["space"] in SYMPLECTIC:
            if set(verdicts.values()) != {"holds"}:
                raise SystemExit(f"{r['space']} should hold everywhere: {verdicts}")
        elif verdicts["symplectic"] != "fails":
            raise SystemExit(f"{r['space']} should fail symplectic: {verdicts}")
        witnesses += sum(v == "fails" for v in verdicts.values())

    os.makedirs(os.path.dirname(run.STRETCH_REF), exist_ok=True)
    with open(run.STRETCH_REF, "w", encoding="utf-8") as fh:
        fh.write(payload)
    print(f"wrote {os.path.relpath(run.STRETCH_REF, run.ROOT)}: "
          f"{len(reports)} spaces, {witnesses} failing witnesses")
    return 0


if __name__ == "__main__":
    sys.exit(main())
