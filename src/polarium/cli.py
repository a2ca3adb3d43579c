"""Command-line driver: build spaces from spec strings, run the property
battery, emit deterministic JSON reports, replay failure witnesses.

Exit codes: 0 success; 1 usage or spec-parse error (also: nothing to
replay, a report or --expect file that cannot be read, is not JSON or is not
shaped like a check report, an --out file that cannot be written, or
--max-points below 1); 2 enumeration bound exceeded, in check or in replay;
3 equivalence-assertion failure, polar-space axiom failure (SpaceError),
stale or malformed witness (one that is not an object, lacks a key or names
no point); 4 expectation mismatch.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import numpy as np

from polarium import props
from polarium.catalog import SpecParseError, build_space, parse_space_spec
from polarium.linalg import BoundExceeded
from polarium.props import EquivalenceViolation, full_report, validate_witness
from polarium.space import SpaceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND = 2
EXIT_ASSERTION = 3
EXIT_EXPECTATION = 4

TABLE_COLUMNS = ["A", "B_triads", "B_prime", "C", "D", "regular_pairs", "symplectic"]


class _FileError(Exception):
    """A file named on the command line cannot be read or written."""


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _FileError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise _FileError(f"{path} is not a JSON report: {exc}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="polarium",
                     description="finite polar space property verification")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the property battery on spaces")
    check.add_argument("specs", nargs="+", metavar="SPEC",
                       help='space specs like "W(3,2)", "Q-(5,2)", "P(W(3,5))"')
    check.add_argument("--expect", metavar="FILE",
                       help="golden report; exit 4 if any verdict differs")
    check.add_argument("--out", metavar="FILE", help="write the JSON report here")
    check.add_argument("--format", choices=["json", "table"], default="json")
    check.add_argument("--max-points", type=int, default=2000)
    check.add_argument("--seed", type=int, default=0,
                       help="seed for the sampled perp-invariant self-check")
    check.add_argument("--timings", action="store_true",
                       help="include per-checker millis (breaks byte-for-byte "
                            "reproducibility)")

    replay = sub.add_parser("replay", help="re-validate a reported witness")
    replay.add_argument("report", help="JSON report produced by check")
    replay.add_argument("witness_id", metavar="WITNESS",
                        help='"<space>/<property>", e.g. "Q-(5,2)/A"')

    info = sub.add_parser("info", help="point/line/rank counts only")
    info.add_argument("spec")
    return parser


def _check_one(spec_text: str, max_points: int, seed: int):
    space = build_space(spec_text, max_points=max_points)
    _sampled_perp_invariant(space, seed)
    return full_report(space)


def _sampled_perp_invariant(space, seed, samples=200):
    """perp(perp(perp(X))) == perp(X) on seeded random point sets."""
    rng = random.Random(f"{seed}:{space.name}")
    n = space.n_points
    for _ in range(samples):
        size = rng.randrange(1, min(4, n) + 1)
        idxs = sorted(rng.sample(range(n), size))
        first = space.perp_mask(idxs)
        if not first.any():
            continue
        second = space.coll[first].all(axis=0)
        third = space.coll[second].all(axis=0)
        if not np.array_equal(first, third):
            raise EquivalenceViolation(
                f"{space.name}: triple perp differs from perp on {idxs}")


def _render_table(reports) -> str:
    width = max(len(r["space"]) for r in reports) + 2
    head = "space".ljust(width) + "  ".join(c.ljust(13) for c in TABLE_COLUMNS)
    lines = [head, "-" * len(head)]
    for r in reports:
        cells = [r["properties"][c]["verdict"].ljust(13) for c in TABLE_COLUMNS]
        lines.append(r["space"].ljust(width) + "  ".join(cells))
    return "\n".join(lines) + "\n"


def _compare_expectation(reports, expected):
    """Verdict differences between the reports and an expectation file."""
    diffs = []
    try:
        by_name = {r["space"]: r for r in expected}
        for rep in reports:
            exp = by_name.get(rep["space"])
            if exp is None:
                diffs.append(f'{rep["space"]}: missing from expectation file')
                continue
            for prop, data in rep["properties"].items():
                want = exp["properties"].get(prop, {}).get("verdict")
                if want != data["verdict"]:
                    diffs.append(f'{rep["space"]}/{prop}: expected {want}, '
                                 f'got {data["verdict"]}')
    except (TypeError, KeyError, AttributeError):
        raise _FileError("the --expect file is not a check report") from None
    return diffs


def cmd_check(args) -> int:
    if args.max_points < 1:
        print(f"polarium: --max-points must be at least 1, got {args.max_points}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        for s in args.specs:
            parse_space_spec(s)
    except SpecParseError as exc:
        print(f"polarium: {exc}", file=sys.stderr)
        return EXIT_USAGE
    expected = _read_json(args.expect) if args.expect else None
    try:
        results = [_check_one(s, args.max_points, args.seed) for s in args.specs]
    except SpecParseError as exc:
        print(f"polarium: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BoundExceeded as exc:
        print(f"polarium: bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except EquivalenceViolation as exc:
        print(f"polarium: equivalence assertion failed: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except SpaceError as exc:
        print(f"polarium: space error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION

    reports = [r.to_dict(include_millis=args.timings) for r in results]
    payload = json.dumps(reports, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise _FileError(f"cannot write {args.out}: {exc.strerror}") from None
    if args.format == "table":
        sys.stdout.write(_render_table(reports))
    elif not args.out:
        sys.stdout.write(payload)

    if args.expect:
        diffs = _compare_expectation(reports, expected)
        if diffs:
            for d in diffs:
                print(f"polarium: expectation mismatch: {d}", file=sys.stderr)
            return EXIT_EXPECTATION
    return EXIT_OK


def cmd_replay(args) -> int:
    reports = _read_json(args.report)
    if "/" not in args.witness_id:
        print('polarium: witness id must look like "W(3,2)/A"', file=sys.stderr)
        return EXIT_USAGE
    space_name, prop = args.witness_id.rsplit("/", 1)
    try:
        rep = next((r for r in reports if r["space"] == space_name), None)
        entry = None if rep is None else rep.get("properties", {}).get(prop)
        verdict = None if entry is None else entry["verdict"]
    except (TypeError, KeyError, AttributeError):
        print(f"polarium: {args.report} is not a check report", file=sys.stderr)
        return EXIT_USAGE
    if entry is None:
        print(f"polarium: no entry for {args.witness_id} in the report",
              file=sys.stderr)
        return EXIT_USAGE
    if verdict != props.FAILS:
        print(f"polarium: {args.witness_id} verdict is {verdict!r}; "
              "nothing to replay", file=sys.stderr)
        return EXIT_USAGE
    try:
        space = build_space(space_name)
        valid = validate_witness(space, prop, entry["witness"])
    except BoundExceeded as exc:
        print(f"polarium: bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (KeyError, TypeError, ValueError, SpaceError) as exc:
        print(f"polarium: {args.witness_id}: malformed witness or space: {exc!r}",
              file=sys.stderr)
        return EXIT_ASSERTION
    if valid:
        print(f"{args.witness_id}: witness valid")
        return EXIT_OK
    print(f"polarium: {args.witness_id}: stale witness (nondeterminism or "
          "tampered report)", file=sys.stderr)
    return EXIT_ASSERTION


def cmd_info(args) -> int:
    try:
        space = build_space(args.spec)
    except SpecParseError as exc:
        print(f"polarium: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BoundExceeded as exc:
        print(f"polarium: bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    info = {"space": space.name, "points": space.n_points,
            "lines": len(space.lines), "rank": space.rank}
    sys.stdout.write(json.dumps(info, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "replay":
            return cmd_replay(args)
        return cmd_info(args)
    except _FileError as exc:
        print(f"polarium: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
