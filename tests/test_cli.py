import importlib.util
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polarium import cli
from polarium.catalog import CATALOG, build_space
from polarium.cli import main
from polarium.space import PolarSpace, SpaceError

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden" / "catalog.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info(capsys):
    # ranks 1 to 4, form-backed and combinatorial
    for space, points, lines, rank in [
            ("W(1,3)", 4, 0, 1), ("W(3,2)", 15, 15, 2), ("W(5,2)", 63, 315, 3),
            ("Q+(7,2)", 135, 1575, 4), ("grid(4)", 25, 10, 2),
            ("P(W(3,5))", 125, 175, 2), ("dual(H(4,4))", 297, 165, 2)]:
        code, out, _ = run(capsys, "info", space)
        assert code == 0
        assert json.loads(out) == {"space": space, "points": points, "lines": lines,
                                   "rank": rank}


def test_info_parse_error(capsys):
    code, _, err = run(capsys, "info", "Z(9,9)")
    assert code == 1 and "cannot parse" in err


def test_check_json_schema(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _, _ = run(capsys, "check", "W(3,2)", "--out", str(out_file))
    assert code == 0
    reports = json.loads(out_file.read_text())
    assert len(reports) == 1
    rep = reports[0]
    assert set(rep) == {"space", "points", "lines", "rank", "properties",
                        "equivalences"}
    assert set(rep["properties"]) == {"A", "B_triads", "B_prime", "C", "D",
                                      "regular_pairs", "symplectic"}
    for prop in rep["properties"].values():
        assert "verdict" in prop and "checked_count" in prop
        assert "millis" not in prop  # timing is opt-in, reports stay reproducible


def test_check_timings_flag(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _, _ = run(capsys, "check", "W(3,2)", "--timings", "--out", str(out_file))
    assert code == 0
    rep = json.loads(out_file.read_text())[0]
    assert all("millis" in p for p in rep["properties"].values())


def test_check_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "check", "W(3,2)", "Q+(3,3)", "--out", str(f1))
    run(capsys, "check", "W(3,2)", "Q+(3,3)", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_check_table_format(capsys):
    code, out, _ = run(capsys, "check", "Q+(3,3)", "--format", "table")
    assert code == 0
    assert "Q+(3,3)" in out and "holds" in out and "fails" in out


def test_check_parse_error(capsys):
    code, _, err = run(capsys, "check", "W(2,2)")
    assert code == 1 and "odd projective dimension" in err
    code, _, err = run(capsys, "check", "nonsense")
    assert code == 1 and "cannot parse" in err


def test_check_bound_exceeded(capsys):
    code, _, err = run(capsys, "check", "W(3,3)", "--max-points", "10")
    assert code == 2 and "bound" in err


def test_check_max_points_below_one(capsys):
    for value in ("0", "-3"):
        code, out, err = run(capsys, "check", "W(3,2)", "--max-points", value)
        assert code == 1 and out == "" and "must be at least 1" in err


def test_check_under_python_O():
    # -O strips assert statements: every guard must be a raise, and the
    # report must not change
    golden = {r["space"]: r for r in json.loads(GOLDEN.read_text())}
    want = json.dumps([golden["W(3,2)"], golden["Q(4,3)"]], sort_keys=True, indent=2) + "\n"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run_o = subprocess.run(
        [sys.executable, "-O", "-m", "polarium.cli", "check", "W(3,2)", "Q(4,3)"],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert run_o.returncode == 0, run_o.stderr
    assert run_o.stdout == want


def test_check_matches_golden(capsys, tmp_path):
    # the whole catalog, byte for byte against the shipped golden report
    out_file = tmp_path / "catalog.json"
    code, _, _ = run(capsys, "check", *CATALOG, "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == GOLDEN.read_bytes()


def test_check_matches_stretch_reference(capsys, tmp_path):
    # q = 4, 5 at rank 2 and the rank-3 Q+(5,3), past the catalog: verdicts,
    # witnesses and checked counts against the benchmark's reference report
    reference = json.loads((ROOT / "perfbench" / "reference" / "stretch.json").read_text())
    out_file = tmp_path / "stretch.json"
    specs = [r["space"] for r in reference]
    code, _, _ = run(capsys, "check", *specs, "--out", str(out_file))
    assert code == 0
    got = json.loads(out_file.read_text())
    assert [r["space"] for r in got] == specs
    for mine, want in zip(got, reference):
        assert mine["properties"] == want["properties"], mine["space"]


def test_benchmark_tracer_counts_checked(capsys, tmp_path):
    # perfbench/tracer.py wraps the checkers at their module-level names; each
    # props.<P>.checked counter must sum the report's checked counts
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    out_file = tmp_path / "traced.json"
    tracer.install()
    try:
        assert cli.main(["check", "W(3,2)", "Q(4,3)", "--out", str(out_file)]) == 0
    finally:
        tracer.uninstall()
    reports = json.loads(out_file.read_text())
    for prop in reports[0]["properties"]:
        want = sum(r["properties"][prop]["checked_count"] for r in reports)
        assert tracer.counts[f"props.{prop}.checked"] == want, prop
    # check_A, check_regular_pairs, check_centric_triads and check_D read the
    # memoised line prefix, not hyperbolic.all_hyperbolic_lines; only the one
    # arising build that B' and C share drains it, to count contained traces
    # from the lines' dual lines.  The tracer takes len() of that one result
    # per space: the distinct double perps
    lines = 0
    for name in ["W(3,2)", "Q(4,3)"]:
        coll = build_space(name).coll
        lines += len({tuple(np.flatnonzero(coll[coll[a] & coll[b]].all(axis=0)))
                      for a, b in itertools.combinations(range(len(coll)), 2)
                      if not coll[a, b]})
    assert lines == 20 + 540
    assert tracer.counts["hyperbolic.lines.count"] == 20 + 540


def _tampered(*flips):
    """W(3,2), whose first non-collinear pair is (0, 1), with the entries
    `flips` of coll negated."""
    w = build_space("W(3,2)")
    assert not w.coll[0, 1]
    coll = w.coll.copy()
    for at in flips:
        coll[at] = ~coll[at]
    return PolarSpace("tampered", w.points, [], coll, 2)


_TAMPERED = "tampered: collinearity of points {} is not symmetric with a true diagonal"


@pytest.mark.parametrize("flips, at", [
    ([(0, 1)], "0,1"), ([(1, 0)], "0,1"), ([(3, 3)], "3,3"), ([(9, 9), (5, 1)], "1,5")])
def test_validate_names_first_bad_collinearity_pair(flips, at):
    # collinearity is asserted exhaustively on every build: the first pair in
    # row-major order where coll is not symmetric or its diagonal is False
    with pytest.raises(SpaceError, match=f"^{re.escape(_TAMPERED.format(at))}$"):
        _tampered(*flips)


def test_bad_collinearity_exit_codes(capsys, monkeypatch):
    # a space that fails the collinearity check is a space error in every command
    monkeypatch.setattr(cli, "build_space", lambda spec, max_points=None: _tampered((0, 1)))
    message = _TAMPERED.format("0,1")
    for command in ("check", "info"):
        assert run(capsys, command, "W(3,2)") == (3, "", f"polarium: space error: {message}\n")
    assert run(capsys, "replay", str(GOLDEN), "Q-(5,2)/A") == (
        3, "", f"polarium: Q-(5,2)/A: malformed witness or space: SpaceError({message!r})\n")


def test_check_space_error(capsys):
    # an elliptic quadric of PG(3,2) is an ovoid: rank 1, no sub-generators
    code, _, err = run(capsys, "check", "Q-(3,2)")
    assert code == 3 and "rank 1" in err


def test_expectation_match(capsys):
    code, _, _ = run(capsys, "check", "W(3,3)", "--expect", str(GOLDEN),
                     "--out", "/dev/null")
    assert code == 0


def test_expectation_mismatch(capsys, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    tampered = [r for r in golden if r["space"] == "W(3,3)"]
    tampered[0]["properties"]["A"]["verdict"] = "fails"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tampered))
    code, _, err = run(capsys, "check", "W(3,3)", "--expect", str(bad),
                       "--out", "/dev/null")
    assert code == 4 and "mismatch" in err
    # an expectation file that is missing, not JSON or not a check report
    (tmp_path / "garbled.json").write_text("not json {")
    (tmp_path / "listed.json").write_text("[1]")
    for name, message in [("missing.json", "cannot read"), ("garbled.json", "not a JSON report"),
                          ("listed.json", "not a check report")]:
        code, _, err = run(capsys, "check", "W(3,2)", "--expect", str(tmp_path / name),
                           "--out", "/dev/null")
        assert code == 1 and err.startswith("polarium: ") and message in err, name


def test_check_out_unwritable(capsys, tmp_path):
    code, _, err = run(capsys, "check", "W(3,2)", "--out", str(tmp_path))
    assert code == 1 and err.startswith(f"polarium: cannot write {tmp_path}")


def test_replay_valid(capsys):
    code, out, _ = run(capsys, "replay", str(GOLDEN), "Q-(5,2)/A")
    assert code == 0 and "witness valid" in out


def test_replay_nothing_to_replay(capsys):
    code, _, err = run(capsys, "replay", str(GOLDEN), "W(3,2)/A")
    assert code == 1 and "nothing to replay" in err


def test_replay_unknown_id(capsys):
    code, _, err = run(capsys, "replay", str(GOLDEN), "W(9,9)/A")
    assert code == 1


def test_replay_stale_witness(capsys, tmp_path):
    reports = json.loads(GOLDEN.read_text())
    rep = next(r for r in reports if r["space"] == "Q-(5,2)")
    w = rep["properties"]["A"]["witness"]
    w["a"], w["b"] = w["b"], w["generator"][0]  # corrupt the pair
    bad = tmp_path / "mutated.json"
    bad.write_text(json.dumps(reports))
    code, _, err = run(capsys, "replay", str(bad), "Q-(5,2)/A")
    assert code == 3 and "stale" in err


def _tampered_report(tmp_path, space, prop, mutate):
    reports = json.loads(GOLDEN.read_text())
    rep = next(r for r in reports if r["space"] == space)
    mutate(rep["properties"][prop]["witness"])
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(reports))
    return str(path)


def test_replay_witness_names_no_point(capsys, tmp_path):
    report = _tampered_report(tmp_path, "Q-(5,2)", "A", lambda w: w.update(a=[9] * 6))
    code, _, err = run(capsys, "replay", report, "Q-(5,2)/A")
    assert code == 3 and "malformed" in err


def test_replay_witness_missing_key(capsys, tmp_path):
    report = _tampered_report(tmp_path, "Q-(5,2)", "A", lambda w: w.pop("b"))
    code, _, err = run(capsys, "replay", report, "Q-(5,2)/A")
    assert code == 3 and "malformed" in err
    # a witness that is not an object at all
    reports = json.loads(GOLDEN.read_text())
    next(r for r in reports if r["space"] == "Q-(5,2)")["properties"]["A"]["witness"] = [1]
    path = tmp_path / "listed.json"
    path.write_text(json.dumps(reports))
    code, _, err = run(capsys, "replay", str(path), "Q-(5,2)/A")
    assert code == 3 and "malformed" in err


@pytest.mark.parametrize("spec,reason", [
    ("Q-(1,2)", "no vanishing points"), ("P(W(3,2))", "thin line")])
def test_info_space_error(capsys, spec, reason):
    # info reports a space that fails to build as check does, not by a traceback
    for command in ("info", "check"):
        code, out, err = run(capsys, command, spec)
        assert (code, out) == (3, "") and err.startswith("polarium: space error:")
        assert reason in err


def test_dual_of_higher_rank_is_a_spec_error(capsys):
    # dualization needs a rank-2 space: a usage error, not a ValueError
    for command in ("info", "check"):
        code, out, err = run(capsys, command, "dual(W(5,2))")
        assert (code, out) == (1, "") and "rank-2" in err and "Traceback" not in err


def test_replay_space_error(capsys, tmp_path):
    # a hand-made report on the rank-1 ovoid Q-(3,2): replay hits its SpaceError
    labels = [list(p) for p in build_space("Q-(3,2)").points[:2]]
    report = tmp_path / "rank1.json"
    report.write_text(json.dumps([{"space": "Q-(3,2)", "properties": {"A": {
        "verdict": "fails", "witness": {"a": labels[0], "b": labels[1], "generator": []}}}}]))
    code, _, err = run(capsys, "replay", str(report), "Q-(3,2)/A")
    assert code == 3 and "rank 1" in err


@pytest.mark.parametrize("name, reason", [("Z(9,9)", "cannot parse"), ("dual(W(5,2))", "rank-2")])
def test_replay_spec_parse_error(capsys, tmp_path, name, reason):
    # a report whose space name does not parse: a usage error, as in check and info
    report = tmp_path / "unparsed.json"
    report.write_text(json.dumps([{"space": name, "properties": {"A": {
        "verdict": "fails", "witness": {"a": [0], "b": [1], "generator": []}}}}]))
    code, out, err = run(capsys, "replay", str(report), f"{name}/A")
    assert (code, out) == (1, "") and err.startswith("polarium: ") and reason in err
    assert "malformed" not in err


def test_replay_bound_exceeded(capsys, tmp_path):
    # W(7,3) has 3280 points, above the default bound of 2000
    report = tmp_path / "oversize.json"
    report.write_text(json.dumps([{"space": "W(7,3)", "properties": {"A": {
        "verdict": "fails", "witness": {"a": [1] + [0] * 7, "b": [0, 1] + [0] * 6,
                                        "generator": []}}}}]))
    code, _, err = run(capsys, "replay", str(report), "W(7,3)/A")
    assert code == 2 and err.startswith("polarium: bound exceeded: ")


def test_replay_report_not_json(capsys, tmp_path):
    path = tmp_path / "report.json"
    path.write_text("not json {")
    code, _, err = run(capsys, "replay", str(path), "Q-(5,2)/A")
    assert code == 1 and "not a JSON report" in err
    # JSON, but not shaped like a check report
    no_verdict = [{"space": "Q-(5,2)", "properties": {"A": {"witness": {}}}}]
    for payload in ([1], "x", no_verdict):
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "replay", str(path), "Q-(5,2)/A")
        assert code == 1 and "not a check report" in err, payload
    # a report that is missing, or a directory
    for missing in (tmp_path / "missing.json", tmp_path):
        code, _, err = run(capsys, "replay", str(missing), "Q-(5,2)/A")
        assert code == 1 and err.startswith(f"polarium: cannot read {missing}"), missing


def test_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check"])  # missing specs
    assert exc.value.code == 1


def test_main_calls_share_one_parser(capsys, tmp_path):
    # main builds its parser once per process: a usage error, a check, a
    # replay and a stale witness, called in turn, give the exit code and
    # output each gives from a freshly built parser
    reports = json.loads(GOLDEN.read_text())
    w = next(r for r in reports if r["space"] == "Q-(5,2)")["properties"]["A"]["witness"]
    w["a"], w["b"] = w["b"], w["generator"][0]
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(reports))
    calls = [["check"], ["check", "W(3,2)", "Q(4,3)"], ["replay", str(GOLDEN), "Q(4,3)/regular_pairs"],
             ["replay", str(stale), "Q-(5,2)/A"]]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(call(argv))
    cli._build_parser.cache_clear()
    assert [call(argv) for argv in calls] == alone
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in alone] == [1, 0, 0, 3]
    assert "required: SPEC" in alone[0][2] and "witness valid" in alone[2][1]
    assert json.loads(alone[1][1])[1]["space"] == "Q(4,3)" and "stale" in alone[3][2]


def _golden_with(space, prop, mutate):
    reports = json.loads(GOLDEN.read_text())
    mutate(next(r for r in reports if r["space"] == space)["properties"][prop])
    return reports


def _one_entry(space, witness):
    return [{"space": space, "properties": {"A": {"verdict": "fails", "witness": witness}}}]


# name -> JSON payload of the report and --expect files that the error
# paths below read from {tmp}, beside garbled.json, which is not JSON
_ERROR_FILES = {
    "listed.json": [1],
    "string.json": "x",
    "no_verdict.json": [{"space": "Q-(5,2)", "properties": {"A": {"witness": {}}}}],
    "mismatch.json": _golden_with("W(3,3)", "A", lambda e: e.update(verdict="fails")),
    "no_point.json": _golden_with("Q-(5,2)", "A", lambda e: e["witness"].update(a=[9] * 6)),
    "missing_key.json": _golden_with("Q-(5,2)", "A", lambda e: e["witness"].pop("b")),
    "not_object.json": _golden_with("Q-(5,2)", "A", lambda e: e.update(witness=[1])),
    "stale.json": _golden_with("Q-(5,2)", "A", lambda e: e["witness"].update(
        a=e["witness"]["b"], b=e["witness"]["generator"][0])),
    "rank1.json": _one_entry("Q-(3,2)", {"a": [0, 0, 0, 1], "b": [0, 0, 1, 0],
                                         "generator": []}),
    "unparsed.json": _one_entry("Z(9,9)", {"a": [0], "b": [1], "generator": []}),
    "dual.json": _one_entry("dual(W(5,2))", {"a": [0], "b": [1], "generator": []}),
    "oversize.json": _one_entry("W(7,3)", {"a": [1] + [0] * 7, "b": [0, 1] + [0] * 6,
                                           "generator": []}),
}

_ERROR_PATHS = [
    # command line -> exit code and stderr, with nothing on stdout; {tmp}
    # holds _ERROR_FILES
    (["check", "nonsense"], 1,
     "polarium: cannot parse space spec 'nonsense'\n"),
    (["check", "W(2,2)"], 1,
     "polarium: W requires odd projective dimension (even ambient)\n"),
    (["check", "W(3,2)", "grid(1)"], 1,
     "polarium: grids need order >= 2\n"),
    (["check", "W(3,6)"], 1,
     "polarium: 6 is not a prime power\n"),
    (["check", "dual(W(5,2))"], 1,
     "polarium: W(5,2): dualization needs a rank-2 space\n"),
    (["check", "W(3,3)", "--max-points", "10"], 2,
     "polarium: bound exceeded: W(3,3): 40 points exceed bound 10\n"),
    (["check", "W(3,2)", "--max-points", "0"], 1,
     "polarium: --max-points must be at least 1, got 0\n"),
    (["check", "W(3,2)", "--max-points", "-3"], 1,
     "polarium: --max-points must be at least 1, got -3\n"),
    (["check", "W(3,2)", "--expect", "{tmp}/missing.json"], 1,
     "polarium: cannot read {tmp}/missing.json: No such file or directory\n"),
    (["check", "W(3,2)", "--expect", "{tmp}/garbled.json"], 1,
     "polarium: {tmp}/garbled.json is not a JSON report: Expecting value: line 1 column 1 (char 0)\n"),
    (["check", "W(3,2)", "--expect", "{tmp}/listed.json", "--out", "/dev/null"], 1,
     "polarium: the --expect file is not a check report\n"),
    (["check", "W(3,2)", "--out", "{tmp}"], 1,
     "polarium: cannot write {tmp}: Is a directory\n"),
    (["check", "W(3,3)", "--expect", "{tmp}/mismatch.json", "--out", "/dev/null"], 4,
     "polarium: expectation mismatch: W(3,3)/A: expected fails, got holds\n"),
    (["check", "Q-(3,2)"], 3,
     "polarium: space error: Q-(3,2): rank 1 < 2 has no sub-generators\n"),
    (["check", "Q-(1,2)"], 3,
     "polarium: space error: Q-(1,2): the form has no vanishing points\n"),
    (["check", "P(W(3,2))"], 3,
     "polarium: space error: P(W(3,2)): thin line in a thick-lined space\n"),
    (["info", "Z(9,9)"], 1,
     "polarium: cannot parse space spec 'Z(9,9)'\n"),
    (["info", "dual(W(5,2))"], 1,
     "polarium: W(5,2): dualization needs a rank-2 space\n"),
    (["info", "W(7,3)"], 2,
     "polarium: bound exceeded: W(7,3): 3280 points exceed bound 2000\n"),
    (["info", "Q-(1,2)"], 3,
     "polarium: space error: Q-(1,2): the form has no vanishing points\n"),
    (["info", "P(W(3,2))"], 3,
     "polarium: space error: P(W(3,2)): thin line in a thick-lined space\n"),
    (["replay", "{golden}", "W(3,2)"], 1,
     'polarium: witness id must look like "W(3,2)/A"\n'),
    (["replay", "{golden}", "W(9,9)/A"], 1,
     "polarium: no entry for W(9,9)/A in the report\n"),
    (["replay", "{golden}", "Q-(5,2)/E"], 1,
     "polarium: no entry for Q-(5,2)/E in the report\n"),
    (["replay", "{golden}", "W(3,2)/A"], 1,
     "polarium: W(3,2)/A verdict is 'holds'; nothing to replay\n"),
    (["replay", "{tmp}/missing.json", "Q-(5,2)/A"], 1,
     "polarium: cannot read {tmp}/missing.json: No such file or directory\n"),
    (["replay", "{tmp}", "Q-(5,2)/A"], 1,
     "polarium: cannot read {tmp}: Is a directory\n"),
    (["replay", "{tmp}/garbled.json", "Q-(5,2)/A"], 1,
     "polarium: {tmp}/garbled.json is not a JSON report: Expecting value: line 1 column 1 (char 0)\n"),
    (["replay", "{tmp}/listed.json", "Q-(5,2)/A"], 1,
     "polarium: {tmp}/listed.json is not a check report\n"),
    (["replay", "{tmp}/string.json", "Q-(5,2)/A"], 1,
     "polarium: {tmp}/string.json is not a check report\n"),
    (["replay", "{tmp}/no_verdict.json", "Q-(5,2)/A"], 1,
     "polarium: {tmp}/no_verdict.json is not a check report\n"),
    (["replay", "{tmp}/no_point.json", "Q-(5,2)/A"], 3,
     "polarium: Q-(5,2)/A: malformed witness or space: ValueError('[9, 9, 9, 9, 9, 9] is not a point of Q-(5,2)')\n"),
    (["replay", "{tmp}/missing_key.json", "Q-(5,2)/A"], 3,
     "polarium: Q-(5,2)/A: malformed witness or space: KeyError('b')\n"),
    (["replay", "{tmp}/not_object.json", "Q-(5,2)/A"], 3,
     "polarium: Q-(5,2)/A: malformed witness or space: TypeError('list indices must be integers or slices, not str')\n"),
    (["replay", "{tmp}/stale.json", "Q-(5,2)/A"], 3,
     "polarium: Q-(5,2)/A: stale witness (nondeterminism or tampered report)\n"),
    (["replay", "{tmp}/rank1.json", "Q-(3,2)/A"], 3,
     "polarium: Q-(3,2)/A: malformed witness or space: SpaceError('Q-(3,2): rank 1 < 2 has no sub-generators')\n"),
    (["replay", "{tmp}/unparsed.json", "Z(9,9)/A"], 1,
     "polarium: cannot parse space spec 'Z(9,9)'\n"),
    (["replay", "{tmp}/dual.json", "dual(W(5,2))/A"], 1,
     "polarium: W(5,2): dualization needs a rank-2 space\n"),
    (["replay", "{tmp}/oversize.json", "W(7,3)/A"], 2,
     "polarium: bound exceeded: W(7,3): 3280 points exceed bound 2000\n"),
]


@pytest.mark.parametrize("argv, code, err", _ERROR_PATHS,
                         ids=[" ".join(p[0]) for p in _ERROR_PATHS])
def test_error_output_pinned(capsys, tmp_path, argv, code, err):
    # every error path: the exit code, stdout and stderr, byte for byte
    for name, payload in _ERROR_FILES.items():
        (tmp_path / name).write_text(json.dumps(payload))
    (tmp_path / "garbled.json").write_text("not json {")
    argv = [a.replace("{tmp}", str(tmp_path)).replace("{golden}", str(GOLDEN)) for a in argv]
    assert run(capsys, *argv) == (code, "", err.replace("{tmp}", str(tmp_path)))
