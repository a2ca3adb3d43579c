import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polarium import cli
from polarium.catalog import CATALOG, build_space
from polarium.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden" / "catalog.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info(capsys):
    code, out, _ = run(capsys, "info", "W(3,2)")
    assert code == 0
    assert json.loads(out) == {"space": "W(3,2)", "points": 15, "lines": 15,
                               "rank": 2}


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


def test_replay_space_error(capsys, tmp_path):
    # a hand-made report on the rank-1 ovoid Q-(3,2): replay hits its SpaceError
    labels = [list(p) for p in build_space("Q-(3,2)").points[:2]]
    report = tmp_path / "rank1.json"
    report.write_text(json.dumps([{"space": "Q-(3,2)", "properties": {"A": {
        "verdict": "fails", "witness": {"a": labels[0], "b": labels[1], "generator": []}}}}]))
    code, _, err = run(capsys, "replay", str(report), "Q-(3,2)/A")
    assert code == 3 and "rank 1" in err


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
