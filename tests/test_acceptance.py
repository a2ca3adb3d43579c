"""Acceptance gate: every criterion below runs at its exact expected value
(combinatorial counts and verdicts admit no tolerance).  One line per
criterion is printed; `pytest -v` likewise shows one pass/fail row each."""

import itertools
import json
import random
import time
from contextlib import contextmanager

from polarium import embed, hyperbolic, hyperplanes
from polarium.catalog import CATALOG, build_space
from polarium.cli import main as cli_main
from polarium.derived import payne_a_failure_witness
from polarium.props import FAILS, HOLDS, SKIPPED, full_report, validate_witness

ALL_HOLD = {"A": HOLDS, "B_triads": HOLDS, "B_prime": HOLDS, "C": HOLDS,
            "D": HOLDS, "regular_pairs": HOLDS, "symplectic": HOLDS}


@contextmanager
def criterion(n, text):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {n} ({text}): FAIL")
        raise
    print(f"ACCEPTANCE {n} ({text}): PASS")


def test_criterion_1_symplectic_suite():
    with criterion(1, "symplectic suite all-hold, < 60 s"):
        t0 = time.perf_counter()
        for name in ["W(3,2)", "W(3,3)", "W(5,2)", "Q(4,2)", "Q(6,2)"]:
            rep = full_report(build_space(name))
            got = {k: v.status for k, v in rep.verdicts.items()}
            assert got == ALL_HOLD, (name, got)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_2_negative_matrix(space_for, report_for):
    with criterion(2, "negative matrix with replayable witnesses"):
        expected = {
            "Q-(5,2)": {"B_triads": HOLDS, "A": FAILS, "C": FAILS, "D": FAILS,
                        "symplectic": FAILS},
            "Q+(3,3)": {"A": HOLDS, "B_triads": FAILS, "symplectic": FAILS},
            "Q+(3,4)": {"A": HOLDS, "B_triads": FAILS, "symplectic": FAILS},
            "Q(4,3)": {"A": FAILS, "C": FAILS, "D": FAILS, "symplectic": FAILS},
            "H(3,4)": {"A": HOLDS, "B_prime": FAILS, "symplectic": FAILS},
        }
        for name, matrix in expected.items():
            rep = report_for(name)
            for prop, want in matrix.items():
                assert rep.verdicts[prop].status == want, (name, prop)
            for prop, verdict in rep.verdicts.items():
                if verdict.status == FAILS:
                    assert validate_witness(space_for(name), prop,
                                            verdict.witness), (name, prop)


def test_criterion_3_equivalences(report_for):
    with criterion(3, "equivalence assertions hold catalog-wide"):
        for name in CATALOG:
            rep = report_for(name)  # full_report raises on any violation
            assert all(e["status"] in ("ok", "skipped") for e in rep.equivalences)
            if name in ("P(W(3,5))", "dual(H(4,4))", "grid(4)"):
                assert rep.verdicts["symplectic"].status == SKIPPED
            else:
                assert {e["name"] for e in rep.equivalences if e["status"] == "ok"} \
                    >= {"A<=>regular_pairs", "B_triads<=>B_prime",
                        "A&B<=>symplectic", "C<=>symplectic", "D<=>symplectic"}


def test_criterion_4_embedding_identities(space_for):
    with criterion(4, "Lemma-emb/Corollary-emb identities on 50 pairs"):
        for name in ["W(3,2)", "Q(4,3)"]:
            space = space_for(name)
            e = embed.natural_embedding(space)
            pairs = [(a, b) for a, b in
                     itertools.combinations(range(space.n_points), 2)
                     if not space.collinear(a, b)]
            rng = random.Random(2024)
            for a, b in rng.sample(pairs, 50):
                r = embed.check_emb_identities(e, a, b)
                assert r["perp_span_codim_2"] and r["perp_span_equals_f_perp"]
                assert r["double_perp_is_line_preimage"]
                assert r["gen_perp_equality"] == r["dim_is_2n"]  # exact iff


def test_criterion_5_quotient_nucleus(space_for):
    with criterion(5, "nucleus quotient and universal embedding, exact"):
        q42 = space_for("Q(4,2)")
        mini = embed.minimal_embedding(q42)
        assert mini.dim == 4
        assert len(mini.image_points()) == 15  # all of PG(3,2)

        w32 = space_for("W(3,2)")
        uni = embed.universal_embedding_sp_char2(w32)
        assert uni.image_points() == set(q42.vectors)  # onto Q(4,2)'s 15 points
        rec = embed.quotient_embedding(uni, uni.bilinear.radical())
        assert rec.images == embed.natural_embedding(w32).images  # point-for-point


def test_criterion_6_char2_sections(space_for):
    with criterion(6, "char-2 hyperbolic-line sections 0-or-2; odd-q contrast"):
        for name in ["W(3,2)", "W(3,4)"]:
            space = space_for(name)
            uni = embed.universal_embedding_sp_char2(space)
            sections = hyperplanes.arising_hyperplanes(uni).masks
            for h in hyperbolic.all_hyperbolic_lines(space).points():
                counts = sections[:, list(h)].sum(axis=1)
                assert set(counts.tolist()) & {0, 2}, (name, h)
        w33 = space_for("W(3,3)")
        hlines = hyperbolic.all_hyperbolic_lines(w33).points()
        for h in hyperplanes.arising_hyperplanes(embed.natural_embedding(w33)).masks:
            assert hyperplanes.classify(w33, h) == hyperplanes.SINGULAR
            for hl in hlines:
                assert h[list(hl)].any()


def test_criterion_7_payne():
    with criterion(7, "Payne derivation P(W(3,5)), exact, < 30 s"):
        t0 = time.perf_counter()
        p = build_space("P(W(3,5))")
        assert p.n_points == 125
        assert {len(l) for l in p.lines} == {5}  # order (4,6): s+1 = 5 points
        assert set(p.lines_matrix.sum(axis=0).tolist()) == {7}  # t+1 = 7 lines
        for a, b in itertools.islice(
                ((a, b) for a, b in itertools.combinations(range(125), 2)
                 if not p.collinear(a, b)), 200):
            assert len(p.perp([a, b])) == 7  # trace size q+2
        w = payne_a_failure_witness(p)
        assert validate_witness(p, "A", w)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_8_dual_hermitian():
    with criterion(8, "dual(H(4,4)) counts, size-2 hyperbolic lines, < 60 s"):
        t0 = time.perf_counter()
        d = build_space("dual(H(4,4))")
        assert d.n_points == 297
        assert {len(l) for l in d.lines} == {9}  # order (8,4)
        assert set(d.lines_matrix.sum(axis=0).tolist()) == {5}
        hls = hyperbolic.all_hyperbolic_lines(d)
        assert {len(h) for h in hls.points()} == {2}
        rep = full_report(d)
        assert rep.verdicts["A"].status == FAILS
        assert time.perf_counter() - t0 < 60.0


def test_criterion_9_determinism(tmp_path, capsys):
    with criterion(9, "byte-identical reports, witnesses replay"):
        f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
        subset = ["W(3,2)", "Q(4,3)", "Q-(5,2)", "H(3,4)", "Q+(3,4)", "grid(4)",
                  "P(W(3,5))"]
        assert cli_main(["check", *subset, "--out", str(f1)]) == 0
        assert cli_main(["check", *subset, "--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

        reports = json.loads(f1.read_text())
        replayed = 0
        for rep in reports:
            for prop, entry in rep["properties"].items():
                if entry["verdict"] == FAILS:
                    wid = f'{rep["space"]}/{prop}'
                    assert cli_main(["replay", str(f1), wid]) == 0, wid
                    replayed += 1
        capsys.readouterr()
        assert replayed >= 10
