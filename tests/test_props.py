import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from polarium import embed, hyperbolic, hyperplanes, props
from polarium import space as space_module
from polarium.catalog import CATALOG, build_space
from polarium.cli import main
from polarium.props import (FAILS, HOLDS, SKIPPED, check_A, check_B_prime,
                            check_C, check_D, check_centric_triads,
                            check_regular_pairs, is_symplectic, validate_witness)

ROOT = Path(__file__).resolve().parent.parent

# the theorem matrix of the catalog (verdicts pinned by the source results)
EXPECTED = {
    "W(3,2)":   dict(A=HOLDS, B_triads=HOLDS, B_prime=HOLDS, C=HOLDS, D=HOLDS,
                     regular_pairs=HOLDS, symplectic=HOLDS),
    "W(3,3)":   dict(A=HOLDS, B_triads=HOLDS, B_prime=HOLDS, C=HOLDS, D=HOLDS,
                     regular_pairs=HOLDS, symplectic=HOLDS),
    "Q(4,2)":   dict(A=HOLDS, B_triads=HOLDS, B_prime=HOLDS, C=HOLDS, D=HOLDS,
                     regular_pairs=HOLDS, symplectic=HOLDS),
    "Q(4,3)":   dict(A=FAILS, C=FAILS, D=FAILS, regular_pairs=FAILS,
                     symplectic=FAILS),
    "Q+(3,3)":  dict(A=HOLDS, B_triads=FAILS, B_prime=FAILS, C=FAILS,
                     regular_pairs=HOLDS, symplectic=FAILS),
    "Q-(5,2)":  dict(A=FAILS, B_triads=HOLDS, B_prime=HOLDS, C=FAILS, D=FAILS,
                     regular_pairs=FAILS, symplectic=FAILS),
    "H(3,4)":   dict(A=HOLDS, B_triads=FAILS, B_prime=FAILS, symplectic=FAILS),
    "P(W(3,5))": dict(A=FAILS, B_prime=SKIPPED, C=SKIPPED, symplectic=SKIPPED),
    "dual(H(4,4))": dict(A=FAILS, B_prime=SKIPPED, C=SKIPPED, symplectic=SKIPPED),
    "grid(4)":  dict(A=HOLDS, B_triads=FAILS, symplectic=SKIPPED),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_theorem_matrix(report_for, name):
    rep = report_for(name)
    for prop, want in EXPECTED[name].items():
        assert rep.verdicts[prop].status == want, (name, prop)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_equivalences_never_violated(report_for, name):
    # full_report raises on violation; all recorded entries must be ok/skipped
    rep = report_for(name)
    assert all(e["status"] in ("ok", "skipped") for e in rep.equivalences)
    names = {e["name"] for e in rep.equivalences}
    assert "A<=>regular_pairs" in names and "D<=>symplectic" in names


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_failure_witnesses_replay(space_for, report_for, name):
    rep = report_for(name)
    space = space_for(name)
    for prop, verdict in rep.verdicts.items():
        if verdict.status == FAILS:
            assert validate_witness(space, prop, verdict.witness), (name, prop)


def test_witness_negative_control(space_for, report_for):
    rep = report_for("Q-(5,2)")
    space = space_for("Q-(5,2)")
    w = dict(rep.verdicts["A"].witness)
    w["a"], w["b"] = w["b"], w["a"]  # swapped pair still fine (symmetric) ...
    assert validate_witness(space, "A", w)
    mutated = dict(rep.verdicts["A"].witness)
    mutated["generator"] = [space.points[i] for i in space.generators()[0].points]
    if mutated["generator"] != rep.verdicts["A"].witness["generator"]:
        assert not validate_witness(space, "A", mutated)


def _in_perp(space, *labels):
    """The last point, other than the given ones, collinear with all of them."""
    idx = [space.index_of(x) for x in labels]
    mask = space.perp_mask(idx)
    mask[idx] = False
    return list(space.points[np.flatnonzero(mask)[-1]])


# one tampered witness per property that fails somewhere in the catalog
TAMPERED = {
    "A": ("Q-(5,2)", lambda s, w: {**w, "b": _in_perp(s, w["a"])}),
    # a, b, c with c in {a,b}^perp: c itself is a centre
    "B_triads": ("Q+(3,3)", lambda s, w: {**w, "c": _in_perp(s, w["a"], w["b"])}),
    "B_prime": ("Q+(3,3)", lambda s, w: {**w, "b": _in_perp(s, w["a"])}),
    "C": ("Q(4,3)", lambda s, w: {**w, "deepest_point": w["a"]}),
    "D": ("Q(4,3)", lambda s, w: {**w, "point": w["hyperbolic_line"][0]}),
    # N, N' not opposite, so not an instance of the property at all
    "regular_pairs": ("Q(4,3)", lambda s, w: {**w, "N_prime": w["N"]}),
}


@pytest.mark.parametrize("prop", sorted(TAMPERED))
def test_tampered_witness_rejected(space_for, report_for, prop):
    name, tamper = TAMPERED[prop]
    space = space_for(name)
    witness = report_for(name).verdicts[prop].witness
    assert validate_witness(space, prop, witness)
    mutated = tamper(space, witness)
    assert mutated != witness
    assert not validate_witness(space, prop, mutated)


# classical isomorphisms (Payne & Thas 3.2.1, 3.2.3): the left member goes
# through the combinatorial path (dual spaces have no form, so their
# hyperbolic lines come from collinearity alone), the right through forms
@pytest.mark.parametrize("left,right", [
    ("dual(W(3,2))", "Q(4,2)"), ("dual(W(3,3))", "Q(4,3)"),
    ("dual(H(3,4))", "Q-(5,2)"), ("W(5,2)", "Q(6,2)"),
])
def test_isomorphic_spaces_agree(report_for, left, right):
    lv, rv = report_for(left).verdicts, report_for(right).verdicts
    compared = 0
    for prop in sorted(lv):
        if SKIPPED in (lv[prop].status, rv[prop].status):
            continue
        assert lv[prop].status == rv[prop].status, prop
        if lv[prop].holds:
            assert lv[prop].checked == rv[prop].checked, prop
        compared += 1
    assert compared >= 4  # A, regular pairs, triads and D are never skipped


def test_triad_counts_w52(report_for):
    rep = report_for("W(5,2)")
    assert rep.verdicts["B_triads"].checked == 39711  # C(63,3)


def test_lemma_b0_radical_is_point(space_for):
    # rank 3 symplectic: for pairwise opposite a,b,c with c outside the
    # hyperbolic line, the radical of c^perp cap {a,b}^perp is one point
    w52 = space_for("W(5,2)")
    checked = 0
    for a in range(3):
        for b in np.flatnonzero(~w52.coll[a]):
            b = int(b)
            if b <= a:
                continue
            perp = w52.coll[a] & w52.coll[b]
            dperp = w52.coll[perp].all(axis=0)
            for c in np.flatnonzero(~(w52.coll[a] | w52.coll[b] | dperp)):
                triple = perp & w52.coll[int(c)]
                members = [int(i) for i in np.flatnonzero(triple)]
                radical = [p for p in members
                           if not (triple & ~w52.coll[p]).any()]
                assert len(radical) == 1, (a, b, int(c))
                checked += 1
            if checked > 400:
                return


def test_lemma_h2_rank2_symplectic(space_for):
    # {a,b,c}^perp is nonempty for every triple in rank-2 symplectic spaces
    for name in ["W(3,2)", "W(3,3)"]:
        s = space_for(name)
        for a, b, c in itertools.combinations(range(s.n_points), 3):
            assert s.perp_mask([a, b, c]).any(), (name, a, b, c)


def test_remark_def_trace_instances(space_for):
    # W(3,q): all arising hyperplanes are singular, so no arising ovoid can
    # contain a trace (vacuously); Q(4,3): some arising ovoid contains one
    w33 = space_for("W(3,3)")
    for h in hyperplanes.arising_hyperplanes(embed.natural_embedding(w33)):
        assert h.classification() == hyperplanes.SINGULAR

    q43 = space_for("Q(4,3)")
    traces = [q43.coll[a] & q43.coll[b]
              for a, b in itertools.combinations(range(q43.n_points), 2)
              if not q43.collinear(a, b)]
    found = False
    for h in hyperplanes.arising_hyperplanes(embed.natural_embedding(q43)):
        if h.classification() != hyperplanes.OVOID:
            continue
        mask = h.mask
        if any(not (t & ~mask).any() for t in traces):
            found = True
            break
    assert found


def test_skipped_verdicts_are_first_class(report_for):
    rep = report_for("P(W(3,5))")
    assert rep.verdicts["B_prime"].status == SKIPPED
    assert rep.verdicts["B_prime"].reason
    assert rep.verdicts["symplectic"].status == SKIPPED


def test_subgenerators(space_for):
    # rank 2: the points, so SP is the collinearity matrix
    w32 = space_for("W(3,2)")
    sg, sp = w32.subgenerators()
    assert (sg == np.eye(w32.n_points, dtype=bool)).all() and (sp == w32.coll).all()
    # rank 3: the lines, sorted, each with its perp
    w52 = space_for("W(5,2)")
    sg, sp = w52.subgenerators()
    assert [tuple(np.flatnonzero(row)) for row in sg] == sorted(w52.lines)
    for row, perp in zip(sg, sp):
        assert (perp == w52.perp_mask(np.flatnonzero(row))).all()
    # X^perp contains a sub-generator iff X lies in some SP row: p^perp holds lines
    p_perp = w52.perp_mask([0])
    assert sp[:, 0].any() and (~(sg & ~p_perp).any(axis=1)).any()


def test_single_checkers_agree_with_report(space_for, report_for):
    s = space_for("Q-(5,2)")
    rep = report_for("Q-(5,2)")
    assert check_A(s).status == rep.verdicts["A"].status
    assert check_regular_pairs(s).status == rep.verdicts["regular_pairs"].status
    assert check_centric_triads(s).status == rep.verdicts["B_triads"].status
    assert check_D(s).status == rep.verdicts["D"].status
    e = embed.natural_embedding(s)
    assert check_B_prime(s, e).status == rep.verdicts["B_prime"].status
    assert check_C(s, e).status == rep.verdicts["C"].status
    assert is_symplectic(s).status == rep.verdicts["symplectic"].status


@pytest.mark.parametrize("name", ["W(3,2)", "Q-(5,2)", "Q+(3,3)", "Q(4,3)"])
def test_C_reuses_the_contained_counts_of_B_prime(monkeypatch, name):
    # B' and C count contained traces over the same arising hyperplanes: C
    # sweeps the pairs only for hyperplanes B' stopped before
    space = build_space(name)
    e = embed.natural_embedding(space)
    swept, sweep = [], hyperplanes._count_contained
    monkeypatch.setattr(hyperplanes, "_count_contained", lambda hs: swept.extend(hs) or sweep(hs))
    b_prime = check_B_prime(space, e)
    by_b_prime, swept[:] = set(map(id, swept)), []
    check_C(space, e)
    assert not by_b_prime & set(map(id, swept))
    assert b_prime.status == FAILS or not swept
    assert len(by_b_prime) + len(swept) <= len(hyperplanes.arising_hyperplanes(e))


@pytest.mark.parametrize("name, prop", [("Q(4,3)", "C"), ("Q+(3,3)", "B_prime"), ("H(3,4)", "B_prime")])
def test_replay_counts_once_and_reads_pairs_up_to_the_witness(monkeypatch, name, prop):
    # replaying a B' or C witness sweeps its hyperplane's count once, then
    # reads the packed traces only up to the chunk holding the witness pair
    monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 64)
    space = build_space(name)
    checker = check_B_prime if prop == "B_prime" else check_C
    witness = checker(space, embed.natural_embedding(space)).witness
    fresh = build_space(name)
    nbytes = (fresh.n_points + 7) // 8
    swept, sweep = [], hyperplanes._count_contained
    monkeypatch.setattr(hyperplanes, "_count_contained",
                        lambda hs: swept.append(len(hs)) or sweep(hs))
    read, chunks = [], hyperplanes.chunks
    monkeypatch.setattr(hyperplanes, "chunks", lambda total, width: (
        (width == nbytes and read.append(s)) or s for s in chunks(total, width)))
    assert validate_witness(fresh, prop, witness)
    pair = [fresh.index_of(witness[k]) for k in "ab"]
    at = fresh.noncollinear_pairs().tolist().index(pair)
    step = space_module.BATCH_ELEMENTS // nbytes
    assert swept == [1] and read[-1].start <= at < read[-1].stop and len(read) == at // step + 1


# rank 4 and rank 3 past the catalog: sub-generators are planes in Q+(7,2)
RANK4 = {
    "Q+(7,2)": dict(A=(HOLDS, 259200), regular_pairs=(HOLDS, 518400),
                    B_triads=(FAILS, 7), B_prime=FAILS, C=FAILS, D=FAILS,
                    symplectic=FAILS),
    "Q-(7,2)": dict(A=FAILS, regular_pairs=FAILS, B_triads=(HOLDS, 273819),
                    B_prime=HOLDS, C=FAILS, D=FAILS, symplectic=FAILS),
}


def test_rank4_verdicts_and_replay(space_for, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["check", *RANK4, "--out", str(out)]) == 0
    for rep in json.loads(out.read_text()):
        name = rep["space"]
        assert all(e["status"] == "ok" for e in rep["equivalences"]), name
        for prop, want in RANK4[name].items():
            got = rep["properties"][prop]
            status, count = want if isinstance(want, tuple) else (want, None)
            assert got["verdict"] == status, (name, prop)
            assert count is None or got["checked_count"] == count, (name, prop)
            if status == FAILS:
                assert validate_witness(space_for(name), prop, got["witness"]), (name, prop)
    # the brute-force triple of Q+(7,2): (0,1,8)^perp holds no singular plane
    q = space_for("Q+(7,2)")
    triads = json.loads(out.read_text())[0]["properties"]["B_triads"]["witness"]
    assert [q.index_of(triads[k]) for k in "abc"] == [0, 1, 8]
    assert q.max_singular_rank(q.perp_mask([0, 1, 8])) < 3  # Bron-Kerbosch oracle
    sg, sp = q.subgenerators()
    assert sg.shape == (2025, q.n_points) and set(sg.sum(axis=1)) == {7}


# the checkers at the default batch size and at a small one, where failures
# land in later batches and counts cross many batch boundaries, against the
# golden report and the benchmark's stretch reference, both written by the
# original pair-by-pair loops
REFERENCE = {r["space"]: r for path in ("golden/catalog.json", "perfbench/reference/stretch.json")
             for r in json.loads((ROOT / path).read_text())}


@pytest.mark.parametrize("batch", ["default", "small"])
@pytest.mark.parametrize("name", [*CATALOG, "Q+(5,3)"])
def test_kernels_match_predicate_loop(space_for, report_for, monkeypatch, name, batch):
    if batch == "small":
        monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 512)
        report = props.full_report(space_for(name))
    else:
        report = report_for(name)
    assert report.to_dict()["properties"] == REFERENCE[name]["properties"]


def _block_failures(space, prop, w):
    """Every failure in the block of witness w, enumerated from the
    definitions in the checkers' order.  Rank 2 only: the sub-generators are
    the points and the generators are lines."""
    coll, n = space.coll, space.n_points

    def label(i):
        return list(space.points[i])
    if prop == "D":
        line = [space.index_of(p) for p in w["hyperbolic_line"]]
        return [{**w, "point": label(x)} for x in range(n) if not coll[x, line].any()]
    if prop in ("B_prime", "C"):  # every non-collinear pair whose trace h contains
        h = hyperplanes.hyperplane_from_functional(embed.natural_embedding(space),
                                                   tuple(w["functional"]))
        return [{**w, "a": label(a), "b": label(b)}
                for a, b in itertools.combinations(range(n), 2)
                if not coll[a, b] and not (coll[a] & coll[b] & ~h.mask).any()]
    a, b = space.index_of(w["a"]), space.index_of(w["b"])
    trace = coll[a] & coll[b]
    dperp = coll[trace].all(axis=0)
    if prop == "A":  # lines meeting the trace in one point and missing the double perp
        return [{**w, "generator": [label(p) for p in g.points]} for g in space.generators()
                if trace[list(g.points)].sum() == 1 and not dperp[list(g.points)].any()]
    if prop == "B_triads":  # no point collinear with all of a, b, c
        return [{**w, "c": label(c)} for c in range(b + 1, n) if not (trace & coll[c]).any()]
    out = []  # regular pairs: opposite x < y in the trace, x^perp cap y^perp != {a,b}^perpperp
    for x, y in itertools.combinations(np.flatnonzero(trace), 2):
        extra = np.flatnonzero(coll[x] & coll[y] & ~dperp)
        if not coll[x, y] and len(extra):
            out.append({**w, "N": [label(x)], "N_prime": [label(y)], "extra_point": label(extra[0])})
    return out


def test_replay_accepts_every_failure_of_a_block(space_for, report_for):
    # Q(4,3): the witness blocks hold several failures each; replay must accept
    # any of them, not only the reported first one
    space = space_for("Q(4,3)")
    sizes = {"A": 8, "regular_pairs": 6, "B_triads": 6, "B_prime": 15, "C": 12, "D": 18}
    for prop, size in sizes.items():
        witness = report_for("Q(4,3)").verdicts[prop].witness
        failures = _block_failures(space, prop, witness)
        assert len(failures) == size and failures[0] == witness, prop
        for w in failures:
            assert validate_witness(space, prop, w), (prop, w)


def test_kernel_failures_do_not_depend_on_the_batch(space_for):
    # Q(4,3) fails every property: each block of one whole-space batch must
    # give the count, verdict and failures it gives in a batch of its own,
    # and fail exactly when it has failures
    space = space_for("Q(4,3)")
    pairs = np.argwhere(np.triu(~space.coll, 1))
    arising = hyperplanes.arising_hyperplanes(embed.natural_embedding(space))
    for make, blocks in [
            (props._A_kernel, pairs), (props._regular_pairs_kernel, pairs),
            (props._triads_kernel, np.argwhere(np.triu(~np.eye(space.n_points, dtype=bool), 1))),
            (props._B_prime_kernel, arising), (props._C_kernel, arising),
            (props._D_kernel, hyperbolic.all_hyperbolic_lines(space))]:
        kernel = make(space)
        counts, fails, failures = kernel(blocks)
        assert np.any(fails), make.__name__
        for k in range(len(blocks)):
            got = list(failures(k))
            one_counts, one_fails, one_failures = kernel(blocks[k:k + 1])
            assert (counts[k], bool(fails[k]), got) == (one_counts[0], bool(one_fails[0]),
                                                       list(one_failures(0))), (make.__name__, k)
            assert bool(fails[k]) == bool(got), (make.__name__, k)
