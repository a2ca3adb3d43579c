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
from test_space import STRETCH, max_clique_rank

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
    mutated["generator"] = [space.points[i] for i in np.flatnonzero(space.generators()[0])]
    if mutated["generator"] != rep.verdicts["A"].witness["generator"]:
        assert not validate_witness(space, "A", mutated)
    # ... but a triad's instances c > b depend on the order of its pair: the
    # swapped pair's line still fails at c, which replay must not accept
    space = space_for("Q+(3,3)")
    w = report_for("Q+(3,3)").verdicts["B_triads"].witness
    swapped = {**w, "a": w["b"], "b": w["a"]}
    assert validate_witness(space, "B_triads", w)
    assert not validate_witness(space, "B_triads", swapped)


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
# hyperbolic lines come from collinearity alone, and their scans build them
# only up to the witness), the right through forms.  W(2n-1,q) and Q(2n,q),
# q even, are one space in two embeddings
@pytest.mark.parametrize("left,right", [
    ("dual(W(3,2))", "Q(4,2)"), ("dual(W(3,3))", "Q(4,3)"),
    ("dual(H(3,4))", "Q-(5,2)"), ("W(5,2)", "Q(6,2)"),
    ("W(3,4)", "Q(4,4)"), ("dual(W(3,5))", "Q(4,5)"),
    ("W(3,8)", "Q(4,8)"), ("W(7,2)", "Q(8,2)"),
    pytest.param("W(5,4)", "Q(6,4)", marks=pytest.mark.heavy),
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


def _check_relabelled_rebuild(space, want):
    # A, regular pairs, centric triads and D are incidence properties: the
    # space rebuilt by PolarSpace.combinatorial from its lines, with its
    # points shuffled, must have the same rank and give the same verdicts,
    # and the same checked_count wherever one holds.  The rebuild has no
    # form, so B' and C are skipped and its scans build the lines only as
    # far as they read, where a form-backed original's are drained for B'
    # and C
    new = np.random.default_rng(2024).permutation(space.n_points)  # point i becomes new[i]
    labels = [None] * space.n_points
    for i, label in enumerate(space.points):
        labels[new[i]] = label
    shuffled = space_module.PolarSpace.combinatorial(
        f"shuffled {space.name}", labels, [new[list(line)].tolist() for line in space.lines])
    assert shuffled.rank == space.rank
    got = props.full_report(shuffled).verdicts
    for prop in ("A", "regular_pairs", "B_triads", "D"):
        assert got[prop].status == want[prop].status, prop
        if want[prop].holds:
            assert got[prop].checked == want[prop].checked, prop
    assert got["B_prime"].status == got["C"].status == SKIPPED


@pytest.mark.parametrize("name", dict.fromkeys([*CATALOG, *STRETCH]))
def test_relabelled_rebuild_agrees(space_for, report_for, name):
    _check_relabelled_rebuild(space_for(name), report_for(name).verdicts)


@pytest.mark.heavy
@pytest.mark.parametrize("name", ["W(3,7)", "Q-(7,2)", "W(5,3)", "W(7,2)", "Q+(7,2)"])
def test_relabelled_rebuild_agrees_heavy(space_for, report_for, name):
    _check_relabelled_rebuild(space_for(name), report_for(name).verdicts)


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
    for h in hyperplanes.arising_hyperplanes(embed.natural_embedding(w33)).masks:
        assert hyperplanes.classify(w33, h) == hyperplanes.SINGULAR

    q43 = space_for("Q(4,3)")
    traces = [q43.coll[a] & q43.coll[b]
              for a, b in itertools.combinations(range(q43.n_points), 2)
              if not q43.collinear(a, b)]
    found = False
    for mask in hyperplanes.arising_hyperplanes(embed.natural_embedding(q43)).masks:
        if hyperplanes.classify(q43, mask) != hyperplanes.OVOID:
            continue
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


EMBEDDINGS = {"natural": embed.natural_embedding, "minimal": embed.minimal_embedding,
              "universal": embed.universal_embedding_sp_char2}


@pytest.mark.parametrize("name, kinds", [
    *((name, "natural minimal universal") for name in ("W(3,2)", "W(3,4)", "W(5,2)")),
    *((name, "natural minimal") for name in ("Q(4,2)", "Q(4,4)", "Q(6,2)", "W(3,3)", "Q(4,3)"))])
def test_B_prime_and_C_do_not_depend_on_the_embedding(space_for, name, kinds):
    # B' and C quantify over the hyperplanes arising from an embedding; their
    # verdicts, counts and witnesses are the same under every embedding tried
    space = space_for(name)
    reports = {kind: (check_B_prime(space, e).to_dict(), check_C(space, e).to_dict())
               for kind, e in ((k, EMBEDDINGS[k](space)) for k in kinds.split())}
    first, *rest = reports.values()
    assert all(r == first for r in rest), reports


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_symplectic_quadrangle_counts(report_for, q):
    # W(3,q) by counting alone: n points, each non-collinear with q^3 others,
    # so P non-collinear pairs, each on a hyperbolic line of q + 1 points
    name = f"W(3,{q})"
    n = (q + 1) * (q * q + 1)
    P = n * q ** 3 // 2
    want = {"A": P * (q + 1) ** 2, "regular_pairs": P * q * (q + 1) // 2,
            "B_triads": n * (n - 1) * (n - 2) // 6, "B_prime": P * (q + 1), "C": P * (q + 1),
            "D": 2 * n * P // (q * (q + 1)), "symplectic": 1}
    report = report_for(name).to_dict()["properties"]
    assert {prop: v["checked_count"] for prop, v in report.items()} == want
    assert {v["verdict"] for v in report.values()} == {HOLDS}


@pytest.mark.parametrize("name", ["W(3,2)", "Q-(5,2)", "Q+(3,3)", "Q(4,3)"])
def test_B_prime_and_C_read_one_counts_array(monkeypatch, name):
    # B' and C count contained traces over the same arising hyperplanes: one
    # read-only array, filled once per embedding, whose views both read
    space = build_space(name)
    e = embed.natural_embedding(space)
    built, fill = [], hyperplanes._dual_line_counts
    monkeypatch.setattr(hyperplanes, "_dual_line_counts",
                        lambda e, duals: built.append(fill(e, duals)) or built[-1])
    read, arising_kernel = [], props._arising_kernel

    def spy(space, marked, **extra):
        kernel = arising_kernel(space, marked, **extra)
        return lambda hs: read.append(hs.counts) or kernel(hs)
    monkeypatch.setattr(props, "_arising_kernel", spy)
    check_B_prime(space, e)
    by_b_prime = len(read)
    check_C(space, e)
    assert len(built) == 1 and 0 < by_b_prime < len(read)
    assert all(counts.base is built[0] for counts in read)
    assert not built[0].flags.writeable
    assert hyperplanes.arising_hyperplanes(e).counts is built[0]


@pytest.mark.parametrize("name, prop", [("Q(4,3)", "C"), ("Q+(3,3)", "B_prime"), ("H(3,4)", "B_prime")])
def test_replay_counts_once_and_reads_pairs_up_to_the_witness(monkeypatch, name, prop):
    # replaying a B' or C witness builds no arising hyperplanes and no
    # hyperbolic lines: its hyperplane's count is one read of all its
    # contained pairs, and the witness read then stops at the chunk holding
    # the witness pair
    monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 64)
    space = build_space(name)
    checker = check_B_prime if prop == "B_prime" else check_C
    witness = checker(space, embed.natural_embedding(space)).witness
    fresh = build_space(name)
    nbytes = (fresh.n_points + 7) // 8
    built, arising = [], hyperplanes.arising_hyperplanes
    monkeypatch.setattr(hyperplanes, "arising_hyperplanes",
                        lambda e: built.append(e) or arising(e))
    read, chunks = [], hyperplanes.chunks
    monkeypatch.setattr(hyperplanes, "chunks", lambda total, width: (
        (width == nbytes and read.append(s)) or s for s in chunks(total, width)))
    assert validate_witness(fresh, prop, witness)
    assert not built and fresh._hyperbolic_lines is None
    pairs = fresh.noncollinear_pairs()
    at = pairs.tolist().index([fresh.index_of(witness[k]) for k in "ab"])
    step = space_module.BATCH_ELEMENTS // nbytes
    count = -(-len(pairs) // step)  # every chunk, for the count
    assert read[count - 1].stop == len(pairs)
    assert len(read) == count + at // step + 1 and read[-1].start <= at < read[-1].stop


def test_B_prime_reads_no_generators(monkeypatch):
    # B' marks a hyperplane by the rank of its greedy clique: neither the
    # scan nor the replay of a witness enumerates the generators
    space = build_space("Q+(5,3)")
    witness = check_B_prime(space, embed.natural_embedding(space)).witness
    calls, generators = [], space_module.PolarSpace.generators
    monkeypatch.setattr(space_module.PolarSpace, "generators",
                        lambda self: calls.append(self.name) or generators(self))
    fresh = build_space("Q+(5,3)")
    assert validate_witness(fresh, "B_prime", witness)
    assert check_B_prime(fresh, embed.natural_embedding(fresh)).witness == witness
    assert not calls


# B' and D read no float product: the products they replaced, over the
# generators for B' and over coll for D, kept as the oracles

def _B_prime_and_D_oracle_case(space):
    """ranks < n marks the arising hyperplanes, of the natural and the
    minimal embedding, that hold no generator, as the product of the
    generators with their complements does, and B' fails those that hold a
    trace.  D's kernel fails the hyperbolic lines whose membership row
    times coll has a zero, at the points x of those zeros (whose x^perp
    misses the line), compared on the first and last failing line of each
    chunk of 1024 lines: a line of dual(H(4,4)) fails at 220 of its 297
    points."""
    if space.is_form_backed:
        gf = space.generators().astype(np.float32)
        for e in (embed.natural_embedding(space), embed.minimal_embedding(space)):
            hs = hyperplanes.arising_hyperplanes(e)
            want = np.concatenate([(gf @ (~hs.masks[s]).T.astype(np.float32) > 0).all(axis=0)
                                   for s in space_module.chunks(len(hs), len(gf))])
            assert np.array_equal(hs.ranks < space.rank, want), e.kind
            fails = props._B_prime_kernel(space)(hs)[1]
            assert np.array_equal(fails, want & (hs.counts > 0)), e.kind
    lines, kernel = hyperbolic.all_hyperbolic_lines(space), props._D_kernel(space)
    collf = space.coll.astype(np.float32)
    for lo in range(0, len(lines), 1024):
        _, fails, failures = kernel(lines[lo:lo + 1024])
        missed = lines[lo:lo + 1024].rows().astype(np.float32) @ collf == 0
        assert np.array_equal(fails, missed.any(axis=1))
        failing = np.flatnonzero(fails)
        for k in {*failing[:1], *failing[-1:]}:
            assert [w["point"] for _, w in failures(k)] == props._labels(
                space, np.flatnonzero(missed[k]))


# dual(P(W(3,5))) mixes lines of 2, 3 and 5 points, so D's batches pad
@pytest.mark.parametrize("name", dict.fromkeys([*CATALOG, *STRETCH, "dual(P(W(3,5)))"]))
def test_B_prime_and_D_match_the_products(space_for, name):
    _B_prime_and_D_oracle_case(space_for(name))


@pytest.mark.heavy
@pytest.mark.parametrize("name", ["W(5,3)", "W(7,2)", "Q+(7,2)", "Q-(7,2)", "W(5,4)", "Q(6,4)"])
def test_B_prime_and_D_match_the_products_heavy(name):
    _B_prime_and_D_oracle_case(build_space(name))


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
    mask = q.perp_mask([0, 1, 8])
    assert q.max_singular_rank(mask) == max_clique_rank(q, mask) < 3
    sg, sp = q.subgenerators()
    assert sg.shape == (2025, q.n_points) and set(sg.sum(axis=1)) == {7}


# the checkers at the default batch size and at a small one, where failures
# land in later batches and counts cross many batch boundaries, against the
# golden report and the benchmark's stretch reference, both written by the
# original pair-by-pair loops
REFERENCE = {r["space"]: r for path in ("golden/catalog.json", "perfbench/reference/stretch.json")
             for r in json.loads((ROOT / path).read_text())}


@pytest.mark.parametrize("name, batch", [
    # the small batch size costs about 23 s on the stretch spaces past Q+(5,3)
    pytest.param(name, batch, marks=pytest.mark.heavy if batch == "small" and name not in
                 (*CATALOG, "Q+(5,3)") else ())
    for name in dict.fromkeys([*CATALOG, "Q+(5,3)", *STRETCH]) for batch in ("default", "small")])
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
                                                   tuple(w["functional"])).masks[0]
        return [{**w, "a": label(a), "b": label(b)}
                for a, b in itertools.combinations(range(n), 2)
                if not coll[a, b] and not (coll[a] & coll[b] & ~h).any()]
    a, b = space.index_of(w["a"]), space.index_of(w["b"])
    trace = coll[a] & coll[b]
    dperp = coll[trace].all(axis=0)
    if prop == "A":  # lines meeting the trace in one point and missing the double perp
        return [{**w, "generator": [label(p) for p in np.flatnonzero(g)]}
                for g in space.generators() if trace[g].sum() == 1 and not dperp[g].any()]
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
    lines = hyperbolic.all_hyperbolic_lines(space)
    arising = hyperplanes.arising_hyperplanes(embed.natural_embedding(space))
    for make, blocks in [
            (props._A_kernel, lines), (props._regular_pairs_kernel, lines),
            (props._triads_kernel, lines),
            (props._B_prime_kernel, arising), (props._C_kernel, arising),
            (props._D_kernel, lines)]:
        kernel = make(space)
        counts, fails, failures = kernel(blocks)
        assert np.any(fails), make.__name__
        for k in range(len(blocks)):
            got = list(failures(k))
            one_counts, one_fails, one_failures = kernel(blocks[k:k + 1])
            assert (counts[k], bool(fails[k]), got) == (one_counts[0], bool(one_fails[0]),
                                                       list(one_failures(0))), (make.__name__, k)
            assert bool(fails[k]) == bool(got), (make.__name__, k)


# A, regular pairs and centric triads scan hyperbolic lines: the one-pair
# kernels below are the pair-by-pair scan they replaced, kept as the oracle.
# Each reads the pair's trace {a,b}^perp (and double perp {a,b}^perpperp)
# directly; the triads oracle runs over every pair of distinct points.

def _pair_A_oracle(space):
    gm = space.generators()
    gf = gm.astype(np.float32)
    size = int(space.subgenerators()[0][0].sum())
    collf = space.coll.astype(np.float32)

    def kernel(pairs):
        trace = (space.coll[pairs[:, 0]] & space.coll[pairs[:, 1]]).astype(np.float32)
        dperp = (trace @ collf == trace.sum(axis=1, keepdims=True)).astype(np.float32)
        cand = trace @ gf.T == size
        bad = cand & (dperp @ gf.T == 0)
        counts = cand.sum(axis=1)

        def failures(k):
            return ((counts[k], props._pair_witness(space, *pairs[k], generator=props._labels(
                space, np.flatnonzero(gm[g])))) for g in np.flatnonzero(bad[k]))
        return counts, bad.any(axis=1), failures
    return kernel


def _pair_regular_pairs_oracle(space):
    sg, sp = space.subgenerators()
    sgf, spf, spt = sg.astype(np.float32), sp.astype(np.float32), np.ascontiguousarray(sp.T)
    collf = space.coll.astype(np.float32)

    def kernel(pairs):
        ks, valid = space_module.padded_columns(spt[pairs[:, 0]] & spt[pairs[:, 1]])
        upper = np.triu(valid[:, :, None] & valid[:, None, :], 1)
        perps = spf[ks]
        opp = upper & (perps @ sgf[ks].transpose(0, 2, 1) == 0)
        trace = (space.coll[pairs[:, 0]] & space.coll[pairs[:, 1]]).astype(np.float32)
        far = ~(trace @ collf == trace.sum(axis=1, keepdims=True))
        bad = opp & ((perps * far[:, None, :]) @ perps.transpose(0, 2, 1) > 0)

        def failures(k):
            upto = np.cumsum(opp[k]).reshape(opp[k].shape)
            for x, y in zip(*np.nonzero(bad[k])):
                kx, ky = ks[k, x], ks[k, y]
                extra = np.flatnonzero(sp[kx] & sp[ky] & far[k])[0]
                yield upto[x, y], props._pair_witness(
                    space, *pairs[k], N=props._labels(space, np.flatnonzero(sg[kx])),
                    N_prime=props._labels(space, np.flatnonzero(sg[ky])),
                    extra_point=props._label(space, int(extra)))
        return opp.sum(axis=(1, 2)), bad.any(axis=(1, 2)), failures
    return kernel


def _pair_triads_oracle(space):
    sp = space.subgenerators()[1]
    n = space.n_points
    spt, bits = np.ascontiguousarray(sp.T), np.packbits(sp, axis=1)

    def kernel(pairs):
        b = pairs[:, 1]
        ks, valid = space_module.padded_columns(spt[pairs[:, 0]] & spt[b])
        held = np.bitwise_or.reduce(bits[ks] * valid[:, :, None], axis=1)
        centric = np.unpackbits(held, axis=1, count=n).view(bool)
        acentric = ~centric & (np.arange(n) > b[:, None])

        def failures(k):
            return ((c - b[k], props._pair_witness(space, *pairs[k], c=props._label(space, int(c))))
                    for c in np.flatnonzero(acentric[k]))
        return n - b - 1, acentric.any(axis=1), failures
    return kernel


def _every_block(kernel, blocks):
    """(counts, fails) of every block, in batches of 64 blocks."""
    out = [kernel(blocks[lo:lo + 64])[:2] for lo in range(0, len(blocks), 64)]
    return np.concatenate([c for c, _ in out]), np.concatenate([f for _, f in out])


def _first_failure(counts, fails, failure):
    """The report of a scan over per-pair counts and fails: stop at the
    first failing pair p, counting the instances of the pairs before it and
    those failure(p) gives up to its first failure."""
    if not fails.any():
        return {"verdict": HOLDS, "checked_count": int(counts.sum())}
    p = int(np.argmax(fails))
    upto, witness = failure(p)
    return {"verdict": FAILS, "checked_count": int(counts[:p].sum() + upto), "witness": witness}


def _pair_scan(kernel, pairs):
    """(counts, fails) of every pair, and the report of the pair scan."""
    counts, fails = _every_block(kernel, pairs)
    return counts, fails, _first_failure(counts, fails,
                                         lambda p: next(kernel(pairs[p:p + 1])[2](0)))


def _triads_oracle_case(space):
    # no collinear pair fails, each line fails as its own pair does, with its
    # pair's count, and the line scan gives the pair scan's report
    n = space.n_points
    pairs = np.argwhere(np.triu(~np.eye(n, dtype=bool), 1))
    counts, fails, want = _pair_scan(_pair_triads_oracle(space), pairs)
    assert not fails[space.coll[pairs[:, 0], pairs[:, 1]]].any()
    lines = hyperbolic.all_hyperbolic_lines(space)
    index = np.zeros((n, n), dtype=np.intp)
    index[pairs[:, 0], pairs[:, 1]] = np.arange(len(pairs))
    own = index[lines.pairs[:, 0], lines.pairs[:, 1]]
    line_counts, line_fails = _every_block(props._triads_kernel(space), lines)
    assert (line_counts == counts[own]).all() and (line_fails == fails[own]).all()
    assert check_centric_triads(space).to_dict() == want


def _unpacked_triads_kernel(space):
    """Oracle for props._triads_kernel: the OR of the packed S_k^perp rows,
    gathered by fancy indexing and masked by `valid`, unpacked whole, with
    the acentric points c > b as a boolean (m, n) array."""
    sp, n = space.subgenerators()[1], space.n_points
    spt, bits = np.ascontiguousarray(sp.T), np.packbits(sp, axis=1)

    def kernel(lines):
        pairs = lines.pairs
        b = pairs[:, 1]
        ks, valid = space_module.padded_columns(spt[pairs[:, 0]] & spt[b])
        held = np.bitwise_or.reduce(bits[ks] * valid[:, :, None], axis=1)
        centric = np.unpackbits(held, axis=1, count=n).view(bool)
        acentric = ~centric & (np.arange(n) > b[:, None])

        def failures(k):
            return ((c - b[k], props._pair_witness(space, *pairs[k],
                                                   c=props._label(space, int(c))))
                    for c in np.flatnonzero(acentric[k]))
        return n - b - 1, acentric.any(axis=1), failures
    return kernel


@pytest.mark.parametrize("name", dict.fromkeys([*CATALOG, *STRETCH]))
def test_triads_kernel_matches_the_unpacked_kernel(space_for, name):
    # on every line, and on every pair a < b (whose traces hold different
    # numbers of sub-generators where the space has lines longer than its
    # hyperbolic lines, so a batch reads the padding): equal counts, equal
    # fails and an equal first failure, on every failing line and on the
    # first failing pair of each batch of 64 pairs
    space = space_for(name)
    pairs = np.argwhere(np.triu(~np.eye(space.n_points, dtype=bool), 1))
    packed, unpacked = props._triads_kernel(space), _unpacked_triads_kernel(space)
    for blocks, limit in ((hyperbolic.all_hyperbolic_lines(space), None),
                          (hyperbolic.HyperbolicLines(space, pairs, pairs), 1)):
        for lo in range(0, len(blocks), 64):
            (counts, fails, failures), (want_counts, want_fails, want_failures) = (
                kernel(blocks[lo:lo + 64]) for kernel in (packed, unpacked))
            assert np.array_equal(counts, want_counts) and np.array_equal(fails, want_fails)
            for k in np.flatnonzero(fails)[:limit]:
                assert next(failures(k)) == next(want_failures(k))


def _trace_counts(space):
    """Oracle: (K, G), n x n, with K[a, b] the sub-generators S inside
    {a,b}^perp and G[a, b] the sum of g(S) over them, as SP^T SP and
    SP^T diag(g) SP."""
    sp = space.subgenerators()[1].astype(np.float64)  # integer sums, exact below 2^53
    K, G = sp.T @ sp, (sp * props._generator_counts(space)[:, None]).T @ sp
    return K.astype(np.int64), G.astype(np.int64)


def _whole_space_case(space):
    """The trace counts K and G against the per-line kernels and the
    checkers, on every non-collinear pair: G >= |l| K, a pair fails exactly
    when G > |l| K, as the kernels' fails do, its counts (G for A, opp(a)
    for regular pairs) equal the kernels' counts, both read through
    of_pair, and check_A and check_regular_pairs give the report of the
    line kernels' pair scan.  Returns the per-pair counts and fails, and
    the report, of A and of regular pairs."""
    n = space.n_points
    a, b = space.noncollinear_pairs().T
    lines = hyperbolic.all_hyperbolic_lines(space)
    K, G = _trace_counts(space)
    size = (lines.members < n).sum(axis=1)[lines.of_pair]
    assert (G[a, b] >= size * K[a, b]).all()
    fails = G[a, b] > size * K[a, b]
    opp = props._opposite_generators(space, n)
    out = []
    for make, counts, check in [(props._A_kernel, G[a, b], check_A),
                                (props._regular_pairs_kernel, opp[a], check_regular_pairs)]:
        kernel = make(space)
        line_counts, line_fails = _every_block(kernel, lines)
        assert (counts == line_counts[lines.of_pair]).all(), make.__name__
        assert (fails == line_fails[lines.of_pair]).all(), make.__name__
        line = lines.of_pair
        want = _first_failure(counts, fails, lambda p: next(
            kernel(lines[line[p]:line[p] + 1])[2](0)))
        report = check(space).to_dict()
        assert report == want, make.__name__
        out.append((counts, fails, report))
    return out


@pytest.mark.parametrize("batch", ["default", "small"])
@pytest.mark.parametrize("name", [*CATALOG, *STRETCH, "dual(P(W(3,5)))"])
def test_line_kernels_match_the_pair_oracle(space_for, monkeypatch, name, batch):
    # every non-collinear pair has its line's count and verdict, and the line
    # kernels and the whole-space scan give the oracle's first failing pair,
    # witness and checked_count; for the triads, as in _triads_oracle_case.
    # dual(P(W(3,5))) fails A and regular pairs on 9000 of its 9060 lines:
    # its first pair lies on a holding line, so the scans fail past it
    if batch == "small":
        monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 512)
        space = build_space(name)  # lines built at this batch size too
    else:
        space = space_for(name)
    pairs = space.noncollinear_pairs()
    for oracle, scan in zip((_pair_A_oracle, _pair_regular_pairs_oracle),
                            _whole_space_case(space)):
        counts, fails, want = _pair_scan(oracle(space), pairs)
        assert (counts == scan[0]).all() and (fails == scan[1]).all(), oracle.__name__
        assert scan[2] == want, oracle.__name__
    _triads_oracle_case(space)


@pytest.mark.heavy
@pytest.mark.parametrize("name", ["W(3,7)", "W(5,3)", "W(7,2)", "Q+(7,2)", "Q-(7,2)"])
def test_whole_space_scan_matches_the_line_kernels_heavy(name):
    _whole_space_case(build_space(name))


@pytest.mark.heavy
@pytest.mark.parametrize("name", ["W(7,2)", "W(5,3)", "W(3,7)", "Q-(7,2)", "Q+(7,2)"])
def test_triads_match_the_pair_oracle_heavy(name):
    _triads_oracle_case(build_space(name))


def test_trace_counts_assert_what_they_rely_on(monkeypatch):
    # g(S) needs generators of one size: a 3 x 2 grid has rows of 2 and
    # columns of 3 points, and its g(S) = 4 / (2 - 1) would read 4, not 2
    labels = [(i, j) for i in range(3) for j in range(2)]
    lines = [(0, 1), (2, 3), (4, 5), (0, 2, 4), (1, 3, 5)]
    grid = space_module.PolarSpace.combinatorial("grid(3x2)", labels, lines,
                                                 grid_family=True)
    for check in (check_A, check_regular_pairs):
        with pytest.raises(space_module.SpaceError, match="generators of 2 and 3 points"):
            check(grid)
    # g(S) must be an integer: a point added to one sub-generator's perp
    space = build_space("W(3,2)")
    space.generators()  # built from the true perps
    sg, sp = space.subgenerators()
    sp = sp.copy()
    sp[0, np.argmin(sp[0])] = True
    space._subgenerators = (sg, sp)
    with pytest.raises(space_module.SpaceError, match="sub-generator 0 has 8 points in its perp"):
        check_A(space)
    # g(S) >= |l| for every S inside the trace of a line l: one generator
    # fewer through every sub-generator leaves g = 2 on the 3-point lines,
    # and the message names the first pair of the first such line
    g = props._generator_counts
    monkeypatch.setattr(props, "_generator_counts", lambda space: g(space) - 1)
    for check in (check_A, check_regular_pairs):
        with pytest.raises(space_module.SpaceError,
                           match=r"in \{0,1\}\^perp lies on fewer generators"):
            check(build_space("W(3,2)"))


def _dual_grid(m=3, k=2):
    # the dual of the m x k grid: its points are the grid's m rows and k
    # columns, so its generators are 2-point lines, k of them through each
    # row and m through each column
    return space_module.PolarSpace.combinatorial(
        f"dual(grid({m}x{k}))", range(m + k), [(i, m + j) for i in range(m) for j in range(k)],
        grid_family=True)


def _octahedron():
    # 6 points, (i, i + 3) the opposite pairs and every other pair a 2-point line
    lines = [(a, b) for a, b in itertools.combinations(range(6), 2) if b != a + 3]
    return space_module.PolarSpace.combinatorial("octahedron", range(6), lines,
                                                  grid_family=True)


def test_pair_scans_with_varying_g():
    # dual(grid(3x2))'s hyperbolic lines are {0,1,2} and {3,4}: the pairs of
    # {3,4} lie on a line of fewer than max g = 3 points, yet their trace
    # {0,1,2} has g = 2, so both hold.  A counts
    # sum_S g(S) C(g(S), 2) = 3 * 2 + 2 * 9 = 24
    space = _dual_grid()
    assert props._generator_counts(space).tolist() == [2, 2, 2, 3, 3]
    assert check_A(space).to_dict() == {"verdict": HOLDS, "checked_count": 24}
    assert check_regular_pairs(space).to_dict() == {"verdict": HOLDS, "checked_count": 6}
    _whole_space_case(space)


def test_thin_rank3_octahedron():
    # the octahedron's rank comes from incidence alone, with no field order:
    # the 8 faces are its generators and the 12 edges its sub-generators
    space = _octahedron()
    assert (space.rank, len(space.generators()), len(space.subgenerators()[0])) == (3, 8, 12)
    _whole_space_case(space)
    _triads_oracle_case(space)
    verdicts = props.full_report(space).verdicts
    assert {prop: verdicts[prop].to_dict() for prop in ("A", "regular_pairs", "B_triads", "D")} == {
        "A": {"verdict": HOLDS, "checked_count": 24},
        "regular_pairs": {"verdict": HOLDS, "checked_count": 6},
        "B_triads": {"verdict": HOLDS, "checked_count": 20},
        "D": {"verdict": HOLDS, "checked_count": 18}}


def _trace_subgenerators_case(space):
    # oracle: np.flatnonzero(sp[:, a] & sp[:, b]), the S with a and b in
    # S^perp, one row per pair in row-major order against the real entries
    # of trace_subgenerators, for the pairs (a, b) and (b, a); each row holds
    # deg(a) of them, one per generator through a (S -> <S, a>), and its
    # padding repeats its first.  The per-point index behind them is built
    # once and read-only; its short rows are read in dual(grid(3x2)), where
    # a padding S not through a would hold b in its perp for some (b, a)
    sp, deg = space.subgenerators()[1], space.generators().sum(axis=0)
    index = space._trace_index
    for pairs in (space.noncollinear_pairs(), space.noncollinear_pairs()[:, ::-1]):
        for lo in range(0, len(pairs), 256):
            block = pairs[lo:lo + 256]
            ks, valid = space.trace_subgenerators(block)
            at, want = np.nonzero(sp[:, block[:, 0]].T & sp[:, block[:, 1]].T)
            assert np.array_equal(np.nonzero(valid)[0], at) and np.array_equal(ks[valid], want)
            assert np.array_equal(valid.sum(axis=1), deg[block[:, 0]])
            assert np.array_equal(ks, np.where(valid, ks, ks[:, :1]))
    assert space._trace_index is index and not index.flags.writeable


_SMALL = {"dual(grid(3x2))": _dual_grid, "dual(grid(3x4))": lambda: _dual_grid(3, 4),
          "octahedron": _octahedron}


@pytest.mark.parametrize("name", [*CATALOG, *STRETCH, *_SMALL])
def test_trace_subgenerators_match_the_column_oracle(space_for, name):
    _trace_subgenerators_case(_SMALL[name]() if name in _SMALL else space_for(name))


@pytest.mark.heavy
@pytest.mark.parametrize("name", ["W(7,2)", "Q+(7,2)", "Q-(7,2)"])
def test_trace_subgenerators_match_the_column_oracle_heavy(name):
    _trace_subgenerators_case(build_space(name))


@pytest.mark.parametrize("batch", ["default", "small"])
@pytest.mark.parametrize("name", ["W(3,3)", "W(5,2)", "dual(grid(3x2))", "dual(grid(3x4))"])
def test_A_count_sums_g_over_the_first_pairs(space_for, monkeypatch, name, batch):
    # the branch a failing A scan takes at its first failing pair p: sum g(S)
    # over the traces of the pairs before p, the oracle's G summed over them.
    # In dual(grid(3x4)) the pairs of rows hold 4 S and those of columns 3,
    # so a chunk past the middle pads its rows
    space = _SMALL[name]() if name in _SMALL else space_for(name)
    if batch == "small":
        monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 64)
    pairs = space.noncollinear_pairs()
    G = _trace_counts(space)[1][tuple(pairs.T)]
    for p in (1, len(pairs) // 2, len(pairs) - 1):
        assert props._A_count(space, p) == G[:p].sum(), p


def test_line_witness_replays_from_any_pair_of_its_line(space_for, report_for):
    # H(4,4) fails A and regular pairs on 3-point lines: every pair of the
    # witness's line has the same failures, so replay accepts the witness
    # with (a, b) replaced by another pair of that line
    space = space_for("H(4,4)")
    for prop in ("A", "regular_pairs"):
        witness = report_for("H(4,4)").verdicts[prop].witness
        pair = [space.index_of(witness["a"]), space.index_of(witness["b"])]
        line = hyperbolic.hyperbolic_lines(space, np.array([pair])).points()[0]
        assert len(line) == 3
        for c, d in [line[1:], line[::-2]]:
            moved = {**witness, "a": props._label(space, c), "b": props._label(space, d)}
            assert validate_witness(space, prop, moved), (prop, c, d)


def test_full_report_builds_the_lines_once(monkeypatch):
    # A, regular pairs, centric triads and D extend one memoised line prefix
    # per space only as far as they scan, and B' and C drain it on
    # form-backed spaces: each pair's double perp is built at most once, and
    # the early-failing combinatorial spaces never reach their last pairs
    # (P(W(3,5)) and dual(H(4,4)) read lines of their base while built)
    monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 512)
    read, dperps = [], hyperbolic.packed_double_perps
    monkeypatch.setattr(hyperbolic, "packed_double_perps", lambda space, pairs: (
        read.append((space, pairs.copy())) or dperps(space, pairs)))
    for name, drained in [("dual(H(4,4))", False), ("P(W(3,5))", False), ("Q(4,3)", True)]:
        space = build_space(name)
        del read[:]
        props.full_report(space)
        assert all(s is space for s, _ in read), name
        pairs, total = np.concatenate([p for _, p in read]), len(space.noncollinear_pairs())
        codes = pairs[:, 0] * space.n_points + pairs[:, 1]
        assert len(np.unique(codes)) == len(codes), name
        assert (len(codes) == total) == drained and len(codes) <= total, name


def test_pair_scans_read_past_the_first_chunk(space_for, monkeypatch):
    # dual(P(W(3,5)))'s first pair lies on a holding line: in chunks of one
    # pair, A and regular pairs find their first failing line in a later
    # chunk, as the default chunks find it in their first
    space = space_for("dual(P(W(3,5)))")
    want = [check_A(space).to_dict(), check_regular_pairs(space).to_dict()]
    space = build_space("dual(P(W(3,5)))")
    monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 1)
    assert [check_A(space).to_dict(), check_regular_pairs(space).to_dict()] == want
    assert want[0]["verdict"] == FAILS and space._hyperbolic_lines.read > 1


@pytest.mark.heavy
@pytest.mark.parametrize("name, A, regular_pairs", [
    ("W(3,7)", 4390400, 1920800), ("W(5,3)", 7076160, 23882040),
    ("W(7,2)", 6609600, 70502400)])
def test_line_scans_heavy(name, A, regular_pairs):
    # the counts of the pair-by-pair scan.  E.g. W(3,7) has 68600
    # non-collinear pairs; each trace is 8 pairwise non-collinear points on 8
    # lines each (A = 68600 * 8 * 8), and its 28 point pairs are all opposite
    # (regular pairs = 68600 * 28)
    space = build_space(name)
    assert check_A(space).to_dict() == {"verdict": HOLDS, "checked_count": A}
    assert check_regular_pairs(space).to_dict() == {"verdict": HOLDS,
                                                    "checked_count": regular_pairs}


@pytest.mark.heavy
@pytest.mark.parametrize("name, A, regular_pairs", [
    ("W(5,4)", (HOLDS, 297024000), (HOLDS, 1900953600)),
    ("Q(6,4)", (HOLDS, 297024000), (HOLDS, 1900953600)),
    ("Q-(9,2)", (FAILS, 3825), (FAILS, 1))])
def test_pair_scans_frontier_heavy(name, A, regular_pairs):
    # the verdicts and counts that the whole-space K/G products give
    space = build_space(name)
    for check, want in [(check_A, A), (check_regular_pairs, regular_pairs)]:
        verdict = check(space)
        assert (verdict.status, verdict.checked) == want, check.__name__


def _regular_pairs_width_case(space, monkeypatch):
    # oracle: the most sub-generators inside one {a,b}^perp over the
    # non-collinear pairs, by the n x S x n product; it sizes the padded
    # stacks of opp(a), regular pairs and the centric triads.  The triads'
    # batches also count the trace index row: the most S^perp holding one point
    spf = space.subgenerators()[1].astype(np.float32)
    k_max, row = int((spf.T @ spf)[~space.coll].max()), int(spf.sum(axis=0).max())
    assert int(space.generators().sum(axis=0).max()) == k_max
    widths, stacks = [], []
    batches, chunks, columns = props.batches, props.chunks, props.padded_columns
    traces = space_module.PolarSpace.trace_subgenerators
    monkeypatch.setattr(props, "batches", lambda blocks, width: (
        widths.append(width) or batches(blocks, width)))
    monkeypatch.setattr(props, "chunks", lambda total, width: (
        widths.append(width) or chunks(total, width)))
    monkeypatch.setattr(props, "padded_columns", lambda inside: (
        stacks.append(columns(inside)[0].shape[1]) or columns(inside)))
    monkeypatch.setattr(space_module.PolarSpace, "trace_subgenerators", lambda self, pairs: (
        stacks.append((out := traces(self, pairs))[0].shape[1]) or out))
    n = space.n_points
    props._opposite_generators(space, n)  # opp(a) of every point, as a holding scan reads it
    check_centric_triads(space)
    assert widths == [k_max * max(n, k_max), max(row, n, k_max * ((n + 7) // 8))]
    assert set(stacks) == {k_max}
    # the regular-pairs line kernel runs on one line, on the failing line of
    # the scan and in replay: its stack holds the k_max sub-generators of l^perp
    del stacks[:]
    props._regular_pairs_kernel(space)(hyperbolic.all_hyperbolic_lines(space)[:1])
    assert stacks == [k_max]


@pytest.mark.parametrize("name", [*CATALOG, *STRETCH])
def test_regular_pairs_width_is_the_most_generators_through_a_point(space_for, monkeypatch, name):
    # S -> <S, a> maps the sub-generators inside {a,b}^perp of an opposite
    # pair one to one onto the generators through a
    _regular_pairs_width_case(space_for(name), monkeypatch)


@pytest.mark.heavy
@pytest.mark.parametrize("name", ["W(5,3)", "W(7,2)", "Q+(7,2)"])
def test_regular_pairs_width_heavy(monkeypatch, name):
    _regular_pairs_width_case(build_space(name), monkeypatch)
