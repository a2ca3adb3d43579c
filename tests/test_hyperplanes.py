import itertools
import math
import re
import sys

import numpy as np
import pytest

from polarium import embed, linalg
from polarium import space as space_module
from polarium.catalog import CATALOG, build_space, parse_space_spec
from polarium.forms import ALTERNATING, HERMITIAN, QUADRATIC, Form, hyperbolic_quadric_form
from polarium.hyperbolic import all_hyperbolic_lines
from polarium.hyperplanes import (OVOID, SINGULAR, _verify_axiom,
                                  arising_hyperplanes, classify, contained_pairs,
                                  deepest_points, hyperplane_from_functional)
from polarium.props import is_symplectic
from polarium.space import SpaceError
from test_space import STRETCH, adjacency, check_member_counts, max_clique_rank, spy_chunks


FORM_BACKED = [n for n in CATALOG if parse_space_spec(n).family in ("W", "Q", "Q+", "Q-", "H")]


def test_point_perp_hyperplane_sizes(space_for):
    w = space_for("W(3,2)")
    h = w.coll[0]  # the singular hyperplane 0^perp
    _verify_axiom(w, h[None])
    assert h.sum() == 7
    assert classify(w, h) == SINGULAR and deepest_points(w, h[None]).tolist() == [0]

    qm = space_for("Q-(5,2)")
    h = qm.coll[4]
    _verify_axiom(qm, h[None])
    assert h.sum() == 11  # 1 + s(t+1) = 1 + 2*5
    assert qm.max_singular_rank(h) == qm.rank


def test_hyperplane_axiom_enforced(space_for):
    w = space_for("W(3,2)")
    for mask in (np.zeros(w.n_points, dtype=bool), np.ones(w.n_points, dtype=bool)):
        with pytest.raises(SpaceError, match="proper nonempty subspace"):
            _verify_axiom(w, mask[None])
    one = np.zeros(w.n_points, dtype=bool)
    one[0] = True  # every line off point 0 misses it
    with pytest.raises(SpaceError, match="misses the hyperplane"):
        _verify_axiom(w, one[None])
    # 0^perp and one point x outside it: every line meets it, and a line
    # through x off 0^perp meets it in 2 of its 3 points
    bigger = w.coll[0].copy()
    bigger[np.flatnonzero(~bigger)[0]] = True
    with pytest.raises(SpaceError, match="more than one point but not fully"):
        _verify_axiom(w, bigger[None])
    # the checks read every row: a good row first does not hide a bad one
    with pytest.raises(SpaceError, match="more than one point but not fully"):
        _verify_axiom(w, np.stack([w.coll[0], bigger]))


def test_verify_axiom_names_the_first_bad_row(monkeypatch):
    # rows 0^perp plus one point x: the lines through x off 0^perp meet the
    # row in 2 points.  Row 0 first fails at a later line than row 1 does,
    # in another chunk of lines; row 0 and its own first bad line are named
    monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 6)  # 2 lines of 2 + 1 counts a chunk
    w = build_space("W(3,2)")
    lm, rows = w.lines_matrix, []
    for x in np.flatnonzero(~w.coll[0]):
        row = w.coll[0].copy()
        row[x] = True
        meet = (lm & row).sum(axis=1)
        rows.append((np.flatnonzero((meet != 1) & (meet != lm.sum(axis=1)))[0], row))
    (k1, row1), (k0, row0) = min(rows, key=lambda r: r[0]), max(rows, key=lambda r: r[0])
    seen = spy_chunks(monkeypatch)
    with pytest.raises(SpaceError, match=f"^W\\(3,2\\): {re.escape(str(w.lines[k0]))} meets"):
        _verify_axiom(w, np.stack([row0, row1]))
    chunk_of = {k: i for i, s in enumerate(seen[0]) for k in range(s.start, s.stop)}
    assert chunk_of[k1] < chunk_of[k0]  # row 1's first bad line is in an earlier chunk


EMBEDDINGS = {"natural": embed.natural_embedding, "minimal": embed.minimal_embedding,
              "universal": embed.universal_embedding_sp_char2}


@pytest.mark.parametrize("name,kind", [
    *[(name, "natural") for name in FORM_BACKED + STRETCH],
    ("W(3,2)", "universal"), ("W(3,4)", "universal"), ("Q(4,2)", "minimal"),
])
def test_axiom_meets_match_the_product(space_for, name, kind):
    space = space_for(name)
    check_member_counts(space, arising_hyperplanes(EMBEDDINGS[kind](space)).masks.T)


@pytest.mark.heavy
@pytest.mark.parametrize("name", ["W(3,7)", "Q(6,3)", "H(5,4)"])
def test_axiom_meets_match_the_product_heavy(name):
    space = build_space(name)
    check_member_counts(space, arising_hyperplanes(embed.natural_embedding(space)).masks.T)


def test_arising_w32_all_singular(space_for):
    w = space_for("W(3,2)")
    hs = arising_hyperplanes(embed.natural_embedding(w))
    assert len(hs) == 15
    assert all(classify(w, h) == SINGULAR for h in hs.masks)


def test_arising_q42_census(space_for):
    q42 = space_for("Q(4,2)")
    hs = arising_hyperplanes(embed.natural_embedding(q42))
    assert len(hs) == 31
    kinds = [classify(q42, h) for h in hs.masks]
    assert kinds.count(SINGULAR) == 15
    assert sum(1 for k in kinds if k != SINGULAR) == 16
    for kind, deepest in zip(kinds, deepest_points(q42, hs.masks)):
        if kind != SINGULAR:
            assert deepest == -1


def test_arising_q43_has_nonsingular(space_for):
    q43 = space_for("Q(4,3)")
    hs = arising_hyperplanes(embed.natural_embedding(q43))
    assert len(hs) == 121
    kinds = [classify(q43, h) for h in hs.masks]
    assert OVOID in kinds and kinds.count(SINGULAR) == 40


def test_arising_hyperplane_axiom(space_for):
    w = space_for("W(3,3)")
    lm = w.lines_matrix
    for h in arising_hyperplanes(embed.natural_embedding(w)).masks:
        assert (lm & h).any(axis=1).all()  # every line meets it


def test_arising_from_a_non_spanning_image_rejected(space_for):
    # W(3,2) padded with a zero coordinate: the functionals that differ only
    # there share their sections, and the one that vanishes on every point
    # has a section that is not a proper subspace, so the build stops there
    w = space_for("W(3,2)")
    e = embed.natural_embedding(w)
    gram = [row + (0,) for row in e.bilinear.matrix] + [(0,) * (e.dim + 1)]
    padded = embed.Embedding(w, [v + (0,) for v in e.images],
                             Form(ALTERNATING, e.field, gram))
    with pytest.raises(SpaceError, match="proper nonempty subspace"):
        arising_hyperplanes(padded)


def _reference_sections(e):
    """Oracle: the scalar section, one field.add/field.mul per point,
    coordinate and functional, as (functional, members) pairs."""
    field, out = e.field, []
    for phi in linalg.dual_hyperplanes(field, e.dim):
        members = []
        for i, v in enumerate(e.images):
            acc = 0
            for c, x in zip(phi, v):
                acc = field.add(acc, field.mul(c, x))
            if acc == 0:
                members.append(i)
        out.append((phi, tuple(members)))
    return out


# grid(4) and P(W(3,5)) are combinatorial: they have no embedding to section
@pytest.mark.parametrize("name,kind", [
    ("W(3,2)", "natural"), ("W(3,2)", "universal"), ("Q(4,3)", "natural"),
    ("W(5,2)", "natural"), ("W(5,2)", "universal"), ("Q(6,2)", "minimal"),
])
def test_batched_sections_match_reference(space_for, name, kind):
    space = space_for(name)
    e = EMBEDDINGS[kind](space)
    reference = _reference_sections(e)
    hs = arising_hyperplanes(e)
    assert [(tuple(phi), tuple(np.flatnonzero(h).tolist()))
            for phi, h in zip(hs.functionals.tolist(), hs.masks)] == reference
    for h, count, (phi, members) in zip(hs.masks, hs.counts, reference):
        mask = np.zeros(space.n_points, dtype=bool)
        mask[list(members)] = True
        assert (h == mask).all()
        one = hyperplane_from_functional(e, phi)
        assert one.functionals.tolist() == [list(phi)] and (one.masks == mask).all()
        assert one.counts.tolist() == [count]  # from its pairs, not the dual lines
        # the section determines its functional
        hits = np.flatnonzero((hs.masks == mask).all(axis=1))
        assert [tuple(hs.functionals[k].tolist()) for k in hits] == [phi]
    assert arising_hyperplanes(e) is hs  # built once per embedding


@pytest.mark.parametrize("name", ["W(3,2)", "Q(4,2)", "Q(4,3)", "Q-(5,2)", "H(3,4)", "W(5,2)"])
def test_rank_matches_clique_search(space_for, name):
    # n or n - 1 from one greedy clique, alone and batched over the arising
    # hyperplanes, against the Bron-Kerbosch search
    space = space_for(name)
    adj = adjacency(space)
    for e in (embed.natural_embedding(space), embed.minimal_embedding(space)):
        hs = arising_hyperplanes(e)
        assert not hs.ranks.flags.writeable
        for phi, h, got in zip(hs.functionals.tolist(), hs.masks, hs.ranks.tolist()):
            want = max_clique_rank(space, h, adj)
            assert space.max_singular_rank(h) == got == want, (e.kind, phi)
            assert hyperplane_from_functional(e, phi).ranks.tolist() == [want]


@pytest.mark.parametrize("name", [*FORM_BACKED, *STRETCH])
def test_rank_matches_the_point_count(space_for, name):
    # the cuts by point perps against a form-backed space's closed form, a
    # rank-r singular subspace having (q^r - 1)/(q - 1) points: on every
    # generator, the greedy generator, and the greedy clique of every
    # arising hyperplane of the natural and minimal embeddings
    space = space_for(name)
    q = space.field.q
    greedy = space_module.greedy_cliques
    rows = [space.generators(), greedy(space.coll, np.ones((1, space.n_points), dtype=bool))]
    rows += [greedy(space.coll, arising_hyperplanes(e).masks)
             for e in (embed.natural_embedding(space), embed.minimal_embedding(space))]
    for r in rows:
        want = np.rint(np.log(r.sum(axis=1) * (q - 1) + 1) / math.log(q)).astype(np.intp)
        assert np.array_equal(space._rank(r), want)
    assert (space._rank(rows[0]) == space.rank).all()


def test_grid_transversal_is_ovoid(space_for):
    grid = space_for("Q+(3,3)")
    # 4 pairwise non-collinear points meeting every line: a diagonal
    gens = [tuple(np.flatnonzero(g).tolist()) for g in grid.generators()]
    ruling = [g for g in gens if g is gens[0] or not set(g) & set(gens[0])]
    other = [g for g in gens if g not in ruling]
    pts = []
    for i, g in enumerate(ruling):
        pts.append(next(p for p in g if p in other[i]))
    h = np.zeros(grid.n_points, dtype=bool)
    h[pts] = True
    _verify_axiom(grid, h[None])
    assert classify(grid, h) == OVOID and grid.max_singular_rank(h) == 1


def test_deepest_point(space_for):
    w33 = space_for("W(3,3)")
    assert deepest_points(w33, w33.coll[[7]]).tolist() == [7]
    q43 = space_for("Q(4,3)")
    ovoid = next(h for h in arising_hyperplanes(embed.natural_embedding(q43)).masks
                 if classify(q43, h) == OVOID)
    assert deepest_points(q43, ovoid[None]).tolist() == [-1]


def _deepest_point_oracle(space, mask):
    """The points p of the hyperplane with p^perp equal to it, one
    hyperplane at a time: the per-hyperplane loop the batched test replaced."""
    pts = np.flatnonzero(mask)
    return pts[(space.coll[pts] == mask).all(axis=1)].tolist()


@pytest.mark.parametrize("name", FORM_BACKED + ["Q(4,4)", "H(4,4)"])
def test_deepest_points_match_oracle(space_for, name):
    space = space_for(name)
    assert space.is_form_backed
    for e in (embed.natural_embedding(space), embed.minimal_embedding(space)):
        masks = arising_hyperplanes(e).masks
        want = [_deepest_point_oracle(space, h) for h in masks]
        assert all(len(found) <= 1 for found in want)
        assert deepest_points(space, masks).tolist() == [
            found[0] if found else -1 for found in want], e.kind


def test_property_c_witness_path(space_for):
    # every arising hyperplane of W(3,2) containing a trace is singular with
    # deepest point on the hyperbolic line
    w = space_for("W(3,2)")
    hs = arising_hyperplanes(embed.natural_embedding(w)).masks
    deepest = deepest_points(w, hs)
    for a, b in itertools.combinations(range(w.n_points), 2):
        if w.collinear(a, b):
            continue
        perp = w.coll[a] & w.coll[b]
        dperp = w.coll[perp].all(axis=0)
        for h, p in zip(hs, deepest):
            if (perp & ~h).any():
                continue
            assert classify(w, h) == SINGULAR
            assert dperp[p]


def test_lemma_res1_instances(space_for):
    # arising-from-minimal hyperplanes are all singular iff symplectic
    for name in ["W(3,2)", "W(3,3)", "Q(4,2)", "Q(4,3)", "Q+(3,3)", "Q-(5,2)",
                 "H(3,4)"]:
        s = space_for(name)
        hs = arising_hyperplanes(embed.minimal_embedding(s))
        all_singular = all(classify(s, h) == SINGULAR for h in hs.masks)
        assert all_singular == is_symplectic(s).holds, name


def test_every_point_perp_arises(space_for):
    w = space_for("W(3,2)")
    for e in (embed.natural_embedding(w), embed.universal_embedding_sp_char2(w)):
        masks = arising_hyperplanes(e).masks
        for p in range(w.n_points):
            assert (masks == w.coll[p]).all(axis=1).any()
    q42 = space_for("Q(4,2)")
    masks = arising_hyperplanes(embed.natural_embedding(q42)).masks
    for p in range(q42.n_points):
        assert (masks == q42.coll[p]).all(axis=1).any()


def _universal_section_sizes(space):
    """For each hyperbolic line, the set of its intersection sizes with the
    hyperplanes arising from the universal embedding."""
    uni = embed.universal_embedding_sp_char2(space)
    sections = arising_hyperplanes(uni).masks
    for h in all_hyperbolic_lines(space).points():
        counts = sections[:, list(h)].sum(axis=1)
        yield h, set(counts.tolist())


@pytest.mark.parametrize("name", ["W(3,2)", "W(3,4)", "W(5,2)"])
def test_char2_sections_zero_or_two(space_for, name):
    # q even: every hyperbolic line admits an arising-from-universal
    # hyperplane meeting it in exactly 0 or 2 points
    space = space_for(name)
    for h, sizes in _universal_section_sizes(space):
        assert sizes & {0, 2}, (name, h)


def test_char_not2_contrast_w33(space_for):
    # q odd: the minimal embedding is the unique one; every arising
    # hyperplane is singular and meets every hyperbolic line
    w33 = space_for("W(3,3)")
    hs = arising_hyperplanes(embed.natural_embedding(w33))
    hlines = all_hyperbolic_lines(w33).points()
    for h in hs.masks:
        assert classify(w33, h) == SINGULAR
        for hl in hlines:
            assert h[list(hl)].any()


@pytest.mark.parametrize("batch", ["default", "small"])
@pytest.mark.parametrize("name", ["W(3,2)", "Q(4,3)", "W(5,2)", "H(3,4)", "Q(4,4)"])
def test_contained_counts_match_bruteforce(monkeypatch, name, batch):
    # the pairs a < b, not collinear, with {a,b}^perp inside h, pair by pair;
    # a small batch puts chunk boundaries inside the dual-line fill and the
    # pair reads.
    # H(3,4) has 3-point hyperbolic lines, Q(4,4) 5-point ones and
    # non-singular arising hyperplanes
    if batch == "small":
        monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 64)
    space = build_space(name)
    coll = space.coll
    pairs = [[a, b] for a, b in itertools.combinations(range(space.n_points), 2) if not coll[a, b]]
    traces = np.array([coll[a] & coll[b] for a, b in pairs])
    hs = arising_hyperplanes(embed.natural_embedding(space))
    for k, (h, count) in enumerate(zip(hs.masks, hs.counts)):
        want = [pair for pair, spill in zip(pairs, (traces & ~h).any(axis=1)) if not spill]
        assert count == len(want)
        # the pair reads on every hyperplane but the last 213 of Q(4,4)'s 341
        assert k >= 128 or list(contained_pairs(space, h)) == want
    if name == "Q(4,4)":
        assert (deepest_points(space, hs.masks) < 0).any()


def _count_contained(space, masks) -> np.ndarray:
    """Oracle: one sweep over the hyperbolic lines, in chunks.  Every pair
    of a line l has the trace l^perp (the perp of l's own pair), and the
    lines partition the non-collinear pairs, so l adds its |l|(|l| - 1)/2
    pairs to each hyperplane that l^perp has no point outside, summed in
    float64, which is exact."""
    n, lines = space.n_points, all_hyperbolic_lines(space)
    sizes = np.count_nonzero(lines.members < n, axis=1)
    pairs = sizes * (sizes - 1) / 2
    outside = (~masks).T.astype(np.float32)
    counts = np.zeros(len(masks), dtype=np.int64)
    for s in space_module.chunks(len(lines), max(n, len(masks))):
        traces = np.unpackbits(space.perps(lines.pairs[s]), axis=1, count=n).astype(np.float32)
        counts += (pairs[s] @ (traces @ outside == 0)).astype(np.int64)
    return counts


@pytest.mark.parametrize("name,kind", [
    *[(name, "natural") for name in FORM_BACKED + STRETCH],
    *[(name, "universal") for name in ("W(3,2)", "W(3,4)", "W(5,2)")],
    *[(name, "minimal") for name in ("Q(4,2)", "Q(6,2)", "Q(4,4)")],
])
def test_dual_line_counts_match_the_line_sweep(space_for, name, kind):
    # the universal embeddings have a degenerate bilinear form, and the
    # minimal ones of Q(2n,q), q even, drop the quadratic form
    space = space_for(name)
    hs = arising_hyperplanes(EMBEDDINGS[kind](space))
    assert np.array_equal(hs.counts, _count_contained(space, hs.masks))
    assert not hs.counts.flags.writeable


@pytest.mark.heavy
@pytest.mark.parametrize("name", ["W(3,7)", "Q(6,3)", "H(5,4)", "W(5,4)"])
def test_dual_line_counts_match_the_line_sweep_heavy(name):
    space = build_space(name)
    hs = arising_hyperplanes(embed.natural_embedding(space))
    assert np.array_equal(hs.counts, _count_contained(space, hs.masks))


def test_dual_line_counts_need_orthogonality(space_for):
    # W(3,3)'s images under the polarization of a hyperbolic quadric: the
    # same sections, but collinearity is not orthogonality
    w = space_for("W(3,3)")
    e = embed.natural_embedding(w)
    wrong = embed.Embedding(w, e.images, hyperbolic_quadric_form(e.field, 2).polarization())
    with pytest.raises(SpaceError, match="collinearity is not orthogonality"):
        arising_hyperplanes(wrong)


def test_dual_line_counts_need_every_singular_point(space_for):
    # Q(4,2) without its quadric: its alternating polarization makes all 31
    # points of PG(4,2) singular, and the 15 images miss 16 of them
    q42 = space_for("Q(4,2)")
    e = embed.natural_embedding(q42)
    with pytest.raises(SpaceError, match="not the singular points"):
        arising_hyperplanes(embed.Embedding(q42, e.images, e.bilinear))
    # W(3,2)'s universal images with x1^2 added to their parabolic quadric:
    # the same polarization and 15 singular points, as many as the images,
    # but not all of them singular
    w = space_for("W(3,2)")
    e = embed.universal_embedding_sp_char2(w)
    coefficients = [list(row) for row in e.quadratic.matrix]
    coefficients[1][1] = 1
    quadric = Form(QUADRATIC, e.field, coefficients)
    assert quadric.polarization().matrix == e.bilinear.matrix
    assert np.count_nonzero(quadric.vanishing(linalg.proj_rows(e.field, e.dim))) == w.n_points
    with pytest.raises(SpaceError, match="not the singular points"):
        arising_hyperplanes(embed.Embedding(w, e.images, e.bilinear, quadric))


def test_dual_line_counts_need_rank_two():
    # the elliptic quadric Q-(3,2) is an ovoid: rank 1, every pair
    # non-collinear, with no lines whose dual lines would be exact
    ovoid = build_space("Q-(3,2)")
    with pytest.raises(SpaceError, match="rank 1 < 2"):
        arising_hyperplanes(embed.natural_embedding(ovoid))


def test_point_index_is_built_once(monkeypatch):
    # from_form, _verify_full and the dual-line counts all read the one
    # memoised (GF(5), 5) table, across two builds of the same space
    builds, proj_rows = [], linalg.proj_rows

    def spied(field, dim, *args, **kwargs):
        if sys._getframe(1).f_code is linalg.point_index.__wrapped__.__code__:
            builds.append((field.q, dim))
        return proj_rows(field, dim, *args, **kwargs)

    linalg.point_index.cache_clear()
    monkeypatch.setattr(linalg, "proj_rows", spied)
    for _ in range(2):
        arising_hyperplanes(embed.natural_embedding(build_space("Q(4,5)")))
    assert builds == [(5, 5)]


def _lines_through(coll, p) -> set:
    """The hyperbolic lines {p,b}^perpperp through p, from coll alone."""
    bs = np.flatnonzero(~coll[p])
    traces = (coll[p] & coll[bs]).astype(np.float32)
    inside = coll.astype(np.float32) @ traces.T == traces.sum(axis=1)
    return {tuple(np.flatnonzero(col)) for col in inside.T}


@pytest.mark.parametrize("name", [name for name in [*CATALOG, *STRETCH]
                                  if parse_space_spec(name).family not in ("payne", "dual", "grid")])
def test_singular_counts_sum_the_lines_through_the_deepest_point(space_for, name):
    # a trace l^perp lies inside p^perp exactly when p lies in
    # (l^perp)^perp = l, so p^perp holds the pairs of the lines through p
    space = space_for(name) if name in CATALOG else build_space(name)
    hs = arising_hyperplanes(embed.natural_embedding(space))
    deepest = deepest_points(space, hs.masks)
    assert (deepest >= 0).any()
    for count, p in zip(hs.counts[deepest >= 0], deepest[deepest >= 0]):
        assert count == sum(len(line) * (len(line) - 1) // 2
                            for line in _lines_through(space.coll, p))


@pytest.mark.heavy
@pytest.mark.parametrize("name", ["W(5,3)", "Q-(7,2)", "Q+(7,2)"])
def test_line_sweep_matches_the_pair_sweep_heavy(name):
    # every non-collinear pair's own trace, against every arising hyperplane
    space = build_space(name)
    coll = space.coll
    hs = arising_hyperplanes(embed.natural_embedding(space))
    outside = (~hs.masks).T.astype(np.float32)
    a, b = np.argwhere(np.triu(~coll, 1)).T
    want = sum(np.count_nonzero((coll[a[s]] & coll[b[s]]).astype(np.float32) @ outside == 0,
                                axis=0)
               for s in space_module.chunks(len(a), space.n_points))
    assert (hs.counts == want).all()


def _gather_values(form, x, y):
    """Oracle: f(x, y) (the polarization's for a quadric) by field-table
    gathers alone, G conj(y) and its dot with x both by `gf_dot`."""
    bil = form.polarization() if form.kind == QUADRATIC else form
    y = np.asarray(y)
    if bil.kind == HERMITIAN:
        y = bil.field.conj_table[y]
    return linalg.gf_dot(bil.field, x, linalg.gf_dot(bil.field, bil.matrix, y[..., None, :]))


@pytest.mark.heavy
@pytest.mark.parametrize("name", ["W(3,8)", "Q(4,9)", "H(3,16)", "H(5,4)", "Q(6,3)"])
def test_blas_products_match_the_gathers_heavy(name):
    # collinearity from the form's Gram and the arising sections, both by
    # gf_matmul, against table gathers, at q = 8, 9, 16 and ranks 2-3
    space = build_space(name)
    v = np.array(space.vectors)
    coll = _gather_values(space.form, v[:, None], v[None]) == 0
    np.fill_diagonal(coll, True)
    assert np.array_equal(space.coll, coll)
    e = embed.natural_embedding(space)
    hs = arising_hyperplanes(e)
    for s in space_module.chunks(len(hs), space.n_points):
        sections = linalg.gf_dot(e.field, hs.functionals[s][:, None], e.images) == 0
        assert np.array_equal(hs.masks[s], sections)
