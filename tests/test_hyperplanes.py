import itertools

import numpy as np
import pytest

from polarium import embed, hyperplanes, linalg
from polarium import space as space_module
from polarium.catalog import build_space
from polarium.hyperbolic import all_hyperbolic_lines
from polarium.hyperplanes import (Hyperplane, OVOID, SINGULAR, arising_hyperplanes,
                                  find_inducing_functional, hyperplane_from_functional,
                                  singular_hyperplane)
from polarium.props import is_symplectic
from polarium.space import SpaceError
from test_space import adjacency, max_clique_rank


def test_singular_hyperplane_sizes(space_for):
    w = space_for("W(3,2)")
    h = singular_hyperplane(w, 0)
    assert len(h.points) == 7
    assert h.classification() == SINGULAR and h.deepest_point() == 0

    qm = space_for("Q-(5,2)")
    h = singular_hyperplane(qm, 4)
    assert len(h.points) == 11  # 1 + s(t+1) = 1 + 2*5
    assert h.rank() == qm.rank


def test_hyperplane_axiom_enforced(space_for):
    w = space_for("W(3,2)")
    with pytest.raises(SpaceError):
        Hyperplane(w, list(range(5)), ("explicit",))  # misses lines / not a subspace
    # a perp with one point swapped meets some line in 2 of its 3 points
    members = list(w.perp([0]))
    outside = next(i for i in range(w.n_points) if i not in members)
    with pytest.raises(SpaceError):
        Hyperplane(w, members[:-1] + [outside], ("explicit",))


def test_arising_w32_all_singular(space_for):
    w = space_for("W(3,2)")
    hs = arising_hyperplanes(embed.natural_embedding(w))
    assert len(hs) == 15
    assert all(h.classification() == SINGULAR for h in hs)


def test_arising_q42_census(space_for):
    q42 = space_for("Q(4,2)")
    hs = arising_hyperplanes(embed.natural_embedding(q42))
    assert len(hs) == 31
    kinds = [h.classification() for h in hs]
    assert kinds.count(SINGULAR) == 15
    assert sum(1 for k in kinds if k != SINGULAR) == 16
    for h in hs:
        if h.classification() != SINGULAR:
            assert h.deepest_point() is None


def test_arising_q43_has_nonsingular(space_for):
    q43 = space_for("Q(4,3)")
    hs = arising_hyperplanes(embed.natural_embedding(q43))
    assert len(hs) == 121
    kinds = [h.classification() for h in hs]
    assert OVOID in kinds and kinds.count(SINGULAR) == 40


def test_arising_hyperplane_axiom(space_for):
    w = space_for("W(3,3)")
    lm = w.lines_matrix
    for h in arising_hyperplanes(embed.natural_embedding(w)):
        assert (lm & h.mask).any(axis=1).all()  # every line meets it


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
    e = {"natural": embed.natural_embedding, "minimal": embed.minimal_embedding,
         "universal": embed.universal_embedding_sp_char2}[kind](space)
    reference = _reference_sections(e)
    hs = arising_hyperplanes(e)
    assert [(h.provenance[2], h.points) for h in hs] == reference
    for h, (phi, members) in zip(hs, reference):
        mask = np.zeros(space.n_points, dtype=bool)
        mask[list(members)] = True
        assert (h.mask == mask).all()
        assert hyperplane_from_functional(e, phi).points == members
        assert find_inducing_functional(e, Hyperplane(space, members, ("explicit",))) == phi
    assert arising_hyperplanes(e) is hs  # built once per embedding


@pytest.mark.parametrize("name", ["W(3,2)", "Q(4,2)", "Q(4,3)", "Q-(5,2)", "H(3,4)", "W(5,2)"])
def test_rank_matches_clique_search(space_for, name):
    # n or n - 1 from the generators, against the Bron-Kerbosch search
    space = space_for(name)
    adj = adjacency(space)
    for e in (embed.natural_embedding(space), embed.minimal_embedding(space)):
        for h in arising_hyperplanes(e):
            want = max_clique_rank(space, h.mask, adj)
            assert h.rank() == space.max_singular_rank(h.mask) == want, (e.kind, h.provenance)


def test_grid_transversal_is_ovoid(space_for):
    grid = space_for("Q+(3,3)")
    # 4 pairwise non-collinear points meeting every line: a diagonal
    gens = [tuple(np.flatnonzero(g).tolist()) for g in grid.generators()]
    ruling = [g for g in gens if g is gens[0] or not set(g) & set(gens[0])]
    other = [g for g in gens if g not in ruling]
    pts = []
    for i, g in enumerate(ruling):
        pts.append(next(p for p in g if p in other[i]))
    h = Hyperplane(grid, pts, ("explicit",))
    assert h.classification() == OVOID and h.rank() == 1


def test_deepest_point(space_for):
    w33 = space_for("W(3,3)")
    assert singular_hyperplane(w33, 7).deepest_point() == 7
    q43 = space_for("Q(4,3)")
    ovoid = next(h for h in arising_hyperplanes(embed.natural_embedding(q43))
                 if h.classification() == OVOID)
    assert ovoid.deepest_point() is None


def test_property_c_witness_path(space_for):
    # every arising hyperplane of W(3,2) containing a trace is singular with
    # deepest point on the hyperbolic line
    w = space_for("W(3,2)")
    hs = arising_hyperplanes(embed.natural_embedding(w))
    for a, b in itertools.combinations(range(w.n_points), 2):
        if w.collinear(a, b):
            continue
        perp = w.coll[a] & w.coll[b]
        dperp = w.coll[perp].all(axis=0)
        for h in hs:
            if (perp & ~h.mask).any():
                continue
            assert h.classification() == SINGULAR
            assert dperp[h.deepest_point()]


def test_lemma_res1_instances(space_for):
    # arising-from-minimal hyperplanes are all singular iff symplectic
    for name in ["W(3,2)", "W(3,3)", "Q(4,2)", "Q(4,3)", "Q+(3,3)", "Q-(5,2)",
                 "H(3,4)"]:
        s = space_for(name)
        hs = arising_hyperplanes(embed.minimal_embedding(s))
        all_singular = all(h.classification() == SINGULAR for h in hs)
        assert all_singular == is_symplectic(s).holds, name


def test_all_singular_hyperplanes_arise(space_for):
    w = space_for("W(3,2)")
    for e in (embed.natural_embedding(w), embed.universal_embedding_sp_char2(w)):
        for p in range(w.n_points):
            h = singular_hyperplane(w, p)
            assert find_inducing_functional(e, h) is not None
    q42 = space_for("Q(4,2)")
    e42 = embed.natural_embedding(q42)
    for p in range(q42.n_points):
        assert find_inducing_functional(e42, singular_hyperplane(q42, p)) is not None


def _universal_section_sizes(space):
    """For each hyperbolic line, the set of its intersection sizes with the
    hyperplanes arising from the universal embedding."""
    uni = embed.universal_embedding_sp_char2(space)
    sections = np.array([h.mask for h in arising_hyperplanes(uni)])
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
    for h in hs:
        assert h.classification() == SINGULAR
        for hl in hlines:
            assert h.mask[list(hl)].any()


@pytest.mark.parametrize("batch", ["default", "small"])
@pytest.mark.parametrize("name", ["W(3,2)", "Q(4,3)", "W(5,2)"])
def test_contained_counts_match_bruteforce(monkeypatch, name, batch):
    # the pairs a < b, not collinear, with {a,b}^perp inside h, pair by pair;
    # a small batch puts chunk boundaries inside the trace and pair sweeps
    if batch == "small":
        monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 64)
    space = build_space(name)
    coll = space.coll
    traces = {(a, b): coll[a] & coll[b] for a, b in itertools.combinations(range(space.n_points), 2)
              if not coll[a, b]}
    hs = arising_hyperplanes(embed.natural_embedding(space))
    counts = hyperplanes.contained_counts(hs[:5])  # a first sweep, then the rest
    counts = hyperplanes.contained_counts(hs)
    for h, count in zip(hs, counts):
        want = [pair for pair, trace in traces.items() if not (trace & ~h.mask).any()]
        assert count == len(want) and list(h.contained_pairs()) == [list(p) for p in want]
