import gc
import itertools
import random
import re
import weakref

import numpy as np
import pytest

from polarium.catalog import CATALOG, build_space, parse_space_spec, SpecParseError
from polarium.forms import CanonicalSpaceSpec
from polarium import space as space_module
from polarium.linalg import BoundExceeded
from polarium.space import are_opposite, ideal_subgenerator, PolarSpace, SpaceError


# the spaces of the benchmark's stretch workload
STRETCH = ["W(3,5)", "Q(4,4)", "Q(4,5)", "Q-(5,3)", "H(4,4)", "Q+(5,3)"]


def q_of(space):
    return space.field.q


def test_build_space_examples(space_for):
    w = space_for("W(3,2)")
    assert (w.n_points, len(w.lines), w.rank) == (15, 15, 2)
    qm = space_for("Q-(5,2)")
    assert (qm.n_points, qm.rank) == (27, 2)
    assert {len(l) for l in qm.lines} == {3}
    h = space_for("H(3,4)")
    assert (h.n_points, h.rank) == (45, 2)
    # Hermitian lines are full projective lines of PG(3,4): 5 points each,
    # 3 lines per point (GQ of order (4,2))
    assert {len(l) for l in h.lines} == {5}
    assert set(h.lines_matrix.sum(axis=0).tolist()) == {3}


def test_parse_grammar():
    assert str(parse_space_spec(" W(3, 2) ")) == "W(3,2)"
    assert parse_space_spec("Q-(5,2)").family == "Q-"
    assert parse_space_spec("P(W(3,5))").inner == CanonicalSpaceSpec("W", 3, 5)
    assert parse_space_spec("dual(H(4,4))").inner.family == "H"
    for bad in ["X(3,2)", "W(4,2)", "Q(5,3)", "P(Q(4,2))", "W(3)", "grid(1)"]:
        with pytest.raises(SpecParseError):
            s = parse_space_spec(bad)
            build_space(s)


def test_point_bound():
    with pytest.raises(BoundExceeded):
        build_space("W(3,5)", max_points=100)


def _reference_lines(space):
    """Oracle: the per-pair loop over the collinear pairs a < b that no
    earlier line holds, each line's points v and u + lam*v by scalar
    field.add/field.mul and leftmost-coordinate scaling."""
    field, index = space.field, {v: i for i, v in enumerate(space.vectors)}

    def canonical(w):
        lead = next(c for c in w if c)
        return tuple(field.mul(field.inv(lead), c) for c in w)

    lines, covered = [], set()
    for a, b in itertools.combinations(range(space.n_points), 2):
        if not space.collinear(a, b) or (a, b) in covered:
            continue
        u, v = space.vectors[a], space.vectors[b]
        points = [v] + [tuple(field.add(x, field.mul(lam, y)) for x, y in zip(u, v))
                        for lam in field.elements]
        members = tuple(sorted(index[canonical(w)] for w in points))
        lines.append(members)
        covered.update(itertools.combinations(members, 2))
    return lines


@pytest.mark.parametrize("name", ["W(3,2)", "W(3,3)", "W(5,2)", "Q(4,2)", "Q(4,3)", "Q(6,2)",
                                  "Q+(3,3)", "Q+(3,4)", "Q-(5,2)", "H(3,4)"])
def test_lines_match_reference(space_for, name):
    space = space_for(name)
    assert space.lines == _reference_lines(space)


def test_form_backed_consistency_checks():
    # a point set missing one singular point: lines through it leave the set
    form = build_space("W(3,2)").form
    vanishing = form.vanishing
    form.vanishing = lambda x: vanishing(x) & (x != (0, 0, 0, 1)).any(axis=-1)
    with pytest.raises(SpaceError, match="leaves the point set"):
        PolarSpace.from_form(form, "W(3,2) less a point")
    # a maximal clique whose size is not that of a rank-n subspace
    space = build_space("W(3,2)")
    space.rank = 3
    with pytest.raises(SpaceError, match="generator of 3 points"):
        space.generators()


def test_collinearity_matrix_symmetric(space_for):
    for name in ["W(3,2)", "Q-(5,2)", "H(3,4)", "Q+(3,3)"]:
        s = space_for(name)
        assert np.array_equal(s.coll, s.coll.T)
        assert s.coll.diagonal().all()


def test_perp_examples(space_for):
    w = space_for("W(3,2)")
    p = w.index_of((1, 0, 0, 0))
    assert len(w.perp([p])) == 7  # a projective plane's worth
    # two collinear points: perp contains their joining line
    a, b = w.lines[0][0], w.lines[0][1]
    perp = set(w.perp([a, b]))
    assert set(w.lines[0]) <= perp
    # genuinely non-collinear pair: exactly 3 points (the trace)
    e0 = w.index_of((1, 0, 0, 0))
    e1 = w.index_of((0, 1, 0, 0))
    assert not w.collinear(e0, e1)
    assert len(w.perp([e0, e1])) == 3


def test_perp_errors(space_for):
    w = space_for("W(3,2)")
    with pytest.raises(ValueError):
        w.perp([])
    with pytest.raises(ValueError):
        w.perp([999])


def test_perp_antitone(space_for):
    rng = random.Random(13)
    for name in ["W(3,3)", "Q-(5,2)"]:
        s = space_for(name)
        for _ in range(50):
            y = rng.sample(range(s.n_points), 3)
            x = y[:2]
            assert set(s.perp(y)) <= set(s.perp(x))


def test_triple_perp_idempotent(space_for):
    rng = random.Random(42)
    for name in ["W(3,2)", "W(3,3)", "Q-(5,2)", "H(3,4)", "Q+(3,3)", "W(5,2)"]:
        s = space_for(name)
        for _ in range(200):
            idxs = rng.sample(range(s.n_points), rng.randrange(1, 4))
            first = s.perp_mask(idxs)
            third = s.coll[s.coll[first].all(axis=0)].all(axis=0)
            assert np.array_equal(first, third)


def test_nondegenerate(space_for):
    for name in ["W(3,2)", "Q(4,3)", "Q-(5,2)", "H(3,4)", "W(5,2)"]:
        s = space_for(name)
        for p in range(s.n_points):
            assert not s.coll[p].all()


def test_one_or_all_axiom_recheck(space_for):
    # the builder enforces this; recheck independently for two spaces
    for name in ["W(3,3)", "H(3,4)"]:
        s = space_for(name)
        for line in s.lines:
            members = set(line)
            for p in range(s.n_points):
                if p in members:
                    continue
                seen = sum(1 for m in line if s.coll[p, m])
                assert seen in (1, len(line))


@pytest.mark.parametrize("edges,message", [
    # point 6 sees 1 and 2 of the first line (and point 7 sees none of it)
    ([(0, 3), (0, 4), (0, 5), (1, 6), (2, 6)], "point 6 sees 2 points of line (0, 1, 2)"),
    # the first line is clean; point 1 is the first to see none of the second
    ([(0, 3), (0, 4), (0, 5), (1, 6), (2, 7)], "point 1 sees 0 points of line (3, 4, 5)"),
])
def test_one_or_all_violation_named(edges, message, monkeypatch):
    monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 8)  # one line per chunk of 8 points
    lines = [(0, 1, 2), (3, 4, 5)]
    coll = np.eye(8, dtype=bool)
    for a, b in edges + [e for line in lines for e in itertools.combinations(line, 2)]:
        coll[a, b] = coll[b, a] = True
    with pytest.raises(SpaceError, match=f"^graph: {re.escape(message)}$"):
        PolarSpace("graph", list(range(8)), lines, coll, 2)


def test_two_lines_through_a_pair_named():
    # in line order (2, 3) repeats first; row-major order names (0, 1)
    lines = [(2, 3, 4), (0, 1, 5), (2, 3, 6), (0, 1, 7)]
    with pytest.raises(SpaceError, match=r"^graph: two lines through points 0,1$"):
        PolarSpace("graph", list(range(8)), lines, np.ones((8, 8), dtype=bool), 2)


@pytest.mark.parametrize("name", ["W(3,2)", "Q-(5,2)", "H(3,4)", "grid(4)", "P(W(3,5))"])
def test_adj_bits_match_loop(space_for, name):
    s = space_for(name)
    s._adj_bits = None
    want = []
    for i in range(s.n_points):
        row = 0
        for j in np.flatnonzero(s.coll[i]):
            if j != i:
                row |= 1 << int(j)
        want.append(row)
    assert s.adj_bits == want


def test_generators_counts(space_for):
    w32 = space_for("W(3,2)")
    gens = w32.generators()
    assert len(gens) == 15
    assert {g.points for g in gens} == {l for l in map(tuple, w32.lines)}

    w52 = space_for("W(5,2)")
    q = 2
    oracle = 1
    for i in range(1, 4):
        oracle *= q ** i + 1  # number of generators of W(2n-1, q), n = 3
    assert oracle == 135
    assert len(w52.generators()) == oracle
    assert all(g.rank == 3 for g in w52.generators())

    grid = space_for("Q+(3,3)")
    gens = grid.generators()
    assert len(gens) == 8
    # two rulings of 4 pairwise disjoint lines
    g0 = set(gens[0].points)
    same = [g for g in gens if not g0 & set(g.points) or g is gens[0]]
    assert len(same) == 4


def _bron_kerbosch_oracle(space):
    """Generators as the Bron-Kerbosch maximal cliques, and sub-generators as
    their hyperplanes M cap y^perp (y outside M), as sorted point tuples."""
    cliques = sorted(space_module._bron_kerbosch(space.adj_bits, (1 << space.n_points) - 1))
    subs = set()
    for m in cliques:
        sees = space.coll[:, list(m)]
        subs.update(tuple(np.array(m)[row]) for row in sees[~sees.all(axis=1)])
    return cliques, sorted(subs)


def _check_against_bron_kerbosch(space):
    gens, subs = _bron_kerbosch_oracle(space)
    assert [g.points for g in space.generators()] == gens
    assert [tuple(np.flatnonzero(row)) for row in space.generators_matrix()] == gens
    sg, sp = space.subgenerators()
    assert [tuple(np.flatnonzero(row)) for row in sg] == subs
    assert (sp == np.stack([space.perp_mask(np.flatnonzero(row)) for row in sg])).all()


@pytest.mark.parametrize("name", [*CATALOG, *STRETCH, "Q+(7,2)", "Q-(7,2)"])
def test_generators_match_bron_kerbosch(space_for, name):
    # the generators come from the sub-generators (at rank >= 4 by flips),
    # never from a clique search
    _check_against_bron_kerbosch(space_for(name))


@pytest.mark.heavy
@pytest.mark.parametrize("name,count", [("W(5,3)", 4 * 10 * 28), ("W(7,2)", 3 * 5 * 9 * 17)])
def test_generators_match_bron_kerbosch_heavy(name, count):
    # (q+1)(q^2+1)(q^3+1) and (q+1)(q^2+1)(q^3+1)(q^4+1) generators of W(2n-1, q)
    space = build_space(name)
    assert len(space.generators()) == count
    _check_against_bron_kerbosch(space)


def test_combinatorial_rank_inference():
    w = build_space("W(3,2)")
    gq = PolarSpace.combinatorial("gq", w.points, w.lines)
    assert gq.rank == 2 and [g.points for g in gq.generators()] == sorted(w.lines)
    bare = PolarSpace.combinatorial("bare", ["x", "y", "z"], [])
    assert bare.rank == 1 and [g.points for g in bare.generators()] == [(0,), (1,), (2,)]
    # W(5,2) has planes: the perp of a line is no line, so rank 2 is refused
    w52 = build_space("W(5,2)")
    with pytest.raises(SpaceError, match="neither a point nor a line"):
        PolarSpace.combinatorial("planes", w52.points, w52.lines)


def test_generators_deterministic(space_for):
    w = build_space("W(3,3)")
    assert [g.points for g in w.generators()] == \
        [g.points for g in space_for("W(3,3)").generators()]


def test_span_singular(space_for):
    w = space_for("W(3,2)")
    line = w.lines[0]
    s = w.span_singular(line[:2])
    assert s.points == tuple(sorted(line)) and s.rank == 2
    pt = w.span_singular([5])
    assert pt.points == (5,) and pt.rank == 1
    with pytest.raises(ValueError):
        e0, e1 = w.index_of((1, 0, 0, 0)), w.index_of((0, 1, 0, 0))
        w.span_singular([e0, e1])  # non-collinear pair

    w52 = space_for("W(5,2)")
    plane = next(g for g in w52.generators())
    # three points of the plane not on one line span the whole 7-point plane
    for triple in itertools.combinations(plane.points, 3):
        sp = w52.span_singular(triple)
        if sp.rank == 3:
            assert sp.points == plane.points
            break
    else:
        raise AssertionError("no spanning triple found in a generator")


def test_are_opposite(space_for):
    w = space_for("W(3,2)")
    e0, e1 = w.index_of((1, 0, 0, 0)), w.index_of((0, 1, 0, 0))
    assert are_opposite(w, w.span_singular([e0]), w.span_singular([e1]))
    g = w.generators()[0]
    assert not are_opposite(w, g, g)
    with pytest.raises(ValueError):
        are_opposite(w, g, w.span_singular([0]))
    # verdict matches the brute-force perp test on all line pairs
    for x, y in itertools.combinations(w.generators(), 2):
        brute = not (set(w.perp(list(x.points))) & set(y.points))
        assert are_opposite(w, x, y) == brute


def test_ideal_subgenerator(space_for):
    w = space_for("W(3,2)")
    everything = range(w.n_points)
    g = w.generators()[0]
    sub = w.span_singular([g.points[0]])  # a point, rank n-1 = 1
    assert ideal_subgenerator(w, sub, everything)
    # inside a single generator, another generator always escapes
    assert not ideal_subgenerator(w, sub, g.points)
    with pytest.raises(ValueError):
        ideal_subgenerator(w, g, everything)  # wrong rank
    # ambient p^perp: a sub-generator {s} is ideal iff all lines through s
    # stay inside p^perp; compare against direct enumeration
    p = 0
    ambient = set(w.perp([p]))
    for s in sorted(ambient):
        verdict = ideal_subgenerator(w, w.span_singular([s]), ambient)
        brute = all(set(g2.points) <= ambient
                    for g2 in w.generators() if s in g2.points)
        assert verdict == brute


def test_induced_subspace(space_for):
    w52 = space_for("W(5,2)")
    a, b = 0, next(i for i in range(w52.n_points) if not w52.coll[0, i])
    trace = w52.perp([a, b])
    induced = w52.induced_subspace(trace)
    # the trace of a non-collinear pair in W(5,2) is a W(3,2)-quadrangle
    assert (induced.n_points, len(induced.lines), induced.rank) == (15, 15, 2)


def test_degenerate_combinatorial_rejected():
    from polarium.space import PolarSpace
    with pytest.raises(SpaceError):
        # a triangle: every point collinear with every other, lines of size 2
        PolarSpace.combinatorial("triangle", [0, 1, 2],
                                 [(0, 1), (1, 2), (0, 2)], rank=2,
                                 grid_family=True)


def test_reported_space_freed_by_refcount():
    # no reference cycle through the cached generators: the last reference
    # going frees a checked space without the cyclic collector
    from polarium.props import full_report
    space = build_space("W(3,2)")
    report = full_report(space)
    ref = weakref.ref(space)
    gc.disable()
    try:
        del space, report
        assert ref() is None
    finally:
        gc.enable()
