import gc
import itertools
import math
import random
import re
import weakref

import numpy as np
import pytest

from polarium.catalog import CATALOG, build_space, parse_space_spec, SpecParseError
from polarium.forms import CanonicalSpaceSpec
from polarium import space as space_module
from polarium.linalg import BoundExceeded
from polarium.space import PolarSpace, SpaceError


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
    for bad in ["X(3,2)", "W(4,2)", "Q(5,3)", "P(Q(4,2))", "W(3)", "grid(1)",
                "dual(W(5,2))"]:
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


# the form-backed spaces of the catalog, then those of the stretch workload
FORM_BACKED = [n for n in CATALOG if parse_space_spec(n).order] + STRETCH


@pytest.mark.parametrize("name", [*FORM_BACKED, "H(3,9)"])
def test_lines_match_reference(space_for, name):
    space = space_for(name)
    assert space.lines == _reference_lines(space)


@pytest.mark.heavy
@pytest.mark.parametrize("name", ["W(3,7)", "W(5,3)", "Q-(7,2)", "Q+(7,2)"])
def test_lines_match_reference_heavy(name):
    space = build_space(name)
    assert space.lines == _reference_lines(space)


@pytest.mark.parametrize("name", FORM_BACKED)
def test_each_line_is_built_once(monkeypatch, name):
    # from_form gathers the points of each line from its reduced echelon
    # pair alone, not from every collinear pair on it
    rows, line_points = [], space_module.linalg.line_points

    def counted(field, u, v):
        rows.append(len(u))
        return line_points(field, u, v)

    monkeypatch.setattr(space_module.linalg, "line_points", counted)
    space = build_space(name)
    assert sum(rows) == len(space.lines)


def _n_points(family, d, order):
    """Points of the classical polar space of projective dimension d over
    GF(order), by the family's formula."""
    q = order
    if family == "H":
        q, sign = math.isqrt(order), (-1) ** d
        return (q ** (d + 1) + sign) * (q ** d - sign) // (q * q - 1)
    n = (d + 1) // 2
    return {"W": (q ** (d + 1) - 1) // (q - 1), "Q": (q ** d - 1) // (q - 1),
            "Q+": (q ** n - 1) * (q ** (n - 1) + 1) // (q - 1),
            "Q-": (q ** n + 1) * (q ** (n - 1) - 1) // (q - 1)}[family]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_point_formula_at_rank_one(q):
    # the residues of the rank-2 spaces below
    assert _n_points("W", 1, q) == _n_points("Q", 2, q) == q + 1
    assert (_n_points("Q+", 1, q), _n_points("Q-", 3, q)) == (2, q * q + 1)
    assert (_n_points("H", 1, q * q), _n_points("H", 2, q * q)) == (q + 1, q ** 3 + 1)


def _rank_and_generators(family, d, order):
    """(rank, generators) of the classical polar space of projective
    dimension d over GF(order), by the family's formulas: prod over
    i = 1..r of order^(e + i - 1) + 1 generators, e = 0 for Q+, 1 for W and
    Q, 2 for Q-, 1/2 or 3/2 for H in odd or even d (exponents in halves
    below, so H's order, a square, gives exact roots)."""
    rank = {"W": (d + 1) // 2, "Q": d // 2, "Q+": (d + 1) // 2, "Q-": (d - 1) // 2,
            "H": (d + 1) // 2}[family]
    twice_e = {"W": 2, "Q": 2, "Q+": 0, "Q-": 4, "H": 1 if d % 2 else 3}[family]
    return rank, math.prod(math.isqrt(order ** (twice_e + 2 * i - 2)) + 1
                           for i in range(1, rank + 1))


def _check_closed_forms(name, space):
    # each point lies on as many lines as its residue p^perp/p, the same
    # family two projective dimensions down, has points; a line has order+1;
    # a generator is a projective (rank - 1)-space
    spec = parse_space_spec(name)
    family, d, order = spec.family, spec.proj_dim, spec.order
    assert space.n_points == _n_points(family, d, order)
    assert len(space.lines) * (order + 1) == space.n_points * _n_points(family, d - 2, order)
    rank, count = _rank_and_generators(family, d, order)
    assert space.rank == rank
    gens = space.generators()
    assert len(gens) == count
    assert (gens.sum(axis=1) == (order ** rank - 1) // (order - 1)).all()


@pytest.mark.parametrize("name", FORM_BACKED)
def test_point_and_line_counts_closed_form(space_for, name):
    _check_closed_forms(name, space_for(name))


@pytest.mark.heavy
@pytest.mark.parametrize("name", ["W(3,7)", "W(5,3)", "W(7,2)", "Q+(7,2)", "Q-(7,2)",
                                  "Q(6,3)", "H(5,4)"])
def test_point_and_line_counts_closed_form_heavy(name):
    _check_closed_forms(name, build_space(name))


def _leaving_paths():
    """(point, path) for each point of W(3,2): 'cover' when the point is one
    of the two smallest points of every line through it, so no line built
    without it reaches it; 'loop' when some line built from its echelon pair
    passes through it."""
    w = build_space("W(3,2)")
    return [(p, "cover" if all(i in l[:2] for l in w.lines if i in l) else "loop")
            for i, p in enumerate(w.points)]


_LEAVING = [pytest.param(p, path, id="".join(map(str, p)) + "-" + path)
            for p, path in _leaving_paths()]


@pytest.mark.parametrize("point,path", _LEAVING)
def test_a_missing_point_leaves_the_point_set(monkeypatch, point, path):
    # a point set missing one singular point: some line leaves the set; the
    # line loop sees it, or, when only lines never built pass through the
    # point, validate's cover check on the lines' pair_codes
    form = build_space("W(3,2)").form
    vanishing = form.vanishing
    form.vanishing = lambda x: vanishing(x) & (x != point).any(axis=-1)
    calls, pair_codes = [], space_module.pair_codes

    def counted(*args, **kwargs):
        calls.append(1)
        return pair_codes(*args, **kwargs)

    monkeypatch.setattr(space_module, "pair_codes", counted)
    with pytest.raises(SpaceError, match="leaves the point set"):
        PolarSpace.from_form(form, "W(3,2) less a point")
    assert ("cover" if calls else "loop") == path


def test_both_leaving_paths_occur():
    assert {path for _, path in _leaving_paths()} == {"loop", "cover"}


def _greedy_loop(coll, mask):
    """The one-row loop that greedy_cliques batches, kept as its oracle: the
    smallest point left joins the clique, and the points off its perp leave."""
    clique, left = np.zeros(len(coll), dtype=bool), mask.copy()
    while left.any():
        x = np.argmax(left)
        clique[x] = True
        left &= coll[x] & ~clique
    return clique


@pytest.mark.parametrize("name", ["W(3,2)", "Q(4,3)", "H(3,4)", "grid(4)", "P(W(3,5))", "Q+(5,3)"])
def test_greedy_cliques_match_the_loop(space_for, name):
    # rows: the whole space, no point, every point perp and random point sets
    s = space_for(name)
    n = s.n_points
    masks = np.vstack([np.ones((1, n), dtype=bool), np.zeros((1, n), dtype=bool), s.coll,
                       np.random.default_rng(3).random((20, n)) < 0.5])
    want = np.stack([_greedy_loop(s.coll, mask) for mask in masks])
    assert np.array_equal(space_module.greedy_cliques(s.coll, masks), want)
    assert space_module.greedy_cliques(s.coll, masks[:0]).shape == (0, n)


def test_form_backed_consistency_checks(monkeypatch):
    # a maximal clique whose rank, 2, is not the space's
    space = build_space("W(3,2)")
    space.rank = 3
    with pytest.raises(SpaceError, match="generator of 3 points"):
        space.generators()
    # the rank comes from the greedy generator: cut to 2 points, it is not
    # its own perp
    greedy = space_module.greedy_cliques

    def two_points(coll, masks):
        gen = greedy(coll, masks)
        for row in gen:
            row[np.flatnonzero(row)[2:]] = False
        return gen

    monkeypatch.setattr(space_module, "greedy_cliques", two_points)
    with pytest.raises(SpaceError, match="W.3,2.: generator of 2 points"):
        build_space("W(3,2)")


def test_rank_of_a_degenerate_space_ends():
    # a cone, unvalidated: point 0 is collinear with every point, so no cut
    # by a point perp takes it away, and the rank names it, not loops
    coll = np.ones((5, 5), dtype=bool)
    coll[np.ix_([1, 2], [3, 4])] = coll[np.ix_([3, 4], [1, 2])] = False
    with pytest.raises(SpaceError, match=r"^cone: degenerate, 0 is collinear with every point$"):
        PolarSpace("cone", list(range(5)), [(0, 1, 2), (0, 3, 4)], coll, None, validate=False)
    # a space tampered after its build: the same, at any row
    w = build_space("W(3,2)")
    w.coll[5] = w.coll[:, 5] = True
    with pytest.raises(SpaceError, match=rf"^W.3,2.: degenerate, {re.escape(str(w.points[5]))} "
                                         "is collinear with every point$"):
        w.max_singular_rank(np.arange(w.n_points) == 5)


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


def spy_chunks(monkeypatch) -> list:
    """Wrap `space.chunks` so each call's slices are recorded, as a list."""
    seen, chunks = [], space_module.chunks

    def spy(total, width):
        seen.append(list(chunks(total, width)))
        return iter(seen[-1])

    monkeypatch.setattr(space_module, "chunks", spy)
    return seen


@pytest.mark.parametrize("edges,message", [
    # point 6 sees 1 and 2 of the first line (and point 7 sees none of it)
    ([(0, 3), (0, 4), (0, 5), (1, 6), (2, 6)], "point 6 sees 2 points of line (0, 1, 2)"),
    # the first line is clean; point 1 is the first to see none of the second
    ([(0, 3), (0, 4), (0, 5), (1, 6), (2, 7)], "point 1 sees 0 points of line (3, 4, 5)"),
])
def test_one_or_all_violation_named(edges, message, monkeypatch):
    monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 8)  # less than a row of 8 + 1 counts
    seen = spy_chunks(monkeypatch)
    lines = [(0, 1, 2), (3, 4, 5)]
    coll = np.eye(8, dtype=bool)
    for a, b in edges + [e for line in lines for e in itertools.combinations(line, 2)]:
        coll[a, b] = coll[b, a] = True
    with pytest.raises(SpaceError, match=f"^graph: {re.escape(message)}$"):
        PolarSpace("graph", list(range(8)), lines, coll, 2)
    assert seen == [[slice(0, 1), slice(1, 2)]]  # the one-or-all check: a chunk per line


@pytest.mark.parametrize("seen,message", [
    # point 300 sees the whole line: its count 300 and the line's size both
    # wrap to 44 in uint8, so the check passes either way, and 0 is named
    (300, "degenerate, 0 is collinear with every point"),
    # point 300 sees 257 of the 300 points, which would wrap to 1
    (257, "point 300 sees 257 points of line (0, 1, 2,"),
])
def test_one_or_all_counts_past_255_points_a_line(seen, message):
    coll = np.zeros((301, 301), dtype=bool)
    coll[:300, :300] = coll[300, 300] = True
    coll[300, :seen] = coll[:seen, 300] = True
    with pytest.raises(SpaceError, match=f"^big: {re.escape(message)}"):
        PolarSpace("big", list(range(301)), [tuple(range(300))], coll, 2)


def test_one_or_all_reads_points_off_each_line():
    # (0, 1, 2) is no clique: 0 and 2 see only 2 of its points.  The
    # one-or-all check reads each line at every point, on it or off it, and
    # a point on a line must see all of it, so validate names the fault
    lines = [(0, 1, 2), (3, 4, 5)]
    coll = np.eye(6, dtype=bool)
    for a, b in [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]:
        coll[a, b] = coll[b, a] = True
    with pytest.raises(SpaceError, match=r"^graph: point 0 sees 2 points of line \(0, 1, 2\)$"):
        PolarSpace("graph", list(range(6)), lines, coll, None)
    # with no pair of (0, 1, 2) collinear, each of its points sees one point
    # of it, as a point off a line may, and is still named
    coll[[0, 1, 1, 2], [1, 0, 2, 1]] = False
    with pytest.raises(SpaceError, match=r"^graph: point 0 sees 1 points of line \(0, 1, 2\)$"):
        PolarSpace("graph", list(range(6)), lines, coll, None)


def _grid_3x2():
    """The 3 x 2 grid: lines of 2 and 3 points, so its member rows are padded."""
    labels = [(i, j) for i in range(3) for j in range(2)]
    lines = [(0, 1), (2, 3), (4, 5), (0, 2, 4), (1, 3, 5)]
    return PolarSpace.combinatorial("grid(3x2)", labels, lines, grid_family=True)


def check_member_counts(space, rows):
    # the member gathers against the float32 product they replaced, the oracle
    counts = np.concatenate([c for _, c in space_module.member_counts(rows, space.line_members)])
    lm = space.lines_matrix
    assert np.array_equal(counts[:, :-1], lm.astype(np.float32) @ rows.astype(np.float32))
    assert np.array_equal(counts[:, -1], lm.sum(axis=1))


@pytest.mark.parametrize("name", [*CATALOG, *STRETCH, "grid(3x2)"])
def test_one_or_all_counts_match_the_product(space_for, name):
    space = _grid_3x2() if name == "grid(3x2)" else space_for(name)
    if name == "grid(3x2)":
        assert (space.line_members == space.n_points).any()  # the padding path
    check_member_counts(space, space.coll)


@pytest.mark.heavy
@pytest.mark.parametrize("name", ["W(3,7)", "Q(6,3)", "H(5,4)"])
def test_one_or_all_counts_match_the_product_heavy(name):
    space = build_space(name)
    check_member_counts(space, space.coll)


def test_two_lines_through_a_pair_named():
    # in line order (2, 3) repeats first; row-major order names (0, 1)
    lines = [(2, 3, 4), (0, 1, 5), (2, 3, 6), (0, 1, 7)]
    with pytest.raises(SpaceError, match=r"^graph: two lines through points 0,1$"):
        PolarSpace("graph", list(range(8)), lines, np.ones((8, 8), dtype=bool), 2)


def point_tuples(rows) -> list:
    """The point indices of each membership row, as a tuple."""
    return [tuple(np.flatnonzero(row).tolist()) for row in rows]


def test_generators_counts(space_for):
    w32 = space_for("W(3,2)")
    gens = w32.generators()
    assert len(gens) == 15 and not gens.flags.writeable
    assert set(point_tuples(gens)) == set(map(tuple, w32.lines))

    w52 = space_for("W(5,2)")
    q = 2
    oracle = 1
    for i in range(1, 4):
        oracle *= q ** i + 1  # number of generators of W(2n-1, q), n = 3
    assert oracle == 135
    assert len(w52.generators()) == oracle
    assert (w52.generators().sum(axis=1) == 7).all()  # planes: rank 3

    grid = space_for("Q+(3,3)")
    gens = grid.generators()
    assert len(gens) == 8
    # two rulings of 4 pairwise disjoint lines: 3 lines miss the first
    assert (~(gens & gens[0]).any(axis=1)).sum() == 3


def adjacency(space) -> list:
    """Row i of the collinearity matrix as a Python int, without bit i."""
    return [sum(1 << int(j) for j in np.flatnonzero(row) if j != i)
            for i, row in enumerate(space.coll)]


def bron_kerbosch(adj, full) -> list:
    """All maximal cliques of the bitmask adjacency inside the bitmask
    `full`, as sorted point tuples, by Bron-Kerbosch with pivoting."""
    cliques = []

    def bits(x):
        while x:
            b = x & -x
            yield b.bit_length() - 1
            x ^= b

    def expand(r, p, x):
        if not p and not x:
            cliques.append(tuple(bits(r)))
            return
        pivot = max(bits(p | x), key=lambda u: (p & adj[u]).bit_count())
        for v in bits(p & ~adj[pivot]):
            expand(r | 1 << v, p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, full, 0)
    return cliques


def max_clique_rank(space, mask, adj=None) -> int:
    """Oracle for max_singular_rank on a form-backed space: the largest rank
    (q^r - 1)/(q - 1) -> r of a maximal clique inside the mask."""
    q = space.field.q
    full = sum(1 << int(i) for i in np.flatnonzero(mask))
    cliques = bron_kerbosch(adj or adjacency(space), full)
    return max(round(math.log(len(c) * (q - 1) + 1, q)) for c in cliques)


def _bron_kerbosch_oracle(space):
    """Generators as the Bron-Kerbosch maximal cliques, and sub-generators as
    their hyperplanes M cap y^perp (y outside M), as sorted point tuples."""
    cliques = sorted(bron_kerbosch(adjacency(space), (1 << space.n_points) - 1))
    subs = set()
    for m in cliques:
        sees = space.coll[:, list(m)]
        subs.update(tuple(np.array(m)[row]) for row in sees[~sees.all(axis=1)])
    return cliques, sorted(subs)


def _check_against_bron_kerbosch(space):
    gens, subs = _bron_kerbosch_oracle(space)
    assert point_tuples(space.generators()) == gens
    sg, sp = space.subgenerators()
    assert point_tuples(sg) == subs
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
    assert gq.rank == 2 and point_tuples(gq.generators()) == sorted(w.lines)
    bare = PolarSpace.combinatorial("bare", ["x", "y", "z"], [])
    assert bare.rank == 1 and point_tuples(bare.generators()) == [(0,), (1,), (2,)]
    # W(5,2) has planes: its rank, 3, is read from incidence alone
    w52 = build_space("W(5,2)")
    planes = PolarSpace.combinatorial("planes", w52.points, w52.lines)
    assert planes.rank == 3 and np.array_equal(planes.generators(), w52.generators())


def test_generators_deterministic(space_for):
    w = build_space("W(3,3)")
    assert np.array_equal(w.generators(), space_for("W(3,3)").generators())


@pytest.mark.parametrize("name", ["W(3,2)", "Q-(5,2)", "H(3,4)", "W(5,2)", "grid(4)", "P(W(3,5))",
                                  "dual(H(4,4))", "Q+(5,3)"])
def test_perps_match_dense_and(space_for, name):
    s = space_for(name)
    n = s.n_points
    members = np.sort(np.random.default_rng(5).integers(0, n + 1, size=(40, 4)), axis=1)
    members[0] = n  # padding alone: every point
    got = np.unpackbits(s.perps(members), axis=1, count=n).view(bool)
    want = np.stack([s.coll[row[row < n]].all(axis=0) for row in members])
    assert want[0].all() and (got == want).all()


def test_max_singular_rank_combinatorial(space_for):
    # a point set with a collinear pair holds a line
    s = space_for("P(W(3,5))")
    line, far = s.lines[0], np.flatnonzero(~s.coll[s.lines[0][0]])[0]
    for pts, rank in [((), 0), ((far,), 1), (line[:2], 2), ((line[0], far), 1)]:
        mask = np.zeros(s.n_points, dtype=bool)
        mask[list(pts)] = True
        assert s.max_singular_rank(mask) == rank, pts


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
                                 [(0, 1), (1, 2), (0, 2)], grid_family=True)


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
