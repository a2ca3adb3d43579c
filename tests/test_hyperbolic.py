import itertools

import numpy as np
import pytest

from polarium import hyperbolic, props
from polarium import space as space_module
from polarium.catalog import CATALOG, build_space
from polarium.derived import payne_derive
from polarium.hyperbolic import all_hyperbolic_lines, hyperbolic_lines, linear_space
from polarium.space import PolarSpace, SpaceError
from test_space import STRETCH


def noncollinear_pairs(space):
    for a, b in itertools.combinations(range(space.n_points), 2):
        if not space.collinear(a, b):
            yield a, b


def line_of(space, a, b):
    """{a,b}^perpperp as a sorted point tuple."""
    return hyperbolic_lines(space, np.array([[a, b]])).points()[0]


def test_hyperbolic_line_symplectic(space_for):
    w = space_for("W(3,2)")
    a = w.index_of((1, 0, 0, 0))
    b = w.index_of((0, 1, 0, 0))
    h = line_of(w, a, b)
    assert len(h) == 3  # symplectic hyperbolic lines have q+1 points
    assert a in h and b in h
    for i, j in itertools.combinations(h, 2):
        assert not w.collinear(i, j)


def test_hyperbolic_line_q_odd(space_for):
    q43 = space_for("Q(4,3)")
    for a, b in itertools.islice(noncollinear_pairs(q43), 30):
        assert line_of(q43, a, b) == tuple(sorted((a, b)))  # size 2 on the odd quadric


def test_hyperbolic_line_dual_hermitian(space_for):
    d = space_for("dual(H(4,4))")
    for a, b in itertools.islice(noncollinear_pairs(d), 40):
        assert len(line_of(d, a, b)) == 2


def test_all_hyperbolic_lines_w32(space_for):
    w = space_for("W(3,2)")
    hls = all_hyperbolic_lines(w)
    # oracle: 15*8/2 = 60 non-collinear pairs, C(3,2) = 3 pairs per 3-point
    # line, hence 20 lines
    pairs = sum(1 for _ in noncollinear_pairs(w))
    assert pairs == 60
    assert len(hls) == pairs // 3 == 20


def test_all_hyperbolic_lines_counts(space_for):
    q43 = space_for("Q(4,3)")
    pairs = sum(1 for _ in noncollinear_pairs(q43))
    assert len(all_hyperbolic_lines(q43)) == pairs  # all lines have size 2

    grid = space_for("Q+(3,3)")
    for h in all_hyperbolic_lines(grid).points():
        for a, b in itertools.combinations(h, 2):
            assert line_of(grid, a, b) == h  # dedup sound


def _reference_lines(space):
    """Oracle: the per-pair loop, one double perp per pair no earlier line
    holds, as (pair, points) in member-tuple order."""
    seen, lines = set(), {}
    for a, b in noncollinear_pairs(space):
        if (a, b) in seen:
            continue
        dperp = space.coll[space.perp_mask([a, b])].all(axis=0)
        members = tuple(int(i) for i in np.flatnonzero(dperp))
        lines[members] = (a, b)
        seen.update(itertools.combinations(members, 2))
    return [(lines[k], k) for k in sorted(lines)]


def _pairs_and_points(lines):
    return list(zip(map(tuple, lines.pairs.tolist()), lines.points()))


@pytest.mark.parametrize("name", ["W(3,2)", "Q(4,3)", "W(5,2)", "grid(4)", "P(W(3,5))",
                                  "dual(P(W(3,4)))", "Q(4,5)", "Q+(5,3)", "H(4,4)",
                                  "dual(H(4,4))"])
def test_batched_lines_match_reference(space_for, name):
    # Q(4,5), Q+(5,3) and dual(H(4,4)) have only 2-point lines, H(4,4) only
    # 3-point ones, and dual(P(W(3,4))) lines of 4 and 2 points
    _batched_lines_case(space_for(name))


@pytest.mark.parametrize("name", ["Q(4,3)", "W(5,2)", "P(W(3,5))", "dual(P(W(3,4)))",
                                  "H(4,4)", "dual(H(4,4))"])
def test_batched_lines_match_reference_in_small_chunks(monkeypatch, name):
    # chunks of a few pairs split the rows a of the pairs, and of_pair is
    # filled across chunk boundaries
    monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 512)
    _batched_lines_case(build_space(name))


def _batched_lines_case(space):
    reference = _reference_lines(space)
    lines = all_hyperbolic_lines(space)
    assert _pairs_and_points(lines) == reference
    line_of_pair = {pair: k for k, (_, pts) in enumerate(reference)
                    for pair in itertools.combinations(pts, 2)}
    expected = [line_of_pair[pair] for pair in noncollinear_pairs(space)]
    assert lines.of_pair.tolist() == expected
    # every pair's own double perp, in one batch, given as (a, b) and as (b, a)
    pairs = space.noncollinear_pairs()
    for given in (pairs, pairs[:, ::-1]):
        assert hyperbolic_lines(space, given).points() == [reference[k][1] for k in expected]


@pytest.mark.parametrize("name", dict.fromkeys([*CATALOG, *STRETCH]))
def test_prefix_read_then_drained_matches_a_complete_build(space_for, monkeypatch, name):
    # in chunks of a few pairs, a prefix read in pieces, across part
    # boundaries and past its end, and then drained gives the lines of a
    # complete build at the default size, and its pieces are slices of them
    complete = all_hyperbolic_lines(space_for(name))
    monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 512)
    space = build_space(name)
    prefix = hyperbolic.LinePrefix(space)
    head = [prefix[3:8], prefix[0:1]]
    # W(3,2), Q(4,2) and Q+(3,3) have under 100 pairs, one chunk
    assert space._hyperbolic_lines.complete == (len(space.noncollinear_pairs()) < 100)
    parts = list(itertools.islice(prefix.parts(), 3))
    assert [lo for lo, _ in parts] == np.cumsum([0] + [len(p) for _, p in parts])[:-1].tolist()
    pieces = [(3, head[0]), (0, head[1]), *parts]
    past, end = prefix[len(complete) - 1:len(complete) + 5], len(complete)
    assert space._hyperbolic_lines.complete and len(past) == 1 and not len(prefix[end:end + 1])
    lines = all_hyperbolic_lines(space)
    for got, want in [(lines.pairs, complete.pairs), (lines.members, complete.members),
                      (lines.of_pair, complete.of_pair)]:
        assert np.array_equal(got, want) and not got.flags.writeable
    for lo, piece in [*pieces, (len(complete) - 1, past)]:
        width = piece.members.shape[1]
        assert np.array_equal(piece.pairs, lines.pairs[lo:lo + len(piece)])
        assert np.array_equal(piece.members, lines.members[lo:lo + len(piece), :width])
        assert (lines.members[lo:lo + len(piece), width:] == space.n_points).all()


def test_D_kernel_never_reads_padding(space_for, monkeypatch):
    # dual(P(W(3,4))) has hyperbolic lines of 4 and 2 points, so a whole-space
    # batch pads the 2-point lines; each line's failing points must be the x
    # with x^perp missing its members, ~coll[members].any(0)
    space = space_for("dual(P(W(3,4)))")
    lines = all_hyperbolic_lines(space)
    assert (lines.members == space.n_points).any()
    monkeypatch.setattr(props, "_label", lambda space, i: i)  # indices, not labels
    _, fails, failures = props._D_kernel(space)(lines)
    assert fails.any()
    for k, h in enumerate(lines.points()):
        missed = np.flatnonzero(~space.coll[list(h)].any(axis=0)).tolist()
        assert [w["point"] for _, w in failures(k)] == missed, k
        assert bool(fails[k]) == bool(missed), k


def test_lines_need_no_numpy2_bit_count(space_for, monkeypatch):
    # NumPy 1.x has no np.bitwise_count; the packed tests must not call it
    space = space_for("dual(P(W(3,4)))")
    expected = _pairs_and_points(all_hyperbolic_lines(space))
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert _pairs_and_points(all_hyperbolic_lines(space)) == expected
    a, b = expected[-1][0]
    assert line_of(space, a, b) == expected[-1][1]
    base = space_for("W(3,3)")
    assert payne_derive(base, 0).n_points == 27


def _graph(n, edges):
    """An unvalidated 'space' with the given collinearity graph and no lines."""
    coll = np.eye(n, dtype=bool)
    for a, b in edges:
        coll[a, b] = coll[b, a] = True
    return PolarSpace("graph", list(range(n)), [], coll, 2, validate=False)


@pytest.mark.parametrize("n,edges,message", [
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], "non-collinear pair 0,2 lies on 0 hyperbolic lines"),
    (5, [(0, 3), (1, 4), (2, 3)], "non-collinear pair 0,2 lies on 2 hyperbolic lines"),
    (4, [(0, 2), (2, 3)], "^graph: collinear pair 0,2 lies on 1 hyperbolic lines"),
    # as many pairs on lines as non-collinear pairs, yet not a partition
    (4, [(0, 1), (1, 3), (2, 3)], "non-collinear pair 0,2 lies on 0 hyperbolic lines"),
    (6, [(0, 3), (1, 3), (2, 3), (2, 5), (3, 5)], "^graph: collinear pair 0,3 lies on 1 hyperbolic lines"),
])
def test_lines_must_partition_pairs(n, edges, message):
    with pytest.raises(SpaceError, match=message):
        all_hyperbolic_lines(_graph(n, edges))


def test_scan_raises_the_partition_error_of_its_chunk(monkeypatch):
    # chunks of one pair: the pentagon's first pair (0, 2) has no line, as
    # {0,2}^perpperp = {0,1,2} holds 1 below 2; check_D reads that chunk
    # alone and raises what the complete build raises
    monkeypatch.setattr(space_module, "BATCH_ELEMENTS", 1)
    message = "^graph: non-collinear pair 0,2 lies on 0 hyperbolic lines"
    read, dperps = [], hyperbolic.packed_double_perps
    monkeypatch.setattr(hyperbolic, "packed_double_perps", lambda space, pairs: (
        read.append(pairs.tolist()) or dperps(space, pairs)))
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    with pytest.raises(SpaceError, match=message):
        props.check_D(_graph(5, edges))
    assert read == [[[0, 2]]]
    with pytest.raises(SpaceError, match=message):
        all_hyperbolic_lines(_graph(5, edges))


def test_hyperbolic_line_rejects_collinear_members():
    pentagon = _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    with pytest.raises(SpaceError, match="collinear pair inside"):
        hyperbolic_lines(pentagon, np.array([[0, 2]]))  # {0,2}^perpperp = {0,1,2}


def test_hyperbolic_line_rejects_a_single_collinear_pair():
    # {2,3}^perp = {0,4} and {0,4}^perp = {2,3,5}: only 3 and 5 are collinear,
    # so no member sees more than one other
    graph = _graph(6, [(0, 2), (0, 3), (0, 5), (1, 4), (1, 5), (2, 4), (3, 4), (3, 5), (4, 5)])
    with pytest.raises(SpaceError, match="collinear pair inside"):
        hyperbolic_lines(graph, np.array([[2, 3]]))


def test_hyperbolic_line_must_hold_its_pair():
    # 0 and 1 see 2 but 2 sees neither: {0,1}^perp = {2}, {0,1}^perpperp = {2}
    coll = np.eye(3, dtype=bool)
    coll[0, 2] = coll[1, 2] = True
    one_way = PolarSpace("one-way", [0, 1, 2], [], coll, 2, validate=False)
    with pytest.raises(SpaceError, match=r"\{0,1\}\^perpperp misses 0 or 1"):
        hyperbolic_lines(one_way, np.array([[0, 1]]))


def test_line_build_keeps_no_line_without_its_pair():
    # 3 sees 0 but 0 sees only itself: {0,1}^perpperp is all four points and
    # covers each pair once, while {0,3}^perpperp = {0}^perp = {0}, with no
    # other point below 3, would be kept at (0,3) without 3
    coll = np.eye(4, dtype=bool)
    coll[3, 0] = True
    one_way = PolarSpace("one-way", [0, 1, 2, 3], [], coll, 2, validate=False)
    with pytest.raises(SpaceError, match=r"\{0,3\}\^perpperp misses 0 or 3"):
        all_hyperbolic_lines(one_way)


def test_double_perp_identities(space_for):
    for name in ["W(3,2)", "Q-(5,2)", "Q+(3,3)"]:
        s = space_for(name)
        for a, b in itertools.islice(noncollinear_pairs(s), 25):
            perp = s.perp_mask([a, b])
            dperp = s.coll[perp].all(axis=0)
            assert line_of(s, a, b) == tuple(np.flatnonzero(dperp).tolist())
            triple = s.coll[dperp].all(axis=0)
            # {a,b}^ppp == {a,b}^p
            assert (triple == perp).all()


def test_linear_space_w32(space_for):
    w = space_for("W(3,2)")
    # PG(3,2) has (15*14/2) / (3*2/2) = 35 lines
    assert len(linear_space(w)) == 35 == 15 + 20


def test_linear_space_q43_not_projective(space_for):
    q43 = space_for("Q(4,3)")
    assert min(map(len, linear_space(q43))) == 2  # 2-point joining lines


def test_linear_space_unique_joins(space_for):
    # linear_space verifies the linear-space axiom; spot-check by hand
    w = space_for("W(3,3)")
    lines = linear_space(w)
    for a, b in itertools.islice(itertools.combinations(range(w.n_points), 2), 200):
        joins = [line for line in lines if a in line and b in line]
        assert len(joins) == 1


def test_lemma_h1_rank2_symplectic(space_for):
    # for non-collinear a,b and distinct c,d in {a,b}^perp:
    # {c,d}^perp == {a,b}^perpperp
    for name in ["W(3,2)", "W(3,3)"]:
        s = space_for(name)
        for a, b in noncollinear_pairs(s):
            trace = s.perp([a, b])
            dperp = set(int(i) for i in s.perp(trace))
            for c, d in itertools.combinations(trace, 2):
                assert not s.collinear(c, d)
                assert set(s.perp([c, d])) == dperp


def test_lemma_h3_perp_planes(space_for):
    # inside a^perp the induced L-lines pairwise meet (a projective plane)
    for name in ["W(3,2)", "W(3,3)"]:
        s = space_for(name)
        lines = linear_space(s)
        for a in range(0, s.n_points, 5):
            inside = set(s.perp([a]))
            lines_in = [set(line) for line in lines if set(line) <= inside]
            for x, y in itertools.combinations(lines_in, 2):
                assert x & y, (name, a)


def test_lemma_h5_induced_hyperbolic_lines(space_for):
    # hyperbolic lines of the trace polar space {u,v}^perp agree with the
    # ambient double perps
    w52 = space_for("W(5,2)")
    checked = 0
    for u, v in noncollinear_pairs(w52):
        trace = w52.perp([u, v])
        induced = w52.induced_subspace(trace)
        back = {i: trace[i] for i in range(len(trace))}
        for x, y in noncollinear_pairs(induced):
            inner = line_of(induced, x, y)
            assert tuple(sorted(back[i] for i in inner)) == line_of(w52, back[x], back[y])
            checked += 1
        if checked > 600:
            break
    assert checked > 600


def test_lemma_h6_d_holds_in_traces(space_for):
    # property (D) restricted to {u,v}^perp of the symplectic W(5,2)
    from polarium.props import check_D
    w52 = space_for("W(5,2)")
    pairs = itertools.islice(noncollinear_pairs(w52), 5)
    for u, v in pairs:
        induced = w52.induced_subspace(w52.perp([u, v]))
        assert check_D(induced).holds
