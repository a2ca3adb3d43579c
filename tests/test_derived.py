import itertools

import numpy as np
import pytest

from polarium import derived, hyperbolic
from polarium.catalog import build_space
from polarium.derived import dualize, grid, payne_derive, payne_a_failure_witness
from polarium.props import check_A, check_centric_triads, validate_witness


def test_grid_combinatorics():
    g3 = grid(3)
    assert (g3.n_points, len(g3.lines)) == (16, 8)
    assert all(len(l) == 4 for l in g3.lines)
    per_point = g3.lines_matrix.sum(axis=0)
    assert set(per_point.tolist()) == {2}
    with pytest.raises(ValueError):
        grid(1)


def test_grid_isomorphic_to_hyperbolic_quadric(space_for):
    q33 = space_for("Q+(3,3)")
    g3 = grid(3)
    # degree sequences and collinearity spectra agree
    assert sorted(q33.coll.sum(axis=1).tolist()) == sorted(g3.coll.sum(axis=1).tolist())
    # canonical labeling through the two rulings gives a full isomorphism
    gens = [tuple(np.flatnonzero(g).tolist()) for g in q33.generators()]
    ruling_a = [g for g in gens if g is gens[0] or not set(g) & set(gens[0])]
    ruling_b = [g for g in gens if g not in ruling_a]
    mapping = {}
    for i, ga in enumerate(ruling_a):
        for j, gb in enumerate(ruling_b):
            common = set(ga) & set(gb)
            assert len(common) == 1
            mapping[common.pop()] = g3.index_of((i, j))
    perm = np.array([mapping[p] for p in range(q33.n_points)])
    assert np.array_equal(q33.coll, g3.coll[np.ix_(perm, perm)])


def test_grid_property_profile(space_for):
    g4 = space_for("grid(4)")
    assert check_A(g4).holds
    assert not check_centric_triads(g4).holds  # (B) fails: not symplectic


def test_payne_combinatorics(space_for):
    p = space_for("P(W(3,5))")
    assert p.n_points == 125  # 156 - 31
    assert {len(l) for l in p.lines} == {5}
    assert set(p.lines_matrix.sum(axis=0).tolist()) == {7}  # order (4,6)
    assert len(p.lines) == 175


def test_payne_trace_size(space_for):
    p = space_for("P(W(3,5))")
    q = 5
    for a, b in itertools.islice(
            ((a, b) for a, b in itertools.combinations(range(p.n_points), 2)
             if not p.collinear(a, b)), 60):
        assert len(p.perp([a, b])) == q + 2


def test_payne_gq_axioms_exhaustive(space_for):
    # one-or-all over every point/line pair (the builder enforces this;
    # recheck directly)
    p = space_for("P(W(3,5))")
    for line in p.lines[::7]:
        for x in range(p.n_points):
            if x in line:
                continue
            assert sum(1 for m in line if p.coll[x, m]) == 1  # GQ: never "all"


def test_payne_bad_point():
    base = build_space("W(3,3)")
    with pytest.raises(ValueError):
        payne_derive(base, 999)


def test_payne_a_failure_witness(space_for):
    p = space_for("P(W(3,5))")
    w = payne_a_failure_witness(p)
    assert validate_witness(p, "A", w)


def test_dualize_w32(space_for):
    d = dualize(space_for("W(3,2)"))
    assert (d.n_points, len(d.lines)) == (15, 15)  # GQ(2,2) is self-dual
    assert {len(l) for l in d.lines} == {3}


def test_dualize_h44(space_for):
    d = space_for("dual(H(4,4))")
    assert (d.n_points, len(d.lines)) == (297, 165)
    assert {len(l) for l in d.lines} == {9}  # order (8,4)
    assert set(d.lines_matrix.sum(axis=0).tolist()) == {5}


def test_dualize_grid():
    d = dualize(grid(3))
    assert (d.n_points, len(d.lines)) == (8, 16)
    assert {len(l) for l in d.lines} == {2}


def test_dual_roundtrip(space_for):
    w = space_for("W(3,2)")
    dd = dualize(dualize(w))
    assert dd.n_points == w.n_points
    assert [tuple(sorted(l)) for l in dd.lines] == [tuple(sorted(l)) for l in w.lines]
    assert np.array_equal(dd.coll, w.coll)


def test_dualize_rejects_non_gq(space_for):
    with pytest.raises(ValueError):
        dualize(space_for("W(5,2)"))


def test_dual_h44_hyperbolic_lines_and_A(space_for, report_for):
    d = space_for("dual(H(4,4))")
    hls = hyperbolic.all_hyperbolic_lines(d)
    assert {len(h) for h in hls.points()} == {2}
    rep = report_for("dual(H(4,4))")
    assert rep.verdicts["A"].status == "fails"
    assert rep.verdicts["B_prime"].status == "skipped"
