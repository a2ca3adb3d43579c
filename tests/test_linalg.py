import itertools
import random

import pytest

from polarium.gf import Field
from polarium import linalg
from polarium.linalg import (
    BoundExceeded, Subspace, dual_hyperplanes, enumerate_points, intersect,
    normalize, proj_points, quotient_map, span, subspace_sum, vec_dot, nullspace,
)

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(2, 2)
GF5 = Field(5)


def test_normalize_examples():
    assert normalize(GF5, (2, 4, 0, 1)) == (1, 2, 0, 3)  # multiply by inv(2)=3
    assert normalize(GF2, (0, 1, 1, 0)) == (0, 1, 1, 0)
    # GF(4): scale (w,w,0,1) by inv(w)=w+1
    assert normalize(GF4, (2, 2, 0, 1)) == (1, 1, 0, 3)
    with pytest.raises(ValueError):
        normalize(GF3, (0, 0, 0))


def test_normalize_scale_invariant_exhaustive():
    for field, d in [(GF2, 4), (GF3, 3), (GF4, 2), (GF5, 2)]:
        for v in itertools.product(range(field.q), repeat=d):
            if not any(v):
                continue
            n = normalize(field, v)
            assert normalize(field, n) == n  # idempotent
            for lam in range(1, field.q):
                assert normalize(field, linalg.vec_scale(field, lam, v)) == n


def test_span_examples():
    s = span(GF2, 4, [(1, 0, 0, 0), (1, 1, 0, 0)])
    assert s.rows == ((1, 0, 0, 0), (0, 1, 0, 0))
    s = span(GF3, 3, [(1, 2, 0), (2, 4 % 3, 0)])
    assert s.rank == 1 and s.rows == ((1, 2, 0),)
    assert span(GF2, 4, []).rank == 0


def test_span_idempotent():
    rng = random.Random(7)
    for field, d in [(GF2, 5), (GF3, 4), (GF4, 3)]:
        for _ in range(20):
            vecs = [tuple(rng.randrange(field.q) for _ in range(d)) for _ in range(3)]
            s = span(field, d, vecs)
            assert span(field, d, s.rows) == s
            for v in vecs:
                assert s.contains(v)


def test_intersect_examples():
    h1 = span(GF2, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    h2 = span(GF2, 4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert intersect(h1, h2).rank == 2
    assert intersect(h1, h1) == h1
    a = span(GF3, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    b = span(GF3, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert intersect(a, b).rank == 0


def test_dimension_formula_random():
    rng = random.Random(11)
    for field, d in [(GF2, 5), (GF3, 4)]:
        for _ in range(40):
            x = span(field, d, [tuple(rng.randrange(field.q) for _ in range(d))
                                for _ in range(rng.randrange(4))])
            y = span(field, d, [tuple(rng.randrange(field.q) for _ in range(d))
                                for _ in range(rng.randrange(4))])
            s = subspace_sum(x, y)
            i = intersect(x, y)
            assert s.rank + i.rank == x.rank + y.rank
            for r in i.rows:
                assert x.contains(r) and y.contains(r)


def test_enumerate_points_counts():
    full = span(GF2, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert len(enumerate_points(full)) == 15  # (16-1)/1
    line = span(GF5, 3, [(1, 2, 3)])
    assert enumerate_points(line) == [(1, 2, 3)]
    s = span(GF3, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert len(enumerate_points(s)) == 4  # (9-1)/2


def test_enumerate_roundtrip():
    rng = random.Random(3)
    for field, d in [(GF2, 5), (GF3, 4), (GF4, 3)]:
        for _ in range(20):
            s = span(field, d, [tuple(rng.randrange(field.q) for _ in range(d))
                                for _ in range(2)])
            pts = enumerate_points(s)
            if s.rank:
                assert len(pts) == (field.q ** s.rank - 1) // (field.q - 1)
            assert span(field, d, pts) == s  # span of the points recovers it


def test_proj_points_order_and_bounds():
    pts = proj_points(GF2, 3)
    assert pts == sorted(pts)
    assert len(pts) == 7
    with pytest.raises(BoundExceeded):
        proj_points(GF5, 10, max_candidates=10 ** 4)


def test_line_points_match_span():
    rng = random.Random(11)
    for field, d in [(GF2, 4), (GF3, 3), (GF4, 3), (GF5, 3), (Field(3, 2), 3)]:
        pts = proj_points(field, d)
        codes = linalg.point_codes(field.q, pts).tolist()
        assert codes == sorted(set(codes))  # code order is lexicographic order
        pairs = [rng.sample(pts, 2) for _ in range(40)]
        got = linalg.line_points(field, [u for u, _ in pairs], [v for _, v in pairs])
        for (u, v), row in zip(pairs, got):
            line = enumerate_points(span(field, d, [u, v]))
            assert row.tolist() == linalg.point_codes(field.q, line).tolist()


def test_dual_hyperplanes():
    duals = dual_hyperplanes(GF2, 4)
    assert len(duals) == 15
    assert len(dual_hyperplanes(GF3, 2)) == 4
    for phi in duals:
        kern = nullspace(GF2, [phi], 4)
        assert kern.rank == 3
        for r in kern.rows:
            assert vec_dot(GF2, phi, r) == 0


def test_quotient_map_examples():
    rad = span(GF2, 5, [(1, 0, 0, 0, 0)])
    qm = quotient_map(GF2, 5, rad)
    assert qm.image_dim == 4
    assert qm.apply((1, 0, 1, 1, 0)) == (0, 1, 1, 0)  # drops coordinate 0
    zero = span(GF2, 5, [])
    qid = quotient_map(GF2, 5, zero)
    assert qid.apply((1, 0, 1, 1, 0)) == (1, 0, 1, 1, 0)


def test_quotient_map_kernel_and_linearity():
    rng = random.Random(5)
    for field, d in [(GF2, 5), (GF3, 4), (GF4, 4)]:
        rad = span(field, d, [tuple(rng.randrange(field.q) for _ in range(d))
                              for _ in range(2)])
        qm = quotient_map(field, d, rad)
        assert qm.image_dim == d - rad.rank
        for v in enumerate_points(rad):
            assert not any(qm.apply(v))
        for _ in range(100):
            u = tuple(rng.randrange(field.q) for _ in range(d))
            v = tuple(rng.randrange(field.q) for _ in range(d))
            lhs = qm.apply(linalg.vec_add(field, u, v))
            rhs = linalg.vec_add(field, qm.apply(u), qm.apply(v))
            assert lhs == rhs
        # surjectivity: images of all vectors cover the target space
        if field.q ** d <= 3 ** 4:
            imgs = {qm.apply(v) for v in itertools.product(range(field.q), repeat=d)}
            assert len(imgs) == field.q ** qm.image_dim


def test_nullspace_rank():
    ns = nullspace(GF3, [(1, 2, 0, 1), (0, 1, 1, 1)], 4)
    assert ns.rank == 2
    for v in enumerate_points(ns):
        assert vec_dot(GF3, (1, 2, 0, 1), v) == 0
        assert vec_dot(GF3, (0, 1, 1, 1), v) == 0
