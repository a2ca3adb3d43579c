import itertools
import random

import numpy as np
import pytest

from polarium.gf import Field
from polarium import linalg
from polarium.linalg import (
    BoundExceeded, Subspace, dual_hyperplanes, enumerate_points, gf_dot, proj_points,
    quotient_map, span, nullspace,
)

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(2, 2)
GF5 = Field(5)


def normalize(field, v) -> tuple:
    """Oracle for linalg.normalize_rows, one vector by scalar field
    operations: the canonical projective representative, scaled so that its
    leftmost nonzero coordinate is 1."""
    lead = next((c for c in v if c), None)
    if lead is None:
        raise ValueError("cannot normalize the zero vector")
    return tuple(field.mul(field.inv(lead), c) for c in v)


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
                assert normalize(field, tuple(field.mul(lam, c) for c in v)) == n


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
    rng, scales = random.Random(11), random.Random(12)
    for field, d in [(GF2, 4), (GF3, 3), (GF4, 3), (GF5, 3), (Field(3, 2), 3),
                     (Field(2, 3), 3), (Field(2, 4), 3)]:
        pts = proj_points(field, d)
        codes = linalg.point_codes(field.q, pts).tolist()
        assert codes == sorted(set(codes))  # code order is lexicographic order
        pairs = [rng.sample(pts, 2) for _ in range(40)]
        got = linalg.line_points(field, [u for u, _ in pairs], [v for _, v in pairs])
        rows = linalg.proj_rows(field, d)
        for (u, v), row in zip(pairs, got):
            line = enumerate_points(span(field, d, [u, v]))
            assert list(map(tuple, rows[row].tolist())) == line
        # any nonzero multiples of u and v span the same line
        u, v = (field.mul_table[[[scales.randrange(1, field.q)] for _ in side], side]
                for side in map(np.array, zip(*pairs)))
        assert np.array_equal(linalg.line_points(field, u, v), got)


def _line_points_oracle(field, u, v):
    """Oracle for linalg.line_points: the codes of v and of u + lam*v from
    the 2-D add and mul table gathers over all (m, q, d) coordinates."""
    u, v, q = np.asarray(u, dtype=np.intp), np.asarray(v, dtype=np.intp), field.q
    lam_v = field.mul_table[np.arange(q)[:, None], v[:, None]]  # (m, q, d)
    codes = linalg.point_codes(q, field.add_table[u[:, None], lam_v])
    codes = np.concatenate([linalg.point_codes(q, v)[:, None], codes], axis=1)
    return np.sort(linalg.point_index(field, u.shape[-1])[codes], axis=1)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (2, 4)])
def test_line_points_match_the_table_gathers(p, k):
    # random independent pairs in dimensions 3-6, as far as point_index's
    # candidate bound reaches (GF(16) stops at dimension 4)
    field, rng = Field(p, k), np.random.default_rng(100 * p + k)
    for d in range(3, 7):
        if field.q ** d > linalg.DEFAULT_MAX_CANDIDATES:
            continue
        u, v = rng.integers(0, field.q, size=(2, 300, d))
        nu, nv = linalg.normalize_rows(field, u), linalg.normalize_rows(field, v)
        independent = u.any(axis=1) & v.any(axis=1) & (nu != nv).any(axis=1)
        u, v = u[independent], v[independent]
        assert len(u) >= 150
        assert np.array_equal(linalg.line_points(field, u, v), _line_points_oracle(field, u, v))


def test_point_index_maps_every_multiple():
    for field, d in [(GF2, 4), (GF3, 3), (GF4, 3), (GF5, 3), (Field(3, 2), 3)]:
        index = linalg.point_index(field, d)
        vectors = np.array(list(itertools.product(range(field.q), repeat=d))[1:])
        rows = linalg.proj_rows(field, d)[index[linalg.point_codes(field.q, vectors)]]
        assert np.array_equal(rows, linalg.normalize_rows(field, vectors))
        assert not index.flags.writeable
        assert linalg.point_index(field, d) is index


def test_dual_hyperplanes():
    duals = dual_hyperplanes(GF2, 4)
    assert len(duals) == 15
    assert len(dual_hyperplanes(GF3, 2)) == 4
    for phi in duals:
        kern = nullspace(GF2, [phi], 4)
        assert kern.rank == 3
        for r in kern.rows:
            assert gf_dot(GF2, phi, r) == 0


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
        add = lambda u, v: tuple(field.add(a, b) for a, b in zip(u, v))
        for _ in range(100):
            u = tuple(rng.randrange(field.q) for _ in range(d))
            v = tuple(rng.randrange(field.q) for _ in range(d))
            assert qm.apply(add(u, v)) == add(qm.apply(u), qm.apply(v))
        # surjectivity: images of all vectors cover the target space
        if field.q ** d <= 3 ** 4:
            imgs = {qm.apply(v) for v in itertools.product(range(field.q), repeat=d)}
            assert len(imgs) == field.q ** qm.image_dim


def test_nullspace_rank():
    ns = nullspace(GF3, [(1, 2, 0, 1), (0, 1, 1, 1)], 4)
    assert ns.rank == 2
    for v in enumerate_points(ns):
        assert gf_dot(GF3, (1, 2, 0, 1), v) == 0
        assert gf_dot(GF3, (0, 1, 1, 1), v) == 0


GF9 = Field(3, 2)


def test_gf_dot_broadcasts_like_scalar_sum():
    rng = np.random.default_rng(0)
    for field in (GF2, GF3, GF4, GF5, GF9):
        x = rng.integers(field.q, size=(3, 1, 4))
        y = rng.integers(field.q, size=(5, 4))
        got = linalg.gf_dot(field, x, y)
        assert got.shape == (3, 5)
        for i, j in itertools.product(range(3), range(5)):
            acc = 0
            for a, b in zip(x[i, 0].tolist(), y[j].tolist()):
                acc = field.add(acc, field.mul(a, b))
            assert got[i, j] == acc


GF7, GF8, GF16 = Field(7), Field(2, 3), Field(2, 4)


@pytest.mark.parametrize("field", [GF2, GF3, GF4, GF5, GF7, GF8, GF9, GF16], ids=repr)
def test_gf_matmul_matches_gf_dot(field):
    # every element pair once (d = 1), then random shapes, empty ones included
    every = np.arange(field.q)[:, None]
    assert np.array_equal(linalg.gf_matmul(field, every, every), field.mul_table)
    rng = np.random.default_rng(field.q)
    shapes = [(0, 3, 2), (3, 0, 2), (0, 0, 1), (4, 5, 1)]
    for m, n, d in shapes + [tuple(rng.integers(1, 20, size=3)) for _ in range(8)]:
        x, y = rng.integers(field.q, size=(m, d)), rng.integers(field.q, size=(n, d))
        got = linalg.gf_matmul(field, x, y)
        assert got.shape == (m, n)
        assert np.array_equal(got, linalg.gf_dot(field, x[:, None], y[None]))


def test_gf_matmul_refuses_sums_past_float32():
    # partial sums reach d * (p - 1)^2 over GF(251): 268 * 250^2 is below
    # 2^24 and still exact, 300 * 250^2 is past it and refused
    gf251 = Field(251)
    row = np.full((1, 268), 250)
    assert linalg.gf_matmul(gf251, row, row).tolist() == [[268 % 251]]
    with pytest.raises(ValueError, match="not exact in float32"):
        linalg.gf_matmul(gf251, np.ones((1, 300), dtype=int), np.ones((1, 300), dtype=int))


def test_normalize_rows_matches_normalize():
    for field, d in [(GF3, 3), (GF4, 3), (GF9, 2)]:
        vectors = list(itertools.product(range(field.q), repeat=d))
        rows = linalg.normalize_rows(field, vectors).tolist()
        assert rows[0] == [0] * d  # the zero vector stays zero
        assert [tuple(r) for r in rows[1:]] == [normalize(field, v) for v in vectors[1:]]


def _proj_points_loop(field, dim):
    """Oracle: every vector in lexicographic order whose leading nonzero
    coordinate is 1, by a per-vector loop."""
    out = []
    for v in itertools.product(range(field.q), repeat=dim):
        for c in v:
            if c:
                if c == 1:
                    out.append(v)
                break
    return out


def _enumerate_points_loop(sub):
    """Oracle: every nonzero combination of the rows by scalar field
    operations, normalized, deduplicated and sorted."""
    field, pts = sub.field, set()
    for coeffs in itertools.product(range(field.q), repeat=sub.rank):
        if any(coeffs):
            v = [0] * sub.dim
            for c, row in zip(coeffs, sub.rows):
                v = [field.add(a, field.mul(c, b)) for a, b in zip(v, row)]
            pts.add(normalize(field, v))
    return sorted(pts)


@pytest.mark.parametrize("field", [GF2, GF3, GF4, GF5, GF9], ids=repr)
def test_points_match_loops(field):
    rng = random.Random(field.q)
    for d in range(1, 5):
        assert proj_points(field, d) == _proj_points_loop(field, d)
        for r in range(d + 1):
            sub = span(field, d, [tuple(rng.randrange(field.q) for _ in range(d))
                                  for _ in range(r)])
            assert enumerate_points(sub) == _enumerate_points_loop(sub)
