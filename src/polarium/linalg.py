"""Vectors, subspaces and projective geometry over a Field.

Vectors are tuples of field-element indices.  A Subspace is identified by
its reduced row echelon basis, which is the unique canonical representative
and therefore hashable.  Projective points are canonicalised by scaling the
leftmost nonzero coordinate to 1.  All enumeration orders are lexicographic
on coordinate tuples.
"""

from __future__ import annotations

import itertools

import numpy as np

from polarium.gf import Field

DEFAULT_MAX_CANDIDATES = 10 ** 6


class BoundExceeded(Exception):
    """An enumeration would exceed its configured candidate bound."""


# ---------------------------------------------------------------------------
# vector helpers

def vec_add(field: Field, u, v):
    return tuple(field.add(a, b) for a, b in zip(u, v))


def vec_scale(field: Field, lam: int, v):
    return tuple(field.mul(lam, c) for c in v)


def vec_dot(field: Field, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def is_zero(v) -> bool:
    return not any(v)


def normalize(field: Field, v) -> tuple:
    """Canonical projective representative: leftmost nonzero coordinate is 1."""
    for c in v:
        if c:
            if c == 1:
                return tuple(v)
            s = field.inv(c)
            return tuple(field.mul(s, x) for x in v)
    raise ValueError("cannot normalize the zero vector")


# ---------------------------------------------------------------------------
# row reduction

def rref(field: Field, rows):
    """Reduced row echelon form; zero rows dropped, pivots normalised to 1."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col]:
                pr = r
                break
        if pr is None:
            continue
        mat[pivot_row], mat[pr] = mat[pr], mat[pivot_row]
        inv = field.inv(mat[pivot_row][col])
        if inv != 1:
            mat[pivot_row] = [field.mul(inv, x) for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                c = mat[r][col]
                mat[r] = [field.sub(x, field.mul(c, y))
                          for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row])


class Subspace:
    """A linear subspace of GF(q)^d in canonical RREF form."""

    def __init__(self, field: Field, dim: int, rows):
        self.field = field
        self.dim = dim
        self.rows = rref(field, rows)
        for r in self.rows:
            if len(r) != dim:
                raise ValueError("row length does not match ambient dimension")
        self.rank = len(self.rows)
        self._pivots = tuple(next(i for i, c in enumerate(r) if c) for r in self.rows)

    @property
    def pivots(self):
        return self._pivots

    def reduce(self, v):
        """Subtract the projection onto this subspace (eliminates pivot coords)."""
        v = list(v)
        for row, piv in zip(self.rows, self._pivots):
            c = v[piv]
            if c:
                v = [self.field.sub(x, self.field.mul(c, y)) for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, v) -> bool:
        return is_zero(self.reduce(v))

    def contains_subspace(self, other) -> bool:
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and (self.field, self.dim, self.rows) == (other.field, other.dim, other.rows))

    def __hash__(self):
        return hash((self.dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, rank={self.rank})"


def span(field: Field, dim: int, vectors) -> Subspace:
    return Subspace(field, dim, list(vectors))


def subspace_sum(x: Subspace, y: Subspace) -> Subspace:
    if (x.field, x.dim) != (y.field, y.dim):
        raise ValueError("ambient space mismatch")
    return Subspace(x.field, x.dim, list(x.rows) + list(y.rows))


def intersect(x: Subspace, y: Subspace) -> Subspace:
    """Intersection via the Zassenhaus block construction."""
    if (x.field, x.dim) != (y.field, y.dim):
        raise ValueError("ambient space mismatch")
    field, d = x.field, x.dim
    block = [list(r) + list(r) for r in x.rows] + [list(r) + [0] * d for r in y.rows]
    reduced = rref(field, block)
    inter = [r[d:] for r in reduced if is_zero(r[:d]) and not is_zero(r[d:])]
    return Subspace(field, d, inter)


# ---------------------------------------------------------------------------
# enumeration

def proj_points(field: Field, dim: int, max_candidates: int = DEFAULT_MAX_CANDIDATES):
    """All canonical points of PG(dim-1, q), lexicographic on coordinates."""
    if field.q ** dim > max_candidates:
        raise BoundExceeded(f"{field.q}^{dim} vectors exceed bound {max_candidates}")
    out = []
    for v in itertools.product(range(field.q), repeat=dim):
        for c in v:
            if c:
                if c == 1:
                    out.append(v)
                break
    return out


def enumerate_points(sub: Subspace, max_candidates: int = DEFAULT_MAX_CANDIDATES) -> list:
    """All canonical projective points of a subspace, lexicographically sorted."""
    field, r = sub.field, sub.rank
    if r == 0:
        return []
    if field.q ** r > max_candidates:
        raise BoundExceeded(f"{field.q}^{r} combinations exceed bound {max_candidates}")
    pts = set()
    for coeffs in itertools.product(range(field.q), repeat=r):
        if not any(coeffs):
            continue
        v = [0] * sub.dim
        for c, row in zip(coeffs, sub.rows):
            if c:
                for i, x in enumerate(row):
                    if x:
                        v[i] = field.add(v[i], field.mul(c, x))
        pts.add(normalize(field, v))
    return sorted(pts)


def point_codes(q: int, vectors) -> np.ndarray:
    """Base-q codes of coordinate vectors, first coordinate most significant,
    so that code order is the lexicographic order of the vectors."""
    vectors = np.asarray(vectors, dtype=np.int64)
    return vectors @ q ** np.arange(vectors.shape[-1] - 1, -1, -1, dtype=np.int64)


def line_points(field: Field, u, v) -> np.ndarray:
    """Sorted codes of the q + 1 canonical points v and u + lam*v, lam in
    GF(q), of each projective line <u_i, v_i>, for (m, d) arrays of
    independent vectors, by add/mul/inv table gathers: an (m, q + 1) array."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    lam_v = field.mul_table[np.arange(field.q)[:, None], v[:, None]]  # (m, q, d)
    w = np.concatenate([v[:, None], field.add_table[u[:, None], lam_v]], axis=1)
    lead = np.take_along_axis(w, (w != 0).argmax(axis=2)[..., None], axis=2)  # leftmost nonzero
    return np.sort(point_codes(field.q, field.mul_table[field.inv_table[lead], w]), axis=1)


def dual_hyperplanes(field: Field, dim: int,
                     max_candidates: int = DEFAULT_MAX_CANDIDATES) -> list:
    """All canonical linear functionals on GF(q)^dim (points of the dual space)."""
    return proj_points(field, dim, max_candidates)


def nullspace(field: Field, rows, dim: int) -> Subspace:
    """Kernel of the linear map given by stacked functional rows."""
    reduced = rref(field, rows)
    pivots = [next(i for i, c in enumerate(r) if c) for r in reduced]
    free = [i for i in range(dim) if i not in pivots]
    basis = []
    for f in free:
        v = [0] * dim
        v[f] = 1
        for row, piv in zip(reduced, pivots):
            v[piv] = field.neg(row[f])
        basis.append(tuple(v))
    return Subspace(field, dim, basis)


# ---------------------------------------------------------------------------
# quotients

class QuotientMap:
    """Projection of GF(q)^d modulo a subspace, onto complement coordinates.

    The RREF basis of the radical is completed to a full basis by standard
    vectors e_i at the non-pivot indices in increasing order; the map returns
    the coefficients on those standard vectors.
    """

    def __init__(self, field: Field, dim: int, radical: Subspace):
        if radical.dim != dim:
            raise ValueError("radical does not live in the ambient space")
        self.field = field
        self.dim = dim
        self.radical = radical
        self.coords = tuple(i for i in range(dim) if i not in radical.pivots)
        self.image_dim = len(self.coords)

    def apply(self, v):
        red = self.radical.reduce(v)
        return tuple(red[i] for i in self.coords)


def quotient_map(field: Field, dim: int, radical: Subspace) -> QuotientMap:
    return QuotientMap(field, dim, radical)
