"""Vectors, subspaces and projective geometry over a Field.

Vectors are tuples of field-element indices.  A Subspace is identified by
its reduced row echelon basis, which is the unique canonical representative
and therefore hashable.  Projective points are canonicalised by scaling the
leftmost nonzero coordinate to 1.  All enumeration orders are lexicographic
on coordinate tuples.
Arrays of vectors (coordinates on the last axis) go through `gf_matmul`
(matrix products, by float32 BLAS over GF(p) digits), `gf_dot` and
`normalize_rows` (row-wise, by field-table gathers); `rref` stays scalar.
`point_index` maps the code of every nonzero vector to its point's row in
`proj_rows`, so `line_points` gives each line as sorted `proj_rows` rows.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from polarium.gf import Field

DEFAULT_MAX_CANDIDATES = 10 ** 6


class BoundExceeded(Exception):
    """An enumeration would exceed its configured candidate bound."""


# ---------------------------------------------------------------------------
# vector helpers

def is_zero(v) -> bool:
    return not any(v)


def gf_dot(field: Field, x, y) -> np.ndarray:
    """sum_k x[..., k] * y[..., k] in GF(q) over a nonempty last axis, the
    leading axes broadcast, by add/mul table gathers."""
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    acc = field.mul_table[x[..., 0], y[..., 0]]
    for k in range(1, x.shape[-1]):
        acc = field.add_table[acc, field.mul_table[x[..., k], y[..., k]]]
    return acc


def gf_matmul(field: Field, x, y) -> np.ndarray:
    """The (m, n) array sum_c x[i, c] * y[j, c] in GF(q) of (m, d) and (n, d)
    arrays, by one float32 BLAS product per base-p digit of the result.

    With T[s, t, r] the digit r of w^s * w^t, digit r of the result is
    sum_(c, s, t) x[i, c]_s T[s, t, r] y[j, c]_t mod p.  Folding T into x's
    digits mod p leaves two arrays of entries in 0..p-1 over d*k columns, so
    each partial sum is an integer of at most d*k*(p-1)^2.  Below 2^24, which
    is checked first, float32 holds it exactly, and the floor of its float32
    quotient by p is exact too (no rounding reaches the next integer), which
    gives it mod p."""
    x, y = np.asarray(x, dtype=np.intp), np.asarray(y, dtype=np.intp)
    (m, d), n, p, k = x.shape, len(y), field.p, field.k
    if d * k * (p - 1) ** 2 >= 1 << 24:
        raise ValueError(f"GF({field.q}) sums over {d} coordinates are not exact in float32")
    basis = p ** np.arange(k)
    table = field._digits[field.mul_table[basis[:, None], basis]]  # T[s, t, r]
    xs = (np.einsum("ics,str->rict", field._digits[x], table) % p).astype(np.float32)
    ys = field._digits[y].reshape(n, d * k).T.astype(np.float32)
    out = np.zeros((m, n), dtype=np.float32)
    for r in range(k):
        digit = xs[r].reshape(m, d * k) @ ys
        out += (digit - np.floor(digit / p) * p) * p ** r
    return out.astype(np.int64)


def normalize_rows(field: Field, w) -> np.ndarray:
    """Each vector on the last axis of w scaled so that its leftmost nonzero
    coordinate is 1, by inv/mul table gathers; zero vectors stay zero."""
    w = np.asarray(w, dtype=np.int64)
    lead = np.take_along_axis(w, (w != 0).argmax(axis=-1)[..., None], axis=-1)
    return field.mul_table[field.inv_table[lead], w]


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


# ---------------------------------------------------------------------------
# enumeration

def proj_rows(field: Field, dim: int, max_candidates: int = DEFAULT_MAX_CANDIDATES) -> np.ndarray:
    """`proj_points` as the rows of an array: the base-q digits of the codes
    q^m + t, t < q^m, a leading 1 followed by m free digits."""
    q = field.q
    if q ** dim > max_candidates:
        raise BoundExceeded(f"{q}^{dim} vectors exceed bound {max_candidates}")
    codes = np.concatenate([q ** m + np.arange(q ** m) for m in range(dim)])
    return codes[:, None] // q ** np.arange(dim - 1, -1, -1) % q


def proj_points(field: Field, dim: int, max_candidates: int = DEFAULT_MAX_CANDIDATES):
    """All canonical points of PG(dim-1, q), lexicographic on coordinates."""
    return list(map(tuple, proj_rows(field, dim, max_candidates).tolist()))


def enumerate_points(sub: Subspace, max_candidates: int = DEFAULT_MAX_CANDIDATES) -> list:
    """All canonical projective points of a subspace, lexicographically
    sorted: the combinations of the RREF rows by canonical coefficients,
    whose leading coordinate is the first nonzero coefficient."""
    field, r = sub.field, sub.rank
    if r == 0:
        return []
    points = gf_matmul(field, proj_rows(field, r, max_candidates), np.array(sub.rows).T)
    return sorted(map(tuple, points.tolist()))


def point_codes(q: int, vectors) -> np.ndarray:
    """Base-q codes of coordinate vectors, first coordinate most significant,
    so that code order is the lexicographic order of the vectors."""
    vectors = np.asarray(vectors, dtype=np.int64)
    return vectors @ q ** np.arange(vectors.shape[-1] - 1, -1, -1, dtype=np.int64)


@cache
def point_index(field: Field, dim: int) -> np.ndarray:
    """A read-only table of q^dim entries: at the code of each nonzero vector,
    the row in `proj_rows(field, dim)` of its point; memoised per (field, dim)."""
    rows = proj_rows(field, dim)
    index = np.full(field.q ** dim, -1, dtype=np.intp)
    for lam in range(1, field.q):
        index[point_codes(field.q, field.mul_table[lam, rows])] = np.arange(len(rows))
    index.flags.writeable = False
    return index


@cache
def _line_table(field: Field) -> np.ndarray:
    """Read-only, memoised per field: row x*q + y holds y and x + lam*y, lam in GF(q)."""
    x, y = np.divmod(np.arange(field.q ** 2)[:, None], field.q)
    table = np.hstack([y, field.add_table[x, field.mul_table[np.arange(field.q), y]]])
    table.flags.writeable = False
    return table


def line_points(field: Field, u, v) -> np.ndarray:
    """Sorted `proj_rows` rows of the q + 1 points v and u + lam*v, lam in
    GF(q), of each projective line <u_i, v_i>, for (m, d) arrays of
    independent vectors, by `point_index`: an (m, q + 1) array.  Their codes
    are summed digit by digit from the rows u_k*q + v_k of `_line_table`."""
    q, codes, table = field.q, 0, _line_table(field)
    for digits in (np.asarray(u, dtype=np.intp) * q + np.asarray(v, dtype=np.intp)).T:
        codes = codes * q + table.take(digits, axis=0)
    return np.sort(point_index(field, np.shape(u)[-1]).take(codes), axis=1)


def dual_hyperplanes(field: Field, dim: int) -> list:
    """All canonical linear functionals on GF(q)^dim (points of the dual space)."""
    return proj_points(field, dim)


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
