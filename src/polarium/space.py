"""Polar spaces as incidence structures: points, lines, collinearity.

Two backings share one query API.  Form-backed spaces keep the projective
points where a form vanishes and take collinearity from its values, both
by array calls, carry coordinates, build their lines by field-table
gathers and rank each generator by its size; combinatorial spaces are given
by explicit point and line lists (grids, Payne derivations, duals, induced
perp-spaces).  Collinearity is cached as a dense symmetric boolean matrix
(diagonal True, so perps are "collinear-or-equal" sets); its rows as
Python ints drive the maximal-clique search used for generators.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from polarium import linalg
from polarium.forms import Form, witt_index
from polarium.linalg import BoundExceeded

DEFAULT_MAX_POINTS = 2000
BATCH_ELEMENTS = 1 << 16  # scratch matrix elements per batch in batched kernels


def batches(total: int, width: int):
    """Slices over `total` items for a kernel with `width` scratch elements
    per item: one item first, then doubling until a batch holds
    BATCH_ELEMENTS elements, so a scan that stops early stays cheap."""
    cap = max(1, BATCH_ELEMENTS // width)
    lo, size = 0, 1
    while lo < total:
        yield slice(lo, min(lo + size, total))
        lo += size
        size = min(2 * size, cap)


def pair_batches(mask: np.ndarray, width: int):
    """The pairs a < b with mask[a, b], in row-major order, as (m, 2) index
    arrays in `batches`."""
    pairs = np.argwhere(np.triu(mask, 1))
    for s in batches(len(pairs), width):
        yield pairs[s]


def pair_codes(n: int, members) -> np.ndarray:
    """The codes a * n + b of the pairs a < b in each row of `members`, point
    indices in ascending order padded with n.  Rows are taken in groups of
    equal size k, so a row costs k(k - 1)/2 codes, not width^2."""
    sizes = (members < n).sum(axis=1)
    codes = [np.empty(0, dtype=np.int64)]
    for k in set(sizes.tolist()):
        pairs = np.array(list(itertools.combinations(range(k), 2)), dtype=np.intp)
        a, b = pairs.reshape(-1, 2).T
        m = members[sizes == k]
        codes.append((m[:, a] * n + m[:, b]).ravel())
    return np.concatenate(codes)


def pair_counts(n: int, members) -> np.ndarray:
    """counts[i, j]: how many rows of `members` (as in `pair_codes`) hold
    both i and j, i != j."""
    counts = np.bincount(pair_codes(n, members), minlength=n * n).reshape(n, n)
    return counts + counts.T


def padded_columns(inside) -> tuple:
    """(ks, valid): the columns of each row's true entries in ascending order,
    padded to the longest row; `valid` marks the real entries."""
    k = inside.sum(axis=1)
    valid = np.arange(k.max(initial=0)) < k[:, None]
    ks = np.zeros(valid.shape, dtype=np.intp)
    ks[valid] = np.flatnonzero(inside) % inside.shape[1]
    return ks, valid


class SpaceError(Exception):
    """A polar-space axiom failed to hold for the constructed structure."""


class SingularSubspace:
    """A singular subspace: pairwise collinear, closed under lines."""

    __slots__ = ("points", "rank")

    def __init__(self, points, rank):
        self.points = tuple(sorted(points))
        self.rank = rank

    def __eq__(self, other):
        return isinstance(other, SingularSubspace) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"SingularSubspace(rank={self.rank}, points={self.points})"


class PolarSpace:
    """A non-degenerate polar space of finite rank with cached collinearity."""

    def __init__(self, name, labels, lines, coll, rank, *, field=None, form=None,
                 vectors=None, grid_family=False, provenance=None, validate=True):
        self.name = name
        self.points = list(labels)
        self.lines = [tuple(sorted(l)) for l in lines]
        self.coll = coll
        self.rank = rank
        self.field = field
        self.form = form
        self.vectors = vectors
        self.grid_family = grid_family
        self.provenance = provenance or {}
        self.n_points = len(self.points)
        self._index = {lab: i for i, lab in enumerate(self.points)}
        self._adj_bits = None
        self._lines_matrix = None
        self._line_of_pair = None
        self._generators = None
        self._generators_matrix = None
        self._subgenerators = None
        self._packed_perps = None
        if validate:
            self.validate()

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_form(cls, form: Form, name: str, *, max_points: int = DEFAULT_MAX_POINTS,
                  grid_family: bool = False) -> "PolarSpace":
        field = form.field
        cand = linalg.proj_rows(field, form.dim)
        vecs = cand[form.vanishing(cand)]
        if len(vecs) > max_points:
            raise BoundExceeded(f"{name}: {len(vecs)} points exceed bound {max_points}")
        if not len(vecs):
            raise SpaceError(f"{name}: the form has no vanishing points")
        coll = form.values(vecs[:, None], vecs[None]) == 0
        np.fill_diagonal(coll, True)

        # vecs are in code order; each line is kept at the pair of its two
        # smallest points, so lines come out sorted
        pts, codes = list(map(tuple, vecs.tolist())), linalg.point_codes(field.q, vecs)
        lines = []
        for pairs in pair_batches(coll, (field.q + 1) * form.dim):
            members = linalg.line_points(field, vecs[pairs[:, 0]], vecs[pairs[:, 1]])
            idx = np.searchsorted(codes, members).clip(max=len(pts) - 1)
            if (codes[idx] != members).any():
                raise SpaceError(f"{name}: a line through two collinear points "
                                 "leaves the point set")
            lines += idx[(idx[:, :2] == pairs).all(axis=1)].tolist()
        rank = witt_index(form)
        return cls(name, pts, lines, coll, rank, field=field, form=form,
                   vectors=pts, grid_family=grid_family)

    @classmethod
    def combinatorial(cls, name, labels, lines, *, rank=None, grid_family=False,
                      provenance=None, validate=True) -> "PolarSpace":
        n = len(labels)
        coll = np.zeros((n, n), dtype=bool)
        np.fill_diagonal(coll, True)
        for line in lines:
            idx = np.fromiter(line, dtype=np.int64)
            coll[np.ix_(idx, idx)] = True
        space = cls(name, labels, lines, coll, rank if rank is not None else 0,
                    grid_family=grid_family, provenance=provenance, validate=validate)
        if rank is None:
            space.rank = max(g.rank for g in space.generators())
        return space

    @property
    def is_form_backed(self) -> bool:
        return self.form is not None

    def index_of(self, label) -> int:
        try:
            return self._index[_freeze(label)]
        except KeyError:
            raise ValueError(f"{label!r} is not a point of {self.name}") from None

    def collinear(self, i: int, j: int) -> bool:
        return bool(self.coll[i, j])

    @property
    def lines_matrix(self) -> np.ndarray:
        if self._lines_matrix is None:
            m = np.zeros((len(self.lines), self.n_points), dtype=bool)
            rows = np.repeat(np.arange(len(self.lines)), [len(l) for l in self.lines])
            m[rows, np.fromiter(itertools.chain.from_iterable(self.lines), dtype=np.intp,
                                count=len(rows))] = True
            self._lines_matrix = m
        return self._lines_matrix

    @property
    def line_of_pair(self) -> dict:
        if self._line_of_pair is None:
            pair_line = {}
            for k, line in enumerate(self.lines):
                for a, b in itertools.combinations(line, 2):
                    if pair_line.setdefault((a, b), k) != k:
                        raise SpaceError(f"{self.name}: two lines through points {a},{b}")
            self._line_of_pair = pair_line
        return self._line_of_pair

    # -- validation ------------------------------------------------------------

    def validate(self):
        n = self.n_points
        if n == 0:
            raise SpaceError(f"{self.name}: empty point set")
        sizes = {len(l) for l in self.lines}
        if self.lines:
            if self.is_form_backed and sizes != {self.field.q + 1}:
                raise SpaceError(f"{self.name}: line sizes {sizes} != q+1")
            if min(sizes) < 3 and not self.grid_family:
                raise SpaceError(f"{self.name}: thin line in a thick-lined space")
        # at most one line through two points: no pair code twice; the
        # smallest repeated code is the first such pair in row-major order
        ks, valid = padded_columns(self.lines_matrix)
        codes = np.sort(pair_codes(n, np.where(valid, ks, n)))
        twice = codes[1:][codes[1:] == codes[:-1]]
        if len(twice):
            a, b = divmod(int(twice[0]), n)
            raise SpaceError(f"{self.name}: two lines through points {a},{b}")
        # one-or-all axiom, exhaustive: counts[k, p] = |p^perp cap line k|,
        # in full chunks, since a valid space runs every line
        collt = self.coll.T.astype(np.float32)
        step = max(1, BATCH_ELEMENTS // n)
        for s in (slice(lo, lo + step) for lo in range(0, len(self.lines), step)):
            lm = self.lines_matrix[s]
            counts = lm.astype(np.float32) @ collt
            bad = ~lm & (counts != 1) & (counts != lm.sum(axis=1, keepdims=True))
            if bad.any():
                k, p = np.unravel_index(np.argmax(bad), bad.shape)
                raise SpaceError(f"{self.name}: point {self.points[p]} sees "
                                 f"{int(counts[k, p])} points of line {self.lines[s.start + k]}")
        if n > 1:
            deep = self.coll.all(axis=1)
            if deep.any():
                p = int(np.flatnonzero(deep)[0])
                raise SpaceError(f"{self.name}: degenerate, {self.points[p]} is "
                                 "collinear with every point")

    # -- perps -------------------------------------------------------------------

    def packed_perps(self):
        """(nbr, bits), built once (read-only): nbr[a] lists a^perp in
        ascending order, padded by repeating a, which no trace {a,b}^perp
        holds; bits is coll bit-packed by row with an all-ones row n
        appended, so a gather padded with n ANDs nothing away."""
        if self._packed_perps is None:
            n = self.n_points
            ks, valid = padded_columns(self.coll)
            nbr = np.where(valid, ks, np.arange(n)[:, None])
            bits = np.vstack([np.packbits(self.coll, axis=1),
                              np.full((1, (n + 7) // 8), 255, dtype=np.uint8)])
            nbr.flags.writeable = bits.flags.writeable = False
            self._packed_perps = (nbr, bits)
        return self._packed_perps

    def perp_mask(self, idxs) -> np.ndarray:
        idxs = list(idxs)
        if not idxs:
            raise ValueError("perp of the empty set is undefined")
        for i in idxs:
            if not 0 <= i < self.n_points:
                raise ValueError(f"point index {i} outside {self.name}")
        return self.coll[idxs].all(axis=0)

    def perp(self, idxs) -> list:
        return [int(i) for i in np.flatnonzero(self.perp_mask(idxs))]

    # -- singular subspaces ---------------------------------------------------

    @property
    def adj_bits(self):
        if self._adj_bits is None:
            packed = np.packbits(self.coll, axis=1, bitorder="little")
            self._adj_bits = [int.from_bytes(row.tobytes(), "little") & ~(1 << i)
                              for i, row in enumerate(packed)]
        return self._adj_bits

    def generators(self) -> list:
        """All maximal singular subspaces, deterministically ordered."""
        if self._generators is None:
            full = (1 << self.n_points) - 1
            cliques = _bron_kerbosch(self.adj_bits, full)
            gens = [self._as_singular(c) for c in sorted(cliques)]
            if self.is_form_backed:
                size = (self.field.q ** self.rank - 1) // (self.field.q - 1)
                for g in gens:
                    if len(g.points) != size:
                        raise SpaceError(f"{self.name}: generator of {len(g.points)} "
                                         f"points, expected rank {self.rank} with {size}")
            self._generators = gens
        return self._generators

    def generators_matrix(self) -> np.ndarray:
        """Membership rows of the generators, built once (read-only)."""
        if self._generators_matrix is None:
            gens = self.generators()
            m = np.zeros((len(gens), self.n_points), dtype=bool)
            for k, g in enumerate(gens):
                m[k, list(g.points)] = True
            m.flags.writeable = False
            self._generators_matrix = m
        return self._generators_matrix

    def subgenerators(self):
        """(SG, SP): every rank-(n-1) singular subspace S_k, sorted by point
        tuple, as a membership row SG[k] and a perp row SP[k] = S_k^perp.

        A set X lies in some S_k^perp exactly when S_k is in X^perp, so this
        one matrix answers "does X^perp contain a sub-generator?" at every
        rank.  Rank 2 uses the points, rank 3 the lines; from rank 4 on, the
        sub-generators are the largest intersections of two generators (each
        lies in at least two generators, and distinct generators meet in
        rank < n).
        """
        if self._subgenerators is None:
            if self.rank < 2:
                raise SpaceError(f"{self.name}: rank {self.rank} < 2 has no "
                                 "sub-generators")
            if self.rank == 2:
                subs = [(i,) for i in range(self.n_points)]
            elif self.rank == 3:
                subs = sorted(self.lines)
            else:
                gm = self.generators_matrix()
                meet = gm.astype(np.float32) @ gm.T.astype(np.float32)
                np.fill_diagonal(meet, 0)
                i, j = np.nonzero(np.triu(meet == meet.max(), 1))
                subs = sorted({tuple(np.flatnonzero(gm[x] & gm[y]).tolist())
                               for x, y in zip(i, j)})
            if len({len(sub) for sub in subs}) != 1:
                raise SpaceError(f"{self.name}: sub-generators of unequal size")
            idx = np.array(subs)
            sg = np.zeros((len(subs), self.n_points), dtype=bool)
            sg[np.arange(len(subs))[:, None], idx] = True
            sp = self.coll[idx[:, 0]]  # S^perp: collinear with every point of S
            for col in idx.T[1:]:
                sp = sp & self.coll[col]
            self._subgenerators = (sg, sp)
        return self._subgenerators

    def _as_singular(self, pts) -> SingularSubspace:
        pts = tuple(sorted(pts))
        if self.is_form_backed:  # a maximal clique: a subspace of (q^r - 1)/(q - 1) points
            q = self.field.q
            return SingularSubspace(pts, round(math.log(len(pts) * (q - 1) + 1, q)))
        if len(pts) == 1:
            return SingularSubspace(pts, 1)
        if pts in set(self.lines):
            return SingularSubspace(pts, 2)
        raise SpaceError(f"{self.name}: cannot rank combinatorial singular set {pts}")

    def span_singular(self, idxs) -> SingularSubspace:
        """Line-closure of a set of pairwise collinear points."""
        idxs = sorted(set(idxs))
        for a, b in itertools.combinations(idxs, 2):
            if not self.coll[a, b]:
                raise ValueError(f"points {a} and {b} are not collinear")
        if self.is_form_backed:
            sub = linalg.span(self.field, self.form.dim, [self.vectors[i] for i in idxs])
            members = tuple(sorted(self.index_of(p) for p in linalg.enumerate_points(sub)))
            return SingularSubspace(members, sub.rank)
        current = set(idxs)
        changed = True
        while changed:
            changed = False
            for a, b in itertools.combinations(sorted(current), 2):
                k = self.line_of_pair.get((a, b))
                if k is not None and not set(self.lines[k]) <= current:
                    current |= set(self.lines[k])
                    changed = True
        return self._as_singular(tuple(current))

    def max_singular_rank(self, mask) -> int:
        """Largest rank of a singular subspace inside a subspace point-mask."""
        members = np.flatnonzero(mask)
        if len(members) == 0:
            return 0
        if not self.is_form_backed:
            sub = self.coll[np.ix_(members, members)]
            return 2 if (sub.sum() > len(members)) else 1
        restricted = 0
        for i in members:
            restricted |= 1 << int(i)
        return max(self._as_singular(clique).rank
                   for clique in _bron_kerbosch(self.adj_bits, restricted))

    # -- derived incidence queries ---------------------------------------------

    def induced_subspace(self, idxs, name=None) -> "PolarSpace":
        """The polar space induced on a subspace (e.g. a perp): ambient lines
        fully inside the set, collinearity restricted."""
        members = sorted(set(idxs))
        reindex = {p: i for i, p in enumerate(members)}
        mask = np.zeros(self.n_points, dtype=bool)
        mask[members] = True
        inside = ~(self.lines_matrix & ~mask).any(axis=1) if self.lines else np.array([], dtype=bool)
        lines = [tuple(reindex[p] for p in self.lines[k])
                 for k in np.flatnonzero(inside)]
        return PolarSpace.combinatorial(
            name or f"{self.name}|induced", [self.points[p] for p in members],
            lines, provenance={"base": self.name, "members": members})

    def __repr__(self):
        return (f"PolarSpace({self.name}: {self.n_points} points, "
                f"{len(self.lines)} lines, rank {self.rank})")


# ---------------------------------------------------------------------------

def _freeze(label):
    if isinstance(label, list):
        return tuple(_freeze(x) for x in label)
    return label


def _bron_kerbosch(adj, full) -> list:
    """All maximal cliques of the bitmask adjacency, with pivoting."""
    cliques = []

    def popcount(x):
        return x.bit_count()

    def bits(x):
        while x:
            b = x & -x
            yield b.bit_length() - 1
            x ^= b

    def expand(r, p, x):
        if not p and not x:
            cliques.append(tuple(bits_list(r)))
            return
        pivot, best = -1, -1
        for u in bits(p | x):
            c = popcount(p & adj[u])
            if c > best:
                best, pivot = c, u
        for v in bits(p & ~adj[pivot]):
            bv = 1 << v
            expand(r | bv, p & adj[v], x & adj[v])
            p &= ~bv
            x |= bv

    def bits_list(x):
        return list(bits(x))

    expand(0, full, 0)
    return cliques


# -- module-level operations on spaces ---------------------------------------

def are_opposite(space: PolarSpace, x: SingularSubspace, y: SingularSubspace) -> bool:
    """Opposite singular subspaces of equal rank: X^perp misses Y."""
    if x.rank != y.rank:
        raise ValueError(f"rank mismatch: {x.rank} vs {y.rank}")
    mask = space.perp_mask(x.points)
    return not mask[list(y.points)].any()


def ideal_subgenerator(space: PolarSpace, sub: SingularSubspace, ambient) -> bool:
    """True iff every generator through the sub-generator stays in `ambient`."""
    if sub.rank != space.rank - 1:
        raise ValueError(f"sub-generator must have rank {space.rank - 1}")
    ambient = set(ambient)
    if not set(sub.points) <= ambient:
        raise ValueError("sub-generator does not lie in the ambient set")
    sub_set = set(sub.points)
    for g in space.generators():
        if sub_set <= set(g.points) and not set(g.points) <= ambient:
            return False
    return True
