"""Polar spaces as incidence structures: points, lines, collinearity.

Two backings share one query API.  Form-backed spaces keep the projective
points where a form vanishes, take collinearity from its Gram matrix and
build each line once, from its reduced echelon pair, by field-table
gathers; combinatorial spaces are given by point and line lists (grids,
Payne derivations, duals, induced perp-spaces).  Both hold the lines as one
member array, each line's points ascending and padded with n, and take the
rank from incidence alone: the cuts by point perps that take one generator,
a maximal clique of collinearity grown greedily, to the empty set.
Collinearity is a dense symmetric boolean matrix (diagonal True, so perps
are "collinear-or-equal" sets), bit-packed by row.  `validate` asserts it,
the line cover and the one-or-all axiom at every point on every build,
exhaustively, by summing the gathered rows of each line's members.
`PolarSpace.perps` ANDs packed rows into X^perp for point sets X: the pair
traces, double perps and sub-generator perps.  Generators are membership
rows that come from sub-generators, since a generator is its own perp; the
rank of a subspace is that of a maximal clique inside, grown greedily too.
Kernels gather rows by `take(idx, axis=0)`, 1.2-10x faster than `arr[idx]`.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from polarium import linalg
from polarium.forms import Form
from polarium.linalg import BoundExceeded

DEFAULT_MAX_POINTS = 2000
BATCH_ELEMENTS = 1 << 16  # scratch matrix elements per batch in batched kernels


def batches(items, width: int):
    """`items` in slices for a kernel with `width` scratch elements per item:
    one item first, then doubling until a batch holds BATCH_ELEMENTS
    elements, so a scan that stops early stays cheap.  The batches end at
    the first empty slice, so `items` may be built as it is sliced
    (`hyperbolic.LinePrefix`)."""
    cap = max(1, BATCH_ELEMENTS // width)
    lo, size = 0, 1
    while len(batch := items[lo:lo + size]):
        yield batch
        lo += size
        size = min(2 * size, cap)


def chunks(total: int, width: int):
    """Slices over `total` items in fixed chunks of BATCH_ELEMENTS // width
    items (at least one), for full sweeps, which never stop early."""
    step = max(1, BATCH_ELEMENTS // width)
    return (slice(lo, min(lo + step, total)) for lo in range(0, total, step))


@cache
def _pair_index(k: int) -> tuple:
    a, b = np.triu_indices(k, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def pair_codes(n: int, members, rows: bool = False):
    """The codes a * n + b of the pairs a < b in each row of `members`, point
    indices in ascending order padded with n, and with rows=True also the
    row each code comes from.  Rows are taken in groups of equal size k, so
    a row costs k(k - 1)/2 codes, not width^2."""
    sizes = (members < n).sum(axis=1)
    codes, at = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.intp)]
    for k in np.flatnonzero(np.bincount(sizes)).tolist():
        a, b = _pair_index(k)
        group = np.flatnonzero(sizes == k)
        m = members[group]
        codes.append((m[:, a] * n + m[:, b]).ravel())
        at.append(np.repeat(group, len(a)))
    codes = np.concatenate(codes)
    return (codes, np.concatenate(at)) if rows else codes


def pair_counts(n: int, members) -> np.ndarray:
    """counts[i, j]: how many rows of `members` (as in `pair_codes`) hold
    both i and j, i != j."""
    counts = np.bincount(pair_codes(n, members), minlength=n * n).reshape(n, n)
    return counts + counts.T


def member_counts(rows, members):
    """(s, counts) per full chunk s of the lines `members` (as in `pair_codes`,
    n = len(rows)): counts[k, j] of the points of line s.start + k are true in
    column j of the boolean `rows`, and counts[k, -1] is the line's size.  The
    members' rows are gathered, with a zero row n, and summed in the least
    unsigned dtype that holds members.shape[1]: uint8 up to 255 points."""
    n, width = rows.shape
    table = np.zeros((n + 1, width + 1), dtype=np.min_scalar_type(members.shape[1]))
    table[:n, :width], table[:n, width] = rows, 1
    for s in chunks(len(members), width + 1):
        yield s, table.take(members[s], axis=0).sum(axis=1, dtype=table.dtype)


def member_rows(lines, n: int) -> np.ndarray:
    """The points of each of `lines` (point-index sequences) in ascending
    order, padded with n."""
    w = max(map(len, lines), default=0)
    rows = np.array([[*line, *[n] * (w - len(line))] for line in lines], dtype=np.intp)
    return np.sort(rows.reshape(len(lines), w), axis=1)


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


class PolarSpace:
    """A non-degenerate polar space of finite rank with cached collinearity;
    rank None (as both constructors pass) takes that of the greedy generator.
    `lines`: point-index sequences, or the `line_members` both constructors pass."""

    def __init__(self, name, labels, lines, coll, rank, *, field=None, form=None,
                 vectors=None, grid_family=False, provenance=None, validate=True):
        self.name = name
        self.points = list(labels)
        self.n_points = n = len(self.points)
        self.line_members = lines if isinstance(lines, np.ndarray) else member_rows(lines, n)
        self.line_members.flags.writeable = False
        self.coll = coll
        self.rank = rank
        self.field = field
        self.form = form
        self.vectors = vectors
        self.grid_family = grid_family
        self.provenance = provenance or {}
        self._index = {lab: i for i, lab in enumerate(self.points)}
        self._generators = None
        self._subgenerators = None
        self._packed_perps = None
        self._noncollinear_pairs = None
        self._hyperbolic_lines = None  # the hyperbolic._Prefix that LinePrefix reads
        self._failing_pair = None  # memo of props._pair_scan
        self._flip = None
        if validate:
            self.validate()
        if rank is None:  # the greedy generator's, after validate's own messages
            self._check_generators(greedy_cliques(coll, np.ones((1, n), dtype=bool)))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_form(cls, form: Form, name: str, *, max_points: int = DEFAULT_MAX_POINTS,
                  grid_family: bool = False) -> "PolarSpace":
        field = form.field
        cand = linalg.proj_rows(field, form.dim)
        singular = form.vanishing(cand)
        vecs = cand[singular]
        if len(vecs) > max_points:
            raise BoundExceeded(f"{name}: {len(vecs)} points exceed bound {max_points}")
        if not len(vecs):
            raise SpaceError(f"{name}: the form has no vanishing points")
        coll = form.gram(vecs) == 0
        np.fill_diagonal(coll, True)

        # each line is built once, from its reduced echelon pair, as sorted rows
        # of cand that `at` maps in order to points (-1 off the point set): its
        # smallest point a has the later pivot, and its next point b is the only
        # one with a zero at pivot(a); a line missing a or b fails the cover check
        pts, at = list(map(tuple, vecs.tolist())), np.where(singular, np.cumsum(singular) - 1, -1)
        pivot = (vecs != 0).argmax(axis=1)
        collinear, lines = np.argwhere(np.triu(coll, 1)), [np.empty((0, field.q + 1), np.intp)]
        collinear = collinear[vecs[collinear[:, 1], pivot[collinear[:, 0]]] == 0]
        for s in chunks(len(collinear), (field.q + 1) * form.dim):
            pairs = collinear[s]
            idx = at[linalg.line_points(field, vecs[pairs[:, 0]], vecs[pairs[:, 1]])]
            if (idx < 0).any():
                raise SpaceError(f"{name}: a line through two collinear points "
                                 "leaves the point set")
            lines.append(idx[(idx[:, :2] == pairs).all(axis=1)])
        return cls(name, pts, np.concatenate(lines), coll, None, field=field, form=form,
                   vectors=pts, grid_family=grid_family)

    @classmethod
    def combinatorial(cls, name, labels, lines, *, grid_family=False,
                      provenance=None) -> "PolarSpace":
        members = member_rows(lines, len(labels))
        coll = (pair_counts(len(labels), members) > 0) | np.eye(len(labels), dtype=bool)
        return cls(name, labels, members, coll, None, grid_family=grid_family,
                   provenance=provenance)

    @cached_property
    def lines(self) -> list:
        """The lines as point-index tuples, built on first read."""
        return [tuple(p for p in row if p < self.n_points) for row in self.line_members.tolist()]

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
        m = np.zeros((len(self.line_members), self.n_points + 1), dtype=bool)
        np.put_along_axis(m, self.line_members, True, axis=1)
        return m[:, :-1]

    # -- validation ------------------------------------------------------------

    def validate(self):
        n = self.n_points
        if n == 0:
            raise SpaceError(f"{self.name}: empty point set")
        # every perp, trace and double perp, and the checks below, read rows
        # of coll: it must be symmetric with a true diagonal; the first
        # offending pair in row-major order is found only on failure
        coll, members = self.coll, self.line_members
        if not (np.array_equal(coll, coll.T) and coll.diagonal().all()):
            a, b = np.argwhere((coll != coll.T) | np.diag(~coll.diagonal()))[0]
            raise SpaceError(f"{self.name}: collinearity of points {a},{b} is not "
                             "symmetric with a true diagonal")
        if (np.count_nonzero(members < n, axis=1) < 3).any() and not self.grid_family:
            raise SpaceError(f"{self.name}: thin line in a thick-lined space")
        # at most one line through two points: no pair code twice; the
        # smallest repeated code is the first such pair in row-major order.
        # A form-backed space's lines cover each collinear pair exactly once:
        # their sorted codes are those of the collinear pairs
        codes = np.sort(pair_codes(n, members))
        if self.is_form_backed and not np.array_equal(codes, np.flatnonzero(np.triu(coll, 1))):
            raise SpaceError(f"{self.name}: a line through two collinear points "
                             "leaves the point set")
        twice = codes[1:][codes[1:] == codes[:-1]]
        if len(twice):
            a, b = divmod(int(twice[0]), n)
            raise SpaceError(f"{self.name}: two lines through points {a},{b}")
        # one-or-all axiom at every point, exhaustive: counts[k, p] =
        # |p^perp cap line k|, by member gathers, is the line's size, or 1 at
        # a point off the line (the padding n marks the size column, never
        # bad), in full chunks, since a valid space runs every line
        for s, counts in member_counts(coll, members):
            on = np.zeros(counts.shape, dtype=bool)
            np.put_along_axis(on, members[s], True, axis=1)
            bad = (counts != counts[:, -1:]) & ((counts != 1) | on)
            if bad.any():
                k, p = np.unravel_index(np.argmax(bad), bad.shape)
                raise SpaceError(f"{self.name}: point {self.points[p]} sees "
                                 f"{int(counts[k, p])} points of line {self.lines[s.start + k]}")
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

    def noncollinear_pairs(self) -> np.ndarray:
        """The non-collinear pairs a < b in row-major order, as (m, 2) rows,
        built once (read-only): the blocks of the pair scans, the order of
        the hyperbolic lines and of hyperplanes.contained_pairs."""
        if self._noncollinear_pairs is None:
            self._noncollinear_pairs = np.argwhere(np.triu(~self.coll, 1))
            self._noncollinear_pairs.flags.writeable = False
        return self._noncollinear_pairs

    def perps(self, members) -> np.ndarray:
        """Bit-packed rows X^perp for the point sets X given as rows of point
        indices padded with n: the AND of the packed perps of X's points,
        one column at a time.  A row of padding alone gives every point."""
        bits = self.packed_perps()[1]
        out = np.full((len(members), bits.shape[1]), 255, dtype=np.uint8)
        for col in np.asarray(members).T:
            out &= bits.take(col, axis=0)
        return out

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

    def generators(self) -> np.ndarray:
        """All maximal singular subspaces as membership rows, sorted by point
        tuple, built once (read-only).

        A generator is its own perp, so the generators through a
        sub-generator S are the sets S^perp cap x^perp over x in
        S^perp outside S (S itself when S^perp = S).  Rank 1 takes S empty;
        from rank 4 on, the flip closure that finds the sub-generators has
        met every generator on its way.
        """
        if self._generators is None:
            if self.rank < 2:
                sg = np.zeros((1, self.n_points), dtype=bool)
                rows = _sorted_rows(_generators_through(self.coll, sg, ~sg))
            elif self.rank < 4:
                rows = _sorted_rows(_generators_through(self.coll, *self.subgenerators()))
            else:
                rows = self._flip_closure()[0]
            self._check_generators(rows)
            rows.flags.writeable = False
            self._generators = rows
        return self._generators

    def _check_generators(self, rows):
        """One rule for both backings: the generator rows have one size, and
        the first is its own perp (a maximal clique) of rank self.rank, which
        it sets when None."""
        sizes, points = rows.sum(axis=1), np.flatnonzero(rows[0])
        if (sizes != sizes[0]).any():
            raise SpaceError(f"{self.name}: generators of {sizes.min()} and {sizes.max()} points")
        rank = int(self._rank(rows[:1])[0])
        self.rank = rank if self.rank is None else self.rank
        if rank != self.rank or not np.array_equal(self.coll.take(points, axis=0).all(axis=0),
                                                   rows[0]):
            raise SpaceError(f"{self.name}: generator of {len(points)} points is not a maximal "
                             f"singular subspace of rank {self.rank}")

    def subgenerators(self):
        """(SG, SP): every rank-(n-1) singular subspace S_k, sorted by point
        tuple, as a membership row SG[k] and a perp row SP[k] = S_k^perp.

        A set X lies in some S_k^perp exactly when S_k is in X^perp, so this
        one matrix answers "does X^perp contain a sub-generator?" at every
        rank.  Rank 2 uses the points, rank 3 the lines; from rank 4 on, the
        sub-generators are closed under flips from one generator: the
        hyperplanes of each generator found, and the generators through each
        new one, until no new sub-generator appears.  Two generators are
        joined by a path of generators meeting in sub-generators, so this
        reaches them all.
        """
        if self._subgenerators is None:
            if self.rank < 2:
                raise SpaceError(f"{self.name}: rank {self.rank} < 2 has no "
                                 "sub-generators")
            if self.rank == 2:
                sg = np.eye(self.n_points, dtype=bool)
            elif self.rank == 3:
                sg = _sorted_rows(self.lines_matrix)
            else:
                sg = self._flip_closure()[1]
            if len(set(sg.sum(axis=1).tolist())) != 1:
                raise SpaceError(f"{self.name}: sub-generators of unequal size")
            self._subgenerators = (sg, self._perps(sg))
        return self._subgenerators

    @cached_property
    def _trace_index(self) -> np.ndarray:
        """Row a: the S with a in S^perp, ascending, padded by an S through a,
        whose perp lies in a^perp (S^perpperp = S) and holds no b opposite a."""
        ks, valid = padded_columns(self.subgenerators()[1].T)
        index = np.where(valid, ks, self.subgenerators()[0].argmax(axis=0)[:, None])
        index.flags.writeable = False
        return index

    def trace_subgenerators(self, pairs) -> tuple:
        """(ks, valid) as from `padded_columns`, each row padded by its first:
        the S inside {a,b}^perp of each non-collinear pair (a, b), ascending,
        those of index row a whose perp holds b: deg(a), one per generator <S, a>."""
        sp, rows = self.subgenerators()[1], self._trace_index.take(pairs[:, 0], axis=0)
        at, valid = padded_columns(sp.ravel().take(rows * self.n_points + pairs[:, 1:]))
        return np.take_along_axis(rows, np.where(valid, at, at[:, :1]), axis=1), valid

    def _flip_closure(self) -> tuple:
        """(generators, sub-generators) as membership rows sorted by point
        tuple, from rank 4 on (see subgenerators), built once, starting from
        the greedy generator."""
        if self._flip is None:
            seen_gens, seen_subs, gens, subs = set(), set(), [], []
            whole = np.ones((1, self.n_points), dtype=bool)
            frontier = _new_rows(greedy_cliques(self.coll, whole), seen_gens)
            while len(frontier):
                gens.append(frontier)
                subs.append(_new_rows(self._hyperplanes(frontier), seen_subs))
                frontier = _new_rows(_generators_through(self.coll, subs[-1],
                                                         self._perps(subs[-1])), seen_gens)
            self._flip = (_sorted_rows(np.concatenate(gens)),
                          _sorted_rows(np.concatenate(subs)))
        return self._flip

    def _hyperplanes(self, gens) -> np.ndarray:
        """The hyperplanes M cap y^perp (y outside M) of each generator row M,
        each once per M.  The y that give one hyperplane H are the points of
        H^perp outside M, so the smallest y left gives a new H and removing
        H^perp leaves the y of the others."""
        out = [np.empty((0, self.n_points), dtype=bool)]
        for s in chunks(len(gens), self.n_points):
            g, left = gens[s], ~gens[s]
            rows = np.flatnonzero(left.any(axis=1))
            while len(rows):
                h = g[rows] & self.coll.take(np.argmax(left[rows], axis=1), axis=0)
                out.append(h)
                left[rows] &= ~self._perps(h)
                rows = rows[left[rows].any(axis=1)]
        return np.concatenate(out)

    def _perps(self, rows) -> np.ndarray:
        """Rows X^perp of the point sets X given as membership rows."""
        ks, valid = padded_columns(rows)
        return np.unpackbits(self.perps(np.where(valid, ks, self.n_points)),
                             axis=1, count=self.n_points).view(bool)

    def _rank(self, rows) -> np.ndarray:
        """The ranks of the singular subspaces given as membership rows: how
        many cuts by point perps take each to the empty set.  By the
        one-or-all axiom x^perp meets one in a hyperplane when x is not
        collinear with its first point, so a cut is one row gather."""
        left, ranks = rows.copy(), np.zeros(len(rows), dtype=np.intp)
        while (on := left.any(axis=1)).any():
            first = left.argmax(axis=1)
            far = self.coll.take(first, axis=0).argmin(axis=1)  # first not collinear with it
            if (deep := on & self.coll[first, far]).any():  # a cut would take nothing away
                raise SpaceError(f"{self.name}: degenerate, {self.points[first[deep][0]]} is "
                                 "collinear with every point")
            left &= self.coll.take(far, axis=0)
            ranks += on
        return ranks

    def max_singular_rank(self, mask) -> int:
        """Largest rank of a singular subspace inside a subspace point-mask H:
        its greedy clique's, cut by `_rank`, as pairwise collinear points of H
        span a singular subspace inside H, and all maximal ones of H, a
        possibly degenerate polar space, contain its radical and have one rank."""
        return int(self._rank(greedy_cliques(self.coll, mask[None]))[0])

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
                f"{len(self.line_members)} lines, rank {self.rank})")


# ---------------------------------------------------------------------------

def _freeze(label):
    if isinstance(label, list):
        return tuple(_freeze(x) for x in label)
    return label


def greedy_cliques(coll, masks) -> np.ndarray:
    """One maximal clique of collinearity inside each row of `masks`, grown
    greedily from the row's smallest point, one flat index per row a step
    (no row filtering), so one row costs about what a 1-D loop would.  By
    the one-or-all axiom pairwise collinear points span a singular subspace,
    so a maximal clique of the whole space is a generator."""
    cliques, left = np.zeros(masks.shape, dtype=bool), masks.copy()
    flat, grown, starts = left.reshape(-1), cliques.reshape(-1), np.arange(0, left.size, len(coll))
    while True:
        x = left.argmax(axis=1)
        new = flat.take(at := starts + x)  # False in a row with no point left
        if not new.any():
            return cliques
        grown[at] |= new
        left &= coll.take(x, axis=0)
        flat[at] = False


def _generators_through(coll, sg, sp) -> np.ndarray:
    """The generators through the sub-generators S (rows sg, perps sp) as
    membership rows: S^perp cap x^perp for each x of S^perp outside S with
    no smaller such point collinear with it, and S itself when S^perp = S.
    Two points of S^perp outside S are collinear exactly when one generator
    through S holds both, so these x are found by taking the smallest point
    left and removing its generator, until none is left.  Each generator
    comes once per sub-generator in it."""
    out = [sg[:0]]
    for s in chunks(len(sg), coll.shape[0]):
        perp, left = sp[s], sp[s] & ~sg[s]
        out.append(sg[s][~left.any(axis=1)])
        rows = np.flatnonzero(left.any(axis=1))
        while len(rows):
            gen = perp[rows] & coll.take(np.argmax(left[rows], axis=1), axis=0)
            out.append(gen)
            left[rows] &= ~gen
            rows = rows[left[rows].any(axis=1)]
    return np.concatenate(out)


def _row_keys(rows) -> np.ndarray:
    """One fixed-size bytes key per boolean row: its complement bit-packed.
    Keys sort as the rows' point tuples where no row's set holds another's,
    as for generators, lines and sub-generators."""
    packed = ~np.packbits(rows, axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def _sorted_rows(rows) -> np.ndarray:
    """The distinct rows of a boolean matrix, sorted by point tuple."""
    return rows[np.unique(_row_keys(rows), return_index=True)[1]]


def _new_rows(rows, seen: set) -> np.ndarray:
    """The distinct rows whose keys are not yet in `seen`; adds them."""
    keys, first = np.unique(_row_keys(rows), return_index=True)
    keep = [i for i, key in zip(first.tolist(), keys.tolist()) if key not in seen]
    seen.update(keys.tolist())
    return rows[keep]
