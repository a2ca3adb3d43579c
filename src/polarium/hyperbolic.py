"""Double perps, hyperbolic lines, and the enriched linear space L(S).

A hyperbolic line is the double perp {a,b}^perpperp of a non-collinear
pair; its members are pairwise non-collinear.  Double perps are computed by
a bit-packed gather: the AND of the packed perps of the trace members.  The
lines of a space are stored as arrays, one row per line: the pair that
keeps it (its two smallest members) and its members in ascending order,
padded with n.  Indexing those arrays gives HyperbolicLine objects, keyed by
their sorted member tuple.  Adjoining all hyperbolic lines to the ordinary
lines yields a linear space: any two points lie on exactly one joining line
(verified at build).
"""

from __future__ import annotations

import numpy as np

from polarium.space import PolarSpace, SpaceError, chunks, pair_counts, padded_columns

# set bits of each byte value (np.bitwise_count needs NumPy 2), and the
# np.packbits mask of each bit position within a byte
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)
_BIT = np.uint8(128) >> np.arange(8, dtype=np.uint8)


class HyperbolicLine:
    __slots__ = ("space", "pair", "points")

    def __init__(self, space, pair, points):
        self.space = space
        self.pair = pair
        self.points = tuple(sorted(points))

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return isinstance(other, HyperbolicLine) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"HyperbolicLine({self.pair} -> {self.points})"


class HyperbolicLines:
    """Hyperbolic lines as arrays: line k is the double perp of pairs[k], and
    members[k] holds its points in ascending order, padded with n.  An int
    index gives a HyperbolicLine, a slice another HyperbolicLines."""

    __slots__ = ("space", "pairs", "members")

    def __init__(self, space, pairs, members):
        self.space = space
        self.pairs = pairs
        self.members = members

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return HyperbolicLines(self.space, self.pairs[key], self.members[key])
        row = self.members[key]
        return HyperbolicLine(self.space, tuple(self.pairs[key].tolist()),
                              row[row < self.space.n_points].tolist())

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def traces(coll, pairs) -> np.ndarray:
    """Rows {a_i,b_i}^perp for an (m, 2) array of pairs, in float32 for BLAS."""
    return (coll[pairs[:, 0]] & coll[pairs[:, 1]]).astype(np.float32)


def double_perps(trace, collf) -> np.ndarray:
    """Rows {a_i,b_i}^perpperp from trace rows: the points collinear with all
    of the trace, by one BLAS product on `collf`, the collinearity matrix in
    float32.  A and regular pairs use this form, since they feed the rows to
    further BLAS products; a packed gather there measured slower.  Hyperbolic
    lines use `packed_double_perps`, whose cost follows the trace size, not n."""
    return trace @ collf == trace.sum(axis=1, keepdims=True)


def packed_double_perps(space: PolarSpace, pairs) -> np.ndarray:
    """Bit-packed rows {a_i,b_i}^perpperp for an (m, 2) array of non-collinear
    pairs: the AND of the packed perps of the trace members, which are looked
    up in a_i^perp and padded with the all-ones row n."""
    nbr, bits = space.packed_perps()
    n = space.n_points
    cand = nbr[pairs[:, 0]]
    ks, valid = padded_columns(space.coll.ravel().take(pairs[:, 1, None] * n + cand))
    trace = np.where(valid, np.take_along_axis(cand, ks, axis=1), n)
    dp = np.full((len(pairs), bits.shape[1]), 255, dtype=np.uint8)
    for col in trace.T:
        dp &= bits[col]
    return dp


def _lines(space: PolarSpace, pairs, dp) -> HyperbolicLines:
    """The lines of the bit-packed double perps dp of the pairs."""
    rows = np.unpackbits(dp, axis=1, count=space.n_points).view(bool)
    ks, valid = padded_columns(rows)
    return HyperbolicLines(space, pairs, np.where(valid, ks, space.n_points))


def hyperbolic_lines(space: PolarSpace, pairs) -> HyperbolicLines:
    """{a_i,b_i}^perpperp for an (m, 2) array of non-collinear pairs, each
    checked to hold no collinear pair and to hold a_i and b_i."""
    dp = packed_double_perps(space, pairs)
    lines = _lines(space, pairs, dp)
    # |x^perp cap line| over the members x: 1 (x alone) unless x sees another
    seen = _POPCOUNT[space.packed_perps()[1][lines.members] & dp[:, None]].sum(axis=2)
    if (seen[lines.members < space.n_points] > 1).any():
        raise SpaceError(f"{space.name}: collinear pair inside a hyperbolic line")
    held = (lines.members[:, :, None] == pairs[:, None, :]).any(axis=1).all(axis=1)
    if not held.all():
        a, b = pairs[np.argmin(held)].tolist()
        raise SpaceError(f"{space.name}: {{{a},{b}}}^perpperp misses {a} or {b}")
    return lines


def hyperbolic_line(space: PolarSpace, a: int, b: int) -> HyperbolicLine:
    """{a,b}^perpperp for a non-collinear pair."""
    if a == b:
        raise ValueError("hyperbolic line needs two distinct points")
    if space.collinear(a, b):
        raise ValueError(f"points {a} and {b} are collinear")
    return hyperbolic_lines(space, np.array([[a, b]]))[0]


def all_hyperbolic_lines(space: PolarSpace) -> HyperbolicLines:
    """All hyperbolic lines, ordered by member tuple: the double perps of the
    non-collinear pairs a < b, in chunks, each kept at the pair of its two
    smallest members.  The lines must partition the non-collinear pairs; as
    c, d in {a,b}^perpperp puts {c,d}^perpperp inside it, this also asserts
    that any two points of a line span that same line."""
    n = space.n_points
    below = np.packbits(np.tri(n, k=-1, dtype=bool), axis=1)  # row b: the points < b
    width = max(space.packed_perps()[0].shape[1], (n + 7) // 8)
    kept = [HyperbolicLines(space, np.empty((0, 2), dtype=np.intp), np.empty((0, 0), dtype=np.intp))]
    noncollinear = space.noncollinear_pairs()
    for s in chunks(len(noncollinear), width):
        pairs = noncollinear[s]
        dp = packed_double_perps(space, pairs)
        a = pairs[:, 0]
        rest = dp & below[pairs[:, 1]]
        rest[np.arange(len(a)), a >> 3] &= ~_BIT[a & 7]  # clear a's bit
        first = ~rest.any(axis=1)  # a is the only member below b
        kept.append(_lines(space, pairs[first], dp[first]))
    w = max(h.members.shape[1] for h in kept)
    lines = HyperbolicLines(space, np.concatenate([h.pairs for h in kept]), np.concatenate(
        [np.pad(h.members, ((0, 0), (0, w - h.members.shape[1])), constant_values=n)
         for h in kept]))
    counts = pair_counts(n, lines.members)
    bad = np.argwhere(counts != ~space.coll)
    if len(bad):
        i, j = bad[0]
        kind = "collinear" if space.coll[i, j] else "non-collinear"
        raise SpaceError(f"{space.name}: {kind} pair {i},{j} lies on {counts[i, j]} "
                         "hyperbolic lines")
    return lines


class LinearSpaceL:
    """The structure (P, L u L_h): ordinary plus hyperbolic lines."""

    def __init__(self, space, hyperbolic_lines):
        self.space = space
        self.lines = sorted(set(space.lines) | {h.points for h in hyperbolic_lines})
        self._verify_linear()

    def _verify_linear(self):
        n = self.space.n_points
        w = max(map(len, self.lines))
        count = pair_counts(n, np.array([line + (n,) * (w - len(line)) for line in self.lines]))
        np.fill_diagonal(count, 1)
        if (count != 1).any():
            i, j = map(int, np.argwhere(count != 1)[0])
            raise SpaceError(
                f"{self.space.name}: points {i},{j} lie on {int(count[i, j])} "
                "joining lines; L(S) is not a linear space")

    @property
    def n_lines(self):
        return len(self.lines)


def linear_space(space: PolarSpace) -> LinearSpaceL:
    return LinearSpaceL(space, all_hyperbolic_lines(space))
