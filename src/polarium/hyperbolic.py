"""Double perps, hyperbolic lines, and the enriched linear space L(S).

A hyperbolic line is the double perp {a,b}^perpperp of a non-collinear
pair; its members are pairwise non-collinear.  Lines are keyed by their
sorted member tuple, since many pairs regenerate the same double perp.
Adjoining all hyperbolic lines to the ordinary lines yields a linear
space: any two points lie on exactly one joining line (verified at build).
"""

from __future__ import annotations

import numpy as np

from polarium.space import PolarSpace, SpaceError, pair_batches


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


def traces(coll, pairs) -> np.ndarray:
    """Rows {a_i,b_i}^perp for an (m, 2) array of pairs, in float32 for BLAS."""
    return (coll[pairs[:, 0]] & coll[pairs[:, 1]]).astype(np.float32)


def double_perps(trace, collf) -> np.ndarray:
    """Rows {a_i,b_i}^perpperp from trace rows: the points collinear with all
    of the trace, by one BLAS product on `collf`, the collinearity matrix in
    float32."""
    return trace @ collf == trace.sum(axis=1, keepdims=True)


def hyperbolic_line(space: PolarSpace, a: int, b: int) -> HyperbolicLine:
    """{a,b}^perpperp for a non-collinear pair."""
    if a == b:
        raise ValueError("hyperbolic line needs two distinct points")
    if space.collinear(a, b):
        raise ValueError(f"points {a} and {b} are collinear")
    row = double_perps(traces(space.coll, np.array([[a, b]])),
                       space.coll.astype(np.float32))[0]
    members = np.flatnonzero(row)
    if (space.coll[np.ix_(members, members)] & ~np.eye(len(members), dtype=bool)).any():
        raise SpaceError(f"{space.name}: collinear pair inside a hyperbolic line")
    if not (row[a] and row[b]):
        raise SpaceError(f"{space.name}: {{{a},{b}}}^perpperp misses {a} or {b}")
    return HyperbolicLine(space, (a, b), members.tolist())


def all_hyperbolic_lines(space: PolarSpace) -> list:
    """All hyperbolic lines, ordered by member tuple: the double perps of the
    non-collinear pairs a < b, in batches, each kept at the pair of its two
    smallest members.  The lines must partition the non-collinear pairs; as
    c, d in {a,b}^perpperp puts {c,d}^perpperp inside it, this also asserts
    that any two points of a line span that same line."""
    n = space.n_points
    collf = space.coll.astype(np.float32)
    lines = []
    for pairs in pair_batches(~space.coll, n):
        a, b = pairs.T
        dp = double_perps(traces(space.coll, pairs), collf)
        first = np.count_nonzero(dp & (np.arange(n) < b[:, None]), axis=1) == 1  # a only
        rows, members = np.nonzero(dp[first])
        ends = np.cumsum(np.bincount(rows, minlength=int(first.sum()))).tolist()
        members, start = members.tolist(), 0
        for pair, end in zip(zip(a[first].tolist(), b[first].tolist()), ends):
            lines.append(HyperbolicLine(space, pair, members[start:end]))
            start = end
    counts = _pair_counts(n, [h.points for h in lines])
    bad = np.argwhere(counts != ~space.coll)
    if len(bad):
        i, j = bad[0]
        kind = "collinear" if space.coll[i, j] else "non-collinear"
        raise SpaceError(f"{space.name}: {kind} pair {i},{j} lies on {counts[i, j]} "
                         "hyperbolic lines")
    return lines


def _pair_counts(n: int, lines) -> np.ndarray:
    """counts[i, j]: how many of the point tuples hold both i and j, i != j."""
    counts = np.zeros(n * n, dtype=np.int64)
    for k in {len(line) for line in lines}:
        m = np.array([line for line in lines if len(line) == k])
        counts += np.bincount((m[:, :, None] * n + m[:, None, :]).ravel(), minlength=n * n)
    counts = counts.reshape(n, n)
    np.fill_diagonal(counts, 0)
    return counts


class LinearSpaceL:
    """The structure (P, L u L_h): ordinary plus hyperbolic lines."""

    def __init__(self, space, hyperbolic_lines):
        self.space = space
        self.lines = sorted(set(space.lines) | {h.points for h in hyperbolic_lines})
        self._verify_linear()

    def _verify_linear(self):
        count = _pair_counts(self.space.n_points, self.lines)
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
