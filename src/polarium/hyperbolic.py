"""Hyperbolic lines and the enriched linear space L(S).

A hyperbolic line is the double perp {a,b}^perpperp of a non-collinear
pair; its members are pairwise non-collinear.  Double perps are bit-packed,
the perps (`PolarSpace.perps`) of the traces, which are gathered from the
values of a^perp.  A line is read from its packed double perp: it is its
pair unless the double perp holds other points, and only such rows are
unpacked.  The lines of a space are built once and memoised on it, as
arrays: each line's pair (its two smallest members), its members ascending,
padded with n, and the line of every non-collinear pair.  A, regular pairs,
centric triads and D all read that one build; A and regular pairs fail at a
pair exactly when some S in its trace has g(S) > |l|, its line's size.
Adjoining all hyperbolic lines to the ordinary lines yields a linear space
L(S): any two points lie on exactly one joining line (`linear_space` checks
it).
"""

from __future__ import annotations

import numpy as np

from polarium.space import (PolarSpace, SpaceError, chunks, member_rows, pair_codes, pair_counts,
                            padded_columns)

# set bits of each byte value (np.bitwise_count needs NumPy 2), and the
# np.packbits mask of each bit position within a byte
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)
_BIT = np.uint8(128) >> np.arange(8, dtype=np.uint8)


class HyperbolicLines:
    """Hyperbolic lines as arrays: line k is the double perp of pairs[k], and
    members[k] holds its points in ascending order, padded with n.  The lines
    of a whole space also carry of_pair: of_pair[i] is the line of the i-th
    pair of noncollinear_pairs().  A slice gives another HyperbolicLines
    (without of_pair)."""

    __slots__ = ("space", "pairs", "members", "of_pair")

    def __init__(self, space, pairs, members, of_pair=None):
        self.space = space
        self.pairs = pairs
        self.members = members
        self.of_pair = of_pair

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, key: slice) -> HyperbolicLines:
        return HyperbolicLines(self.space, self.pairs[key], self.members[key])

    def points(self) -> list:
        """The lines as sorted point tuples."""
        n = self.space.n_points
        return [tuple(p for p in row if p < n) for row in self.members.tolist()]

    def rows(self) -> np.ndarray:
        """Membership rows: rows()[k, x] says that x lies on line k."""
        n = self.space.n_points
        out = np.zeros((len(self), n + 1), dtype=bool)  # column n: padding
        out[np.arange(len(self))[:, None], self.members] = True
        return out[:, :n]


def packed_double_perps(space: PolarSpace, pairs) -> np.ndarray:
    """Bit-packed rows {a_i,b_i}^perpperp for an (m, 2) array of non-collinear
    pairs: the perps of the traces, the values of a_i^perp (nbr[a_i]) that b_i
    sees, in order, padded with n."""
    n = space.n_points
    cand = space.packed_perps()[0][pairs[:, 0]]
    inside = space.coll.ravel().take(pairs[:, 1, None] * n + cand)
    k = np.count_nonzero(inside, axis=1)
    valid = np.arange(k.max(initial=0)) < k[:, None]
    trace = np.full(valid.shape, n)
    trace[valid] = np.extract(inside, cand)
    return space.perps(trace)


def _cleared(space: PolarSpace, pairs, dp) -> np.ndarray:
    """dp, the packed double perps of the pairs, which must hold them, with
    the pairs' bits cleared: zero where the double perp holds no other point."""
    flat, rows, held = dp.ravel().copy(), np.arange(len(pairs)) * dp.shape[1], True
    for p in pairs.T:
        i, bit = rows + (p >> 3), _BIT[p & 7]
        byte = flat[i]
        held, flat[i] = held & ((byte & bit) > 0), byte & ~bit
    if not held.all():
        a, b = pairs[np.argmin(held)].tolist()
        raise SpaceError(f"{space.name}: {{{a},{b}}}^perpperp misses {a} or {b}")
    return flat.reshape(dp.shape)


def _lines(space: PolarSpace, pairs, dp, extra) -> HyperbolicLines:
    """The lines of the packed double perps dp of the pairs: each its pair,
    ascending, unless `extra` marks other points; only those are unpacked."""
    n, more = space.n_points, np.flatnonzero(extra)
    ks, valid = padded_columns(np.unpackbits(dp[more], axis=1, count=n).view(bool))
    members = np.full((len(pairs), max(2, ks.shape[1])), n, dtype=np.intp)
    members[:, 0], members[:, 1] = np.minimum(*pairs.T), np.maximum(*pairs.T)
    members[more, :ks.shape[1]] = np.where(valid, ks, n)
    return HyperbolicLines(space, pairs, members)


def hyperbolic_lines(space: PolarSpace, pairs) -> HyperbolicLines:
    """{a_i,b_i}^perpperp for an (m, 2) array of non-collinear pairs, each
    checked to hold no collinear pair and to hold a_i and b_i."""
    dp = packed_double_perps(space, pairs)
    lines = _lines(space, pairs, dp, _cleared(space, pairs, dp).any(axis=1))
    # |x^perp cap line| over the members x: 1 (x alone) unless x sees another
    seen = _POPCOUNT[space.packed_perps()[1][lines.members] & dp[:, None]].sum(axis=2)
    if (seen[lines.members < space.n_points] > 1).any():
        raise SpaceError(f"{space.name}: collinear pair inside a hyperbolic line")
    return lines


def all_hyperbolic_lines(space: PolarSpace) -> HyperbolicLines:
    """All hyperbolic lines of the space with their of_pair, built once by
    `_build_lines` and memoised on the space as read-only arrays, which hold
    no reference back to it."""
    if space._hyperbolic_lines is None:
        lines = _build_lines(space)
        space._hyperbolic_lines = (lines.pairs, lines.members, lines.of_pair)
        for a in space._hyperbolic_lines:
            a.flags.writeable = False
    return HyperbolicLines(space, *space._hyperbolic_lines)


def _build_lines(space: PolarSpace) -> HyperbolicLines:
    """All hyperbolic lines, ordered by member tuple: the double perps of the
    non-collinear pairs a < b, in chunks, each kept at the pair of its two
    smallest members: its cleared copy is zero, or holds no point below b.
    A kept pair has its own line, and the other pairs of the lines of more
    than 2 points theirs from a pair-code table.  As the lines hold as many
    pairs as there are non-collinear ones, they partition them when each
    pair finds a line; as c, d in {a,b}^perpperp puts {c,d}^perpperp inside
    it, any two points of a line then span that same line."""
    n = space.n_points
    below = np.packbits(np.tri(n, k=-1, dtype=bool), axis=1)  # row b: the points < b
    width = max(space.packed_perps()[0].shape[1], (n + 7) // 8)
    kept = [HyperbolicLines(space, np.empty((0, 2), dtype=np.intp), np.empty((0, 0), dtype=np.intp))]
    at = [np.empty(0, dtype=np.intp)]
    noncollinear = space.noncollinear_pairs()
    for s in chunks(len(noncollinear), width):
        pairs = noncollinear[s]
        dp = packed_double_perps(space, pairs)
        cleared = _cleared(space, pairs, dp)
        # a row's bytes as one string drop trailing zeros: empty exactly when zero
        extra = cleared.view(f"S{dp.shape[1]}").ravel() != b""
        keep, more = ~extra, np.flatnonzero(extra) if not extra.all() else slice(None)
        low = cleared[more] & below[pairs[more, 1]]  # only rows with other points gather below
        keep[more] = low.view(f"S{dp.shape[1]}").ravel() == b""
        first = np.flatnonzero(keep)
        kept.append(_lines(space, pairs[first], dp[first], extra[first]))
        at.append(s.start + first)
    pairs = np.concatenate([h.pairs for h in kept])
    w = max(h.members.shape[1] for h in kept)
    members = np.concatenate([np.pad(h.members, ((0, 0), (0, w - h.members.shape[1])),
                                     constant_values=n) for h in kept])
    del kept  # the chunks, before the pair-code table
    of_pair = np.full(len(noncollinear), -1, dtype=np.intp)
    of_pair[np.concatenate(at)] = np.arange(len(pairs))
    sizes = (members < n).sum(axis=1)
    thick = np.flatnonzero(sizes > 2)
    if len(thick):
        codes, rows = pair_codes(n, members[thick], rows=True)
        line = np.full(n * n, -1, dtype=np.intp)
        line[codes] = thick[rows]
        of_pair = np.maximum(of_pair, line[noncollinear[:, 0] * n + noncollinear[:, 1]])
    if (sizes * (sizes - 1) // 2).sum() != len(noncollinear) or (of_pair < 0).any():
        counts = pair_counts(n, members)
        i, j = np.argwhere(counts != ~space.coll)[0]
        kind = "collinear" if space.coll[i, j] else "non-collinear"
        raise SpaceError(f"{space.name}: {kind} pair {i},{j} lies on {counts[i, j]} "
                         "hyperbolic lines")
    return HyperbolicLines(space, pairs, members, of_pair)


def linear_space(space: PolarSpace) -> list:
    """L(S) = (P, L u L_h) as its sorted lines, ordinary and hyperbolic,
    checked to be a linear space: each two points on exactly one line."""
    lines = sorted(set(space.lines) | set(all_hyperbolic_lines(space).points()))
    count = pair_counts(space.n_points, member_rows(lines, space.n_points))
    np.fill_diagonal(count, 1)
    if (count != 1).any():
        i, j = map(int, np.argwhere(count != 1)[0])
        raise SpaceError(f"{space.name}: points {i},{j} lie on {int(count[i, j])} "
                         "joining lines; L(S) is not a linear space")
    return lines
