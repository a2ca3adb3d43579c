"""Hyperbolic lines and the enriched linear space L(S).

A hyperbolic line is the double perp {a,b}^perpperp of a non-collinear
pair; its members are pairwise non-collinear.  Double perps are bit-packed,
the perps (`PolarSpace.perps`) of the traces, which are gathered from the
values of a^perp.  A line is read from its packed double perp: it is its
pair unless the double perp holds other points, and only such rows are
unpacked.  Row gathers use `take(idx, axis=0)`, 1.2-10x faster than `[idx]`.

The lines of a space are built once, as a prefix memoised on it that grows
as it is read.  The non-collinear pairs are taken in row-major chunks; a
chunk's double perps keep the lines whose own pair (their two smallest
members) lies in the chunk.  A pair lies on a line whose own pair is at
most it, so once a chunk is built every pair up to its end has its line,
and the chunk asserts that each of its pairs lies on exactly one line and
that no line holds a collinear pair of its code range.  As c, d in
{a,b}^perpperp puts {c,d}^perpperp inside it, any two points of a line then
span that same line, for every pair read.  The scans of A, regular pairs,
centric triads and D read the prefix (`LinePrefix`) and extend it only as
far as they scan; `all_hyperbolic_lines` drains it into arrays: each
line's pair, its members ascending, padded with n, and the line of every
non-collinear pair.  Pairs past the last chunk a scan reads are neither
double-perped nor checked, which happens only where every scan stops early;
every space built from a spec is `validate`d, which checks the polar-space
axioms exhaustively.  Adjoining all hyperbolic lines to the ordinary lines
yields a linear space L(S): any two points lie on exactly one joining line
(`linear_space` checks it).
"""

from __future__ import annotations

from bisect import bisect_right

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
    sees, in order, padded with n where the traces differ in size."""
    cand, row = space.packed_perps()[0].take(pairs[:, 0], axis=0), pairs[:, 1:] * space.n_points
    cand += row  # the flat indices into coll, in place of a second (m, |a^perp|) array
    inside = space.coll.ravel().take(cand)
    cand -= row
    k = np.count_nonzero(inside, axis=1)
    trace, width = np.extract(inside, cand), k.max(initial=0)
    if len(trace) < len(pairs) * width:
        valid = np.arange(width) < k[:, None]
        trace, values = np.full(valid.shape, space.n_points), trace
        trace[valid] = values
    return space.perps(trace.reshape(len(pairs), width))


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
    ks, valid = padded_columns(np.unpackbits(dp.take(more, axis=0), axis=1, count=n).view(bool))
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
    seen = _POPCOUNT[space.packed_perps()[1].take(lines.members, axis=0) & dp[:, None]].sum(axis=2)
    if (seen[lines.members < space.n_points] > 1).any():
        raise SpaceError(f"{space.name}: collinear pair inside a hyperbolic line")
    return lines


class _Prefix:
    """The lines of a space built so far, memoised on it with no reference
    back: `parts` holds (pairs, members) of the lines each chunk of pairs
    kept, `starts` the index of each part's first line and then their total,
    and of_pair the line of each pair read (-1 past them).  While chunks are
    left, `cover[k]` counts the pair codes of the lines built so far inside
    chunk k's code range, which starts at `bounds[k]`, and `table` maps the
    pair codes of the lines of more than 2 points to their lines."""

    __slots__ = ("chunks", "read", "bounds", "parts", "starts", "of_pair", "cover", "table",
                 "below")

    def __init__(self, space: PolarSpace):
        n, pairs = space.n_points, space.noncollinear_pairs()
        self.chunks = list(chunks(len(pairs), max(space.packed_perps()[0].shape[1], (n + 7) // 8)))
        self.read, self.parts, self.starts = 0, [], [0]
        first = pairs[[s.start for s in self.chunks]].reshape(-1, 2).astype(np.int64)
        self.bounds = first[:, 0] * n + first[:, 1]
        self.of_pair = np.full(len(pairs), -1, dtype=np.intp)
        self.cover = np.zeros(len(self.chunks), dtype=np.intp)
        self.below = np.packbits(np.tri(n, k=-1, dtype=bool), axis=1)  # row b: the points < b
        self.table = None
        if not self.chunks:
            self._complete(n)

    def _complete(self, n: int):
        """Drop the build's bookkeeping, then join the parts into one of
        read-only arrays: the join's copy is the build's largest moment."""
        self.chunks = self.bounds = self.cover = self.table = self.below = None
        pairs, members = _joined(self.parts, n)
        for a in (pairs, members, self.of_pair):
            a.flags.writeable = False
        self.parts, self.starts = [(pairs, members)], [0, len(pairs)]

    def extend(self, space: PolarSpace):
        """Build the lines of the next chunk of pairs: each double perp kept
        at the pair of its two smallest members (its cleared copy is zero, or
        holds no point below b), and every pair of the chunk given its line,
        a kept pair its own and the others theirs from the pair-code table.
        The chunk's code range then holds every pair code of the lines that
        hold one, and it must hold each non-collinear pair once and no other."""
        n, k = space.n_points, self.read
        s = self.chunks[k]
        pairs = space.noncollinear_pairs()[s]
        dp = packed_double_perps(space, pairs)
        cleared = _cleared(space, pairs, dp)
        # a row's bytes as one string drop trailing zeros: empty exactly when zero
        extra = cleared.view(f"S{dp.shape[1]}").ravel() != b""
        keep, more = ~extra, np.flatnonzero(extra) if not extra.all() else slice(None)
        low = cleared[more] & self.below.take(pairs[more, 1], axis=0)  # rows with other points
        keep[more] = low.view(f"S{dp.shape[1]}").ravel() == b""
        first = np.flatnonzero(keep)
        lines = _lines(space, pairs.take(first, axis=0), dp.take(first, axis=0), extra[first])
        lo, of_pair = self.starts[-1], self.of_pair[s]
        of_pair[first] = lo + np.arange(len(first))
        thick = np.flatnonzero((lines.members[:, 2:] < n).any(axis=1))
        self.cover[k] += len(first) - len(thick)  # a 2-point line holds its own pair
        if len(thick):
            if self.table is None:
                self.table = np.full(n * n, -1, dtype=np.int32)
            codes, rows = pair_codes(n, lines.members[thick], rows=True)
            self.table[codes] = lo + thick[rows]
            # no code lies below its line's own pair, in chunk k
            at = np.bincount(np.searchsorted(self.bounds, codes, side="right") - 1 - k)
            self.cover[k:k + len(at)] += at
        if self.table is not None:
            np.maximum(of_pair, self.table[pairs[:, 0] * n + pairs[:, 1]], out=of_pair)
        if self.cover[k] != len(pairs) or (of_pair < 0).any():
            _, members = _joined([*self.parts, (lines.pairs, lines.members)], n)
            counts = pair_counts(n, members)
            wrong = np.triu(counts != ~space.coll, 1).ravel()
            wrong[self.bounds[k + 1] if k + 1 < len(self.bounds) else n * n:] = False
            i, j = divmod(int(np.argmax(wrong)), n)
            kind = "collinear" if space.coll[i, j] else "non-collinear"
            raise SpaceError(f"{space.name}: {kind} pair {i},{j} lies on {counts[i, j]} "
                             "hyperbolic lines")
        self.read += 1
        if len(first):
            self.parts.append((lines.pairs, lines.members))
            self.starts.append(lo + len(first))
        if self.read == len(self.chunks):
            self._complete(n)

    @property
    def complete(self) -> bool:
        return self.chunks is None


def _joined(parts, n: int) -> tuple:
    """(pairs, members) of consecutive parts as one, members padded with n."""
    if len(parts) == 1:
        return parts[0]
    pairs = np.concatenate([np.empty((0, 2), dtype=np.intp), *(p for p, _ in parts)])
    members = np.full((len(pairs), max([2, *(m.shape[1] for _, m in parts)])), n, dtype=np.intp)
    at = 0
    for _, m in parts:
        members[at:at + len(m), :m.shape[1]] = m
        at += len(m)
    return pairs, members


class LinePrefix:
    """The hyperbolic lines of a space, in member-tuple order, as a sequence
    built only as far as it is read: a slice builds the chunks of pairs
    whose lines it reaches, and is empty past the last line."""

    def __init__(self, space: PolarSpace):
        self.space = space
        if space._hyperbolic_lines is None:
            space._hyperbolic_lines = _Prefix(space)
        self.prefix = space._hyperbolic_lines

    def _reach(self, stop):
        """Build chunks until `stop` lines are built or none is left."""
        while self.prefix.starts[-1] < stop and not self.prefix.complete:
            self.prefix.extend(self.space)

    def __getitem__(self, key: slice) -> HyperbolicLines:
        self._reach(key.stop)
        starts, lo = self.prefix.starts, key.start or 0
        hi, i = min(key.stop, starts[-1]), max(bisect_right(starts, lo) - 1, 0)
        parts = []
        while i < len(self.prefix.parts) and starts[i] < hi:
            pairs, members = self.prefix.parts[i]
            cut = slice(max(lo - starts[i], 0), hi - starts[i])
            parts.append((pairs[cut], members[cut]))
            i += 1
        return HyperbolicLines(self.space, *_joined(parts, self.space.n_points))

    def parts(self):
        """(first line, lines) of each chunk's lines in order, built as read."""
        lo = 0
        while True:
            self._reach(lo + 1)
            starts = self.prefix.starts
            if lo >= starts[-1]:
                return
            hi = starts[bisect_right(starts, lo)]
            yield lo, self[lo:hi]
            lo = hi

    def own_pair(self, k: int) -> int:
        """The index in noncollinear_pairs() of line k's own pair, a built line."""
        return int(np.argmax(self.prefix.of_pair == k))


def all_hyperbolic_lines(space: PolarSpace) -> HyperbolicLines:
    """All hyperbolic lines of the space with their of_pair: the memoised
    prefix, drained, as read-only arrays."""
    lines = LinePrefix(space)
    lines._reach(np.inf)
    (pairs, members), = lines.prefix.parts
    return HyperbolicLines(space, pairs, members, lines.prefix.of_pair)


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
