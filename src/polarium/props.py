"""The characterization predicates and their cross-equivalences.

Each property is one kernel over a batch of blocks: hyperbolic lines for A,
regular pairs, centric triads and D, arising hyperplanes for B' and C, and
the whole space for the symplectic test.  A kernel gives (by float32 BLAS
products for A and regular pairs) each block's instance count and whether
it fails, and `failures(k)`, which reads the same intermediates to yield the
failing instances of block k as (checked up to it, serialized witness).
A, regular pairs and centric triads range over pairs (a, b), of which no
collinear one fails, and read a non-collinear one only through {a,b}^perp =
l^perp and its line l = {a,b}^perpperp.  They and D read the lines in
order from the memoised line prefix (`hyperbolic.LinePrefix`) and build
it only as far as they scan, so a failing scan stops at its witness's
chunk of pairs; lines come in the order of their own pairs, which keeps
checked_count pair-major.  A and regular pairs fail at a pair exactly when
a sub-generator S in its trace has g(S) > |l|: one first failing pair,
found once per space from the prefix's chunks up to the first failing line
(`--timings` bills it to A), with g(S) >= |l| asserted on every chunk read;
A counts sum g(S) over the traces and regular pairs opp(a); their line
kernels run on the failing line and in replay.  B' and C read the
contained-trace counts of `hyperplanes.ArisingHyperplanes`, filled once per
embedding from the dual lines of all hyperbolic lines (which drains the
line prefix), B' also their greedy ranks; a failing hyperplane's pairs are
read from their bit-packed traces one chunk at a time, up to the first.
Each checker scans the blocks in canonical order and stops at the first
failing block, so failing verdicts carry the smallest witness.  Replay runs
the same kernel on a batch holding only the witness's block and accepts any
failure of that block: for A, regular pairs, centric triads and D, the one
line of the witness's pair; for B' and C, that hyperplane, counted from
all its pairs with no line built, and the chunks of its pairs up to the
witness.  Witnesses use canonical point labels, never indices.
full_report runs the whole battery and asserts the theorem matrix: any
violated biconditional raises EquivalenceViolation.
"""

from __future__ import annotations

import time
from math import comb

import numpy as np

from polarium import embed, hyperbolic, hyperplanes, linalg
from polarium.space import PolarSpace, SpaceError, batches, chunks, padded_columns

HOLDS = "holds"
FAILS = "fails"
SKIPPED = "skipped"

class EquivalenceViolation(Exception):
    """A proven biconditional failed on an instance: a bug, not a verdict."""


class Verdict:
    __slots__ = ("status", "witness", "checked", "reason", "millis")

    def __init__(self, status, witness=None, checked=0, reason=None):
        self.status = status
        self.witness = witness
        self.checked = checked
        self.reason = reason
        self.millis = 0.0  # set by full_report

    @property
    def holds(self):
        return self.status == HOLDS

    def to_dict(self, include_millis=False):
        out = {"verdict": self.status, "checked_count": self.checked}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.reason is not None:
            out["reason"] = self.reason
        if include_millis:
            out["millis"] = round(self.millis, 3)
        return out

    def __repr__(self):
        return f"Verdict({self.status}, checked={self.checked})"


def _label(space, i):
    return _jsonable(space.points[i])


def _labels(space, idxs):
    return [_label(space, int(i)) for i in idxs]


def _pair_witness(space, a, b, **rest):
    return {"a": _label(space, int(a)), "b": _label(space, int(b)), **rest}


def _jsonable(label):
    if isinstance(label, tuple):
        return [_jsonable(x) for x in label]
    return label


def _scan(block_batches, kernel, checked=np.sum) -> Verdict:
    """Run the kernel over the blocks in canonical order and stop at the
    first failing block.  `checked(counts)` gives the instances of the
    blocks scanned before the failing one (or of all blocks) from their
    counts, by default their sum; a failing verdict adds the failing block's
    count up to its first failure."""
    seen = [np.zeros(0, dtype=np.int64)]
    for blocks in block_batches:
        counts, fails, failures = kernel(blocks)
        if np.any(fails):
            k = int(np.argmax(fails))
            upto, witness = next(failures(k))
            return Verdict(FAILS, witness, int(checked(np.concatenate([*seen, counts[:k]])))
                           + int(upto))
        seen.append(counts)
    return Verdict(HOLDS, checked=int(checked(np.concatenate(seen))))


def _stack_depth(space: PolarSpace) -> int:
    """The most generators through one point, which is the most
    sub-generators inside one l^perp (S -> <S, a> maps those inside
    {a,b}^perp onto the generators through a) and sizes the padded stacks."""
    return int(space.generators().sum(axis=0).max())


def _generator_counts(space: PolarSpace) -> np.ndarray:
    """g(S), the number of generators through each sub-generator S.  They
    cover S^perp and meet pairwise in S, and every generator M has one size
    (`PolarSpace.generators` checks it), so each adds |M| - |S| points:
    g(S) = (|S^perp| - |S|) / (|M| - |S|), read from the row sums of SP."""
    sg, sp = space.subgenerators()
    size = int(sg[0].sum())
    step = int(space.generators()[0].sum()) - size
    g, rest = np.divmod(sp.sum(axis=1) - size, step)
    if rest.any():
        k = int(np.argmax(rest))
        raise SpaceError(f"{space.name}: sub-generator {k} has {int(sp[k].sum())} points in "
                         f"its perp, not {size} plus a multiple of {step}")
    return g


def _lines_with(spt, lines, g, size):
    """The lines l, in order, whose trace holds an S with g(S) > size[l], from
    the rows of SP^T (`spt`) at the pairs of the lines with max g > size[l]."""
    for s in batches(np.flatnonzero(g.max() > size), len(g)):
        a, b = spt.take(lines.pairs[s].T, axis=0)
        yield from s[(a & b & (g > size[s, None])).any(axis=1)]


def _pair_scan(space: PolarSpace, count, line_kernel) -> Verdict:
    """Scan A or regular pairs over the non-collinear pairs in row-major
    order.  An S inside l^perp = {a,b}^perp lies on g(S) >= |l| generators,
    the distinct <S, p> over the points p of l (asserted on each chunk of
    lines read); A and regular pairs (N^perp cap N'^perp has g(N) points for
    N' opposite N) fail at S exactly when g(S) > |l|.  All pairs of a line
    share its trace, so both fail first at the own pair p of the first
    failing line, found once per space; count(p) counts the pairs before p,
    line_kernel(space) the rest."""
    lines = hyperbolic.LinePrefix(space)
    if space._failing_pair is None:
        g, n = _generator_counts(space), space.n_points
        spt = np.ascontiguousarray(space.subgenerators()[1].T)
        found = (len(space.noncollinear_pairs()), -1)
        for lo, part in lines.parts():
            size = (part.members < n).sum(axis=1)
            for k in _lines_with(spt, part, -g, -size):
                a, b = part.pairs[k].tolist()
                raise SpaceError(f"{space.name}: a sub-generator in {{{a},{b}}}^perp lies on "
                                 "fewer generators than its hyperbolic line has points")
            k = next(_lines_with(spt, part, g, size), -1)
            if k >= 0:
                found = (lines.own_pair(lo + k), lo + k)
                break
        space._failing_pair = found
    p, k = space._failing_pair
    if k < 0:
        return Verdict(HOLDS, checked=count(p))
    upto, witness = next(line_kernel(space)(lines[k:k + 1])[2](0))
    return Verdict(FAILS, witness, count(p) + int(upto))


# ---------------------------------------------------------------------------
# property (A)

def _A_kernel(space: PolarSpace):
    """Block: a hyperbolic line l, with its pair (a, b).  Checked: the
    generators M with M cap l^perp a hyperplane of M.  Failing: those
    missing l."""
    gm = space.generators()
    gf = gm.astype(np.float32)
    size = int(space.subgenerators()[0][0].sum())
    n = space.n_points

    def kernel(lines):
        trace = np.unpackbits(space.perps(lines.members), axis=1, count=n).astype(np.float32)
        cand = trace @ gf.T == size
        bad = cand & (lines.rows().astype(np.float32) @ gf.T == 0)
        counts = cand.sum(axis=1)

        def failures(k):
            return ((counts[k], _pair_witness(space, *lines.pairs[k], generator=_labels(
                space, np.flatnonzero(gm[g])))) for g in np.flatnonzero(bad[k]))
        return counts, bad.any(axis=1), failures
    return kernel


def _A_count(space: PolarSpace, p: int) -> int:
    """sum g(S) over the S inside the traces of the first p non-collinear
    pairs.  Over all pairs, sum_S g(S) C(g(S), 2) (|M| - |S|)^2, as the
    non-collinear pairs inside S^perp are the pairs of points off S in
    different generators through S; else SP^T diag(g) SP on rows a <= a_p."""
    pairs, g, (sg, sp) = space.noncollinear_pairs(), _generator_counts(space), space.subgenerators()
    if p == len(pairs):
        m = int(space.generators()[0].sum() - sg[0].sum())
        return int((g * (g * (g - 1) // 2)).sum()) * m * m
    G = sum((sp[s, :pairs[p, 0] + 1].T * g[s]).astype(np.float32) @ sp[s].astype(np.float32)
            for s in chunks(len(sp), space.n_points))  # integer sums, exact below 2^24
    return int(G[tuple(pairs[:p].T)].astype(np.int64).sum())


def check_A(space: PolarSpace) -> Verdict:
    """For non-collinear a, b and generator M: if M cap {a,b}^perp is a
    hyperplane of M then M must meet the hyperbolic line {a,b}^perpperp.
    Such an M meets {a,b}^perp in an S: the pair has sum g(S) of them."""
    return _pair_scan(space, lambda p: _A_count(space, p), _A_kernel)


# ---------------------------------------------------------------------------
# regular pairs

def _regular_pairs_kernel(space: PolarSpace):
    """Block: a hyperbolic line l, with its pair (a, b).  Checked: the
    opposite pairs N, N' of sub-generators inside l^perp (the generators of
    the trace), in row-major order.  Failing: those with
    N^perp cap N'^perp != l.  As N and N' lie in l^perp, l lies in
    N^perp cap N'^perp, which has g(N) points (each generator through N
    meets N'^perp in one), so it fails exactly when g(N) > |l|."""
    sg, sp = space.subgenerators()
    g, spt = _generator_counts(space), np.ascontiguousarray(sp.T)
    n = space.n_points

    def kernel(lines):
        pairs = lines.pairs
        ks, valid = padded_columns(np.logical_and(*spt.take(pairs.T, axis=0)))  # S_k inside l^perp
        order = np.arange(ks.shape[1])
        upper = (order[:, None] < order) & valid[:, None, :]  # x < y, both real
        meet = (sp.take(ks, axis=0).astype(np.float32)
                @ sg.take(ks, axis=0).astype(np.float32).transpose(0, 2, 1))
        opp = upper & (meet == 0)
        size = (lines.members < n).sum(axis=1)
        bad = opp & (g.take(ks) > size[:, None])[:, :, None]

        def failures(k):
            upto = np.cumsum(opp[k]).reshape(opp[k].shape)
            far = ~lines.rows()[k]
            for x, y in zip(*np.nonzero(bad[k])):
                kx, ky = ks[k, x], ks[k, y]
                extra = np.flatnonzero(sp[kx] & sp[ky] & far)[0]
                yield upto[x, y], _pair_witness(
                    space, *pairs[k], N=_labels(space, np.flatnonzero(sg[kx])),
                    N_prime=_labels(space, np.flatnonzero(sg[ky])),
                    extra_point=_label(space, int(extra)))
        return opp.sum(axis=(1, 2)), bad.any(axis=(1, 2)), failures
    return kernel


def _opposite_generators(space: PolarSpace, points: int) -> np.ndarray:
    """opp(a) for the points a < `points`: the pairs of generators through a
    that meet in a alone, by padded stack products over their rows, in
    chunks of points.  S -> <S, a> maps the opposite pairs of sub-generators
    inside l^perp onto them, for every line l through a."""
    gm, n, k_max = space.generators(), space.n_points, _stack_depth(space)
    gmt, out = np.ascontiguousarray(gm.T), [np.zeros(0, dtype=np.intp)]
    for s in chunks(points, k_max * max(n, k_max)):
        ks, valid = padded_columns(gmt[s])  # the generators through each point
        rows = gm.take(ks, axis=0).astype(np.float32)
        out.append((np.triu(rows @ rows.transpose(0, 2, 1) == 1, 1) & valid[:, None, :])
                   .sum(axis=(1, 2)))
    return np.concatenate(out)


def check_regular_pairs(space: PolarSpace) -> Verdict:
    """Every pair of opposite points a, b must be regular: N^perp cap N'^perp
    = {a,b}^perpperp for all opposite generators N, N' of the trace.  The
    pair has opp(a) such N, N'."""
    a = space.noncollinear_pairs()[:, 0]
    return _pair_scan(space, lambda p: int(_opposite_generators(space, a[p - 1] + 1 if p else 0)
                                           [a[:p]].sum()), _regular_pairs_kernel)


# ---------------------------------------------------------------------------
# centric triads (the implementation of property (B))

def _triads_kernel(space: PolarSpace):
    """Block: a hyperbolic line l, with its pair (a, b).  Checked: every
    c > b.  Failing: the c with no sub-generator in {a,b,c}^perp: the c > b
    (packed row above[b]) outside the OR of the packed rows S_k^perp of the
    S_k inside l^perp, padded with a zero row; unpacked only when failing."""
    sp = space.subgenerators()[1]
    n, above = space.n_points, np.packbits(~np.tri(space.n_points, dtype=bool), axis=1)
    spt, bits = np.ascontiguousarray(sp.T), np.pad(np.packbits(sp, axis=1), ((0, 1), (0, 0)))

    def kernel(lines):
        pairs = lines.pairs
        b = pairs[:, 1]
        ks, valid = padded_columns(np.logical_and(*spt.take(pairs.T, axis=0)))  # S_k inside l^perp
        held = np.bitwise_or.reduce(bits.take(np.where(valid, ks, len(sp)), axis=0), axis=1)
        acentric = ~held & above.take(b, axis=0)

        def failures(k):
            return ((c - b[k], _pair_witness(space, *pairs[k], c=_label(space, int(c))))
                    for c in np.flatnonzero(np.unpackbits(acentric[k], count=n)))
        return n - b - 1, acentric.any(axis=1), failures
    return kernel


def check_centric_triads(space: PolarSpace) -> Verdict:
    """Every triple of distinct points must have a sub-generator in its
    common perp (a point when n = 2).  If a ~ b, a generator through the
    line ab meets c^perp in a sub-generator at least, so the blocks are the
    lines: a pair (a', b') of line l fails at the c > b' where l's own pair
    fails."""
    n = space.n_points
    packed = (n + 7) // 8  # bytes per bit-packed S_k^perp row
    width = max(len(space.subgenerators()[1]), n, _stack_depth(space) * packed)
    lines = hyperbolic.LinePrefix(space)

    def checked(counts):
        # the triples x < y < z before line k's own pair (a, b), collinear
        # pairs (x, y) included: x < a, or x = a < y < b; past the last
        # line, (n - 1, n) counts them all
        own = lines[len(counts):len(counts) + 1].pairs
        a, b = own[0].tolist() if len(own) else (n - 1, n)
        return comb(n, 3) - comb(n - a, 3) + comb(n - 1 - a, 2) - comb(n - b, 2)
    return _scan(batches(lines, width), _triads_kernel(space), checked)


# ---------------------------------------------------------------------------
# properties (B') and (C) over arising hyperplanes

def _arising_kernel(space: PolarSpace, marked, **extra):
    """Block: an arising hyperplane h, a row of `hyperplanes.ArisingHyperplanes`.
    Checked: the non-collinear pairs whose trace h contains, hs.counts.
    Failing: all of them when marked(hs) marks h, none otherwise; they are
    read chunk by chunk as they are asked for."""
    def kernel(hs):
        counts, mark = hs.counts, marked(hs)

        def failures(k):
            functional = hs.functionals[k].tolist()
            pairs = hyperplanes.contained_pairs(space, hs.masks[k]) if mark[k] else ()
            return ((counts[k], _pair_witness(space, a, b, functional=functional, **extra))
                    for a, b in pairs)
        return counts, mark & (counts > 0), failures
    return kernel


def _B_prime_kernel(space: PolarSpace):
    """Failing: an arising hyperplane containing a trace but no generator."""
    return _arising_kernel(space, lambda hs: hs.ranks < space.rank)


def check_B_prime(space: PolarSpace, e: embed.Embedding) -> Verdict:
    """Every arising hyperplane containing the trace of a non-collinear pair
    must contain a generator, that is, have rank n (`ArisingHyperplanes.ranks`)."""
    return _scan(batches(hyperplanes.arising_hyperplanes(e), space.n_points),
                 _B_prime_kernel(space))


def _C_kernel(space: PolarSpace):
    """Failing: an arising hyperplane containing a trace but with no deepest
    point.  A deepest point p has h = p^perp, and p lies on {a,b}^perpperp
    exactly when {a,b}^perp is inside p^perp = h, so every contained pair
    fails when h has no deepest point and none fails otherwise."""
    return _arising_kernel(space, lambda hs: hyperplanes.deepest_points(space, hs.masks) < 0,
                           deepest_point=None)


def check_C(space: PolarSpace, e: embed.Embedding) -> Verdict:
    """Every arising hyperplane containing a trace must be singular, with
    deepest point on the hyperbolic line of the pair."""
    return _scan(batches(hyperplanes.arising_hyperplanes(e), space.n_points), _C_kernel(space))


# ---------------------------------------------------------------------------
# property (D)

def _D_kernel(space: PolarSpace):
    """Block: a hyperbolic line.  Checked: every point x.  Failing: the x whose
    singular hyperplane x^perp misses the line, outside the OR of its members'
    packed perps (padded with its first member, as OR is idempotent)."""
    n, bits = space.n_points, space.packed_perps()[1]

    def kernel(lines):
        held = bits.take(np.where(lines.members < n, lines.members, lines.members[:, :1]), axis=0)
        missed = np.unpackbits(~np.bitwise_or.reduce(held, axis=1), axis=1, count=n)

        def failures(k):
            line = lines.members[k]
            return ((n, {"point": _label(space, int(x)), "pair": _labels(space, lines.pairs[k]),
                         "hyperbolic_line": _labels(space, line[line < n])})
                    for x in np.flatnonzero(missed[k]))
        return np.full(len(lines), n), missed.any(axis=1), failures
    return kernel


def check_D(space: PolarSpace) -> Verdict:
    """Every singular hyperplane x^perp must meet every hyperbolic line."""
    return _scan(batches(hyperbolic.LinePrefix(space), space.n_points), _D_kernel(space))


# ---------------------------------------------------------------------------
# symplectic verdict

def _symplectic_kernel(space: PolarSpace):
    """Block: the whole space, one instance.  Failing: a minimal embedding
    that is not 2n-dimensional or not onto the target point set."""
    def kernel(_):
        e = embed.minimal_embedding(space)
        q = space.field.q
        target = (q ** e.dim - 1) // (q - 1)
        image = len(e.image_points())
        fails = not (e.dim == 2 * space.rank and image == target)
        witness = {"dimension": e.dim, "required_dimension": 2 * space.rank,
                   "image_points": image, "target_points": target}
        return [1], [fails], lambda k: iter([(1, witness)] if fails else [])
    return kernel


def is_symplectic(space: PolarSpace) -> Verdict:
    """Compute the minimal embedding: the space is symplectic iff the
    embedding is 2n-dimensional and onto the whole target point set."""
    if not space.is_form_backed:
        return Verdict(SKIPPED, reason="no embedding (combinatorial space)")
    return _scan([[space]], _symplectic_kernel(space))


# ---------------------------------------------------------------------------
# aggregation

class PropertyReport:
    def __init__(self, space, verdicts, equivalences):
        self.space = space
        self.verdicts = verdicts
        self.equivalences = equivalences

    def to_dict(self, include_millis=False):
        return {
            "space": self.space.name,
            "points": self.space.n_points,
            "lines": len(self.space.line_members),
            "rank": self.space.rank,
            "properties": {k: v.to_dict(include_millis)
                           for k, v in sorted(self.verdicts.items())},
            "equivalences": self.equivalences,
        }


def _assert_equiv(name, space, left, right, record):
    if left.status == SKIPPED or right.status == SKIPPED:
        record.append({"name": name, "status": "skipped"})
        return
    if left.holds != right.holds:
        raise EquivalenceViolation(
            f"{space.name}: {name} violated ({left.status} vs {right.status}); "
            f"witnesses {left.witness} / {right.witness}")
    record.append({"name": name, "status": "ok"})


def full_report(space: PolarSpace) -> PropertyReport:
    """Run every checker, timing each call, and assert the biconditionals
    between the properties."""
    verdicts = {}

    def run(prop, check, *args):
        t0 = time.perf_counter()
        verdicts[prop] = check(space, *args)
        verdicts[prop].millis = (time.perf_counter() - t0) * 1000.0

    # each checker is looked up by name at call time, so a patched one runs
    run("A", check_A)
    run("regular_pairs", check_regular_pairs)
    run("B_triads", check_centric_triads)
    if space.is_form_backed:
        nat = embed.natural_embedding(space)
        run("B_prime", check_B_prime, nat)
        run("C", check_C, nat)
    else:
        reason = "no embedding (combinatorial space)"
        verdicts["B_prime"] = Verdict(SKIPPED, reason=reason)
        verdicts["C"] = Verdict(SKIPPED, reason=reason)
    run("D", check_D)
    run("symplectic", is_symplectic)

    equivalences = []
    _assert_equiv("A<=>regular_pairs", space, verdicts["A"],
                  verdicts["regular_pairs"], equivalences)
    _assert_equiv("B_triads<=>B_prime", space, verdicts["B_triads"],
                  verdicts["B_prime"], equivalences)
    sym = verdicts["symplectic"]
    ab = Verdict(HOLDS if (verdicts["A"].holds and verdicts["B_triads"].holds)
                 else FAILS)
    _assert_equiv("A&B<=>symplectic", space, ab, sym, equivalences)
    _assert_equiv("C<=>symplectic", space, verdicts["C"], sym, equivalences)
    _assert_equiv("D<=>symplectic", space, verdicts["D"], sym, equivalences)
    return PropertyReport(space, verdicts, equivalences)


def _line_block(space, a, b):
    return None if space.collinear(a, b) else hyperbolic.hyperbolic_lines(space, np.array([[a, b]]))


def _pair_line_block(space, witness):
    return _line_block(space, space.index_of(witness["a"]), space.index_of(witness["b"]))


def _triad_block(space, witness):
    # a triad's instances c > b depend on the order of its pair
    a, b = space.index_of(witness["a"]), space.index_of(witness["b"])
    return _line_block(space, a, b) if a < b else None


def _arising_block(space, witness):
    e = embed.natural_embedding(space)
    phi = tuple(witness["functional"])
    if phi not in linalg.dual_hyperplanes(e.field, e.dim):
        return None
    return hyperplanes.hyperplane_from_functional(e, phi)


def _hyperbolic_block(space, witness):
    return _line_block(space, *(space.index_of(p) for p in witness["pair"]))


# property -> (witness -> a batch of its one block, or None if the scan has
#              no such block; space -> the checker's kernel)
_REPLAY = {
    "A": (_pair_line_block, _A_kernel),
    "regular_pairs": (_pair_line_block, _regular_pairs_kernel),
    "B_triads": (_triad_block, _triads_kernel),
    "B_prime": (_arising_block, _B_prime_kernel),
    "C": (_arising_block, _C_kernel),
    "D": (_hyperbolic_block, _D_kernel),
    "symplectic": (lambda space, witness: [space], _symplectic_kernel),
}


def validate_witness(space: PolarSpace, prop: str, witness: dict) -> bool:
    """Replay a serialized failure witness against a freshly built space.

    Replay is the checker's own kernel on one block: the witness is parsed
    into a batch holding its block, and it must equal one of that block's
    serialized failures.  A witness whose block names a non-point or lacks a
    key raises ValueError or KeyError.
    """
    if prop not in _REPLAY:
        raise ValueError(f"unknown property {prop!r}")
    parse, kernel = _REPLAY[prop]
    block = parse(space, witness)
    if block is None:
        return False
    _, _, failures = kernel(space)(block)
    return any(w == witness for _, w in failures(0))

