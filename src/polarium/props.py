"""The characterization predicates and their cross-equivalences.

Each property is one kernel over a batch of blocks: hyperbolic lines for A,
regular pairs, centric triads and D, arising hyperplanes for B' and C, and
the whole space for the symplectic test.  A kernel gives, by chunked float32
BLAS products or bit-packed gathers, each block's instance count and whether
it fails, and `failures(k)`, which reads the same intermediates to yield the
failing instances of block k as (checked up to it, serialized witness).
A, regular pairs and centric triads range over pairs (a, b), of which no
collinear one fails, and read a non-collinear one only through {a,b}^perp =
l^perp and its line l = {a,b}^perpperp; the memoised lines map each pair to
its line, which keeps checked_count pair-major.  B' and C share their
intermediates: the traces of the non-collinear pairs, bit-packed once per
space, and the count of contained traces per arising hyperplane, memoised
in the counts of `hyperplanes.ArisingHyperplanes` by the first sweep that
reaches it, so C sweeps only the hyperplanes B' stopped before; a failing
hyperplane's pairs are read from the packed traces one chunk at a time, up
to the first one asked for.
Each checker scans the blocks in canonical order and stops at the first
failing block, so failing verdicts carry the smallest witness.  Replay runs
the same kernel on a batch holding only the witness's block and accepts any
failure of that block: for A, regular pairs, centric triads and D, the one
line of the witness's pair; for B' and C, one count sweep of that
hyperplane and the chunks of its pairs up to the witness.  Witnesses use
canonical point labels, never indices.
full_report runs the whole battery and asserts the theorem matrix: any
violated biconditional raises EquivalenceViolation.
"""

from __future__ import annotations

import time
from math import comb

import numpy as np

from polarium import embed, hyperbolic, hyperplanes, linalg
from polarium.space import PolarSpace, batches, padded_columns

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


def _line_scan(space: PolarSpace, kernel, width: int) -> Verdict:
    """Scan a property of non-collinear pairs (a, b) that reads a pair only
    through {a,b}^perp = l^perp and its hyperbolic line l = {a,b}^perpperp,
    so every pair of l has l's count and failures: the blocks are the
    lines.  checked_count stays pair-major.  A line's first pair in
    row-major order is its own `pair`, so the first failing pair is the
    first failing line's pair, and the pairs before it lie on earlier lines
    and count those lines' counts."""
    lines = hyperbolic.all_hyperbolic_lines(space)
    of_pair = lines.of_pair

    def checked(counts):
        # line k's own pair is the first pair on a line >= k
        later = np.flatnonzero(of_pair >= len(counts))
        return counts[of_pair[:later[0] if len(later) else len(of_pair)]].sum()
    return _scan(batches(lines, width), kernel, checked)


def _stack_depth(space: PolarSpace) -> int:
    """The most generators through one point, which is the most
    sub-generators inside one l^perp (S -> <S, a> maps those inside
    {a,b}^perp onto the generators through a) and sizes the padded stacks."""
    return int(space.generators().sum(axis=0).max())


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


def check_A(space: PolarSpace) -> Verdict:
    """For non-collinear a, b and generator M: if M cap {a,b}^perp is a
    hyperplane of M then M must meet the hyperbolic line {a,b}^perpperp."""
    width = max(space.n_points, len(space.generators()))
    return _line_scan(space, _A_kernel(space), width)


# ---------------------------------------------------------------------------
# regular pairs

def _regular_pairs_kernel(space: PolarSpace):
    """Block: a hyperbolic line l, with its pair (a, b).  Checked: the
    opposite pairs N, N' of sub-generators inside l^perp (the generators of
    the trace), in row-major order.  Failing: those with
    N^perp cap N'^perp != l.  As N and N' lie in l^perp, l lies in
    N^perp cap N'^perp, so it fails exactly when it has more points than l."""
    sg, sp = space.subgenerators()
    sgf, spf, spt = sg.astype(np.float32), sp.astype(np.float32), np.ascontiguousarray(sp.T)
    n = space.n_points

    def kernel(lines):
        pairs = lines.pairs
        ks, valid = padded_columns(spt[pairs[:, 0]] & spt[pairs[:, 1]])  # S_k inside l^perp
        order = np.arange(ks.shape[1])
        upper = (order[:, None] < order) & valid[:, None, :]  # x < y, both real
        perps = spf[ks]
        opp = upper & (perps @ sgf[ks].transpose(0, 2, 1) == 0)
        size = (lines.members < n).sum(axis=1)
        bad = opp & (perps @ perps.transpose(0, 2, 1) > size[:, None, None])

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


def check_regular_pairs(space: PolarSpace) -> Verdict:
    """Every pair of opposite points a, b must be regular: N^perp cap N'^perp
    = {a,b}^perpperp for all opposite generators N, N' of the trace."""
    n, k_max = space.n_points, _stack_depth(space)
    width = max(len(space.subgenerators()[1]), k_max * max(n, k_max))
    return _line_scan(space, _regular_pairs_kernel(space), width)


# ---------------------------------------------------------------------------
# centric triads (the implementation of property (B))

def _triads_kernel(space: PolarSpace):
    """Block: a hyperbolic line l, with its pair (a, b).  Checked: every
    c > b.  Failing: the c with no sub-generator in {a,b,c}^perp, i.e. no
    S_k^perp holding a, b and c: the c outside the OR of the bit-packed rows
    S_k^perp of the sub-generators inside l^perp."""
    sp = space.subgenerators()[1]
    n = space.n_points
    spt, bits = np.ascontiguousarray(sp.T), np.packbits(sp, axis=1)

    def kernel(lines):
        pairs = lines.pairs
        b = pairs[:, 1]
        ks, valid = padded_columns(spt[pairs[:, 0]] & spt[b])  # S_k inside l^perp
        held = np.bitwise_or.reduce(bits[ks] * valid[:, :, None], axis=1)
        centric = np.unpackbits(held, axis=1, count=n).view(bool)
        acentric = ~centric & (np.arange(n) > b[:, None])

        def failures(k):
            return ((c - b[k], _pair_witness(space, *pairs[k], c=_label(space, int(c))))
                    for c in np.flatnonzero(acentric[k]))
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
    lines = hyperbolic.all_hyperbolic_lines(space)

    def checked(counts):
        # the triples x < y < z before line k's own pair (a, b), collinear
        # pairs (x, y) included: x < a, or x = a < y < b; past the last
        # line, (n - 1, n) counts them all
        k = len(counts)
        a, b = lines.pairs[k].tolist() if k < len(lines) else (n - 1, n)
        return comb(n, 3) - comb(n - a, 3) + comb(n - 1 - a, 2) - comb(n - b, 2)
    return _scan(batches(lines, width), _triads_kernel(space), checked)


# ---------------------------------------------------------------------------
# properties (B') and (C) over arising hyperplanes

def _arising_kernel(space: PolarSpace, marked, **extra):
    """Block: an arising hyperplane h, a row of `hyperplanes.ArisingHyperplanes`.
    Checked: the non-collinear pairs whose trace h contains, counted once
    per hyperplane and memoised with it, so B' and C share the sweep.
    Failing: all of them when marked(masks) marks h, none otherwise; they
    are read from the packed traces as they are asked for."""
    def kernel(hs):
        counts, mark = hyperplanes.contained_counts(hs), marked(hs.masks)

        def failures(k):
            functional = hs.functionals[k].tolist()
            pairs = hyperplanes.contained_pairs(space, hs.masks[k]) if mark[k] else ()
            return ((counts[k], _pair_witness(space, a, b, functional=functional, **extra))
                    for a, b in pairs)
        return counts, mark & (counts > 0), failures
    return kernel


def _B_prime_kernel(space: PolarSpace):
    """Failing: an arising hyperplane containing a trace but no generator."""
    gf = space.generators().astype(np.float32)
    return _arising_kernel(space, lambda masks: (
        gf @ (~masks).T.astype(np.float32) > 0).all(axis=0))


def check_B_prime(space: PolarSpace, e: embed.Embedding) -> Verdict:
    """Every arising hyperplane containing the trace of a non-collinear pair
    must contain a generator (equivalently have rank n)."""
    width = max(space.n_points, len(space.generators()))
    return _scan(batches(hyperplanes.arising_hyperplanes(e), width), _B_prime_kernel(space))


def _C_kernel(space: PolarSpace):
    """Failing: an arising hyperplane containing a trace but with no deepest
    point.  A deepest point p has h = p^perp, and p lies on {a,b}^perpperp
    exactly when {a,b}^perp is inside p^perp = h, so every contained pair
    fails when h has no deepest point and none fails otherwise."""
    return _arising_kernel(space, lambda masks: hyperplanes.deepest_points(space, masks) < 0,
                           deepest_point=None)


def check_C(space: PolarSpace, e: embed.Embedding) -> Verdict:
    """Every arising hyperplane containing a trace must be singular, with
    deepest point on the hyperbolic line of the pair."""
    return _scan(batches(hyperplanes.arising_hyperplanes(e), space.n_points), _C_kernel(space))


# ---------------------------------------------------------------------------
# property (D)

def _D_kernel(space: PolarSpace):
    """Block: a hyperbolic line.  Checked: every point x.  Failing: the x whose
    singular hyperplane x^perp misses the line."""
    n = space.n_points
    collf = space.coll.astype(np.float32)

    def kernel(lines):
        missed = lines.rows().astype(np.float32) @ collf == 0

        def failures(k):
            line = lines.members[k]
            return ((n, {"point": _label(space, int(x)), "pair": _labels(space, lines.pairs[k]),
                         "hyperbolic_line": _labels(space, line[line < n])})
                    for x in np.flatnonzero(missed[k]))
        return np.full(len(lines), n), missed.any(axis=1), failures
    return kernel


def check_D(space: PolarSpace) -> Verdict:
    """Every singular hyperplane x^perp must meet every hyperbolic line."""
    return _scan(batches(hyperbolic.all_hyperbolic_lines(space), space.n_points),
                 _D_kernel(space))


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
            "lines": len(self.space.lines),
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

