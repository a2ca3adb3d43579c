"""The characterization predicates and their cross-equivalences.

Each property is one kernel over a batch of blocks: non-collinear pairs for
A and regular pairs, pairs of distinct points for centric triads, arising
hyperplanes for B' and C, hyperbolic lines for D and the whole space for
the symplectic test.  A kernel gives, by chunked float32 BLAS products or
bit-packed gathers, each block's instance count and whether it fails, and
`failures(k)`, which reads the same intermediates to yield the failing
instances of block k as (checked up to it, serialized witness).  B' and C
share their intermediates: the traces of the non-collinear pairs,
bit-packed once per space, and the count of contained traces kept on each
arising hyperplane by the first sweep that reaches it, so C sweeps only
the hyperplanes B' stopped before; a failing hyperplane's pairs are read
from the packed traces one chunk at a time, up to the first one asked for.
Each checker scans the blocks in canonical order and stops at the first
failing block, so failing verdicts carry the smallest witness.  Replay runs
the same kernel on a batch holding only the witness's block and accepts any
failure of that block: for B' and C, one count sweep of that hyperplane and
the chunks of its pairs up to the witness.  Witnesses use canonical point
labels, never indices.
full_report runs the whole battery and asserts the theorem matrix: any
violated biconditional raises EquivalenceViolation.
"""

from __future__ import annotations

import time

import numpy as np

from polarium import embed, hyperbolic, hyperplanes, linalg
from polarium.space import PolarSpace, batches, chunks, padded_columns, pair_batches

HOLDS = "holds"
FAILS = "fails"
SKIPPED = "skipped"

class EquivalenceViolation(Exception):
    """A proven biconditional failed on an instance: a bug, not a verdict."""


class Verdict:
    __slots__ = ("status", "witness", "checked", "reason", "millis")

    def __init__(self, status, witness=None, checked=0, reason=None, millis=0.0):
        self.status = status
        self.witness = witness
        self.checked = checked
        self.reason = reason
        self.millis = millis

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


def _scan(block_batches, kernel, t0) -> Verdict:
    """Run the kernel over the blocks in canonical order and stop at the
    first failing block.  `checked` counts the instances of the blocks before
    it plus the failing block's count up to its first failure."""
    checked = 0
    for blocks in block_batches:
        counts, fails, failures = kernel(blocks)
        if np.any(fails):
            k = int(np.argmax(fails))
            upto, witness = next(failures(k))
            return Verdict(FAILS, witness, checked + int(np.sum(counts[:k])) + int(upto),
                           millis=_ms(t0))
        checked += int(np.sum(counts))
    return Verdict(HOLDS, checked=checked, millis=_ms(t0))


# ---------------------------------------------------------------------------
# property (A)

def _A_kernel(space: PolarSpace):
    """Block: a non-collinear pair (a, b).  Checked: the generators M with
    M cap {a,b}^perp a hyperplane of M.  Failing: those missing {a,b}^perpperp."""
    gm = space.generators_matrix()
    gf = gm.astype(np.float32)
    size = int(space.subgenerators()[0][0].sum())
    collf = space.coll.astype(np.float32)

    def kernel(pairs):
        trace = hyperbolic.traces(space.coll, pairs)
        dperp = hyperbolic.double_perps(trace, collf).astype(np.float32)
        cand = trace @ gf.T == size
        bad = cand & (dperp @ gf.T == 0)
        counts = cand.sum(axis=1)

        def failures(k):
            return ((counts[k], _pair_witness(space, *pairs[k], generator=_labels(
                space, np.flatnonzero(gm[g])))) for g in np.flatnonzero(bad[k]))
        return counts, bad.any(axis=1), failures
    return kernel


def check_A(space: PolarSpace) -> Verdict:
    """For non-collinear a, b and generator M: if M cap {a,b}^perp is a
    hyperplane of M then M must meet the hyperbolic line {a,b}^perpperp."""
    t0 = time.perf_counter()
    width = max(space.n_points, len(space.generators_matrix()))
    return _scan(pair_batches(space.noncollinear_pairs(), width), _A_kernel(space), t0)


# ---------------------------------------------------------------------------
# regular pairs

def _regular_pairs_kernel(space: PolarSpace):
    """Block: a non-collinear pair (a, b).  Checked: the opposite pairs N, N'
    of sub-generators inside {a,b}^perp (the generators of the trace), in
    row-major order.  Failing: those with N^perp cap N'^perp != {a,b}^perpperp."""
    sg, sp = space.subgenerators()
    sgf, spf, spt = sg.astype(np.float32), sp.astype(np.float32), np.ascontiguousarray(sp.T)
    collf = space.coll.astype(np.float32)

    def kernel(pairs):
        ks, valid = padded_columns(spt[pairs[:, 0]] & spt[pairs[:, 1]])  # S_k inside {a,b}^perp
        upper = np.triu(valid[:, :, None] & valid[:, None, :], 1)
        perps = spf[ks]
        opp = upper & (perps @ sgf[ks].transpose(0, 2, 1) == 0)
        far = ~hyperbolic.double_perps(hyperbolic.traces(space.coll, pairs), collf)
        bad = opp & ((perps * far[:, None, :]) @ perps.transpose(0, 2, 1) > 0)

        def failures(k):
            upto = np.cumsum(opp[k]).reshape(opp[k].shape)
            for x, y in zip(*np.nonzero(bad[k])):
                kx, ky = ks[k, x], ks[k, y]
                extra = np.flatnonzero(sp[kx] & sp[ky] & far[k])[0]
                yield upto[x, y], _pair_witness(
                    space, *pairs[k], N=_labels(space, np.flatnonzero(sg[kx])),
                    N_prime=_labels(space, np.flatnonzero(sg[ky])),
                    extra_point=_label(space, int(extra)))
        return opp.sum(axis=(1, 2)), bad.any(axis=(1, 2)), failures
    return kernel


def check_regular_pairs(space: PolarSpace) -> Verdict:
    """Every pair of opposite points a, b must be regular: N^perp cap N'^perp
    = {a,b}^perpperp for all opposite generators N, N' of the trace."""
    t0 = time.perf_counter()
    n = space.n_points
    k_max = _most_inside(space, ~space.coll)
    width = max(len(space.subgenerators()[1]), k_max * max(n, k_max))
    return _scan(pair_batches(space.noncollinear_pairs(), width), _regular_pairs_kernel(space), t0)


def _most_inside(space: PolarSpace, mask) -> int:
    """The most sub-generators inside one {a,b}^perp over the pairs with
    mask[a, b]: it sizes the padded stacks of the pair kernels."""
    spf = space.subgenerators()[1].astype(np.float32)
    n = space.n_points
    return max(int((spf[:, s].T @ spf)[mask[s]].max(initial=0))
               for s in chunks(n, max(n, len(spf))))


# ---------------------------------------------------------------------------
# centric triads (the implementation of property (B))

def _triads_kernel(space: PolarSpace):
    """Block: a pair a < b of distinct points.  Checked: every c > b.  Failing:
    the c with no sub-generator in {a,b,c}^perp, i.e. no S_k^perp holding a, b
    and c: the c outside the OR of the bit-packed rows S_k^perp of the
    sub-generators inside {a,b}^perp."""
    sp = space.subgenerators()[1]
    n = space.n_points
    spt, bits = np.ascontiguousarray(sp.T), np.packbits(sp, axis=1)

    def kernel(pairs):
        b = pairs[:, 1]
        ks, valid = padded_columns(spt[pairs[:, 0]] & spt[b])  # S_k inside {a,b}^perp
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
    common perp (a point when n = 2)."""
    t0 = time.perf_counter()
    n = space.n_points
    distinct = ~np.eye(n, dtype=bool)
    packed = (n + 7) // 8  # bytes per bit-packed S_k^perp row
    width = max(len(space.subgenerators()[1]), n, _most_inside(space, distinct) * packed)
    pairs = np.argwhere(np.triu(distinct, 1))
    return _scan(pair_batches(pairs, width), _triads_kernel(space), t0)


# ---------------------------------------------------------------------------
# properties (B') and (C) over arising hyperplanes

def _arising_batches(e: embed.Embedding, width: int):
    """The arising hyperplanes of e, in `batches`."""
    arising = hyperplanes.arising_hyperplanes(e)
    return (arising[s] for s in batches(len(arising), width))


def _arising_kernel(space: PolarSpace, marked, **extra):
    """Block: an arising hyperplane h.  Checked: the non-collinear pairs whose
    trace h contains, counted once per hyperplane and kept on it, so B' and
    C share the sweep.  Failing: all of them when marked(hs) marks h, none
    otherwise; they are read from the packed traces as they are asked for."""
    def kernel(hs):
        counts, mark = hyperplanes.contained_counts(hs), marked(hs)

        def failures(k):
            functional = list(hs[k].provenance[2])
            return ((counts[k], _pair_witness(space, a, b, functional=functional, **extra))
                    for a, b in (hs[k].contained_pairs() if mark[k] else ()))
        return counts, mark & (counts > 0), failures
    return kernel


def _B_prime_kernel(space: PolarSpace):
    """Failing: an arising hyperplane containing a trace but no generator."""
    gf = space.generators_matrix().astype(np.float32)
    return _arising_kernel(space, lambda hs: (
        gf @ (~np.stack([h.mask for h in hs])).T.astype(np.float32) > 0).all(axis=0))


def check_B_prime(space: PolarSpace, e: embed.Embedding) -> Verdict:
    """Every arising hyperplane containing the trace of a non-collinear pair
    must contain a generator (equivalently have rank n)."""
    t0 = time.perf_counter()
    return _scan(_arising_batches(e, max(space.n_points, len(space.generators_matrix()))),
                 _B_prime_kernel(space), t0)


def _C_kernel(space: PolarSpace):
    """Failing: an arising hyperplane containing a trace but with no deepest
    point.  A deepest point p has h = p^perp, and p lies on {a,b}^perpperp
    exactly when {a,b}^perp is inside p^perp = h, so every contained pair
    fails when h has no deepest point and none fails otherwise."""
    return _arising_kernel(space, lambda hs: np.array(
        [h.deepest_point() is None for h in hs], dtype=bool), deepest_point=None)


def check_C(space: PolarSpace, e: embed.Embedding) -> Verdict:
    """Every arising hyperplane containing a trace must be singular, with
    deepest point on the hyperbolic line of the pair."""
    t0 = time.perf_counter()
    return _scan(_arising_batches(e, space.n_points), _C_kernel(space), t0)


# ---------------------------------------------------------------------------
# property (D)

def _D_kernel(space: PolarSpace):
    """Block: a hyperbolic line.  Checked: every point x.  Failing: the x whose
    singular hyperplane x^perp misses the line."""
    n = space.n_points
    collf = space.coll.astype(np.float32)

    def kernel(lines):
        members = np.zeros((len(lines), n + 1), dtype=np.float32)  # column n: padding
        members[np.arange(len(lines))[:, None], lines.members] = 1
        missed = members[:, :n] @ collf == 0

        def failures(k):
            h = lines[k]
            return ((n, {"point": _label(space, int(x)), "pair": _labels(space, h.pair),
                         "hyperbolic_line": _labels(space, h.points)})
                    for x in np.flatnonzero(missed[k]))
        return np.full(len(lines), n), missed.any(axis=1), failures
    return kernel


def check_D(space: PolarSpace) -> Verdict:
    """Every singular hyperplane x^perp must meet every hyperbolic line."""
    t0 = time.perf_counter()
    hlines = hyperbolic.all_hyperbolic_lines(space)
    return _scan((hlines[s] for s in batches(len(hlines), space.n_points)),
                 _D_kernel(space), t0)


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
    t0 = time.perf_counter()
    if not space.is_form_backed:
        return Verdict(SKIPPED, reason="no embedding (combinatorial space)",
                       millis=_ms(t0))
    return _scan([[space]], _symplectic_kernel(space), t0)


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
    """Run every checker and assert the biconditionals between the properties."""
    verdicts = {}
    verdicts["A"] = check_A(space)
    verdicts["regular_pairs"] = check_regular_pairs(space)
    verdicts["B_triads"] = check_centric_triads(space)
    if space.is_form_backed:
        nat = embed.natural_embedding(space)
        verdicts["B_prime"] = check_B_prime(space, nat)
        verdicts["C"] = check_C(space, nat)
    else:
        reason = "no embedding (combinatorial space)"
        verdicts["B_prime"] = Verdict(SKIPPED, reason=reason)
        verdicts["C"] = Verdict(SKIPPED, reason=reason)
    verdicts["D"] = check_D(space)
    verdicts["symplectic"] = is_symplectic(space)

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


def _pair_block(space, witness):
    a, b = space.index_of(witness["a"]), space.index_of(witness["b"])
    return None if space.collinear(a, b) else np.array([[a, b]])


def _triad_block(space, witness):
    a, b = space.index_of(witness["a"]), space.index_of(witness["b"])
    return np.array([[a, b]]) if a < b else None


def _arising_block(space, witness):
    e = embed.natural_embedding(space)
    phi = tuple(witness["functional"])
    if phi not in linalg.dual_hyperplanes(e.field, e.dim):
        return None
    return [hyperplanes.hyperplane_from_functional(e, phi)]


def _hyperbolic_block(space, witness):
    a, b = (space.index_of(p) for p in witness["pair"])
    return None if space.collinear(a, b) else hyperbolic.hyperbolic_lines(space, np.array([[a, b]]))


# property -> (witness -> a batch of its one block, or None if the scan has
#              no such block; space -> the checker's kernel)
_REPLAY = {
    "A": (_pair_block, _A_kernel),
    "regular_pairs": (_pair_block, _regular_pairs_kernel),
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


def _ms(t0):
    return (time.perf_counter() - t0) * 1000.0
