"""Hyperplanes of a polar space, held as membership rows.

A hyperplane is a proper subspace meeting each line in one point or all of
it, as the summed gathered rows of the line's members show.  The arising
hyperplanes of an embedding, the preimages of projective hyperplanes, are
the rows of one `ArisingHyperplanes`, one per canonical dual vector, read
off by `linalg.gf_matmul` per batch, counted from dual lines and ranked by
one greedy clique each (`PolarSpace.max_singular_rank`).  The predicates
are functions of a space and mask rows: the deepest point p with
p^perp = h (h is singular when it has one) and the classification;
rank-1 hyperplanes of rank-2 spaces are ovoids.
"""

from __future__ import annotations

import numpy as np

from polarium import hyperbolic, linalg
from polarium.embed import Embedding
from polarium.space import PolarSpace, SpaceError, chunks, greedy_cliques, member_counts

SINGULAR = "singular"
OVOID = "ovoid"
OTHER = "other"


class ArisingHyperplanes:
    """The hyperplanes arising from one embedding, as rows: functionals[k]
    induces the read-only membership row masks[k] of rank ranks[k], and
    counts[k] is how many non-collinear pairs have their trace inside it."""

    __slots__ = ("functionals", "masks", "counts", "ranks")

    def __init__(self, functionals, masks, counts, ranks):
        self.functionals, self.masks, self.counts, self.ranks = functionals, masks, counts, ranks

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, s: slice) -> "ArisingHyperplanes":
        return ArisingHyperplanes(*(getattr(self, a)[s] for a in self.__slots__))


def contained_pairs(space: PolarSpace, mask):
    """The non-collinear pairs [a, b], a < b, whose trace {a,b}^perp lies
    inside the hyperplane `mask`, in row-major order: no packed trace bit
    outside it.  Each chunk's traces are the ANDs of its pairs' packed
    perps, built as they are read, so a reader that stops at the first pair
    reads only the chunks up to it; each chunk's bytes outside the
    hyperplane are ORed column by column (transposed), not row by row, since
    a row holds only (n + 7) // 8 bytes."""
    pairs, outside = space.noncollinear_pairs(), np.packbits(~mask)
    for s in chunks(len(pairs), len(outside)):
        spills = np.ascontiguousarray((space.perps(pairs[s]) & outside).T).any(axis=0)
        yield from pairs[s][~spills].tolist()


def deepest_points(space: PolarSpace, masks) -> np.ndarray:
    """For each row h of `masks`, the point p with p^perp = h, or -1 if there
    is none: the packed perp of each point of h against h's packed row."""
    ks, ps = masks.nonzero()
    rows, packed = space.packed_perps()[1], np.packbits(masks, axis=1)
    same = (rows.take(ps, axis=0) == packed.take(ks, axis=0)).all(axis=1)
    ks, ps = ks[same], ps[same]
    out = np.full(len(masks), -1)
    out[ks] = ps
    if len(ks) > np.count_nonzero(out + 1):  # a row with several
        k = np.flatnonzero(np.bincount(ks) > 1)[0]
        raise SpaceError(f"{space.name}: hyperplane with several deepest points "
                         f"{ps[ks == k].tolist()}")
    return out


def classify(space: PolarSpace, mask) -> str:
    """SINGULAR with a deepest point, OVOID at rank 1 in a rank-2 space,
    else OTHER."""
    if deepest_points(space, mask[None])[0] >= 0:
        return SINGULAR
    if space.rank == 2 and space.max_singular_rank(mask) == 1:
        return OVOID
    return OTHER


def _verify_axiom(space: PolarSpace, masks: np.ndarray):
    """Every row of `masks` must be a proper nonempty point set that each line
    meets in exactly one point or lies inside, counted by `member_counts` in
    full chunks of lines; the first bad row is named, at its first bad line."""
    sizes = np.count_nonzero(masks, axis=1)
    if ((sizes == 0) | (sizes == space.n_points)).any():
        raise SpaceError(f"{space.name}: hyperplane must be a proper nonempty subspace")
    n_lines = len(space.line_members)
    first = np.full(len(masks), n_lines)  # each row's first bad line
    for s, meet in member_counts(masks.T, space.line_members):
        bad = ((meet != 1) & (meet != meet[:, -1:]))[:, :-1]
        hit = bad.any(axis=0) & (first == n_lines)
        first[hit] = s.start + bad[:, hit].argmax(axis=0)
    if (first < n_lines).any():
        h = np.argmax(first < n_lines)
        line = space.lines[first[h]]
        if not masks[h, list(line)].any():
            raise SpaceError(f"{space.name}: line {line} misses the hyperplane")
        raise SpaceError(f"{space.name}: {line} meets the hyperplane in "
                         "more than one point but not fully")


def arising_hyperplanes(e: Embedding) -> ArisingHyperplanes:
    """One hyperplane per canonical dual vector of the target space, built
    once per embedding and memoised on it, read-only: the sections in chunks
    of functionals, one check of the hyperplane axiom over them all, then
    the counts of `_dual_line_counts` and all greedy ranks.  Distinct
    functionals induce distinct hyperplanes when the image spans the target,
    as a hyperplane spans its functional's kernel; when it does not, some
    nonzero functional vanishes on every point, and `_verify_axiom` rejects
    that section."""
    if e._arising is None:
        duals = linalg.proj_rows(e.field, e.dim)
        masks = np.concatenate([linalg.gf_matmul(e.field, duals[s], e.image_rows) == 0
                                for s in chunks(len(duals), e.source.n_points)])
        _verify_axiom(e.source, masks)
        counts = _dual_line_counts(e, duals)
        ranks = e.source._rank(greedy_cliques(e.source.coll, masks))
        masks.flags.writeable = counts.flags.writeable = ranks.flags.writeable = False
        e._arising = ArisingHyperplanes(duals, masks, counts, ranks)
    return e._arising


def _dual_line_counts(e: Embedding, duals) -> np.ndarray:
    """Per row phi of `duals` (`proj_rows`), how many non-collinear pairs
    have their trace in its hyperplane: |l|(|l| - 1)/2 for each hyperbolic
    line l, with pair (a, b), whose dual line <B(., a), B(., b)> holds phi,
    by one `bincount` onto the rows `line_points` gives, with no code search.
    That is exact given (1) B(x, y) = 0 just for collinear or equal images,
    (2) the images are all singular points of Q (the quadratic form, else
    B(x, x)), (3) rank >= 2, as by Witt the images of l^perp, the singular
    points of W = <a, b>^perp, span W: by (3) a line meets a^perp, so a
    singular line through a meets b^perp in some w of W; a point x not
    collinear with w has a part u in W with B(w, u) != 0, and w' = u + c w
    is singular for some c; H = <w, w'> is non-degenerate, and each u of
    H^perp cap W is (u + w + c w') - w - c w', the first term singular for
    some c (Q(u) + c B(w, w') = 0, or a trace equation for a Hermitian B)."""
    space, field, n = e.source, e.field, e.source.n_points
    form = e.bilinear if e.quadratic is None else e.quadratic
    if space.rank < 2:
        raise SpaceError(f"{space.name}: rank {space.rank} < 2 has no dual lines")
    if not np.array_equal(e.bilinear.gram(e.image_rows) == 0, space.coll):
        raise SpaceError(f"{space.name}: collinearity is not orthogonality of the images")
    if not (form.vanishing(e.image_rows).all() and form.vanishing(duals).sum() == n):
        raise SpaceError(f"{space.name}: the images are not the singular points of the form")
    lines, partners = hyperbolic.all_hyperbolic_lines(space), e.bilinear.partners(e.image_rows)
    sizes = np.count_nonzero(lines.members < n, axis=1)
    pairs, counts = sizes * (sizes - 1) // 2, np.zeros(len(duals))
    for s in chunks(len(lines), (field.q + 1) * e.dim):
        a, b = partners[lines.pairs[s]].transpose(1, 0, 2)
        on = linalg.line_points(field, a, b)
        counts += np.bincount(on.ravel(), np.repeat(pairs[s], field.q + 1), len(duals))
    return counts.astype(np.int64)


def hyperplane_from_functional(e: Embedding, phi) -> ArisingHyperplanes:
    """The one hyperplane a functional induces, from its section row alone,
    its count read from its contained pairs, with no hyperbolic line built."""
    phis = np.array([phi])
    masks = linalg.gf_matmul(e.field, phis, e.image_rows) == 0
    _verify_axiom(e.source, masks)
    count = sum(1 for _ in contained_pairs(e.source, masks[0]))
    return ArisingHyperplanes(phis, masks, np.array([count]),
                              np.array([e.source.max_singular_rank(masks[0])]))
