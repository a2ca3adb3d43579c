"""Hyperplanes of a polar space and their classification.

A hyperplane is a proper subspace meeting every line.  Singular hyperplanes
are point perps p^perp with deepest point p; hyperplanes arising from an
embedding are preimages of projective hyperplanes, one per canonical dual
vector, read off as section rows: the points whose image the functional
sends to 0, by one `linalg.gf_dot` per batch.  Classification computes the
rank (largest singular subspace inside) and searches for a deepest point;
rank-1 hyperplanes of rank-2 spaces are ovoids.
"""

from __future__ import annotations

import numpy as np

from polarium import linalg
from polarium.embed import Embedding
from polarium.space import PolarSpace, SpaceError, chunks

SINGULAR = "singular"
OVOID = "ovoid"
OTHER = "other"


class Hyperplane:
    """A proper subspace meeting every line, with provenance metadata."""

    __slots__ = ("space", "mask", "points", "provenance", "_deepest", "_searched",
                 "_contained")

    def __init__(self, space: PolarSpace, points, provenance):
        mask = np.zeros(space.n_points, dtype=bool)
        mask[list(points)] = True
        _verify_axiom(space, mask[None])
        self._set(space, mask, provenance)

    def _set(self, space, mask, provenance) -> "Hyperplane":
        """Fill the fields from a mask whose axiom check has run."""
        mask.flags.writeable = False
        self.space = space
        self.mask = mask
        self.points = tuple(np.flatnonzero(mask).tolist())
        self.provenance = provenance
        self._deepest = None
        self._searched = False
        self._contained = None
        return self

    def deepest_point(self):
        """The unique p with H = p^perp, if one exists."""
        if not self._searched:
            pts = np.flatnonzero(self.mask)
            found = pts[(self.space.coll[pts] == self.mask).all(axis=1)].tolist()
            if len(found) > 1:
                raise SpaceError(f"{self.space.name}: hyperplane with several "
                                 f"deepest points {found}")
            self._deepest = found[0] if found else None
            self._searched = True
        return self._deepest

    def contained_pairs(self):
        """The non-collinear pairs [a, b], a < b, whose trace {a,b}^perp lies
        inside the hyperplane, in row-major order: no packed trace bit
        outside it.  The traces are read one chunk at a time, so a reader
        that stops at the first pair reads only the chunks up to it."""
        bits, outside = self.space.packed_traces(), np.packbits(~self.mask)
        pairs = self.space.noncollinear_pairs()
        for s in chunks(len(bits), len(outside)):
            yield from pairs[s][~(bits[s] & outside).any(axis=1)].tolist()

    def rank(self) -> int:
        """n if a generator lies inside, else n - 1: every generator meets a
        hyperplane in itself or in a hyperplane of itself."""
        outside = self.space.generators_matrix() & ~self.mask
        return self.space.rank - bool(outside.any(axis=1).all())

    def is_singular(self) -> bool:
        return self.deepest_point() is not None

    def classification(self) -> str:
        if self.is_singular():
            return SINGULAR
        if self.space.rank == 2 and self.rank() == 1:
            return OVOID
        return OTHER

    def __repr__(self):
        return (f"Hyperplane({self.space.name}, {len(self.points)} points, "
                f"{self.provenance})")


def contained_counts(hs) -> np.ndarray:
    """How many non-collinear pairs have their trace inside each hyperplane
    of `hs` (of one space), memoised on the hyperplane: those not yet
    counted share one sweep."""
    todo = [h for h in hs if h._contained is None]
    if todo:
        for h, count in zip(todo, _count_contained(todo).tolist()):
            h._contained = count
    return np.array([h._contained for h in hs], dtype=np.int64)


def _count_contained(hs) -> np.ndarray:
    """One sweep over the packed traces of the space of `hs`, in chunks: a
    trace lies inside h when it has no point outside h."""
    space = hs[0].space
    n, bits = space.n_points, space.packed_traces()
    outside = (~np.stack([h.mask for h in hs])).T.astype(np.float32)
    counts = np.zeros(len(hs), dtype=np.int64)
    for s in chunks(len(bits), max(n, len(hs))):
        traces = np.unpackbits(bits[s], axis=1, count=n).astype(np.float32)
        counts += np.count_nonzero(traces @ outside == 0, axis=0)
    return counts


def _verify_axiom(space: PolarSpace, masks: np.ndarray):
    """Every row of `masks` must be a proper nonempty point set that each line
    meets in exactly one point or lies inside."""
    sizes = np.count_nonzero(masks, axis=1)
    if ((sizes == 0) | (sizes == space.n_points)).any():
        raise SpaceError(f"{space.name}: hyperplane must be a proper nonempty subspace")
    if not space.lines:
        return
    lm = space.lines_matrix
    meet = masks.astype(np.float32) @ lm.T.astype(np.float32)
    bad = np.argwhere((meet != 1) & (meet != lm.sum(axis=1)))
    if len(bad):
        h, k = bad[0]
        if meet[h, k] == 0:
            raise SpaceError(f"{space.name}: line {space.lines[k]} misses the hyperplane")
        raise SpaceError(f"{space.name}: {space.lines[k]} meets the hyperplane in "
                         "more than one point but not fully")


def singular_hyperplane(space: PolarSpace, p: int) -> Hyperplane:
    """p^perp with deepest point p."""
    members = space.perp([p])
    h = Hyperplane(space, members, ("singular", space.points[p]))
    if h.deepest_point() != p:
        raise SpaceError(f"{space.name}: the perp of {space.points[p]} has deepest "
                         f"point {h.deepest_point()}")
    return h


def _sections(e: Embedding, phis) -> np.ndarray:
    """sections[k, i]: functional phis[k] vanishes on the image of point i."""
    return linalg.gf_dot(e.field, np.asarray(phis)[:, None], e.images) == 0


def _arising(e: Embedding) -> tuple:
    """(functionals, sections, hyperplanes) of an embedding, built once and
    memoised on it, in chunks of functionals, each chunk checked against
    the hyperplane axiom.  Distinct functionals must induce distinct
    hyperplanes (the image spans the target); a collision is reported as an
    anomaly."""
    if e._arising is None:
        space = e.source
        duals = linalg.dual_hyperplanes(e.field, e.dim)
        blocks = []
        for s in chunks(len(duals), max(space.n_points, len(space.lines))):
            blocks.append(_sections(e, duals[s]))
            _verify_axiom(space, blocks[-1])
        sections = np.concatenate(blocks)
        out, seen = [], {}
        for phi, row in zip(duals, sections):
            first = seen.setdefault(row.tobytes(), phi)
            if first != phi:
                raise SpaceError(f"{space.name}: functionals {first} and {phi} "
                                 "induce the same hyperplane (image does not span)")
            out.append(Hyperplane.__new__(Hyperplane)._set(space, row, ("arising", e.kind, phi)))
        e._arising = (duals, sections, out)
    return e._arising


def arising_hyperplanes(e: Embedding) -> list:
    """One hyperplane per canonical dual vector of the target space, built
    once per embedding."""
    return _arising(e)[2]


def hyperplane_from_functional(e: Embedding, phi) -> Hyperplane:
    """The hyperplane one functional induces, from its section row alone."""
    members = np.flatnonzero(_sections(e, [phi])[0])
    return Hyperplane(e.source, members, ("arising", e.kind, tuple(phi)))


def find_inducing_functional(e: Embedding, h: Hyperplane):
    """A canonical dual vector whose section under e is exactly h, or None."""
    duals, sections, _ = _arising(e)
    hits = np.flatnonzero((sections == h.mask).all(axis=1))
    return duals[hits[0]] if len(hits) else None
