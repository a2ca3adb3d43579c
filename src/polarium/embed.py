"""Projective embeddings of form-backed polar spaces.

An Embedding maps every point to a canonical projective point of GF(q)^d
and is *full*: each source line maps onto all points of a projective line.
It carries the bilinear (and, when alive, quadratic) form describing its
image, so quotients by radical subspaces and the perp identities of the
embedded space can be computed.  Preimage queries run on a hash of the
canonical image points.
"""

from __future__ import annotations

import numpy as np

from polarium import linalg
from polarium.forms import (ALTERNATING, QUADRATIC, Form, orthogonal_complement,
                            parabolic_quadric_form, restrict, symplectic_form)
from polarium.linalg import Subspace, quotient_map, span
from polarium.space import PolarSpace


class EmbeddingError(Exception):
    """Injectivity or fullness failed; the requested quotient is inadmissible."""


class Embedding:
    """An injective, line-full map of a polar space into PG(d-1, q)."""

    def __init__(self, source: PolarSpace, images, bilinear: Form,
                 quadratic: Form | None = None, *, kind: str = "natural",
                 is_minimal: bool | None = None, is_universal: bool = False):
        self.source = source
        self.field = bilinear.field
        self.dim = bilinear.dim
        self.images = [tuple(v) for v in images]
        self.image_rows = np.array(self.images, dtype=np.intp)  # converted once
        self.bilinear = bilinear
        self.quadratic = quadratic
        self.kind = kind
        self.is_universal = is_universal
        self.is_minimal = (bilinear.radical().rank == 0
                           if is_minimal is None else is_minimal)
        self._preimage = {}
        self._arising = None  # hyperplanes.arising_hyperplanes memoises its rows here
        for i, v in enumerate(self.images):
            if v in self._preimage:
                raise EmbeddingError(f"images of points {self._preimage[v]} and {i} collide")
            self._preimage[v] = i
        self._verify_full()

    def _verify_full(self):
        """Each source line must map onto the q + 1 canonical points of the
        projective line through the images u, v of its first two points.
        From an echelon pair of the line, a with the earlier pivot and b
        with a later one (u and u - v normalized when u and v share one),
        the points b and a + lam*b are canonical as they stand, so the
        sorted codes of the line's images are compared with theirs, with no
        table of the q^d vectors; an image that is no canonical point gets
        no code."""
        field, images, members = self.field, self.image_rows, self.source.line_members
        q = field.q
        bad = np.flatnonzero(np.count_nonzero(members < len(images), axis=1) != q + 1)
        if len(members) and not len(bad):
            codes = linalg.point_codes(q, images)
            codes[(linalg.normalize_rows(field, images) != images).any(axis=1)] = -1
            u, v = images[members[:, 0]], images[members[:, 1]]
            pu, pv = (u != 0).argmax(axis=1), (v != 0).argmax(axis=1)
            a, b = np.where((pu <= pv)[:, None], u, v), np.where((pu < pv)[:, None], v, u)
            tie = pu == pv
            b[tie] = linalg.normalize_rows(field, field.add_table[u[tie], field.neg_table[v[tie]]])
            on = field.add_table[a[:, None], field.mul_table[np.arange(q)[:, None], b[:, None]]]
            want = np.sort(np.column_stack([linalg.point_codes(q, b), linalg.point_codes(q, on)]),
                           axis=1)
            bad = np.flatnonzero((np.sort(codes[members], axis=1) != want).any(axis=1))
        if len(bad):
            raise EmbeddingError(f"{self.source.name}: line {self.source.lines[bad[0]]} "
                                 "does not map onto a projective line")

    def preimage(self, point):
        """Source point index of a canonical target point, or None."""
        return self._preimage.get(tuple(point))

    def preimage_of_subspace(self, sub: Subspace) -> list:
        return sorted(i for v, i in self._preimage.items() if sub.contains(v))

    def image_points(self) -> set:
        return set(self.images)

    def __repr__(self):
        return (f"Embedding({self.source.name} -> PG({self.dim - 1},"
                f"{self.field.q}), kind={self.kind})")


def natural_embedding(space: PolarSpace) -> Embedding:
    """Identity-on-coordinates inclusion of a form-backed space."""
    return Embedding(space, space.vectors, *_natural_forms(space))


def _natural_forms(space: PolarSpace) -> tuple:
    """(bilinear, quadratic) of the natural embedding: the polarization and
    the form itself for a quadric, else the form and None."""
    if not space.is_form_backed:
        raise ValueError(f"{space.name} carries no form")
    form = space.form
    return (form.polarization(), form) if form.kind == QUADRATIC else (form, None)


def quotient_embedding(e: Embedding, x: Subspace) -> Embedding:
    """Quotient of an embedding by a subspace of the radical of its bilinear form."""
    rad = e.bilinear.radical()
    if not rad.contains_subspace(x):
        raise EmbeddingError("quotient subspace must lie inside the radical")
    return _quotient(e, x, x.rank == rad.rank)


def _quotient(e: Embedding, x: Subspace, is_minimal: bool) -> Embedding:
    """The quotient by x inside Rad(f), whose form has radical Rad(f)/x: it is
    minimal exactly when x is all of Rad(f)."""
    if x.rank == 0:
        return Embedding(e.source, e.images, e.bilinear, e.quadratic, kind=e.kind,
                         is_minimal=is_minimal, is_universal=e.is_universal)
    qm = quotient_map(e.field, e.dim, x)
    reduced = [qm.apply(v) for v in e.images]
    if not all(map(any, reduced)):
        raise EmbeddingError("a point image collapses into the quotient kernel")
    images = linalg.normalize_rows(e.field, reduced).tolist()
    basis = [tuple(1 if i == c else 0 for i in range(e.dim)) for c in qm.coords]
    quad = None  # q is additive on Rad(f), so it vanishes on x iff on x's rows
    if e.quadratic is not None and all(map(e.quadratic.vanishes, x.rows)):
        quad = restrict(e.quadratic, basis)
    return Embedding(e.source, images, restrict(e.bilinear, basis), quad, kind="quotient",
                     is_minimal=is_minimal)


def minimal_embedding(space: PolarSpace, nat: Embedding | None = None) -> Embedding:
    """Quotient of the natural embedding, `nat` when already built, by the full
    radical of the polarization (the nucleus, in the characteristic-2 quadric case)."""
    if nat is not None:
        return nat if nat.is_minimal else _quotient(nat, nat.bilinear.radical(), True)
    bilinear, quadratic = _natural_forms(space)
    rad = bilinear.radical()
    nat = Embedding(space, space.vectors, bilinear, quadratic, is_minimal=rad.rank == 0)
    return nat if rad.rank == 0 else _quotient(nat, rad, True)


def universal_embedding_sp_char2(space: PolarSpace) -> Embedding:
    """The universal embedding of W(2n-1, q), q even: the coordinate section
    v -> (sqrt(Q_w(v)), v) onto the parabolic quadric Q(2n, q), whose
    quotient by the nucleus coordinate recovers the natural embedding."""
    form = space.form
    if form is None or form.kind != ALTERNATING:
        raise ValueError(f"{space.name} is not a symplectic form-backed space")
    field = form.field
    if field.p != 2:
        raise ValueError("the proper universal embedding exists only for even q")
    n = form.dim // 2
    if form.matrix != symplectic_form(field, n).matrix:
        raise ValueError("universal section assumes the canonical symplectic Gram")
    target = parabolic_quadric_form(field, n)
    vecs = np.array(space.vectors)
    root = np.array([field.sqrt(a) for a in field.elements])
    qw = linalg.gf_dot(field, vecs[:, 0::2], vecs[:, 1::2])
    images = linalg.normalize_rows(field, np.column_stack([root[qw], vecs])).tolist()
    return Embedding(space, images, target.polarization(), target,
                     kind="universal", is_minimal=False, is_universal=True)


# ---------------------------------------------------------------------------
# embedded perp identities

def check_emb_identities(e: Embedding, a: int, b: int) -> dict:
    """The double-perp identities of the embedded space for a non-collinear
    pair: (i) the images of {a,b}^perp span the f-perp of the image pair,
    (ii) {a,b}^perpperp is the preimage of the projective line through the
    images, (iii) for opposite generators N, N' of {a,b}^perp, equality
    {a,b}^perpperp = N^perp cap N'^perp holds iff dim = 2n."""
    space = e.source
    if space.collinear(a, b):
        raise ValueError("identities are stated for non-collinear pairs")
    if e.bilinear.radical().rank != 0:
        raise ValueError("identities need an embedding with nondegenerate form")
    field = e.field
    trace = space.perp([a, b])
    dperp = set(space.perp(trace))

    img_span = span(field, e.dim, [e.images[p] for p in trace])
    f_perp = orthogonal_complement(e.bilinear, [e.images[a], e.images[b]])
    identity_span = img_span == f_perp
    codim2 = img_span.rank == e.dim - 2

    line = span(field, e.dim, [e.images[a], e.images[b]])
    preim = set(e.preimage_of_subspace(line))
    identity_line = preim == dperp

    # N, N': the first opposite pair of sub-generators inside {a,b}^perp
    ks, opp = space.opposite_subgenerators(np.array([[a, b]]))
    opposite = np.argwhere(opp[0])
    if not len(opposite):
        raise ValueError("no opposite generator pair in the trace space")
    kx, ky = ks[0, opposite[0]]
    sp = space.subgenerators()[1]
    joint = set(np.flatnonzero(sp[kx] & sp[ky]).tolist())
    is_2n = e.dim == 2 * space.rank
    identity_gen = (joint == dperp) == is_2n

    return {
        "perp_span_equals_f_perp": identity_span,
        "perp_span_codim_2": codim2,
        "double_perp_is_line_preimage": identity_line,
        "gen_perp_equality": joint == dperp,
        "dim_is_2n": is_2n,
        "gen_perp_matches_dim": identity_gen,
    }
