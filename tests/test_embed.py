import itertools
import random

import pytest

from polarium import embed
from polarium.embed import (EmbeddingError, check_emb_identities, minimal_embedding,
                            natural_embedding, quotient_embedding,
                            universal_embedding_sp_char2)
from polarium.forms import ALTERNATING, QUADRATIC, Form, parabolic_quadric_form
from polarium.gf import Field
from polarium.linalg import enumerate_points, normalize, proj_points, quotient_map, span


def test_natural_dimensions(space_for):
    assert natural_embedding(space_for("W(3,2)")).dim == 4  # = 2n
    assert natural_embedding(space_for("Q(4,2)")).dim == 5  # > 2n
    natural_embedding(space_for("H(3,4)"))  # fullness verified at build


def test_non_full_embedding_rejected(space_for):
    # injective, but swapping two non-collinear images breaks a line
    w = space_for("W(3,2)")
    b = next(i for i in range(w.n_points) if not w.collinear(0, i))
    images = list(w.vectors)
    images[0], images[b] = images[b], images[0]
    with pytest.raises(EmbeddingError, match="does not map onto a projective line"):
        embed.Embedding(w, images, w.form)
    # lines of five points cannot map onto the three-point lines of PG(4,2)
    grid, gf2 = space_for("grid(4)"), Field(2)
    with pytest.raises(EmbeddingError, match="does not map onto a projective line"):
        embed.Embedding(grid, proj_points(gf2, 5)[:grid.n_points],
                        parabolic_quadric_form(gf2, 2).polarization())


def test_natural_requires_form(space_for):
    with pytest.raises(ValueError):
        natural_embedding(space_for("grid(4)"))


def test_quotient_embedding_nucleus(space_for):
    q42 = space_for("Q(4,2)")
    nat = natural_embedding(q42)
    rad = nat.bilinear.radical()
    assert rad.rank == 1
    quo = quotient_embedding(nat, rad)
    assert quo.dim == 4
    # image is ALL of PG(3,2)
    assert len(quo.image_points()) == 15 == (2 ** 4 - 1)

    q62 = space_for("Q(6,2)")
    nat6 = natural_embedding(q62)
    quo6 = quotient_embedding(nat6, nat6.bilinear.radical())
    assert quo6.dim == 6
    assert len(quo6.image_points()) == 63 == (2 ** 6 - 1)


def test_quotient_collapse_rejected(space_for):
    # under the zero form every vector is radical, point images included
    w = space_for("W(3,2)")
    e = embed.Embedding(w, w.vectors, Form(ALTERNATING, w.field, [[0] * 4] * 4))
    with pytest.raises(EmbeddingError, match="collapses into the quotient kernel"):
        quotient_embedding(e, span(w.field, 4, [w.vectors[0]]))


def test_quotient_by_zero_is_identity(space_for):
    q42 = space_for("Q(4,2)")
    nat = natural_embedding(q42)
    zero = span(nat.field, nat.dim, [])
    same = quotient_embedding(nat, zero)
    assert same.images == nat.images and same.dim == nat.dim


def test_quotient_rejects_non_radical(space_for):
    w = space_for("W(3,2)")
    nat = natural_embedding(w)
    line = span(nat.field, 4, [(1, 0, 0, 0)])
    with pytest.raises(EmbeddingError):
        quotient_embedding(nat, line)


def test_minimal_embeddings(space_for):
    assert minimal_embedding(space_for("Q(4,2)")).dim == 4
    assert minimal_embedding(space_for("Q(4,3)")).dim == 5  # radical trivial
    w = space_for("W(3,3)")
    m = minimal_embedding(w)
    assert m.dim == 4 and m.images == natural_embedding(w).images


@pytest.mark.parametrize("name", ["W(3,2)", "Q(4,2)", "Q(4,3)", "Q(6,2)", "H(3,4)"])
def test_minimal_embedding_reduces_once(space_for, monkeypatch, name):
    # one Rad(f) per minimal embedding; is_minimal is passed in, never
    # recomputed, so it must still say whether the form's radical is trivial
    s = space_for(name)
    calls = []
    radical = Form.radical
    monkeypatch.setattr(Form, "radical", lambda f: calls.append(f) or radical(f))
    m = minimal_embedding(s)
    assert len(calls) == 1 and m.is_minimal
    monkeypatch.undo()
    nat = natural_embedding(s)
    rad = nat.bilinear.radical()
    for e in (m, nat, quotient_embedding(nat, span(nat.field, nat.dim, [])),
              quotient_embedding(nat, rad)):
        assert e.is_minimal == (e.bilinear.radical().rank == 0), e


def test_universal_embedding_w32(space_for):
    w32 = space_for("W(3,2)")
    uni = universal_embedding_sp_char2(w32)
    assert uni.dim == 5 and uni.is_universal
    q42 = space_for("Q(4,2)")
    assert uni.image_points() == set(q42.vectors)
    # quotient by the nucleus recovers the natural embedding point-for-point
    rec = quotient_embedding(uni, uni.bilinear.radical())
    assert rec.images == natural_embedding(w32).images


def test_universal_embedding_w34(space_for):
    w34 = space_for("W(3,4)")
    uni = universal_embedding_sp_char2(w34)
    assert uni.dim == 5
    q44 = space_for("Q(4,4)")
    assert uni.image_points() == set(q44.vectors)


def test_universal_embedding_rejects_odd_q(space_for):
    with pytest.raises(ValueError):
        universal_embedding_sp_char2(space_for("W(3,3)"))
    with pytest.raises(ValueError):
        universal_embedding_sp_char2(space_for("Q(4,2)"))


def test_emb_identities_w32(space_for):
    w = space_for("W(3,2)")
    e = natural_embedding(w)
    a = w.index_of((1, 0, 0, 0))
    b = w.index_of((0, 1, 0, 0))
    r = check_emb_identities(e, a, b)
    assert r["perp_span_equals_f_perp"] and r["perp_span_codim_2"]
    assert r["double_perp_is_line_preimage"]
    assert r["dim_is_2n"] and r["gen_perp_equality"]


def test_emb_identities_q43(space_for):
    q43 = space_for("Q(4,3)")
    e = natural_embedding(q43)
    a = 0
    b = next(i for i in range(q43.n_points) if not q43.collinear(0, i))
    r = check_emb_identities(e, a, b)
    assert r["perp_span_codim_2"] and r["double_perp_is_line_preimage"]
    assert not r["dim_is_2n"] and not r["gen_perp_equality"]  # strict containment
    assert r["gen_perp_matches_dim"]


def test_emb_identities_q42_minimal(space_for):
    q42 = space_for("Q(4,2)")
    e = minimal_embedding(q42)
    a = 0
    b = next(i for i in range(q42.n_points) if not q42.collinear(0, i))
    r = check_emb_identities(e, a, b)
    assert r["dim_is_2n"] and r["gen_perp_equality"]


def test_emb_identities_reject_collinear(space_for):
    w = space_for("W(3,2)")
    e = natural_embedding(w)
    a, b = w.lines[0][:2]
    with pytest.raises(ValueError):
        check_emb_identities(e, a, b)


def test_minimal_images_are_symplectic_only_when_onto(space_for):
    # if an embedding's image is the whole target point set then its
    # dimension is 2n (over the catalog)
    for name in ["W(3,2)", "W(3,3)", "Q(4,2)", "Q(4,3)", "Q-(5,2)", "H(3,4)",
                 "Q+(3,3)", "W(5,2)", "Q(6,2)"]:
        s = space_for(name)
        e = minimal_embedding(s)
        q = e.field.q
        onto = len(e.image_points()) == (q ** e.dim - 1) // (q - 1)
        if onto:
            assert e.dim == 2 * s.rank, name


def test_quotient_functoriality_degenerate_nesting(space_for):
    # Rad(f_q) of Q(6,2) has rank 1, so the only nested chain is
    # 0 <= nucleus: quotient by zero then by the nucleus must equal the
    # direct nucleus quotient (the test degenerates to identity composition)
    q62 = space_for("Q(6,2)")
    nat = natural_embedding(q62)
    rad = nat.bilinear.radical()
    assert rad.rank == 1
    two_step = quotient_embedding(quotient_embedding(nat, span(nat.field, 7, [])), rad)
    one_step = quotient_embedding(nat, rad)
    assert two_step.images == one_step.images


def test_preimage_queries(space_for):
    w = space_for("W(3,2)")
    e = natural_embedding(w)
    for i in random.Random(1).sample(range(15), 5):
        assert e.preimage(e.images[i]) == i
    assert e.preimage((0, 0, 0, 1)) == w.index_of((0, 0, 0, 1))


def _scalar_quotient(e, x):
    """Images, Gram and quadratic data of e modulo x, vector by vector."""
    f, qm = e.field, quotient_map(e.field, e.dim, x)
    images = [normalize(f, qm.apply(v)) for v in e.images]
    basis = [tuple(int(i == c) for i in range(e.dim)) for c in qm.coords]
    gram = tuple(tuple(e.bilinear.bilinear(u, v) for v in basis) for u in basis)
    quad = None
    if all(e.quadratic.quadratic(v) == 0 for v in enumerate_points(x)):
        quad = tuple(tuple(e.quadratic.quadratic(u) if i == j else gram[i][j] if i < j else 0
                           for j in range(len(basis))) for i, u in enumerate(basis))
    return images, gram, quad


@pytest.mark.parametrize("name", ["W(3,2)", "W(3,4)", "Q(4,2)", "Q(4,4)", "Q(6,2)"])
def test_images_match_scalar_recomputation(space_for, name):
    """Universal images (W, q even) and quotient images, Gram and quadratic
    data equal a recomputation with scalar field operations."""
    s = space_for(name)
    f = s.field
    if s.form.kind == ALTERNATING:
        e = universal_embedding_sp_char2(s)
        want = []
        for v in s.vectors:
            qw = 0
            for i in range(0, len(v), 2):
                qw = f.add(qw, f.mul(v[i], v[i + 1]))
            want.append(normalize(f, (f.sqrt(qw),) + v))
        assert e.images == want
    else:
        # one more coordinate on which q vanishes: a singular radical vector,
        # so the quotient by it keeps the quadratic form
        d = s.form.dim + 1
        quad = Form(QUADRATIC, f, [row + (0,) for row in s.form.matrix] + [(0,) * d])
        padded = embed.Embedding(s, [v + (0,) for v in s.vectors], quad.polarization(), quad)
        x = span(f, d, [(0,) * (d - 1) + (1,)])
        quo = quotient_embedding(padded, x)
        want = _scalar_quotient(padded, x)
        assert (quo.images, quo.bilinear.matrix, quo.quadratic.matrix) == want
        assert not quo.is_minimal and quo.bilinear.radical().rank == 1  # the nucleus is left
        e = natural_embedding(s)
    rad = e.bilinear.radical()
    quo = quotient_embedding(e, rad)
    images, gram, quad = _scalar_quotient(e, rad)
    assert (quo.images, quo.bilinear.matrix, quo.quadratic) == (images, gram, quad)
