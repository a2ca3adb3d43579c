import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from polarium.gf import Field
from polarium import linalg, forms
from polarium.forms import (
    ALTERNATING, HERMITIAN, QUADRATIC, SYMMETRIC, Form,
    elliptic_quadric_form, hermitian_form, hyperbolic_quadric_form,
    parabolic_quadric_form, symplectic_form,
)
from polarium.space import PolarSpace, SpaceError

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(2, 2)
GF5 = Field(5)


def brute_force_witt(form):
    """Independent oracle: depth-first search for a maximal totally
    isotropic/singular subspace, extending by orthogonal vanishing points."""
    pts = [v for v in linalg.proj_points(form.field, form.dim) if form.vanishes(v)]
    bil = form.polarization() if form.kind == QUADRATIC else form

    best = 0
    def extend(basis, start):
        nonlocal best
        best = max(best, len(basis))
        for i in range(start, len(pts)):
            v = pts[i]
            if all(bil.bilinear(b, v) == 0 for b in basis):
                sub = linalg.span(form.field, form.dim, list(basis) + [v])
                if sub.rank == len(basis) + 1:
                    if form.kind == QUADRATIC and form.field.p == 2:
                        # guard: the span must stay totally singular
                        if not all(form.vanishes(w) for w in linalg.enumerate_points(sub)):
                            continue
                    extend(basis + [v], i + 1)
    extend([], 0)
    return best


def test_bilinear_symplectic_examples():
    f = symplectic_form(GF2, 2)
    e = [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)]
    assert f.bilinear(e[0], e[1]) == 1  # hyperbolic pair
    assert f.bilinear(e[0], e[0]) == 0
    # reflexivity: f(y,x) = -f(x,y), f(x,x) = 0, exhaustive over GF(2)^4
    for x in itertools.product(range(2), repeat=4):
        assert f.bilinear(x, x) == 0
        for y in itertools.product(range(2), repeat=4):
            assert f.bilinear(y, x) == GF2.neg(f.bilinear(x, y))


def test_bilinear_hermitian_example():
    h = hermitian_form(GF4, 4)
    w = 2
    x = (1, w, 0, 0)
    y = (w, 1, 0, 0)
    # 1*conj(w) + w*conj(1) = w^2 + w = 1
    assert h.bilinear(x, y) == 1
    for x in itertools.product(range(4), repeat=2):
        for y in itertools.product(range(4), repeat=2):
            h2 = hermitian_form(GF4, 2)
            assert h2.bilinear(y, x) == GF4.conjugate(h2.bilinear(x, y))


def test_bilinear_kind_errors():
    q = parabolic_quadric_form(GF2, 2)
    with pytest.raises(ValueError):
        q.quadratic((1, 0, 0))  # dimension mismatch
    f = symplectic_form(GF2, 2)
    with pytest.raises(ValueError):
        f.quadratic((1, 0, 0, 0))


def test_quadratic_examples():
    q = parabolic_quadric_form(GF2, 2)  # x0^2 + x1 x2 + x3 x4
    assert q.quadratic((1, 0, 0, 0, 0)) == 1
    assert q.quadratic((0, 1, 1, 0, 0)) == 1
    assert q.quadratic((0, 1, 0, 1, 0)) == 0
    # scaling law q(lam x) = lam^2 q(x), exhaustive over GF(4)^3
    q3 = Form(QUADRATIC, GF4, [[1, 0, 0], [0, 0, 1], [0, 0, 0]])
    for x in itertools.product(range(4), repeat=3):
        for lam in range(4):
            lx = tuple(GF4.mul(lam, c) for c in x)
            assert q3.quadratic(lx) == GF4.mul(GF4.mul(lam, lam), q3.quadratic(x))


def test_polarization():
    q = parabolic_quadric_form(GF2, 2)
    f = q.polarization()
    assert f.kind == ALTERNATING
    e = [tuple(1 if i == j else 0 for i in range(5)) for j in range(5)]
    assert f.bilinear(e[1], e[2]) == 1
    for v in itertools.product(range(2), repeat=5):
        assert f.bilinear(e[0], v) == 0  # nucleus direction

    q01 = Form(QUADRATIC, GF3, [[0, 1], [0, 0]])  # x0 x1 over GF(3)
    f01 = q01.polarization()
    assert f01.kind == SYMMETRIC
    assert f01.bilinear((1, 0), (0, 1)) == 1
    assert f01.bilinear((0, 1), (1, 0)) == 1

    # (Q2) identity and f(x,x) = 2 q(x), exhaustive on GF(3)^4
    q4 = Form(QUADRATIC, GF3, [[1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 2, 1], [0, 0, 0, 0]])
    f4 = q4.polarization()
    for x in itertools.product(range(3), repeat=4):
        assert f4.bilinear(x, x) == GF3.mul(2, q4.quadratic(x))
        for y in itertools.product(range(3), repeat=4):
            lhs = q4.quadratic(tuple(GF3.add(a, b) for a, b in zip(x, y)))
            rhs = GF3.add(GF3.add(q4.quadratic(x), q4.quadratic(y)), f4.bilinear(x, y))
            assert lhs == rhs


def test_radical():
    f = symplectic_form(GF3, 2)
    assert f.radical().rank == 0
    q = parabolic_quadric_form(GF2, 2)
    rad = q.radical()
    assert rad.rows == ((1, 0, 0, 0, 0),)  # the nucleus
    assert q.quadratic(rad.rows[0]) == 1  # the nucleus vector is non-singular
    q3 = parabolic_quadric_form(GF3, 2)
    assert q3.radical().rank == 0
    # f(r, v) = 0 for every radical vector r and all v
    for v in itertools.product(range(2), repeat=5):
        assert q.polarization().bilinear((1, 0, 0, 0, 0), v) == 0


DEGENERATE = {
    "alt-GF3": Form(ALTERNATING, GF3, [[0, 1, 0], [2, 0, 0], [0, 0, 0]]),
    "herm-GF4": Form(HERMITIAN, GF4, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
    "quad-GF2-x0x1": Form(QUADRATIC, GF2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
    "quad-GF2-zero": Form(QUADRATIC, GF2, [[0, 0], [0, 0]]),
    "quad-GF3-x0x1": Form(QUADRATIC, GF3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
    # x0^2 + x1^2 is anisotropic over GF(3): the radical point is the only point
    "quad-GF3-one-point": Form(QUADRATIC, GF3, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_form_rejected(name):
    # a singular radical point is collinear with every point of the space
    with pytest.raises(SpaceError, match="collinear with every point"):
        PolarSpace.from_form(DEGENERATE[name], name)


def test_witt_alternating():
    for field, n in [(GF2, 1), (GF2, 2), (GF2, 3), (GF3, 2), (GF4, 2), (GF5, 2)]:
        form = symplectic_form(field, n)
        assert PolarSpace.from_form(form, repr(form)).rank == n


def test_witt_elliptic_gf2():
    q = elliptic_quadric_form(GF2, 2)  # g(x0,x1) + x2x3 + x4x5
    assert q.matrix[0][:2] == (1, 1) and q.matrix[1][1] == 1
    assert PolarSpace.from_form(q, "Q-(5,2)").rank == 2


def test_witt_hermitian_gf4():
    assert PolarSpace.from_form(hermitian_form(GF4, 4), "H(3,4)").rank == 2
    assert PolarSpace.from_form(hermitian_form(GF4, 5), "H(4,4)").rank == 2


def test_witt_matches_bruteforce_catalog():
    # the rank of the greedy generator is the Witt index of the form
    cases = [
        symplectic_form(GF2, 2), symplectic_form(GF3, 2), symplectic_form(GF2, 3),
        symplectic_form(GF4, 2),
        parabolic_quadric_form(GF2, 2), parabolic_quadric_form(GF3, 2),
        parabolic_quadric_form(GF2, 3),
        hyperbolic_quadric_form(GF2, 2), hyperbolic_quadric_form(GF3, 2),
        hyperbolic_quadric_form(GF4, 2), hyperbolic_quadric_form(GF2, 3),
        elliptic_quadric_form(GF2, 2), elliptic_quadric_form(GF3, 1),
        hermitian_form(GF4, 4), hermitian_form(GF4, 5),
    ]
    for form in cases:
        assert PolarSpace.from_form(form, repr(form)).rank == brute_force_witt(form), form


def test_alternating_every_vector_isotropic():
    for field, n in [(GF2, 2), (GF3, 2), (GF4, 2)]:
        f = symplectic_form(field, n)
        for v in itertools.product(range(field.q), repeat=2 * n):
            assert f.bilinear(v, v) == 0


def test_polarization_alternating_iff_char2():
    catalog = [
        parabolic_quadric_form(GF2, 2), hyperbolic_quadric_form(GF2, 2),
        elliptic_quadric_form(GF2, 2), hyperbolic_quadric_form(GF4, 2),
        parabolic_quadric_form(GF3, 2), hyperbolic_quadric_form(GF3, 2),
        elliptic_quadric_form(GF5, 1),
    ]
    for q in catalog:
        pol = q.polarization()
        if q.field.p == 2:
            assert pol.kind == ALTERNATING
        else:
            assert pol.kind == SYMMETRIC


def test_form_validation_errors():
    with pytest.raises(ValueError):
        Form(ALTERNATING, GF3, [[0, 1], [1, 0]])  # not antisymmetric over GF(3)
    with pytest.raises(ValueError):
        Form(ALTERNATING, GF2, [[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        Form(QUADRATIC, GF2, [[1, 0], [1, 0]])  # not upper-triangular
    with pytest.raises(ValueError):
        Form(HERMITIAN, GF3, [[1]])  # GF(3) has no conjugation
    with pytest.raises(ValueError):
        Form(HERMITIAN, GF4, [[1, 2], [2, 1]])  # 2 != conj(2)


def test_canonical_form_needs_prime_power_order():
    assert forms.canonical_form(forms.CanonicalSpaceSpec("W", 3, 4)).field.q == 4
    for q in (1, 6, 12):
        with pytest.raises(ValueError, match="not a prime power"):
            forms.canonical_form(forms.CanonicalSpaceSpec("W", 3, q))


def test_each_field_order_is_built_once():
    # one read-only GF(q) per order, shared by the forms over it, and none
    # built at import
    w, q = (forms.canonical_form(forms.CanonicalSpaceSpec(fam, d, 9))
            for fam, d in [("W", 3), ("Q", 4)])
    assert w.field is q.field
    with pytest.raises(ValueError, match="read-only"):
        w.field.mul_table[1, 1] = 0
    code = ("import polarium.cli, polarium.forms as f; "
            "assert f._field_for_order.cache_info().currsize == 0")
    path = os.pathsep.join(filter(None, [str(pathlib.Path(forms.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": path})


GF9 = Field(3, 2)


ARRAY_CASES = {
    "W-GF3": symplectic_form(GF3, 2),
    "H-GF4": hermitian_form(GF4, 3),
    "H-GF4-offdiag": Form(HERMITIAN, GF4, [[1, 2, 0], [3, 0, 1], [0, 1, 1]]),
    "H-GF9-offdiag": Form(HERMITIAN, GF9, [[0, 4], [GF9.conjugate(4), 1]]),
    "sym-GF3": Form(SYMMETRIC, GF3, [[1, 2, 0], [2, 0, 1], [0, 1, 2]]),
    "Q-GF2": parabolic_quadric_form(GF2, 2),
    "Qminus-GF2": elliptic_quadric_form(GF2, 1),
    "Q-GF3": parabolic_quadric_form(GF3, 1),
    "Qplus-GF3": hyperbolic_quadric_form(GF3, 2),
    "quad-GF3-offdiag": Form(QUADRATIC, GF3, [[1, 2, 0], [0, 2, 1], [0, 0, 1]]),
    "Q-GF4": parabolic_quadric_form(GF4, 1),
    "Qminus-GF4-binary": elliptic_quadric_form(GF4, 0),
    "Qminus-GF4": elliptic_quadric_form(GF4, 1),
}


@pytest.mark.parametrize("name", ARRAY_CASES)
def test_array_values_match_scalar(name):
    """values, quadratic_values and vanishing equal the scalar bilinear,
    quadratic and vanishes on every vector (pair); for quadratic forms the
    values are those of the polarization."""
    form = ARRAY_CASES[name]
    vectors = list(itertools.product(range(form.field.q), repeat=form.dim))
    x = np.array(vectors)
    assert form.vanishing(x).tolist() == [form.vanishes(v) for v in vectors]
    values = form.values(x[:, None], x[None])
    assert values.tolist() == [[form.bilinear(u, v) for v in vectors] for u in vectors]
    if form.kind == QUADRATIC:
        assert form.quadratic_values(x).tolist() == [form.quadratic(v) for v in vectors]
        assert np.array_equal(form.polarization().values(x[:, None], x[None]), values)
    else:
        with pytest.raises(ValueError):
            form.quadratic_values(x)


@pytest.mark.parametrize("name", ARRAY_CASES)
def test_gram_matches_values(name):
    form = ARRAY_CASES[name]
    x = np.array(list(itertools.product(range(form.field.q), repeat=form.dim)))
    assert np.array_equal(form.gram(x), form.values(x[:, None], x[None]))


@pytest.mark.parametrize("name", ["W-GF3", "H-GF4-offdiag", "H-GF9-offdiag", "Q-GF2", "quad-GF3-offdiag"])
def test_orthogonal_complement_matches_bruteforce(name):
    form = ARRAY_CASES[name]
    field, d = form.field, form.dim
    bil = form.polarization() if form.kind == QUADRATIC else form
    vectors = list(itertools.product(range(field.q), repeat=d))
    given = [vectors[1], vectors[-1]]
    perp = forms.orthogonal_complement(form, given)
    want = [w for w in vectors if all(bil.bilinear(v, w) == 0 for v in given)]
    assert len(want) == field.q ** perp.rank and all(perp.contains(w) for w in want)
