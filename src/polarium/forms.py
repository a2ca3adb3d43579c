"""Reflexive sesquilinear and quadratic forms over finite fields.

A Form holds Gram data: a Gram matrix for alternating, symmetric and
Hermitian forms, an upper-triangular coefficient matrix for quadratic
forms.  Bilinear evaluation is linear in the first argument and (for
Hermitian forms) conjugate-linear in the second, so the standard Hermitian
form reads sum x_i * conj(y_i).  Only this module knows that convention;
`gram`, `values`, `quadratic_values` and `vanishing` apply it to arrays of
vectors, the partner products G conj(y) by `linalg.gf_matmul`.
The rank of a form's polar space (its Witt index) is not computed here: the
space takes it from its incidence structure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from polarium.gf import Field
from polarium import linalg
from polarium.linalg import Subspace, nullspace

ALTERNATING = "alternating"
SYMMETRIC = "symmetric"
HERMITIAN = "hermitian"
QUADRATIC = "quadratic"

BILINEAR_KINDS = (ALTERNATING, SYMMETRIC, HERMITIAN)


class Form:
    """A reflexive form on GF(q)^d, given by its Gram/coefficient matrix."""

    def __init__(self, kind: str, field: Field, matrix):
        self.kind = kind
        self.field = field
        self.matrix = tuple(tuple(r) for r in matrix)
        self.dim = len(self.matrix)
        for r in self.matrix:
            if len(r) != self.dim:
                raise ValueError("Gram data must be square")
        self._validate()
        self._polarization = None

    def _validate(self):
        f, G = self.field, self.matrix
        if self.kind == ALTERNATING:
            for i in range(self.dim):
                if G[i][i] != 0:
                    raise ValueError("alternating Gram matrix must have zero diagonal")
                for j in range(self.dim):
                    if G[j][i] != f.neg(G[i][j]):
                        raise ValueError("alternating Gram matrix must be antisymmetric")
        elif self.kind == SYMMETRIC:
            for i in range(self.dim):
                for j in range(self.dim):
                    if G[j][i] != G[i][j]:
                        raise ValueError("symmetric Gram matrix required")
        elif self.kind == HERMITIAN:
            if not f.has_conjugation:
                raise ValueError("Hermitian forms need a field with conjugation")
            for i in range(self.dim):
                for j in range(self.dim):
                    if G[j][i] != f.conjugate(G[i][j]):
                        raise ValueError("Gram matrix must equal its conjugate transpose")
        elif self.kind == QUADRATIC:
            for i in range(self.dim):
                for j in range(i):
                    if G[i][j] != 0:
                        raise ValueError("quadratic coefficient matrix must be upper-triangular")
        else:
            raise ValueError(f"unknown form kind {self.kind!r}")

    # -- evaluation ----------------------------------------------------------

    def bilinear(self, x, y) -> int:
        """f(x, y); for quadratic forms this is the polarization value."""
        if self.kind == QUADRATIC:
            return self.polarization().bilinear(x, y)
        f = self.field
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector dimension mismatch")
        yy = tuple(f.conjugate(c) for c in y) if self.kind == HERMITIAN else y
        acc = 0
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.matrix[i]
            for j, yj in enumerate(yy):
                if yj and row[j]:
                    acc = f.add(acc, f.mul(f.mul(xi, row[j]), yj))
        return acc

    def quadratic(self, x) -> int:
        if self.kind != QUADRATIC:
            raise ValueError("quadratic evaluation on a non-quadratic form")
        f = self.field
        if len(x) != self.dim:
            raise ValueError("vector dimension mismatch")
        acc = 0
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.matrix[i]
            for j in range(i, self.dim):
                if x[j] and row[j]:
                    acc = f.add(acc, f.mul(f.mul(xi, row[j]), x[j]))
        return acc

    def vanishes(self, x) -> bool:
        """Point membership test: singular (quadratic) or isotropic (bilinear)."""
        if self.kind == QUADRATIC:
            return self.quadratic(x) == 0
        return self.bilinear(x, x) == 0

    def partners(self, y) -> np.ndarray:
        """G conj(y) over the last axis, by `gf_matmul`: f(x, y) = x . G conj(y)."""
        y = np.asarray(y, dtype=np.int64)
        if self.kind == HERMITIAN:
            y = self.field.conj_table[y]
        return linalg.gf_matmul(self.field, y.reshape(-1, self.dim), self.matrix).reshape(y.shape)

    def values(self, x, y) -> np.ndarray:
        """f(x, y) over the last axis of two arrays, the leading axes
        broadcast; for quadratic forms this is the polarization value."""
        if self.kind == QUADRATIC:
            return self.polarization().values(x, y)
        return linalg.gf_dot(self.field, x, self.partners(y))

    def gram(self, x) -> np.ndarray:
        """f(x_i, x_j) for the rows of an (m, d) array, as an (m, m) array:
        `values(x[:, None], x[None])`, with the outer dot by `gf_matmul`."""
        if self.kind == QUADRATIC:
            return self.polarization().gram(x)
        return linalg.gf_matmul(self.field, x, self.partners(x))

    def quadratic_values(self, x) -> np.ndarray:
        """q(x) over the last axis of an array."""
        if self.kind != QUADRATIC:
            raise ValueError("quadratic evaluation on a non-quadratic form")
        return linalg.gf_dot(self.field, x, self.partners(x))

    def vanishing(self, x) -> np.ndarray:
        """`vanishes` over the last axis of an array: a boolean array.  An
        alternating form vanishes on every vector."""
        if self.kind == QUADRATIC:
            return self.quadratic_values(x) == 0
        if self.kind == ALTERNATING:
            return np.ones(np.shape(x)[:-1], dtype=bool)
        return self.values(x, x) == 0

    # -- derived forms ---------------------------------------------------------

    def polarization(self) -> Form:
        """f_q(x,y) = q(x+y) - q(x) - q(y); alternating iff char 2."""
        if self.kind != QUADRATIC:
            raise ValueError("polarization applies to quadratic forms")
        if self._polarization is None:
            f, A, d = self.field, self.matrix, self.dim
            G = [[0] * d for _ in range(d)]
            for i in range(d):
                G[i][i] = f.mul(2 % f.p, A[i][i])
                for j in range(i + 1, d):
                    G[i][j] = A[i][j]
                    G[j][i] = A[i][j]
            self._polarization = Form(ALTERNATING if f.p == 2 else SYMMETRIC, f, G)
        return self._polarization

    def radical(self) -> Subspace:
        """Rad(f) = V^perp, the kernel of the Gram matrix."""
        if self.kind == QUADRATIC:
            return self.polarization().radical()
        # v in radical  <=>  v^T G = 0, i.e. v in kernel of G^T rows
        cols = tuple(tuple(self.matrix[i][j] for i in range(self.dim))
                     for j in range(self.dim))
        return nullspace(self.field, cols, self.dim)

    def __repr__(self):
        return f"Form({self.kind}, GF({self.field.q}), dim={self.dim})"


# ---------------------------------------------------------------------------
# perps and restrictions

def orthogonal_complement(form: Form, vectors):
    """Basis of the common perp of the given vectors w.r.t. the (polarized)
    form: the w with f(w, v) = 0, as the form is reflexive."""
    bil = form.polarization() if form.kind == QUADRATIC else form
    basis = [tuple(int(i == j) for i in range(form.dim)) for j in range(form.dim)]
    return nullspace(form.field, [[bil.bilinear(e, v) for e in basis] for v in vectors],
                     form.dim)


def restrict(form: Form, basis_rows) -> Form:
    """The form induced on the span of the given (independent) vectors."""
    f, m = form.field, len(basis_rows)
    if form.kind == QUADRATIC:
        bil = form.polarization()
        A = [[0] * m for _ in range(m)]
        for i in range(m):
            A[i][i] = form.quadratic(basis_rows[i])
            for j in range(i + 1, m):
                A[i][j] = bil.bilinear(basis_rows[i], basis_rows[j])
        return Form(QUADRATIC, f, A)
    G = [[form.bilinear(basis_rows[i], basis_rows[j]) for j in range(m)]
         for i in range(m)]
    return Form(form.kind, f, G)


# ---------------------------------------------------------------------------
# canonical catalog forms

def symplectic_form(field: Field, n: int) -> Form:
    """f(x,y) = sum x_{2i} y_{2i+1} - x_{2i+1} y_{2i} on GF(q)^(2n)."""
    d = 2 * n
    G = [[0] * d for _ in range(d)]
    for i in range(n):
        G[2 * i][2 * i + 1] = 1
        G[2 * i + 1][2 * i] = field.neg(1)
    return Form(ALTERNATING, field, G)


def parabolic_quadric_form(field: Field, n: int) -> Form:
    """q(x) = x_0^2 + sum x_{2i-1} x_{2i} on GF(q)^(2n+1)."""
    d = 2 * n + 1
    A = [[0] * d for _ in range(d)]
    A[0][0] = 1
    for i in range(n):
        A[2 * i + 1][2 * i + 2] = 1
    return Form(QUADRATIC, field, A)


def hyperbolic_quadric_form(field: Field, n: int) -> Form:
    """q(x) = sum x_{2i} x_{2i+1} on GF(q)^(2n)."""
    d = 2 * n
    A = [[0] * d for _ in range(d)]
    for i in range(n):
        A[2 * i][2 * i + 1] = 1
    return Form(QUADRATIC, field, A)


def elliptic_quadric_form(field: Field, n: int) -> Form:
    """q(x) = g(x_0, x_1) + sum pairs, with g the first irreducible binary quadric."""
    d = 2 * n + 2
    A = [[0] * d for _ in range(d)]
    A[0][0] = 1
    A[0][1] = 1
    A[1][1] = _first_anisotropic_coefficient(field)
    for i in range(1, n + 1):
        A[2 * i][2 * i + 1] = 1
    return Form(QUADRATIC, field, A)


def _first_anisotropic_coefficient(field: Field) -> int:
    """First c (in element order) such that x^2 + x + c has no root."""
    for c in field.elements:
        if all(field.add(field.add(field.mul(x, x), x), c) != 0 for x in field.elements):
            return c
    raise ValueError(f"no irreducible binary quadric over GF({field.q})")


def hermitian_form(field: Field, d: int) -> Form:
    """f(x,y) = sum x_i conj(y_i) on GF(q)^d, q a square."""
    G = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    return Form(HERMITIAN, field, G)


@dataclass(frozen=True)
class CanonicalSpaceSpec:
    """Catalog key for a polar space: family, projective dimension, field order.

    Families: W (symplectic), Q (parabolic quadric), Q+ (hyperbolic), Q-
    (elliptic), H (Hermitian), grid, payne, dual.  Derived families carry
    their base spec in `inner`.
    """

    family: str
    proj_dim: int | None = None
    order: int | None = None
    inner: "CanonicalSpaceSpec | None" = None

    def __str__(self):
        if self.family == "grid":
            return f"grid({self.proj_dim})"
        if self.family == "payne":
            return f"P({self.inner})"
        if self.family == "dual":
            return f"dual({self.inner})"
        return f"{self.family}({self.proj_dim},{self.order})"


@functools.cache
def _field_for_order(q: int) -> Field:
    """GF(q), built at first use and then shared, from one factorization of
    q: its smallest divisor p > 1 is prime, and q is a prime power exactly
    when it is the power p^k."""
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    k = 0
    while p and q % p ** (k + 1) == 0:
        k += 1
    if not p or p ** k != q:
        raise ValueError(f"{q} is not a prime power")
    return Field(p, k)


def canonical_form(spec: CanonicalSpaceSpec) -> Form:
    """The canonical form of a classical family member, per the fixed Gram data."""
    fam, pd, q = spec.family, spec.proj_dim, spec.order
    field = _field_for_order(q)
    if fam == "W":
        if pd % 2 == 0:
            raise ValueError("W requires odd projective dimension (even ambient)")
        return symplectic_form(field, (pd + 1) // 2)
    if fam == "Q":
        if pd % 2 == 1:
            raise ValueError("parabolic quadrics need even projective dimension")
        return parabolic_quadric_form(field, pd // 2)
    if fam == "Q+":
        if pd % 2 == 0:
            raise ValueError("hyperbolic quadrics need odd projective dimension")
        return hyperbolic_quadric_form(field, (pd + 1) // 2)
    if fam == "Q-":
        if pd % 2 == 0:
            raise ValueError("elliptic quadrics need odd projective dimension")
        return elliptic_quadric_form(field, (pd + 1) // 2 - 1)
    if fam == "H":
        return hermitian_form(field, pd + 1)
    raise ValueError(f"{fam} is not a classical form family")
