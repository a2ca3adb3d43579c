"""Exact arithmetic in small finite fields GF(p^k).

Elements are plain ints in 0..q-1 encoding polynomial coordinates over
GF(p) in base p (least significant digit = constant term).  A Field owns
lookup tables built once at construction: log/antilog tables drive
multiplication, a dense q x q table drives addition.  The modulus is the
first irreducible monic polynomial of degree k when the non-leading
coefficients are read as a base-p integer (least significant first), so
every run constructs bit-identical fields.
"""

from __future__ import annotations

import numpy as np

DEFAULT_MAX_ORDER = 256


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers (little-endian coefficient lists over GF(p))

def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a, m, p):
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    out = a[:dm]
    while len(out) < dm:
        out.append(0)
    return out


def _monic_polys(degree, p):
    """All monic polynomials of the given degree, in base-p coefficient order."""
    for n in range(p ** degree):
        coeffs = []
        t = n
        for _ in range(degree):
            coeffs.append(t % p)
            t //= p
        yield coeffs + [1]


def _is_irreducible(poly, p):
    """Trial division by all monic polynomials of degree <= deg(poly)/2."""
    k = len(poly) - 1
    if k == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    for d in range(1, k // 2 + 1):
        for g in _monic_polys(d, p):
            if not any(_poly_rem(poly, g, p)):
                return False
    return True


def first_irreducible(p: int, k: int) -> tuple:
    """The canonical modulus: first irreducible monic polynomial of degree k."""
    for poly in _monic_polys(k, p):
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # cannot happen


# ---------------------------------------------------------------------------

class Field:
    """The finite field GF(p^k) with table-driven arithmetic.

    Tables are read-only after construction; all operations are pure, so a
    Field can be shared freely.  `add_table` and `mul_table` are exposed as
    q x q numpy arrays for vectorised callers.
    """

    def __init__(self, p: int, k: int = 1, max_order: int = DEFAULT_MAX_ORDER):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if k < 1:
            raise ValueError(f"degree must be positive, got {k}")
        q = p ** k
        if q > max_order:
            raise ValueError(f"field order {q} exceeds bound {max_order}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = first_irreducible(p, k)

        digits = np.zeros((q, k), dtype=np.int64)
        t = np.arange(q)
        for i in range(k):
            digits[:, i] = t % p
            t //= p
        pows = p ** np.arange(k)
        self._digits = digits
        self.add_table = (((digits[:, None, :] + digits[None, :, :]) % p) @ pows).astype(np.int64)
        self.neg_table = (((p - digits) % p) @ pows).astype(np.int64)

        self._build_log_tables()
        q1 = q - 1
        mul = np.zeros((q, q), dtype=np.int64)
        if q > 1:
            lg = self.log_table[1:]
            for a in range(1, q):
                mul[a, 1:] = self.exp_table[(self.log_table[a] + lg) % q1]
        self.mul_table = mul
        self.inv_table = np.zeros(q, dtype=np.int64)
        self.inv_table[1:] = self.exp_table[(q1 - self.log_table[1:]) % q1]

        if k % 2 == 0:
            r = p ** (k // 2)
            self.conj_table = np.zeros(q, dtype=np.int64)
            self.conj_table[1:] = self.exp_table[(self.log_table[1:] * r) % q1]
        else:
            self.conj_table = None
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.flags.writeable = False

    def _build_log_tables(self):
        q, p, q1 = self.q, self.p, self.q - 1
        for g in range(1, q):
            seen = [0] * q
            e, elt = 0, 1
            order = 0
            expt = np.zeros(max(q1, 1), dtype=np.int64)
            logt = np.zeros(q, dtype=np.int64)
            while True:
                if seen[elt]:
                    break
                seen[elt] = 1
                expt[e] = elt
                logt[elt] = e
                order += 1
                elt = self._raw_mul(elt, g)
                e += 1
            if order == q1:
                self.generator = g
                self.exp_table = expt
                self.log_table = logt
                return
        raise AssertionError("multiplicative group has no generator")  # cannot happen

    def _raw_mul(self, a, b):
        da = list(self._digits[a])
        db = list(self._digits[b])
        rem = _poly_rem(_poly_mul(da, db, self.p), self.modulus, self.p)
        return int(np.dot(rem, self.p ** np.arange(self.k)))

    # -- scalar operations --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return int(self.exp_table[(int(self.log_table[a]) * e) % (self.q - 1)])

    @property
    def has_conjugation(self) -> bool:
        return self.conj_table is not None

    def conjugate(self, a: int) -> int:
        """The involution x -> x^sqrt(q); defined only when k is even."""
        if self.conj_table is None:
            raise ValueError(f"GF({self.q}) admits no involutory automorphism")
        return int(self.conj_table[a])

    def sqrt(self, a: int) -> int:
        """Unique square root in characteristic 2 (Frobenius inverse)."""
        if self.p != 2:
            raise ValueError("sqrt is only provided in characteristic 2")
        if a == 0:
            return 0
        return self.pow(a, 2 ** (self.k - 1))

    # -- misc ---------------------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"Field({self.p}, {self.k})"
