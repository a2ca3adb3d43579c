import itertools

import pytest

from polarium.gf import Field, first_irreducible, is_prime


def test_prime_fields():
    gf2 = Field(2)
    assert gf2.q == 2 and list(gf2.elements) == [0, 1]
    gf5 = Field(5)
    assert gf5.neg(1) == 4  # 4 = -1
    assert gf5.inv(2) == 3  # 2*3 = 6 = 1
    for a in gf2.elements:
        assert gf2.add(a, a) == 0  # characteristic 2


def test_gf4_modulus_and_arithmetic():
    gf4 = Field(2, 2)
    # x^2+x+1 is the only irreducible quadratic over GF(2)
    assert gf4.modulus == (1, 1, 1)
    w = 2  # the class of x
    assert gf4.mul(w, w) == 3  # w^2 = w+1


def test_create_errors():
    with pytest.raises(ValueError):
        Field(4)  # non-prime characteristic
    with pytest.raises(ValueError):
        Field(2, 9)  # 512 > 256 bound
    with pytest.raises(ValueError):
        Field(2, 0)
    Field(2, 9, max_order=1024)  # configurable bound


def test_modulus_is_irreducible():
    # Independent oracle: an irreducible polynomial has no roots, and for
    # degree <= 3 the converse holds as well.
    for p, k in [(2, 2), (2, 3), (3, 2), (5, 1), (2, 4)]:
        m = first_irreducible(p, k)
        if k > 1:
            for x in range(p):
                v = sum(c * pow(x, i, p) for i, c in enumerate(m)) % p
                assert v != 0, (p, k, m, x)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, k):
    f = Field(p, k)
    els = list(f.elements)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    if f.q <= 16:
        for a, b, c in itertools.product(els, repeat=3):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 4)])
def test_multiplicative_group_cyclic(p, k):
    f = Field(p, k)
    g = f.generator
    powers = {1}
    x = g
    while x != 1:
        powers.add(x)
        x = f.mul(x, g)
    assert len(powers) == f.q - 1
    for a in range(1, f.q):
        assert f.pow(a, f.q - 1) == 1


def test_conjugation_gf4():
    gf4 = Field(2, 2)
    w = 2
    assert gf4.conjugate(w) == 3  # Frobenius x -> x^2: w^2 = w+1
    assert gf4.conjugate(1) == 1
    assert gf4.conjugate(0) == 0


def test_conjugation_gf9_exhaustive():
    gf9 = Field(3, 2)
    for a in gf9.elements:
        assert gf9.conjugate(a) == gf9.pow(a, 3)
        assert gf9.conjugate(gf9.conjugate(a)) == a
    # fixed points are exactly the prime subfield GF(3)
    fixed = [a for a in gf9.elements if gf9.conjugate(a) == a]
    assert len(fixed) == 3


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4)])
def test_conjugation_is_automorphism(p, k):
    f = Field(p, k)
    for a in f.elements:
        for b in f.elements:
            assert f.conjugate(f.add(a, b)) == f.add(f.conjugate(a), f.conjugate(b))
            assert f.conjugate(f.mul(a, b)) == f.mul(f.conjugate(a), f.conjugate(b))


def test_no_conjugation_on_odd_degree():
    gf8 = Field(2, 3)
    assert not gf8.has_conjugation
    with pytest.raises(ValueError):
        gf8.conjugate(3)


def test_sqrt_char2():
    for p, k in [(2, 1), (2, 2), (2, 3)]:
        f = Field(p, k)
        for a in f.elements:
            assert f.mul(f.sqrt(a), f.sqrt(a)) == a
    with pytest.raises(ValueError):
        Field(3).sqrt(2)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
