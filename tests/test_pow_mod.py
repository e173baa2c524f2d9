"""Poly.pow_mod in the packed residue rings against the schoolbook
square-and-multiply loop it replaced, and the root and factor searches
built on it run on both."""

import contextlib
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from heckedyn.fields import (FieldDesc, Poly, _PolyRing, distinct_degree_parts,
                             make_field, poly_roots, split_equal_degree)

# p = 2^31 - 1 packs its slots by shifts at every k >= 2 and at k = 1 from
# n = 3; the largest n per k keeps the schoolbook reference affordable
PRIMES = (3, 5, 11, 1009, 2 ** 31 - 1)
MAX_DEGREE = {1: 90, 2: 40, 3: 16, 6: 6, 24: 2}


def reference_pow_mod(f, e, m):
    """f^e mod m by square-and-multiply with schoolbook products and
    remainders."""
    F = f.field
    result = Poly(F, [1])
    base = f % m
    while e:
        if e & 1:
            result = (result * base) % m
        base = (base * base) % m
        e >>= 1
    return result


@contextlib.contextmanager
def schoolbook_powers():
    packed = Poly.pow_mod
    Poly.pow_mod = reference_pow_mod
    try:
        yield
    finally:
        Poly.pow_mod = packed


def random_poly(rng, F, degree, monic=False):
    c = [F.from_enc(rng.randrange(F.order)) for _ in range(degree)]
    lead = 1 if monic else rng.randrange(1, F.order)
    return Poly(F, c + [F.from_enc(lead)])


@st.composite
def power_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.sampled_from(sorted(MAX_DEGREE)))
    F = make_field(p, k)
    n = draw(st.integers(1, MAX_DEGREE[k]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    m = random_poly(rng, F, n, monic=draw(st.booleans()))
    f = random_poly(rng, F, draw(st.integers(0, 2 * n + 1)))
    d = draw(st.integers(1, 2))
    q = F.order
    e = draw(st.sampled_from((0, 1, 2, q, (q ** d - 1) // 2)))
    return f, e, m


@settings(max_examples=300)
@given(power_cases())
def test_pow_mod_matches_the_schoolbook_loop(case):
    f, e, m = case
    assert f.pow_mod(e, m) == reference_pow_mod(f, e, m)


@pytest.mark.parametrize("p, k, n", [(3, 1, 90), (2 ** 31 - 1, 1, 90),
                                     (1009, 2, 40), (11, 24, 3), (5, 6, 8)])
def test_pow_mod_at_the_largest_degrees(p, k, n):
    rng = random.Random(n)
    F = make_field(p, k)
    m = random_poly(rng, F, n)
    f = random_poly(rng, F, 2 * n)
    for e in (F.order, (F.order - 1) // 2):
        assert f.pow_mod(e, m) == reference_pow_mod(f, e, m)


@pytest.mark.parametrize("p, k", [(11, 1), (11, 2), (5, 3)])
def test_pow_mod_edge_moduli(p, k):
    F = make_field(p, k)
    f = Poly(F, [3, 1, 4, 1, 5])
    with pytest.raises(ZeroDivisionError):
        f.pow_mod(3, Poly(F, []))
    for e in (0, 1, 5):
        assert f.pow_mod(e, Poly(F, [2])).is_zero()


@pytest.mark.parametrize("k", [1, 2])
def test_pow_mod_rejects_a_negative_exponent(k):
    # F_p first: its ring used to return an inverse power, and over F_{p^2}
    # the square-and-multiply loop never ended, since -1 >> 1 == -1
    F = make_field(11, k)
    m = Poly(F, [1, 2, 0, 3])
    with pytest.raises(ValueError, match="e >= 0"):
        Poly(F, [0, 1]).pow_mod(-1, m)


@pytest.mark.parametrize("k", [1, 2])
def test_pow_mod_keeps_one_ring_per_modulus(k):
    F = make_field(11, k)
    m = Poly(F, [1, 2, 0, 3])
    x = Poly(F, [0, 1])
    x.pow_mod(11, m)
    ring = m._ring
    assert isinstance(ring, FieldDesc if k == 1 else _PolyRing)
    assert ring.modulus == (4, 8, 0, 1) if k == 1 else ring.n == 3
    assert x.pow_mod(F.order ** 3, m) == reference_pow_mod(x, F.order ** 3, m)
    assert m._ring is ring


@pytest.mark.parametrize("p", [11, 2 ** 31 - 1])
def test_pow_mod_folds_by_the_shape_of_its_modulus(p):
    # over F_p a dense modulus (every coefficient nonzero, as the parts of
    # psi_ell mostly are) keeps the row fold, x^7 + x + 1 takes the tail
    F = make_field(p, 1)
    rng = random.Random(p)
    dense = Poly(F, [rng.randrange(1, p) for _ in range(7)] + [1])
    sparse = Poly(F, [1, 1, 0, 0, 0, 0, 0, 1])
    for m, fold in ((dense, _PolyRing._mul_rows), (sparse, _PolyRing._mul_tail)):
        f = random_poly(rng, F, 14)
        for e in (2, F.order, (F.order - 1) // 2):
            assert f.pow_mod(e, m) == reference_pow_mod(f, e, m)
        assert m._ring._mulc.__func__ is fold


@pytest.mark.parametrize("p, k, n", [(11, 1, 5), (11, 2, 3), (11, 24, 2),
                                     (2 ** 31 - 1, 1, 5), (2 ** 31 - 1, 2, 3),
                                     (2 ** 31 - 1, 3, 4), (3, 2, 31)])
def test_pow_mod_extreme_coefficients(p, k, n):
    # slots near their bound: every coordinate p - 1 in f and in x^n mod m;
    # over F_9 at n = 31 the product terms n k (p-1)^2 fit 8 bits and the
    # folded slot does not
    F = make_field(p, k)
    top = (p - 1,) * k
    m = Poly(F, [(1,) * k] * n + [1])
    f = Poly(F, [top] * n, raw=True)
    for e in (2, 3, F.order):
        assert f.pow_mod(e, m) == reference_pow_mod(f, e, m)


@st.composite
def squarefree_polys(draw):
    p, k = draw(st.sampled_from(((3, 1), (11, 1), (1009, 1), (3, 2), (11, 2),
                                 (5, 3), (3, 6))))
    F = make_field(p, k)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    f = random_poly(rng, F, draw(st.integers(1, 12)), monic=True)
    g = f.gcd(f.derivative())
    return f // g if g.degree() > 0 else f


def factor_lists(f):
    parts = distinct_degree_parts(f)
    splits = [[g.key() for g in split_equal_degree(part, d)]
              for d, part in parts]
    roots = sorted(r.enc() for r in poly_roots(f))
    return [(d, part.key()) for d, part in parts], splits, roots


@settings(max_examples=60)
@given(squarefree_polys())
def test_factor_lists_match_on_both_paths(f):
    packed = factor_lists(f)
    with schoolbook_powers():
        assert factor_lists(f) == packed
