import itertools
import math
import random
from fractions import Fraction

import pytest

from heckedyn.errors import BadDiscriminant, InertPrime, ScaleExceeded
from heckedyn.fields import power, xgcd
from heckedyn.quadforms import (MAX_LEVEL_BITS, QuadForm, class_group,
                                class_number, compose, fundamental_discriminant,
                                hurwitz_class_number, kronecker,
                                prime_class_order, principal_form,
                                reduce_form, reduced_forms)

import quadforms_reference as reference


def test_reduce_already_reduced():
    assert reduce_form(QuadForm(1, 0, 1)).key() == (1, 0, 1)
    assert reduce_form(QuadForm(2, 2, 3)).key() == (2, 2, 3)


def test_reduce_one_step():
    assert reduce_form(QuadForm(3, 2, 2)).key() == (2, 2, 3)


def test_reduce_agrees_with_exhaustive_equivalence():
    # oracle: equivalent forms represent the same values; compare multisets
    # of values below a bound the scanned box provably exhausts
    f = QuadForm(7, 6, 5)
    red = reduce_form(f)
    assert red.is_reduced() and red.disc() == f.disc()
    bound = 40  # 4a*val >= |D| y^2 keeps all representations inside the box
    box = range(-30, 31)
    values_f = sorted(v for v in (f(x, y) for x in box for y in box) if v <= bound)
    values_r = sorted(v for v in (red(x, y) for x in box for y in box) if v <= bound)
    assert values_f == values_r


def test_class_numbers():
    assert class_number(-4) == 1
    assert class_number(-15) == 2
    assert class_number(-23) == 3
    assert [f.key() for f in reduced_forms(-15)] == [(1, 1, 4), (2, 1, 2)]


def test_class_group_cyclic_of_order_3():
    G = class_group(-23)
    assert len(G) == 3
    orders = sorted(G.order_of(i) for i in range(3))
    assert orders == [1, 3, 3]


def test_class_group_axioms_sampled():
    for D in (-15, -23, -47, -84, -120, -231, -311, -400):
        G = class_group(D)
        n = len(G)
        e = G.identity
        for i in range(n):
            assert G.mul(i, e) == i
            assert G.mul(i, G.inverse(i)) == e
        for i, j, k in itertools.product(range(n), repeat=3):
            assert G.mul(G.mul(i, j), k) == G.mul(i, G.mul(j, k))


def test_kronecker_examples():
    assert kronecker(-15, 5) == 0
    assert kronecker(-15, 2) == 1
    assert kronecker(-4, 3) == -1
    # oracle: (D/2) table by residue mod 8
    for D in range(-50, 50):
        if D % 2 == 0:
            assert kronecker(D, 2) == 0
        elif D % 8 in (1, 7):
            assert kronecker(D, 2) == 1
        else:
            assert kronecker(D, 2) == -1


def test_kronecker_odd_prime_is_legendre():
    for ell in (3, 5, 7, 11, 13):
        for D in range(-60, 0):
            sym = kronecker(D, ell)
            legendre = pow(D % ell, (ell - 1) // 2, ell)
            if D % ell == 0:
                assert sym == 0
            elif legendre == 1:
                assert sym == 1
            else:
                assert sym == -1


def brute_hurwitz(n):
    """Weighted count of ALL positive definite forms of disc -n, reduced."""
    total = Fraction(0)
    a = 1
    while 3 * a * a <= n:
        for b in range(-a + 1, a + 1):
            if (b * b + n) % (4 * a):
                continue
            c = (b * b + n) // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            key = sorted((abs(b), a, c))
            if a == c == abs(b):
                w = Fraction(1, 3)
            elif a == c and b == 0:
                w = Fraction(1, 2)
            else:
                w = Fraction(1)
            total += w
        a += 1
    return total


def test_hurwitz_small_values():
    assert hurwitz_class_number(3) == Fraction(1, 3)
    assert hurwitz_class_number(4) == Fraction(1, 2)
    assert hurwitz_class_number(20) == 2


def test_hurwitz_matches_brute_enumeration():
    for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        assert hurwitz_class_number(4 * ell) == brute_hurwitz(4 * ell), ell


def test_prime_class_order_split():
    a, (t, n) = prime_class_order(-15, 2)
    assert a == 2 and n == 4
    # witness is a non-scalar: x + y w with y != 0
    assert t * t != 4 * n


def test_prime_class_order_h1():
    a, (t, n) = prime_class_order(-4, 5)
    assert a == 1 and n == 5
    assert t in (2, -2)  # 1 +- 2i has trace +-2


def test_prime_class_order_ramified_principal():
    a, (t, n) = prime_class_order(-4, 2)
    assert a == 1 and n == 2


def test_prime_class_order_ramified_nonprincipal():
    a, (t, n) = prime_class_order(-40, 2)
    assert a == 2 and n == 4 and t * t == 4 * n  # the scalar 2 generates L^2


def test_prime_class_order_inert_raises():
    with pytest.raises(InertPrime):
        prime_class_order(-15, 7)  # (-15/7) = -1


def test_witness_class_decomposition():
    # the class of the form (x^2 ... ) representing ell^a must be principal,
    # and the witness norm is exact
    for D, ell in ((-15, 2), (-23, 2), (-56, 3), (-84, 5)):
        if kronecker(D, ell) == -1:
            continue
        G = class_group(D)
        from heckedyn.quadforms import prime_form
        L = G.index[prime_form(D, ell).key()]
        a, (t, n) = prime_class_order(D, ell)
        assert n == ell ** a
        assert power(G.mul, G.identity, L, a) == G.identity
        # trace and norm give a genuine algebraic integer of the order
        disc = t * t - 4 * n
        assert disc < 0 and disc % D in (0, D + 0) or disc // D >= 0
        q, r = divmod(disc, D)
        assert r == 0  # disc = c^2 D with c integral
        import math
        assert math.isqrt(q) ** 2 == q


def test_fundamental_discriminant():
    assert fundamental_discriminant(-4) == (-4, 1)
    assert fundamental_discriminant(-60) == (-15, 2)
    assert fundamental_discriminant(-12) == (-3, 2)
    assert fundamental_discriminant(-8) == (-8, 1)


def test_compose_principal_is_identity():
    for D in (-15, -23, -40):
        pf = reduce_form(principal_form(D))
        for f in reduced_forms(D):
            assert compose(f, pf) == f


def _discriminants(bound):
    return [D for D in range(-3, -bound - 1, -1) if D % 4 in (0, 1)]


def test_compose_matches_the_reference():
    # every pair of reduced forms with -D <= 1000
    pairs = 0
    for D in _discriminants(1000):
        forms = reduced_forms(D)
        for f, g in itertools.product(forms, repeat=2):
            assert compose(f, g) == reference.compose(f, g), (f, g)
            pairs += 1
    assert pairs > 50000


def test_compose_matches_the_reference_unreduced():
    # the second form moved by a random SL_2(Z) substitution
    rng = random.Random(20)
    for D in rng.sample(_discriminants(3000), 60):
        forms = reduced_forms(D)
        for _ in range(20):
            f, g = rng.choice(forms), rng.choice(forms)
            x, y = rng.randrange(-30, 31), rng.randrange(1, 31)
            d, u, v = xgcd(x, y)
            if abs(d) != 1:
                continue
            u, v = u * d, v * d  # x u + y v = 1
            moved = reference._transform(g, ((x, -v), (y, u)))
            assert reduce_form(moved) == g
            assert compose(f, moved) == reference.compose(f, moved), (f, moved)


def test_prime_class_order_matches_the_search():
    # every (D, ell) with -D <= 1000 whose reference search is small
    cases = set()
    for D in _discriminants(1000):
        for ell in (2, 3, 5, 7, 11):
            try:
                got = prime_class_order(D, ell)
            except (BadDiscriminant, InertPrime) as exc:
                with pytest.raises(type(exc)) as ref_exc:
                    reference.prime_class_order(D, ell)
                assert str(ref_exc.value) == str(exc)
                continue
            if ell ** got[0] > 10 ** 10 * -D:
                continue
            assert got == reference.prime_class_order(D, ell), (D, ell)
            cases.add((D, ell))
    assert len(cases) == 1277
    assert {(-3, 7), (-3, 3), (-4, 5), (-4, 2)} <= cases


def test_prime_class_order_at_class_number_83():
    # the search over y would take 7^41 steps here
    a, (t, n) = prime_class_order(-3911, 7)
    assert a == 83 == class_number(-3911) and n == 7 ** 83
    q, r = divmod(t * t - 4 * n, -3911)
    assert r == 0 and math.isqrt(q) ** 2 == q


def test_prime_class_order_matches_the_unreduced_powers():
    # every (D, ell) with -D <= 3000, ell split or ramified
    kinds = {0: 0, 1: 0}
    for D in _discriminants(3000):
        for ell in (2, 3, 5, 7):
            try:
                got = prime_class_order(D, ell)
            except (BadDiscriminant, InertPrime) as exc:
                with pytest.raises(type(exc)) as ref_exc:
                    reference.prime_class_order_by_unreduced_powers(D, ell)
                assert str(ref_exc.value) == str(exc)
                continue
            want = reference.prime_class_order_by_unreduced_powers(D, ell)
            assert got == want, (D, ell)
            kinds[kronecker(D, ell)] += 1
    assert kinds == {0: 1134, 1: 2118}


def test_prime_class_order_past_the_witness_bound():
    # a = 26629 at D = -1000000007: 2^a has more than 4300 digits
    with pytest.raises(ScaleExceeded):
        prime_class_order(-1000000007, 2)
    a, (t, n) = prime_class_order(-100000007, 2)
    assert a == 7253 and n == 2 ** a and n.bit_length() <= MAX_LEVEL_BITS

