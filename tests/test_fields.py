import math
import random

import pytest

from heckedyn.errors import DegreeZero, NonPrime, ZeroPolynomial
from heckedyn.fields import (FieldDesc, Poly, _is_irreducible, embedding,
                             encode, factor, is_prime, make_field,
                             multiplicative_order, poly_factor, poly_roots,
                             squarefree_split, xgcd)

from field_section import section


def frobenius(w, e=1):
    """Image under the p-power Frobenius applied e times."""
    return w ** (w.field.p ** e)


def brute_irreducible(p, coeffs):
    """Trial division by every monic polynomial of degree at most k/2."""
    k = len(coeffs) - 1
    F = make_field(p, 1)

    def to_poly(vec):
        big = make_field(p, 1)
        return vec

    # evaluate divisibility over F_p via integer polynomial arithmetic mod p
    def polymod(a, b):
        a = list(a)
        while len(a) >= len(b):
            c = a[-1]
            if c:
                sh = len(a) - len(b)
                for i, bc in enumerate(b):
                    a[sh + i] = (a[sh + i] - c * bc) % p
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    for d in range(1, k // 2 + 1):
        for n in range(p ** d):
            vec = []
            m = n
            for _ in range(d):
                m, r = divmod(m, p)
                vec.append(r)
            vec.append(1)
            if not polymod(list(coeffs), vec):
                return False
    return True


def test_make_field_base_case():
    F = make_field(5, 1)
    assert F.modulus == (0, 1)


def test_make_field_f9_modulus_matches_brute_scan():
    F = make_field(3, 2)
    # oracle: first monic irreducible quadratic in encoding order
    expected = None
    for n in range(9):
        coeffs = (n % 3, n // 3, 1)
        if brute_irreducible(3, coeffs):
            expected = coeffs
            break
    assert F.modulus == expected == (1, 0, 1)


def test_make_field_f121_modulus_irreducible():
    F = make_field(11, 2)
    assert brute_irreducible(11, F.modulus)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_make_field_modulus_is_first_irreducible_by_trial_division(p):
    for k in range(2, 7):
        for n in range(p ** k):
            coeffs = tuple(n // p ** i % p for i in range(k)) + (1,)
            if brute_irreducible(p, coeffs):
                break
        assert make_field(p, k).modulus == coeffs


# the moduli the modulus search chose before it ran on FieldDesc arithmetic,
# as the encoding of (c_0, ..., c_{k-1}): its index in the search order
RECORDED_MODULI = {
    (11, 2): 1, (11, 3): 15, (11, 4): 13, (11, 5): 2, (11, 6): 13,
    (11, 7): 15, (11, 8): 15, (11, 9): 16, (11, 10): 3, (11, 11): 111,
    (11, 12): 18, (11, 13): 26, (11, 14): 125, (11, 15): 23, (11, 16): 137,
    (11, 17): 15, (11, 18): 15, (11, 19): 139, (11, 20): 138, (11, 21): 122,
    (11, 22): 15, (11, 23): 152, (11, 24): 13, (11, 25): 2, (11, 26): 34,
    (11, 27): 123, (11, 28): 15, (11, 29): 24, (11, 30): 171, (11, 31): 172,
    (11, 32): 988, (11, 33): 15, (11, 34): 14, (11, 35): 171, (11, 36): 133,
    (11, 37): 139, (11, 38): 15, (11, 39): 12, (11, 40): 147,
    (1009, 2): 11, (4001, 4): 3, (2 ** 31 - 1, 3): 5,
}


def test_make_field_moduli_match_recorded_search():
    for (p, k), n in RECORDED_MODULI.items():
        F = make_field(p, k)
        assert F.modulus[k] == 1 and encode(p, F.modulus[:k]) == n


def test_modulus_search_rejects_a_root_in_fp_with_one_short_power():
    # Rabin's verdict against trial division on every monic quartic over
    # F_7; a candidate with a root in F_7 takes x^7 only, never x^(7^4)
    p, k = 7, 4

    class Recording(FieldDesc):
        def _powc(self, a, e):
            exponents.append(e)
            return FieldDesc._powc(self, a, e)

    rejected = 0
    for n in range(p ** k):
        coeffs = tuple(n // p ** i % p for i in range(k)) + (1,)
        exponents = []
        verdict = _is_irreducible(Recording(p, k, coeffs))
        assert verdict == brute_irreducible(p, coeffs), coeffs
        if any(sum(c * r ** i for i, c in enumerate(coeffs)) % p == 0
               for r in range(p)):
            assert exponents == [p], coeffs
            rejected += 1
    assert rejected > p ** k // 2


def test_field_inverse_of_zero_divisor_raises_zero_division():
    # the modulus search runs the field arithmetic over reducible moduli,
    # where a zero divisor must raise ZeroDivisionError at every k
    for modulus, a in (((0, 0, 1), (0, 1)),            # x mod x^2
                       ((6, 5, 1), (2, 1)),            # x + 2 mod (x+2)(x+3)
                       ((0, 1, 0, 1), (0, 1, 0))):     # x mod x(x^2+1)
        F = FieldDesc(7, len(a), modulus)
        with pytest.raises(ZeroDivisionError):
            F._invc(a)


def test_make_field_rejects_bad_input():
    with pytest.raises(NonPrime):
        make_field(10, 2)
    with pytest.raises(DegreeZero):
        make_field(5, 0)


def test_make_field_is_cached():
    assert make_field(7, 3) is make_field(7, 3)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(2, 42):
        assert is_prime(n) == (n in primes)
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 31 - 3)


def test_poly_roots_examples():
    F5 = make_field(5, 1)
    roots = poly_roots(Poly(F5, [-1, 0, 1]))
    assert sorted(r.enc() for r in roots) == [1, 4]

    F3 = make_field(3, 1)
    assert poly_roots(Poly(F3, [1, 0, 1])) == set()

    F9 = make_field(3, 2)
    roots = poly_roots(Poly(F9, [1, 0, 1]))
    # the two square roots of -1 are x and 2x in the basis with x^2 = -1
    assert sorted(r.enc() for r in roots) == [3, 6]
    # oracle: exhaustive evaluation
    f = Poly(F9, [1, 0, 1])
    brute = {z.enc() for z in F9.elements() if f(z).is_zero()}
    assert {r.enc() for r in roots} == brute


def test_poly_roots_rejects_zero():
    F5 = make_field(5, 1)
    with pytest.raises(ZeroPolynomial):
        poly_roots(Poly(F5, []))


def test_poly_factor_x2_minus_1():
    F5 = make_field(5, 1)
    f = Poly(F5, [-1, 0, 1])
    fac = poly_factor(f)
    assert [(g.degree(), m) for g, m in fac] == [(1, 1), (1, 1)]
    roots = sorted((-g.coeffs[0]).enc() for g, _ in fac)
    assert roots == [1, 4]


def test_poly_factor_x4_plus_1_over_f3():
    F3 = make_field(3, 1)
    f = Poly(F3, [1, 0, 0, 0, 1])
    fac = poly_factor(f)
    assert [g.degree() for g, _ in fac] == [2, 2]
    # oracle: exhaustive trial division over all monic quadratics
    found = []
    for n in range(9):
        g = Poly(F3, [n % 3, n // 3, 1])
        if (f % g).is_zero():
            found.append(g.key())
    assert sorted(found) == sorted(g.key() for g, _ in fac)


def test_poly_factor_product_is_multiset_union():
    F = make_field(7, 1)
    rng = random.Random(11)
    for _ in range(10):
        f = Poly(F, [rng.randrange(7) for _ in range(4)] + [1])
        g = Poly(F, [rng.randrange(7) for _ in range(3)] + [1])
        fg = poly_factor(f * g)
        merged = {}
        for h, m in poly_factor(f) + poly_factor(g):
            merged[h.key()] = merged.get(h.key(), 0) + m
        assert {h.key(): m for h, m in fg} == merged


def test_poly_factor_reconstructs_input():
    F9 = make_field(3, 2)
    rng = random.Random(5)
    for _ in range(8):
        f = Poly(F9, [F9.from_enc(rng.randrange(9)) for _ in range(5)]
                 + [F9.one()])
        if f.is_zero():
            continue
        prod = Poly(F9, [1])
        for g, m in poly_factor(f):
            for _ in range(m):
                prod = prod * g
        assert prod == f.monic()


def test_poly_factor_deterministic():
    F = make_field(13, 1)
    f = Poly(F, [3, 1, 4, 1, 5, 9, 2, 1])
    a = [(g.key(), m) for g, m in poly_factor(f, seed=0)]
    b = [(g.key(), m) for g, m in poly_factor(f, seed=0)]
    assert a == b


def test_frobenius_fixes_field():
    F = make_field(11, 2)
    rng = random.Random(3)
    for _ in range(20):
        a = F.from_enc(rng.randrange(F.order))
        assert (a ** F.order) == a


def test_inverse_and_division():
    F = make_field(11, 3)
    rng = random.Random(4)
    for _ in range(20):
        a = F.from_enc(rng.randrange(1, F.order))
        assert (a * a.inverse()).enc() == 1
        b = F.from_enc(rng.randrange(1, F.order))
        assert (a / b) * b == a


def test_roots_are_zeros():
    F = make_field(7, 2)
    rng = random.Random(9)
    for _ in range(6):
        f = Poly(F, [F.from_enc(rng.randrange(F.order)) for _ in range(4)]
                 + [F.one()])
        for r in poly_roots(f):
            assert f(r).is_zero()


def test_embedding_section_roundtrip():
    small = make_field(3, 2)
    big = make_field(3, 4)
    emb = embedding(small, big)
    for n in range(small.order):
        z = small.from_enc(n)
        img = emb(z)
        assert section(emb, img) == z
    # homomorphism on a sample
    a, b = small.from_enc(5), small.from_enc(7)
    assert emb(a * b) == emb(a) * emb(b)
    assert emb(a + b) == emb(a) + emb(b)


def test_sqrt_roundtrip():
    F = make_field(11, 2)
    rng = random.Random(6)
    for _ in range(20):
        a = F.from_enc(rng.randrange(F.order))
        sq = a * a
        r = sq.sqrt()
        assert r is not None and r * r == sq


def test_sqrt_large_field_roundtrip_and_repeatable():
    F = make_field(4001, 2)
    rng = random.Random(9)
    for _ in range(6):
        a = F.from_enc(rng.randrange(1, F.order))
        sq = a * a
        r = sq.sqrt()
        assert r * r == sq
        assert sq.sqrt() == r


def test_factor_brute_force():
    for n in range(1, 10 ** 4 + 1):
        parts = factor(n)
        qs = [q for q, _ in parts]
        assert qs == sorted(set(qs))
        assert all(is_prime(q) and e >= 1 for q, e in parts)
        prod = 1
        for q, e in parts:
            prod *= q ** e
        assert prod == n


def test_squarefree_split_brute_force():
    for n in range(1, 10 ** 4 + 1):
        core, f = squarefree_split(n)
        assert core * f * f == n
        assert all(core % (d * d) for d in range(2, math.isqrt(core) + 1))


def test_xgcd_bezout():
    for a in range(-30, 31):
        for b in range(-30, 31):
            g, s, t = xgcd(a, b)
            assert s * a + t * b == g
            assert abs(g) == math.gcd(a, b)


def order_by_powers(a, m):
    """Least r >= 1 with a^r = 1 mod m, by stepping through the powers."""
    a %= m
    r, x = 1, a
    while x != 1 % m:
        x = x * a % m
        r += 1
    return r


def test_multiplicative_order_matches_the_powers():
    for m in range(1, 200):
        for a in range(m):
            if math.gcd(a, m) == 1:
                assert multiplicative_order(a, m) == order_by_powers(a, m)


def test_multiplicative_order_at_2_31_minus_1():
    # 7 is a primitive root mod the Mersenne prime 2^31 - 1
    assert multiplicative_order(7, 2 ** 31 - 1) == 2 ** 31 - 2
    assert multiplicative_order(7 ** 6, 2 ** 31 - 1) == (2 ** 31 - 2) // 6
    assert multiplicative_order(2, 2 ** 31 - 1) == 31


def test_multiplicative_order():
    for m in range(1, 60):
        for a in range(-m, 2 * m):
            if math.gcd(a, m) != 1:
                if m > 1:
                    with pytest.raises(ValueError):
                        multiplicative_order(a, m)
                continue
            r = multiplicative_order(a, m)
            assert pow(a, r, m) == 1 % m
            assert all(pow(a, k, m) != 1 % m for k in range(1, r))
    # modulo 1 every integer is a unit of order 1
    assert multiplicative_order(3, 1) == 1
    assert multiplicative_order(0, 1) == 1


def test_embedding_section_linear_on_large_fields():
    small, big = make_field(257, 2), make_field(257, 4)
    emb = embedding(small, big)
    rng = random.Random(257)
    encs = [0, 1, 256, 257, small.order - 1]
    encs += [rng.randrange(small.order) for _ in range(200)]
    for n in encs:
        z = small.from_enc(n)
        assert section(emb, emb(z)) == z
    # F_{257^2} inside F_{257^4} is the fixed field of Frobenius squared
    off = [w for w in (big.from_enc(rng.randrange(big.order)) for _ in range(40))
           if frobenius(w, 2) != w]
    assert off
    for w in off:
        with pytest.raises(KeyError):
            section(emb, w)
    ident = embedding(small, small)
    for n in encs:
        z = small.from_enc(n)
        assert section(ident, ident(z)) == z


def test_nonresidue_is_first_non_square():
    for p, k in ((11, 1), (11, 2), (13, 2), (3, 2)):
        F = make_field(p, k)
        squares = {(z * z).enc() for z in F.elements()}
        first = min(n for n in range(1, F.order) if n not in squares)
        assert F.nonresidue().enc() == first


def _discrete_logs(F):
    """(generator, {enc: log}) by brute force: the first element of order
    q - 1 and the walk over its powers."""
    q = F.order
    primes = [r for r, _ in factor(q - 1)]
    gen = next(z for z in map(F.from_enc, range(1, q))
               if all(z ** ((q - 1) // r) != F.one() for r in primes))
    logs = {}
    z = F.one()
    for i in range(q - 1):
        logs[z.enc()] = i
        z = z * gen
    return gen, logs


# p = 5, 7, 11, 13 cover p = 1 / 3 mod 4 and p = 1 / 2 mod 3
@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_first_in_class_matches_brute_force(p, k):
    F = make_field(p, k)
    q = F.order
    gen, logs = _discrete_logs(F)
    for e in (2, 3, 4, 6):
        if (q - 1) % e:
            continue
        for r in range(e):
            # the class of gen^r is the z with log z = r mod e
            c = gen ** ((q - 1) // e * r)
            first = min(n for n in range(1, q) if logs[n] % e == r)
            assert F.first_in_class(e, c).enc() == first
    with pytest.raises(ValueError):   # 2 is no square root of unity
        F.first_in_class(2, F.elt(2))


def test_first_in_class_skips_f_p_outside_its_image(monkeypatch):
    # F_p is all square in F_{p^2}: the non-residue scan starts at encoding p
    F = make_field(1009, 2)
    seen = []
    from_enc = FieldDesc.from_enc
    monkeypatch.setattr(FieldDesc, "from_enc",
                        lambda self, n: seen.append(n) or from_enc(self, n))
    z = F.first_in_class(2, F.elt(-1))
    assert seen[0] == 1009 and seen[-1] == z.enc()
    assert len(seen) == z.enc() - 1008
