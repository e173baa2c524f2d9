import math
import random

import pytest

from heckedyn.errors import (DegreeZero, NonPrime, UnsupportedCharacteristic,
                             ZeroPolynomial)
from heckedyn.fields import (FieldDesc, Poly, _is_irreducible,
                             distinct_degree_parts, embedding, encode, factor,
                             is_prime, make_field, multiplicative_order,
                             poly_factor, poly_roots, power, split_prime,
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


def reference_invc(F, a):
    """The inverse of a in F_p[x]/(F.modulus), k >= 3, by extended Euclid
    with a quotient per division step: the loop that the one elimination
    loop of ``FieldDesc._invc`` replaced."""
    if not any(a):
        raise ZeroDivisionError("inversion of zero field element")
    p = F.p
    r0 = list(F.modulus)
    r1 = [c for c in a]
    while r1 and r1[-1] == 0:
        r1.pop()
    t0, t1 = [0], [1]
    while True:
        if len(r1) == 1:
            inv = pow(r1[0], -1, p)
            res = [c * inv % p for c in t1]
            res += [0] * (F.k - len(res))
            return tuple(res[: F.k])
        # divide r0 by r1
        q = [0] * (len(r0) - len(r1) + 1)
        rem = list(r0)
        inv_lead = pow(r1[-1], -1, p)
        for sh in range(len(rem) - len(r1), -1, -1):
            coef = rem[sh + len(r1) - 1] * inv_lead % p
            if coef:
                q[sh] = coef
                for i, c in enumerate(r1):
                    rem[sh + i] = (rem[sh + i] - coef * c) % p
        while rem and rem[-1] == 0:
            rem.pop()
        # t0, t1 = t1, t0 - q*t1
        qt = [0] * (len(q) + len(t1) - 1)
        for i, qi in enumerate(q):
            if qi:
                for j, tj in enumerate(t1):
                    qt[i + j] = (qt[i + j] + qi * tj) % p
        nt = [0] * max(len(t0), len(qt))
        for i, c in enumerate(t0):
            nt[i] = c
        for i, c in enumerate(qt):
            nt[i] = (nt[i] - c) % p
        while nt and nt[-1] == 0:
            nt.pop()
        r0, r1 = r1, rem
        t0, t1 = t1, nt if nt else [0]
        if not r1:
            raise ZeroDivisionError("element not invertible")


def reference_is_irreducible(F):
    """Rabin's test, the one Ben-Or's loop replaced, with the inverse of
    ``reference_invc`` for k >= 3: f is irreducible iff x^(p^k) = x and
    x^(p^(k/t)) - x is a unit for every prime t | k, each power taken
    from x."""
    p, k = F.p, F.k
    x = (0, 1) + (0,) * (k - 2)
    invc = F._invc if k < 3 else lambda a: reference_invc(F, a)

    def unit(e):
        try:
            invc(F._subc(F._powc(x, p ** e), x))
        except ZeroDivisionError:
            return False
        return True

    short = (1, 2) if k >= 3 else (1,)
    if not all(unit(e) for e in short) or F._powc(x, p ** k) != x:
        return False
    return all(unit(k // t) for t, _ in factor(k) if k // t not in short)


def reference_scan_modulus(p, k):
    """The modulus by Rabin's test on every candidate in encoding order,
    the binomial block included: the search that the closed form for the
    binomials replaced."""
    field = None
    for n in range(p ** k):
        c = []
        m = n
        for _ in range(k):
            m, r = divmod(m, p)
            c.append(r)
        cand = FieldDesc(p, k, tuple(c + [1]))
        if reference_is_irreducible(cand):
            field = cand
            break
    if field is None:  # pragma: no cover - cannot happen
        raise RuntimeError("no irreducible polynomial found")
    return field.modulus


def test_make_field_matches_the_full_rabin_scan():
    # Lidl-Niederreiter decides the binomial block for every odd p < 200
    # and 2 <= k <= 8, whether a binomial is the modulus or none is
    binomial = 0
    for p in filter(is_prime, range(3, 200)):
        for k in range(2, 9):
            got = make_field(p, k).modulus
            assert got == reference_scan_modulus(p, k), (p, k)
            binomial += not any(got[1:k])
    assert 0 < binomial < 315


# the full scan's moduli at (p, k) where it spent its time in the binomial
# block, as the encoding of (c_0, ..., c_{k-1})
SCANNED_MODULI = {(10007, 4): 10013, (10009, 4): 7, (10007, 6): 10014,
                  (1019, 8): 1024, (100003, 4): 100010}


def test_make_field_large_moduli_match_the_full_scan():
    for (p, k), n in SCANNED_MODULI.items():
        F = make_field(p, k)
        assert F.modulus[k] == 1 and encode(p, F.modulus[:k]) == n


@pytest.mark.parametrize("k", [1, 2, 5])
def test_make_field_rejects_characteristic_2(k):
    with pytest.raises(UnsupportedCharacteristic, match="odd p"):
        make_field(2, k)


def test_modulus_search_rejects_a_root_in_fp_with_one_short_power():
    # Ben-Or's verdict against trial division on every monic quartic over
    # F_7; a candidate with a root in F_7 takes x^7 only, never x^(7^2)
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


def random_modulus(rng, p, k):
    """A monic modulus of degree k, reducible or not: random, or a product
    of two random monic factors, so that zero divisors are common."""
    if rng.random() < 0.5:
        return tuple(rng.randrange(p) for _ in range(k)) + (1,)
    d = rng.randrange(1, k)
    f, g = (Poly(make_field(p, 1), [rng.randrange(p) for _ in range(n)] + [1])
            for n in (d, k - d))
    return tuple(c.coeffs[0] for c in (f * g).coeffs)


def inverse_or_error(invc, a):
    try:
        return invc(a)
    except ZeroDivisionError:
        return ZeroDivisionError


def test_invc_matches_the_quotient_loop():
    # reducible and irreducible moduli, p <= 13 and 3 <= k <= 8, units and
    # zero divisors alike: the same inverse or the same ZeroDivisionError
    rng = random.Random(30)
    raised = 0
    for _ in range(1000):
        p, k = rng.choice((3, 5, 7, 11, 13)), rng.randrange(3, 9)
        F = FieldDesc(p, k, random_modulus(rng, p, k))
        for _ in range(8):
            a = tuple(rng.randrange(p) for _ in range(k))
            if rng.random() < 0.2:  # a sparse element, often a zero divisor
                a = tuple(c if rng.random() < 0.3 else 0 for c in a)
            got = inverse_or_error(F._invc, a)
            assert got == inverse_or_error(
                lambda b: reference_invc(F, b), a), (F.modulus, a)
            if got is ZeroDivisionError:
                raised += 1
            else:
                assert F._mulc(a, got) == (1,) + (0,) * (k - 1)
    assert 1000 < raised < 7000


@pytest.mark.parametrize("p, k", [(11, 24), (1009, 4), (3, 40)])
def test_invc_matches_the_quotient_loop_in_the_field(p, k):
    F = make_field(p, k)
    rng = random.Random(p + k)
    for _ in range(50):
        a = tuple(rng.randrange(p) for _ in range(k))
        assert F._invc(a) == reference_invc(F, a)


def moebius(n):
    """The Moebius function from the factorization of n."""
    primes = factor(n)
    return 0 if any(e > 1 for _, e in primes) else (-1) ** len(primes)


@pytest.mark.parametrize("p, k", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
                                  (5, 3), (5, 4), (5, 5), (7, 3), (7, 4),
                                  (11, 3), (13, 3)])
def test_irreducible_count_is_gauss(p, k):
    # (1/k) sum_{d | k} mu(d) p^(k/d) monic irreducibles of degree k
    count = sum(_is_irreducible(FieldDesc(
                    p, k, tuple(n // p ** i % p for i in range(k)) + (1,)))
                for n in range(p ** k))
    gauss = sum(moebius(d) * p ** (k // d)
                for d in range(1, k + 1) if k % d == 0)
    assert count * k == gauss


@pytest.mark.parametrize("p, k", [(3, 6), (5, 4), (7, 3)])
def test_is_irreducible_matches_rabin(p, k):
    for n in range(p ** k):
        F = FieldDesc(p, k, tuple(n // p ** i % p for i in range(k)) + (1,))
        assert _is_irreducible(F) == reference_is_irreducible(F), F.modulus


def test_power_is_square_and_multiply():
    # the integers mod m, boxed in 1-tuples, against pow: one square per
    # bit past the first, each taken as mul(a, a), one product per set bit
    m = 10 ** 9 + 7
    calls = []

    def mul(a, b):
        calls.append(a is b)
        return (a[0] * b[0] % m,)

    rng = random.Random(7)
    for e in [0, 1, 2, 3, 64, 65] + [rng.randrange(1, 2 ** 70)
                                    for _ in range(20)]:
        del calls[:]
        a = rng.randrange(2, m)
        assert power(mul, (1,), (a,), e) == (pow(a, e, m),)
        assert calls.count(True) == max(e.bit_length() - 1, 0)
        assert calls.count(False) == bin(e).count("1")


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


@pytest.mark.parametrize("p, k", [(7, 1), (11, 1), (3, 2)])
def test_poly_roots_match_exhaustive_evaluation(p, k):
    # a nonzero constant times up to three linear factors, each to a power
    # up to 3, times up to two irreducible quadratics: repeated roots,
    # rootless cofactors and constants, against every element of F
    F = make_field(p, k)
    elts = list(F.elements())
    irreducible = [q for q in (Poly(F, [c, b, F.one()])
                               for b in elts for c in elts)
                   if not any(q(z).is_zero() for z in elts)]
    rng = random.Random(p ** k)
    for trial in range(48):
        f = Poly(F, [F.from_enc(rng.randrange(1, F.order))])
        for i in range(trial % 4):
            linear = Poly(F, [-rng.choice(elts), F.one()])
            for _ in range(1 + (trial + i) % 3):
                f = f * linear
        for _ in range(trial // 4 % 3):
            f = f * rng.choice(irreducible)
        brute = {z.enc() for z in elts if f(z).is_zero()}
        assert {r.enc() for r in poly_roots(f)} == brute


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
    a = [(g.key(), m) for g, m in poly_factor(f)]
    b = [(g.key(), m) for g, m in poly_factor(f)]
    assert a == b


def _parts_by_degree(f):
    """poly_factor's factors of f multiplied together by degree."""
    parts = {}
    for g, m in poly_factor(f):
        assert m == 1
        parts[g.degree()] = parts.get(g.degree(), Poly(f.field, [1])) * g
    return sorted(parts.items())


def _random_squarefree(F, rng, degree):
    f = Poly(F, [F.from_enc(rng.randrange(F.order)) for _ in range(degree)]
             + [F.one()])
    return f // f.gcd(f.derivative())


@pytest.mark.parametrize("p, k", [(7, 1), (13, 1), (5, 2), (11, 2)])
def test_distinct_degree_parts_match_poly_factor(p, k):
    F = make_field(p, k)
    rng = random.Random(p * k)
    for _ in range(12):
        f = _random_squarefree(F, rng, rng.randrange(1, 13))
        parts = distinct_degree_parts(f)
        assert parts == _parts_by_degree(f)
        for top in (1, 2, 3):
            assert distinct_degree_parts(f, top) == [
                (d, g) for d, g in parts if d <= top]


@pytest.mark.parametrize("p, k", [(7, 1), (5, 2)])
def test_distinct_degree_parts_leftover_past_half_the_degree(p, k):
    # (x - 1) g5 with g5 irreducible of degree 5 (the modulus of F_{p^5},
    # still irreducible over F_{p^2}): the loop stops at d = 3, since
    # 5 < 2 * 3, and the rest is the last part
    F = make_field(p, k)
    g5 = Poly(F, list(make_field(p, 5).modulus))
    f = Poly(F, [-1, 1]) * g5
    assert distinct_degree_parts(f) == [(1, Poly(F, [-1, 1])), (5, g5)]
    assert distinct_degree_parts(f) == _parts_by_degree(f)
    assert distinct_degree_parts(f, 4) == [(1, Poly(F, [-1, 1]))]
    assert distinct_degree_parts(g5, 5) == [(5, g5)]


def test_distinct_degree_parts_list_each_repeated_factor_once():
    F = make_field(7, 1)
    lin1, lin2, quad = Poly(F, [-1, 1]), Poly(F, [-2, 1]), Poly(F, [1, 0, 1])
    assert distinct_degree_parts(lin1 * lin1 * lin2) == [(1, lin1 * lin2)]
    assert distinct_degree_parts(lin1 * lin1 * lin2, 1) == [(1, lin1 * lin2)]
    assert distinct_degree_parts(quad * quad) == [(2, quad)]
    assert distinct_degree_parts(lin1 * lin1 * quad) == [(1, lin1), (2, quad)]


@pytest.mark.parametrize("p, k", [(7, 1), (3, 2)])
def test_distinct_degree_parts_of_repeated_factors_match_brute_force(p, k):
    # a nonzero constant times up to two linear and two irreducible
    # quadratic factors, each to a power up to 3: each part is the product
    # of the distinct factors of its degree, the quadratics found by
    # exhaustive evaluation
    F = make_field(p, k)
    elts = list(F.elements())
    pools = {1: [Poly(F, [-z, F.one()]) for z in elts],
             2: [q for q in (Poly(F, [c, b, F.one()])
                             for b in elts for c in elts)
                 if not any(q(z).is_zero() for z in elts)]}
    rng = random.Random(p ** k + 1)
    for trial in range(48):
        f = Poly(F, [F.from_enc(rng.randrange(1, F.order))])
        expected = []
        for d, pool in pools.items():
            distinct = {}
            for _ in range((trial >> (d - 1) * 2) % 3):
                g = rng.choice(pool)
                distinct[g.key()] = g
                for _ in range(rng.randrange(1, 4)):
                    f = f * g
            if distinct:
                part = Poly(F, [1])
                for g in distinct.values():
                    part = part * g
                expected.append((d, part))
        assert distinct_degree_parts(f) == expected
        for top in (1, 2):
            assert distinct_degree_parts(f, top) == [
                (d, g) for d, g in expected if d <= top]


def test_split_prime_matches_the_loop():
    rng = random.Random(23)
    for _ in range(500):
        q = rng.choice((2, 3, 5, 7, 11, 4, 9))
        n = rng.choice((1, -1)) * rng.randrange(1, 10 ** 6) * q ** rng.randrange(6)
        v, m = 0, n
        while m % q == 0:
            m //= q
            v += 1
        assert split_prime(n, q) == (v, m)
        assert n == m * q ** v and m % q != 0


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
