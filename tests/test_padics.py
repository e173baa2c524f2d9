import random

import pytest

from heckedyn.errors import (ConvergenceDomain, HeckedynError, NotAUnit,
                             NotSplit, PrecisionExhausted, UsageError)
from heckedyn.fields import is_prime
from heckedyn.padics import (PadicNumber, binom_pow, cyclo_binom_fixed,
                             orbit_closure, quadratic_roots,
                             smallest_nonresidue, sqrt_unit, teichmuller, wq)

from cyclotomic_ring import CyclotomicRing
from padic_series import exp, log1p, teichmuller_by_powers


def outcome(f, *args):
    """(value, precision) of f(*args), or the type of what it raises."""
    try:
        x = f(*args)
    except HeckedynError as e:
        return type(e)
    return x.val, x.prec


def series_binom_pow(t, lam):
    """exp(lam log(1 + t)) - 1; 0 for lam = 0 whatever t is."""
    if lam.val == 0:
        return PadicNumber(t.p, min(t.prec, lam.prec), 0)
    return exp(lam * log1p(t)) - 1


def test_binom_pow_matches_the_series():
    # value and precision alike, over mixed precisions, zero t or lam,
    # exponents that are 0 mod p^prec and t outside the disc
    rng = random.Random(19)
    shapes = []
    for p in (2, 3, 5, 41):
        for _ in range(300):
            Mt, Ml = rng.randint(1, 30), rng.randint(1, 30)
            v = rng.choice((0, 1, 1, 2, 3))
            tv = rng.choice((0, p ** Mt) + (rng.randrange(1, p ** 6) * p ** v,) * 8)
            lv = rng.choice((0, p ** Ml, rng.randrange(-50, 50))
                            + (rng.randrange(p ** Ml),) * 7)
            t, lam = PadicNumber(p, Mt, tv), PadicNumber(p, Ml, lv)
            got = outcome(binom_pow, t, lam)
            assert got == outcome(series_binom_pow, t, lam), (p, t, lam)
            shapes.append("raises" if got is ConvergenceDomain
                          else "zero" if got[0] == 0 else "value")
    assert min(shapes.count(s) for s in ("raises", "zero", "value")) > 100


def test_binom_pow_domain_after_the_zero_returns():
    assert outcome(binom_pow, PadicNumber(5, 6, 2), PadicNumber(5, 6, 0)) == (0, 6)
    assert outcome(binom_pow, PadicNumber(2, 8, 2), PadicNumber(2, 4, 16)) == (0, 4)
    with pytest.raises(ConvergenceDomain):
        binom_pow(PadicNumber(5, 6, 2), PadicNumber(5, 6, 3))
    with pytest.raises(ConvergenceDomain):
        binom_pow(PadicNumber(2, 8, 2), PadicNumber(2, 8, 3))  # p = 2 needs ord >= 2
    assert binom_pow(PadicNumber(2, 8, 4), PadicNumber(2, 8, 3)).val == 124


def test_teichmuller_matches_repeated_powers():
    rng = random.Random(20)
    for p in (2, 3, 5, 41):
        for _ in range(100):
            M = rng.randint(1, 30)
            x = PadicNumber(p, M, rng.randrange(p ** M))
            assert outcome(teichmuller, x) == outcome(teichmuller_by_powers, x)


def test_log1p_zero_and_domain():
    assert log1p(PadicNumber(5, 6, 0)).val == 0
    with pytest.raises(ConvergenceDomain):
        log1p(PadicNumber(5, 6, 2))
    with pytest.raises(ConvergenceDomain):
        log1p(PadicNumber(2, 8, 2))  # p = 2 needs ord >= 2


def test_log_exp_round_trips():
    rng = random.Random(0)
    for p in (3, 5, 7, 2):
        lo = 2 if p == 2 else 1
        for _ in range(25):
            v = rng.randint(lo, 3)
            u = rng.randrange(1, p ** 4)
            t = PadicNumber(p, 10, u * p ** v)
            if t.val == 0:
                continue
            assert exp(log1p(t)) == t + 1
            assert log1p(exp(t) - 1) == t


def test_log_isometry():
    rng = random.Random(1)
    for _ in range(50):
        v = rng.randint(1, 4)
        u = rng.randrange(1, 5 ** 5)
        if u % 5 == 0:
            u += 1
        t = PadicNumber(5, 12, u * 5 ** v)
        assert log1p(t).valuation() == v


def test_exp_homomorphism_instance():
    t = PadicNumber(5, 4, 5)
    assert exp(t) * exp(t) == exp(PadicNumber(5, 4, 10))


def test_teichmuller_examples():
    assert teichmuller(PadicNumber(5, 3, 1)).val == 1
    assert teichmuller(PadicNumber(5, 2, 2)).val == 7
    rng = random.Random(2)
    for p in (5, 11, 13):
        for _ in range(20):
            u = rng.randrange(1, p ** 6)
            if u % p == 0:
                continue
            x = PadicNumber(p, 6, u)
            w = teichmuller(x)
            assert (w ** (p - 1)).val == 1
            assert (w.val - x.val) % p == 0


def test_teichmuller_multiplicative():
    p = 7
    rng = random.Random(3)
    for _ in range(20):
        a = PadicNumber(p, 8, rng.randrange(1, p ** 8) | 1)
        b = PadicNumber(p, 8, rng.randrange(1, p ** 8) | 1)
        if not a.is_unit() or not b.is_unit():
            continue
        assert teichmuller(a * b) == teichmuller(a) * teichmuller(b)


def test_teichmuller_needs_unit():
    with pytest.raises(NotAUnit):
        teichmuller(PadicNumber(5, 4, 10))


def test_binom_pow_identity_exponent():
    t = PadicNumber(7, 6, 21)
    assert binom_pow(t, PadicNumber(7, 6, 1)) == t


def test_binom_pow_inverse_exponent_geometric():
    t = PadicNumber(7, 8, 14)
    got = binom_pow(t, PadicNumber(7, 8, -1))
    assert got == (-t) / (t + 1)


def test_binom_pow_integer_example():
    # (1+5)^5 - 1 = 7775 = 25 mod 125
    got = binom_pow(PadicNumber(5, 3, 5), PadicNumber(5, 3, 5))
    assert got.val == 7775 % 125 == 25


def test_binom_pow_matches_binomial_series():
    # direct series sum_k C(lam, k) t^k with integer exponent
    from math import comb
    p, M = 5, 6
    for lam in (2, 3, 7, 12):
        for tv in (5, 10, 50):
            t = PadicNumber(p, M, tv)
            direct = sum(comb(lam, k) * tv ** k for k in range(1, lam + 1))
            assert binom_pow(t, PadicNumber(p, M, lam)).val == direct % p ** M


def test_binom_pow_homomorphism_guarded():
    rng = random.Random(4)
    p, M, guard = 7, 12, 2
    for _ in range(30):
        t = PadicNumber(p, M, rng.randrange(1, p ** 8) * p)
        l1 = PadicNumber(p, M, rng.randrange(1, p ** M))
        l2 = PadicNumber(p, M, rng.randrange(1, p ** M))
        lhs = binom_pow(binom_pow(t, l1), l2)
        rhs = binom_pow(t, l1 * l2)
        assert (lhs - rhs).val % p ** (M - guard) == 0


def test_binom_pow_isometry():
    rng = random.Random(5)
    p, M = 5, 10
    for _ in range(50):
        v = rng.randint(1, 4)
        u = rng.randrange(1, p ** 4)
        if u % p == 0:
            u += 1
        t = PadicNumber(p, M, u * p ** v)
        lam = rng.randrange(1, p ** M)
        if lam % p == 0:
            lam += 1
        got = binom_pow(t, PadicNumber(p, M, lam))
        assert got.valuation() == v


def test_cyclo_binom_fixed_examples():
    for a in (1, 2, 3):
        assert cyclo_binom_fixed(5, a, PadicNumber(5, 8, 1))
    assert cyclo_binom_fixed(5, 1, PadicNumber(5, 8, 6))
    assert not cyclo_binom_fixed(5, 2, PadicNumber(5, 8, 6))


def test_cyclo_ring_root_of_unity():
    ring = CyclotomicRing(5, 2, 6)
    z = ring.gen_plus_one()
    assert (z ** 25) == ring.one()
    assert not (z ** 5) == ring.one()


def test_cyclo_binom_fixed_matches_the_ring():
    # (1 + t)^lam = 1 + t in Z/p^M[t]/Phi_{p^a}(1 + t) against the digit test
    for p, a in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)):
        ring = CyclotomicRing(p, a, 4)
        zeta = ring.gen_plus_one()
        for lam in range(1, 2 * p ** a + 2):
            if lam % p == 0:
                continue
            expected = zeta ** lam == zeta
            assert cyclo_binom_fixed(p, a, PadicNumber(p, 4, lam)) == expected


def test_cyclo_binom_fixed_rejects_bad_inputs():
    with pytest.raises(UsageError):
        cyclo_binom_fixed(3, 1, PadicNumber(2, 8, 3))
    with pytest.raises(PrecisionExhausted):
        cyclo_binom_fixed(2, 2, PadicNumber(2, 1, 1))
    with pytest.raises(NotAUnit):
        cyclo_binom_fixed(2, 2, PadicNumber(2, 8, 2))
    # the digit test reads only a digits, so no cyclotomic quotient is built
    assert not cyclo_binom_fixed(101, 2, PadicNumber(101, 24, 102))
    assert cyclo_binom_fixed(101, 2, PadicNumber(101, 24, 1 + 101 ** 2))


def test_cyclo_binom_both_directions():
    for p in (3, 5, 7):
        for a in (1, 2):
            lam_fix = PadicNumber(p, 8, 1 + p ** a)
            lam_move = PadicNumber(p, 8, 1 + p ** (a - 1)) if a > 1 \
                else PadicNumber(p, 8, 2 if p != 2 else 3)
            assert cyclo_binom_fixed(p, a, lam_fix)
            if (lam_move.val - 1) % p ** a != 0:
                assert not cyclo_binom_fixed(p, a, lam_move)


def brute_orbit_residues(lam_val, p, k, count):
    seen = set()
    cur = 1
    for _ in range(count):
        cur = cur * lam_val % p ** k
        seen.add(cur)
    return seen


def test_orbit_closure_examples():
    d = orbit_closure(PadicNumber(5, 8, 5 ** 8 - 1))
    assert d.finite and d.component_count == 2

    d = orbit_closure(PadicNumber(5, 8, 6))
    assert not d.finite and d.teich_order == 1 and d.wild_valuation == 1
    assert d.radius_exponent == -1

    d = orbit_closure(PadicNumber(5, 8, 2))
    assert d.component_count == 4 and d.wild_valuation == 1


def test_orbit_closure_matches_brute_residues():
    rng = random.Random(6)
    for p in (3, 5, 7):
        for _ in range(12):
            lam_val = rng.randrange(2, p ** 6)
            if lam_val % p == 0:
                continue
            lam = PadicNumber(p, 8, lam_val)
            d = orbit_closure(lam)
            if d.finite:
                continue
            for k in range(1, 4):
                attained = brute_orbit_residues(lam_val, p, k, p ** (k + 1) * 4)
                r, v = d.component_count, d.wild_valuation
                # the attained set must equal the union over i < r of the
                # cosets lam^i * (1 + p^v Z) mod p^k
                union = set()
                cur = 1
                for i in range(r):
                    stride = p ** min(v, k)
                    m = p ** k
                    x = cur % m
                    for j in range(p ** max(k - v, 0)):
                        union.add(x * (1 + j * stride) % m)
                    cur = cur * lam_val % p ** 8
                assert attained == union, (p, lam_val, k)


def test_orbit_closure_needs_unit():
    with pytest.raises(NotAUnit):
        orbit_closure(PadicNumber(5, 6, 10))


def test_quadratic_roots_examples():
    r1, r2 = quadratic_roots(3, 2, 5, 6)
    assert {r1.val, r2.val} == {1, 2}
    with pytest.raises(NotSplit):
        quadratic_roots(4, 5, 11, 6)  # disc -4 is a non-residue mod 11


def test_quadratic_roots_verify():
    rng = random.Random(7)
    count = 0
    for _ in range(200):
        t = rng.randrange(-40, 40)
        n = rng.randrange(1, 40)
        try:
            r1, r2 = quadratic_roots(t, n, 7, 10)
        except NotSplit:
            continue
        count += 1
        for r in (r1, r2):
            assert (r * r - r * t + n).val == 0
        assert (r1 * r2).val == n % 7 ** 10
    assert count > 20


def test_sqrt_unit():
    for p in (3, 5, 7, 13):
        rng = random.Random(p)
        for _ in range(20):
            u = rng.randrange(1, p ** 6)
            if u % p == 0:
                continue
            s = sqrt_unit(PadicNumber(p, 6, u * u % p ** 6))
            assert s is not None and (s * s).val == u * u % p ** 6


def _sqrt_mod_p(a, p):
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def _reference_nonresidue(p):
    for d in range(2, p):
        if pow(d, (p - 1) // 2, p) == p - 1:
            return d
    raise ValueError("no quadratic non-residue found")


def test_sqrt_unit_root_mod_p_matches_integer_tonelli_shanks():
    # every residue at p < 600, which includes p = 1 mod 16 (257, 337, ...)
    for p in range(3, 600, 2):
        if not is_prime(p):
            continue
        for a in sorted({x * x % p for x in range(1, p)}):
            assert sqrt_unit(PadicNumber(p, 2, a)).val % p == _sqrt_mod_p(a, p)
        assert all(sqrt_unit(PadicNumber(p, 2, a)) is None
                   for a in range(1, p) if pow(a, (p - 1) // 2, p) != 1)


def test_wq_norm_surjective_onto_units():
    # norm map W(F_q)^x -> Z_p^x hits every unit residue mod p^2
    for p in (3, 5, 7, 11, 13):
        seen = set()
        M = 4
        for a0 in range(p):
            for a1 in range(p):
                if a0 == 0 and a1 == 0:
                    continue
                for b0 in range(p):
                    w = wq(p, M, a0 + p * b0, a1)
                    n = w.norm()
                    if n.is_unit():
                        seen.add(n.val % p ** 2)
        units = {u for u in range(p ** 2) if u % p != 0}
        assert units <= seen, p


def test_wq_odd_valuation_norms():
    # -p * Nm covers odd-valuation classes: -p*Nm(b) for unit b has
    # valuation 1 and its unit part ranges over all residues mod p
    for p in (3, 5, 7, 11, 13):
        seen = set()
        for b0 in range(p):
            for b1 in range(p):
                if b0 == 0 and b1 == 0:
                    continue
                w = wq(p, 4, b0, b1)
                n = -p * w.norm().val
                v = n % p ** 2
                if v % p == 0 and v // p % p != 0:
                    seen.add((v // p) % p)
        assert seen == set(range(1, p)), p


def test_valuation_raises_at_zero():
    with pytest.raises(PrecisionExhausted):
        PadicNumber(5, 4, 0).valuation()


def test_precision_bookkeeping():
    a = PadicNumber(5, 6, 50)
    b = a.shift_down(2)
    assert b.prec == 4 and b.val == 2
    c = PadicNumber(5, 6, 7) * PadicNumber(5, 3, 2)
    assert c.prec == 3


def test_smallest_nonresidue():
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(11) == 2
    for p in range(3, 5000, 2):
        if is_prime(p):
            assert smallest_nonresidue(p) == _reference_nonresidue(p)
    with pytest.raises(ValueError):
        smallest_nonresidue(2)
