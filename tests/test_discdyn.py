import itertools
import math
import random

import pytest

from heckedyn import discdyn
from heckedyn.discdyn import (DiscAutomorphism, DiscPoint, EmpiricalMeasure,
                              QuatUnit, _mobius_u, _unit_map,
                              apply, classify_periodic, identity_unit,
                              mobius_apply, qc_count, quat_embed, random_walk,
                              serre_tate_multivar, transitivity_witness)
from heckedyn.errors import (ChartEscape, ConvergenceDomain, HeckedynError,
                             NotAUnit, PrecisionExhausted, UsageError)
from heckedyn.padics import (PadicNumber, WqElement, quadratic_roots,
                             sat_membership, sqrt_unit, teichmuller, wq)
from heckedyn.ssgraph import build_ssgraph, closed_walks, walk_char_poly

import discdyn_reference
from padic_series import exp, log1p


def outcome(f, *args):
    """What f(*args) returns, as plain numbers, or the type it raises."""
    try:
        x = f(*args)
    except HeckedynError as e:
        return type(e)
    if isinstance(x, QuatUnit):
        return tuple((c.val, c.prec) for c in (x.a.a0, x.a.a1, x.b.a0, x.b.a1))
    return [[(c.val, c.prec) for c in row] for row in x]


def test_apply_identity_and_scalar():
    t = PadicNumber(5, 10, 35)
    auto = DiscAutomorphism(PadicNumber(5, 10, 1))
    assert apply(auto, t) == t
    # integer endomorphisms give the identity exponent pair
    from heckedyn.volcano import lambda_of_endo
    pair = lambda_of_endo(2 * 7, 49, 5, 10)
    auto2 = DiscAutomorphism(pair[0])
    assert apply(auto2, t) == t


def test_apply_example():
    auto = DiscAutomorphism(PadicNumber(5, 3, 2))
    got = apply(auto, PadicNumber(5, 3, 5))
    assert got.val == 35  # (1+5)^2 - 1


def test_disc_automorphism_needs_unit():
    with pytest.raises(NotAUnit):
        DiscAutomorphism(PadicNumber(5, 4, 10))


def test_serre_tate_multivar_identity():
    p, M, g = 7, 10, 2
    one = PadicNumber(p, M, 1)
    zero = PadicNumber(p, M, 0)
    I = [[one, zero], [zero, one]]
    T = [[PadicNumber(p, M, 7), PadicNumber(p, M, 14)],
         [PadicNumber(p, M, 21), PadicNumber(p, M, 35)]]
    out = serre_tate_multivar(I, I, T)
    for i in range(g):
        for j in range(g):
            assert out[i][j] == T[i][j]


def test_serre_tate_multivar_g1_matches_apply():
    p, M = 5, 16
    r1, r2 = quadratic_roots(3, 2, p, M)
    t = PadicNumber(p, M, 35)
    out = serre_tate_multivar([[r1.inverse()]], [[r2]], [[t]])
    assert out[0][0] == apply(DiscAutomorphism(r2 / r1), t)


def test_serre_tate_multivar_composition_law():
    # (f1 f2)* = f1* f2*: exponent matrices multiply
    p, M, g = 7, 12, 2
    rng = random.Random(3)

    def rand_mat():
        return [[PadicNumber(p, M, rng.randrange(1, p ** 4) * (1 if (i == j) else p))
                 for j in range(g)] for i in range(g)]

    def mat_mul(A, B):
        return [[sum((A[i][k] * B[k][j] for k in range(g)),
                     PadicNumber(p, M, 0)) for j in range(g)] for i in range(g)]

    for _ in range(5):
        F1, G1 = rand_mat(), rand_mat()
        F2, G2 = rand_mat(), rand_mat()
        T = [[PadicNumber(p, M, rng.randrange(1, p ** 6) * p) for _ in range(g)]
             for _ in range(g)]
        inner = serre_tate_multivar(F2, G2, T)
        lhs = serre_tate_multivar(F1, G1, inner)
        rhs = serre_tate_multivar(mat_mul(F2, F1), mat_mul(G2, G1), T)
        for i in range(g):
            for j in range(g):
                assert (lhs[i][j] - rhs[i][j]).val % p ** (M - 2) == 0


def series_multivar(F_inv, G_dag, T):
    """Entrywise prod_{r,s} (1 + t_rs)^(F_inv[r][i] G_dag[s][j]) - 1,
    computed through the logarithm: exp(F_inv^T L G_dag) - 1."""
    g = len(T)
    L = [[log1p(T[r][s]) for s in range(g)] for r in range(g)]
    out = []
    for i in range(g):
        row = []
        for j in range(g):
            acc = None
            for r in range(g):
                for s in range(g):
                    term = F_inv[r][i] * L[r][s] * G_dag[s][j]
                    acc = term if acc is None else acc + term
            if acc.val == 0:
                row.append(PadicNumber(acc.p, acc.prec, 0))
            else:
                row.append(exp(acc) - 1)
        out.append(row)
    return out


def test_serre_tate_multivar_matches_the_series():
    # value and precision of every entry, with mixed precisions, zero
    # entries and T entries outside the disc
    rng = random.Random(19)
    raised = 0
    for p in (2, 3, 5, 41):
        lo = 2 if p == 2 else 1
        for _ in range(40):
            g = rng.randint(1, 3)

            def draw(is_T):
                prec = rng.randint(1, 20)
                if rng.random() < 0.15:
                    return PadicNumber(p, prec, 0)
                if is_T:
                    v = lo if rng.random() < 0.9 else lo - 1
                    return PadicNumber(p, prec, rng.randrange(1, p ** 6) * p ** v)
                return PadicNumber(p, prec, rng.randrange(p ** prec))

            F, G, T = ([[draw(k == 2) for _ in range(g)] for _ in range(g)]
                       for k in range(3))
            got = outcome(serre_tate_multivar, F, G, T)
            assert got == outcome(series_multivar, F, G, T), (p, F, G, T)
            raised += got is ConvergenceDomain
    assert 10 < raised < 100


def test_serre_tate_multivar_checks_t_with_zero_exponents():
    # every exponent is 0 mod p^prec, so no factor is computed; the entry
    # outside the disc still raises, as the logarithm did
    for p, t in ((2, 2), (5, 1), (41, 3)):
        zero = PadicNumber(p, 10, p ** 10)
        T = [[PadicNumber(p, 10, 4 * p), PadicNumber(p, 10, t)],
             [PadicNumber(p, 10, 0), PadicNumber(p, 10, 4 * p)]]
        Z = [[zero, zero], [zero, zero]]
        with pytest.raises(ConvergenceDomain):
            serre_tate_multivar(Z, Z, T)
        with pytest.raises(ConvergenceDomain):
            series_multivar(Z, Z, T)


def test_classify_periodic():
    assert classify_periodic(PadicNumber(5, 8, 3), 4, 0)
    lam = sqrt_unit(PadicNumber(5, 8, 6))
    assert lam is not None and (lam * lam).val == 6 % 5 ** 8
    assert classify_periodic(lam, 2, 1)      # lam^2 = 6, 5 | 5
    expects = (lam.val - 1) % 5 == 0
    assert classify_periodic(lam, 1, 1) == expects
    other = -lam
    assert classify_periodic(other, 1, 1) == ((other.val - 1) % 5 == 0)
    assert classify_periodic(lam, 1, 1) != classify_periodic(other, 1, 1)


def test_classify_periodic_rejects_a_period_below_one():
    lam = PadicNumber(5, 8, 7)
    assert not classify_periodic(lam, 1, 1)
    for m in (0, -1):
        for a in (0, 1):
            with pytest.raises(UsageError):
                classify_periodic(lam, m, a)


def test_classify_periodic_monotone_in_a():
    lam = PadicNumber(5, 10, 1 + 25)
    for m in (1, 2, 3):
        results = [classify_periodic(lam, m, a) for a in range(0, 4)]
        # once false, stays false as a grows
        seen_false = False
        for r in results:
            if seen_false:
                assert not r
            if not r:
                seen_false = True


def test_qc_count_formula():
    for p in (3, 5, 7):
        assert qc_count(0, False, p) == 1
        assert qc_count(0, True, p) == 1
        for s in (1, 2, 3):
            assert qc_count(s, False, p) == (p + 1) * p ** (s - 1)
            assert qc_count(s, True, p) == p ** s


def test_mobius_identity_and_chart():
    p, M = 11, 20
    x = DiscPoint(wq(p, M, 22, 11))
    assert mobius_apply(identity_unit(p, M), x) == x


def test_mobius_isometry_random_units():
    p, M = 11, 18
    rng = random.Random(5)
    for _ in range(50):
        a = wq(p, M, rng.randrange(1, p ** 5), rng.randrange(p ** 5))
        b = wq(p, M, rng.randrange(p ** 5), rng.randrange(p ** 5))
        try:
            g = QuatUnit(a, b)
        except NotAUnit:
            continue
        u = DiscPoint(wq(p, M, p * rng.randrange(p ** 4), p * rng.randrange(p ** 4)))
        v = DiscPoint(wq(p, M, p * rng.randrange(p ** 4), p * rng.randrange(p ** 4)))
        gu, gv = mobius_apply(g, u), mobius_apply(g, v)
        d0 = u.w - v.w
        d1 = gu.w - gv.w
        if d0.a0.val == 0 and d0.a1.val == 0:
            assert d1.a0.val == 0 and d1.a1.val == 0
        else:
            assert d0.valuation() == d1.valuation()


def test_mobius_stays_in_disc():
    p, M = 5, 16
    rng = random.Random(6)
    for _ in range(100):
        a = wq(p, M, rng.randrange(1, p ** 5), rng.randrange(p ** 5))
        b = wq(p, M, rng.randrange(p ** 5), rng.randrange(p ** 5))
        try:
            g = QuatUnit(a, b)
        except NotAUnit:
            continue
        x = DiscPoint(wq(p, M, p * rng.randrange(p ** 3), p * rng.randrange(p ** 3)))
        y = mobius_apply(g, x)  # raises ChartEscape on violation
        assert y.w.a0.val % p == 0 and y.w.a1.val % p == 0


def test_mobius_group_action():
    p, M = 11, 16
    rng = random.Random(7)
    for _ in range(20):
        a1 = wq(p, M, rng.randrange(1, p ** 4), rng.randrange(p ** 4))
        b1 = wq(p, M, rng.randrange(p ** 4), rng.randrange(p ** 4))
        a2 = wq(p, M, rng.randrange(1, p ** 4), rng.randrange(p ** 4))
        b2 = wq(p, M, rng.randrange(p ** 4), rng.randrange(p ** 4))
        try:
            g1, g2 = QuatUnit(a1, b1), QuatUnit(a2, b2)
        except NotAUnit:
            continue
        x = DiscPoint(wq(p, M, p * rng.randrange(p ** 3), p * rng.randrange(p ** 3)))
        lhs = mobius_apply(g1 * g2, x)
        rhs = mobius_apply(g1, mobius_apply(g2, x))
        assert lhs.w.a0 == rhs.w.a0 and lhs.w.a1 == rhs.w.a1
        # inverse undoes the action
        back = mobius_apply(g1.inverse(), mobius_apply(g1, x))
        assert back == x


def test_mobius_apply_keeps_input_precision():
    p = 11
    g12 = quat_embed(3, 9, p, 12)  # inert: a and b both at precision 12
    for gamma, pt_prec, want in ((g12, 9, 9), (g12, 20, 12),
                                 (quat_embed(3, 9, p, 20), 14, 14)):
        x = DiscPoint(wq(p, pt_prec, 2 * p, 5 * p))
        y = mobius_apply(gamma, x)
        assert y.w.a0.prec == y.w.a1.prec == want
        assert y.w.d == x.w.d


def _walk_inverses(G, p, M):
    """Inverse generators of the walk-measure walk on G, as the CLI builds it."""
    gens = [identity_unit(p, M)]
    seen = set()
    for w in closed_walks(G, 0, 3):
        t, n = e = walk_char_poly(G, w)
        if e in seen or t * t == 4 * n:
            continue
        seen.add(e)
        gens.append(quat_embed(t, n, p, M))
    return [g.inverse() for g in gens]


def _reference_key(gamma, pt, k):
    # full-precision W(F_{p^2}) arithmetic, independent of the integer kernel
    w = pt.w
    num = gamma.a * w + gamma.b.conj() * gamma.p
    den = gamma.b * w + gamma.a.conj()
    return DiscPoint(num * den.inverse()).residue_key(k)


def test_integer_kernel_matches_wq_arithmetic(g_11_5_1):
    p, M = 11, 24
    invs = _walk_inverses(g_11_5_1, p, M)
    assert len(invs) == 27
    d = invs[0].a.d
    # every generator on every class at k = 1, where the step is affine
    P = p
    for gamma in invs:
        g = _unit_map(gamma, P)
        for c0 in range(p):
            for c1 in range(p):
                pt = DiscPoint(wq(p, M, p * c0, p * c1))
                assert _mobius_u(g, c0, c1, d, P) \
                    == _reference_key(gamma, pt, 1)
    # seeded (generator, class) pairs, class lifts with high digits up to
    # the precision; k = 8 and 23 invert the norm mod high powers of p
    rng = random.Random(11)
    for k, pairs in ((2, 2000), (3, 500), (5, 500), (8, 300), (23, 100)):
        P = p ** k
        span = p ** max(6, min(k + 2, M - 1))
        maps = [_unit_map(gamma, P) for gamma in invs]
        for _ in range(pairs):
            i = rng.randrange(len(invs))
            u0, u1 = rng.randrange(span), rng.randrange(span)
            pt = DiscPoint(wq(p, M, p * u0, p * u1))
            got = _mobius_u(maps[i], u0 % P, u1 % P, d, P)
            assert got == _reference_key(invs[i], pt, k)


@pytest.mark.parametrize("inst", [(11, 5, 1), (13, 3, 1)])
def test_unit_map_is_a_skew_product(inst):
    # g(v + p^(k-1) h) = g(v) + p^(k-1) (A h mod p) mod p^k, A = g's A mod p
    p, M = inst[0], 8
    invs = _walk_inverses(build_ssgraph(*inst), p, M)
    d = invs[0].a.d
    rng = random.Random(p)
    for k in range(1, 6):
        P, Q = p ** k, p ** (k - 1)
        for gamma in invs:
            g = _unit_map(gamma, P)
            a0, a1 = g[0] % p, g[1] % p
            for _ in range(20):
                v0, v1 = rng.randrange(Q), rng.randrange(Q)
                h0, h1 = rng.randrange(p), rng.randrange(p)
                y0, y1 = _mobius_u(g, v0, v1, d, P)
                assert _mobius_u(g, v0 + Q * h0, v1 + Q * h1, d, P) == (
                    (y0 + Q * ((a0 * h0 + d * a1 * h1) % p)) % P,
                    (y1 + Q * ((a0 * h1 + a1 * h0) % p)) % P)


@pytest.mark.parametrize("prec", [1, 2, 3])
def test_mobius_apply_at_low_precision_matches_wq_arithmetic(prec):
    p = 11
    rng = random.Random(prec)
    checked = 0
    while checked < 40:
        a = wq(p, prec, rng.randrange(p ** 3), rng.randrange(p ** 3))
        b = wq(p, prec, rng.randrange(p ** 3), rng.randrange(p ** 3))
        try:
            gamma = QuatUnit(a, b)
        except NotAUnit:
            continue
        x = DiscPoint(wq(p, prec, p * rng.randrange(p ** 3),
                         p * rng.randrange(p ** 3)))
        y = mobius_apply(gamma, x)
        num = gamma.a * x.w + gamma.b.conj() * p
        den = gamma.b * x.w + gamma.a.conj()
        assert y.w.a0.prec == y.w.a1.prec == prec
        assert y.w == num * den.inverse()
        if prec == 1:
            # known to one digit, every disc point is 0 + O(p)
            assert (y.w.a0.val, y.w.a1.val) == (0, 0)
        checked += 1


def test_unit_map_tests_the_unit_mod_p():
    # at P = 1 nothing is a unit mod P, but a = 1 is a unit mod p
    p = 11
    g = _unit_map(identity_unit(p, 1), 1)
    assert g == (0, 0, 0, 0, 0, 0)
    # QuatUnit refuses a = 0 mod p, so set it past the constructor
    gamma = identity_unit(p, 3)
    gamma.a = wq(p, 3, p, 0)
    with pytest.raises(ChartEscape):
        _unit_map(gamma, p ** 2)


def _reference_unit_ints(gamma, m):
    """The four coordinates (a0, a1, b0, b1) of gamma reduced mod m."""
    return (gamma.a.a0.val % m, gamma.a.a1.val % m,
            gamma.b.a0.val % m, gamma.b.a1.val % m)


def _reference_mobius_mod(g, w0, w1, p, d, m):
    """w -> (a w + p b^sigma) / (b w + a^sigma) on w = w0 + w1*delta mod m,
    for g = (a0, a1, b0, b1) mod m and m a power of p, with one modular
    inverse per step."""
    a0, a1, b0, b1 = g
    n0 = a0 * w0 + d * a1 * w1 + p * b0
    n1 = a0 * w1 + a1 * w0 - p * b1
    e0 = (b0 * w0 + d * b1 * w1 + a0) % m
    e1 = (b0 * w1 + b1 * w0 - a1) % m
    if e0 % p == 0 and e1 % p == 0:
        raise ChartEscape("Moebius denominator is not a unit")
    ninv = pow(e0 * e0 - d * e1 * e1, -1, m)
    x0 = (n0 * e0 - d * n1 * e1) * ninv % m
    x1 = (n1 * e0 - n0 * e1) * ninv % m
    if x0 % p or x1 % p:
        raise ChartEscape("unit matrix left the invariant disc")
    return x0, x1


def reference_random_walk(generators, x0, steps, seed, k=1, checkpoints=()):
    """The walk on w mod p^(k+1) with tuple keys, one modular inverse per
    step and a copied measure at each checkpoint."""
    invs = [g.inverse() for g in generators]
    p = x0.w.p
    m = p ** (k + 1)
    d = invs[0].a.d
    ints = [_reference_unit_ints(g, m) for g in invs]
    rng = random.Random(seed)
    measure = EmpiricalMeasure(k, {}, 0)
    counts = measure.counts
    snaps = []
    cps = sorted({c for c in checkpoints if 1 <= c <= steps})
    w0, w1 = x0.w.a0.val % m, x0.w.a1.val % m
    for i in range(1, steps + 1):
        w0, w1 = _reference_mobius_mod(ints[rng.randrange(len(ints))],
                                       w0, w1, p, d, m)
        key = (w0 // p, w1 // p)
        counts[key] = counts.get(key, 0) + 1
        measure.total = i
        if cps and i == cps[0]:
            snaps.append((i, EmpiricalMeasure(k, dict(counts), i)))
            cps.pop(0)
    return measure, snaps


@pytest.mark.parametrize("inst", [(11, 5, 1), (13, 3, 1)])
def test_random_walk_matches_reference_walk(inst):
    p = inst[0]
    M = 8
    gens = [g.inverse() for g in _walk_inverses(build_ssgraph(*inst), p, M)]
    x0 = DiscPoint(wq(p, M, p, 3 * p))
    steps = 6000
    cps = [steps // 16, steps // 8, steps // 4, steps // 2, steps]
    for k in (1, 2, 3):
        for seed in (7, 8):
            got, got_snaps = random_walk(gens, x0, steps, seed, k, cps)
            want, want_snaps = reference_random_walk(gens, x0, steps, seed,
                                                     k, cps)
            assert list(got.counts.items()) == list(want.counts.items())
            assert got.total == want.total == steps
            assert [(i, list(s.counts.items()), s.total) for i, s in got_snaps] \
                == [(i, list(s.counts.items()), s.total)
                    for i, s in want_snaps]
            assert [a[1].tv_distance(b[1]) for a, b
                    in zip(got_snaps, got_snaps[1:])] \
                == [a[1].tv_distance(b[1]) for a, b
                    in zip(want_snaps, want_snaps[1:])]


def test_random_walk_needs_precision_for_its_classes():
    p = 11
    x0 = DiscPoint(wq(p, 2, p, 0))
    with pytest.raises(UsageError):
        random_walk([identity_unit(p, 2)], x0, 10, seed=1, k=2)
    m, _ = random_walk([identity_unit(p, 2)], x0, 10, seed=1, k=1)
    assert m.counts == {(1, 0): 10}


def test_random_walk_ignores_checkpoints_outside_steps():
    p, M = 11, 16
    x0 = DiscPoint(wq(p, M, p, 0))
    _, snaps = random_walk([identity_unit(p, M)], x0, 10, seed=1,
                           checkpoints=(0, 3, 3, 7, 10, 11))
    assert [(i, s.total) for i, s in snaps] == [(3, 3), (7, 7), (10, 10)]


@pytest.mark.parametrize("n", [1, 2, 3, 27, 32, 33])
def test_random_walk_draws_as_random_choice(n, monkeypatch):
    # at k = 1 generator i acts as the translation by i % p + (i // p) delta,
    # and a checkpoint at every step shows which translation each step drew
    p, M = 11, 4
    counter = itertools.count()

    def translation(gamma, P):
        i = next(counter) % n
        return (1, 0, i % p, i // p, 0, 0)

    monkeypatch.setattr(discdyn, "_unit_map", translation)
    for seed in range(10):
        _, snaps = random_walk([identity_unit(p, M)] * n,
                               DiscPoint(wq(p, M, p, 0)), 2000, seed,
                               checkpoints=range(1, 2001))
        drawn = []
        u, prev = (1, 0), {}
        for _, m in snaps:
            (v, _), = m.counts.items() - prev.items()
            drawn.append((v[0] - u[0]) % p + p * ((v[1] - u[1]) % p))
            u, prev = v, m.counts
        rng = random.Random(seed)
        assert drawn == [rng.choice(range(n)) for _ in range(2000)]


@pytest.mark.parametrize("k", [0, -1])
def test_random_walk_rejects_k_below_one(k):
    p, M = 11, 4
    with pytest.raises(UsageError):
        random_walk([identity_unit(p, M)], DiscPoint(wq(p, M, p, 0)), 10,
                    seed=1, k=k)


@pytest.mark.parametrize("steps", [0, -5])
def test_random_walk_rejects_steps_below_one(steps):
    p, M = 11, 4
    with pytest.raises(UsageError):
        random_walk([identity_unit(p, M)], DiscPoint(wq(p, M, p, 0)), steps,
                    seed=1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_random_walk_bounds_its_mobius_evaluations(k, g_11_5_1, monkeypatch):
    p, M = 11, 8
    gens = [g.inverse() for g in _walk_inverses(g_11_5_1, p, M)]
    x0 = DiscPoint(wq(p, M, p, 3 * p))
    calls = []
    mobius = discdyn._mobius_u
    monkeypatch.setattr(discdyn, "_mobius_u",
                        lambda *args: calls.append(args) or mobius(*args))
    for steps in (100, 20000):
        calls.clear()
        random_walk(gens, x0, steps, 7, k)
        assert len(calls) <= min(steps, p ** (2 * (k - 1)) * len(gens))


def test_transitivity_witness_roundtrip():
    p, M = 13, 24
    rng = random.Random(8)
    for _ in range(30):
        x = DiscPoint(wq(p, M, p * rng.randrange(p ** 5), p * rng.randrange(p ** 5)))
        g = transitivity_witness(x, 5)
        img = mobius_apply(g, DiscPoint(wq(p, g.a.a0.prec, 0)))
        assert img.w.a0 == x.w.a0 and img.w.a1 == x.w.a1
        assert sat_membership(g.det(), 5)


def test_transitivity_witness_zero():
    g = transitivity_witness(DiscPoint(wq(11, 10, 0, 0)), 5)
    assert g.is_identity()


def search_witness(x, ell):
    """A unit gamma in the square-class subgroup with gamma(0) = x.

    Built from gamma = (a, x a^sigma; x^sigma a / p, a^sigma) with a running
    over Teichmuller representatives until the determinant certificate
    passes; a = 1 always works for odd p since det = 1 mod p.
    """
    w = x.w
    p = w.p
    prec = w.prec
    if w.a0.val == 0 and w.a1.val == 0:
        return identity_unit(p, prec)
    for a0 in _teichmuller_reps(p, prec):
        a = a0
        b = w.conj() * a
        b = b.shift_down(1)
        try:
            gamma = QuatUnit(a, b)
        except NotAUnit:
            continue
        if not sat_membership(gamma.det(), ell):
            continue
        img = mobius_apply(gamma, DiscPoint(wq(p, b.prec, 0)))
        if img.w == w:
            return gamma
    raise AssertionError("no witness found; must not happen for odd p")


def _teichmuller_reps(p, prec):
    out = []
    for u in range(1, p):
        out.append(teichmuller(PadicNumber(p, prec, u)))
    reps = []
    for t in out:
        reps.append(WqElement(t, PadicNumber(p, prec, 0)))
    return reps


def test_transitivity_witness_matches_the_search():
    # the closed form is the search's first candidate, a = 1; at low
    # precision both raise the same error
    rng = random.Random(9)
    seen = set()
    for p in (3, 5, 7, 11, 13, 41):
        for _ in range(40):
            M0 = rng.choice((1, 2, 3, 4, 5, 8, 24))
            M1 = M0 if rng.random() < 0.7 else rng.randint(1, 8)
            xs = (0, 0) if rng.random() < 0.1 else \
                (p * rng.randrange(p ** 8), p * rng.randrange(p ** 8))
            x = DiscPoint(WqElement(PadicNumber(p, M0, xs[0]),
                                    PadicNumber(p, M1, xs[1])))
            ell = rng.choice((2, 3, 5, 7, p))
            got = outcome(transitivity_witness, x, ell)
            assert got == outcome(search_witness, x, ell), (p, x, ell)
            seen.add(got if isinstance(got, type) else "witness")
    assert seen == {"witness", UsageError, PrecisionExhausted}


def test_transitivity_witness_low_precision():
    # det is known to prec - 1 digits, and sat_membership needs 3
    for prec in (2, 3):
        with pytest.raises(UsageError):
            transitivity_witness(DiscPoint(wq(11, prec, 11, 0)), 5)
    assert transitivity_witness(DiscPoint(wq(11, 4, 11, 0)), 5).det().prec == 3
    # w is nonzero at precision 1 only through a more precise coordinate
    x = DiscPoint(WqElement(PadicNumber(11, 1, 0), PadicNumber(11, 3, 11)))
    with pytest.raises(PrecisionExhausted):
        transitivity_witness(x, 5)


def test_quat_embed_trace_and_det():
    cases = [(0, 5, 11), (3, 9, 11), (-1, 3, 11), (2, 3, 13), (5, 3, 13)]
    for t, n, p in cases:
        g = quat_embed(t, n, p, 20)
        assert g.trace() == PadicNumber(p, g.a.a0.prec, t)
        assert g.det() == PadicNumber(p, g.a.a0.prec, n)


def test_quat_embed_low_precision_is_a_usage_error():
    # disc 1 - 100 = -9 * 11 is ramified at 11; the search needs c = 11 u,
    # which the bound e < prec // 2 admits from precision 4 on
    for M in (1, 2, 3):
        with pytest.raises(PrecisionExhausted, match="precision %d" % M):
            quat_embed(1, 25, 11, M)
    g = quat_embed(1, 25, 11, 4)
    assert g.det() == PadicNumber(11, g.a.a0.prec, 25)


def test_quat_embed_at_p_2_is_a_usage_error():
    # it raised a bare ValueError from smallest_nonresidue
    with pytest.raises(UsageError, match="p = 2"):
        quat_embed(1, 3, 2, 10)


def test_quat_embed_matches_the_search():
    # every (t, n) with 0 < n < 100 prime to p and t^2 < 4 n: the closed form
    # gives the search's unit, each component at its precision, or its error
    cases = 0
    seen = set()
    for p in (3, 5, 7, 11, 13):
        for prec in (2, 3, 4, 6, 10):
            for n in range(1, 100):
                if n % p == 0:
                    continue
                top = math.isqrt(4 * n)
                for t in range(-top, top + 1):
                    if t * t == 4 * n:
                        continue
                    cases += 1
                    got = outcome(quat_embed, t, n, p, prec)
                    assert got == outcome(discdyn_reference.quat_embed,
                                          t, n, p, prec), (t, n, p, prec)
                    w = 0
                    while (t * t - 4 * n) % p ** (w + 1) == 0:
                        w += 1
                    if isinstance(got, type):
                        seen.add(got)
                        continue
                    seen.add((w, "unit"))
                    # a.a1 = c = cu p^(w/2) at even w; the larger root of two
                    c, c_prec = got[1]
                    if w and w % 2 == 0 and c_prec > w // 2:
                        cu = c // p ** (w // 2) % p
                        if cu > p - cu:
                            seen.add("larger root")
    assert cases == 54635
    assert {(w, "unit") for w in range(5)} | {"larger root", UsageError,
                                               PrecisionExhausted} <= seen


def test_quat_embed_when_the_smaller_root_cancels():
    # disc = 4 - 4 * 712 = -9 * 316 and -316 = 8 mod 81, so the smaller root
    # cu = 1 leaves disc/4 - 2 c^2 = -729, which is 0 at precision 4 + 2:
    # the search moves on to cu = 2, and so does the closed form
    for prec in range(1, 9):
        assert outcome(quat_embed, 2, 712, 3, prec) == outcome(
            discdyn_reference.quat_embed, 2, 712, 3, prec), prec
    assert quat_embed(2, 712, 3, 4).a.a1.val == 2 * 3


def test_solve_wq_norm_matches_the_reference():
    for p in (3, 5, 7, 11, 13):
        for prec in (1, 2, 3):
            for u in range(1, p ** prec):
                if u % p == 0:
                    continue
                x = PadicNumber(p, prec, u)
                got = discdyn._solve_wq_norm(x, p)
                ref = discdyn_reference._solve_wq_norm(x, p)
                assert [(c.val, c.prec) for c in (got.a0, got.a1)] == \
                    [(c.val, c.prec) for c in (ref.a0, ref.a1)]
                assert got.norm() == x


def test_quat_embed_rejects_split_field():
    # disc -12 is a square mod 13: the quadratic field splits at p
    with pytest.raises(UsageError):
        quat_embed(0, 3, 13, 20)


def test_random_walk_identity_concentrates():
    p, M = 11, 16
    x0 = DiscPoint(wq(p, M, p, 0))
    m, _ = random_walk([identity_unit(p, M)], x0, 500, seed=1, k=1)
    assert len(m.counts) == 1 and m.total == 500


def test_random_walk_deterministic():
    p, M = 11, 16
    gens = [identity_unit(p, M), quat_embed(0, 5, p, M), quat_embed(3, 9, p, M)]
    x0 = DiscPoint(wq(p, M, p, 0))
    m1, _ = random_walk(gens, x0, 2000, seed=42, k=1)
    m2, _ = random_walk(gens, x0, 2000, seed=42, k=1)
    assert m1.counts == m2.counts
    m3, _ = random_walk(gens, x0, 2000, seed=43, k=1)
    assert m1.counts != m3.counts


def test_fixed_points_of_nontrivial_automorphism():
    # apply(t) = t at precision M - 2 forces ord(t) >= M - 2
    p, M = 5, 12
    lam = PadicNumber(p, M, 2)
    auto = DiscAutomorphism(lam)
    for v in range(1, M - 3):
        t = PadicNumber(p, M, p ** v)
        img = apply(auto, t)
        assert (img - t).val % p ** (M - 2) != 0
