"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either computed by an independent oracle inside this
file or taken from the statements the package is contracted to reproduce.
"""

import random
import time
from fractions import Fraction

import pytest

from heckedyn.discdyn import (DiscAutomorphism, DiscPoint, apply,
                              identity_unit, mobius_apply, qc_count,
                              quat_embed, random_walk, serre_tate_multivar,
                              transitivity_witness)
from heckedyn.markov import normalize, stationary
from heckedyn.padics import (PadicNumber, binom_pow, cyclo_binom_fixed,
                             orbit_closure, quadratic_roots, sat_membership,
                             wq)
from heckedyn.quadforms import (class_number, fundamental_discriminant,
                                kronecker)
from heckedyn.ssgraph import (build_ssgraph, closed_walks, graph_report,
                              is_rigid, monoid_certificates, walk_char_poly)
from heckedyn.volcano import build_empirical, build_synthetic

from duals import backtrack_endo


def report(criterion, ok, detail=""):
    print("ACCEPT-%s %s %s" % (criterion, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %s failed: %s" % (criterion, detail)


# -- criterion 1 -------------------------------------------------------------

def test_criterion_01_reference_matrix_exact(g_11_5_1):
    t0 = time.monotonic()
    chain = normalize(g_11_5_1)
    D, out = chain
    rows = sorted(sorted(w for _, w in arrows) for arrows in out)
    matrix_ok = D == 6 and rows == [[2, 4], [3, 3]]
    pi = stationary(chain)
    pi_ok = set(pi) == {Fraction(2, 5), Fraction(3, 5)}
    elapsed = time.monotonic() - t0
    report("1", matrix_ok and pi_ok and elapsed < 5.0,
           "matrix=(1/6)[[3,3],[2,4]] stationary=(2/5,3/5) %.2fs" % elapsed)


# -- criterion 2 -------------------------------------------------------------

SUITE = [(11, 3, 1), (11, 5, 1), (13, 5, 1), (11, 3, 4), (11, 3, 5), (23, 3, 4)]


def test_criterion_02_degree_theorem():
    t0 = time.monotonic()
    ok = True
    details = []
    for (p, ell, N) in SUITE:
        G = build_ssgraph(p, ell, N)
        rep = graph_report(G)
        out_ok = set(rep["out_degrees"]) == {ell + 1}
        in_ok = (not is_rigid(N, p)) or set(rep["in_degrees"]) == {ell + 1}
        conn_ok = rep["connected"]
        certs = monoid_certificates(G, budget=3)
        odd_ok = len(certs["odd_walk"]) % 2 == 1
        ok = ok and out_ok and in_ok and conn_ok and odd_ok
        details.append("(%d,%d,%d)%s" % (p, ell, N, "" if out_ok and in_ok
                                         and conn_ok and odd_ok else "!"))
    elapsed = time.monotonic() - t0
    report("2", ok and elapsed < 60.0,
           "%s in %.1fs" % (" ".join(details), elapsed))


# -- criterion 3 -------------------------------------------------------------

def test_criterion_03_simplicity_girth():
    t0 = time.monotonic()
    G = build_ssgraph(11, 3, 37)
    rep = graph_report(G)
    loops = sum(1 for ar in G.arrows if ar.src == ar.dst)
    n = len(G.vertices)
    multi = len({(ar.src, ar.dst) for ar in G.arrows}) != len(G.arrows)
    simple = loops == 0 and not multi
    girth_ok = rep["girth"] >= 3
    elapsed = time.monotonic() - t0
    report("3", simple and girth_ok and elapsed < 120.0,
           "girth=%d vertices=%d %.1fs" % (rep["girth"], n, elapsed))


# -- criterion 4 -------------------------------------------------------------

def brute_supersingular_count(p):
    """Independent oracle: scan every j in F_{p^2} with inline arithmetic,
    count points of a model with that j, and test trace = 0 mod p."""
    # F_{p^2} = F_p[s]/(s^2 - d) with d the smallest non-residue
    d = 2
    while pow(d, (p - 1) // 2, p) == 1:
        d += 1

    def mul(a, b):
        return ((a[0] * b[0] + a[1] * b[1] * d) % p,
                (a[0] * b[1] + a[1] * b[0]) % p)

    def add(a, b):
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def inv(a):
        n = (a[0] * a[0] - d * a[1] * a[1]) % p
        ninv = pow(n, -1, p)
        return (a[0] * ninv % p, -a[1] * ninv % p)

    squares = set()
    for x0 in range(p):
        for x1 in range(p):
            if x0 == 0 and x1 == 0:
                continue
            squares.add(mul((x0, x1), (x0, x1)))

    def count_curve(a, b):
        n = 1
        for x0 in range(p):
            for x1 in range(p):
                x = (x0, x1)
                rhs = add(mul(mul(x, x), x), add(mul(a, x), b))
                if rhs == (0, 0):
                    n += 1
                elif rhs in squares:
                    n += 2
        return n

    count = 0
    for j0 in range(p):
        for j1 in range(p):
            j = (j0, j1)
            if j == (0, 0):
                a, b = (0, 0), (1, 0)
            elif j == (1728 % p, 0):
                a, b = (1, 0), (0, 0)
            else:
                denom = add((1728 % p, 0), (-j[0] % p, -j[1] % p))
                c = mul(j, inv(denom))
                a = mul((3, 0), c)
                b = mul((2, 0), c)
            t = p * p + 1 - count_curve(a, b)
            if t % p == 0:
                count += 1
    return count


def test_criterion_04_vertex_counts():
    ok = True
    details = []
    for p in (11, 13, 23, 31, 37):
        G = build_ssgraph(p, 3, 1)
        got = len(G.vertices)
        expected = brute_supersingular_count(p)
        this = got == expected
        if p % 12 == 1:
            this = this and got == (p - 1) // 12
        ok = ok and this
        details.append("p=%d:%d%s" % (p, got, "" if this else "!"))
        # vertex count is independent of ell
        if p <= 23:
            G5 = build_ssgraph(p, 5, 1)
            ok = ok and len(G5.vertices) == got
    report("4", ok, " ".join(details))


# -- criterion 5 -------------------------------------------------------------

VOLCANO_SUITE = [
    # (p, j0, ell): curated ordinary instances, depth <= 2, all rim types
    (31, 8, 2),     # inert point, depth 0
    (31, 11, 2),    # split 2-cycle, depth 1
    (41, 5, 2),     # ramified loop, depth 2
    (41, 9, 2),     # ramified edge, depth 1
    (53, 5, 2),     # inert, depth 2
    (53, 7, 2),     # split loop (multiplicity 2), depth 2
    (59, 19, 2),    # split 3-cycle, depth 1
    (89, 24, 2),    # ramified loop, depth 1
    (31, 12, 3),    # split loop, depth 1
    (79, 20, 3),    # ramified edge, depth 1
    (163, 13, 3),   # split loop, depth 2
    (41, 12, 3),    # split 2-cycle, depth 0
    (31, 7, 5),     # split 2-cycle, depth 0
    (31, 3, 7),     # inert, depth 0
]


def test_criterion_05_volcano_structure():
    t0 = time.monotonic()
    ok = True
    details = []
    assert len(VOLCANO_SUITE) >= 10
    for (p, j0, ell) in VOLCANO_SUITE:
        vol = build_empirical(p, j0, ell)
        syn = build_synthetic(vol.rim_disc, ell, vol.true_depth)
        # formula check on the synthetic side
        a = syn.rim_size
        formula = [a] + [a * (ell - syn.kron) * ell ** (i - 1)
                         for i in range(1, vol.true_depth + 1)]
        this = (syn.level_sizes == formula
                and syn.rim_size == len(vol.rim_vertices())
                and syn.level_sizes == vol.level_sizes())
        ok = ok and this
        details.append("(%d,%d,%d)%s" % (p, j0, ell, "" if this else "!"))
    elapsed = time.monotonic() - t0
    report("5", ok and elapsed < 120.0,
           "%d instances in %.1fs" % (len(VOLCANO_SUITE), elapsed))


# -- criterion 6 -------------------------------------------------------------

def test_criterion_06_serre_tate_dynamics():
    M = 24
    ok = True
    rng = random.Random(17)
    # homomorphism and isometry at precision M with 2 guard digits
    for p in (3, 5, 7):
        for _ in range(10):
            t = PadicNumber(p, M, rng.randrange(1, p ** 12) * p)
            l1 = PadicNumber(p, M, rng.randrange(1, p ** M))
            l2 = PadicNumber(p, M, rng.randrange(1, p ** M))
            lhs = binom_pow(binom_pow(t, l1), l2)
            rhs = binom_pow(t, l1 * l2)
            ok = ok and (lhs - rhs).val % p ** (M - 2) == 0
            if l1.is_unit() and t.val:
                ok = ok and binom_pow(t, l1).valuation() == t.valuation()
    # g = 1 multivariable specialization at full precision
    r1, r2 = quadratic_roots(3, 2, 5, M)
    tt = PadicNumber(5, M, 35)
    out = serre_tate_multivar([[r1.inverse()]], [[r2]], [[tt]])
    ok = ok and out[0][0] == apply(DiscAutomorphism(r2 / r1), tt)
    # quasi-canonical circles: fixed exactly when p^a | lam - 1
    for p in (3, 5, 7):
        for a in (1, 2):
            for delta in (1, 2):
                lam_good = PadicNumber(p, M, 1 + p ** a * delta)
                ok = ok and cyclo_binom_fixed(p, a, lam_good)
            lam_bad = PadicNumber(p, M, 1 + p ** (a - 1)) if a > 1 else \
                PadicNumber(p, M, 2)
            if (lam_bad.val - 1) % p ** a != 0:
                ok = ok and not cyclo_binom_fixed(p, a, lam_bad)
    report("6", ok, "binom_pow + multivar + qc circles at M=24")


# -- criterion 7 -------------------------------------------------------------

def test_criterion_07_orbit_closures():
    rng = random.Random(23)
    ok = True
    tested = 0
    for p in (3, 5, 7):
        count = 0
        while count < 30:
            lam_val = rng.randrange(2, p ** 8)
            if lam_val % p == 0:
                continue
            count += 1
            lam = PadicNumber(p, 8, lam_val)
            desc = orbit_closure(lam)
            if desc.finite:
                # orbit really repeats at the stated precision
                ok = ok and pow(lam_val, desc.component_count, p ** 8) == 1
                continue
            r, v = desc.component_count, desc.wild_valuation
            for k in (1, 2, 3, 4):
                attained = set()
                cur = 1
                for _ in range(p ** (k + 1) * 4):
                    cur = cur * lam_val % p ** k if k else 0
                    attained.add(cur)
                union = set()
                m = p ** k
                curc = 1
                for i in range(r):
                    stride = p ** min(v, k)
                    for jj in range(p ** max(k - v, 0)):
                        union.add(curc * (1 + jj * stride) % m)
                    curc = curc * lam_val % (p ** 8)
                ok = ok and attained == union
            tested += 1
    report("7", ok, "%d infinite-orbit descriptors vs residue enumeration" % tested)


# -- criterion 8 -------------------------------------------------------------

def test_criterion_08_walk_endomorphisms(g_11_3_1):
    G = g_11_3_1
    ok = True
    walks = closed_walks(G, 0, 4) + closed_walks(G, 1, 4)
    n_walks = 0
    for w in walks:
        e = walk_char_poly(G, w)
        ok = ok and e.norm == 3 ** len(w)
        ok = ok and e.trace * e.trace <= 4 * e.norm
        n_walks += 1
    # dual-return composites are scalar
    for ar in G.arrows:
        e = backtrack_endo(G, ar.index)
        ok = ok and e.trace * e.trace == 4 * e.norm and e.norm == 9
    report("8", ok, "%d closed walks (len<=4) + %d dual returns"
           % (n_walks, len(G.arrows)))


@pytest.mark.xfail(strict=True,
                   reason="stated check is mathematically false: closed walks "
                          "fixing the marked point exist with ell^d != 1 mod N "
                          "(degree-3 loops fixing order-5 points at (11,3,5)), "
                          "and criterion 2's odd closed walk at (11,3,4) "
                          "contradicts the congruence as well.")
def test_criterion_08_alpha_congruence_as_stated():
    ok = True
    for (p, ell, N) in SUITE:
        if N == 1:
            continue
        G = build_ssgraph(p, ell, N)
        for w in closed_walks(G, 0, 4):
            ok = ok and ell ** len(w) % N == 1 % N
    report("8-alpha", ok, "ell^d = 1 mod N for all closed walks (as stated)")


# -- criterion 9 -------------------------------------------------------------

def test_criterion_09_square_class_and_transitivity():
    ok = True
    for p, ell in ((3, 2), (5, 3), (11, 5), (13, 5)):
        m = p ** 3
        squares = {x * x % m for x in range(m) if x % p}
        for u in range(1, m):
            if u % p == 0:
                continue
            expected = u in squares or (u * pow(ell, -1, m) % m) in squares
            got = sat_membership(PadicNumber(p, 3, u), ell)
            ok = ok and got == expected
    rng = random.Random(31)
    M = 24
    p, ell = 11, 5
    count = 0
    for _ in range(100):
        x = DiscPoint(wq(p, M + 1, p * rng.randrange(p ** 10),
                         p * rng.randrange(p ** 10)))
        gamma = transitivity_witness(x, ell)
        img = mobius_apply(gamma, DiscPoint(wq(p, gamma.a.a0.prec, 0)))
        prec = min(img.w.prec, M)
        ok = ok and (img.w.a0.val - x.w.a0.val) % p ** prec == 0
        ok = ok and (img.w.a1.val - x.w.a1.val) % p ** prec == 0
        ok = ok and sat_membership(gamma.det(), ell)
        count += 1
    report("9", ok, "square tables mod p^3 + %d witness round trips" % count)


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_measure_simulation(g_11_5_1):
    t0 = time.monotonic()
    p, M, steps, seed = 11, 24, 100000, 7
    G = g_11_5_1
    gens = [identity_unit(p, M)]
    seen = set()
    for w in closed_walks(G, 0, 3):
        e = walk_char_poly(G, w)
        if (e.trace, e.norm) in seen or e.is_scalar():
            continue
        seen.add((e.trace, e.norm))
        gens.append(quat_embed(e.trace, e.norm, p, M))
    x0 = DiscPoint(wq(p, M, p, 0))
    cps = [steps // 16, steps // 8, steps // 4, steps // 2, steps]
    measure, snaps = random_walk(gens, x0, steps, seed, k=1, checkpoints=cps)
    coverage = len(measure.counts) == p ** 2
    tvs = [snaps[i][1].tv_distance(snaps[i - 1][1])
           for i in range(1, len(snaps))]
    tv_ok = all(tvs[i + 1] <= tvs[i] for i in range(len(tvs) - 1))
    m2, _ = random_walk(gens, x0, 2000, seed, k=1)
    m3, _ = random_walk(gens, x0, 2000, seed, k=1)
    det_ok = m2.counts == m3.counts
    elapsed = time.monotonic() - t0
    report("10", coverage and tv_ok and det_ok and elapsed < 60.0,
           "%d/121 classes, TV %s, %.1fs"
           % (len(measure.counts), ["%.4f" % t for t in tvs], elapsed))


# -- criterion 11 ------------------------------------------------------------

def _self_dual_loop_formula(p, ell):
    """Sum over f^2 | 4 ell of h_w(-4 ell / f^2) (1 - (d0/p)) / 2, with
    h_w = h / (w/2) and d0 the fundamental discriminant of -4 ell / f^2."""
    n = 4 * ell
    total = Fraction(0)
    f = 1
    while f * f <= n:
        d = -(n // (f * f))
        if n % (f * f) == 0 and d % 4 in (0, 1):
            h_w = Fraction(class_number(d), {-3: 3, -4: 2}.get(d, 1))
            d0, _ = fundamental_discriminant(d)
            total += h_w * (1 - kronecker(d0, p)) / 2
        f += 1
    return total


def test_criterion_11_rank_formula_report():
    ok = True
    lines = []
    for (p, ell) in ((13, 5), (37, 3), (13, 3), (61, 5), (73, 3)):
        G = build_ssgraph(p, ell, 1)
        rep = graph_report(G)
        direct = rep["cycle_rank_ud"]
        loops = _self_dual_loop_formula(p, ell)
        formula = 1 + loops / 2 + Fraction((ell - 1) * (p - 1), 24)
        agree = (isinstance(direct, int) and direct == formula
                 and rep["self_dual_loops"] == loops)
        ok = ok and agree
        lines.append("(%d,%d): direct=%d formula=%s agree=%s"
                     % (p, ell, direct, formula, agree))
    report("11", ok, "; ".join(lines))


# -- criterion 12 ------------------------------------------------------------

def test_criterion_12_qc_counts():
    p = 3
    ok = qc_count(0, False, p) == 1 and qc_count(0, True, p) == 1
    for s in (1, 2, 3):
        ok = ok and qc_count(s, False, p) == (p + 1) * p ** (s - 1)
        ok = ok and qc_count(s, True, p) == p ** s
    report("12", ok, "qc(K,0)=1, unramified (p+1)p^(s-1), ramified p^s")
