import math
import random

import pytest

from heckedyn.errors import (BadTorsionOrder, EqualCharacteristic,
                             InvariantBreach, NotAKernel, NotSupersingular,
                             UnsupportedCharacteristic)
from heckedyn import curves
from heckedyn.curves import (Curve, _div_B, _mult_by_k_fraction,
                             _poly_invert_mod, action_matrix,
                             all_points_of_order, automorphism_scalars,
                             canonical_ss_model, count_points, ell_subgroups,
                             is_supersingular, iso_scalars, j_invariant,
                             model_from_j, scaled_point,
                             supersingular_j_in_base, torsion_basis,
                             torsion_grid, trace_of_frobenius, velu)
from heckedyn.fields import (Poly, embedding, factor, is_prime, make_field,
                             poly_factor)
from heckedyn.ssgraph import build_ssgraph
from heckedyn.volcano import build_empirical, walk_endo_empirical

from duals import dual_isogeny

F11 = make_field(11, 1)
F121 = make_field(11, 2)


def division_poly(E, m):
    """Univariate polynomial whose roots are exactly the x-coordinates of
    the nonzero m-torsion; m = 2 gives x^3 + ax + b."""
    if m < 1:
        raise BadTorsionOrder("m must be >= 1")
    if m % E.field.p == 0:
        raise BadTorsionOrder("p divides the torsion order %d" % m)
    if m == 1:
        return Poly(E.field, [1])
    if m % 2 == 1:
        return _div_B(E, m)
    return E.rhs_poly() * _div_B(E, m)


def torsion_point(E, N):
    """A point of exact order N with lex-smallest (x, y); N = 1 is infinity."""
    if N == 1:
        return E.infinity()
    pts = all_points_of_order(E, N)
    if not pts:
        raise InvariantBreach("no point of order %d found" % N)
    return pts[0]


def test_j_invariant_examples():
    assert j_invariant(Curve(F11, 1, 0)).enc() == 1728 % 11
    assert j_invariant(Curve(F11, 0, 1)).enc() == 0


def test_j_invariant_formula_and_twist_invariance():
    rng = random.Random(1)
    a, b = 2, 4
    E = Curve(F11, a, b)
    j = j_invariant(E)
    # direct formula oracle
    num = 1728 * 4 * a ** 3
    den = 4 * a ** 3 + 27 * b ** 2
    assert j.enc() == num * pow(den, -1, 11) % 11
    # isomorphism invariance under scalings (u^4 a, u^6 b)
    for _ in range(8):
        u = rng.randrange(1, 11)
        E2 = Curve(F11, a * u ** 4, b * u ** 6)
        assert j_invariant(E2) == j


def brute_count(p, a, b):
    n = 1
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        if rhs == 0:
            n += 1
        elif pow(rhs, (p - 1) // 2, p) == 1:
            n += 2
    return n


def test_supersingular_examples_via_point_count_oracle():
    # brute-force point count oracle, independent integer arithmetic
    assert brute_count(11, 0, 1) == 12             # j = 0: a_p = 0
    assert is_supersingular(Curve(F11, 0, 1))
    assert is_supersingular(Curve(F11, 1, 0))      # j = 1728 = 1
    E5 = model_from_j(F11, F11.from_enc(5))
    t = 11 + 1 - brute_count(11, E5.a.enc(), E5.b.enc())
    assert t % 11 != 0
    assert not is_supersingular(E5)


def test_supersingular_j_in_base():
    assert [j.enc() for j in supersingular_j_in_base(11)] == [0, 1]
    assert [j.enc() for j in supersingular_j_in_base(13)] == [5]


def test_supersingular_rejects_small_characteristic():
    F3 = make_field(3, 1)
    with pytest.raises(UnsupportedCharacteristic):
        Curve(F3, 1, 1)


def test_canonical_models_have_scalar_frobenius_count():
    for jenc in (0, 1):
        E = canonical_ss_model(F121.from_enc(jenc))
        assert count_points(E) == (11 - 1) ** 2
    F169 = make_field(13, 2)
    E13 = canonical_ss_model(F169.from_enc(5))
    assert count_points(E13) == 144


def test_canonical_model_frobenius_is_scalar_p():
    E = canonical_ss_model(F121.from_enc(0))
    P1, P2 = torsion_basis(E, 5)
    for Q in (P1, P2, P1 + P2):
        frob = type(Q)(E, Q.field, Q.x ** (11 ** 2), Q.y ** (11 ** 2), False)
        assert frob == 11 * Q


def test_canonical_model_rejects_ordinary_j():
    with pytest.raises(NotSupersingular):
        canonical_ss_model(F121.from_enc(5))


def test_canonical_model_deterministic():
    a = canonical_ss_model(F121.from_enc(0))
    b = canonical_ss_model(make_field(11, 2).from_enc(0))
    assert a is b


def test_division_poly_examples():
    E = Curve(F11, 1, 0)
    assert division_poly(E, 1).degree() == 0
    f2 = division_poly(E, 2)
    assert [c.enc() for c in f2.coeffs] == [0, 1, 0, 1]  # x^3 + x
    f3 = division_poly(E, 3)
    assert [c.enc() for c in f3.coeffs] == [10, 0, 6, 0, 3]  # 3x^4+6x^2-1


def test_division_poly_roots_match_brute_torsion():
    # oracle: enumerate 3-torsion x-coordinates by point multiplication over
    # extensions of degree <= 4
    E = Curve(F11, 1, 0)
    f3 = division_poly(E, 3)
    xs = set()
    for k in (1, 2, 4):
        big = make_field(11, k)
        Ck = Curve(big, embedding(F11, big)(E.a), embedding(F11, big)(E.b))
        for e in range(big.order):
            P = Ck.lift_x(big.from_enc(e))
            if P is None or P.inf:
                continue
            if (3 * P).inf:
                xs.add(P.x.enc() if k == 4 else embedding(big, make_field(11, 4))(P.x).enc())
    from heckedyn.fields import embed_poly, poly_roots
    big4 = make_field(11, 4)
    roots4 = {r.enc() for r in poly_roots(embed_poly(f3, big4))}
    assert roots4 == xs


def test_division_poly_rejects_p_dividing_m():
    E = Curve(F11, 1, 0)
    with pytest.raises(BadTorsionOrder):
        division_poly(E, 22)


def test_ell_subgroups_counts_on_canonical_models():
    E = canonical_ss_model(F121.from_enc(0))
    assert len(ell_subgroups(E, 3)) == 4
    assert len(ell_subgroups(E, 5)) == 6
    E1 = canonical_ss_model(F121.from_enc(1))
    assert len(ell_subgroups(E1, 3)) == 4
    for h in ell_subgroups(E, 5):
        assert h.degree() == 2
        assert (division_poly(E, 5) % h).is_zero()


def test_ell_subgroups_ordinary_inert_matches_rationality_oracle():
    # ordinary curve with (-disc/3) = -1: no rational 3-subgroups at the rim
    from heckedyn.curves import trace_of_frobenius
    from heckedyn.quadforms import fundamental_discriminant, kronecker
    F31 = make_field(31, 1)
    found = False
    for e in range(2, 31):
        if e == 1728 % 31:
            continue
        E = model_from_j(F31, F31.from_enc(e))
        if is_supersingular(E):
            continue
        t = trace_of_frobenius(E)
        d0, g = fundamental_discriminant(t * t - 4 * 31)
        if d0 in (-3, -4) or g % 3 == 0:
            continue
        if kronecker(d0, 3) == -1:
            found = True
            subs = ell_subgroups(E, 3)
            assert subs == []
            # oracle: no linear factor of psi_3 gives a rational subgroup,
            # i.e. psi_3 has no root x0 in F_p with closure in F_p
            from heckedyn.fields import poly_roots
            assert all(not (division_poly(E, 3) % Poly(F31, [-r, 1])).is_zero()
                       or False for r in poly_roots(division_poly(E, 3))) or True
            assert len(poly_roots(division_poly(E, 3))) == 0
    assert found


def test_ell_subgroups_equal_characteristic():
    E = Curve(F11, 1, 0)
    with pytest.raises(EqualCharacteristic):
        ell_subgroups(E, 11)


def test_velu_two_isogeny_example():
    E = Curve(F11, 1, 0)
    phi = velu(E, Poly(F11, [0, 1]))
    assert phi.degree == 2
    assert j_invariant(phi.target).enc() == 1
    # oracle: every rational point maps onto the target curve
    for e in range(11):
        P = E.lift_x(F11.from_enc(e))
        if P is None:
            continue
        Q = phi(P)
        if not Q.inf:
            a, b = phi.target.coeffs_in(Q.field)
            assert Q.y * Q.y == (Q.x * Q.x + a) * Q.x + b
    # kernel maps to infinity
    zero = E.point(F11.zero(), F11.zero())
    assert phi(zero).inf


def test_velu_dual_is_multiplication_by_degree():
    E = Curve(F11, 1, 0)
    phi = velu(E, Poly(F11, [0, 1]))
    psi, u = dual_isogeny(phi)
    big = make_field(11, 2)
    checked = 0
    for e in range(big.order):
        P = E.lift_x(big.from_enc(e))
        if P is None:
            continue
        assert scaled_point(psi(phi(P)), u, E) == 2 * P
        checked += 1
        if checked >= 20:
            break
    assert checked == 20


def test_velu_dual_on_canonical_three_isogenies():
    E = canonical_ss_model(F121.from_enc(0))
    big = make_field(11, 4)
    for h in ell_subgroups(E, 3):
        phi = velu(E, h)
        psi, u = dual_isogeny(phi)
        checked = 0
        for e in range(2, big.order):
            P = E.lift_x(big.from_enc(e))
            if P is None:
                continue
            assert scaled_point(psi(phi(P)), u, E) == 3 * P
            checked += 1
            if checked >= 5:
                break
        assert checked == 5


def test_velu_rejects_non_kernel():
    E = Curve(F11, 1, 0)
    with pytest.raises(NotAKernel):
        velu(E, Poly(F11, [5, 3, 1]))


def test_velu_neighbor_multiset_stable():
    E = canonical_ss_model(F121.from_enc(0))
    runs = []
    for _ in range(2):
        runs.append(sorted(j_invariant(velu(E, h).target).enc()
                           for h in ell_subgroups(E, 5)))
    assert runs[0] == runs[1]


def test_torsion_point_examples():
    E = canonical_ss_model(F121.from_enc(0))
    assert torsion_point(E, 1).inf
    P2 = torsion_point(E, 2)
    assert P2.y.is_zero()
    P5 = torsion_point(E, 5)
    # ord of 11 mod 5 is 1, so the point lives over F_121
    assert P5.field.k == 2
    assert not P5.inf and (5 * P5).inf


def test_all_points_of_order_counts():
    E = canonical_ss_model(F121.from_enc(0))
    assert len(all_points_of_order(E, 4)) == 12
    assert len(all_points_of_order(E, 5)) == 24


def test_torsion_rejects_p_multiples():
    E = canonical_ss_model(F121.from_enc(0))
    with pytest.raises(BadTorsionOrder):
        torsion_basis(E, 11)


def test_automorphism_scalars():
    E0 = canonical_ss_model(F121.from_enc(0))      # j = 0
    E1 = canonical_ss_model(F121.from_enc(1))      # j = 1728
    assert len(automorphism_scalars(E0)) == 6
    assert len(automorphism_scalars(E1)) == 4
    E5 = model_from_j(F11, F11.from_enc(5))
    assert len(automorphism_scalars(E5)) == 2


def test_iso_scalars_roundtrip():
    E = canonical_ss_model(F121.from_enc(0))
    u = F121.from_enc(7)
    u2 = u * u
    E2 = Curve(F121, E.a * u2 * u2, E.b * u2 * u2 * u2)
    got = iso_scalars(E, E2)
    assert u in got or -u in got
    for w in got:
        w2 = w * w
        assert E.a * w2 * w2 == E2.a and E.b * w2 * w2 * w2 == E2.b


# ---------------------------------------------------------------------------
# brute-force references for the supersingular layer

def ss_count(p):
    """Number of supersingular j over F_{p^2}: floor(p/12) + {0,1,1,2}."""
    return p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


def supersingular_js(p):
    F = make_field(p, 2)
    return [F.from_enc(e) for e in range(F.order)
            if is_supersingular(model_from_j(F, F.from_enc(e)))]


def reference_canonical_ss_model(j):
    """The lex-smallest (a, b) over F_{p^2} with #E = (p-1)^2, by exhaustive
    point counts: a scan of b (resp. a) at j = 0 (resp. 1728), otherwise the
    right quadratic twist and a minimum over every scaling u."""
    p = j.field.p
    F = j.field
    target = (p - 1) ** 2
    if j.is_zero() or j == 1728:
        for e in range(1, F.order):
            z = F.from_enc(e)
            E = Curve(F, F.zero(), z) if j.is_zero() else Curve(F, z, F.zero())
            if count_points(E) == target:
                return (E.a.enc(), E.b.enc())
        raise AssertionError("no canonical model")
    base = model_from_j(F, j)
    if count_points(base) != target:
        sq = F.square_set()
        d = F.from_enc(min(e for e in range(1, F.order) if e not in sq))
        base = Curve(F, base.a * d * d, base.b * d * d * d)
        assert count_points(base) == target
    best = None
    for e in range(1, F.order):
        u2 = F.from_enc(e) * F.from_enc(e)
        u4 = u2 * u2
        pair = ((base.a * u4).enc(), (base.b * u4 * u2).enc())
        if best is None or pair < best:
            best = pair
    return best


@pytest.mark.parametrize("p", [11, 13, 17, 19, 23, 29, 31, 37])
def test_canonical_model_matches_brute_force(p):
    js = supersingular_js(p)
    assert len(js) == ss_count(p)
    for j in js:
        E = canonical_ss_model(j)
        assert (E.a.enc(), E.b.enc()) == reference_canonical_ss_model(j)


def _power_class(F, n, e):
    """The class of F.from_enc(n) mod e-th powers, as the encoding of its
    ((q-1)/e)-th power."""
    return (F.from_enc(n) ** ((F.order - 1) // e)).enc()


def reference_scan_ss_model(j):
    """The canonical model by the per-element scans: every z in encoding
    order at j = 0 / 1728, and the full coset search for a' otherwise."""
    Fp2 = j.field
    if j.is_zero() or j == 1728:
        # all models are (0, b) resp. (a, 0); scan in encoding order
        for n in range(1, Fp2.order):
            z = Fp2.from_enc(n)
            best = Curve(Fp2, Fp2.zero(), z) if j.is_zero() else Curve(Fp2, z, Fp2.zero())
            if curves._is_canonical(best):
                break
        else:
            raise AssertionError("no canonical model found for j = %d" % j.enc())
    else:
        base = model_from_j(Fp2, j)
        if not curves._is_canonical(base):
            # quadratic twist by the first non-residue
            d = Fp2.nonresidue()
            base = Curve(Fp2, base.a * d * d, base.b * d * d * d)
            if not curves._is_canonical(base):
                raise AssertionError("no canonical model in either twist class")
        # the models are (a u^4, b u^6): the least a' is the first element of
        # the class of a mod 4th powers, which fixes u up to a 4th root of
        # unity, so b' is one of the two square roots of b^2 (a'/a)^3
        a, b = base.a, base.b
        char = _power_class(Fp2, a.enc(), 4)
        z = Fp2.from_enc(next(n for n in range(1, Fp2.order)
                              if _power_class(Fp2, n, 4) == char))
        r = (b * b * z * z * z / (a * a * a)).sqrt()
        if r is None:
            raise AssertionError("b'^2 is not a square for j = %d" % j.enc())
        best = Curve(Fp2, z, min(r, -r, key=lambda t: t.enc()))
    return (best.a.enc(), best.b.enc())


def test_canonical_model_matches_per_element_scans():
    # every supersingular j over F_{p^2}, p < 110: from p = 11 on the
    # 3-isogeny graph is connected, so its curves are all of them
    for p in filter(is_prime, range(5, 110)):
        js = (supersingular_js(p) if p < 11 else
              [j_invariant(E) for E in build_ssgraph(p, 3, 1).curves])
        assert len(js) == ss_count(p)
        for j in js:
            E = canonical_ss_model(j)
            assert (E.a.enc(), E.b.enc()) == reference_scan_ss_model(j)


@pytest.mark.parametrize("p", [11, 17, 19, 23, 31, 47, 83, 107, 1019])
def test_at_most_one_canonical_test_per_class(p, monkeypatch):
    # j = 0 needs one test per class mod 6th powers, j = 1728 per class mod
    # 4th powers; the per-element scan made about p tests at p = 47
    calls = []
    is_canonical = curves._is_canonical

    def counting(E):
        calls.append(E)
        return is_canonical(E)

    monkeypatch.setattr(curves, "_is_canonical", counting)
    monkeypatch.setattr(curves, "_CANONICAL_CACHE", {})
    F = make_field(p, 2)
    for jenc, e in ((0, 6), (1728 % p, 4)):
        if not is_supersingular(model_from_j(F, F.from_enc(jenc))):
            continue
        del calls[:]
        E = canonical_ss_model(F.from_enc(jenc))
        assert 1 <= len(calls) <= e
        assert is_canonical(E)


@pytest.mark.parametrize("p", [11, 13, 17, 19])
def test_hasse_invariant_matches_trace(p):
    F = make_field(p, 2)
    for e in range(F.order):
        E = model_from_j(F, F.from_enc(e))
        assert is_supersingular(E) == (trace_of_frobenius(E) % p == 0)


@pytest.mark.parametrize("p", [11, 13])
def test_hasse_invariant_on_every_base_field_model(p):
    F = make_field(p, 1)
    for a in range(p):
        for b in range(p):
            if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                continue
            t = p + 1 - brute_count(p, a, b)
            assert is_supersingular(Curve(F, a, b)) == (t % p == 0)


def test_supersingular_side_never_counts_points(monkeypatch):
    def refuse(E):
        raise AssertionError("count_points called on %r" % (E,))
    monkeypatch.setattr(curves, "count_points", refuse)
    monkeypatch.setattr(curves, "_CANONICAL_CACHE", {})
    G = build_ssgraph(23, 3, 1)
    assert len(G.curves) == ss_count(23)
    assert [j.enc() for j in supersingular_j_in_base(23)] == [0, 3, 19]


# ---------------------------------------------------------------------------
# traces of Frobenius over F_p: Shanks-Mestre against the exhaustive count

def _both_twists(F, j):
    E = model_from_j(F, j)
    d = F.nonresidue()
    return E, Curve(F, E.a * d * d, E.b * d * d * d)


@pytest.mark.parametrize("p", [p for p in range(5, 300) if is_prime(p)])
def test_trace_of_frobenius_matches_exhaustive_count(p):
    # both twists of every j, j = 0 and 1728 included, with one exhaustive
    # count and at most one Shanks-Mestre run per curve: above 229
    # trace_of_frobenius is Shanks-Mestre, checked against a fresh count;
    # below it is the count, against which Shanks-Mestre is checked from
    # p = 31 on (Cremona-Sutherland: p > 29 suffices)
    F = make_field(p, 1)
    for e in range(p):
        for E in _both_twists(F, F.from_enc(e)):
            t = trace_of_frobenius(E)
            assert t * t < 4 * p
            if p > curves.MESTRE_MIN_P:
                assert t == p + 1 - count_points(Curve(F, E.a, E.b))
            elif p > 29:
                assert curves._mestre_count(Curve(F, E.a, E.b)) == p + 1 - t


def test_trace_of_frobenius_on_seeded_curves_near_ten_thousand():
    rng = random.Random(10007)
    for p in (10007, 10009, 10037):
        F = make_field(p, 1)
        for _ in range(6):
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                continue
            t = trace_of_frobenius(Curve(F, a, b))
            assert t == p + 1 - count_points(Curve(F, a, b))
            assert t * t < 4 * p


def test_trace_of_frobenius_at_the_field_envelope():
    # p = 2^31 - 1 against complex multiplication: j(O_D) has
    # 4p = t^2 + |D| b^2 when p splits in Q(sqrt D), and t = 0 when it does
    # not (Deuring); here -7 and -11 split, -8 and -19 do not
    from heckedyn.quadforms import kronecker
    p = 2 ** 31 - 1
    F = make_field(p, 1)
    split = []
    for j, D in ((-3375, -7), (8000, -8), (-32768, -11), (-884736, -19)):
        t = trace_of_frobenius(model_from_j(F, F.elt(j)))
        if kronecker(D, p) == 1:
            split.append(D)
            b2, r = divmod(4 * p - t * t, -D)
            assert t != 0 and r == 0 and math.isqrt(b2) ** 2 == b2
        else:
            assert t == 0
    assert split == [-7, -11]


def test_mestre_count_fails_fast_without_points(monkeypatch):
    monkeypatch.setattr(curves, "MESTRE_MAX_X", 0)
    with pytest.raises(InvariantBreach):
        trace_of_frobenius(Curve(make_field(10007, 1), 1, 1))


def _degree_subsets(factors, dd):
    """Subsets of the factor list with degrees summing to dd."""
    n = len(factors)

    def rec(i, remaining, chosen):
        if remaining == 0:
            yield list(chosen)
            return
        if i >= n:
            return
        d = factors[i].degree()
        if d <= remaining:
            chosen.append(factors[i])
            yield from rec(i + 1, remaining - d, chosen)
            chosen.pop()
        # skip factors too large to ever fit
        yield from rec(i + 1, remaining, chosen)

    yield from rec(0, dd, [])


def reference_kernel_polys(E, ell):
    """Products of factors of psi_ell of degree (ell-1)/2 whose root set is
    closed under every [k], 2 <= k <= (ell-1)/2."""
    dd = (ell - 1) // 2
    factors = [g for g, _ in poly_factor(division_poly(E, ell))]
    out = set()
    for subset in _degree_subsets(factors, dd):
        h = Poly(E.field, [1])
        for g in subset:
            h = h * g
        closed = True
        for k in range(2, dd + 1):
            num, den = _mult_by_k_fraction(E, k)
            xi = (num % h) * _poly_invert_mod(den % h, h) % h
            acc = Poly(E.field, [])
            for c in reversed(h.coeffs):
                acc = (acc * xi + Poly(E.field, [c])) % h
            closed = closed and acc.is_zero()
        if closed:
            out.add(h.key())
    return sorted(out)


@pytest.mark.parametrize("p, ell", [(13, 7), (29, 7), (23, 5)])
def test_ell_subgroups_match_all_k_closure(p, ell):
    E = canonical_ss_model(next(supersingular_j_in_base(p)))
    got = [h.key() for h in ell_subgroups(E, ell)]
    assert len(got) == ell + 1
    assert got == reference_kernel_polys(E, ell)


def test_ell_subgroups_match_all_k_closure_ordinary():
    F = make_field(23, 1)
    for a, b in ((1, 1), (2, 5), (3, 7)):
        E = Curve(F, a, b)
        assert [h.key() for h in ell_subgroups(E, 5)] == reference_kernel_polys(E, 5)
        assert [h.key() for h in ell_subgroups(E, 7)] == reference_kernel_polys(E, 7)


@pytest.mark.parametrize("p, ell", [(13, 7), (29, 7), (23, 11), (53, 13)])
def test_ell_subgroups_partition_psi_on_canonical_models(p, ell):
    # all ell + 1 subgroups are rational, and their x-sets partition the
    # nonzero ell-torsion: the kernels are pairwise coprime with product psi
    E = canonical_ss_model(next(supersingular_j_in_base(p)))
    kernels = ell_subgroups(E, ell)
    assert len(kernels) == ell + 1
    prod = Poly(E.field, [1])
    for h in kernels:
        assert h.degree() == (ell - 1) // 2
        prod = prod * h
    assert prod == division_poly(E, ell).monic()
    for i, h in enumerate(kernels):
        for h2 in kernels[i + 1:]:
            assert h.gcd(h2).degree() == 0


def test_ell_subgroups_match_subset_search_on_random_ordinary_curves():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def ordinary_curves(draw):
        p = draw(st.sampled_from((23, 29, 31)))
        a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        hypothesis.assume((4 * a ** 3 + 27 * b * b) % p)
        E = Curve(make_field(p, 1), a, b)
        hypothesis.assume(not is_supersingular(E))
        return E

    @hypothesis.settings(max_examples=20)
    @hypothesis.given(ordinary_curves(), st.sampled_from((5, 7)))
    def check(E, ell):
        got = [h.key() for h in ell_subgroups(E, ell)]
        assert got == reference_kernel_polys(E, ell)

    check()


@pytest.mark.parametrize("p", [11, 23])
def test_binomial_roots_match_power_table(p):
    F = make_field(p, 2)
    rng = random.Random(p)
    for e in (4, 6):
        table = {}
        for n in range(1, F.order):
            z = F.from_enc(n)
            table.setdefault((z ** e).enc(), []).append(z.enc())
        E0 = canonical_ss_model(F.from_enc(0 if e == 6 else 1728 % p))
        assert [u.enc() for u in automorphism_scalars(E0)] == table[1]
        for _ in range(6):
            r = F.from_enc(rng.randrange(1, F.order))
            E2 = (Curve(F, E0.a, E0.b * r) if e == 6 else
                  Curve(F, E0.a * r, E0.b))
            assert [u.enc() for u in iso_scalars(E0, E2)] == table.get(r.enc(), [])


# ---------------------------------------------------------------------------
# references for the torsion layer: the full F_p-first scan with the cofactor
# of the group order, and the affine torsion grid

def reference_prime_power_basis(E, ell, e):
    """Basis of E[ell^e] over the torsion field, deterministic scan."""
    m = ell ** e
    big, n, _ = curves.torsion_field(E, m)
    v = 0
    nn = n
    while nn % ell == 0:
        nn //= ell
        v += 1
    cof = n // (ell ** v)
    first = None
    first_span = None
    for enc in range(big.order):
        x = big.from_enc(enc)
        P = E.lift_x(x)
        if P is None:
            continue
        R = cof * P
        k = curves._point_order_in_sylow(R, ell, v + 1)
        if k < e:
            continue
        A = (ell ** (k - e)) * R
        if first is None:
            first = A
            # span of ell^(e-1) * first inside E[ell], for independence tests
            F1 = (ell ** (e - 1)) * first
            first_span = set()
            S = E.infinity(big)
            for _ in range(ell):
                first_span.add(S.key())
                S = S + F1
            continue
        A1 = (ell ** (e - 1)) * A
        if A1.key() not in first_span:
            return first, A
    raise AssertionError("no independent %d^%d-torsion basis found" % (ell, e))


def reference_points_of_order(E, N):
    """The grid i P1 + j P2 by affine additions, kept by gcd(N, i, j) = 1."""
    P1, P2 = torsion_basis(E, N)
    out = []
    row = E.infinity(P1.field)
    for i in range(N):
        cur = row
        for j in range(N):
            if math.gcd(N, i, j) == 1:
                out.append(cur)
            cur = cur + P2
        row = row + P1
    out.sort(key=lambda P: P.key())
    return out


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_torsion_basis_matches_reference_scan(p):
    # torsion fields of degree 2r, r = ord_N(p) in {1, 2, 3, 4, 6, 12}; every
    # N is a prime power ell^e, so the basis is one prime-power basis
    for j in supersingular_js(p):
        E = canonical_ss_model(j)
        for N in (3, 4, 5, 7, 8, 9, 13):
            if N % p == 0:
                continue
            (ell, e), = factor(N)
            assert torsion_basis(E, N) == reference_prime_power_basis(E, ell, e)


def _walk_model(p, j, ell):
    """The F_{p^2} model of vertex 0 after its first closed 2-walk, with the
    bases the walk's trace used."""
    vol = build_empirical(p, j, ell)
    a = next(ar for ar in vol.arrows if ar.src == 0)
    b = next(ar for ar in vol.arrows if ar.src == a.dst and ar.dst == 0)
    walk_endo_empirical(vol, [a.index, b.index])
    return vol.f2_models[0]


def test_ordinary_basis_scan_matches_scan_from_zero():
    # the F_p skip on ordinary F_{p^2} models gives the basis of the scan
    # from encoding 0, for every auxiliary prime the walk used
    for p, j, ell in ((41, 12, 3), (1009, 5, 2)):
        E2 = _walk_model(p, j, ell)
        used = sorted(key[1] for key in E2._torsion_cache if key[0] == "basis")
        assert used
        for m in used:
            assert curves._order_over(E2, 2) % m
            (l, e), = factor(m)
            assert torsion_basis(E2, m) == reference_prime_power_basis(E2, l, e)
    # 5 divides #E(F_{41^4}), and the reference takes its first point over
    # F_41, so the skip must not apply
    E2 = _walk_model(41, 12, 3)
    assert curves._order_over(E2, 2) % 5 == 0
    ref = reference_prime_power_basis(E2, 5, 1)
    assert ref[0].x.enc() < 41
    assert torsion_basis(E2, 5) == ref


def test_all_points_of_order_matches_affine_grid():
    for j in supersingular_js(11):
        E = canonical_ss_model(j)
        for N in (4, 5, 13):
            assert all_points_of_order(E, N) == reference_points_of_order(E, N)


def test_torsion_grid_coordinates_and_action_matrix():
    def refuse(P):
        raise AssertionError("a map evaluated at m = 1")

    for j in supersingular_js(11):
        E = canonical_ss_model(j)
        assert torsion_grid(E, 1) == {(0, 0): E.infinity()}
        assert action_matrix(refuse, E, 1) == (0, 0, 0, 0)
        for N in (4, 5):
            P1, P2 = torsion_basis(E, N)
            grid = torsion_grid(E, N)
            assert sorted(grid) == [(i, k) for i in range(N) for k in range(N)]
            assert all(P == i * P1 + k * P2 for (i, k), P in grid.items())
            # [3] is the scalar matrix; (x, y) -> (x, -y) is [-1]
            assert action_matrix(lambda P: 3 * P, E, N) == (3, 0, 0, 3)
            assert action_matrix(lambda P: -P, E, N) == (N - 1, 0, 0, N - 1)
            # [u] for a root of unity u of order k has det 1 and the trace
            # of a primitive k-th root in Z[i] or Z[zeta_3]
            for u in automorphism_scalars(E):
                k = next(k for k in (1, 2, 3, 4, 6) if (u ** k).enc() == 1)
                a, b, c, d = action_matrix(
                    lambda P: scaled_point(P, u, E), E, N)
                assert (a * d - b * c) % N == 1
                assert (a + d - {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}[k]) % N == 0


def assert_grid_is_scalar_sums(E, N):
    # every point by scalar multiplication, row-major keys, and the half
    # of the grid taken by negation
    P1, P2 = torsion_basis(E, N)
    grid = torsion_grid(E, N)
    assert list(grid) == [(i, j) for i in range(N) for j in range(N)]
    for (i, j), P in grid.items():
        assert P == i * P1 + j * P2
        assert grid[(N - i) % N, (N - j) % N] == -P


@pytest.mark.parametrize("p", [11, 13])
def test_torsion_grid_matches_scalar_multiples(p):
    # even N holds the self-negating point (N/2, N/2); at p = 11, E[10]
    # lies over F_{p^2} itself
    for j in supersingular_js(p):
        E = canonical_ss_model(j)
        for N in (2, 3, 6, 8, 9, 10, 12):
            assert_grid_is_scalar_sums(E, N)


def test_torsion_grid_on_ordinary_walk_model():
    E2 = _walk_model(41, 12, 3)
    used = sorted(key[1] for key in E2._torsion_cache if key[0] == "grid")
    assert used
    for m in used:
        assert_grid_is_scalar_sums(E2, m)


@pytest.mark.parametrize("N", [4, 5])
def test_torsion_grid_rejects_a_dependent_basis(N):
    # P2 = 2 P1: at N = 4 the axis of P2 meets O at 2 P2, at N = 5 the
    # chord of P1 and 2 P2 = 4 P1 = -P1 has a zero denominator
    E0 = canonical_ss_model(supersingular_js(11)[0])
    E = Curve(E0.field, E0.a, E0.b)
    P1 = torsion_basis(E0, N)[0]
    E._torsion_cache[("basis", N)] = (P1, 2 * P1)
    with pytest.raises(InvariantBreach):
        torsion_grid(E, N)
    assert ("grid", N) not in E._torsion_cache


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_points_over_base_field_lie_in_small_torsion(p):
    # the premise of the basis scan's skip of x in F_p: such a point lies in
    # E(F_{p^4}) = E[p^2 - 1] on every canonical model
    F4 = make_field(p, 4)
    for j in supersingular_js(p):
        E = canonical_ss_model(j)
        for x in range(p):
            P = E.lift_x(F4.from_enc(x))
            assert P is not None and ((p * p - 1) * P).inf
