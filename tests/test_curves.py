import math
import random

import pytest

from heckedyn.errors import (BadTorsionOrder, EqualCharacteristic,
                             InvariantBreach, NotAKernel, NotSupersingular,
                             UnsupportedCharacteristic)
from heckedyn import curves
from heckedyn.curves import (Curve, _binomial_roots, _div_B,
                             _poly_invert_mod, action_matrix, all_points_of_order,
                             automorphism_scalars, canonical_of,
                             canonical_ss_model, count_points, ell_subgroups,
                             is_supersingular, iso_scalars, j_invariant,
                             mat_mul, model_from_j,
                             scaled_point, supersingular_j_in_base,
                             supersingular_seed, torsion_basis, torsion_grid,
                             trace_of_frobenius, velu)
from heckedyn.fields import (ExtFieldElement, Poly, distinct_degree_parts,
                             embedding, factor, is_prime, make_field, memo,
                             poly_factor)
from heckedyn.graphio import ssgraph_to_dict
from heckedyn import ssgraph
from heckedyn.ssgraph import build_ssgraph
from heckedyn.volcano import build_empirical, walk_endo_empirical

from duals import dual_isogeny
from kernel_reference import cycle_kernel_polys, mult_by_k_fraction

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


def test_velu_rejects_linear_non_kernel():
    # y^2 = x^3 + x over F_11: x = 0 is 2-torsion, x = 5 and 6 are the
    # roots of psi_3, every other x is neither
    E = Curve(F11, 1, 0)
    for x0 in range(11):
        h = Poly(F11, [-x0 % 11, 1])
        if x0 == 0 or x0 in (5, 6):
            assert velu(E, h).degree == (2 if x0 == 0 else 3)
        else:
            with pytest.raises(NotAKernel, match="3-division"):
                velu(E, h)


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


def reference_trial_ss_model(j):
    """The canonical model by twist-class trials, the search that the
    closed form replaced: at j = 0 / 1728 one _is_canonical test per class
    mod 6th / 4th powers, on its first element; otherwise the model over
    F_{p^2}, then its quadratic twist."""
    Fp2 = j.field
    _is_canonical = curves._is_canonical
    if j.is_zero() or j == 1728:
        # the models are (0, z) resp. (z, 0), one per class of z mod 6th
        # resp. 4th powers; try the classes by their first elements
        e = 6 if j.is_zero() else 4
        firsts = [Fp2.first_in_class(e, c)
                  for c in _binomial_roots(Fp2, e, Fp2.one())]
        for z in sorted(firsts, key=ExtFieldElement.enc):
            best = Curve(Fp2, Fp2.zero(), z) if j.is_zero() else Curve(Fp2, z, Fp2.zero())
            if _is_canonical(best):
                break
        else:
            raise InvariantBreach("no canonical model found for j = %d" % j.enc())
    else:
        base = model_from_j(Fp2, j)
        if not _is_canonical(base):
            # quadratic twist by the first non-residue
            d = Fp2.nonresidue()
            base = Curve(Fp2, base.a * d * d, base.b * d * d * d)
            if not _is_canonical(base):
                raise InvariantBreach("no canonical model in either twist class")
        # the models are (a u^4, b u^6): the least a' is the first element of
        # the class of a mod 4th powers, which fixes u up to a 4th root of
        # unity, so b' is one of the two square roots of b^2 (a'/a)^3
        a, b = base.a, base.b
        z = Fp2.first_in_class(4, a ** ((Fp2.order - 1) // 4))
        r = (b * b * z * z * z / (a * a * a)).sqrt()
        if r is None:
            raise InvariantBreach("b'^2 is not a square for j = %d" % j.enc())
        best = Curve(Fp2, z, min(r, -r, key=lambda t: t.enc()))
    return (best.a.enc(), best.b.enc())


def test_canonical_model_matches_per_element_scans():
    # every supersingular j over F_{p^2}, p < 300: from p = 11 on the
    # 3-isogeny graph is connected, so its curves are all of them.  The
    # model over F_p of a j != 0, 1728 in F_p is never the canonical one
    untwisted = 0
    for p in filter(is_prime, range(5, 300)):
        js = (supersingular_js(p) if p < 11 else
              [j_invariant(E) for E in build_ssgraph(p, 3, 1).curves])
        assert len(js) == ss_count(p)
        for j in js:
            E = canonical_ss_model(j)
            got = (E.a.enc(), E.b.enc())
            assert got == reference_scan_ss_model(j)
            assert got == reference_trial_ss_model(j)
            if j.coeffs[1] == 0 and not (j.is_zero() or j == 1728):
                assert not curves._is_canonical(model_from_j(j.field, j))
                untwisted += 1
    assert untwisted > 60


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
        assert len(calls) == 1  # the certificate of the closed form
        assert is_canonical(E)


def test_canonical_model_at_j_0_and_1728_matches_twist_trials():
    # the twist by the automorphism -1: z = first_in_class(6 resp. 4, -1)
    cases = 0
    for p in filter(is_prime, range(5, 2000)):
        F = make_field(p, 2)
        for j in (F.zero(), F.elt(1728)):
            if is_supersingular(model_from_j(F, j)):
                E = canonical_ss_model(j)
                assert (E.a.enc(), E.b.enc()) == reference_trial_ss_model(j)
                cases += 1
    assert cases > 290


def test_supersingular_seed_is_supersingular():
    # Deuring's criterion against the Hasse invariant at every prime
    # 11 <= p < 6000; no such p splits in all nine fields, so each seed is
    # one of the nine CM values
    for p in filter(is_prime, range(11, 6000)):
        j = supersingular_seed(p)
        assert is_supersingular(model_from_j(j.field, j)), p
        assert j.enc() in {J % p for _, J in curves.CM_J}


# the first supersingular j of the F_p scan, the old seed, at the first two
# primes that split in all nine fields
SCAN_SEEDS = {15073: 137, 18313: 1978}


@pytest.mark.parametrize("p", sorted(SCAN_SEEDS))
def test_supersingular_seed_falls_back_to_the_scan(p):
    assert all(pow(D % p, (p - 1) // 2, p) == 1 for D, _ in curves.CM_J)
    assert supersingular_seed(p).enc() == SCAN_SEEDS[p]


@pytest.mark.parametrize("p, ell, N", [(47, 3, 1), (101, 5, 1), (61, 3, 5)])
def test_graph_does_not_depend_on_the_seed(p, ell, N, monkeypatch):
    # the old seed, the first supersingular j of the F_p scan, gives the
    # same graph: it is connected and its vertices are sorted at the end
    G = ssgraph_to_dict(build_ssgraph(p, ell, N))
    monkeypatch.setattr(ssgraph, "supersingular_seed",
                        lambda p: next(supersingular_j_in_base(p)))
    assert ssgraph_to_dict(build_ssgraph(p, ell, N)) == G


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


def reference_hasse_two_powers(E):
    """The Hasse invariant test as two running powers: Horner's rule in a^3
    with a running power of b^2, then the correction a^(2m-3h) b^(2l-m) for
    l, h the least and greatest i; the sum that one Horner sequence in
    b^2/a^3 replaced."""
    p = E.field.p
    m = (p - 1) // 2
    lo, hi = (m + 1) // 2, 2 * m // 3
    a3 = E.a * E.a * E.a
    b2 = E.b * E.b
    acc = E.field.zero()
    bt = E.field.one()
    for c in curves._hasse_coeffs(p):
        acc = acc * a3 + bt * c
        bt = bt * b2
    return (acc * E.a ** (2 * m - 3 * hi) * E.b ** (2 * lo - m)).is_zero()


def test_hasse_horner_matches_two_powers_on_every_base_field_model():
    cases = 0
    for p in filter(is_prime, range(5, 60)):
        F = make_field(p, 1)
        for a in range(p):
            for b in range(p):
                if (4 * a ** 3 + 27 * b ** 2) % p:
                    E = Curve(F, a, b)
                    assert is_supersingular(E) == reference_hasse_two_powers(E)
                    cases += 1
    assert cases > 15000


def test_hasse_horner_matches_two_powers_over_p2():
    rng = random.Random(20)
    for p in list(filter(is_prime, range(5, 60))) + [1009, 10007]:
        F = make_field(p, 2)
        for _ in range(200 if p < 60 else 20):
            a, b = (F.from_enc(rng.randrange(F.order)) for _ in "ab")
            if (a * a * a * 4 + b * b * 27).is_zero():
                continue
            E = Curve(F, a, b)
            assert is_supersingular(E) == reference_hasse_two_powers(E), (p, E)


@pytest.mark.parametrize("p", [1009, 1013, 1063, 1019])
def test_hasse_at_j_0_and_1728_follows_deuring(p):
    # one prime in each class p mod 12 in {1, 5, 7, 11}: j = 0 is
    # supersingular iff p = 2 mod 3, j = 1728 iff p = 3 mod 4, on every
    # model (0, b) resp. (a, 0) tried, over F_p and over F_{p^2}
    rng = random.Random(p)
    for k in (1, 2):
        F = make_field(p, k)
        for _ in range(5):
            z = F.from_enc(rng.randrange(1, F.order))
            E0, E1728 = Curve(F, F.zero(), z), Curve(F, z, F.zero())
            assert is_supersingular(E0) == reference_hasse_two_powers(E0) \
                == (p % 3 == 2)
            assert is_supersingular(E1728) == reference_hasse_two_powers(E1728) \
                == (p % 4 == 3)


@pytest.mark.parametrize("p", [p for p in range(11, 120) if is_prime(p)])
def test_canonical_of_every_rescaling_is_the_canonical_model(p, monkeypatch):
    # seeded rescalings (a u^4, b u^6) of each canonical model give the
    # cached object, and from an empty cache a model with the same key
    rng = random.Random(p)
    F = make_field(p, 2)
    js = [j_invariant(E) for E in build_ssgraph(p, 3, 1).curves]
    assert len(js) == ss_count(p)
    for j in js:
        E = canonical_ss_model(j)
        key = E.key()
        for _ in range(6):
            u2 = F.from_enc(rng.randrange(1, F.order)) ** 2
            M = Curve(F, E.a * u2 * u2, E.b * u2 * u2 * u2)
            assert canonical_of(M)[0] is E
            monkeypatch.setattr(curves, "_CANONICAL_CACHE", {})
            E = canonical_of(M)[0]
            assert (E.key(), E.canonical_ss) == (key, True)
            assert canonical_ss_model(j) is E


@pytest.mark.parametrize("p", [11, 13, 47, 101, 1009])
def test_canonical_of_refuses_the_other_twist(p, monkeypatch):
    # the quadratic twist of a canonical model has squared Frobenius -p: it
    # is refused against the cached model and, from an empty cache, by the
    # certificate
    F = make_field(p, 2)
    d = F.nonresidue()
    for E in build_ssgraph(p, 3, 1).curves:
        assert canonical_of(E)[0].key() == E.key()
        twist = Curve(F, E.a * d * d, E.b * d * d * d)
        with pytest.raises(InvariantBreach, match="twist class"):
            canonical_of(twist)
        monkeypatch.setattr(curves, "_CANONICAL_CACHE", {})
        with pytest.raises(InvariantBreach, match="not canonical"):
            canonical_of(twist)


@pytest.mark.parametrize("p", [11, 13, 1009, 1063])
def test_canonical_of_returns_the_least_isomorphism(p):
    # every j of the (p, 3, 1) graph (j = 0 and 1728 at p = 11, j = 1728 at
    # p = 1063) and seeded models (a v^4, b v^6) of it: canonical_of gives
    # the cached model M and the least u of iso_scalars(E, M) by encoding,
    # which carries E onto M; the quadratic twist of E is refused
    rng = random.Random(p)
    F = make_field(p, 2)
    d = F.nonresidue()
    models = build_ssgraph(p, 3, 1).curves
    js = {j_invariant(M).enc() for M in models}
    assert (0 in js, 1728 % p in js) == (p % 3 == 2, p % 4 == 3)
    for M in models:
        rescaled = [M]
        for _ in range(3):
            v2 = F.from_enc(rng.randrange(1, F.order)) ** 2
            rescaled.append(Curve(F, M.a * v2 * v2, M.b * v2 * v2 * v2))
        for E in rescaled:
            got, u = canonical_of(E)
            assert got is M
            assert u == min(iso_scalars(E, M), key=ExtFieldElement.enc)
            u2 = u * u
            assert (E.a * u2 * u2, E.b * u2 * u2 * u2) == (M.a, M.b)
            with pytest.raises(InvariantBreach, match="twist class"):
                canonical_of(Curve(F, E.a * d * d, E.b * d * d * d))


def reference_companion_order(t, q, m):
    """Order of the companion matrix of x^2 - t x + q modulo m, by walking
    its powers: the loop that the order from |GL_2(Z/m)| replaced."""
    e = (0, (-q) % m, 1 % m, t % m)
    ident = (1 % m, 0, 0, 1 % m)
    cur = e
    r = 1
    while cur != ident:
        cur = mat_mul(cur, e, m)
        r += 1
        if r > m ** 4:
            raise InvariantBreach("companion matrix order overflow")
    return r


@pytest.mark.parametrize("m", curves.AUX_TRACE_PRIMES + (4, 9, 25, 15))
def test_companion_order_matches_the_powers(m):
    # every t mod m and every q mod m prime to m
    for t in range(m):
        for q in range(1, m):
            if math.gcd(q, m) == 1:
                assert (curves._companion_order(t, q, m)
                        == reference_companion_order(t, q, m)), (t, q)


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


def test_trace_of_frobenius_scans_once(monkeypatch):
    # the count is kept on the curve: a second trace reads it, and a count
    # given to the constructor is never rescanned
    scans = []
    scan = curves.count_points
    monkeypatch.setattr(curves, "count_points",
                        lambda E: scans.append(E) or scan(E))
    F = make_field(101, 1)
    E = Curve(F, 2, 3)
    t = trace_of_frobenius(E)
    assert trace_of_frobenius(E) == t
    assert len(scans) == 1
    given = Curve(F, 2, 3, count=102 - t)
    assert trace_of_frobenius(given) == t
    assert len(scans) == 1
    assert t == 102 - brute_count(101, 2, 3)


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


def _closed_under_all_k(E, h):
    """Whether the root set of h is closed under every [k], 2 <= k <= deg h."""
    for k in range(2, h.degree() + 1):
        num, den = mult_by_k_fraction(E, k)
        xi = (num % h) * _poly_invert_mod(den % h, h) % h
        acc = Poly(E.field, [])
        for c in reversed(h.coeffs):
            acc = (acc * xi + Poly(E.field, [c])) % h
        if not acc.is_zero():
            return False
    return True


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
        if _closed_under_all_k(E, h):
            out.add(h.key())
    return sorted(out)


def assert_kernels_match_references(E, ell, subset_search=True):
    """ell_subgroups on a fresh copy of E against the [g]-cycle reference
    and the subset search; returns the number of kernels.  Where the subset
    search is too large, each kernel passes its closure test instead, and
    ell + 1 kernels are all there are."""
    E = Curve(E.field, E.a, E.b)
    got = ell_subgroups(E, ell)
    keys = [h.key() for h in got]
    assert keys == [h.key() for h in cycle_kernel_polys(E, ell)]
    if subset_search:
        assert keys == reference_kernel_polys(E, ell)
    else:
        assert len(got) == ell + 1
        for h in got:
            assert (division_poly(E, ell) % h).is_zero()
            assert h.degree() == (ell - 1) // 2 and _closed_under_all_k(E, h)
    return len(got)


# (23, 11) and (53, 13) split psi_ell into 60 and 84 linear factors, which
# is C(60, 5) and C(84, 6) subsets for the subset search
@pytest.mark.parametrize("p, ell", [(13, 7), (29, 7), (23, 5), (23, 11),
                                    (53, 13), (37, 11), (101, 5), (1009, 7)])
def test_ell_subgroups_match_all_k_closure(p, ell):
    E = canonical_ss_model(next(supersingular_j_in_base(p)))
    subset_search = (p, ell) not in ((23, 11), (53, 13))
    assert assert_kernels_match_references(E, ell, subset_search) == ell + 1


# ordinary curves: three over F_23, then ones drawn with random.Random(31);
# between them they have 0, 1, 2 and ell + 1 rational subgroups, the last at
# (31, 6, 10)
ORDINARY_KERNEL_CASES = ((23, 1, 1), (23, 2, 5), (23, 3, 7),
                         (23, 3, 12), (23, 1, 4), (23, 7, 22), (23, 4, 4),
                         (29, 7, 17), (29, 23, 14), (29, 16, 13),
                         (31, 10, 6), (31, 6, 10), (31, 19, 30))


def test_ell_subgroups_match_all_k_closure_ordinary():
    counts = set()
    for p, a, b in ORDINARY_KERNEL_CASES:
        E = Curve(make_field(p, 1), a, b)
        assert not is_supersingular(E)
        for ell in (3, 5, 7):
            counts.add((ell, assert_kernels_match_references(E, ell)))
    assert {n for _, n in counts} >= {0, 1, 2} and (3, 4) in counts


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
    @hypothesis.given(ordinary_curves(), st.sampled_from((3, 5, 7)))
    def check(E, ell):
        assert_kernels_match_references(E, ell)

    check()


@pytest.mark.parametrize("p", [11, 23, 47, 59])
@pytest.mark.parametrize("ell", [3, 5, 7])
def test_ell_subgroups_match_references_at_j_0_and_1728(p, ell):
    F = make_field(p, 2)
    for j in (0, 1728 % p):
        E = canonical_ss_model(F.from_enc(j))
        assert assert_kernels_match_references(E, ell) == ell + 1


def test_ell_subgroups_match_references_on_a_volcano():
    # the rim vertex of the (2003, 9, 7) volcano has all ell + 1 subgroups
    # rational, each floor vertex one
    vol = build_empirical(2003, 9, 7)
    rim = vol.vertex_degree.index(8)
    floor = [v for v, d in enumerate(vol.vertex_degree) if d == 1][:2]
    assert len(floor) == 2
    assert assert_kernels_match_references(vol.curves[rim], 7) == 8
    for v in floor:
        assert assert_kernels_match_references(vol.curves[v], 7) == 1


@pytest.mark.parametrize("p, j, ell", [(37, None, 11), (2003, 9, 7),
                                      (23, 2, 5), (23, 4, 7)])
def test_distinct_degree_parts_of_psi_cut_off_at_half_ell(p, j, ell):
    # the parts of degree <= (ell - 1)/2 are poly_factor's factors of psi_ell
    # of those degrees multiplied together by degree; j = None is the
    # canonical seed curve.  The cut-off drops two quartics of psi_5 at
    # (23, 2), and at (23, 4) the irreducible degree-21 rest of psi_7.
    dd = (ell - 1) // 2
    F = make_field(p, 1)
    E = (canonical_ss_model(supersingular_seed(p)) if j is None
         else model_from_j(F, F.elt(j)))
    psi = _div_B(E, ell)
    parts = {}
    for g, m in poly_factor(psi):
        assert m == 1
        if g.degree() <= dd:
            parts[g.degree()] = parts.get(g.degree(), Poly(E.field, [1])) * g
    assert distinct_degree_parts(psi, dd) == sorted(parts.items())


def test_ell_subgroups_pole_raises_invariant_breach(monkeypatch):
    # a division that fails mod f is reported, not returned
    E = canonical_ss_model(supersingular_seed(13))
    monkeypatch.setattr(curves, "_poly_invert_mod", lambda g, h: None)
    with pytest.raises(InvariantBreach):
        ell_subgroups(Curve(E.field, E.a, E.b), 7)


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
    return vol._memo["_f2_model", 0]


def test_ordinary_basis_scan_matches_scan_from_zero():
    # the F_p skip on ordinary F_{p^2} models gives the basis of the scan
    # from encoding 0, for every auxiliary prime the walk used
    for p, j, ell in ((41, 12, 3), (1009, 5, 2)):
        E2 = _walk_model(p, j, ell)
        used = sorted(key[1] for key in E2._memo if key[0] == "torsion_basis")
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
    used = sorted(key[1] for key in E2._memo if key[0] == "torsion_grid")
    assert used
    for m in used:
        assert_grid_is_scalar_sums(E2, m)


def test_memo_runs_once_per_object_and_arguments():
    calls = []

    @memo
    def halves(E, n):
        calls.append(n)
        return [n // 2]

    E = Curve(F11, 1, 1)
    first = halves(E, 6)
    assert halves(E, 6) is first and calls == [6]
    assert halves(E, 8) == [4] and calls == [6, 8]
    assert E._memo["halves", 6] is first
    # the package's own sites: a division polynomial, a basis, kernels
    E = canonical_ss_model(supersingular_js(11)[0])
    for fn, arg in ((_div_B, 7), (torsion_basis, 5), (ell_subgroups, 3)):
        got = fn(E, arg)
        assert fn(E, arg) is got and E._memo[fn.__name__, arg] is got


def test_memo_stores_no_exception():
    calls = []

    @memo
    def second_try(E):
        calls.append(None)
        if len(calls) == 1:
            raise InvariantBreach("first call")
        return len(calls)

    E = Curve(F11, 1, 1)
    with pytest.raises(InvariantBreach):
        second_try(E)
    assert E._memo == {}
    assert second_try(E) == 2 and second_try(E) == 2 and len(calls) == 2
    # a refused torsion order is refused again, and nothing is kept
    for _ in range(2):
        with pytest.raises(BadTorsionOrder):
            torsion_basis(E, 22)
    assert ("torsion_basis", 22) not in E._memo


def test_memo_keeps_equal_curves_apart():
    # Curve hashes by value, but a twin not flagged canonical must not read
    # the canonical model's answers
    E = canonical_ss_model(supersingular_js(11)[0])
    twin = Curve(E.field, E.a, E.b)
    assert twin == E and hash(twin) == hash(E) and not twin.canonical_ss

    @memo
    def flagged(E):
        return E.canonical_ss

    assert flagged(E) is True and flagged(twin) is False
    basis = torsion_basis(E, 5)
    assert ("torsion_basis", 5) not in twin._memo
    assert torsion_basis(twin, 5) is not basis


@pytest.mark.parametrize("N", [4, 5])
def test_torsion_grid_rejects_a_dependent_basis(N):
    # P2 = 2 P1: at N = 4 the axis of P2 meets O at 2 P2, at N = 5 the
    # chord of P1 and 2 P2 = 4 P1 = -P1 has a zero denominator
    E0 = canonical_ss_model(supersingular_js(11)[0])
    E = Curve(E0.field, E0.a, E0.b)
    P1 = torsion_basis(E0, N)[0]
    E._memo["torsion_basis", N] = (P1, 2 * P1)
    with pytest.raises(InvariantBreach):
        torsion_grid(E, N)
    assert ("torsion_grid", N) not in E._memo


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
