import pytest

from heckedyn import curves
from heckedyn.errors import (BadDiscriminant, ExcludedJ, NotClosed, NotSplit,
                             ScaleExceeded, SupersingularStart)
from heckedyn.curves import is_supersingular, model_from_j
from heckedyn.fields import make_field
from heckedyn.quadforms import class_number, kronecker
from heckedyn.volcano import (MAX_LEVEL_BITS, build_empirical,
                              build_synthetic, lambda_of_endo, quad_power,
                              reduce_walk, walk_endo_empirical,
                              walk_endo_synthetic)


def test_synthetic_example_disc_minus_15():
    V = build_synthetic(-15, 2, 2)
    assert V.rim_size == 2
    assert V.rim_type == "split-cycle"
    assert V.level_sizes == [2, 2, 4]
    # oracle: class numbers of the level orders partition by component; the
    # full level-i count over all volcanoes with these parameters is
    # h(-15 * 4^i); per volcano it is h / (number of components)
    assert class_number(-15) == 2 == V.level_sizes[0]
    assert class_number(-60) == 2 == V.level_sizes[1]
    assert class_number(-240) == 4 == V.level_sizes[2]


def test_synthetic_level_sizes_stop_at_the_bit_bound():
    # at (-15, 2) the deepest level is 2^depth, of depth + 1 bits: depth
    # 13999 reaches the bound and still prints, one level more is refused
    V = build_synthetic(-15, 2, MAX_LEVEL_BITS - 1)
    assert V.level_sizes[-1] == 2 ** (MAX_LEVEL_BITS - 1)
    assert len(str(V.level_sizes[-1])) <= 4300
    for depth in (MAX_LEVEL_BITS, MAX_LEVEL_BITS + 1, 10 ** 9):
        with pytest.raises(ScaleExceeded):
            build_synthetic(-15, 2, depth)


def test_synthetic_inert():
    assert kronecker(-8, 5) == -1
    V = build_synthetic(-8, 5, 1)
    assert V.rim_size == 1 and V.rim_type == "inert-point"
    assert V.level_sizes == [1, 6]
    assert V.rim_walk() is None


def test_synthetic_split_loop():
    # class number one, split prime: a loop of multiplicity two at the rim
    V = build_synthetic(-24, 7, 1)
    if kronecker(-24, 7) != 1:
        pytest.skip("instance not split")
    # h(-24) = 2 but the prime above 7 may be principal or not
    assert V.rim_type in ("split-cycle",)
    V2 = build_synthetic(-7, 2, 0)
    assert V2.rim_type == "split-cycle" and V2.rim_size == 1
    assert V2.degree(0) == 2  # the multiplicity-2 loop


def test_synthetic_ramified_cases():
    V = build_synthetic(-8, 2, 1)
    assert V.rim_type == "ramified-loop" and V.rim_size == 1
    assert V.level_sizes == [1, 2]
    V2 = build_synthetic(-40, 2, 1)
    assert V2.rim_type == "ramified-edge" and V2.rim_size == 2
    assert V2.level_sizes == [2, 4]


def test_synthetic_level_formula():
    for disc, ell in ((-15, 2), (-23, 2), (-11, 3), (-8, 2), (-20, 3)):
        V = build_synthetic(disc, ell, 3)
        kron = kronecker(disc, ell)
        a = V.rim_size
        for i in range(1, 4):
            assert V.level_sizes[i] == (ell - kron) * ell ** (i - 1) * a


def test_synthetic_degrees_and_parents():
    V = build_synthetic(-15, 2, 2)
    # every vertex has degree <= ell + 1; interior vertices exactly ell + 1
    for v, (lvl, _) in enumerate(V.vertices):
        d = V.degree(v)
        if lvl < V.depth:
            assert d == V.ell + 1
        else:
            assert d == 1
    # every non-rim vertex has exactly one upward edge
    for v, (lvl, _) in enumerate(V.vertices):
        if lvl == 0:
            continue
        ups = 0
        for (eid, w) in V.adj[v]:
            wl = V.vertices[w][0]
            if wl == lvl - 1:
                ups += 1
        assert ups == 1


def test_synthetic_rejects_bad_discriminants():
    with pytest.raises(BadDiscriminant):
        build_synthetic(-3, 2, 1)
    with pytest.raises(BadDiscriminant):
        build_synthetic(-12, 2, 1)      # fundamental part -3
    # ramified ell with trivial conductor is fine
    build_synthetic(-20, 5, 1)
    with pytest.raises(BadDiscriminant):
        build_synthetic(-60, 2, 1)      # conductor 2 shares ell


def test_empirical_inert_isolated():
    vol = build_empirical(11, 4, 2)
    assert len(vol.curves) == 1
    assert vol.vertex_degree == [0]
    assert kronecker(vol.field_disc, 2) == -1


def test_empirical_depth_zero_radius():
    vol = build_empirical(11, 2, 2, depth=0)
    assert len(vol.arrows) == 0 and len(vol.curves) == 1


def test_empirical_rejects_bad_starts():
    with pytest.raises(SupersingularStart):
        build_empirical(11, 0, 2)
    # p = 13 has ordinary j = 0 (excluded: extra automorphisms)
    with pytest.raises(ExcludedJ):
        build_empirical(13, 0, 2)


@pytest.mark.parametrize("p", [11, 13, 101, 233, 263])
def test_supersingular_start_matches_hasse_invariant(p):
    # the start is rejected by its trace (p | t); the Hasse invariant is the
    # oracle, on every j in F_p, and SupersingularStart still comes before
    # ExcludedJ at j = 0 and 1728
    F = make_field(p, 1)
    for e in range(p):
        supersingular = is_supersingular(model_from_j(F, F.from_enc(e)))
        try:
            build_empirical(p, e, 2, depth=0)
        except SupersingularStart:
            assert supersingular
        except ExcludedJ:
            assert not supersingular
        else:
            assert not supersingular


def test_empirical_volcano_at_the_field_envelope():
    # p = 2^31 - 1 splits in Q(sqrt -7), so j = -3375, with CM by the
    # maximal order of discriminant -7, is ordinary: 4p = t^2 + 7 c^2 for
    # the Frobenius conductor c; p is inert in Q(sqrt -8), so j = 8000 is
    # supersingular
    p = 2 ** 31 - 1
    vol = build_empirical(p, -3375, 2, depth=1)
    t = vol.frobenius_trace
    assert vol.field_disc == -7
    assert t * t + 7 * vol.frobenius_conductor ** 2 == 4 * p
    assert len(vol.arrows) == 3 and not vol.complete
    with pytest.raises(SupersingularStart):
        build_empirical(p, 8000, 2, depth=0)


def test_empirical_degrees_bounded():
    for j0 in (2, 3, 5, 7, 8):
        vol = build_empirical(11, j0, 2)
        assert all(d <= 3 for d in vol.vertex_degree)
        if vol.levels is not None:
            rim = vol.rim_vertices()
            kron = kronecker(vol.field_disc, 2)
            for v in rim:
                if vol.true_depth == 0:
                    assert vol.vertex_degree[v] == 1 + kron
                else:
                    assert vol.vertex_degree[v] == 3


def test_reduce_walk_trivial_cases():
    V = build_synthetic(-15, 2, 2)
    assert reduce_walk(V, [], 0) == ([], 0)
    down = next(eid for eid, (u, v, k) in enumerate(V.edges)
                if k == "down" and u == 0)
    assert reduce_walk(V, [(down, 1), (down, -1)], 0) == ([], 0)


def test_reduce_walk_descent_and_winding():
    V = build_synthetic(-15, 2, 2)
    rims = [eid for eid, (u, v, k) in enumerate(V.edges) if k == "rim"]
    down = next(eid for eid, (u, v, k) in enumerate(V.edges)
                if k == "down" and u == 0)
    child = next(v for (u, v, k) in [V.edges[down]])
    # start below the rim: up, around the rim once, back down
    walk = [(down, -1), (rims[0], 1), (rims[1], 1), (down, 1)]
    path, n = reduce_walk(V, walk, child)
    assert n == 1
    assert path == [(down, -1)]
    # winding twice
    walk2 = [(rims[0], 1), (rims[1], 1), (rims[0], 1), (rims[1], 1)]
    assert reduce_walk(V, walk2, 0) == ([], 2)
    # forward then backward cancels
    walk3 = [(rims[0], 1), (rims[0], -1)]
    assert reduce_walk(V, walk3, 0) == ([], 0)


def test_reduce_walk_not_closed():
    V = build_synthetic(-15, 2, 2)
    rims = [eid for eid, (u, v, k) in enumerate(V.edges) if k == "rim"]
    with pytest.raises(NotClosed):
        reduce_walk(V, [(rims[0], 1)], 0)


def test_reduce_walk_self_dual_loop_squares_away():
    V = build_synthetic(-8, 2, 1)
    loop = next(eid for eid, (u, v, k) in enumerate(V.edges) if k == "loop")
    assert reduce_walk(V, [(loop, 1), (loop, 1)], 0) == ([], 0)
    assert reduce_walk(V, [(loop, 1)], 0) == ([], 1)


def test_reduce_walk_idempotent_on_normal_forms():
    V = build_synthetic(-15, 2, 2)
    rims = [eid for eid, (u, v, k) in enumerate(V.edges) if k == "rim"]
    walk = [(rims[0], 1), (rims[1], 1)]
    path, n = reduce_walk(V, walk, 0)
    assert (path, n) == ([], 1)
    # reducing the normal form again changes nothing
    assert reduce_walk(V, walk, 0) == reduce_walk(V, list(walk), 0)


def test_quad_power():
    assert quad_power(-1, 4, 0) == (2, 1)
    assert quad_power(-1, 4, 1) == (-1, 4)
    # f^2 = t f - n applied twice: trace(f^2) = t^2 - 2n
    assert quad_power(-1, 4, 2) == (1 - 8, 16)
    assert quad_power(3, 2, 3)[1] == 8


def test_walk_endo_synthetic_matches_quad_power():
    V = build_synthetic(-15, 2, 2)
    rims = [eid for eid, (u, v, k) in enumerate(V.edges) if k == "rim"]
    down = next(eid for eid, (u, v, k) in enumerate(V.edges)
                if k == "down" and u == 0)
    t, n = V.rim_endo
    walk = [(rims[0], 1), (rims[1], 1)]
    assert walk_endo_synthetic(V, walk, 0) == (t, n)
    walk2 = walk + walk
    assert walk_endo_synthetic(V, walk2, 0) == quad_power(t, n, 2)
    # conjugation by a descent multiplies by the scalar ell
    walk3 = [(down, -1)] + walk + [(down, 1)]
    child = V.edges[down][1]
    tt, nn = walk_endo_synthetic(V, walk3, child)
    assert (tt, nn) == (2 * t, 4 * n)


def test_walk_endo_empirical_cross_check():
    # split rim of length 2 at p = 41, disc -20, ell = 3: closed length-2
    # walks compose to the rim generator (trace +-4) or the scalar 3
    vol = build_empirical(41, 12, 3)
    assert vol.rim_disc == -20
    a01 = [ar.index for ar in vol.arrows if ar.src == 0 and ar.dst == 1]
    a10 = [ar.index for ar in vol.arrows if ar.src == 1 and ar.dst == 0]
    endos = set()
    for i in a01:
        for j in a10:
            endos.add(walk_endo_empirical(vol, [i, j]))
    from heckedyn.quadforms import prime_class_order
    a, (t, n) = prime_class_order(-20, 3)
    assert a == 2 and n == 9
    assert endos == {(t, 9), (6, 9)} or endos == {(-t, 9), (6, 9)}


def test_walk_endo_empirical_counts_each_vertex_model_once(monkeypatch):
    # the F_{p^2} model of a vertex, with its torsion bases, is built once
    # and reused by every walk from that vertex; its point count comes from
    # the volcano's trace by base change, so no walk scans F_{p^2}
    vol = build_empirical(41, 12, 3)
    i = next(ar.index for ar in vol.arrows if ar.src == 0 and ar.dst == 1)
    j = next(ar.index for ar in vol.arrows if ar.src == 1 and ar.dst == 0)
    scans = []
    count = curves.count_points

    def counting(E):
        if E._count is None:
            scans.append(E)
        return count(E)

    monkeypatch.setattr(curves, "count_points", counting)
    first = walk_endo_empirical(vol, [i, j])
    assert walk_endo_empirical(vol, [i, j]) == first
    assert len(scans) == 0
    monkeypatch.undo()
    E2 = vol._memo["_f2_model", 0]
    assert E2._count == count(curves.Curve(E2.field, E2.a, E2.b))


def test_walk_endo_empirical_backtrack_is_scalar():
    vol = build_empirical(11, 2, 2)
    ar = vol.arrows[0]
    back = [a.index for a in vol.arrows
            if a.src == ar.dst and a.dst == ar.src]
    found_scalar = False
    for b in back:
        t, n = walk_endo_empirical(vol, [ar.index, b])
        if t * t == 4 * n:
            found_scalar = True
    assert found_scalar


def test_lambda_of_endo_scalar():
    pair = lambda_of_endo(2 * 3, 9, 5, 8)
    assert all(x.val == 1 for x in pair)


def test_lambda_of_endo_example():
    pair = lambda_of_endo(3, 2, 5, 8)
    vals = sorted(x.val for x in pair)
    inv2 = pow(2, -1, 5 ** 8)
    assert vals == sorted([2, inv2])
    assert (pair[0] * pair[1]).val == 1


def test_lambda_of_endo_not_split():
    with pytest.raises(NotSplit):
        lambda_of_endo(4, 5, 11, 8)


def test_lambda_unit_and_valuation_relation():
    import random
    rng = random.Random(8)
    checked = 0
    from heckedyn.padics import quadratic_roots
    for _ in range(200):
        t = rng.randrange(-30, 30)
        n = rng.randrange(1, 60)
        try:
            r1, r2 = quadratic_roots(t, n, 7, 12)
        except NotSplit:
            continue
        if n % 7 == 0:
            continue
        pair = lambda_of_endo(t, n, 7, 12)
        assert (pair[0] * pair[1]).val == 1
        lam = pair[0]
        # v(lam - 1) = v(r1 - r2) - v(r2)
        diff = r1 - r2
        if diff.val != 0:
            lhs = (lam - 1).valuation() if (lam - 1).val else None
            rhs = diff.valuation() - r2.valuation() if diff.val else None
            assert lhs == rhs
        checked += 1
    assert checked > 30


def test_walk_monoid_image_cyclic():
    # every closed-walk unit ratio is a power of the rim ratio (up to
    # inversion): check on powers of f_rim, with p = 17 split for disc -15
    assert kronecker(-15, 17) == 1
    V = build_synthetic(-15, 2, 3)
    t, n = V.rim_endo
    base = lambda_of_endo(t, n, 17, 16)
    for e in (2, 3):
        te, ne = quad_power(t, n, e)
        pe = lambda_of_endo(te, ne, 17, 16)
        assert pe[0] in (base[0] ** e, base[1] ** e)


def test_synthetic_vs_empirical_suite_smoke():
    for (p, j0, ell) in ((31, 11, 2), (41, 9, 2), (41, 12, 3)):
        vol = build_empirical(p, j0, ell)
        syn = build_synthetic(vol.rim_disc, ell, vol.true_depth)
        assert syn.rim_size == len(vol.rim_vertices())
        assert syn.level_sizes == vol.level_sizes()


@pytest.mark.xfail(strict=True,
                   reason="rim_disc takes the prime-to-ell part of the "
                          "Frobenius conductor as the rim conductor, which "
                          "fails when End(E) has a smaller prime-to-ell "
                          "conductor than Z[pi] (here 1 against 5533)")
def test_rim_disc_at_a_cm_special_start():
    # j = -3375 has CM by the maximal order of Q(sqrt(-7)): vertex 0 has two
    # 2-isogenies back to itself (h(-7) = 1) and one down, so it is on the
    # rim, whose discriminant is -7; the volcano reports -7 * 5533^2
    vol = build_empirical(2147483647, -3375, 2, 1)
    assert sorted(ar.dst for ar in vol.arrows if ar.src == 0) == [0, 0, 1]
    assert vol.rim_disc == -7
