import math
from collections import Counter
from fractions import Fraction

import pytest

from heckedyn.errors import (EvenEll, InvariantBreach, NotClosed,
                             ScaleExceeded, UsageError)
from heckedyn.curves import (Isogeny, all_points_of_order,
                             automorphism_scalars, canonical_ss_model,
                             chain_eval, ell_subgroups, iso_scalars,
                             j_invariant, scaled_point, torsion_basis,
                             torsion_coordinates, trace_from_residues, velu)
from heckedyn.fields import embedding, multiplicative_order as alpha_of_level
from heckedyn.padics import PadicNumber, sat_membership
from heckedyn.quadforms import (class_number, fundamental_discriminant,
                                kronecker)
from heckedyn.ssgraph import (SSArrow, SSGraph, SSVertex, WalkEndo,
                              _is_self_dual, _walk_steps, build_ssgraph,
                              closed_walks, graph_report, is_rigid, is_solid,
                              monoid_certificates, odd_closed_walk,
                              self_dual_loop_count, walk_char_poly)

from duals import backtrack_endo
from field_section import section


def test_reference_instance_11_5_1(g_11_5_1):
    G = g_11_5_1
    assert len(G.vertices) == 2
    js = sorted(j_invariant(v.curve).enc() for v in G.vertices)
    assert js == [0, 1]
    counts = Counter((ar.src, ar.dst) for ar in G.arrows)
    rows = sorted(sorted(counts[i, j] for j in range(2)) for i in range(2))
    assert rows == [[2, 4], [3, 3]]
    # the normalized matrix is (1/6)[[3,3],[2,4]] up to labeling
    assert all(G.out_degree(i) == 6 for i in range(2))


def test_single_vertex_13_5_1(g_13_5_1):
    G = g_13_5_1
    assert len(G.vertices) == 1
    assert [(ar.src, ar.dst) for ar in G.arrows] == [(0, 0)] * 6


def test_rigid_11_3_4(g_11_3_4):
    G = g_11_3_4
    assert is_rigid(4, 11)
    rep = graph_report(G)
    assert set(rep["out_degrees"]) == {4}
    assert set(rep["in_degrees"]) == {4}
    assert rep["connected"] and not rep["bipartite"]
    for v in G.vertices:
        assert v.aut_order == 1


def test_rigid_and_solid_classification():
    assert not is_rigid(1, 13) and is_solid(1, 13)
    assert not is_solid(1, 11)
    assert not is_rigid(2, 13) and is_solid(2, 13)
    assert is_rigid(3, 13) and is_solid(3, 13)
    assert not is_solid(3, 11)
    assert is_rigid(5, 11) and is_rigid(37, 11)


def test_validation_errors():
    with pytest.raises(EvenEll):
        build_ssgraph(11, 2, 1)
    with pytest.raises(UsageError):
        build_ssgraph(11, 3, 33)
    with pytest.raises(UsageError):
        build_ssgraph(7, 3, 1)
    with pytest.raises(ScaleExceeded):
        build_ssgraph(11, 3, 991)


def test_vertex_counts_match_orbit_formula():
    # level-N vertex count = sum over curves of (orbit count of order-N pts)
    G = build_ssgraph(11, 3, 5)
    by_curve = {}
    for v in G.vertices:
        by_curve[v.curve_index] = by_curve.get(v.curve_index, 0) + 1
    # j = 0 has 6 automorphisms, j = 1728 has 4; 24 points of order 5
    counts = sorted(by_curve.values())
    assert counts == [4, 6]
    assert all(G.out_degree(v.id) == 4 for v in G.vertices)


def test_walk_char_poly_trivial_cases(g_11_3_1):
    G = g_11_3_1
    assert walk_char_poly(G, []) == WalkEndo(2, 1)
    # arrow followed by its exact dual label: the scalar ell
    for ar in G.arrows[:4]:
        e = backtrack_endo(G, ar.index)
        assert e.norm == 9
        assert e.trace * e.trace == 4 * e.norm


def test_walk_char_poly_length_two_bounds(g_11_3_1):
    G = g_11_3_1
    walks = closed_walks(G, 0, 2)
    for w in walks:
        if len(w) != 2:
            continue
        e = walk_char_poly(G, w)
        assert e.norm == 9
        assert e.trace * e.trace <= 4 * e.norm
        disc = e.trace ** 2 - 36
        assert disc == 0 or disc < 0


def test_walk_char_poly_rejects_open_walks(g_11_3_1):
    G = g_11_3_1
    ar = G.arrows[0]
    nxt = next(a for a in G.arrows if a.src == ar.dst and a.dst != ar.src)
    with pytest.raises(NotClosed):
        walk_char_poly(G, [ar.index, nxt.index])


def test_alpha_of_level():
    assert alpha_of_level(5, 1) == 1
    assert alpha_of_level(3, 5) == 4
    assert alpha_of_level(3, 4) == 2


def test_monoid_certificates_11_5_1(g_11_5_1):
    certs = monoid_certificates(g_11_5_1, budget=3)
    assert len(certs["odd_walk"]) % 2 == 1
    assert len(certs["odd_walk"]) in (1, 3)
    assert certs["alpha_check"]
    assert certs["noncommuting_pair"] is not None
    (w1, e1), (w2, e2) = certs["noncommuting_pair"]
    assert e1.squarefree_disc_kernel() != e2.squarefree_disc_kernel()


def test_monoid_certificates_alpha_reported_at_level_5():
    # closed walks fixing the marked point exist in every degree class mod N
    # (e.g. degree-3 loops fixing an order-5 point), so the congruence
    # ell^d = 1 mod N fails and the certificate reports it honestly
    G = build_ssgraph(11, 3, 5)
    assert alpha_of_level(3, 5) == 4
    certs = monoid_certificates(G, budget=4)
    assert certs["alpha_check"] is False
    # every reported walk still fixes the marked point exactly; the
    # violating loops are genuine endomorphisms of norm 3
    loops = [ar.index for ar in G.arrows if ar.src == ar.dst]
    assert loops
    for ai in loops:
        e = walk_char_poly(G, [ai])
        assert e.norm == 3


def test_closure_fixes_marked_point():
    G = build_ssgraph(11, 3, 5)
    walks = closed_walks(G, 0, 4)
    assert walks
    # walk_char_poly verifies the marked-point closure internally
    e = walk_char_poly(G, walks[0])
    assert e.norm == 3 ** len(walks[0])


def test_second_walk_trace_evaluates_no_point(monkeypatch):
    # one warm-up pass caches every arrow matrix the (11, 3, 5) walks need,
    # the matrices mod N of the marked-point closure included, so tracing
    # them again evaluates no isogeny and no chain
    import heckedyn.ssgraph
    G = build_ssgraph(11, 3, 5)
    walks = closed_walks(G, 0, 4)
    first = [walk_char_poly(G, w) for w in walks]

    def refuse(*args):
        raise AssertionError("a point was evaluated")
    monkeypatch.setattr(heckedyn.ssgraph, "chain_eval", refuse)
    monkeypatch.setattr(Isogeny, "__call__", refuse)
    assert [walk_char_poly(G, w) for w in walks] == first


def test_closure_catches_a_wrong_label():
    # negating the post-scalar of one arrow negates its matrix: the
    # determinant and the Weil bound still hold, but the walk now sends the
    # marked point P to -P
    G = build_ssgraph(11, 3, 5)
    w = [1, 29, 16]
    assert [G.arrows[ai].src for ai in w] == [0, 7, 4]
    assert G.arrows[w[-1]].dst == 0
    G.arrows[w[0]].post_scalar = -G.arrows[w[0]].post_scalar
    with pytest.raises(InvariantBreach):
        walk_char_poly(G, w)


def test_self_dual_loops_cross_checked_by_traces(g_13_5_1):
    G = g_13_5_1
    s = self_dual_loop_count(G)
    zero_traces = 0
    for ar in G.arrows:
        if ar.src == ar.dst and G.vertices[ar.src].aut_order == 2:
            if walk_char_poly(G, [ar.index]).trace == 0:
                zero_traces += 1
    assert s == zero_traces == 2


def test_graph_report_13_5_1(g_13_5_1):
    rep = graph_report(g_13_5_1)
    assert rep["connected"] and not rep["bipartite"]
    assert rep["girth"] == 1
    assert rep["self_dual_loops"] == 2
    assert rep["cycle_rank_ud"] == (6 + 2) // 2 - 1 + 1


def arrow_dual_kernel(G, ar):
    """Kernel polynomial (over F_{p^2}) of the dual arrow: the image of the
    source ell-torsion under the arrow's label, in target coordinates."""
    E = G.vertices[ar.src].curve
    E1 = G.vertices[ar.dst].curve
    ell = G.ell
    T1, T2 = torsion_basis(E, ell)
    big = T1.field
    u_big = embedding(E1.field, big)(ar.post_scalar)
    gen = None
    for T in (T1, T2, T1 + T2):
        img = scaled_point(ar.isogeny(T), u_big, E1)
        if not img.inf:
            gen = img
            break
    if gen is None:
        raise InvariantBreach("ell-torsion collapsed under a degree-ell map")
    emb = embedding(E1.field, big)
    from heckedyn.fields import Poly
    cur = gen
    coeffs = Poly(big, [1])
    for _ in range((ell - 1) // 2):
        coeffs = coeffs * Poly(big, [-cur.x, big.one()])
        cur = cur + gen
    return Poly(E1.field, [section(emb, c) for c in coeffs.coeffs])


@pytest.mark.parametrize("p,ell", [(p, ell) for p in (11, 13, 37, 61, 101, 131)
                                   for ell in (3, 5, 7)] + [(23, 11)])
def test_self_dual_loops_match_dual_kernel_reference(p, ell):
    # a loop is self-dual iff the kernel of its dual arrow is its own
    G = build_ssgraph(p, ell, 1)
    loops = [ar for ar in G.arrows if ar.src == ar.dst]
    verdicts = [_is_self_dual(G, ar.index) for ar in loops]
    assert verdicts == [arrow_dual_kernel(G, ar) == ar.kernel for ar in loops]
    assert graph_report(G)["self_dual_loops"] == sum(verdicts)


def test_dual_kernel_is_involutive(g_13_5_1):
    # involutivity of the arrow duality needs Aut = {+-1}, i.e. p = 1 mod 12
    G = g_13_5_1
    for ar in G.arrows[:6]:
        dk = arrow_dual_kernel(G, ar)
        back = next(a for a in G.arrows
                    if a.src == ar.dst and a.dst == ar.src and a.kernel == dk)
        assert arrow_dual_kernel(G, back) == ar.kernel


def test_sat_membership_examples():
    assert sat_membership(PadicNumber(11, 6, 1), 5)
    assert sat_membership(PadicNumber(11, 6, 5), 5)      # 5 = 4^2 mod 11
    assert not sat_membership(PadicNumber(11, 6, 2), 5)  # 2, 2/5 non-residues


def test_sat_membership_square_table():
    for p, ell in ((3, 2), (5, 3), (11, 5), (13, 5)):
        m = p ** 3
        squares = {x * x % m for x in range(m) if x % p}
        for u in range(1, m):
            if u % p == 0:
                continue
            expected = u in squares or (u * pow(ell, -1, m) % m) in squares
            assert sat_membership(PadicNumber(p, 3, u), ell) == expected


def test_deterministic_rebuild(g_11_5_1):
    G2 = build_ssgraph(11, 5, 1)
    from heckedyn.graphio import ssgraph_structure
    assert ssgraph_structure(G2) == ssgraph_structure(g_11_5_1)


def test_mass_formula():
    # independent oracle on curve enumeration and automorphism orders:
    # sum over curve classes of 1/#Aut equals (p-1)/24
    from fractions import Fraction
    for p in (11, 13, 23, 31, 37):
        G = build_ssgraph(p, 3, 1)
        mass = sum(Fraction(1, v.aut_order) for v in G.vertices)
        assert mass == Fraction(p - 1, 24), p


def test_arrow_count_symmetry(g_11_5_1, g_11_3_1):
    # arrows i->j and j->i are in the ratio #Aut(E_i) / #Aut(E_j)
    for G in (g_11_5_1, g_11_3_1):
        n = len(G.vertices)
        counts = Counter((ar.src, ar.dst) for ar in G.arrows)
        for i in range(n):
            for j in range(n):
                lhs = counts[i, j] * G.vertices[j].aut_order
                rhs = counts[j, i] * G.vertices[i].aut_order
                assert lhs == rhs


def test_level_one_stationary_is_aut_weighted():
    # consequence of the arrow symmetry: the stationary vector of the
    # level-one chain is proportional to 1/#Aut
    from fractions import Fraction
    from heckedyn.markov import normalize, stationary
    for (p, ell) in ((11, 5), (11, 3), (13, 5), (23, 3), (31, 3)):
        G = build_ssgraph(p, ell, 1)
        pi = stationary(normalize(G))
        weights = [Fraction(1, v.aut_order) for v in G.vertices]
        total = sum(weights)
        assert tuple(w / total for w in weights) == pi, (p, ell)


def _hand_graph(n, edges, N=5):
    """A bare SSGraph with n vertices and the given (src, dst) arrows."""
    vertices = [SSVertex(i, None, None, 1, i) for i in range(n)]
    arrows = [SSArrow(k, a, b, None, None, None, 1)
              for k, (a, b) in enumerate(edges)]
    return SSGraph(11, 3, N, vertices, arrows, [None] * n)


def test_graph_report_two_components():
    G = _hand_graph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    rep = graph_report(G)
    assert rep["connected"] is False
    assert rep["girth"] == 2


def test_graph_report_directed_two_cycle():
    rep = graph_report(_hand_graph(2, [(0, 1), (1, 0)]))
    assert rep["connected"] is True
    assert rep["bipartite"] is True
    assert rep["girth"] == 2
    assert rep["out_degrees"] == [1, 1] and rep["in_degrees"] == [1, 1]
    # a loop makes the period odd
    rep = graph_report(_hand_graph(2, [(0, 1), (1, 0), (1, 1)]))
    assert rep["connected"] is True
    assert rep["bipartite"] is False
    assert rep["girth"] == 1


def test_odd_closed_walk_matches_certificates(g_11_5_1):
    walk = odd_closed_walk(g_11_5_1, 0, 3)
    assert walk == monoid_certificates(g_11_5_1, budget=3)["odd_walk"]
    assert len(walk) % 2 == 1
    assert g_11_5_1.arrows[walk[0]].src == 0
    assert g_11_5_1.arrows[walk[-1]].dst == 0


def test_odd_closed_walk_budget_exhausted():
    from heckedyn.errors import BudgetExhausted
    with pytest.raises(BudgetExhausted):
        odd_closed_walk(_hand_graph(2, [(0, 1), (1, 0)]), 0, 4)


# -- walk traces from matrix traces against the relation search -------------

def reference_chain_trace(steps, E, ell, d, candidate_traces=None):
    """The relation search that ``curves.chain_trace`` used before its
    residues were matrix traces: t with phi^2 - t phi + ell^d = 0 on a
    basis of E[m]."""
    norm = ell ** d

    def residue(m):
        Q1, Q2 = torsion_basis(E, m)
        w1, w2 = chain_eval(steps, Q1), chain_eval(steps, Q2)
        ww1, ww2 = chain_eval(steps, w1), chain_eval(steps, w2)
        lhs1 = ww1 + (norm % m) * Q1
        lhs2 = ww2 + (norm % m) * Q2
        acc1 = E.infinity(Q1.field)
        acc2 = E.infinity(Q2.field)
        for t in range(m):
            if acc1 == lhs1 and acc2 == lhs2:
                return t
            acc1 = acc1 + w1
            acc2 = acc2 + w2
        raise InvariantBreach("no trace residue mod %d satisfies the relation" % m)

    return trace_from_residues(E, ell, d, residue, candidate_traces)


def _reference_trace(G, w):
    E = G.vertices[G.arrows[w[0]].src].curve
    return reference_chain_trace(_walk_steps(G, w), E, G.ell, len(w))


@pytest.mark.parametrize("case", ["11_3_1", "11_5_1", "13_5_1", "11_3_5"])
def test_matrix_traces_equal_chain_trace(case, g_11_3_1, g_11_5_1, g_13_5_1):
    # every walk the other tests trace: (11, 3, 1) up to length 4 from both
    # bases, (11, 5, 1) up to length 3, the (13, 5, 1) loops, and the
    # level-5 walks at (11, 3, 5), whose closure checks cache every arrow's
    # matrix mod 5
    if case == "11_3_1":
        G = g_11_3_1
        walks = closed_walks(G, 0, 4) + closed_walks(G, 1, 4)
    elif case == "11_5_1":
        G = g_11_5_1
        walks = closed_walks(G, 0, 3)
    elif case == "13_5_1":
        G = g_13_5_1
        walks = [[ar.index] for ar in G.arrows if ar.src == ar.dst]
    else:
        G = build_ssgraph(11, 3, 5)
        walks = closed_walks(G, 0, 4)
    assert walks
    for w in walks:
        e = walk_char_poly(G, w)
        assert e.trace == _reference_trace(G, w), w
        assert e.norm == G.ell ** len(w)
    if G.N > 1:
        assert {(ai, 5) for w in walks for ai in w} <= set(G.arrow_matrices)


@pytest.mark.parametrize("p,j0,ell", [(41, 12, 3), (11, 2, 2)])
def test_volcano_traces_equal_relation_search(p, j0, ell):
    # every closed walk of length <= 3 in the empirical volcano; the
    # reference chain ends on the F_p curve, which the search never reads
    from heckedyn.volcano import build_empirical, walk_endo_empirical
    vol = build_empirical(p, j0, ell)
    walks = []
    stack = [[a.index] for a in vol.arrows]
    while stack:
        w = stack.pop()
        end = vol.arrows[w[-1]].dst
        if end == vol.arrows[w[0]].src:
            walks.append(w)
        if len(w) < 3:
            stack += [w + [a.index] for a in vol.arrows if a.src == end]
    assert len(walks) >= 8
    for w in walks:
        t, n = walk_endo_empirical(vol, w)
        steps = []
        for ai in w:
            ar = vol.arrows[ai]
            steps += [ar.isogeny, (vol.curves[ar.dst], ar.post_scalar)]
        # the F_{p^2} model of the base vertex that the walk traced on
        E2 = vol.f2_models[vol.arrows[w[0]].src]
        assert t == reference_chain_trace(steps, E2, ell, len(w)), w
        assert n == ell ** len(w)


def test_walk_char_poly_runs_no_chain_trace(g_11_5_1, monkeypatch):
    import heckedyn.curves
    import heckedyn.ssgraph

    def refuse(*args, **kwargs):
        raise AssertionError("chain_trace called")
    monkeypatch.setattr(heckedyn.curves, "chain_trace", refuse)
    # ssgraph does not bind the name, so it can only reach it through curves
    assert not hasattr(heckedyn.ssgraph, "chain_trace")
    for w in closed_walks(g_11_5_1, 0, 2):
        walk_char_poly(g_11_5_1, w)


def test_arrow_matrix_determinant_oracle():
    G = build_ssgraph(11, 3, 1)
    w = closed_walks(G, 0, 1)[0]
    walk_char_poly(G, w)
    (ai, m), (a, b, c, d) = next(iter(G.arrow_matrices.items()))
    # scaling one column by 2 doubles the determinant mod m
    G.arrow_matrices[(ai, m)] = (2 * a % m, b, 2 * c % m, d)
    with pytest.raises(InvariantBreach):
        walk_char_poly(G, w)


def test_torsion_coordinates_round_trip(g_11_5_1):
    E = g_11_5_1.vertices[1].curve
    for m in (7, 19):
        Q1, Q2 = torsion_basis(E, m)
        for a, b in ((0, 0), (1, 0), (0, 1), (3, 5), (m - 1, m - 2)):
            assert torsion_coordinates(a * Q1 + b * Q2, m) == (a, b)


def reference_torsion_coordinates(R, m):
    """(a, b) with R = a Q1 + b Q2 on the basis (Q1, Q2) = torsion_basis(E, m)
    of R's curve: baby steps in <Q2>, a table of m points cached per curve,
    and giant steps R - a Q1."""
    E = R.curve
    Q1, Q2 = torsion_basis(E, m)
    table = E._torsion_cache.get(("baby", m))
    if table is None:
        table = {}
        S = E.infinity(Q2.field)
        for b in range(m):
            table[S.key()] = b
            S = S + Q2
        E._torsion_cache[("baby", m)] = table
    S = R
    for a in range(m):
        b = table.get(S.key())
        if b is not None:
            return a, b
        S = S - Q1
    raise InvariantBreach("point is not in E[%d]" % m)


def _volcano_base_f2_model():
    # the F_{p^2} model that walk_endo_empirical builds for vertex 0 of the
    # (41, 12, 3) volcano
    from heckedyn.curves import Curve
    from heckedyn.fields import make_field
    from heckedyn.volcano import build_empirical
    E = build_empirical(41, 12, 3).curves[0]
    F2 = make_field(41, 2)
    emb = embedding(E.field, F2)
    return Curve(F2, emb(E.a), emb(E.b))


def test_torsion_coordinates_match_baby_step_giant_step():
    cases = [(E, m) for E in sorted({*build_ssgraph(11, 5, 1).curves,
                                      *build_ssgraph(11, 3, 13).curves},
                                     key=lambda E: E.key())
             for m in (3, 5, 7, 13, 19)]
    cases.append((_volcano_base_f2_model(), 7))
    for E, m in cases:
        Q1, Q2 = torsion_basis(E, m)
        grid = {}
        for a in range(m):
            for b in range(m):
                grid[(a, b)] = a * Q1 + b * Q2
        for ab, R in grid.items():
            assert torsion_coordinates(R, m) == ab
            assert reference_torsion_coordinates(R, m) == ab


def test_torsion_coordinates_reject_points_outside_e_m():
    # E[7] and E[19] of a canonical model at p = 11 both lie over F_{11^6},
    # and they meet only in O
    E = build_ssgraph(11, 5, 1).curves[0]
    P = all_points_of_order(E, 19)[0]
    assert P.field is torsion_basis(E, 7)[0].field
    assert P.field.k == 6
    for coordinates in (torsion_coordinates, reference_torsion_coordinates):
        with pytest.raises(InvariantBreach, match="not in E\\[7\\]"):
            coordinates(P, 7)


@pytest.mark.parametrize("p,ell", [(37, 3), (61, 5), (101, 3), (47, 7)])
def test_ramanujan_bound_level_one(p, ell):
    # the arrow-count matrix at N = 1 is the Brandt matrix B(ell): one
    # eigenvalue ell + 1, every other |lambda| <= 2 sqrt(ell)
    import numpy as np
    G = build_ssgraph(p, ell, 1)
    n = len(G.vertices)
    A = np.zeros((n, n))
    for ar in G.arrows:
        A[ar.src, ar.dst] += 1
    lams = sorted(np.linalg.eigvals(A), key=lambda z: -abs(z))
    assert abs(lams[0] - (ell + 1)) < 1e-9
    assert all(abs(z) <= 2 * ell ** 0.5 + 1e-9 for z in lams[1:]), lams


def _hurwitz_p(n, p):
    """Sum over f^2 | n of h_w(-n / f^2) (1 - (d0/p)) / 2, with
    h_w = h / (w/2), d0 the fundamental discriminant of -n / f^2 and no
    term for an order whose conductor p divides; H_p(0) = (p - 1) / 24,
    the mass.  The class-number term of the trace formula for the Brandt
    matrices (Gross 1987, section 1)."""
    if n == 0:
        return Fraction(p - 1, 24)
    total = Fraction(0)
    f = 1
    while f * f <= n:
        d = -(n // (f * f))
        if n % (f * f) == 0 and d % 4 in (0, 1):
            d0, conductor = fundamental_discriminant(d)
            if conductor % p:
                h_w = Fraction(class_number(d), {-3: 3, -4: 2}.get(d, 1))
                total += h_w * (1 - kronecker(d0, p)) / 2
        f += 1
    return total


@pytest.mark.parametrize("ell", [3, 5, 7])
@pytest.mark.parametrize("p", [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                               59, 61, 101, 103])
def test_loop_count_matches_trace_formula(p, ell):
    # the arrow counts at N = 1 are the Brandt matrix A = B(ell), whose
    # loops are its trace; the Hecke recursion B(ell^(d+1)) =
    # A B(ell^d) - ell B(ell^(d-1)) gives B(ell^d), whose trace has one term
    # H_p(4 ell^d - s^2) for each trace s of an endomorphism of degree ell^d
    G = build_ssgraph(p, ell, 1)
    n = len(G.vertices)
    A = [[0] * n for _ in range(n)]
    for ar in G.arrows:
        A[ar.src][ar.dst] += 1
    B, prev = A, [[int(i == j) for j in range(n)] for i in range(n)]
    for d in range(1, 5):
        m = ell ** d
        formula = sum((1 if s == 0 else 2) * _hurwitz_p(4 * m - s * s, p)
                      for s in range(math.isqrt(4 * m) + 1))
        assert sum(B[i][i] for i in range(n)) == formula, d
        B, prev = [[sum(A[i][k] * B[k][j] for k in range(n))
                    - ell * prev[i][j] for j in range(n)]
                   for i in range(n)], B


# -- level structure from matrices against the point-matching builder -------

def reference_level_graph(curves, ell, N):
    """The vertex and arrow construction of ``build_ssgraph`` before level
    structure was read as matrices: every orbit and every arrow target is
    found by matching points in F_{p^(2r)}."""
    Fp2 = curves[0].field
    # vertex set: one per Aut-orbit of exact order-N points
    vertices = []
    point_index = {}
    for ci, E in enumerate(curves):
        auts = automorphism_scalars(E)
        if N == 1:
            v = SSVertex(len(vertices), E, E.infinity(), len(auts), ci)
            vertices.append(v)
            point_index[(ci, (-1, -1))] = v.id
            continue
        pts = all_points_of_order(E, N)
        big = pts[0].field
        emb = embedding(Fp2, big)
        auts_big = [emb(u) for u in auts]
        assigned = {}
        for P in pts:
            if P.key() in assigned:
                continue
            orbit = []
            for u in auts_big:
                img = scaled_point(P, u, E)
                if img.key() not in assigned:
                    orbit.append(img)
                    assigned[img.key()] = True
            rep = min(orbit, key=lambda Q: Q.key())
            stab = len(auts) // len({Q.key() for Q in orbit})
            v = SSVertex(len(vertices), E, rep, stab, ci)
            vertices.append(v)
            for Q in orbit:
                point_index[(ci, Q.key())] = v.id

    curve_index = {E.key(): i for i, E in enumerate(curves)}

    # arrows: one per cyclic subgroup of each source vertex
    arrows = []
    iso_cache = {}
    for v in vertices:
        E = v.curve
        for h in ell_subgroups(E, ell):
            cache_key = (v.curve_index, h.key())
            got = iso_cache.get(cache_key)
            if got is None:
                phi = velu(E, h)
                E1 = canonical_ss_model(j_invariant(phi.target))
                ci2 = curve_index[E1.key()]
                us = iso_scalars(phi.target, E1)
                if not us:
                    raise InvariantBreach("quotient not isomorphic to a representative")
                u0 = us[0]
                got = (phi, E1, ci2, u0)
                iso_cache[cache_key] = got
            phi, E1, ci2, u0 = got
            if N == 1:
                dst = point_index[(ci2, (-1, -1))]
                post = u0
                orbit = vertices[dst].aut_order
            else:
                P1 = scaled_point(phi(v.point), u0, E1)
                # adjust by an automorphism of E1 so the image is the stored
                # representative; the composite is then a genuine label
                big = P1.field
                dst = None
                post = None
                for w in automorphism_scalars(E1):
                    w_big = embedding(Fp2, big)(w)
                    Q = scaled_point(P1, w_big, E1)
                    vid = point_index.get((ci2, Q.key()))
                    if vid is not None and vertices[vid].point.key() == Q.key():
                        dst = vid
                        post = u0 * w
                        break
                if dst is None:
                    raise InvariantBreach("image point matches no representative")
                orbit = vertices[dst].aut_order
            arrows.append(SSArrow(len(arrows), v.id, dst, h, phi, post, orbit))
    return vertices, arrows


@pytest.mark.parametrize("p,ell,N", [(11, 3, 1), (11, 5, 2), (11, 3, 4),
                                     (11, 3, 5), (13, 3, 5), (13, 5, 4),
                                     (11, 3, 13)])
def test_level_structure_matches_point_matching(p, ell, N):
    G = build_ssgraph(p, ell, N)
    vertices, arrows = reference_level_graph(G.curves, ell, N)
    assert ([(v.point.key(), v.aut_order, v.curve_index) for v in G.vertices]
            == [(v.point.key(), v.aut_order, v.curve_index) for v in vertices])
    assert ([(ar.src, ar.dst, ar.post_scalar.enc()) for ar in G.arrows]
            == [(ar.src, ar.dst, ar.post_scalar.enc()) for ar in arrows])


@pytest.mark.parametrize("p,ell,N", [(11, 3, 13), (11, 5, 2), (11, 5, 1),
                                     (13, 3, 1)])
def test_isogeny_evaluations_per_build(p, ell, N, monkeypatch):
    # two evaluations per (curve, kernel) read the matrix of the arrow on
    # E[N]; at N = 1 the matrix is zero and no point is evaluated
    calls = []
    call = Isogeny.__call__

    def counting(self, P):
        calls.append(P)
        return call(self, P)

    monkeypatch.setattr(Isogeny, "__call__", counting)
    G = build_ssgraph(p, ell, N)
    assert len(calls) == (2 * (ell + 1) * len(G.curves) if N > 1 else 0)


@pytest.mark.parametrize("p,ell,N", [(11, 3, 1), (47, 3, 1), (13, 7, 1),
                                     (11, 3, 13)])
def test_one_isogeny_per_curve_and_kernel(p, ell, N, monkeypatch):
    import heckedyn.ssgraph as ssgraph_module
    calls = []
    make = ssgraph_module.velu

    def counting(E, kernel):
        calls.append((E.key(), kernel.key()))
        return make(E, kernel)

    monkeypatch.setattr(ssgraph_module, "velu", counting)
    G = build_ssgraph(p, ell, N)
    assert len(calls) == (ell + 1) * len(G.curves)
    assert len(set(calls)) == len(calls)
