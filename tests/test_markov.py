import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from heckedyn import markov
from heckedyn.cli import main
from heckedyn.errors import (Bipartite, DepthTooSmall, NotClosed,
                             NotOutRegular, NotStationary, Reducible,
                             UsageError)
from heckedyn.graphio import (Arrow, Vertex, dump_json, load_ssgraph,
                              ssgraph_to_dict)
from heckedyn.markov import (_targets, closed_walk_start,
                             is_strongly_connected, mixing_report, normalize,
                             out_period, stationary, tv_distance,
                             volcano_escape)
from heckedyn.ssgraph import build_ssgraph
from heckedyn.volcano import build_synthetic

GRAPHS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "graphs")


def _graph(ell, n, edges, aut=None):
    """A bare graph object: ell, n vertices with automorphism counts aut
    (all 1 by default) and (src, dst) arrows."""
    aut = aut or [1] * n
    return SimpleNamespace(ell=ell,
                           vertices=[Vertex(i, None, None, aut[i])
                                     for i in range(n)],
                           arrows=[Arrow(a, b, None, 1) for a, b in edges])


def is_irreducible(chain):
    return is_strongly_connected(_targets(chain[1]))


def period(chain):
    """gcd of cycle lengths of an irreducible chain."""
    return out_period(_targets(chain[1]))


def _dense(chain):
    """The transition matrix of the chain (D, out, aut) as Fractions."""
    D, out, _ = chain
    T = [[Fraction(0)] * len(out) for _ in out]
    for i, arrows in enumerate(out):
        for j, w in arrows:
            T[i][j] += Fraction(w, D)
    return T


def test_closed_walk_start():
    # arrows 0 -> 1, 1 -> 0, 1 -> 2, 2 -> 2
    arrows = _graph(3, 3, [(0, 1), (1, 0), (1, 2), (2, 2)]).arrows
    assert closed_walk_start(arrows, [0, 1]) == 0
    assert closed_walk_start(arrows, [3, 3]) == 2
    with pytest.raises(NotClosed, match="does not continue"):
        closed_walk_start(arrows, [0, 3, 1])
    with pytest.raises(NotClosed, match="does not return"):
        closed_walk_start(arrows, [0, 2])


def test_normalize_reference_matrix(g_11_5_1):
    D, out, aut = normalize(g_11_5_1)
    assert D == 6
    assert aut == [v.aut_order for v in g_11_5_1.vertices]
    assert sorted(aut) == [4, 6]
    # the transition matrix is (1/6)[[3,3],[2,4]] up to labeling
    rows = sorted(sorted(w for _, w in arrows) for arrows in out)
    assert rows == [[2, 4], [3, 3]]
    for arrows in out:
        assert [j for j, _ in arrows] == [0, 1]


def test_normalize_single_vertex(g_13_5_1):
    assert normalize(g_13_5_1) == (6, [[(0, 6)]],
                                    [g_13_5_1.vertices[0].aut_order])


def test_normalize_merges_parallel_arrows_in_target_order():
    G = _graph(2, 2, [(0, 1), (0, 0), (0, 1), (1, 1), (1, 0), (1, 1)], [2, 1])
    assert normalize(G) == (3, [[(0, 1), (1, 2)], [(0, 1), (1, 2)]], [2, 1])


def test_normalize_rejects_irregular():
    G = _graph(1, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 1)])
    with pytest.raises(NotOutRegular):
        normalize(G)


def test_stationary_reference_value(g_11_5_1):
    D, out, _ = chain = normalize(g_11_5_1)
    pi = stationary(chain)
    assert set(pi) == {Fraction(2, 5), Fraction(3, 5)}
    # exact fixed point
    step = [Fraction(0)] * 2
    for i, arrows in enumerate(out):
        for j, w in arrows:
            step[j] += pi[i] * Fraction(w, D)
    assert tuple(step) == pi


def test_stationary_uniform_for_bistochastic(g_11_3_4):
    D, out, _ = chain = normalize(g_11_3_4)
    n = len(out)
    # rigid: column sums are 1 as well
    col = [0] * n
    for arrows in out:
        for j, w in arrows:
            col[j] += w
    assert col == [D] * n
    assert stationary(chain) == tuple([Fraction(1, n)] * n)


def test_stationary_periodic_two_cycle():
    chain = (1, [[(1, 1)], [(0, 1)]], [1, 1])
    assert stationary(chain) == (Fraction(1, 2), Fraction(1, 2))
    assert period(chain) == 2
    with pytest.raises(Bipartite):
        mixing_report(chain, 0.1)


def test_stationary_rejects_reducible():
    chain = (1, [[(0, 1)], [(1, 1)]], [1, 1])
    with pytest.raises(Reducible):
        stationary(chain)
    assert not is_irreducible(chain)


def test_mixing_second_eigenvalue(g_11_5_1):
    T = normalize(g_11_5_1)
    rep = mixing_report(T, 1e-3)
    # hand oracle: trace 7/6 and det 1/6 give eigenvalues 1 and 1/6
    assert abs(rep["second_eigenvalue_modulus"] - 1 / 6) < 1e-10
    assert rep["steps_to_eps"] is not None
    tv = rep["tv_series"]
    assert all(tv[i + 1] <= tv[i] for i in range(len(tv) - 1))


def test_mixing_single_vertex(g_13_5_1):
    rep = mixing_report(normalize(g_13_5_1), 0.5)
    assert rep["second_eigenvalue_modulus"] == 0.0
    assert rep["steps_to_eps"] == 1


def test_volcano_escape_start():
    V = build_synthetic(-11, 2, 10)
    out = volcano_escape(V, 0, 0)
    assert out["distribution"][0] == 1


def test_volcano_escape_inert_exact_decay():
    # inert rim at ell = 2: downward bias 2/3; exact convolution
    V = build_synthetic(-11, 2, 60)
    out = volcano_escape(V, 0, 44)
    mass2 = [m for (l, m) in out["mass_within"] if l == 2][0]
    assert mass2 < Fraction(1, 100)
    assert sum(out["distribution"]) == 1
    # oracle: independent matrix powering of the truncated level chain
    n = 50
    P = [[0.0] * n for _ in range(n)]
    P[0][0] = 0.0
    P[0][1] = 1.0
    for i in range(1, n - 1):
        P[i][i - 1] = 1 / 3
        P[i][i + 1] = 2 / 3
    vec = [0.0] * n
    vec[0] = 1.0
    for _ in range(44):
        vec = [sum(vec[i] * P[i][j] for i in range(n)) for j in range(n)]
    assert abs(sum(vec[:3]) - float(mass2)) < 1e-9


def test_volcano_escape_split_monotone_even_steps():
    V = build_synthetic(-15, 2, 40)
    prev = None
    for n in range(6, 31, 2):
        out = volcano_escape(V, 0, n)
        rim_mass = out["distribution"][0]
        if prev is not None:
            assert rim_mass <= prev
        prev = rim_mass


def test_volcano_escape_depth_guard():
    V = build_synthetic(-11, 2, 5)
    with pytest.raises(DepthTooSmall):
        volcano_escape(V, 0, 10)


def test_bfs_dist_from_two_sources():
    # path 0 - 1 - 2 - 3 - 4 plus an arc 4 -> 5; 6 is unreachable
    out = [[1], [0, 2], [1, 3], [2, 4], [3, 5], [], []]
    assert markov._bfs_dist(out, [0]) == [0, 1, 2, 3, 4, 5, None]
    assert markov._bfs_dist(out, [0, 4]) == [0, 1, 2, 1, 0, 1, None]


def test_tv_distance():
    a = (Fraction(1, 2), Fraction(1, 2))
    b = (Fraction(1), Fraction(0))
    assert tv_distance(a, b) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# dense Fraction reference: the algorithms the integer kernels replaced

def _ref_solve(rows, rhs):
    n = len(rows)
    A = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [A[i][n] for i in range(n)]


def _ref_stationary(T):
    n = len(T)
    rows = [[T[i][j] - (1 if i == j else 0) for i in range(n)]
            for j in range(n - 1)]
    rows.append([Fraction(1)] * n)
    pi = _ref_solve(rows, [Fraction(0)] * (n - 1) + [Fraction(1)])
    assert all(sum(pi[i] * T[i][j] for i in range(n)) == pi[j]
               for j in range(n))
    return tuple(pi)


def _ref_mixing(T, eps, max_steps=10000):
    n = len(T)
    pi = _ref_stationary(T)
    dists = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    tv_series = []
    for step in range(1, max_steps + 1):
        dists = [[sum(row[i] * T[i][j] for i in range(n)) for j in range(n)]
                 for row in dists]
        worst = max(sum(abs(x - y) for x, y in zip(row, pi)) / 2
                    for row in dists)
        tv_series.append(worst)
        if worst < Fraction(eps).limit_denominator(10 ** 12):
            return step, tv_series
    return None, tv_series


def _ref_escape(ell, kron, start_level, n):
    size = start_level + n + 2
    dist = [Fraction(0)] * size
    dist[start_level] = Fraction(1)
    for _ in range(n):
        nxt = [Fraction(0)] * size
        for lvl, mass in enumerate(dist):
            if mass == 0:
                continue
            if lvl == 0:
                nxt[0] += mass * Fraction(1 + kron, ell + 1)
                nxt[1] += mass * Fraction(ell - kron, ell + 1)
            else:
                nxt[lvl - 1] += mass * Fraction(1, ell + 1)
                nxt[lvl + 1] += mass * Fraction(ell, ell + 1)
        dist = nxt
    return dist


# the matrix [[0, 1/2, 1/2], [1/3, 0, 2/3], [1/2, 1/4, 1/4]]: aperiodic
# (T[2][2] > 0), not doubly stochastic (column 0 sums to 5/6) and not
# reversible (0->1->2->0 has weight 1/6, its reverse 1/24)
_CHAIN3 = (12, [[(1, 6), (2, 6)], [(0, 4), (2, 8)], [(0, 6), (1, 3), (2, 3)]],
           [1, 1, 1])
# the same matrix with automorphism counts 210/(7, 6, 10): its law
# (7, 6, 10)/23 is proportional to 1/aut, so the weights certify it
_CHAIN3_WEIGHTED = (_CHAIN3[0], _CHAIN3[1], [30, 35, 21])


@pytest.mark.parametrize("name", ["g_11_5_1", "g_11_3_1", "g_11_3_4", "chain3"])
def test_exact_kernels_match_dense_reference(name, request):
    chain = (_CHAIN3_WEIGHTED if name == "chain3"
             else normalize(request.getfixturevalue(name)))
    T = _dense(chain)
    pi = _ref_stationary(T)
    assert stationary(chain) == pi
    rep = mixing_report(chain, 1e-3)
    steps, tv = _ref_mixing(T, 1e-3)
    assert rep["stationary"] == pi
    assert rep["tv_series"] == tv
    assert rep["steps_to_eps"] == steps


def _ref_irreducible_period(T):
    """Irreducibility and period from powers of the dense matrix: every
    state reaches every other in at most n - 1 steps, and since every simple
    cycle has length <= n the period is the gcd of the k <= n with a
    positive diagonal entry in T^k."""
    n = len(T)
    P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    reach = [row[:] for row in P]
    g = 0
    for k in range(1, n + 1):
        P = [[sum(row[m] * T[m][j] for m in range(n)) for j in range(n)]
             for row in P]
        reach = [[x + y for x, y in zip(r, q)] for r, q in zip(reach, P)]
        if any(P[i][i] for i in range(n)):
            g = math.gcd(g, k)
    return all(x > 0 for row in reach for x in row), g


def _check_against_dense(G):
    """stationary and mixing_report of the chain of G against the dense
    references.  Returns whether the dense stationary vector is uniform
    (the weights of G are all 1), None for a reducible chain."""
    chain = normalize(G)
    T = _dense(chain)
    irreducible, per = _ref_irreducible_period(T)
    if not irreducible:
        with pytest.raises(Reducible):
            stationary(chain)
        with pytest.raises(Reducible):
            mixing_report(chain, 0.05)
        return None
    pi = _ref_stationary(T)
    if pi != tuple([Fraction(1, len(T))] * len(T)):
        with pytest.raises(NotStationary):
            stationary(chain)
        return False
    assert stationary(chain) == pi
    if per % 2 == 0:
        with pytest.raises(Bipartite):
            mixing_report(chain, 0.05)
        return True
    rep = mixing_report(chain, 0.05, max_steps=60)
    steps, tv = _ref_mixing(T, 0.05, max_steps=60)
    assert rep["stationary"] == pi
    assert rep["tv_series"] == tv
    assert rep["steps_to_eps"] == steps
    return True


def test_chain_kernels_match_dense_reference_on_random_multigraphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def out_regular(draw):
        """n <= 6 vertices, D <= 5 arrows out of each, loops and parallel
        arrows allowed."""
        n = draw(st.integers(1, 6))
        D = draw(st.integers(1, 5))
        targets = draw(st.lists(st.integers(0, n - 1), min_size=n * D,
                                max_size=n * D))
        return _graph(D - 1, n, [(k // D, t) for k, t in enumerate(targets)])

    @hypothesis.given(out_regular())
    def check(G):
        _check_against_dense(G)

    check()


def test_chain_kernels_match_dense_reference_on_permutation_unions():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def permutation_union(draw):
        """The arrows i -> s(i) of D <= 5 permutations s of n <= 6
        vertices: in- and out-degree D, so T is doubly stochastic."""
        n = draw(st.integers(1, 6))
        D = draw(st.integers(1, 5))
        perms = [draw(st.permutations(range(n))) for _ in range(D)]
        return _graph(D - 1, n, [(i, s[i]) for s in perms for i in range(n)])

    @hypothesis.given(permutation_union())
    def check(G):
        assert _check_against_dense(G) is not False

    check()


def test_loading_builds_no_curve(monkeypatch):
    want = stationary(normalize(build_ssgraph(11, 3, 13)))

    def refuse(j):
        raise AssertionError("canonical_ss_model called")

    for name, module in list(sys.modules.items()):
        if (name.startswith("heckedyn")
                and hasattr(module, "canonical_ss_model")):
            monkeypatch.setattr(module, "canonical_ss_model", refuse)
    L = load_ssgraph(os.path.join(GRAPHS, "ssgraph_11_3_13.json"))
    assert stationary(normalize(L)) == want


def test_non_stationary_weights_are_rejected():
    # by hand: 7 = 6/3 + 10/2, 6 = 7/2 + 10/4, 10 = 7/2 + 2*6/3 + 10/4
    assert _ref_stationary(_dense(_CHAIN3)) == (
        Fraction(7, 23), Fraction(6, 23), Fraction(10, 23))
    # column 0 of D T sums to 10, not D = 12
    with pytest.raises(NotStationary, match="at vertex 0, a .D T. = 10 "
                       "but D a = 12"):
        stationary(_CHAIN3)
    with pytest.raises(NotStationary):
        mixing_report(_CHAIN3, 1e-3)


@pytest.mark.parametrize("p,ell,N", [(11, 5, 1), (11, 3, 1), (11, 3, 2),
                                     (11, 5, 2), (23, 11, 1)])
def test_brandt_graphs_match_dense_reference(p, ell, N):
    G = build_ssgraph(p, ell, N)
    chain = normalize(G)
    pi = stationary(chain)
    assert pi == _ref_stationary(_dense(chain))
    assert len(set(chain[2])) > 1 and len(set(pi)) > 1
    if N == 1:
        # Eichler's mass formula: sum 1/aut_v = (p - 1)/24
        assert pi == tuple(Fraction(24, (p - 1) * v.aut_order)
                           for v in G.vertices)


def test_markov_cli_rejects_swapped_aut(tmp_path, capsys):
    d = ssgraph_to_dict(build_ssgraph(11, 5, 1))
    vs = d["vertices"]
    assert vs[0]["aut"] != vs[1]["aut"]
    vs[0]["aut"], vs[1]["aut"] = vs[1]["aut"], vs[0]["aut"]
    path = str(tmp_path / "swapped.json")
    dump_json(d, path)
    assert main(["markov", "--graph", path, "--stationary"]) == 1
    err = capsys.readouterr().err
    assert "not stationary: at vertex 0" in err and "Traceback" not in err


@pytest.mark.parametrize("ell,discs", [(2, (-23, -11, -20)), (3, (-11, -7, -15))])
def test_volcano_escape_matches_dense_reference(ell, discs):
    krons = set()
    for disc in discs:
        V = build_synthetic(disc, ell, 43)
        krons.add(V.kron)
        for start in (0, 1, 2):
            for n in range(41):
                out = volcano_escape(V, start, n)
                ref = _ref_escape(ell, V.kron, start, n)
                assert out["distribution"] == ref, (disc, start, n)
                cum = [sum(ref[:lvl + 1]) for lvl in range(len(ref))]
                assert out["mass_within"] == list(enumerate(cum))
    assert krons == {-1, 0, 1}


@pytest.mark.parametrize("start,n", [(-1, 5), (0, -1), (0, -2), (3, -5)])
def test_volcano_escape_rejects_negative(start, n):
    with pytest.raises(UsageError):
        volcano_escape(build_synthetic(-11, 2, 10), start, n)


def test_negative_entries_rejected():
    chain = (1, [[(0, 2), (1, -1)], [(0, 1)]], [1, 1])
    with pytest.raises(UsageError):
        stationary(chain)
    with pytest.raises(UsageError, match="not positive"):
        stationary((1, [[(1, 1)], [(0, 1)]], [1, 0]))


@pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf", "1", "4e-13", "5e-13"])
def test_markov_cli_rejects_bad_mixing(eps, capsys):
    # checked before the graph is read, so the missing file is never opened
    code = main(["markov", "--graph", "no-such-graph.json", "--mixing", eps])
    assert code == 1
    assert "--mixing must be in (0, 1)" in capsys.readouterr().err
