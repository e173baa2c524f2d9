from fractions import Fraction

import pytest

from heckedyn import markov
from heckedyn.cli import main
from heckedyn.errors import (Bipartite, DepthTooSmall, NotOutRegular,
                             Reducible, UsageError)
from heckedyn.markov import (is_irreducible, mixing_report, normalize, period,
                             stationary, tv_distance, volcano_escape)
from heckedyn.volcano import build_synthetic


def test_normalize_reference_matrix(g_11_5_1):
    T = normalize(g_11_5_1)
    rows = sorted(sorted(row) for row in T)
    assert rows == [[Fraction(1, 3), Fraction(2, 3)],
                    [Fraction(1, 2), Fraction(1, 2)]]
    for row in T:
        assert sum(row) == 1


def test_normalize_single_vertex(g_13_5_1):
    assert normalize(g_13_5_1) == [[Fraction(1)]]


def test_normalize_rejects_irregular():
    class Fake:
        adjacency = [[1, 1], [1, 2]]
        ell = 2

    with pytest.raises(NotOutRegular):
        normalize(Fake())


def test_stationary_reference_value(g_11_5_1):
    T = normalize(g_11_5_1)
    pi = stationary(T)
    assert set(pi) == {Fraction(2, 5), Fraction(3, 5)}
    # exact fixed point
    for j in range(2):
        assert sum(pi[i] * T[i][j] for i in range(2)) == pi[j]


def test_stationary_uniform_for_bistochastic(g_11_3_4):
    T = normalize(g_11_3_4)
    n = len(T)
    # rigid: column sums are 1 as well
    for j in range(n):
        assert sum(T[i][j] for i in range(n)) == 1
    assert stationary(T) == tuple([Fraction(1, n)] * n)


def test_stationary_periodic_two_cycle():
    T = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert stationary(T) == (Fraction(1, 2), Fraction(1, 2))
    assert period(T) == 2
    with pytest.raises(Bipartite):
        mixing_report(T, 0.1)


def test_stationary_rejects_reducible():
    T = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    with pytest.raises(Reducible):
        stationary(T)
    assert not is_irreducible(T)


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


# aperiodic (T[2][2] > 0), not doubly stochastic (column 0 sums to 5/6) and
# not reversible (0->1->2->0 has weight 1/6, its reverse 1/24)
_CHAIN3 = [[Fraction(0), Fraction(1, 2), Fraction(1, 2)],
           [Fraction(1, 3), Fraction(0), Fraction(2, 3)],
           [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]]


@pytest.mark.parametrize("name", ["g_11_5_1", "g_11_3_1", "g_11_3_4", "chain3"])
def test_exact_kernels_match_dense_reference(name, request):
    T = _CHAIN3 if name == "chain3" else normalize(request.getfixturevalue(name))
    pi = _ref_stationary(T)
    assert stationary(T) == pi
    rep = mixing_report(T, 1e-3)
    steps, tv = _ref_mixing(T, 1e-3)
    assert rep["stationary"] == pi
    assert rep["tv_series"] == tv
    assert rep["steps_to_eps"] == steps


def test_non_reversible_chain_uses_elimination(monkeypatch):
    calls = []
    real = markov._solve_exact

    def spy(rows, rhs):
        calls.append(len(rows))
        return real(rows, rhs)

    monkeypatch.setattr(markov, "_solve_exact", spy)
    # by hand: 7 = 6/3 + 10/2, 6 = 7/2 + 10/4, 10 = 7/2 + 2*6/3 + 10/4
    assert stationary(_CHAIN3) == (Fraction(7, 23), Fraction(6, 23),
                                   Fraction(10, 23))
    assert calls == [3]


def test_level_graphs_never_eliminate(monkeypatch, g_11_3_4):
    def refuse(rows, rhs):
        raise AssertionError("elimination reached")

    monkeypatch.setattr(markov, "_solve_exact", refuse)
    n = len(g_11_3_4.adjacency)
    assert stationary(normalize(g_11_3_4)) == tuple([Fraction(1, n)] * n)


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
    T = [[Fraction(2), Fraction(-1)], [Fraction(1), Fraction(0)]]
    with pytest.raises(UsageError):
        stationary(T)


@pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf", "1", "4e-13", "5e-13"])
def test_markov_cli_rejects_bad_mixing(eps, capsys):
    # checked before the graph is read, so the missing file is never opened
    code = main(["markov", "--graph", "no-such-graph.json", "--mixing", eps])
    assert code == 1
    assert "--mixing must be in (0, 1)" in capsys.readouterr().err
