"""Markov-chain analysis of the normalized adjacency operator.

Stationary distributions are computed in exact rational arithmetic; only the
second-eigenvalue modulus uses floating point (documented tolerance 1e-10).
The level process of a volcano walk is reduced to an exact birth-death chain.
"""

import math
from fractions import Fraction

from .errors import (Bipartite, DepthTooSmall, NotOutRegular, Reducible,
                     UsageError)


def normalize(G):
    """Exact transition matrix adjacency / (ell + 1) of an out-regular graph."""
    adj = getattr(G, "adjacency", None)
    ell = getattr(G, "ell", None)
    if adj is None or ell is None:
        raise UsageError("object has no adjacency/ell data")
    n = len(adj)
    for i in range(n):
        if sum(adj[i]) != ell + 1:
            raise NotOutRegular("row %d sums to %d, not ell+1 = %d"
                                % (i, sum(adj[i]), ell + 1))
    return [[Fraction(adj[i][j], ell + 1) for j in range(n)] for i in range(n)]


def _positive_graph(T):
    n = len(T)
    out = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if T[i][j] > 0:
                out[i].append(j)
    return out


def _bfs_dist(out, start):
    """Distances from start in the digraph of out-neighbour lists (None
    where unreachable)."""
    dist = [None] * len(out)
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in out[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def is_strongly_connected(out):
    """Strong connectivity of the digraph given by out-neighbour lists."""
    if None in _bfs_dist(out, 0):
        return False
    rev = [[] for _ in out]
    for i, ws in enumerate(out):
        for j in ws:
            rev[j].append(i)
    return None not in _bfs_dist(rev, 0)


def out_period(out):
    """gcd of cycle lengths of a strongly connected digraph given by
    out-neighbour lists."""
    dist = _bfs_dist(out, 0)
    g = 0
    for i, ws in enumerate(out):
        for j in ws:
            g = math.gcd(g, dist[i] + 1 - dist[j])
    return abs(g)


def is_irreducible(T):
    return is_strongly_connected(_positive_graph(T))


def period(T):
    """gcd of cycle lengths of an irreducible chain."""
    return out_period(_positive_graph(T))


def _solve_exact(rows, rhs):
    """Gaussian elimination over Fractions; rows is a square matrix."""
    n = len(rows)
    A = [list(r) + [v] for r, v in zip(rows, rhs)]
    col = 0
    for col in range(n):
        piv = None
        for r in range(col, n):
            if A[r][col] != 0:
                piv = r
                break
        if piv is None:
            raise Reducible("singular system")
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [A[i][n] for i in range(n)]


def stationary(T):
    """The unique exact stationary distribution of an irreducible chain.

    Solves pi T = pi with sum(pi) = 1 over the rationals.  The solve finds
    n pivots, so the n - 1 rows of T^t - I it uses are independent; with the
    exact check pi T = pi below, rank(T - I) = n - 1 and pi is unique.
    """
    if not is_irreducible(T):
        raise Reducible("chain is not irreducible")
    n = len(T)
    # rows of the system: (T^t - I) pi = 0, with the last equation sum = 1
    rows = []
    for j in range(n - 1):
        rows.append([T[i][j] - (1 if i == j else 0) for i in range(n)])
    rows.append([Fraction(1)] * n)
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    pi = _solve_exact(rows, rhs)
    for j in range(n):
        s = sum(pi[i] * T[i][j] for i in range(n))
        if s != pi[j]:
            raise Reducible("solution is not stationary")
    return tuple(pi)


def tv_distance(a, b):
    return sum(abs(x - y) for x, y in zip(a, b)) / 2


def mixing_report(T, eps, max_steps=10000):
    """Second eigenvalue modulus (float) and exact time to eps in TV.

    Raises Bipartite for periodic chains, where no convergence happens.
    """
    if not is_irreducible(T):
        raise Reducible("chain is not irreducible")
    if len(T) > 1 and period(T) % 2 == 0:
        raise Bipartite("chain has even period; no mixing")
    import numpy
    n = len(T)
    arr = numpy.array([[float(x) for x in row] for row in T])
    eigs = sorted(numpy.linalg.eigvals(arr), key=lambda z: -abs(z))
    second = abs(eigs[1]) if n > 1 else 0.0
    pi = stationary(T)
    dists = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    tv_series = []
    steps_to_eps = None
    for step in range(1, max_steps + 1):
        nxt = []
        for row in dists:
            nxt.append([sum(row[i] * T[i][j] for i in range(n)) for j in range(n)])
        dists = nxt
        worst = max(tv_distance(row, pi) for row in dists)
        tv_series.append(worst)
        if worst < Fraction(eps).limit_denominator(10 ** 12):
            steps_to_eps = step
            break
    return {
        "second_eigenvalue_modulus": second,
        "steps_to_eps": steps_to_eps,
        "tv_series": tv_series,
        "stationary": pi,
    }


# ---------------------------------------------------------------------------
# mass escape down an infinite volcano, via the exact level birth-death chain

def volcano_escape(V, start_level, n):
    """Exact level distribution of the uniform-neighbor walk after n steps.

    Requires the synthetic volcano to be deeper than any level reachable in
    n steps, so no floor truncation occurs.  Returns the distribution and
    the cumulative mass at or above each level (mass-below-depth table).
    """
    ell = V.ell
    kron = V.kron
    if start_level > V.depth:
        raise UsageError("start level beyond the built depth")
    if V.depth <= start_level + n:
        raise DepthTooSmall(
            "need depth > start + steps = %d to avoid truncation" % (start_level + n))
    deg = Fraction(1, ell + 1)
    size = start_level + n + 2
    dist = [Fraction(0)] * size
    dist[start_level] = Fraction(1)
    for _ in range(n):
        nxt = [Fraction(0)] * size
        for lvl, mass in enumerate(dist):
            if mass == 0:
                continue
            if lvl == 0:
                stay = Fraction(1 + kron, ell + 1)
                down = Fraction(ell - kron, ell + 1)
                nxt[0] += mass * stay
                nxt[1] += mass * down
            else:
                nxt[lvl - 1] += mass * deg
                nxt[lvl + 1] += mass * deg * ell
        dist = nxt
    cumulative = []
    acc = Fraction(0)
    for lvl in range(size):
        acc += dist[lvl]
        cumulative.append((lvl, acc))
    return {"distribution": dist, "mass_within": cumulative}
