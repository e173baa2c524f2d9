"""Markov-chain analysis of the uniform walk on an out-regular graph.

A chain is (D, out, aut): D = ell + 1, out[i] the list of (j, count) of the
arrows i -> j, so row i of the transition matrix T is out[i] / D, and aut[i]
the automorphism count of vertex i.  The stationary vector is read off the
weights 1/aut (Gross 1987, section 1) and certified by one exact step; TV
series are exact rationals, computed with integers over the out-lists.
Only the second-eigenvalue modulus uses floating point (documented
tolerance 1e-10).  The level process of a volcano walk is reduced to an
exact birth-death chain on integer counts.
"""

import math
from collections import Counter
from fractions import Fraction

from .errors import (Bipartite, DepthTooSmall, NotClosed, NotOutRegular,
                     NotStationary, Reducible, UsageError)


def normalize(G):
    """The chain (D, out, aut) of the uniform walk on an out-regular graph
    G: D = ell + 1, out[i] the (j, count) of the arrows i -> j in ascending
    j, parallel arrows merged, and aut[i] vertex i's automorphism count.
    Reads only G.ell, each vertex's aut_order and each arrow's src and
    dst."""
    D = G.ell + 1
    rows = [Counter() for _ in G.vertices]
    for ar in G.arrows:
        rows[ar.src][ar.dst] += 1
    for i, row in enumerate(rows):
        if sum(row.values()) != D:
            raise NotOutRegular("row %d sums to %d, not ell+1 = %d"
                                % (i, sum(row.values()), D))
    return (D, [sorted(row.items()) for row in rows],
            [v.aut_order for v in G.vertices])


def _targets(out):
    return [[j for j, _ in arrows] for arrows in out]


def _irreducible_view(chain):
    """The chain (D, out, aut) and its out-neighbour lists; raises
    UsageError for a weight or an aut that is not positive and Reducible
    unless the chain is irreducible."""
    D, out, aut = chain
    for i, (arrows, w) in enumerate(zip(out, aut)):
        if w < 1 or any(c <= 0 for _, c in arrows):
            raise UsageError("row %d has a weight that is not positive" % i)
    succ = _targets(out)
    if not is_strongly_connected(succ):
        raise Reducible("chain is not irreducible")
    return D, out, aut, succ


def _bfs_dist(out, sources):
    """Distances from the nearest of sources in the digraph of
    out-neighbour lists (None where unreachable)."""
    dist = [None] * len(out)
    for s in sources:
        dist[s] = 0
    frontier = list(sources)
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
    if None in _bfs_dist(out, [0]):
        return False
    rev = [[] for _ in out]
    for i, ws in enumerate(out):
        for j in ws:
            rev[j].append(i)
    return None not in _bfs_dist(rev, [0])


def out_period(out):
    """gcd of cycle lengths of a strongly connected digraph given by
    out-neighbour lists."""
    dist = _bfs_dist(out, [0])
    g = 0
    for i, ws in enumerate(out):
        for j in ws:
            g = math.gcd(g, dist[i] + 1 - dist[j])
    return abs(g)


def closed_walk_start(arrows, walk):
    """The vertex where a nonempty walk of indices into arrows (each with
    .src and .dst) starts and ends; NotClosed unless every arrow continues
    the one before it and the last returns to the start."""
    for a, b in zip(walk, walk[1:]):
        if arrows[a].dst != arrows[b].src:
            raise NotClosed("arrow %d does not continue arrow %d" % (b, a))
    v0 = arrows[walk[0]].src
    if arrows[walk[-1]].dst != v0:
        raise NotClosed("walk does not return to its starting vertex")
    return v0


def _step(row, out):
    """The integer row vector row * (D T)."""
    nxt = [0] * len(row)
    for c, arrows in zip(row, out):
        if c:
            for j, w in arrows:
                nxt[j] += c * w
    return nxt


def _stationary_ints(D, out, aut):
    """(a, Q) with pi = a / Q the stationary vector of the irreducible chain
    (D, out, aut), all integers.

    The candidate is a_i = L / aut_i with L = lcm(aut): on a supersingular
    graph aut_j B_ij = aut_i B_ji (Gross 1987, section 1), so pi is
    proportional to 1/aut, and when every aut is equal a is the uniform
    vector.  It is positive, so once a (D T) = D a holds exactly,
    Perron-Frobenius makes 1 a simple eigenvalue and a / sum(a) the unique
    stationary vector.  Raises NotStationary naming the first vertex where
    the check fails.
    """
    L = math.lcm(*aut)
    a = [L // w for w in aut]
    nxt = _step(a, out)
    if nxt != [D * x for x in a]:
        i = next(i for i, (x, y) in enumerate(zip(nxt, a)) if x != D * y)
        raise NotStationary(
            "the weights lcm(aut)/aut are not stationary: at vertex %d, "
            "a (D T) = %d but D a = %d" % (i, nxt[i], D * a[i]))
    return a, sum(a)


def stationary(chain):
    """The unique exact stationary distribution of an irreducible chain,
    which must be proportional to 1/aut."""
    D, out, aut, _ = _irreducible_view(chain)
    a, Q = _stationary_ints(D, out, aut)
    return tuple(Fraction(x, Q) for x in a)


def tv_distance(a, b):
    return sum(abs(x - y) for x, y in zip(a, b)) / 2


def mixing_report(chain, eps, max_steps=10000):
    """Second eigenvalue modulus (float) and exact time to eps in TV.

    Row i of T^n is e_i (D T)^n / D^n with integer entries c_j, and
    pi = a / Q, so its TV distance to pi is sum |c_j Q - a_j D^n| / (2 Q D^n).
    Raises Bipartite for periodic chains, where no convergence happens,
    and NotStationary as stationary does.
    """
    D, out, aut, succ = _irreducible_view(chain)
    n = len(out)
    if n > 1 and out_period(succ) % 2 == 0:
        raise Bipartite("chain has even period; no mixing")
    a, Q = _stationary_ints(D, out, aut)
    import numpy
    arr = numpy.zeros((n, n))
    for i, arrows in enumerate(out):
        for j, w in arrows:
            arr[i, j] = w / D
    eigs = sorted(numpy.linalg.eigvals(arr), key=lambda z: -abs(z))
    second = abs(eigs[1]) if n > 1 else 0.0
    limit = Fraction(eps).limit_denominator(10 ** 12)
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Dn = 1
    tv_series = []
    steps_to_eps = None
    for step in range(1, max_steps + 1):
        rows = [_step(row, out) for row in rows]
        Dn *= D
        aD = [x * Dn for x in a]
        num = max(sum([abs(c * Q - y) for c, y in zip(row, aD)])
                  for row in rows)
        worst = Fraction(num, 2 * Q * Dn)
        tv_series.append(worst)
        if worst < limit:
            steps_to_eps = step
            break
    return {
        "second_eigenvalue_modulus": second,
        "steps_to_eps": steps_to_eps,
        "tv_series": tv_series,
        "stationary": tuple(Fraction(x, Q) for x in a),
    }


# ---------------------------------------------------------------------------
# mass escape down an infinite volcano, via the exact level birth-death chain

def volcano_escape(V, start_level, n):
    """Exact level distribution of the uniform-neighbor walk after n steps.

    Requires the synthetic volcano to be deeper than any level reachable in
    n steps, so no floor truncation occurs.  Returns the distribution and
    the cumulative mass at or above each level (mass-below-depth table).
    Counts of walks, with weight (ell + 1)^n in total, are evolved in
    integers and divided once at the end.
    """
    ell = V.ell
    kron = V.kron
    if start_level < 0 or n < 0:
        raise UsageError("start level and steps must be >= 0")
    if start_level > V.depth:
        raise UsageError("start level beyond the built depth")
    if V.depth <= start_level + n:
        raise DepthTooSmall(
            "need depth > start + steps = %d to avoid truncation" % (start_level + n))
    size = start_level + n + 2
    counts = [0] * size
    counts[start_level] = 1
    for _ in range(n):
        # the rim stays with weight 1 + kron and descends with ell - kron;
        # below it one edge goes up and ell go down
        nxt = [0] * size
        nxt[0] = counts[0] * (1 + kron)
        nxt[1] = counts[0] * (ell - kron)
        for lvl in range(1, size - 1):
            c = counts[lvl]
            if c:
                nxt[lvl - 1] += c
                nxt[lvl + 1] += c * ell
        counts = nxt
    den = (ell + 1) ** n
    cumulative = []
    acc = 0
    for lvl, c in enumerate(counts):
        acc += c
        cumulative.append((lvl, Fraction(acc, den)))
    return {"distribution": [Fraction(c, den) for c in counts],
            "mass_within": cumulative}
