"""Supersingular level graphs: representatives, labeled arrows, walk traces.

Vertices are pairs (E, P) with E a canonical model over F_{p^2} (squared
Frobenius acting as the scalar p) and P a chosen representative of an
automorphism orbit of points of exact order N.  Arrows are kernel-labeled:
one per cyclic subgroup of order ell, targeted at the unique representative
of the quotient pair, with the connecting isomorphism stored so that walk
composition fixes marked points exactly.  Level structure is integer
linear algebra: P is read as coordinates (i, j) on the torsion basis, and
every automorphism and every arrow acts on them as a 2x2 matrix mod N, so
orbits and arrow targets are matrix products (at N = 1 all are zero).
"""

import math

from .curves import (action_matrix, automorphism_scalars, canonical_ss_model,
                     chain_eval, ell_subgroups, iso_scalars, j_invariant,
                     mat_mul, scaled_point, supersingular_j_in_base,
                     torsion_coordinates, torsion_grid, torsion_index,
                     trace_from_residues, velu)
from .errors import (BudgetExhausted, EvenEll, InvariantBreach,
                     ScaleExceeded, SharedCharacteristic, UsageError)
from .fields import is_prime, squarefree_split
from .markov import closed_walk_start, is_strongly_connected, out_period


class SSVertex:
    __slots__ = ("id", "curve", "point", "aut_order", "curve_index")

    def __init__(self, vid, curve, point, aut_order, curve_index):
        self.id = vid
        self.curve = curve
        self.point = point
        self.aut_order = aut_order
        self.curve_index = curve_index

    def __repr__(self):
        return "SSVertex(%d: j=%d, aut=%d)" % (
            self.id, j_invariant(self.curve).enc(), self.aut_order)


class SSArrow:
    __slots__ = ("index", "src", "dst", "kernel", "isogeny", "post_scalar",
                 "label_orbit_size")

    def __init__(self, index, src, dst, kernel, isogeny, post_scalar, orbit):
        self.index = index
        self.src = src
        self.dst = dst
        self.kernel = kernel
        self.isogeny = isogeny
        self.post_scalar = post_scalar
        self.label_orbit_size = orbit


class WalkEndo:
    """(trace, norm) of the endomorphism composed along a closed walk."""

    __slots__ = ("trace", "norm")

    def __init__(self, trace, norm):
        self.trace = trace
        self.norm = norm

    def disc(self):
        return self.trace * self.trace - 4 * self.norm

    def is_scalar(self):
        return self.disc() == 0

    def squarefree_disc_kernel(self):
        d = self.disc()
        if d == 0:
            return 0
        core, _ = squarefree_split(abs(d))
        return core if d > 0 else -core

    def __repr__(self):
        return "WalkEndo(t=%d, n=%d)" % (self.trace, self.norm)

    def __eq__(self, other):
        return (self.trace, self.norm) == (other.trace, other.norm)


class SSGraph:
    def __init__(self, p, ell, N, vertices, arrows, curves):
        self.p = p
        self.ell = ell
        self.N = N
        self.rigid = is_rigid(N, p)
        self.solid = is_solid(N, p)
        self.vertices = vertices
        self.arrows = arrows
        self.curves = curves
        # (arrow index, m) -> the arrow on E_src[m] -> E_dst[m], see
        # _arrow_matrix
        self.arrow_matrices = {}
        self.out_arrows = [[] for _ in vertices]
        for ar in arrows:
            self.out_arrows[ar.src].append(ar.index)

    def out_degree(self, v):
        return len(self.out_arrows[v])


def is_rigid(N, p):
    """Trivial automorphisms for all marked supersingular pairs."""
    if N > 3:
        return True
    if N == 3:
        return p % 3 == 1
    return False


def is_solid(N, p):
    return (is_rigid(N, p) or (N == 1 and p % 12 == 1)
            or (N == 2 and p % 4 == 1))


def build_ssgraph(p, ell, N=1):
    """The level-N supersingular graph for the prime ell.

    Deterministic: curves ordered by j encoding, marked points are the lex
    smallest members of their automorphism orbits, arrows sorted by kernel.
    """
    if not is_prime(p) or p < 11:
        raise UsageError("p must be a prime >= 11, got %r" % (p,))
    if not is_prime(ell):
        raise UsageError("ell must be prime, got %r" % (ell,))
    if ell == 2:
        raise EvenEll("ell must be odd")
    if ell == p:
        raise SharedCharacteristic("ell must differ from p")
    if N < 1 or math.gcd(N, p * ell) != 1:
        raise UsageError("need N >= 1 with gcd(N, p*ell) = 1")
    est_curves = p // 12 + 2
    if est_curves * N * N > 100000:
        raise ScaleExceeded("instance too large: ~%d curves at level %d"
                            % (est_curves, N))

    # discover every supersingular curve by closing under ell-isogenies; the
    # graph is connected, so one seed reaches all of them.  Once per (curve,
    # kernel) it makes the isogeny phi, the canonical model E1 of the
    # quotient, the first isomorphism u0 onto E1 and the matrix of u0 phi
    seed = next(supersingular_j_in_base(p), None)
    if seed is None:
        raise InvariantBreach("no supersingular j in the base field")
    seen = {}           # curve -> [(h, phi, E1, u0, matrix on E[N])]
    queue = [canonical_ss_model(seed)]
    while queue:
        E = queue.pop(0)
        if E in seen:
            continue
        isos = seen[E] = []
        for h in ell_subgroups(E, ell):
            phi = velu(E, h)
            E1 = canonical_ss_model(j_invariant(phi.target))
            us = iso_scalars(phi.target, E1)
            if not us:
                raise InvariantBreach("quotient not isomorphic to a representative")
            M = action_matrix(lambda P: scaled_point(phi(P), us[0], E1), E, N)
            isos.append((h, phi, E1, us[0], M))
            if E1 not in seen:
                queue.append(E1)
    curves = sorted(seen, key=lambda E: j_invariant(E).enc())
    curve_index = {E: i for i, E in enumerate(curves)}

    # vertex set: one per Aut-orbit of exact order-N points, all read as
    # coordinates (i, j) on the torsion basis, so orbits are matrix products
    vertices = []
    coords = []         # vertex id -> (i, j) of its marked point
    vertex_at = {}      # (curve index, (i, j)) -> vertex id of its orbit
    aut_mats = []       # curve index -> [(w, matrix of w on E[N])]
    for ci, E in enumerate(curves):
        grid = torsion_grid(E, N)
        auts = [(w, action_matrix(lambda P, w=w: scaled_point(P, w, E), E, N))
                for w in automorphism_scalars(E)]
        aut_mats.append(auts)
        # in key order, the first unassigned point is least in its orbit
        for _, c in sorted(torsion_index(E, N).items()):
            if math.gcd(N, *c) != 1 or (ci, c) in vertex_at:
                continue
            orbit = {_apply(W, c, N) for _, W in auts}
            v = SSVertex(len(vertices), E, grid[c], len(auts) // len(orbit), ci)
            vertices.append(v)
            coords.append(c)
            for o in orbit:
                vertex_at[(ci, o)] = v.id

    # arrows: one per cyclic subgroup of each source vertex
    arrows = []
    for v in vertices:
        for h, phi, E1, u0, M in seen[v.curve]:
            ci2 = curve_index[E1]
            # adjust by an automorphism w of E1 so the image is the stored
            # representative; the composite u0 w is then a genuine label
            img = _apply(M, coords[v.id], N)
            for w, W in aut_mats[ci2]:
                c = _apply(W, img, N)
                dst = vertex_at.get((ci2, c))
                if dst is not None and coords[dst] == c:
                    break
            else:
                raise InvariantBreach("image point matches no representative")
            arrows.append(SSArrow(len(arrows), v.id, dst, h, phi, u0 * w,
                                  vertices[dst].aut_order))

    G = SSGraph(p, ell, N, vertices, arrows, curves)
    for v in vertices:
        if G.out_degree(v.id) != ell + 1:
            raise InvariantBreach("out-degree %d != ell+1 at vertex %d"
                                  % (G.out_degree(v.id), v.id))
    return G


def _apply(M, ij, N):
    """The matrix M = (a, b, c, d) on the coordinates ij = (i, j) mod N."""
    a, b, c, d = M
    i, j = ij
    return ((a * i + b * j) % N, (c * i + d * j) % N)


# ---------------------------------------------------------------------------
# structural report

def _girth(out):
    n = len(out)
    best = None
    for s in range(n):
        dist = [None] * n
        frontier = [(s, 0)]
        found = None
        while frontier and found is None:
            nxt = []
            for (u, d) in frontier:
                for w in out[u]:
                    if w == s:
                        found = d + 1
                        break
                    if dist[w] is None:
                        dist[w] = d + 1
                        nxt.append((w, d + 1))
                if found is not None:
                    break
            frontier = nxt
        if found is not None and (best is None or found < best):
            best = found
    return best


def self_dual_loop_count(G):
    """Loops that coincide with their dual arrow.

    A loop's kernel on E[ell] is the kernel of its label, and its image is
    the kernel of the dual arrow.  So a loop is self-dual iff its kernel
    equals its image, that is iff its matrix M on E[ell] (``_arrow_matrix``;
    on a loop the source and target bases agree) is nonzero with
    M^2 = 0 mod ell.  M = 0 would mean the ell-torsion collapsed.
    """
    if G.N != 1:
        return None
    return sum(_is_self_dual(G, ar.index) for ar in G.arrows
               if ar.src == ar.dst)


def _is_self_dual(G, ai):
    """The self-duality test of ``self_dual_loop_count`` on the loop ai."""
    ell = G.ell
    M = _arrow_matrix(G, ai, ell)
    if not any(M):
        raise InvariantBreach("ell-torsion collapsed under a degree-ell map")
    return not any(mat_mul(M, M, ell))


def graph_report(G):
    out = [[G.arrows[ai].dst for ai in G.out_arrows[v]]
           for v in range(len(G.vertices))]
    in_degrees = [0] * len(out)
    for ar in G.arrows:
        in_degrees[ar.dst] += 1
    connected = is_strongly_connected(out)
    period = out_period(out) if connected else 0
    report = {
        "connected": connected,
        "bipartite": (period % 2 == 0),
        "girth": _girth(out),
        "out_degrees": [len(ws) for ws in out],
        "in_degrees": in_degrees,
        "rigid": G.rigid,
        "solid": G.solid,
        "self_dual_loops": None,
        "cycle_rank_ud": None,
    }
    if G.N == 1:
        s = self_dual_loop_count(G)
        report["self_dual_loops"] = s
        if G.p % 12 == 1:
            loops = sum(1 for ar in G.arrows if ar.src == ar.dst)
            doubled = len(G.arrows) + s  # twice the undirected edges
            if doubled % 2:
                raise InvariantBreach("dual pairing parity failure")
            report["cycle_rank_ud"] = doubled // 2 - len(G.vertices) + 1
            report["ud_loops"] = loops
    return report


# ---------------------------------------------------------------------------
# walks and their endomorphisms

def _walk_steps(G, walk):
    steps = []
    for ai in walk:
        ar = G.arrows[ai]
        steps.append(ar.isogeny)
        steps.append((G.vertices[ar.dst].curve, ar.post_scalar))
    return steps


def _arrow_matrix(G, ai, m):
    """The ``action_matrix`` of the arrow ai on E[m], cached on G.  The
    canonical models all have Frobenius_{p^2} = [p], so E[m] of every curve
    lies over the same field and the bases can be compared."""
    M = G.arrow_matrices.get((ai, m))
    if M is None:
        steps = _walk_steps(G, [ai])
        E = G.vertices[G.arrows[ai].src].curve
        M = G.arrow_matrices[(ai, m)] = action_matrix(
            lambda P: chain_eval(steps, P), E, m)
    return M


def _walk_matrix(G, walk, m):
    """The walk on E[m]: the product of its arrow matrices, the last arrow
    leftmost, checked against det = ell^d mod m."""
    M = (1, 0, 0, 1)
    for ai in walk:
        M = mat_mul(_arrow_matrix(G, ai, m), M, m)
    a, b, c, d = M
    if (a * d - b * c - G.ell ** len(walk)) % m:
        raise InvariantBreach("walk determinant mod %d is not ell^%d"
                              % (m, len(walk)))
    return M


def walk_char_poly(G, walk):
    """WalkEndo of a closed labeled walk (list of arrow indices).

    One walk matrix serves the trace and the level structure.  Each arrow
    acts on E[m] as a 2x2 matrix mod m, cached on G, and the walk acts as
    their product.  Its trace a + d mod auxiliary primes m is lifted by CRT
    as in ``chain_trace``.  The walk fixes the marked point P = i P1 + j P2
    exactly when its matrix mod N fixes (i, j); at N = 1 both are zero.
    """
    if not walk:
        return WalkEndo(2, 1)
    v0 = closed_walk_start(G.arrows, walk)

    def residue(m):
        a, _, _, d = _walk_matrix(G, walk, m)
        return (a + d) % m

    t = trace_from_residues(G.vertices[v0].curve, G.ell, len(walk), residue)
    c = torsion_coordinates(G.vertices[v0].point, G.N)
    if _apply(_walk_matrix(G, walk, G.N), c, G.N) != c:
        raise InvariantBreach("composed walk does not fix the marked point")
    return WalkEndo(t, G.ell ** len(walk))


def closed_walks(G, base, max_len, cap=20000):
    """All closed walks at ``base`` of length <= max_len (DFS, bounded)."""
    out = []
    stack = [(base, [])]
    while stack:
        v, path = stack.pop()
        if path and v == base:
            out.append(path)
            if len(out) >= cap:
                raise BudgetExhausted("too many closed walks")
        if len(path) < max_len:
            for ai in G.out_arrows[v]:
                stack.append((G.arrows[ai].dst, path + [ai]))
    out.sort(key=lambda w: (len(w), w))
    return out


def odd_closed_walk(G, base, budget):
    """An odd closed walk at ``base``, found by BFS over (vertex, parity);
    raises BudgetExhausted when none of length <= budget + #vertices is
    found."""
    n = len(G.vertices)
    prev = {(base, 0): None}
    frontier = [(base, 0)]
    while frontier:
        nxt = []
        for (v, par) in frontier:
            for ai in G.out_arrows[v]:
                w = G.arrows[ai].dst
                state = (w, 1 - par)
                if state not in prev:
                    prev[state] = ((v, par), ai)
                    nxt.append(state)
                if w == base and par == 0:
                    # arrived back with odd length
                    walk = [ai]
                    cur = (v, par)
                    while prev[cur] is not None:
                        cur, a2 = prev[cur]
                        walk.append(a2)
                    walk.reverse()
                    if len(walk) % 2 == 1 and len(walk) <= budget + n:
                        return walk
        frontier = nxt
    raise BudgetExhausted("no odd closed walk within budget")


def monoid_certificates(G, budget=4, base=0):
    """Search certificates: an odd closed walk, a pair of walk endomorphisms
    generating distinct quadratic fields, and the ell^d = 1 mod N congruence
    on every closed walk found."""
    odd_walk = odd_closed_walk(G, base, budget)
    walks = closed_walks(G, base, budget)
    endos = []
    alpha_ok = True
    for w in walks:
        if G.ell ** len(w) % G.N != 1 % G.N:
            alpha_ok = False
        endos.append((w, walk_char_poly(G, w)))
    pair = None
    fields_seen = {}
    for w, e in endos:
        k = e.squarefree_disc_kernel()
        if k == 0:
            continue
        for k2, (w2, e2) in fields_seen.items():
            if k2 != k:
                pair = ((w2, e2), (w, e))
                break
        if pair:
            break
        fields_seen.setdefault(k, (w, e))
    return {
        "odd_walk": odd_walk,
        "noncommuting_pair": pair,
        "alpha_check": alpha_ok,
        "walks_examined": len(walks),
    }
