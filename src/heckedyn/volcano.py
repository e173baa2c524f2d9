"""Ordinary isogeny volcanoes: synthetic structure, empirical graphs over F_p,
homotopy reduction of closed walks, and the unit ratio driving disc dynamics.

The synthetic side is pure class-group arithmetic; the empirical side builds
the rational ell-isogeny graph of an ordinary j over F_p and infers levels
from local degree patterns.  The two are compared in the acceptance suite.
"""

import math

from .curves import (Curve, IsogenyArrow, chain_trace, ell_subgroups,
                     iso_scalars, j_invariant, model_from_j, scaled_point,
                     trace_of_frobenius, velu)
from .errors import (BadDiscriminant, ExcludedJ, InvariantBreach, NotClosed,
                     ScaleExceeded, SupersingularStart, UsageError)
from .fields import embedding, is_prime, make_field, memo, power, split_prime
from .markov import _bfs_dist, closed_walk_start
from .padics import PadicNumber, quadratic_roots
from .quadforms import (MAX_LEVEL_BITS, fundamental_discriminant, kronecker,
                         prime_class_order)


class RimWalk:
    """A closed walk around the rim with its associated quadratic integer."""

    __slots__ = ("direction", "length", "trace", "norm")

    def __init__(self, direction, length, trace, norm):
        self.direction = direction
        self.length = length
        self.trace = trace
        self.norm = norm

    def __repr__(self):
        return "RimWalk(%s, len %d, t=%d, n=%d)" % (
            self.direction, self.length, self.trace, self.norm)


class SyntheticVolcano:
    """Volcano predicted by the class-group data of the rim order.

    Vertices are (level, index) pairs; undirected edges carry an id and a
    kind in {rim, loop, loop2, down}.  ``loop2`` marks the split one
    vertex rim traversable in two directions; ``loop`` is self-dual.
    """

    def __init__(self, disc, ell, depth):
        if depth < 0:
            raise UsageError("depth must be >= 0")
        if not is_prime(ell):
            raise UsageError("ell must be prime")
        d0, cond = fundamental_discriminant(disc)
        if cond % ell == 0:
            raise BadDiscriminant("ell divides the conductor of %d" % disc)
        if d0 in (-3, -4):
            raise BadDiscriminant(
                "discriminants with extra automorphisms are excluded")
        self.disc = disc
        self.ell = ell
        self.depth = depth
        self.kron = kronecker(disc, ell)
        if self.kron == -1:
            self.rim_size = 1
            self.rim_type = "inert-point"
            self.rim_endo = None
        else:
            a, witness = prime_class_order(disc, ell)
            self.rim_size = a
            self.rim_endo = witness
            if self.kron == 0:
                self.rim_type = "ramified-loop" if a == 1 else "ramified-edge"
            else:
                self.rim_type = "split-cycle"
        a = self.rim_size
        # the deepest level, a (ell - kron) ell^(depth-1) >= 2^(depth-1), is
        # the largest, so a deeper volcano than MAX_LEVEL_BITS needs no power
        if depth and (depth > MAX_LEVEL_BITS or MAX_LEVEL_BITS < (
                a * (ell - self.kron) * ell ** (depth - 1)).bit_length()):
            raise ScaleExceeded("level sizes at depth %d exceed 2^%d"
                                % (depth, MAX_LEVEL_BITS))
        self.level_sizes = [a]
        for i in range(1, depth + 1):
            self.level_sizes.append(a * (ell - self.kron) * ell ** (i - 1))
        # the explicit graph is only needed for walk manipulation; the level
        # process and size formulas never require it
        if sum(self.level_sizes) <= 200000:
            self._build_graph()
        else:
            self.vertices = None
            self.edges = None
            self.adj = None

    def _build_graph(self):
        ell, a = self.ell, self.rim_size
        self.vertices = []
        for lvl, size in enumerate(self.level_sizes):
            for i in range(size):
                self.vertices.append((lvl, i))
        vid = {v: i for i, v in enumerate(self.vertices)}
        self.vid = vid
        self.edges = []  # (u, v, kind); rim edges oriented u -> v = +1 step

        def add(u, v, kind):
            self.edges.append((vid[u], vid[v], kind))

        t = self.rim_type
        if t == "split-cycle":
            if a == 1:
                add((0, 0), (0, 0), "loop2")
            else:
                for i in range(a):
                    add((0, i), (0, (i + 1) % a), "rim")
        elif t == "ramified-loop":
            add((0, 0), (0, 0), "loop")
        elif t == "ramified-edge":
            add((0, 0), (0, 1), "rim")
        # downward edges
        eid_children = ell - self.kron
        prev = [(0, i) for i in range(a)]
        for lvl in range(1, self.depth + 1):
            nxt = []
            per = eid_children if lvl == 1 else ell
            counter = 0
            for parent in prev:
                for _ in range(per):
                    child = (lvl, counter)
                    counter += 1
                    add(parent, child, "down")
                    nxt.append(child)
            assert counter == self.level_sizes[lvl]
            prev = nxt
        # adjacency with edge ids
        self.adj = [[] for _ in self.vertices]
        for eid, (u, v, kind) in enumerate(self.edges):
            self.adj[u].append((eid, v))
            if u != v:
                self.adj[v].append((eid, u))

    def degree(self, v):
        d = 0
        for (eid, w) in self.adj[v]:
            u1, v1, kind = self.edges[eid]
            if u1 == v1 == v:
                d += 2 if kind == "loop2" else 1
            else:
                d += 1
        return d

    def rim_walk(self, direction="+"):
        if self.rim_type == "inert-point":
            return None
        t, n = self.rim_endo
        return RimWalk(direction, self.rim_size, t, n)

    def __repr__(self):
        return ("SyntheticVolcano(disc=%d, ell=%d, rim=%d %s, levels=%r)"
                % (self.disc, self.ell, self.rim_size, self.rim_type,
                   self.level_sizes))


def build_synthetic(disc, ell, depth):
    return SyntheticVolcano(disc, ell, depth)


# ---------------------------------------------------------------------------
# empirical volcano over F_p

class EmpiricalVolcano:
    """Rational ell-isogeny graph over F_p explored from an ordinary j.

    Vertex payload: j encodings (base field); arrows map each vertex's
    rational subgroups to representative models, with the connecting
    isomorphism chosen over F_{p^2} when the quotient lands on a twist.
    """

    def __init__(self, p, j0, ell, depth=None):
        if depth is not None and depth < 0:
            raise UsageError("depth must be >= 0")
        if not is_prime(p) or p < 5:
            raise UsageError("p must be a prime >= 5")
        if not is_prime(ell) or ell == p:
            raise UsageError("ell must be a prime different from p")
        F = make_field(p, 1)
        if isinstance(j0, int):
            j0 = F.from_enc(j0 % p)
        # supersingular iff p | t, which for p >= 5 means t = 0
        t = trace_of_frobenius(model_from_j(F, j0))
        if t % p == 0:
            raise SupersingularStart("j = %d is supersingular" % j0.enc())
        if j0.enc() in (0, 1728 % p):
            raise ExcludedJ("j in {0, 1728} is excluded")
        d_frob = t * t - 4 * p
        d0, cond = fundamental_discriminant(d_frob)
        if d0 in (-3, -4):
            raise ExcludedJ("endomorphism algebra with extra units is excluded")
        self.p = p
        self.ell = ell
        self.frobenius_trace = t
        self.field_disc = d0
        self.frobenius_conductor = cond
        vl, m = split_prime(cond, ell)
        self.true_depth = vl
        self.rim_conductor = m
        self.rim_disc = m * m * d0
        self.depth_param = depth
        self.field = F

        self.j_index = {}
        self.curves = []
        self.arrows = []
        self.vertex_degree = []
        self._memo = {}
        self._explore(j0, depth)
        self._assign_levels()

    def _vertex(self, j):
        vid = self.j_index.get(j.enc())
        if vid is None:
            vid = len(self.curves)
            self.j_index[j.enc()] = vid
            self.curves.append(model_from_j(self.field, j))
            self.vertex_degree.append(None)
        return vid

    def _explore(self, j0, radius):
        F2 = make_field(self.p, 2)
        frontier = [self._vertex(j0)]
        truncated = False
        dist = {frontier[0]: 0}
        for v in frontier:
            E = self.curves[v]
            kernels = ell_subgroups(E, self.ell)
            self.vertex_degree[v] = len(kernels)
            if radius is not None and dist[v] == radius:
                # local degree recorded, arrows beyond the radius skipped
                if kernels:
                    truncated = True
                continue
            for h in kernels:
                phi = velu(E, h)
                j2 = j_invariant(phi.target)
                w = self._vertex(j2)
                E1 = self.curves[w]
                us = iso_scalars(phi.target, E1)
                if us:
                    u = us[0]
                else:
                    # quotient is the quadratic twist; connect over F_{p^2}
                    emb = embedding(self.field, F2)
                    t_big = Curve(F2, emb(phi.target.a), emb(phi.target.b))
                    e_big = Curve(F2, emb(E1.a), emb(E1.b))
                    us = iso_scalars(t_big, e_big)
                    if not us:
                        raise InvariantBreach("same j but no isomorphism found")
                    u = us[0]
                self.arrows.append(IsogenyArrow(len(self.arrows), v, w, phi, u))
                if w not in dist:
                    dist[w] = dist[v] + 1
                    frontier.append(w)
        self.complete = not truncated

    def _assign_levels(self):
        n = len(self.curves)
        self.levels = None
        if not self.complete:
            return
        degs = self.vertex_degree
        if max(degs) < self.ell + 1:
            self.levels = [0] * n
            return
        floor = [v for v in range(n) if degs[v] == 1]
        if not floor:
            return
        # undirected distance to the floor
        nbrs = [set() for _ in range(n)]
        for ar in self.arrows:
            nbrs[ar.src].add(ar.dst)
            nbrs[ar.dst].add(ar.src)
        dist = _bfs_dist(nbrs, floor)
        if any(d is None for d in dist):
            return
        depth = max(dist)
        self.levels = [depth - d for d in dist]

    def level_sizes(self):
        if self.levels is None:
            return None
        out = [0] * (max(self.levels) + 1)
        for l in self.levels:
            out[l] += 1
        return out

    def rim_vertices(self):
        if self.levels is None:
            return None
        return [v for v in range(len(self.curves)) if self.levels[v] == 0]

    def __repr__(self):
        return ("EmpiricalVolcano(p=%d, ell=%d, %d vertices, levels=%r)"
                % (self.p, self.ell, len(self.curves), self.level_sizes()))


def build_empirical(p, j0, ell, depth=None):
    return EmpiricalVolcano(p, j0, ell, depth)


@memo
def _f2_model(vol, v):
    """The model of vertex v over F_{p^2}, one per vertex so that it keeps
    its torsion bases.  Every vertex has trace +-t, so by base change its
    F_{p^2} model has trace t^2 - 2p."""
    F2 = make_field(vol.p, 2)
    emb = embedding(vol.field, F2)
    E = vol.curves[v]
    t, p = vol.frobenius_trace, vol.p
    return Curve(F2, emb(E.a), emb(E.b), count=p * p + 1 - (t * t - 2 * p))


def walk_endo_empirical(vol, walk):
    """(trace, norm) of the composed endomorphism of a closed walk of arrow
    indices in an empirical volcano, recovered from torsion action."""
    if not walk:
        return (2, 1)
    v0 = closed_walk_start(vol.arrows, walk)
    # base everything on the F_{p^2} model so twist scalars embed
    E2 = _f2_model(vol, v0)
    arrows = [vol.arrows[ai] for ai in walk]
    # the last arrow lands on E2, so images are read on E2's torsion basis
    targets = [vol.curves[ar.dst] for ar in arrows[:-1]] + [E2]

    def endo(P):
        for ar, E1 in zip(arrows, targets):
            P = scaled_point(ar.isogeny(P), ar.post_scalar, E1)
        return P

    d = len(walk)
    norm = vol.ell ** d
    # the endomorphism lies in the CM field: t^2 - 4 norm = c^2 * field_disc
    candidates = []
    c = 0
    while True:
        rest = 4 * norm + vol.field_disc * c * c
        if rest < 0:
            break
        s = math.isqrt(rest)
        if s * s == rest:
            candidates.extend({s, -s})
        c += 1
    t = chain_trace(endo, E2, vol.ell, d, candidate_traces=candidates)
    return (t, norm)


# ---------------------------------------------------------------------------
# homotopy reduction of closed walks on a synthetic volcano

def _step_end(vol, at, step):
    eid, direction = step
    u, v, kind = vol.edges[eid]
    if u == v:
        if at != u:
            raise NotClosed("step does not start at the current vertex")
        return u
    if direction == 1:
        if at != u:
            raise NotClosed("step does not start at the current vertex")
        return v
    if at != v:
        raise NotClosed("step does not start at the current vertex")
    return u


def _cancel_steps(vol, walk):
    def cancels(s1, s2):
        (e1, d1), (e2, d2) = s1, s2
        if e1 != e2:
            return False
        kind = vol.edges[e1][2]
        if kind == "loop":
            # a self-dual loop squares to a scalar
            return True
        return d1 == -d2

    stack = []
    for step in walk:
        if stack and cancels(stack[-1], step):
            stack.pop()
        else:
            stack.append(step)
    return stack


_RIM_KINDS = ("rim", "loop", "loop2")


def _decompose(vol, stack, start):
    """Split a reduced closed walk into (path to rim, rim steps)."""
    path = []
    at = start
    for step in stack:
        if vol.edges[step[0]][2] in _RIM_KINDS:
            break
        path.append(step)
        at = _step_end(vol, at, step)
    k = len(path)
    middle = stack[k: len(stack) - k] if k else stack
    if k and stack[len(stack) - k:] != [(e, -d) for (e, d) in reversed(path)]:
        raise InvariantBreach("reduced walk is not in normal form")
    for step in middle:
        if vol.edges[step[0]][2] not in _RIM_KINDS:
            raise InvariantBreach("non-rim step survived between rim steps")
    return path, middle


def _normal_form(vol, walk, start):
    """(path to the rim, surviving rim steps, winding) of a closed walk."""
    at = start
    for step in walk:
        at = _step_end(vol, at, step)
    if at != start:
        raise NotClosed("walk does not return to its start")
    stack = _cancel_steps(vol, walk)
    if not stack:
        return [], [], 0
    path, middle = _decompose(vol, stack, start)
    if vol.rim_type == "split-cycle":
        net = sum(d for (e, d) in middle)
        if vol.rim_size > 1:
            if net % vol.rim_size != 0:
                raise InvariantBreach("winding is not a whole number of turns")
            net //= vol.rim_size
    elif vol.rim_type == "ramified-loop":
        net = len(middle) % 2
    else:
        if middle:
            raise InvariantBreach("unreduced rim steps on a %s rim" % vol.rim_type)
        net = 0
    return path, middle, net


def reduce_walk(vol, walk, start):
    """Normal form of a closed walk: (path to the rim, winding integer).

    ``walk`` is a list of (edge_id, direction) steps with direction +-1.
    The winding is a signed turn count for split rims, a parity bit for a
    ramified loop, and 0 for ramified edges and inert points.
    """
    path, _, net = _normal_form(vol, walk, start)
    return path, net


def quad_power(trace, norm, e):
    """(trace, norm) of f^e for f a root of x^2 - trace x + norm; e >= 0.
    f^e = c + d f is a power of pairs (c, d), multiplied with
    f^2 = trace f - norm."""
    def mul(u, v):
        (a, b), (c, d) = u, v
        return (a * c - b * d * norm, a * d + b * c + b * d * trace)

    c, d = power(mul, (1, 0), (0, 1), e)
    return (2 * c + d * trace, c * c + c * d * trace + d * d * norm)


def walk_endo_synthetic(vol, walk, start):
    """(trace, norm) of the walk's endomorphism.

    Cancelled pairs and the conjugating path each contribute a scalar factor
    of ell; the surviving rim steps compose to a power of the rim generator.
    """
    _, middle, n = _normal_form(vol, walk, start)
    if vol.rim_endo is not None and n != 0:
        core = quad_power(vol.rim_endo[0], vol.rim_endo[1], abs(n))
    else:
        core = (2, 1)
    s = vol.ell ** ((len(walk) - len(middle)) // 2)
    return (core[0] * s, core[1] * s * s)


# ---------------------------------------------------------------------------
# the unit ratio of an endomorphism on the Tate module

def lambda_of_endo(trace, norm, p, precision):
    """The unordered pair {r1/r2, r2/r1} for the roots of x^2 - t x + n
    in Z_p; this is the exponent pair of the induced disc automorphism.

    Integer endomorphisms (trace^2 = 4 norm) give the identity pair (1, 1).
    """
    if trace * trace == 4 * norm:
        one = PadicNumber(p, precision, 1)
        return (one, one)
    r1, r2 = quadratic_roots(trace, norm, p, precision)
    a = r1 / r2
    b = r2 / r1
    return tuple(sorted((a, b), key=lambda z: z.val))
