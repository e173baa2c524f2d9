"""Dynamics on residue discs: the coordinate automorphism t -> (1+t)^lam - 1,
its multivariable form, periodic-point classification, the Moebius action of
quaternionic units on the period disc, and seeded random-walk measures.

The disc of interest is restricted to unramified points: coordinates are
elements of W(F_{p^2}) of valuation >= 1.  The Moebius chart is pinned by
two constraints: the identity matrix acts trivially, and unit matrices map
the disc into itself isometrically.  The Moebius step works on u = w/p, so
its image p u' lies in the disc by construction.  ChartEscape guards the
one division by Nm(a), made once per unit; each evaluation then inverts
the norm of its denominator 1 + C u, a unit by construction.
"""

import random
from itertools import islice, repeat

from .errors import (ChartEscape, InvariantBreach, NotAUnit,
                     PrecisionExhausted, UsageError)
from .fields import split_prime
from .padics import (PadicNumber, WqElement, binom_pow, cyclo_binom_fixed,
                     require_disc, sat_membership, smallest_nonresidue,
                     sqrt_unit, wq)


class DiscAutomorphism:
    """t -> (1+t)^lam - 1 for a unit exponent lam."""

    def __init__(self, lam):
        if not lam.is_unit():
            raise NotAUnit("disc automorphisms need a unit exponent")
        self.lam = lam

    def is_identity(self):
        return self.lam == PadicNumber(self.lam.p, self.lam.prec, 1)

    def __call__(self, t):
        return apply(self, t)

    def __repr__(self):
        return "DiscAutomorphism(lam=%r)" % (self.lam,)


def apply(auto, t):
    """Image of a disc coordinate t (ord >= 1) under the automorphism."""
    return binom_pow(t, auto.lam)


def serre_tate_multivar(F_inv, G_dag, T):
    """Entrywise prod_{r,s} (1 + t_rs)^(F_inv[r][i] G_dag[s][j]) - 1, one
    binom_pow per factor.

    All three arguments are g x g matrices of PadicNumber; every T entry
    needs ord >= 1 (>= 2 for p = 2), also one whose exponents are all 0.
    """
    for row in T:
        for t in row:
            require_disc(t)
    g = len(T)
    out = []
    for i in range(g):
        row = []
        for j in range(g):
            acc = 1
            for r in range(g):
                for s in range(g):
                    acc = (1 + binom_pow(T[r][s], F_inv[r][i] * G_dag[s][j])) * acc
            row.append(acc - 1)
        out.append(row)
    return out


def classify_periodic(lam, m, conductor_valuation_a):
    """True iff the circle of p^a-th roots of unity is pointwise m-periodic
    for the automorphism with exponent lam; a = 0 asks about the centre."""
    if m < 1:
        raise UsageError("period m must be >= 1")
    if conductor_valuation_a < 0:
        raise UsageError("conductor valuation must be >= 0")
    if conductor_valuation_a == 0:
        return True
    return cyclo_binom_fixed(lam.p, conductor_valuation_a, lam ** m)


def qc_count(s, ramified, p):
    """Number of quasi-canonical lifts of level s for a quadratic order,
    by the classical counting formula."""
    if s < 0:
        raise UsageError("level must be >= 0")
    if s == 0:
        return 1
    if ramified:
        return p ** s
    return (p + 1) * p ** (s - 1)


# ---------------------------------------------------------------------------
# quaternionic units and the Moebius action on the period disc

class QuatUnit:
    """Unit of the maximal order in the matrix model (a, p b^sigma; b, a^sigma)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b
        if not self.det().is_unit():
            raise NotAUnit("determinant is not a unit")

    @property
    def p(self):
        return self.a.p

    def det(self):
        return self.a.norm() - self.p * self.b.norm()

    def inverse(self):
        dinv = self.det().inverse()
        return QuatUnit(self.a.conj() * dinv, -self.b * dinv)

    def __mul__(self, other):
        # [[a1, p b1^s],[b1, a1^s]] [[a2, p b2^s],[b2, a2^s]]
        a = self.a * other.a + self.b.conj() * other.b * self.p
        b = self.b * other.a + self.a.conj() * other.b
        return QuatUnit(a, b)

    def is_identity(self):
        one = wq(self.p, self.a.prec, 1)
        zero = wq(self.p, self.a.prec, 0)
        return self.a == one and self.b == zero

    def trace(self):
        return self.a.trace()

    def __repr__(self):
        return "QuatUnit(a=%r, b=%r)" % (self.a, self.b)


def identity_unit(p, prec):
    return QuatUnit(wq(p, prec, 1), wq(p, prec, 0))


class DiscPoint:
    """Coordinate on the unramified part of the invariant disc: ord(w) >= 1."""

    __slots__ = ("w",)

    def __init__(self, w):
        if not (w.a0.val % w.p == 0 and w.a1.val % w.p == 0):
            raise UsageError("disc points need ord(w) >= 1")
        self.w = w

    def residue_key(self, k=1):
        """Class of w/p modulo p^k, the histogram key for measures."""
        m = self.w.p ** (k + 1)
        return (self.w.a0.val % m // self.w.p, self.w.a1.val % m // self.w.p)

    def __eq__(self, other):
        return self.w == other.w

    def __repr__(self):
        return "DiscPoint(%r)" % (self.w,)


def _unit_map(gamma, P):
    """gamma as the map u -> (A u + B) / (1 + C u) on u = w/p mod P, for P a
    power of p: (A0, A1, B0, B1, C0, C1) mod P with A = a/a^sigma,
    B = b^sigma/a^sigma and C = p b/a^sigma.

    From w = p u, gamma(w) = p (A u + B) / (1 + C u).  The one division, by
    Nm(a) = a a^sigma, is made here, once per unit; ChartEscape guards it.
    """
    p = gamma.p
    d = gamma.a.d
    a0, a1 = gamma.a.a0.val, gamma.a.a1.val
    b0, b1 = gamma.b.a0.val, gamma.b.a1.val
    nm = a0 * a0 - d * a1 * a1
    if nm % p == 0:
        raise ChartEscape("Moebius denominator is not a unit")
    ninv = pow(nm, -1, P)
    # 1/a^sigma = a/Nm(a): A = a^2, B = b^sigma a and C = p b a, over Nm(a)
    return ((a0 * a0 + d * a1 * a1) * ninv % P, 2 * a0 * a1 * ninv % P,
            (b0 * a0 - d * b1 * a1) * ninv % P, (b0 * a1 - b1 * a0) * ninv % P,
            p * (b0 * a0 + d * b1 * a1) * ninv % P,
            p * (b0 * a1 + b1 * a0) * ninv % P)


def _mobius_u(g, u0, u1, d, P):
    """u -> (A u + B) / (1 + C u) mod P on u = u0 + u1*delta, for the map
    g = _unit_map(gamma, P).

    C = 0 mod p, so y = 1 + C u = 1 mod p and Nm(y) = y y^sigma is a unit:
    1/y = y^sigma / Nm(y), one inverse mod P per evaluation.  The image
    w' = p u' lies in the disc {ord >= 1} by construction.
    """
    A0, A1, B0, B1, C0, C1 = g
    x0 = A0 * u0 + d * A1 * u1 + B0
    x1 = A0 * u1 + A1 * u0 + B1
    y0 = 1 + C0 * u0 + d * C1 * u1
    y1 = C0 * u1 + C1 * u0
    ninv = pow((y0 * y0 - d * y1 * y1) % P, -1, P)
    return ((x0 * y0 - d * x1 * y1) * ninv % P,
            (x1 * y0 - x0 * y1) * ninv % P)


def mobius_apply(gamma, pt):
    """w -> (a w + p b^sigma) / (b w + a^sigma); an isometry of the disc,
    known to the smallest precision among gamma and pt."""
    w = pt.w
    p = gamma.p
    prec = min(gamma.a.prec, gamma.b.prec, w.prec)
    P = p ** (prec - 1)
    d = gamma.a.d
    u0, u1 = _mobius_u(_unit_map(gamma, P), w.a0.val // p, w.a1.val // p,
                       d, P)
    return DiscPoint(WqElement(PadicNumber(p, prec, p * u0),
                               PadicNumber(p, prec, p * u1), d))


def transitivity_witness(x, ell):
    """A unit gamma in the square-class subgroup with gamma(0) = x.

    gamma = (a, p b^sigma; b, a^sigma) with a = 1 and b = x^sigma / p: its
    determinant 1 - Nm(x)/p is 1 mod p, a square, and gamma(0) = p b^sigma
    = x.  Both facts are checked; InvariantBreach if either fails.
    """
    w = x.w
    p, prec = w.p, w.prec
    if w.a0.val == 0 and w.a1.val == 0:
        return identity_unit(p, prec)
    a = wq(p, prec, 1)
    # the product with a = 1 cuts both coordinates of x to x's precision
    gamma = QuatUnit(a, (w.conj() * a).shift_down(1))
    if not sat_membership(gamma.det(), ell):
        raise InvariantBreach("witness determinant is not in the subgroup")
    if mobius_apply(gamma, DiscPoint(wq(p, prec - 1, 0))).w != w:
        raise InvariantBreach("witness does not map 0 to x")
    return gamma


# ---------------------------------------------------------------------------
# embedding walk endomorphisms as quaternionic units

def quat_embed(trace, norm, p, prec):
    """A QuatUnit with reduced trace ``trace`` and determinant ``norm``.

    Realizes the quadratic order Z[f] inside the matrix model; solves
    Tr(a) = trace, Nm(a) - p Nm(b) = norm with a deterministic choice.
    The two possible embeddings are conjugate and yield conjugate dynamics.

    a = trace/2 + c delta, and p Nm(b) = disc/4 - d c^2 for disc of
    valuation w.  At w = 0, c^2 = disc/(4d) and b = 0.  Otherwise c = p^e cu,
    e = ceil(w/2), the least e where disc/4 - d c^2 can have odd valuation:
    cu = 1 at odd w; at even w the smaller root of cu^2 = disc/(4 d p^w)
    mod p, or the other if the smaller leaves an even valuation (the other
    then leaves exactly w + 1).
    """
    if p == 2:
        raise UsageError("quat_embed needs odd p; W(F_4) is not modelled at p = 2")
    if norm % p == 0:
        raise UsageError("determinant must be a unit at p")
    d = smallest_nonresidue(p)
    disc = trace * trace - 4 * norm
    if disc == 0:
        raise UsageError("scalar endomorphisms embed as scalars")
    w, dd = split_prime(disc, p)
    if w % 2 == 0 and pow(dd % p, (p - 1) // 2, p) == 1:
        raise UsageError(
            "x^2 - %dx + %d splits at %d; no embedding into the division algebra"
            % (trace, norm, p))
    work = prec + 2
    quarter = PadicNumber(p, work, disc) * PadicNumber(p, work, 4).inverse()
    if w == 0:
        c = sqrt_unit(quarter * PadicNumber(p, work, d).inverse())
        b = wq(p, prec, 0)
    else:
        e = (w + 1) // 2
        if e >= prec // 2:
            raise PrecisionExhausted(
                "precision %d is too low to embed x^2 - %dx + %d; need >= %d"
                % (prec, trace, norm, 2 * e + 2))
        cu = 1
        if w % 2 == 0:
            r = sqrt_unit(PadicNumber(p, 1, dd * pow(4 * d, -1, p))).val
            cu = min(r, p - r)
        c = PadicNumber(p, work, cu * p ** e)
        rem = quarter - c * c * d
        if rem.val == 0 or rem.valuation() % 2 == 0:
            c = PadicNumber(p, work, (p - cu) * p ** e)
            rem = quarter - c * c * d
        v = rem.valuation()
        unit_part = rem.shift_down(v)
        b = _solve_wq_norm(unit_part, p)
        scale = PadicNumber(p, unit_part.prec, p ** ((v - 1) // 2))
        b = WqElement(b.a0 * scale, b.a1 * scale)
    prec = b.a0.prec
    a = WqElement(PadicNumber(p, prec, trace) * PadicNumber(p, prec, 2).inverse(),
                  c.at_precision(prec))
    return QuatUnit(a, b)


def _solve_wq_norm(u, p):
    """b in W(F_q) with Nm(b) = b0^2 - d b1^2 = u, a unit."""
    d = smallest_nonresidue(p)
    prec = u.prec
    s = sqrt_unit(u)
    if s is not None:
        return WqElement(s, PadicNumber(p, prec, 0))
    # b0 mod p with (b0^2 - u) / d a nonzero residue; one exists, as every
    # unit is a norm from the unramified W
    for b0 in range(p):
        val = (PadicNumber(p, prec, b0 * b0) - u) * PadicNumber(p, prec, d).inverse()
        if val.val % p == 0:
            continue
        s = sqrt_unit(val)
        if s is not None:
            return WqElement(PadicNumber(p, prec, b0), s)
    raise InvariantBreach("%r is not a norm from W" % (u,))


# ---------------------------------------------------------------------------
# empirical measures of random unit-group walks

class EmpiricalMeasure:
    """Visit counts of residue classes (w/p mod p^k) of the invariant disc."""

    def __init__(self, k, counts, total):
        self.k = k
        self.counts = counts
        self.total = total

    def tv_distance(self, other):
        keys = set(self.counts) | set(other.counts)
        s = 0.0
        for key in keys:
            s += abs(self.counts.get(key, 0) / self.total
                     - other.counts.get(key, 0) / other.total)
        return s / 2.0


def random_walk(generators, x0, steps, seed, k=1, checkpoints=()):
    """Iterate uniformly random inverse generators from x0, recording the
    residue class at every step; deterministic under the seed.

    Unit Moebius maps are isometries, so the walk runs on the classes
    u = w/p mod p^k, which are the keys; inputs must be known to w mod
    p^(k+1).  Each generator's map g: u -> (A u + B) / (1 + C u) is a skew
    product over the classes mod p^(k-1): for u = v + p^(k-1) h, with v a
    class mod p^(k-1) and h in F_{p^2}, g(u) = g(v) + p^(k-1) A h mod p^k,
    since g' = A mod p (C = 0 mod p) and (p^(k-1) h)^2 = 0 mod p^k; at
    k = 1, v = 0 and g is affine.  A step reads g(v) from a base table and
    h -> A h + t from a fiber table, each filled on first use, so a walk
    makes at most min(steps, p^(2(k-1)) len(generators)) Moebius
    evaluations.  Checkpoints outside 1..steps are ignored.

    Returns (measure, trajectory of checkpoint measures).
    """
    if not generators:
        raise UsageError("need at least one generator")
    if k < 1:
        raise UsageError("class level k must be >= 1, got %d" % k)
    if steps < 1:
        raise UsageError("steps must be >= 1, got %d" % steps)
    invs = [g.inverse() for g in generators]
    p = x0.w.p
    prec = min([x0.w.prec] + [min(g.a.prec, g.b.prec) for g in invs])
    if prec < k + 1:
        raise UsageError("classes mod %d^%d need precision >= %d, got %d"
                         % (p, k, k + 1, prec))
    P = p ** k
    Q = P // p
    # class u is the key u0 K + u1 = V + H, with V = v0 K + v1 and
    # H = Q (h0 K + h1); K = 2P leaves room for the sum of two fiber
    # digits, at most 2p - 2
    K = 2 * P
    d = invs[0].a.d
    maps = [_unit_map(g, P) for g in invs]
    # A mod p for each map; A = a/a^sigma has norm 1, so 1/A is its
    # conjugate, and at most p + 1 maps have distinct A mod p
    units = [(g[0] % p, g[1] % p, d * g[1] % p) for g in maps]
    # bases[r]: V -> (V', T) with g(v) = v' + Q t and T = Q (t/A packed);
    # fibers[r]: X = H + T -> A X mod p, packed as H, one per A
    bases = [{} for _ in maps]
    by_unit = {}
    fibers = [by_unit.setdefault(a, {}) for a in units]
    mobius = _mobius_u
    # the draw of Random.choice(maps), inline: getrandbits of the bit length
    # of len(maps) until it falls below len(maps), so a seed gives the same
    # walk as through choice or randrange
    getrandbits = random.Random(seed).getrandbits
    n_maps = len(maps)
    bits = n_maps.bit_length()
    # visits by key; dicts keep first-visit order, and classes holds the
    # keys decoded so far in that order
    counts = {}
    get = counts.get
    classes = []
    u0, u1 = x0.w.a0.val // p % P, x0.w.a1.val // p % P
    V = u0 % Q * K + u1 % Q
    H = Q * (u0 // Q * K + u1 // Q)
    cps = sorted({c for c in checkpoints if 1 <= c <= steps})
    snaps = []
    done = 0
    for stop in cps + [steps]:
        for _ in range(stop - done):
            r = getrandbits(bits)
            while r >= n_maps:
                r = getrandbits(bits)
            e = bases[r].get(V)
            if e is None:
                a0, a1, da1 = units[r]
                y0, y1 = mobius(maps[r], V // K, V % K, d, P)
                t0, t1 = y0 // Q, y1 // Q
                e = bases[r][V] = (
                    y0 % Q * K + y1 % Q,
                    Q * ((a0 * t0 - da1 * t1) % p * K
                         + (a0 * t1 - a1 * t0) % p))
            V, T = e
            X = H + T
            H = fibers[r].get(X)
            if H is None:
                a0, a1, da1 = units[r]
                z0, z1 = divmod(X // Q, K)
                H = fibers[r][X] = Q * ((a0 * z0 + da1 * z1) % p * K
                                        + (a0 * z1 + a1 * z0) % p)
            key = V + H
            counts[key] = get(key, 0) + 1
        done = stop
        classes.extend(map(divmod, islice(counts, len(classes), None),
                           repeat(K)))
        snaps.append((stop, EmpiricalMeasure(
            k, dict(zip(classes, counts.values())), stop)))
    return snaps.pop()[1], snaps
