"""Dynamics on residue discs: the coordinate automorphism t -> (1+t)^lam - 1,
its multivariable form, periodic-point classification, the Moebius action of
quaternionic units on the period disc, and seeded random-walk measures.

The disc of interest is restricted to unramified points: coordinates are
elements of W(F_{p^2}) of valuation >= 1.  The Moebius chart is pinned by
two constraints: the identity matrix acts trivially, and unit matrices map
the disc into itself isometrically.  The Moebius step works on u = w/p, so
its image p u' lies in the disc by construction; ChartEscape guards its one
division, made once per unit.
"""

import random

from .errors import (ChartEscape, InvariantBreach, NotAUnit,
                     PrecisionExhausted, UsageError)
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


def _newton_steps(k):
    """Newton steps that invert a unit = 1 mod p modulo p^k: ceil(log2 k)."""
    return (k - 1).bit_length() if k > 1 else 0


def _mobius_u(g, u0, u1, d, P, n):
    """u -> (A u + B) / (1 + C u) mod P on u = u0 + u1*delta, for the map
    g = _unit_map(gamma, P) and n = _newton_steps(k) at P = p^k.

    C = 0 mod p, so 1 + C u = 1 mod p, and n Newton steps
    r <- r (2 - (1 + C u) r) from r = 1 invert it.  With s = -C u the
    iterates are (1 + s)(1 + s^2)...(1 + s^(2^(n-1))), so each step is one
    factor; at k = 1 the step is affine.  The image w' = p u' lies in the
    disc {ord >= 1} by construction.
    """
    A0, A1, B0, B1, C0, C1 = g
    x0 = A0 * u0 + d * A1 * u1 + B0
    x1 = A0 * u1 + A1 * u0 + B1
    if n:
        s0 = -(C0 * u0 + d * C1 * u1)
        s1 = -(C0 * u1 + C1 * u0)
        x0, x1 = x0 + x0 * s0 + d * x1 * s1, x1 + x0 * s1 + x1 * s0
        for _ in range(n - 1):
            s0, s1 = (s0 * s0 + d * s1 * s1) % P, 2 * s0 * s1 % P
            x0, x1 = ((x0 + x0 * s0 + d * x1 * s1) % P,
                      (x1 + x0 * s1 + x1 * s0) % P)
    return x0 % P, x1 % P


def mobius_apply(gamma, pt):
    """w -> (a w + p b^sigma) / (b w + a^sigma); an isometry of the disc,
    known to the smallest precision among gamma and pt."""
    w = pt.w
    p = gamma.p
    prec = min(gamma.a.prec, gamma.b.prec, w.prec)
    P = p ** (prec - 1)
    d = gamma.a.d
    u0, u1 = _mobius_u(_unit_map(gamma, P), w.a0.val // p, w.a1.val // p,
                       d, P, _newton_steps(prec - 1))
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
    if norm % p == 0:
        raise UsageError("determinant must be a unit at p")
    d = smallest_nonresidue(p)
    disc = trace * trace - 4 * norm
    if disc == 0:
        raise UsageError("scalar endomorphisms embed as scalars")
    w = 0
    dd = disc
    while dd % p == 0:
        dd //= p
        w += 1
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
    p^(k+1).  Each generator is turned into its map on u once.  Checkpoints
    outside 1..steps are ignored.

    Returns (measure, trajectory of checkpoint measures).
    """
    if not generators:
        raise UsageError("need at least one generator")
    invs = [g.inverse() for g in generators]
    p = x0.w.p
    prec = min([x0.w.prec] + [min(g.a.prec, g.b.prec) for g in invs])
    if prec < k + 1:
        raise UsageError("classes mod %d^%d need precision >= %d, got %d"
                         % (p, k, k + 1, prec))
    P = p ** k
    n = _newton_steps(k)
    d = invs[0].a.d
    maps = [_unit_map(g, P) for g in invs]
    # the draw of Random.choice(maps), inline: getrandbits of the bit length
    # of len(maps) until it falls below len(maps), so a seed gives the same
    # walk as through choice or randrange
    getrandbits = random.Random(seed).getrandbits
    n_maps = len(maps)
    bits = n_maps.bit_length()
    step = _mobius_u
    # visits keyed by u0 P + u1; dicts keep first-visit order
    counts = {}
    get = counts.get
    u0, u1 = x0.w.a0.val // p % P, x0.w.a1.val // p % P
    cps = sorted({c for c in checkpoints if 1 <= c <= steps})
    snaps = []
    done = 0
    for stop in cps + [max(steps, 0)]:
        for _ in range(stop - done):
            r = getrandbits(bits)
            while r >= n_maps:
                r = getrandbits(bits)
            u0, u1 = step(maps[r], u0, u1, d, P, n)
            key = u0 * P + u1
            counts[key] = get(key, 0) + 1
        done = stop
        snaps.append((stop, EmpiricalMeasure(
            k, {divmod(key, P): c for key, c in counts.items()}, stop)))
    return snaps.pop()[1], snaps
