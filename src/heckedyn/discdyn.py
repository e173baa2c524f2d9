"""Dynamics on residue discs: the coordinate automorphism t -> (1+t)^lam - 1,
its multivariable form, periodic-point classification, the Moebius action of
quaternionic units on the period disc, and seeded random-walk measures.

The disc of interest is restricted to unramified points: coordinates are
elements of W(F_{p^2}) of valuation >= 1.  The Moebius chart is pinned by
two constraints: the identity matrix acts trivially, and unit matrices map
the disc into itself isometrically (every Moebius step enforces the latter
with a ChartEscape guard).
"""

import random

from .errors import (ChartEscape, NotAUnit, PrecisionExhausted,
                     SearchExhausted, UsageError)
from .padics import (PadicNumber, WqElement, binom_pow, exp, log1p,
                     smallest_nonresidue, sqrt_unit, wq)


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
    """Entrywise prod_{r,s} (1 + t_rs)^(F_inv[r][i] G_dag[s][j]) - 1,
    computed through the logarithm: exp(F_inv^T L G_dag) - 1.

    All three arguments are g x g matrices of PadicNumber; T entries need
    ord >= 1 (>= 2 for p = 2).
    """
    g = len(T)
    L = [[log1p(T[r][s]) for s in range(g)] for r in range(g)]
    out = []
    for i in range(g):
        row = []
        for j in range(g):
            acc = None
            for r in range(g):
                for s in range(g):
                    term = F_inv[r][i] * L[r][s] * G_dag[s][j]
                    acc = term if acc is None else acc + term
            if acc.val == 0:
                row.append(PadicNumber(acc.p, acc.prec, 0))
            else:
                row.append(exp(acc) - 1)
        out.append(row)
    return out


def classify_periodic(lam, m, conductor_valuation_a):
    """True iff the circle of p^a-th roots of unity is pointwise m-periodic
    for the automorphism with exponent lam; a = 0 asks about the centre."""
    if conductor_valuation_a < 0:
        raise UsageError("conductor valuation must be >= 0")
    if conductor_valuation_a == 0:
        return True
    from .padics import cyclo_binom_fixed
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


def _unit_ints(gamma, m):
    """The four coordinates (a0, a1, b0, b1) of gamma reduced mod m."""
    return (gamma.a.a0.val % m, gamma.a.a1.val % m,
            gamma.b.a0.val % m, gamma.b.a1.val % m)


def _mobius_mod(g, w0, w1, p, d, m):
    """w -> (a w + p b^sigma) / (b w + a^sigma) on w = w0 + w1*delta mod m,
    for g = (a0, a1, b0, b1) mod m and m a power of p.

    Both numerator terms have ord >= 1 and the denominator is a unit, so
    the disc {ord >= 1} maps into itself; ChartEscape guards the invariant.
    """
    a0, a1, b0, b1 = g
    n0 = a0 * w0 + d * a1 * w1 + p * b0
    n1 = a0 * w1 + a1 * w0 - p * b1
    e0 = (b0 * w0 + d * b1 * w1 + a0) % m
    e1 = (b0 * w1 + b1 * w0 - a1) % m
    if e0 % p == 0 and e1 % p == 0:
        raise ChartEscape("Moebius denominator is not a unit")
    ninv = pow(e0 * e0 - d * e1 * e1, -1, m)
    x0 = (n0 * e0 - d * n1 * e1) * ninv % m
    x1 = (n1 * e0 - n0 * e1) * ninv % m
    if x0 % p or x1 % p:
        raise ChartEscape("unit matrix left the invariant disc")
    return x0, x1


def mobius_apply(gamma, pt):
    """w -> (a w + p b^sigma) / (b w + a^sigma); an isometry of the disc,
    known to the smallest precision among gamma and pt."""
    w = pt.w
    p = gamma.p
    prec = min(gamma.a.prec, gamma.b.prec, w.prec)
    m = p ** prec
    d = gamma.a.d
    x0, x1 = _mobius_mod(_unit_ints(gamma, m), w.a0.val, w.a1.val, p, d, m)
    return DiscPoint(WqElement(PadicNumber(p, prec, x0),
                               PadicNumber(p, prec, x1), d))


def transitivity_witness(x, ell):
    """A unit gamma in the square-class subgroup with gamma(0) = x.

    Built from gamma = (a, x a^sigma; x^sigma a / p, a^sigma) with a running
    over Teichmuller representatives until the determinant certificate
    passes; a = 1 always works for odd p since det = 1 mod p.
    """
    from .ssgraph import sat_membership
    w = x.w
    p = w.p
    prec = w.prec
    if w.a0.val == 0 and w.a1.val == 0:
        return identity_unit(p, prec)
    for a0 in _teichmuller_reps(p, prec):
        a = a0
        b = w.conj() * a
        b = b.shift_down(1)
        try:
            gamma = QuatUnit(a, b)
        except NotAUnit:
            continue
        if not sat_membership(gamma.det(), ell):
            continue
        img = mobius_apply(gamma, DiscPoint(wq(p, b.prec, 0)))
        if img.w == w:
            return gamma
    raise SearchExhausted("no witness found; must not happen for odd p")


def _teichmuller_reps(p, prec):
    from .padics import teichmuller
    out = []
    for u in range(1, p):
        out.append(teichmuller(PadicNumber(p, prec, u)))
    reps = []
    for t in out:
        reps.append(WqElement(t, PadicNumber(p, prec, 0)))
    return reps


# ---------------------------------------------------------------------------
# embedding walk endomorphisms as quaternionic units

def quat_embed(trace, norm, p, prec):
    """A QuatUnit with reduced trace ``trace`` and determinant ``norm``.

    Realizes the quadratic order Z[f] inside the matrix model; solves
    Tr(a) = trace, Nm(a) - p Nm(b) = norm with a deterministic choice.
    The two possible embeddings are conjugate and yield conjugate dynamics.
    """
    if norm % p == 0:
        raise UsageError("determinant must be a unit at p")
    d = smallest_nonresidue(p)
    disc = trace * trace - 4 * norm
    if disc == 0:
        raise UsageError("scalar endomorphisms embed as scalars")
    v_disc = 0
    dd = disc
    while dd % p == 0:
        dd //= p
        v_disc += 1
    if v_disc % 2 == 0 and pow(dd % p, (p - 1) // 2, p) == 1:
        raise UsageError(
            "x^2 - %dx + %d splits at %d; no embedding into the division algebra"
            % (trace, norm, p))
    half = pow(2, -1, p ** (prec + 2))
    # try a = trace/2 + c*delta with c^2 = disc / (4 d): the inert case
    work = prec + 2
    cc = PadicNumber(p, work, disc) * PadicNumber(p, work, 4 * d).inverse()
    if cc.val % p != 0:
        c = sqrt_unit(cc)
        if c is not None:
            a = WqElement(PadicNumber(p, prec, trace) * PadicNumber(p, prec, half),
                          c.at_precision(prec))
            return QuatUnit(a, wq(p, prec, 0))
    # ramified case: choose c = p^e * unit so that (disc/4 - c^2 d)/p is a
    # nonzero norm from W (even valuation), then solve Nm(b) for b
    for e in range(0, prec // 2):
        for cu in range(1, p):
            c = PadicNumber(p, work, cu * p ** e)
            # need (trace^2/4 - c^2 d - norm)/p in Nm(W): even valuation
            t2 = PadicNumber(p, work, trace * trace) * PadicNumber(p, work, 4).inverse()
            rem = t2 - c * c * d - PadicNumber(p, work, norm)
            if rem.val == 0:
                continue
            v = rem.valuation()
            if v < 1 or (v - 1) % 2 != 0:
                continue
            unit_part = rem.shift_down(v)
            b = _solve_wq_norm(unit_part, p)
            if b is None:
                continue
            scale = PadicNumber(p, unit_part.prec, p ** ((v - 1) // 2))
            b = WqElement(b.a0 * scale, b.a1 * scale)
            a = WqElement(PadicNumber(p, b.a0.prec, trace)
                          * PadicNumber(p, b.a0.prec, 2).inverse(),
                          c.at_precision(b.a0.prec))
            gamma = QuatUnit(a, b)
            if gamma.det() == PadicNumber(p, gamma.a.a0.prec, norm):
                return gamma
    # rem has odd valuation only once 2e >= v_disc; a search stopped short
    # of that e failed for want of precision, not of an embedding
    e_needed = (v_disc + 1) // 2
    if e_needed >= prec // 2:
        raise PrecisionExhausted(
            "precision %d is too low to embed x^2 - %dx + %d; need >= %d"
            % (prec, trace, norm, 2 * e_needed + 2))
    raise SearchExhausted("no embedding found for (t, n) = (%d, %d)" % (trace, norm))


def _solve_wq_norm(u, p):
    """b in W(F_q) with Nm(b) = b0^2 - d b1^2 = u (a unit), or None."""
    d = smallest_nonresidue(p)
    prec = u.prec
    s = sqrt_unit(u)
    if s is not None:
        return WqElement(s, PadicNumber(p, prec, 0))
    # u = -d * b1^2 needs -u/d square; otherwise solve with both coords
    cand = -u * PadicNumber(p, prec, d).inverse()
    s = sqrt_unit(cand)
    if s is not None:
        return WqElement(PadicNumber(p, prec, 0), s)
    # generic: find b0 mod p with (b0^2 - u) / d a nonzero residue
    for b0 in range(1, p):
        val = (PadicNumber(p, prec, b0 * b0) - u) * PadicNumber(p, prec, d).inverse()
        if val.val % p == 0:
            continue
        s = sqrt_unit(val)
        if s is not None:
            return WqElement(PadicNumber(p, prec, b0), s)
    return None


# ---------------------------------------------------------------------------
# empirical measures of random unit-group walks

class EmpiricalMeasure:
    """Visit counts of residue classes (w/p mod p^k) of the invariant disc."""

    def __init__(self, k):
        self.k = k
        self.counts = {}
        self.total = 0

    def distribution(self):
        return {k: v / self.total for k, v in self.counts.items()}

    def tv_distance(self, other):
        keys = set(self.counts) | set(other.counts)
        s = 0.0
        for key in keys:
            s += abs(self.counts.get(key, 0) / self.total
                     - other.counts.get(key, 0) / other.total)
        return s / 2.0

    def copy(self):
        m = EmpiricalMeasure(self.k)
        m.counts = dict(self.counts)
        m.total = self.total
        return m


def random_walk(generators, x0, steps, seed, k=1, checkpoints=()):
    """Iterate uniformly random inverse generators from x0, recording the
    residue class at every step; deterministic under the seed.

    Unit Moebius maps are isometries, so the walk runs on classes of w mod
    p^(k+1), which fix the keys (w/p mod p^k); inputs must be known that far.
    Checkpoints outside 1..steps are ignored.

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
    m = p ** (k + 1)
    d = invs[0].a.d
    ints = [_unit_ints(g, m) for g in invs]
    rng = random.Random(seed)
    measure = EmpiricalMeasure(k)
    counts = measure.counts
    snaps = []
    cps = sorted({c for c in checkpoints if 1 <= c <= steps})
    w0, w1 = x0.w.a0.val % m, x0.w.a1.val % m
    for i in range(1, steps + 1):
        w0, w1 = _mobius_mod(ints[rng.randrange(len(ints))], w0, w1, p, d, m)
        key = (w0 // p, w1 // p)
        counts[key] = counts.get(key, 0) + 1
        measure.total = i
        if cps and i == cps[0]:
            snaps.append((i, measure.copy()))
            cps.pop(0)
    return measure, snaps
