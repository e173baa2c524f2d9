"""Fixed-precision p-adic arithmetic: Z_p and W(F_{p^2}).

A PadicNumber stores an exact residue mod p^prec together with its absolute
precision.  Ring operations keep the minimum precision of their inputs;
dividing by p^v costs exactly v digits.  There is no log or exp series:
the disc map (1 + t)^lam - 1 and the Teichmuller lift are each one modular
power, exact at the stated precision.  Ramified objects (p^a-th roots of
unity) are never represented: whether lam fixes them is read off the
digits of lam.
"""

from .errors import (ConvergenceDomain, NotAUnit, NotSplit,
                     PrecisionExhausted, ScaleExceeded, UsageError)
from .fields import is_prime, make_field, multiplicative_order, split_prime

DEFAULT_PRECISION = 24


class PadicNumber:
    """Element of Z_p known modulo p^prec."""

    __slots__ = ("p", "prec", "val")

    def __init__(self, p, prec, value):
        if prec < 1:
            raise PrecisionExhausted("precision must be at least 1")
        self.p = p
        self.prec = prec
        self.val = value % (p ** prec)

    # ---- helpers ----------------------------------------------------------

    def _common(self, other):
        if isinstance(other, int):
            other = PadicNumber(self.p, self.prec, other)
        if other.p != self.p:
            raise ValueError("mixed primes")
        return other

    def modulus(self):
        return self.p ** self.prec

    def __eq__(self, other):
        """Equality at the smaller of the two stated precisions."""
        other = self._common(other)
        m = self.p ** min(self.prec, other.prec)
        return (self.val - other.val) % m == 0

    def __hash__(self):
        return hash((self.p, self.val % self.p))

    def __repr__(self):
        return "%d + O(%d^%d)" % (self.val, self.p, self.prec)

    # ---- ring operations --------------------------------------------------

    def __add__(self, other):
        other = self._common(other)
        prec = min(self.prec, other.prec)
        return PadicNumber(self.p, prec, self.val + other.val)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._common(other)
        prec = min(self.prec, other.prec)
        return PadicNumber(self.p, prec, self.val - other.val)

    def __rsub__(self, other):
        return self._common(other) - self

    def __neg__(self):
        return PadicNumber(self.p, self.prec, -self.val)

    def __mul__(self, other):
        other = self._common(other)
        prec = min(self.prec, other.prec)
        return PadicNumber(self.p, prec, self.val * other.val)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return PadicNumber(self.p, self.prec, pow(self.val, e, self.p ** self.prec))

    def is_unit(self):
        return self.val % self.p != 0

    def is_zero(self):
        return self.val == 0

    def inverse(self):
        if not self.is_unit():
            raise NotAUnit("cannot invert %r" % self)
        return PadicNumber(self.p, self.prec, pow(self.val, -1, self.p ** self.prec))

    def __truediv__(self, other):
        other = self._common(other)
        return self * other.inverse()

    def valuation(self):
        """p-adic valuation; raises if indistinguishable from 0 at this precision."""
        if self.val == 0:
            raise PrecisionExhausted(
                "valuation of a value that is 0 mod %d^%d" % (self.p, self.prec))
        return split_prime(self.val, self.p)[0]

    def shift_down(self, v):
        """Exact division by p^v; loses v digits of precision."""
        if v == 0:
            return self
        if self.val % (self.p ** v) != 0:
            raise ValueError("value not divisible by p^%d" % v)
        if self.prec - v < 1:
            raise PrecisionExhausted("no digits left after dividing by p^%d" % v)
        return PadicNumber(self.p, self.prec - v, self.val // (self.p ** v))

    def at_precision(self, prec):
        if prec > self.prec:
            raise PrecisionExhausted("cannot gain precision")
        return PadicNumber(self.p, prec, self.val)

    # ---- I/O ----------------------------------------------------------------

    def digits(self):
        out = []
        x = self.val
        for _ in range(self.prec):
            x, r = divmod(x, self.p)
            out.append(r)
        return out

    def __str__(self):
        if self.val == 0:
            return "0 mod %d^%d" % (self.p, self.prec)
        v = self.valuation()
        unit = self.val // (self.p ** v)
        return "%d^%d * %d mod %d^%d" % (self.p, v, unit, self.p, self.prec)


# ---------------------------------------------------------------------------
# Teichmuller lifts and binomial powers

def teichmuller(x):
    """The unique (p-1)-st root of unity congruent to x mod p: x^(p^(M+1))
    mod p^M, the fixed point of y -> y^p at precision M."""
    if not x.is_unit():
        raise NotAUnit("Teichmuller lift needs a unit")
    p, M = x.p, x.prec
    return PadicNumber(p, M, pow(x.val, p ** (M + 1), p ** M))


def require_disc(t):
    """Raise ConvergenceDomain unless t = 0 or ord(t) >= 1 (>= 2 at p = 2),
    the disc on which (1 + t)^lam is continuous in lam."""
    least = 2 if t.p == 2 else 1
    if t.val != 0 and t.valuation() < least:
        raise ConvergenceDomain("(1 + t)^lam needs ord(t) >= %d" % least)


def binom_pow(t, lam):
    """(1 + t)^lam - 1 as one modular power, to M = min(t.prec, lam.prec).

    Exact, as (1 + t)^(p^n) = 1 mod p^(n+1) for ord(t) >= 1 (mod 2^(n+2) for
    ord(t) >= 2 at p = 2).  Any integral exponent is allowed; the map is an
    isometry of the disc exactly when lam is a unit.
    """
    p, M = t.p, min(t.prec, lam.prec)
    if t.val == 0 or lam.val == 0:
        return PadicNumber(p, M, 0)
    require_disc(t)
    return PadicNumber(p, M, pow(1 + t.val, lam.val, p ** M) - 1)


# ---------------------------------------------------------------------------
# unramified quadratic extension W(F_{p^2})

def smallest_nonresidue(p):
    if p == 2:
        raise ValueError("W(F_4) model needs odd p")
    return make_field(p, 1).nonresidue().enc()


class WqElement:
    """Element a0 + a1*delta of W(F_{p^2}), delta^2 = d a fixed non-residue."""

    __slots__ = ("a0", "a1", "d")

    def __init__(self, a0, a1, d=None):
        if a0.p != a1.p:
            raise ValueError("mixed primes")
        self.a0 = a0
        self.a1 = a1
        self.d = smallest_nonresidue(a0.p) if d is None else d

    @property
    def p(self):
        return self.a0.p

    @property
    def prec(self):
        return min(self.a0.prec, self.a1.prec)

    def _common(self, other):
        if isinstance(other, int):
            other = WqElement(PadicNumber(self.p, self.prec, other),
                              PadicNumber(self.p, self.prec, 0), self.d)
        elif isinstance(other, PadicNumber):
            other = WqElement(other, PadicNumber(other.p, other.prec, 0), self.d)
        return other

    def __eq__(self, other):
        other = self._common(other)
        return self.a0 == other.a0 and self.a1 == other.a1

    def __hash__(self):
        return hash((self.p, self.a0.val % self.p, self.a1.val % self.p))

    def __add__(self, other):
        other = self._common(other)
        return WqElement(self.a0 + other.a0, self.a1 + other.a1, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._common(other)
        return WqElement(self.a0 - other.a0, self.a1 - other.a1, self.d)

    def __rsub__(self, other):
        return self._common(other) - self

    def __neg__(self):
        return WqElement(-self.a0, -self.a1, self.d)

    def __mul__(self, other):
        other = self._common(other)
        a0 = self.a0 * other.a0 + self.a1 * other.a1 * self.d
        a1 = self.a0 * other.a1 + self.a1 * other.a0
        return WqElement(a0, a1, self.d)

    __rmul__ = __mul__

    def conj(self):
        """The Frobenius of W(F_{p^2}) over Z_p: delta -> -delta."""
        return WqElement(self.a0, -self.a1, self.d)

    def norm(self):
        return self.a0 * self.a0 - self.a1 * self.a1 * self.d

    def trace(self):
        return self.a0 + self.a0

    def is_unit(self):
        return self.a0.is_unit() or self.a1.is_unit()

    def inverse(self):
        n = self.norm()
        if not n.is_unit():
            raise NotAUnit("non-unit in W(F_q)")
        ninv = n.inverse()
        return WqElement(self.a0 * ninv, -self.a1 * ninv, self.d)

    def __truediv__(self, other):
        other = self._common(other)
        return self * other.inverse()

    def valuation(self):
        if self.a0.val == 0 and self.a1.val == 0:
            raise PrecisionExhausted("valuation of 0 in W(F_q)")
        vs = []
        for c in (self.a0, self.a1):
            if c.val != 0:
                vs.append(c.valuation())
        return min(vs)

    def shift_down(self, v):
        return WqElement(self.a0.shift_down(v), self.a1.shift_down(v), self.d)

    def __repr__(self):
        return "(%d + %d*r%d) mod %d^%d" % (
            self.a0.val, self.a1.val, self.d, self.p, self.prec)


def wq(p, prec, a0, a1=0):
    return WqElement(PadicNumber(p, prec, a0), PadicNumber(p, prec, a1))


# ---------------------------------------------------------------------------
# fixed circles of roots of unity

def cyclo_binom_fixed(p, a, lam):
    """True iff t -> (1+t)^lam - 1 fixes the primitive p^a-th roots of unity.

    A primitive p^a-th root 1 + t has (1+t)^lam = 1 + t exactly when
    p^a | lam - 1, so only the first a digits of lam are read.
    """
    if p != lam.p:
        raise UsageError("exponent lies in Z_%d, not Z_%d" % (lam.p, p))
    if a < 1:
        raise ValueError("level a must be >= 1")
    if not lam.is_unit():
        raise NotAUnit("exponent must be a unit")
    if lam.prec < a:
        raise PrecisionExhausted("need at least a digits of the exponent")
    return (lam.val - 1) % (p ** a) == 0


# ---------------------------------------------------------------------------
# orbit closures of n -> lam^n in Z_p^x

class ClosureDescriptor:
    """Shape of the closure of {lam^n : n in Z} inside Z_p^x.

    component_count cosets of a subgroup 1 + p^wild_valuation Z_p; when lam
    is a root of unity at the stated precision the orbit is finite instead.
    """

    def __init__(self, teich_order, wild_valuation, component_count, finite):
        self.teich_order = teich_order
        self.wild_valuation = wild_valuation
        self.component_count = component_count
        self.finite = finite

    @property
    def radius_exponent(self):
        return None if self.finite else -self.wild_valuation

    def __repr__(self):
        if self.finite:
            return "ClosureDescriptor(finite orbit of size %d)" % self.component_count
        return ("ClosureDescriptor(r=%d, wild_valuation=%d, radius=p^%d)"
                % (self.component_count, self.wild_valuation, self.radius_exponent))


def orbit_closure(lam):
    """Descriptor of the closure of the cyclic group generated by a unit lam.

    r is the order of lam mod p, or mod 4 at p = 2, where Z_2^x =
    {1, -1} x (1 + 4 Z_2).  The finite flag is certified at the stored
    precision only: lam^r = 1 mod p^prec is reported as a finite orbit of
    size r.
    """
    if not lam.is_unit():
        raise NotAUnit("orbit_closure needs a unit")
    p, M = lam.p, lam.prec
    if M < 2:
        raise PrecisionExhausted("need at least 2 digits to classify an orbit")
    if p >= 2 ** 31:
        raise ScaleExceeded("orbit closures need p < 2^31, got p = %d" % p)
    r = multiplicative_order(lam.val, 4 if p == 2 else p)
    lam_r = lam ** r
    diff = lam_r - 1
    if diff.val == 0:
        return ClosureDescriptor(r, None, r, True)
    v = diff.valuation()
    return ClosureDescriptor(r, v, r, False)


# ---------------------------------------------------------------------------
# the square-class subgroup (Z_p^x)^2 <ell>

def sat_membership(u, ell):
    """True iff the unit u lies in (Z_p^x)^2 * <ell>; when p | ell the
    only units there are the squares."""
    p = u.p
    need = 5 if p == 2 else 3
    if u.prec < need:
        raise UsageError("need precision >= %d at p = %d" % (need, p))
    if not u.is_unit():
        raise NotAUnit("sat membership is about units")
    candidates = [u.val]
    if ell % p:
        candidates.append(u.val * pow(ell, -1, p ** u.prec))
    if p == 2:
        return any(v % 8 == 1 for v in candidates)
    return any(pow(v % p, (p - 1) // 2, p) == 1 for v in candidates)


# ---------------------------------------------------------------------------
# Hensel lifting for quadratics; the unit ratio of an endomorphism

def sqrt_unit(u):
    """Square root of a unit square in Z_p (p odd), or None."""
    p, M = u.p, u.prec
    if p == 2:
        if u.val % 8 != 1:
            return None
        # lift mod 2^M by Newton on x^2 - u
        x = 1
        m = 8
        while m < 2 ** M:
            m *= 2
            if (x * x - u.val) % m != 0:
                x = x + m // 4
        return PadicNumber(2, M, x)
    # the root mod p from the field layer, then Newton
    r = make_field(p, 1).elt(u.val).sqrt()
    if r is None or r.is_zero():
        return None
    x = r.coeffs[0]
    m = p
    target = p ** M
    while m < target:
        m = min(m * m, target)
        x = (x - (x * x - u.val) * pow(2 * x, -1, m)) % m
    return PadicNumber(p, M, x)


def quadratic_roots(trace, norm, p, prec):
    """The two roots of x^2 - trace*x + norm in Z_p, by Hensel lifting.

    Requires the discriminant to be a nonzero square in Z_p (even valuation
    with square unit part); raises NotSplit otherwise.
    """
    if not is_prime(p):
        raise NotSplit("p must be prime")
    disc = trace * trace - 4 * norm
    if disc == 0:
        raise NotSplit("repeated root")
    v, d = split_prime(disc, p)
    if v % 2 == 1:
        raise NotSplit("discriminant has odd valuation at %d" % p)
    work = prec + v // 2 + 2
    su = sqrt_unit(PadicNumber(p, work, d))
    if su is None:
        raise NotSplit("discriminant is not a square at %d" % p)
    sq = su * PadicNumber(p, work, p ** (v // 2))
    if p == 2:
        if (trace + sq.val) % 2 != 0:
            raise NotSplit("roots are not 2-adic integers")
        r1 = PadicNumber(2, prec, (trace + sq.val) // 2)
        r2 = PadicNumber(2, prec, (trace - sq.val) // 2)
    else:
        half = pow(2, -1, p ** work)
        r1 = PadicNumber(p, prec, (trace + sq.val) * half)
        r2 = PadicNumber(p, prec, (trace - sq.val) * half)
    return r1, r2
