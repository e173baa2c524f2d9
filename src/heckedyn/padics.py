"""Fixed-precision p-adic arithmetic: Z_p, W(F_{p^2}), cyclotomic quotients.

A PadicNumber stores an exact residue mod p^prec together with its absolute
precision.  Ring operations keep the minimum precision of their inputs;
dividing by p^v costs exactly v digits.  Ramified objects (p^a-th roots of
unity) are never represented directly; assertions about them run inside
CyclotomicRing quotients, which are exact.
"""

from .errors import (ConvergenceDomain, NotAUnit, NotSplit,
                     PrecisionExhausted)
from .fields import is_prime, make_field, multiplicative_order

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
        v = 0
        x = self.val
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

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
# logarithm / exponential / Teichmuller

def _min_valuation(p):
    # convergence domain of exp and of the isometric branch of log
    return 2 if p == 2 else 1


def log1p(t):
    """log(1 + t) for ord(t) >= 1 (>= 2 when p = 2), to t's precision.

    Computed with guard digits so the divisions by n are exact; the result
    satisfies ord(log1p(t)) = ord(t).
    """
    p, M = t.p, t.prec
    if t.val == 0:
        return PadicNumber(p, M, 0)
    if t.valuation() < _min_valuation(p):
        raise ConvergenceDomain("log1p needs ord(t) >= %d" % _min_valuation(p))
    # terms beyond nmax have valuation >= n - log_p(n) >= M; the bound
    # n - ilog_p(n) is nondecreasing, unlike n - v_p(n)
    nmax = 1
    while nmax - _ilog(p, nmax) < M + 1:
        nmax += 1
    guard = 0
    for n in range(1, nmax + 1):
        guard = max(guard, _vp(p, n))
    big = p ** (M + guard)
    acc = 0
    tn = t.val % big
    for n in range(1, nmax + 1):
        v = _vp(p, n)
        unit = n // (p ** v)
        term = (tn // (p ** v)) * pow(unit, -1, big)
        if tn % (p ** v) != 0:
            # t^n has valuation >= n > v, exact within the guard window
            raise PrecisionExhausted("guard digits exhausted in log1p")
        if n % 2 == 1:
            acc += term
        else:
            acc -= term
        tn = tn * t.val % big
    return PadicNumber(p, M, acc)


def exp(t):
    """exp(t) for ord(t) >= 1 (>= 2 when p = 2), to t's precision."""
    p, M = t.p, t.prec
    if t.val == 0:
        return PadicNumber(p, M, 1)
    if t.valuation() < _min_valuation(p):
        raise ConvergenceDomain("exp needs ord(t) >= %d" % _min_valuation(p))
    # v_p(n!) = (n - s_p(n)) / (p - 1); term valuation grows at least like
    # n * ord(t) - n/(p-1), so n <= 2M + p suffices for all p
    nmax = 2 * M + p
    guard = _vp_factorial(p, nmax) + 1
    big = p ** (M + guard)
    acc = 1
    tn = t.val % big
    fact_v = 0
    fact_unit = 1
    for n in range(1, nmax + 1):
        fact_v += _vp(p, n)
        fact_unit = fact_unit * (n // (p ** _vp(p, n))) % big
        pv = p ** fact_v
        if tn % pv != 0:
            raise PrecisionExhausted("guard digits exhausted in exp")
        acc += (tn // pv) * pow(fact_unit, -1, big)
        tn = tn * t.val % big
    return PadicNumber(p, M, acc)


def _vp(p, n):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _ilog(p, n):
    v = 0
    while p ** (v + 1) <= n:
        v += 1
    return v


def _vp_factorial(p, n):
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


def teichmuller(x):
    """The unique (p-1)-st root of unity congruent to x mod p."""
    if not x.is_unit():
        raise NotAUnit("Teichmuller lift needs a unit")
    p, M = x.p, x.prec
    m = p ** M
    w = x.val % m
    for _ in range(M + 1):
        w = pow(w, p, m)
    # after enough iterations w is the fixed point of y -> y^p
    return PadicNumber(p, M, w)


def binom_pow(t, lam):
    """(1 + t)^lam - 1 via exp(lam * log(1+t)).

    Defined for any integral exponent; it is an isometry of the disc
    exactly when lam is a unit.
    """
    if t.val == 0:
        return PadicNumber(t.p, min(t.prec, lam.prec), 0)
    if lam.val == 0:
        return PadicNumber(t.p, min(t.prec, lam.prec), 0)
    arg = lam * log1p(t)
    if arg.val == 0:
        return PadicNumber(t.p, arg.prec, 0)
    return exp(arg) - 1


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
# cyclotomic quotient rings Z_p[t] / Phi_{p^a}(1+t)

def _binomial(n, k):
    from math import comb
    return comb(n, k)


class CyclotomicRing:
    """Z/p^M [t] modulo Phi_{p^a}(1 + t); 1 + t is a primitive p^a-th root of 1.

    Coefficient arithmetic is exact mod p^M, so root-of-unity identities are
    decided exactly here without any ramified carrier.
    """

    def __init__(self, p, a, prec):
        self.p = p
        self.a = a
        self.prec = prec
        self.mod_int = p ** prec
        self.degree = p ** (a - 1) * (p - 1)
        # Phi_{p^a}(x) = sum_{i<p} x^(i p^(a-1)); substitute x = 1 + t
        deg_x = p ** (a - 1) * (p - 1)
        coeffs = [0] * (deg_x + 1)
        for i in range(p):
            e = i * p ** (a - 1)
            for k in range(e + 1):
                coeffs[k] = (coeffs[k] + _binomial(e, k)) % self.mod_int
        self.modulus = coeffs  # monic of degree self.degree

    def one(self):
        return CyclotomicRingElement(self, [1])

    def gen_plus_one(self):
        """The residue of 1 + t, a primitive p^a-th root of unity."""
        return CyclotomicRingElement(self, [1, 1])

    def reduce(self, coeffs):
        m = self.mod_int
        c = [x % m for x in coeffs]
        n = self.degree
        while len(c) > n:
            top = c.pop()
            if top:
                sh = len(c) - n
                for i in range(n):
                    c[sh + i] = (c[sh + i] - top * self.modulus[i]) % m
        while len(c) < n:
            c.append(0)
        return c


class CyclotomicRingElement:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = ring.reduce(list(coeffs))

    def __eq__(self, other):
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __mul__(self, other):
        r = self.ring
        m = r.mod_int
        a, b = self.coeffs, other.coeffs
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % m
        return CyclotomicRingElement(r, prod)

    def __pow__(self, e):
        acc = self.ring.one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc


def cyclo_binom_fixed(p, a, lam, prec=None):
    """True iff t -> (1+t)^lam - 1 fixes the primitive p^a-th roots of unity.

    Reduces to p^a | lam - 1, and independently verifies the identity
    (1+t)^(lam mod p^a) = 1 + t in Z_p[t]/Phi_{p^a}(1+t) by square-and-multiply.
    """
    if a < 1:
        raise ValueError("level a must be >= 1")
    if not lam.is_unit():
        raise NotAUnit("exponent must be a unit")
    prec = prec if prec is not None else lam.prec
    digit_test = (lam.val - 1) % (p ** a) == 0
    if lam.prec < a:
        raise PrecisionExhausted("need at least a digits of the exponent")
    ring = CyclotomicRing(p, a, min(prec, lam.prec))
    zeta = ring.gen_plus_one()
    ring_test = (zeta ** (lam.val % p ** a)) == zeta
    if ring_test != digit_test:  # pragma: no cover - both sides are exact
        raise AssertionError("cyclotomic check disagrees with digit check")
    return ring_test


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

    The finite flag is certified at the stored precision only: lam^r = 1
    mod p^prec is reported as a finite orbit of size r.
    """
    if not lam.is_unit():
        raise NotAUnit("orbit_closure needs a unit")
    p, M = lam.p, lam.prec
    if M < 2:
        raise PrecisionExhausted("need at least 2 digits to classify an orbit")
    if p == 2:
        # Z_2^x = {1,-1} x (1 + 4 Z_2)
        r = 1 if lam.val % 4 == 1 else 2
    else:
        r = multiplicative_order(lam.val, p)
    lam_r = lam ** r
    diff = lam_r - 1
    if diff.val == 0:
        return ClosureDescriptor(r, None, r, True)
    v = diff.valuation()
    return ClosureDescriptor(r, v, r, False)


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
    v = 0
    d = disc
    while d % p == 0:
        d //= p
        v += 1
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
