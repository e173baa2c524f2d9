"""Finite field towers F_p < F_{p^k} and univariate polynomial algebra.

Everything is exact and deterministic.  The modulus of F_{p^k} is the first
monic irreducible of degree k in the canonical coefficient order.  The
first p candidates are the binomials x^k + c, whose irreducibility is
decided in closed form (Lidl-Niederreiter, Thm 3.75); past them Ben-Or's
test runs in the candidate ring F_p[x]/(f) itself.  Elements
carry an integer encoding used for every lex tie-break in the package, and
the equal-degree splitting seeds its own random.Random(0), so repeated runs
produce identical output.  Factorization is squarefree, then distinct-degree
by the one loop ``distinct_degree_parts``, then equal-degree; roots are the
equal-degree split of its degree-1 part.  ``power`` is
the package's one square-and-multiply loop, here and in the curve and
volcano layers, and ``memo`` its one per-object cache: fields, curves,
isogenies and graphs each keep their answers in one ``_memo`` dict.

Scale: odd p < 2**31 with plain Python integers.  Products in F_{p^2} use a
closed form in the reduction row x^2 = r0 + r1 x, and inverses the norm.
Every other product runs in the one packed ring ``_PolyRing``: F[x]/(m)
for F = F_{p^k} and m monic of degree n, each element one integer whose
slot (2k-1) j + i holds the coefficient of t^i x^j.  A product there is one
integer product whose high slots fold back, then one reduction mod p: over
F_p with m = x^n - T, 2 deg T <= n + 1, as the high half times T, in one
or two rounds; otherwise through packed rows t^i x^j mod m.  F_{p^k},
k >= 3, is that ring over F_p with m its modulus; the canonical moduli,
x^k plus a tail of low degree, take the tail fold.  ``Poly.pow_mod``
powers in the residue ring of its modulus m: over F_p that is
``FieldDesc(p, n, m)`` itself, and over F_{p^k}, k >= 2, the packed ring.
Products, gcds and division of polynomials stay schoolbook.
"""

import functools
import math
import random
import struct
import threading
from itertools import zip_longest

from .errors import (DegreeZero, NonPrime, UnsupportedCharacteristic,
                     ZeroPolynomial)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond the 2**31 design bound."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def xgcd(a, b):
    """(g, s, t) with s*a + t*b = g, g a gcd of a and b (extended Euclid)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def factor(n):
    """Prime factorization [(q, e), ...] of n >= 1 by trial division,
    primes increasing."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            e, n = split_prime(n, q)
            out.append((q, e))
        q += 1
    if n > 1:
        out.append((n, 1))
    return out


def split_prime(n, q):
    """(v, n / q^v) with v = v_q(n), for a nonzero integer n (of either
    sign) and q >= 2."""
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v, n


def squarefree_split(n):
    """(core, f) with n = core * f^2 and core squarefree; n >= 1."""
    core = f = 1
    for q, e in factor(n):
        core *= q ** (e % 2)
        f *= q ** (e // 2)
    return core, f


def order_from_multiple(n, trivial):
    """The order of a group element g from a multiple n of it, where
    trivial(e) says whether g^e = 1: each prime q of n is divided out of
    r = n while g^(r/q) = 1 (Cohen, Alg. 1.4.3)."""
    r = n
    for q, _ in factor(n):
        while r % q == 0 and trivial(r // q):
            r //= q
    return r


def multiplicative_order(a, m):
    """Least r >= 1 with a^r = 1 mod m (1 when m = 1); a must be a unit.
    The order divides phi(m), read off factor(m)."""
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError("not a unit")
    phi = 1
    for q, e in factor(m):
        phi *= (q - 1) * q ** (e - 1)
    return order_from_multiple(phi, lambda e: pow(a, e, m) == 1 % m)


def memo(fn):
    """fn(obj, *args) computed once per object and arguments: the package's
    one per-object cache.  The result is kept in ``obj._memo`` under
    (fn's name, *args); a call that raises stores nothing.  Callers must
    not mutate what it returns."""
    name = (fn.__name__,)

    @functools.wraps(fn)
    def memoized(obj, *args):
        key = name + args
        try:
            return obj._memo[key]
        except KeyError:
            pass
        got = obj._memo[key] = fn(obj, *args)
        return got
    return memoized


def power(mul, one, a, e):
    """a^e for an integer e >= 0 by square-and-multiply, with ``mul`` the
    product and ``one`` its identity: the package's one such loop.  It
    squares with mul(a, a), so a product may shortcut equal arguments."""
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return result


def _pack_shift(a, bits):
    """sum_i a_i 2^(bits i): the Kronecker packing for slots too wide
    for ``struct``."""
    n = 0
    for c in reversed(a):
        n = (n << bits) | c
    return n


def _unpack_shift(n, bits, count):
    mask = (1 << bits) - 1
    return [(n >> (bits * i)) & mask for i in range(count)]


def encode(p, coeffs):
    """The canonical integer encoding sum(c_i p^i) of a coefficient list
    over F_p; a total order on field elements."""
    n = 0
    for c in reversed(coeffs):
        n = n * p + c
    return n


class FieldDesc:
    """F_{p^k} in polynomial basis over the monic irreducible ``modulus``.

    Do not construct a field directly; go through :func:`make_field`, which
    verifies primality and picks the canonical modulus.  Instances are
    immutable and shared, so identity comparison is safe.  The arithmetic is
    that of F_p[x]/(modulus) for any monic modulus, with ZeroDivisionError
    on a non-unit; the modulus search relies on this to test its
    candidates, and ``Poly.pow_mod`` over F_p to power in F_p[x]/(m).
    The product is chosen once per field: F_p and the closed form of F_{p^2}
    here, and for k >= 3 the packed ring ``_PolyRing`` over F_p with this
    modulus, which itself picks its fold from the modulus (through the
    tail x^k = ``_tail`` when the modulus is sparse, through rows
    otherwise).  ``_red`` is x^j mod modulus for j < 2k - 1, built only
    when a ring over this field asks for it.
    ``first_in_class`` (the first element of a class mod e-th powers) is
    the one class scan; it skips F_p when F_p^x cannot meet the class.
    """

    __slots__ = ("p", "k", "modulus", "order", "_tail", "_mulc", "_memo")

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.modulus = tuple(modulus)  # length k+1, monic
        self.order = p ** k
        # x^k = -(modulus - x^k) mod modulus
        self._tail = tuple((-c) % p for c in modulus[:k])
        if k >= 3:
            self._mulc = _PolyRing(FieldDesc(p, 1, (0, 1)),
                                    [(c,) for c in modulus]).mulc
        else:
            self._mulc = self._mul_quadratic if k == 2 else self._mul_prime
        self._memo = {}

    # ---- element constructors -------------------------------------------

    def elt(self, value):
        """The constant element given by an integer."""
        return ExtFieldElement(self, (value % self.p,) + (0,) * (self.k - 1))

    def zero(self):
        return self.elt(0)

    def one(self):
        return self.elt(1)

    def from_enc(self, n):
        """Inverse of ExtFieldElement.enc()."""
        c = []
        for _ in range(self.k):
            n, r = divmod(n, self.p)
            c.append(r)
        return ExtFieldElement(self, tuple(c))

    def elements(self):
        """All field elements in canonical (encoding) order."""
        for n in range(self.order):
            yield self.from_enc(n)

    # ---- coefficient-level arithmetic ------------------------------------

    def _mul_prime(self, a, b):
        return (a[0] * b[0] % self.p,)

    def _mul_quadratic(self, a, b):
        # (a0 + a1 x)(b0 + b1 x) with x^2 = r0 + r1 x
        p = self.p
        a0, a1 = a
        b0, b1 = b
        t = a1 * b1
        r0, r1 = self._tail
        return ((a0 * b0 + t * r0) % p, (a0 * b1 + a1 * b0 + t * r1) % p)

    def _addc(self, a, b):
        p = self.p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def _subc(self, a, b):
        p = self.p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def _negc(self, a):
        p = self.p
        return tuple([(-x) % p for x in a])

    def _smulc(self, s, a):
        p = self.p
        return tuple([s * x % p for x in a])

    def _powc(self, a, e):
        if e < 0:
            return self._powc(self._invc(a), -e)
        return power(self._mulc, self.one().coeffs, a, e)

    def _invc(self, a):
        """The inverse of a in F_p[x]/(modulus): the closed forms at k <= 2,
        else one elimination loop; ZeroDivisionError on zero or any other
        non-unit, at every k."""
        if not any(a):
            raise ZeroDivisionError("inversion of zero field element")
        p = self.p
        if self.k == 1:
            return (pow(a[0], -1, p),)
        if self.k == 2:
            # conjugate over the norm: with x^2 = r0 + r1 x, the product
            # (a0 + a1 x)(a0 + r1 a1 - a1 x) is a0^2 + r1 a0 a1 - r0 a1^2
            a0, a1 = a
            r0, r1 = self._tail
            norm = (a0 * a0 + r1 * a0 * a1 - r0 * a1 * a1) % p
            if not norm:
                raise ZeroDivisionError("element not invertible")
            inv = pow(norm, -1, p)
            return ((a0 + r1 * a1) * inv % p, -a1 * inv % p)
        # Euclid against the modulus, one top term at a time: s0 a = r0 and
        # s1 a = r1 mod the modulus, deg r0 >= deg r1 and deg s0, s1 < k, so
        # s0 - c x^sh s1 cut to k terms loses nothing
        k = self.k
        r0, r1 = list(self.modulus), list(a)
        while not r1[-1]:
            r1.pop()
        s0, s1 = [0] * k, [1] + [0] * (k - 1)
        inv = pow(r1[-1], -1, p)
        while len(r1) > 1:
            # r0 - c x^sh r1 drops the top term of r0
            c = r0.pop() * inv % p
            sh = len(r0) - len(r1) + 1
            for i, v in enumerate(r1[:-1], sh):
                r0[i] = (r0[i] - c * v) % p
            for i in range(sh, k):
                s0[i] = (s0[i] - c * s1[i - sh]) % p
            while r0 and not r0[-1]:
                r0.pop()
            if len(r0) < len(r1):
                if not r0:
                    raise ZeroDivisionError("element not invertible")
                r0, r1, s0, s1 = r1, r0, s1, s0
                inv = pow(r1[-1], -1, p)
        return tuple([c * inv % p for c in s1])

    # ---- cached per-field tables ------------------------------------------

    @memo
    def _red(self):
        """x^j mod modulus for j < 2k - 1: x^j itself below x^k, then each
        row x times the one before, its top term folded through x^k =
        ``_tail``."""
        p, k, tail = self.p, self.k, self._tail
        rows = [(0,) * j + (1,) + (0,) * (k - 1 - j) for j in range(k)]
        for _ in range(k - 1):
            row = rows[-1]
            rows.append(tuple([(row[-1] * t + r) % p
                               for t, r in zip(tail, (0,) + row[:-1])]))
        return tuple(rows)

    @memo
    def square_set(self):
        """Set of encodings of nonzero squares; built once, O(q)."""
        return {(z * z).enc() for z in map(self.from_enc, range(1, self.order))}

    def first_in_class(self, e, c):
        """The first nonzero z in encoding order with z^((q-1)/e) = c, for
        e | q - 1.  F_p^x meets exactly the classes with c^(e/g) = 1,
        g = gcd((q-1)/(p-1), e); for any other c the scan starts at p."""
        q = self.order
        g = math.gcd((q - 1) // (self.p - 1), e)
        f = (q - 1) // e
        for n in range(1 if c ** (e // g) == 1 else self.p, q):
            z = self.from_enc(n)
            if z ** f == c:
                return z
        raise ValueError("%r has no class %r mod %d-th powers" % (self, c, e))

    @memo
    def nonresidue(self):
        """The first non-square in encoding order (odd q), found once."""
        return self.first_in_class(2, self.elt(-1))

    def __repr__(self):
        return "F_%d^%d" % (self.p, self.k)


class ExtFieldElement:
    """Element of F_{p^k} as a coefficient tuple in the polynomial basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def enc(self):
        """Canonical integer encoding sum(c_i p^i); total order for ties."""
        return encode(self.field.p, self.coeffs)

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.elt(other)
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            other = self.field.elt(other)
        return ExtFieldElement(self.field, self.field._addc(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.field.elt(other)
        return ExtFieldElement(self.field, self.field._subc(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return self.field.elt(other) - self

    def __neg__(self):
        return ExtFieldElement(self.field, self.field._negc(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return ExtFieldElement(self.field, self.field._smulc(other % self.field.p, self.coeffs))
        return ExtFieldElement(self.field, self.field._mulc(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e):
        return ExtFieldElement(self.field, self.field._powc(self.coeffs, e))

    def inverse(self):
        return ExtFieldElement(self.field, self.field._invc(self.coeffs))

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.field.elt(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.elt(other) * self.inverse()

    def sqrt(self):
        """A square root, or None; Tonelli-Shanks on the cyclic unit group."""
        if self.is_zero():
            return self
        F = self.field
        q = F.order
        # write q-1 = 2^s * t; one power z = a^((t-1)/2) gives x = a^((t+1)/2)
        # and b = a^t, and Euler's criterion a^((q-1)/2) = b^(2^(s-1))
        t, s = q - 1, 0
        while t % 2 == 0:
            t //= 2
            s += 1
        z = self ** ((t - 1) // 2)
        x = self * z
        b = x * z
        one = F.one()
        e = b
        for _ in range(s - 1):
            e = e * e
        if e != one:
            return None
        c = F.nonresidue() ** t
        m = s
        while b != one:
            i, bb = 0, b
            while bb != one:
                bb = bb * bb
                i += 1
            e = c
            for _ in range(m - i - 1):
                e = e * e
            x = x * e
            c = e * e
            b = b * c
            m = i
        return x

    def __repr__(self):
        return "%r(%s)" % (self.field, ",".join(str(c) for c in self.coeffs))


# ---------------------------------------------------------------------------
# field construction

_FIELD_CACHE = {}
_FIELD_LOCK = threading.Lock()


def _is_irreducible(F):
    """Ben-Or's test for the modulus f of a candidate FieldDesc, run in
    F_p[x]/(f) with the field's own arithmetic (valid for any monic f): f
    has a factor of degree e iff it shares one with x^(p^e) - x, so f is
    irreducible iff x^(p^e) - x is a unit for every e <= k/2.  Each
    x^(p^e) is the p-th power of the one before, and a factor of small
    degree rejects f after as few powers."""
    p, k = F.p, F.k
    x = y = (0, 1) + (0,) * (k - 2)
    for _ in range(k // 2):
        y = F._powc(y, p)
        try:
            F._invc(F._subc(y, x))
        except ZeroDivisionError:
            return False
    return True


def _binomial_constant(p, k):
    """The least c >= 1 with x^k + c irreducible over F_p, or None if there
    is none (Lidl-Niederreiter, Thm 3.75): x^k - a is irreducible iff each
    prime t | k divides p - 1 and a is not a t-th power, with p = 1 mod 4
    when 4 | k.  When these hold for p, a generator of F_p^x passes."""
    primes = [t for t, _ in factor(k)]
    if any((p - 1) % t for t in primes) or (k % 4 == 0 and p % 4 != 1):
        return None
    return next(c for c in range(1, p)
                if all(pow(-c % p, (p - 1) // t, p) != 1 for t in primes))


def make_field(p, k):
    """F_{p^k} with the canonical modulus; cached, thread-safe.

    The modulus is the first monic irreducible of degree k when the vector
    of lower coefficients (c_0,...,c_{k-1}) is enumerated in encoding order,
    so the same (p, k) always yields the same field.  ``_binomial_constant``
    decides the first p, the binomials x^k + c; Ben-Or's test scans the rest.
    """
    if not is_prime(p):
        raise NonPrime("p = %r is not prime" % (p,))
    if p == 2:
        raise UnsupportedCharacteristic("the field layer needs odd p")
    if not isinstance(k, int) or k < 1:
        raise DegreeZero("extension degree must be >= 1, got %r" % (k,))
    key = (p, k)
    f = _FIELD_CACHE.get(key)
    if f is not None:
        return f
    c = 0 if k == 1 else _binomial_constant(p, k)
    if c is not None:
        field = FieldDesc(p, k, (c,) + (0,) * (k - 1) + (1,))
    else:
        for n in range(p, p ** k):
            field = FieldDesc(p, k, tuple(n // p ** i % p for i in range(k)) + (1,))
            if _is_irreducible(field):
                break
    with _FIELD_LOCK:
        return _FIELD_CACHE.setdefault(key, field)


# ---------------------------------------------------------------------------
# polynomials over a FieldDesc

class Poly:
    """Univariate polynomial over a FieldDesc, normalized (no zero tail).

    Coefficients are stored low-to-high as raw coefficient tuples; the
    ``coeffs`` property materializes ExtFieldElement views.
    """

    __slots__ = ("field", "_c", "_ring")

    def __init__(self, field, coeffs, raw=False):
        self.field = field
        if raw:
            c = list(coeffs)
        else:
            c = []
            for v in coeffs:
                if isinstance(v, ExtFieldElement):
                    c.append(v.coeffs)
                elif isinstance(v, int):
                    c.append(field.elt(v).coeffs)
                else:
                    c.append(tuple(x % field.p for x in v))
        while c and not any(c[-1]):
            c.pop()
        self._c = c

    @property
    def coeffs(self):
        return [ExtFieldElement(self.field, t) for t in self._c]

    def degree(self):
        return len(self._c) - 1

    def is_zero(self):
        return not self._c

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field is other.field and self._c == other._c

    def __hash__(self):
        return hash((id(self.field), tuple(self._c)))

    def key(self):
        """Deterministic sort key: degree, then coefficient encodings."""
        p = self.field.p
        return (self.degree(), tuple(encode(p, t) for t in self._c))

    def _termwise(self, other, op):
        """op on the coefficient pairs, the shorter polynomial padded with 0."""
        F = self.field
        pairs = zip_longest(self._c, self._coerce(other)._c,
                            fillvalue=F.zero().coeffs)
        return Poly(F, [op(a, b) for a, b in pairs], raw=True)

    def __add__(self, other):
        return self._termwise(other, self.field._addc)

    def __sub__(self, other):
        return self._termwise(other, self.field._subc)

    def __neg__(self):
        F = self.field
        return Poly(F, [F._negc(t) for t in self._c], raw=True)

    def __mul__(self, other):
        other = self._coerce(other)
        F = self.field
        if not self._c or not other._c:
            return Poly(F, [], raw=True)
        zero = F.zero().coeffs
        r = [zero] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if any(a):
                for j, b in enumerate(other._c):
                    if any(b):
                        r[i + j] = F._addc(r[i + j], F._mulc(a, b))
        return Poly(F, r, raw=True)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, ExtFieldElement)):
            return Poly(self.field, [other])
        raise TypeError(other)

    def scale(self, s):
        if isinstance(s, int):
            s = self.field.elt(s)
        F = self.field
        return Poly(F, [F._mulc(s.coeffs, t) for t in self._c], raw=True)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        if self.degree() < other.degree():
            return Poly(F, [], raw=True), self
        inv_lead = F._invc(other._c[-1])
        rem = list(self._c)
        qlen = len(rem) - len(other._c) + 1
        zero = F.zero().coeffs
        q = [zero] * qlen
        for sh in range(qlen - 1, -1, -1):
            coef = F._mulc(rem[sh + len(other._c) - 1], inv_lead)
            if any(coef):
                q[sh] = coef
                for i, c in enumerate(other._c):
                    if any(c):
                        rem[sh + i] = F._subc(rem[sh + i], F._mulc(coef, c))
        return Poly(F, q, raw=True), Poly(F, rem[: len(other._c) - 1], raw=True)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        F = self.field
        inv = F._invc(self._c[-1])
        return Poly(F, [F._mulc(inv, t) for t in self._c], raw=True)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self):
        F = self.field
        r = [F._smulc(i, t) for i, t in enumerate(self._c)][1:]
        return Poly(F, r, raw=True)

    def pow_mod(self, e, m):
        """self^e mod m for e >= 0, by square-and-multiply in the residue
        ring of m (built once per modulus and kept on m): ``FieldDesc(p, n,
        m)`` over F_p, a ``_PolyRing`` over F_{p^k}.  A negative e raises
        ValueError, a zero m ZeroDivisionError, and a constant m gives the
        zero polynomial."""
        if e < 0:
            raise ValueError("pow_mod needs e >= 0, got %d" % e)
        F = self.field
        base = self % m
        n = m.degree()
        if n == 0:
            return Poly(F, [], raw=True)
        ring = getattr(m, "_ring", None)
        if ring is None:
            mc = m.monic()._c
            if F.k == 1:
                ring = FieldDesc(F.p, n, [c[0] for c in mc])
            else:
                ring = _PolyRing(F, mc)
            m._ring = ring
        if F.k > 1:
            return Poly(F, ring.powc(base._c, e), raw=True)
        a = [c[0] for c in base._c]
        a += [0] * (n - len(a))
        return Poly(F, [(c,) for c in ring._powc(tuple(a), e)], raw=True)

    def __call__(self, x):
        """Evaluate at an element of this polynomial's field.  An element
        of any other field, an extension included, raises ValueError: map
        the coefficients into its field with ``embed_poly`` first."""
        if isinstance(x, ExtFieldElement) and x.field is not self.field:
            raise ValueError("evaluate via embed_poly for extension fields")
        F = self.field
        acc = F.zero().coeffs
        for t in reversed(self._c):
            acc = F._addc(F._mulc(acc, x.coeffs), t)
        return ExtFieldElement(F, acc)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, t in enumerate(self._c):
            if any(t):
                terms.append("(%s)x^%d" % (",".join(map(str, t)), i))
        return "Poly[" + " + ".join(terms) + "]"


def x_poly(field):
    return Poly(field, [0, 1])


class _PolyRing:
    """F[x]/(m) for F = F_{p^k} and m monic of degree n >= 1, each element
    packed into one integer for its products; the package's one packed
    product.  With t the generator of F, the coefficient of t^i x^j sits in
    slot (2k-1) j + i, so the product of two reduced elements (i < k,
    j < n) is one integer product whose slots hold every term without a
    carry.  ``mulc(a, b)`` takes two reduced elements as their n w slot
    values and returns their product as such a tuple.  Over F_p (k = 1)
    the slots are the coefficients of x^j, and ``mulc`` is the product of
    F_{p^n} with modulus m, n >= 3.

    The slots past i < k or j < n fold back in one of two ways, chosen
    once from m.  Over F_p, when m = x^n - T(x) with 2 deg T <= n + 1,
    ``mulc`` folds through the tail: the high half H of the product comes
    back as H T, one integer product, in one round when deg T <= 1 and two
    otherwise, with no slot unpacked or reduced in between (von zur
    Gathen-Gerhard, Modern Computer Algebra, 8.4); such a ring builds no
    rows.  Every other ring (over F_{p^k}, k >= 2, or with a denser m)
    folds each slot, reduced mod p, through packed rows t^i x^j mod m:
    for j < n the field's rows t^i mod its modulus, for j >= n rows built
    from x^n = -(m - x^n) by shifting one x-slot at a time.  Either way
    each slot is then reduced mod p once."""

    __slots__ = ("p", "k", "n", "_w", "_bits", "_structs", "_read",
                 "_folded", "_mask", "_rows", "_tail", "mulc")

    def __init__(self, F, m):
        p, k, n = F.p, F.k, len(m) - 1
        w = 2 * k - 1
        nw = n * w
        self.p, self.k, self.n, self._w = p, k, n, w
        if k == 1:
            # m = x^n - T(x) with T = sum t_i x^i of degree d
            tail = [(-c) % p for c, in m[:n]]
            d = max((i for i, t in enumerate(tail) if t), default=-1)
            if 2 * d <= n + 1:
                # a product slot holds at most n (p-1)^2, and a round
                # adds at most sum(t_i) times the largest slot to each;
                # ``_mul_tail`` reads the high half from bit ``_read`` on
                rounds = 1 if d <= 1 else 2
                self._slots(n * (p - 1) ** 2 * (1 + sum(tail)) ** rounds,
                            (n,))
                self._read = self._bits * n
                self._mask = (1 << self._read) - 1
                self._tail = self._pack(tail)
                self.mulc = self._mul_tail
                return
        # a low slot gathers at most n k product terms and one term from
        # each of the (n - 1) w rows past x^n and the k - 1 rows past t^k,
        # each term below p^2
        self._slots((n * k + (n - 1) * w + k - 1) * (p - 1) ** 2,
                    (nw, 2 * nw - w))
        bits = self._bits
        # ``_mul_rows`` reads a product's slots from slot ``first`` on: a
        # slot packed by shifts costs a shift to read, so when only the
        # slots past x^n fold (k = 1) the rest are skipped.  ``_folded``
        # slices out the slots that fold, in the order of the rows: those
        # past x^n, then those past t^k below x^n
        first = nw if k == 1 and self._structs is None else 0
        self._read = (bits * first, 2 * nw - w - first)
        self._folded = (slice(nw - first, None),
                        tuple(slice(i, nw, w) for i in range(k, w)))
        group = bits * w
        top = (1 << bits) - 1
        self._mask = self._pack([top if i < k else 0
                                 for _ in range(n) for i in range(w)])
        # t^i x^n = -t^i (m - x^n) for every i < 2k - 1
        t_pow = F._red()
        neg_m = [F._negc(c) for c in m[:n]]
        base = [self._pack(self._flat([F._mulc(t, c) for c in neg_m]))
                for t in t_pow]
        low = (1 << (group * n)) - 1

        def times_x(r):
            # the top x-slot of x r, of t-degree < k, folds through base
            r <<= group
            hi, r = r >> (group * n), r & low
            for i in range(k):
                c = (hi >> (bits * i)) & top
                if c:
                    r += c * base[i]
            return self._pack([v % p for v in self._unpack(r)])

        rows, row = [], base
        for j in range(n, 2 * n - 1):
            rows += row
            if j < 2 * n - 2:
                row = [times_x(r) for r in row]
        # slot (j, i) with j < n, i >= k: the field's row t^i mod modulus
        for i in range(k, w):
            r = _pack_shift(t_pow[i], bits)
            rows += [r << (group * j) for j in range(n)]
        self._rows = rows
        self.mulc = self._mul_rows

    def _slots(self, bound, counts):
        """Slots wide enough for values up to bound: 8, 16, 32 or 64 bits
        packed by ``struct`` (one format per slot count in counts), wider
        ones (p near 2^31 and above) by shifts."""
        bits = bound.bit_length()
        code = next((c for c in "BHIQ" if bits <= 8 * struct.calcsize(c)),
                    None)
        self._structs = None
        if code is not None:
            bits = 8 * struct.calcsize(code)
            self._structs = tuple(struct.Struct("<%d%s" % (count, code))
                                  for count in counts)
        self._bits = bits

    def _pack(self, vals):
        """The integer with the n w slot values ``vals``."""
        S = self._structs
        if S is None:
            return _pack_shift(vals, self._bits)
        return int.from_bytes(S[0].pack(*vals), "little")

    def _unpack(self, c):
        """The n w slot values of a packed element."""
        S = self._structs
        if S is None:
            return _unpack_shift(c, self._bits, self.n * self._w)
        return S[0].unpack(c.to_bytes(S[0].size, "little"))

    def _flat(self, coeffs):
        """The n w slot values of at most n coefficient tuples."""
        pad = (0,) * (self.k - 1)
        flat = [v for c in coeffs for v in c + pad]
        return tuple(flat + [0] * (self.n * self._w - len(flat)))

    def _mul_tail(self, a, b):
        """``mulc`` through the tail: one integer product c, then
        c = (c mod x^n) + (c div x^n) T while slots past x^n remain, then
        each slot reduced mod p."""
        p, S = self.p, self._structs
        if S is None:
            bits = self._bits
            A = _pack_shift(a, bits)
            c = A * A if a is b else A * _pack_shift(b, bits)
        else:
            pk, = S
            A = int.from_bytes(pk.pack(*a), "little")
            c = A * A if a is b else A * int.from_bytes(pk.pack(*b), "little")
        low, shift, tail = self._mask, self._read, self._tail
        while c > low:
            c = (c & low) + (c >> shift) * tail
        if S is None:
            vals = _unpack_shift(c, bits, self.n)
        else:
            vals = pk.unpack(c.to_bytes(pk.size, "little"))
        return tuple([v % p for v in vals])

    def _mul_rows(self, a, b):
        """``mulc`` through the rows: one integer product, then the slots
        past t^k and x^n, each reduced mod p, fold back through the rows."""
        p, S = self.p, self._structs
        if S is None:
            bits = self._bits
            A = _pack_shift(a, bits)
            c = A * A if a is b else A * _pack_shift(b, bits)
            skip, count = self._read
            vals = _unpack_shift(c >> skip, bits, count)
        else:
            pk, pk2 = S
            A = int.from_bytes(pk.pack(*a), "little")
            c = A * A if a is b else A * int.from_bytes(pk.pack(*b), "little")
            vals = pk2.unpack(c.to_bytes(pk2.size, "little"))
        past_x, past_t = self._folded
        high = vals[past_x]
        for s in past_t:
            high += vals[s]
        acc = c & self._mask
        for v, row in zip(high, self._rows):
            v %= p
            if v:
                acc += v * row
        if S is None:
            vals = _unpack_shift(acc, bits, len(a))
        else:
            vals = pk.unpack(acc.to_bytes(pk.size, "little"))
        return tuple([v % p for v in vals])

    def powc(self, a, e):
        """a^e for a list of at most n coefficient tuples, as n tuples."""
        k = self.k
        result = power(self.mulc, self._flat([(1,) + (0,) * (k - 1)]),
                       self._flat(a), e)
        return [result[j:j + k] for j in range(0, len(result), self._w)]


# ---------------------------------------------------------------------------
# roots and factorization

def split_equal_degree(f, d):
    """Cantor-Zassenhaus split of f, a product of distinct irreducibles of
    degree d, into those irreducibles; the random splitters come from
    random.Random(0), so the output is reproducible."""
    F = f.field
    q = F.order
    rng = random.Random(0)
    out = []
    stack = [f.monic()]
    while stack:
        g = stack.pop()
        if g.degree() == d:
            out.append(g)
            continue
        while True:
            r = Poly(F, [F.from_enc(rng.randrange(q)) for _ in range(g.degree())])
            if r.is_zero():
                continue
            h = r.pow_mod((q ** d - 1) // 2, g) - Poly(F, [1])
            s = g.gcd(h)
            if 0 < s.degree() < g.degree():
                stack.append(s)
                stack.append(g // s)
                break
    return out


def distinct_degree_parts(f, top=None):
    """[(d, f_d), ...] for a nonzero f: f_d is the monic product of the
    distinct irreducible factors of f of degree d, listed for each d <= top
    (every d when top is None) with f_d != 1.  The roots of f_d are those
    of x^(q^d) - x that no smaller d took; every further copy of them is
    divided out of the rest, so once degree(rest) < 2d, the rest is
    irreducible.  With top = 1 the entry, if any, is (1, gcd(f, x^q - x)),
    whose roots are those of f in F_q."""
    F = f.field
    x = x_poly(F)
    rest = f.monic()
    h = x % rest
    out = []
    d = 1
    while rest.degree() >= 2 * d and (top is None or d <= top):
        h = h.pow_mod(F.order, rest)
        part = rest.gcd(h - x)
        if part.degree() > 0:
            out.append((d, part))
            g = part
            while g.degree() > 0:
                rest = rest // g
                g = rest.gcd(g)
            h = h % rest
        d += 1
    if rest.degree() > 0 and (top is None or rest.degree() <= top):
        out.append((rest.degree(), rest))
    return out


def poly_factor(f):
    """Complete factorization into monic irreducibles with multiplicities,
    sorted by (degree, coefficient encodings)."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    F = f.field
    factors = {}

    def add(g, mult):
        key = g.key()
        if key in factors:
            factors[key] = (g, factors[key][1] + mult)
        else:
            factors[key] = (g, mult)

    def work(g, mult):
        g = g.monic()
        if g.degree() == 0:
            return
        d = g.derivative()
        if d.is_zero():
            # g = h(x^p) is a p-th power; c^(p^(k-1)) is the p-th root of c
            e = F.p ** (F.k - 1)
            h_coeffs = [F._powc(g._c[i], e) for i in range(0, len(g._c), F.p)]
            work(Poly(F, h_coeffs, raw=True), mult * F.p)
            return
        sqf = g.gcd(d)
        if sqf.degree() > 0:
            work(g // sqf, mult)
            work(sqf, mult)
            return
        for dd, part in distinct_degree_parts(g):
            for irr in split_equal_degree(part, dd):
                add(irr, mult)

    work(f, 1)
    items = sorted(factors.values(), key=lambda t: t[0].key())
    return items


def poly_roots(f):
    """All roots of f in its coefficient field (multiplicity discarded), by
    splitting the degree-1 part gcd(f, x^q - x) into linear factors."""
    if f.is_zero():
        raise ZeroPolynomial("root-finding needs a nonzero polynomial")
    parts = distinct_degree_parts(f, 1)
    if not parts:
        return set()
    return {-ExtFieldElement(f.field, g._c[0])
            for g in split_equal_degree(parts[0][1], 1)}


# ---------------------------------------------------------------------------
# tower embeddings

_EMBED_CACHE = {}
_EMBED_LOCK = threading.Lock()

class Embedding:
    """Field embedding F_{p^k} -> F_{p^{km}} via a chosen root of the modulus."""

    def __init__(self, small, big, root):
        self.small = small
        self.big = big
        self.root = root

    def __call__(self, elt):
        if elt.field is self.big:
            return elt
        if elt.field is not self.small:
            raise ValueError("element not in the source field")
        B = self.big
        acc = B.zero()
        for c in reversed(elt.coeffs):
            acc = acc * self.root + c
        return acc


def embedding(small, big):
    """Cached embedding; the root of the small modulus is chosen lex-smallest."""
    if small is big:
        return Embedding(small, big, big.one())
    if small.p != big.p or big.k % small.k != 0:
        raise ValueError("no embedding %r -> %r" % (small, big))
    key = (id(small), id(big))
    emb = _EMBED_CACHE.get(key)
    if emb is not None:
        return emb
    if small.k == 1:
        emb = Embedding(small, big, big.one())
    else:
        mod_in_big = Poly(big, [big.elt(c) for c in small.modulus])
        roots = sorted(poly_roots(mod_in_big), key=lambda r: r.enc())
        emb = Embedding(small, big, roots[0])
    with _EMBED_LOCK:
        return _EMBED_CACHE.setdefault(key, emb)


def embed_poly(f, big):
    """Coefficientwise image of f under embedding(f.field, big)."""
    emb = embedding(f.field, big)
    return Poly(big, [emb(c) for c in f.coeffs])
