"""Finite field towers F_p < F_{p^k} and univariate polynomial algebra.

Everything is exact and deterministic.  The modulus of F_{p^k} is the first
monic irreducible of degree k in the canonical coefficient order (Rabin's
test, run in the candidate ring F_p[x]/(f) itself), elements
carry an integer encoding used for every lex tie-break in the package, and
the randomized factorization steps are driven by a caller-visible seed so
repeated runs produce identical output.

Scale: p < 2**31 with plain Python integers.  Products in F_{p^2} use a
closed form in the reduction row x^2 = r0 + r1 x, and inverses the norm.
Products in F_{p^k}, k >= 3, use Kronecker substitution: both coefficient
vectors are packed into one integer with slots of 8 to 64 bits (wider ones
for p near 2**31 and above) that hold 2k(p-1)^2, multiplied once, and the
k-1 high slots are folded back with packed rows x^j mod modulus.
"""

import math
import random
import struct
import threading

from .errors import DegreeZero, NonPrime, ZeroPolynomial

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
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
        q += 1
    if n > 1:
        out.append((n, 1))
    return out


def squarefree_split(n):
    """(core, f) with n = core * f^2 and core squarefree; n >= 1."""
    core = f = 1
    for q, e in factor(n):
        core *= q ** (e % 2)
        f *= q ** (e // 2)
    return core, f


def multiplicative_order(a, m):
    """Least r >= 1 with a^r = 1 mod m (1 when m = 1); a must be a unit.

    The order divides r = phi(m), read off factor(m); each prime q of r is
    divided out of r while a^(r/q) = 1 mod m (Cohen, Alg. 1.4.3).
    """
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError("not a unit")
    r = 1
    for q, e in factor(m):
        r *= (q - 1) * q ** (e - 1)
    for q, _ in factor(r):
        while r % q == 0 and pow(a, r // q, m) == 1 % m:
            r //= q
    return r


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

    Do not construct directly; go through :func:`make_field`, which verifies
    primality and picks the canonical modulus.  Instances are immutable and
    shared, so identity comparison is safe.  The arithmetic is that of
    F_p[x]/(modulus) for any monic modulus, with ZeroDivisionError on a
    non-unit; the modulus search relies on this to test its candidates.
    ``first_in_class`` (the first element of a class mod e-th powers) is
    the one class scan; it skips F_p when F_p^x cannot meet the class.
    """

    __slots__ = ("p", "k", "modulus", "order", "_red", "_square_set",
                 "_root_cache", "_nonresidue", "_structs", "_slot",
                 "_low_mask", "_red_packed")

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.modulus = tuple(modulus)  # length k+1, monic
        self.order = p ** k
        # reduction rows: x^j mod modulus for j in [k, 2k-2]
        red = {}
        red[k] = tuple((-c) % p for c in modulus[:k])
        for j in range(k + 1, 2 * k - 1):
            # multiply the previous row by x and reduce the overflow term
            prev = red[j - 1]
            row = [0] * k
            for i in range(k - 1):
                row[i + 1] = prev[i]
            top = prev[k - 1]
            if top:
                base = red[k]
                for i in range(k):
                    row[i] = (row[i] + top * base[i]) % p
            red[j] = tuple(row)
        self._red = red
        if k >= 3:
            self._init_kronecker()
        self._square_set = None
        self._root_cache = {}  # (e, enc(r)) -> sorted roots of x^e - r
        self._nonresidue = None

    # ---- element constructors -------------------------------------------

    def elt(self, value):
        """Element from an integer (constant) or a coefficient sequence."""
        if isinstance(value, int):
            c = [0] * self.k
            c[0] = value % self.p
            return ExtFieldElement(self, tuple(c))
        c = [v % self.p for v in value]
        if len(c) > self.k:
            raise ValueError("too many coefficients")
        c += [0] * (self.k - len(c))
        return ExtFieldElement(self, tuple(c))

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

    def _init_kronecker(self):
        """Slot layout of the packed product (k >= 3).  A slot holds a
        product coefficient plus the k-1 reduction rows folded onto it, at
        most (2k-1)(p-1)^2 < 2k(p-1)^2.  Slots of 8, 16, 32 or 64 bits are
        packed by ``struct``; wider ones (p near 2^31 and above) by shifts."""
        p, k = self.p, self.k
        bits = (2 * k * (p - 1) ** 2).bit_length()
        code = next((c for c in "BHIQ" if bits <= 8 * struct.calcsize(c)), None)
        if code is None:
            self._structs = None
            rows = [_pack_shift(self._red[j], bits) for j in range(k, 2 * k - 1)]
        else:
            bits = 8 * struct.calcsize(code)
            pk = struct.Struct("<%d%s" % (k, code))
            self._structs = (pk, struct.Struct("<%d%s" % (2 * k - 1, code)))
            rows = [int.from_bytes(pk.pack(*self._red[j]), "little")
                    for j in range(k, 2 * k - 1)]
        self._slot = bits
        self._low_mask = (1 << (bits * k)) - 1
        self._red_packed = tuple(rows)

    def _mulc(self, a, b):
        k = self.k
        if k == 2:
            # (a0 + a1 x)(b0 + b1 x) with x^2 = r0 + r1 x
            p = self.p
            a0, a1 = a
            b0, b1 = b
            t = a1 * b1
            r0, r1 = self._red[2]
            return ((a0 * b0 + t * r0) % p, (a0 * b1 + a1 * b0 + t * r1) % p)
        if k == 1:
            return (a[0] * b[0] % self.p,)
        # Kronecker substitution: one integer product; the k-1 high slots
        # are reduced mod p and folded back with the packed rows x^j mod
        # modulus, j = k, ..., 2k-2
        p = self.p
        S = self._structs
        if S is None:
            bits = self._slot
            A = _pack_shift(a, bits)
            C = A * A if a is b else A * _pack_shift(b, bits)
            high = _unpack_shift(C >> (bits * k), bits, k - 1)
        else:
            pk, pk2 = S
            A = int.from_bytes(pk.pack(*a), "little")
            C = A * A if a is b else A * int.from_bytes(pk.pack(*b), "little")
            high = pk2.unpack(C.to_bytes(pk2.size, "little"))[k:]
        low = C & self._low_mask
        for c, row in zip(high, self._red_packed):
            c %= p
            if c:
                low += c * row
        if S is None:
            return tuple([v % p for v in _unpack_shift(low, bits, k)])
        return tuple([v % p for v in pk.unpack(low.to_bytes(pk.size, "little"))])

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
        result = self.one().coeffs
        base = a
        while e:
            if e & 1:
                result = self._mulc(result, base)
            base = self._mulc(base, base)
            e >>= 1
        return result

    def _invc(self, a):
        # extended Euclid in F_p[x] against the modulus
        if not any(a):
            raise ZeroDivisionError("inversion of zero field element")
        p = self.p
        if self.k == 1:
            return (pow(a[0], -1, p),)
        if self.k == 2:
            # conjugate over the norm: with x^2 = r0 + r1 x, the product
            # (a0 + a1 x)(a0 + r1 a1 - a1 x) is a0^2 + r1 a0 a1 - r0 a1^2
            a0, a1 = a
            r0, r1 = self._red[2]
            norm = (a0 * a0 + r1 * a0 * a1 - r0 * a1 * a1) % p
            if not norm:
                raise ZeroDivisionError("element not invertible")
            inv = pow(norm, -1, p)
            return ((a0 + r1 * a1) * inv % p, -a1 * inv % p)
        r0 = list(self.modulus)
        r1 = [c for c in a]
        while r1 and r1[-1] == 0:
            r1.pop()
        t0, t1 = [0], [1]
        while True:
            if len(r1) == 1:
                inv = pow(r1[0], -1, p)
                res = [c * inv % p for c in t1]
                res += [0] * (self.k - len(res))
                return tuple(res[: self.k])
            # divide r0 by r1
            q = [0] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            inv_lead = pow(r1[-1], -1, p)
            for sh in range(len(rem) - len(r1), -1, -1):
                coef = rem[sh + len(r1) - 1] * inv_lead % p
                if coef:
                    q[sh] = coef
                    for i, c in enumerate(r1):
                        rem[sh + i] = (rem[sh + i] - coef * c) % p
            while rem and rem[-1] == 0:
                rem.pop()
            # t0, t1 = t1, t0 - q*t1
            qt = [0] * (len(q) + len(t1) - 1)
            for i, qi in enumerate(q):
                if qi:
                    for j, tj in enumerate(t1):
                        qt[i + j] = (qt[i + j] + qi * tj) % p
            nt = [0] * max(len(t0), len(qt))
            for i, c in enumerate(t0):
                nt[i] = c
            for i, c in enumerate(qt):
                nt[i] = (nt[i] - c) % p
            while nt and nt[-1] == 0:
                nt.pop()
            r0, r1 = r1, rem
            t0, t1 = t1, nt if nt else [0]
            if not r1:
                raise ZeroDivisionError("element not invertible")

    # ---- cached per-field tables ------------------------------------------

    def square_set(self):
        """Set of encodings of nonzero squares; built once, O(q)."""
        if self._square_set is None:
            s = set()
            for n in range(1, self.order):
                z = self.from_enc(n)
                s.add((z * z).enc())
            self._square_set = s
        return self._square_set

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

    def nonresidue(self):
        """The first non-square in encoding order (odd q), found once."""
        if self._nonresidue is None:
            self._nonresidue = self.first_in_class(2, self.elt(-1))
        return self._nonresidue

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
        if q % 2 == 0:
            return self ** (q // 2)
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
    """Rabin's test for the modulus f of a candidate FieldDesc, run in
    F_p[x]/(f) with the field's own arithmetic (valid for any monic f): f is
    irreducible iff x^(p^k) = x and x^(p^(k/t)) - x is a unit for every
    prime t | k.  A factor of degree 1 (x^p - x not a unit) or, for k >= 3,
    of degree 2 (x^(p^2) - x not a unit) rejects most candidates with a
    short power before x^(p^k) is taken."""
    p, k = F.p, F.k
    x = (0, 1) + (0,) * (k - 2)

    def unit(e):
        try:
            F._invc(F._subc(F._powc(x, p ** e), x))
        except ZeroDivisionError:
            return False
        return True

    short = (1, 2) if k >= 3 else (1,)
    if not all(unit(e) for e in short) or F._powc(x, p ** k) != x:
        return False
    return all(unit(k // t) for t, _ in factor(k) if k // t not in short)


def make_field(p, k):
    """F_{p^k} with the canonical modulus; cached, thread-safe.

    The modulus is the first monic irreducible of degree k when the vector
    of lower coefficients (c_0,...,c_{k-1}) is enumerated in encoding order,
    so the same (p, k) always yields the same field.
    """
    if not is_prime(p):
        raise NonPrime("p = %r is not prime" % (p,))
    if not isinstance(k, int) or k < 1:
        raise DegreeZero("extension degree must be >= 1, got %r" % (k,))
    key = (p, k)
    f = _FIELD_CACHE.get(key)
    if f is not None:
        return f
    if k == 1:
        field = FieldDesc(p, 1, (0, 1))
    else:
        field = None
        for n in range(p ** k):
            c = []
            m = n
            for _ in range(k):
                m, r = divmod(m, p)
                c.append(r)
            cand = FieldDesc(p, k, tuple(c + [1]))
            if _is_irreducible(cand):
                field = cand
                break
        if field is None:  # pragma: no cover - cannot happen
            raise RuntimeError("no irreducible polynomial found")
    with _FIELD_LOCK:
        return _FIELD_CACHE.setdefault(key, field)


# ---------------------------------------------------------------------------
# polynomials over a FieldDesc

class Poly:
    """Univariate polynomial over a FieldDesc, normalized (no zero tail).

    Coefficients are stored low-to-high as raw coefficient tuples; the
    ``coeffs`` property materializes ExtFieldElement views.
    """

    __slots__ = ("field", "_c")

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

    def __add__(self, other):
        other = self._coerce(other)
        F = self.field
        n = max(len(self._c), len(other._c))
        zero = F.zero().coeffs
        r = []
        for i in range(n):
            a = self._c[i] if i < len(self._c) else zero
            b = other._c[i] if i < len(other._c) else zero
            r.append(F._addc(a, b))
        return Poly(F, r, raw=True)

    def __sub__(self, other):
        other = self._coerce(other)
        F = self.field
        n = max(len(self._c), len(other._c))
        zero = F.zero().coeffs
        r = []
        for i in range(n):
            a = self._c[i] if i < len(self._c) else zero
            b = other._c[i] if i < len(other._c) else zero
            r.append(F._subc(a, b))
        return Poly(F, r, raw=True)

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
        F = self.field
        result = Poly(F, [1])
        base = self % m
        while e:
            if e & 1:
                result = (result * base) % m
            base = (base * base) % m
            e >>= 1
        return result

    def __call__(self, x):
        """Evaluate at an element of this field or an extension."""
        if isinstance(x, ExtFieldElement) and x.field is not self.field:
            # caller must pre-embed coefficients; see embed_poly
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


# ---------------------------------------------------------------------------
# roots and factorization

def _frobenius_map_poly(f):
    """x^q mod f for q the field order."""
    F = f.field
    return x_poly(F).pow_mod(F.order, f)


def _split_equal_degree(f, d, rng):
    """Cantor-Zassenhaus split of f into irreducibles of degree d."""
    F = f.field
    q = F.order
    n = f.degree()
    if n == d:
        return [f.monic()]
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
            if q % 2 == 1:
                h = r.pow_mod((q ** d - 1) // 2, g) - Poly(F, [1])
            else:
                # trace map for characteristic 2
                h = Poly(F, [])
                t = r % g
                bits = d * (F.k if F.p == 2 else 1)
                for _ in range(bits):
                    h = (h + t) % g
                    t = (t * t) % g
            s = g.gcd(h)
            if 0 < s.degree() < g.degree():
                stack.append(s)
                stack.append(g // s)
                break
    return out


def _pth_root_coeff(field, t):
    # c^(p^(k-1)) is the p-th root of c in F_{p^k}
    e = field.p ** (field.k - 1)
    return field._powc(t, e)


def poly_factor(f, seed=0):
    """Complete factorization into monic irreducibles with multiplicities.

    Output is sorted by (degree, coefficient encodings) and reproducible:
    the equal-degree splitting RNG is seeded from ``seed`` only.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    F = f.field
    rng = random.Random(seed)
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
            # g is a p-th power: g = h(x^p)
            stride = F.p
            h_coeffs = [_pth_root_coeff(F, g._c[i]) for i in range(0, len(g._c), stride)]
            work(Poly(F, h_coeffs, raw=True), mult * F.p)
            return
        sqf = g.gcd(d)
        if sqf.degree() > 0:
            work(g // sqf, mult)
            work(sqf, mult)
            return
        # g squarefree: distinct-degree then equal-degree
        x = x_poly(F)
        h = x % g
        rest = g
        dd = 1
        while rest.degree() >= 2 * dd:
            h = h.pow_mod(F.order, rest)
            part = rest.gcd(h - x)
            if part.degree() > 0:
                for irr in _split_equal_degree(part, dd, rng):
                    add(irr, mult)
                rest = rest // part
                h = h % rest
            dd += 1
        if rest.degree() > 0:
            add(rest.monic(), mult)

    work(f, 1)
    items = sorted(factors.values(), key=lambda t: t[0].key())
    return items


def poly_roots(f):
    """All roots of f in its coefficient field (multiplicity discarded)."""
    if f.is_zero():
        raise ZeroPolynomial("root-finding needs a nonzero polynomial")
    F = f.field
    if f.degree() == 0:
        return set()
    lin = f.gcd(_frobenius_map_poly(f) - x_poly(F))
    if lin.degree() == 0:
        return set()
    roots = set()
    for g in _split_equal_degree(lin, 1, random.Random(0)):
        roots.add(-ExtFieldElement(F, g._c[0]))
    return roots


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
