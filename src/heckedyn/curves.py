"""Elliptic curves over F_{p^k}, p >= 5: points, isogenies, torsion bases.

Short Weierstrass models only; the package excludes characteristics 2 and 3
throughout the curve layer.  Supersingularity is read off the Hasse
invariant, and a canonical supersingular model is picked by the order of one
point, so the supersingular side never counts points.  Traces of Frobenius
over F_p come from Shanks-Mestre baby-step giant-step for p > 229 and from
the exhaustive count below that; a caller that knows a count by base change
passes it to ``Curve``.  A canonical model is tested once per class mod
4th / 6th powers (``FieldDesc.first_in_class``).
The rational ell-subgroups are read off the cycles in which one [g],
g a generator of (Z/ell)^x / {+-1}, permutes the factors of psi_ell.
Torsion points over larger extensions are produced by cofactor
multiplication, never by root finding in big fields.  On canonical models
the cofactor is that of the group exponent p^r - 1.  A point with x in F_p
lies in E(F_{q^2}), so the basis scan skips F_p whenever ell^e does not
divide p^2 - 1 (canonical models) or #E(F_{q^2}) (the others).  Scalar
multiplication runs in Jacobian coordinates with one field inversion at
the end.  ``torsion_grid`` is the one index of E[N]: it holds
P = i P1 + j P2 at (i, j).  Off the two axes each P is an affine chord sum
with its denominator inverted in one batch, and half of the grid is the
negation of the other half.  The grid is cached on the curve together with
its inverse ``torsion_index``, so ``torsion_coordinates`` is one lookup.
``action_matrix`` reads a map on E[m] as a 2x2 matrix mod m against the
torsion bases of its source and target; a chain's trace mod m is the trace
of its matrix.
"""

import math

from .errors import (BadTorsionOrder, EqualCharacteristic, InvariantBreach,
                     NotAKernel, NotSupersingular, TraceAmbiguous,
                     UnsupportedCharacteristic)
from .fields import (ExtFieldElement, Poly, embed_poly, embedding, factor,
                     make_field, multiplicative_order, poly_factor,
                     poly_roots, x_poly)

AUX_TRACE_PRIMES = (5, 7, 11, 13, 17, 19, 23)
# largest degree over F_p of the field of E[m] for an auxiliary prime m
MAX_AUX_EXT_DEGREE = 40


class Curve:
    """y^2 = x^3 + a x + b over a FieldDesc with p >= 5; ``count`` is
    #E(field) when the caller already knows it."""

    def __init__(self, field, a, b, count=None):
        if field.p < 5:
            raise UnsupportedCharacteristic(
                "curve layer needs p >= 5, got p = %d" % field.p)
        if isinstance(a, int):
            a = field.elt(a)
        if isinstance(b, int):
            b = field.elt(b)
        self.field = field
        self.a = a
        self.b = b
        disc = a * a * a * 4 + b * b * 27
        if disc.is_zero():
            raise ValueError("singular curve")
        self.canonical_ss = False
        self._count = count
        self._divpoly = {}
        self._xi_cache = {}
        self._coeff_cache = {}
        self._kernel_cache = {}
        self._torsion_cache = {}

    def key(self):
        return (self.field.p, self.field.k, self.a.enc(), self.b.enc())

    def __eq__(self, other):
        return isinstance(other, Curve) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Curve(y^2 = x^3 + %d x + %d over %r)" % (
            self.a.enc(), self.b.enc(), self.field)

    def rhs_poly(self):
        return Poly(self.field, [self.b, self.a, self.field.zero(), self.field.one()])

    def coeffs_in(self, field):
        """(a, b) embedded into an extension field, cached."""
        got = self._coeff_cache.get(id(field))
        if got is None:
            emb = embedding(self.field, field)
            got = (emb(self.a), emb(self.b))
            self._coeff_cache[id(field)] = got
        return got

    def infinity(self, field=None):
        return CurvePoint(self, field or self.field, None, None, True)

    def point(self, x, y, field=None):
        field = field or x.field
        return CurvePoint(self, field, x, y, False)

    def lift_x(self, x):
        """The point (x, y) with lex-smaller y, or None."""
        a, b = self.coeffs_in(x.field)
        rhs = (x * x + a) * x + b
        y = rhs.sqrt()
        if y is None:
            return None
        y2 = -y
        if y2.enc() < y.enc():
            y = y2
        return CurvePoint(self, x.field, x, y, False)


class CurvePoint:
    """Affine point or infinity, with coordinates in field >= curve.field."""

    __slots__ = ("curve", "field", "x", "y", "inf")

    def __init__(self, curve, field, x, y, inf=False, check=True):
        self.curve = curve
        self.field = field
        self.x = x
        self.y = y
        self.inf = inf
        if check and not inf:
            a, b = curve.coeffs_in(field)
            if y * y != (x * x + a) * x + b:
                raise ValueError("point is not on the curve")

    def key(self):
        if self.inf:
            return (-1, -1)
        return (self.x.enc(), self.y.enc())

    def __eq__(self, other):
        if self.inf or other.inf:
            return self.inf and other.inf
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.curve.key(), self.key()))

    def __neg__(self):
        if self.inf:
            return self
        return CurvePoint(self.curve, self.field, self.x, -self.y, False, check=False)

    def __add__(self, other):
        if self.inf:
            return other
        if other.inf:
            return self
        if self.x == other.x:
            if self.y == -other.y:
                return CurvePoint(self.curve, self.field, None, None, True)
            # doubling
            a, _ = self.curve.coeffs_in(self.field)
            lam = (self.x * self.x * 3 + a) / (self.y * 2)
        else:
            lam = (other.y - self.y) / (other.x - self.x)
        x3 = lam * lam - self.x - other.x
        y3 = lam * (self.x - x3) - self.y
        return CurvePoint(self.curve, self.field, x3, y3, False, check=False)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, n):
        """[n]P by left-to-right double-and-add in Jacobian coordinates
        (x, y) = (X/Z^2, Y/Z^3), adding the affine P; one inversion at the end."""
        if n < 0:
            return (-n) * (-self)
        F = self.field
        if n == 0 or self.inf:
            return CurvePoint(self.curve, F, None, None, True)
        a = self.curve.coeffs_in(F)[0].coeffs
        x, y = self.x.coeffs, self.y.coeffs
        X, Y, Z = x, y, F.one().coeffs
        for bit in bin(n)[3:]:
            X, Y, Z = _jacobian_double(F, a, X, Y, Z)
            if bit == "1":
                X, Y, Z = _jacobian_add(F, a, X, Y, Z, x, y)
        if not any(Z):
            return CurvePoint(self.curve, F, None, None, True)
        return _affine(self.curve, F, [(X, Y, Z)])[0]

    def __repr__(self):
        if self.inf:
            return "Point(inf)"
        return "Point(%d, %d)" % (self.x.enc(), self.y.enc())


def _jacobian_double(F, a, X, Y, Z):
    """2(X : Y : Z) on y^2 = x^3 + ax + b.  Z = 0 is the point at infinity:
    it stays there, and the double of a point with Y = 0 lands there."""
    mul, add, sub, smul = F._mulc, F._addc, F._subc, F._smulc
    YY = mul(Y, Y)
    ZZ = mul(Z, Z)
    S = smul(4, mul(X, YY))
    M = add(smul(3, mul(X, X)), mul(a, mul(ZZ, ZZ)))
    X3 = sub(mul(M, M), add(S, S))
    Y3 = sub(mul(M, sub(S, X3)), smul(8, mul(YY, YY)))
    return X3, Y3, smul(2, mul(Y, Z))


def _jacobian_add(F, a, X, Y, Z, x, y):
    """(X : Y : Z) + (x, y) with (x, y) affine."""
    if not any(Z):
        return x, y, F.one().coeffs
    mul, add, sub = F._mulc, F._addc, F._subc
    ZZ = mul(Z, Z)
    H = sub(mul(x, ZZ), X)
    r = sub(mul(y, mul(Z, ZZ)), Y)
    if not any(H):
        if any(r):
            return X, Y, F.zero().coeffs
        return _jacobian_double(F, a, X, Y, Z)
    HH = mul(H, H)
    HHH = mul(H, HH)
    V = mul(X, HH)
    X3 = sub(sub(mul(r, r), HHH), add(V, V))
    Y3 = sub(mul(r, sub(V, X3)), mul(Y, HHH))
    return X3, Y3, mul(Z, H)


def _batch_inverse(F, values):
    """The inverses of the nonzero values in F with one field inversion:
    prefix products, one inverse of the last, then a walk back (Montgomery's
    trick).  ZeroDivisionError when a value is zero."""
    mul = F._mulc
    prefix = [values[0]]
    for v in values[1:]:
        prefix.append(mul(prefix[-1], v))
    inv = F._invc(prefix[-1])
    out = [None] * len(values)
    for i in range(len(values) - 1, 0, -1):
        out[i] = mul(inv, prefix[i - 1])
        inv = mul(inv, values[i])
    out[0] = inv
    return out


def _affine(E, F, points):
    """The affine points of E over F for Jacobian triples (X, Y, Z), none at
    infinity, with one batch inversion of the Z."""
    mul = F._mulc
    out = []
    inverses = _batch_inverse(F, [Z for _, _, Z in points])
    for (X, Y, _), zi in zip(points, inverses):
        zi2 = mul(zi, zi)
        out.append(CurvePoint(E, F, ExtFieldElement(F, mul(X, zi2)),
                              ExtFieldElement(F, mul(mul(Y, zi2), zi)), False,
                              check=False))
    return out


# ---------------------------------------------------------------------------
# invariants, counting, supersingularity

def j_invariant(E):
    """The j-invariant 1728 * 4a^3 / (4a^3 + 27b^2)."""
    a3 = E.a * E.a * E.a * 4
    disc = a3 + E.b * E.b * 27
    return a3 * 1728 / disc


def model_from_j(field, j):
    """A short Weierstrass model over ``field`` with the given j-invariant."""
    if j.is_zero():
        return Curve(field, field.zero(), field.one())
    if j == 1728:
        return Curve(field, field.one(), field.zero())
    c = j / (field.elt(1728) - j)
    return Curve(field, c * 3, c * 2)


def count_points(E):
    """#E(F_q) by exhaustive scan with a cached square table, unless the
    count is already known; the reference for every other count."""
    if E._count is None:
        F = E.field
        sq = F.square_set()
        a, b = E.a, E.b
        n = 1
        for e in range(F.order):
            x = F.from_enc(e)
            rhs = (x * x + a) * x + b
            if rhs.is_zero():
                n += 1
            elif rhs.enc() in sq:
                n += 2
        E._count = n
    return E._count


def trace_of_frobenius(E):
    """q + 1 - #E(F_q): by Shanks-Mestre over F_p with p > MESTRE_MIN_P,
    otherwise by the exhaustive count."""
    F = E.field
    if E._count is None and F.k == 1 and F.p > MESTRE_MIN_P:
        E._count = _mestre_count(E)
    return F.order + 1 - count_points(E)


# above this p the orders of points on E and its twist fix #E(F_p)
# (Mestre-Schoof; Cremona-Sutherland 2010 lower it to 29); the first
# MESTRE_MAX_X values of x give those orders or the count fails fast
MESTRE_MIN_P = 229
MESTRE_MAX_X = 1000


def _mestre_count(E):
    """#E(F_p) from the orders of points on E and on its quadratic twist E'
    (Cohen 7.4.12).  #E and #E' = 2p + 2 - #E lie in the Hasse interval;
    with L, L' the lcms of the orders found on each, #E is the one N there
    with L | N and L' | 2p + 2 - N.  Each x in encoding order gives a point
    P on E or on E' (twisted by the first non-residue d), and L ord(LP) =
    lcm(L, ord P), where ord(LP) is found by baby-step giant-step over the
    multiples of L in the interval: O(p^(1/4)) group operations."""
    F = E.field
    p = F.p
    w = math.isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    d = F.nonresidue()
    twist = Curve(F, E.a * d * d, E.b * d * d * d)
    lcm = [1, 1]
    for enc in range(min(p, MESTRE_MAX_X)):
        x = F.from_enc(enc)
        P = E.lift_x(x)
        side = 0
        if P is None:
            side = 1
            P = twist.lift_x(x * d)
        if P.y.is_zero():
            continue
        L = lcm[side]
        Q = L * P
        if Q.inf:
            continue
        lcm[side] = L * _point_order(Q, -(-lo // L), hi // L)
        N = _unique_in_progression(lo, hi, lcm[0], lcm[1], 2 * p + 2)
        if N is not None:
            return N
    raise InvariantBreach("point orders leave #E open for %r" % (E,))


def _point_order(Q, lo, hi):
    """The order of Q, given that some multiple of it lies in [lo, hi].
    Baby steps jQ, 0 <= j < s, and giant steps -(lo + i s)Q, s^2 > hi - lo,
    meet at a multiple k = lo + i s + j, and k loses each prime factor that
    Q does not need."""
    s = math.isqrt(hi - lo) + 1
    baby = {}
    R = Q.curve.infinity(Q.field)
    for j in range(s):
        baby.setdefault(R.key(), j)
        R = R + Q
    G = -(lo * Q)
    for i in range(s + 1):
        j = baby.get(G.key())
        if j is not None:
            break
        G = G - R
    else:
        raise InvariantBreach("no multiple of the order of %r in [%d, %d]"
                              % (Q, lo, hi))
    k = lo + i * s + j
    for q, _ in factor(k):
        while k % q == 0 and ((k // q) * Q).inf:
            k //= q
    return k


def _unique_in_progression(lo, hi, L, Lt, total):
    """The N in [lo, hi] with L | N and Lt | total - N when it is the only
    one, else None."""
    g = math.gcd(L, Lt)
    M = L // g * Lt
    # N = L a with L a = total mod Lt
    a = total // g * pow(L // g, -1, Lt // g) % (Lt // g)
    N = lo + (L * a - lo) % M
    if N > hi:
        raise InvariantBreach("no group order in the Hasse interval")
    return N if N + M > hi else None


_HASSE_COEFFS = {}


def _hasse_coeffs(p):
    """The multinomial coefficients m! / (i! (2m-3i)! (2i-m)!) mod p,
    m = (p-1)/2, for i from ceil(m/2) to floor(2m/3)."""
    got = _HASSE_COEFFS.get(p)
    if got is None:
        m = (p - 1) // 2
        fact = [1] * (m + 1)
        for i in range(1, m + 1):
            fact[i] = fact[i - 1] * i % p
        inv = [1] * (m + 1)
        inv[m] = pow(fact[m], -1, p)
        for i in range(m, 0, -1):
            inv[i - 1] = inv[i] * i % p
        got = tuple(fact[m] * inv[i] * inv[2 * m - 3 * i] * inv[2 * i - m] % p
                    for i in range((m + 1) // 2, 2 * m // 3 + 1))
        _HASSE_COEFFS[p] = got
    return got


def is_supersingular(E):
    """Whether the Hasse invariant, the coefficient of x^(p-1) in
    (x^3 + ax + b)^((p-1)/2), vanishes (Silverman, AEC V.4.1(a)); this holds
    over every finite field of characteristic p.

    The invariant collects the terms x^(3i) (ax)^(2m-3i) b^(2i-m),
    m = (p-1)/2, so it equals a^(2m-3h) b^(2l-m) sum_t c_t (a^3)^(n-t) (b^2)^t
    with l, h the least and greatest i and n = h - l; the sum runs by
    Horner's rule with a running power of b^2."""
    p = E.field.p
    m = (p - 1) // 2
    lo, hi = (m + 1) // 2, 2 * m // 3
    a3 = E.a * E.a * E.a
    b2 = E.b * E.b
    acc = E.field.zero()
    bt = E.field.one()
    for c in _hasse_coeffs(p):
        acc = acc * a3 + bt * c
        bt = bt * b2
    return (acc * E.a ** (2 * m - 3 * hi) * E.b ** (2 * lo - m)).is_zero()


def supersingular_j_in_base(p):
    """The supersingular j in F_p, yielded lazily in encoding order (a BFS
    seed needs only the first)."""
    F = make_field(p, 1)
    for e in range(p):
        j = F.from_enc(e)
        if is_supersingular(model_from_j(F, j)):
            yield j


def _is_canonical(E):
    """Whether the supersingular E over F_{p^2} has E(F_{p^2}) = (Z/(p-1))^2.

    Every other supersingular group, of order (p+1)^2 (exponent p+1),
    p^2 + 1 or p^2 -+ p + 1, shares at most a factor 2 or 3 with p - 1.  So
    one point P with 2P, 3P != O decides: E is canonical iff (p-1)P = O."""
    F = E.field
    for e in range(F.order):
        P = E.lift_x(F.from_enc(e))
        if P is None or (2 * P).inf or (3 * P).inf:
            continue
        return ((F.p - 1) * P).inf
    raise InvariantBreach("no point of order > 3 on %r" % (E,))


def canonical_ss_model(j):
    """The canonical supersingular model over F_{p^2}: the lex-smallest
    coefficient vector with #E(F_{p^2}) = (p-1)^2, i.e. squared Frobenius
    acting as the scalar p.  The isomorphic models (a u^4, b u^6) share
    the verdict, so each class is tested once, on its first element."""
    p = j.field.p
    Fp2 = make_field(p, 2)
    if j.field.k == 1:
        j = embedding(j.field, Fp2)(j)
    elif j.field is not Fp2:
        raise ValueError("j must live in F_p or the canonical F_{p^2}")
    key = (p, j.enc())
    got = _CANONICAL_CACHE.get(key)
    if got is not None:
        return got
    if not is_supersingular(model_from_j(Fp2, j)):
        raise NotSupersingular("j = %d is not supersingular at p = %d" % (j.enc(), p))
    if j.is_zero() or j == 1728:
        # the models are (0, z) resp. (z, 0), one per class of z mod 6th
        # resp. 4th powers; try the classes by their first elements
        e = 6 if j.is_zero() else 4
        firsts = [Fp2.first_in_class(e, c)
                  for c in _binomial_roots(Fp2, e, Fp2.one())]
        for z in sorted(firsts, key=ExtFieldElement.enc):
            best = Curve(Fp2, Fp2.zero(), z) if j.is_zero() else Curve(Fp2, z, Fp2.zero())
            if _is_canonical(best):
                break
        else:
            raise InvariantBreach("no canonical model found for j = %d" % j.enc())
    else:
        base = model_from_j(Fp2, j)
        if not _is_canonical(base):
            # quadratic twist by the first non-residue
            d = Fp2.nonresidue()
            base = Curve(Fp2, base.a * d * d, base.b * d * d * d)
            if not _is_canonical(base):
                raise InvariantBreach("no canonical model in either twist class")
        # the models are (a u^4, b u^6): the least a' is the first element of
        # the class of a mod 4th powers, which fixes u up to a 4th root of
        # unity, so b' is one of the two square roots of b^2 (a'/a)^3
        a, b = base.a, base.b
        z = Fp2.first_in_class(4, a ** ((Fp2.order - 1) // 4))
        r = (b * b * z * z * z / (a * a * a)).sqrt()
        if r is None:
            raise InvariantBreach("b'^2 is not a square for j = %d" % j.enc())
        best = Curve(Fp2, z, min(r, -r, key=lambda t: t.enc()))
    best.canonical_ss = True
    _CANONICAL_CACHE[key] = best
    return best


_CANONICAL_CACHE = {}


# ---------------------------------------------------------------------------
# division polynomials

def _div_B(E, n):
    """The x-part B_n of the n-division polynomial (psi_n = B_n for odd n,
    psi_n = 2y B_n for even n)."""
    got = E._divpoly.get(n)
    if got is not None:
        return got
    F = E.field
    a, b = E.a, E.b
    if n == 0:
        val = Poly(F, [])
    elif n in (1, 2):
        val = Poly(F, [1])
    elif n == 3:
        val = Poly(F, [-(a * a), b * 12, a * 6, F.zero(), F.elt(3)])
    elif n == 4:
        val = Poly(F, [
            -(a * a * a) - b * b * 8,
            -(a * b * 4),
            -(a * a * 5),
            b * 20,
            a * 5,
            F.zero(),
            F.one(),
        ]).scale(2)
    else:
        m, r = divmod(n, 2)
        f = E.rhs_poly()
        f2_16 = (f * f).scale(16)
        if r == 1:
            bm = _div_B(E, m)
            bm1 = _div_B(E, m + 1)
            t1 = _div_B(E, m + 2) * bm * bm * bm
            t2 = _div_B(E, m - 1) * bm1 * bm1 * bm1
            if m % 2 == 0:
                val = f2_16 * t1 - t2
            else:
                val = t1 - f2_16 * t2
        else:
            t = (_div_B(E, m + 2) * _div_B(E, m - 1) * _div_B(E, m - 1)
                 - _div_B(E, m - 2) * _div_B(E, m + 1) * _div_B(E, m + 1))
            val = _div_B(E, m) * t
    E._divpoly[n] = val
    return val


def _mult_by_k_fraction(E, k):
    """(numerator, denominator) x-polynomials of the multiplication-by-k map."""
    got = E._xi_cache.get(k)
    if got is None:
        f4 = E.rhs_poly().scale(4)
        bk = _div_B(E, k)
        bk2 = bk * bk
        den = f4 * bk2 if k % 2 == 0 else bk2
        cross = _div_B(E, k - 1) * _div_B(E, k + 1)
        if k % 2 == 1:
            cross = f4 * cross
        num = x_poly(E.field) * den - cross
        got = (num, den)
        E._xi_cache[k] = got
    return got


# ---------------------------------------------------------------------------
# kernel polynomials of rational ell-subgroups

def _poly_invert_mod(g, h):
    """Inverse of g modulo h, or None if gcd(g, h) != 1."""
    F = g.field
    r0, r1 = h, g % h
    t0, t1 = Poly(F, []), Poly(F, [1])
    while not r1.is_zero():
        q, rem = r0.divmod(r1)
        r0, r1 = r1, rem
        t0, t1 = t1, t0 - q * t1
    if r0.degree() != 0:
        return None
    lead_inv = r0.coeffs[0].inverse()
    return (t0.scale(lead_inv)) % h


def _pm_generator(ell):
    """The least g >= 2 whose class generates (Z/ell)^x / {+-1}."""
    dd = (ell - 1) // 2
    for g in range(2, ell):
        if all(pow(g, dd // q, ell) not in (1, ell - 1) for q, _ in factor(dd)):
            return g


def _image_factor(f, num, den, factors):
    """Index of the factor of psi_ell whose roots are x([g]P) for the roots
    x(P) of f: the one of f's degree that vanishes at xi = num/den mod f."""
    F = f.field
    inv = _poly_invert_mod(den % f, f)
    if inv is None:
        raise InvariantBreach("x o [g] has a pole at a root of psi_ell")
    xi = (num % f) * inv % f
    for i, h in enumerate(factors):
        if h.degree() != f.degree():
            continue
        # evaluate h at xi inside F[x]/(f)
        acc = Poly(F, [])
        for c in reversed(h.coeffs):
            acc = (acc * xi + Poly(F, [c])) % f
        if acc.is_zero():
            return i
    raise InvariantBreach("no factor of psi_ell vanishes at x o [g]")


def ell_subgroups(E, ell):
    """Kernel polynomials of the rational cyclic order-ell subgroups of E,
    sorted by coefficient encoding.  On canonical supersingular models over
    F_{p^2} this returns all ell + 1 subgroups.

    For odd ell the x-set of a cyclic subgroup is one orbit of
    (Z/ell)^x / {+-1}, of size (ell-1)/2, under the generator [g].  [g]
    commutes with Galois, so it permutes the irreducible factors of psi_ell
    and keeps their degrees; the roots of one cycle are a Galois-stable union
    of [g]-orbits.  So the cycles of total degree (ell-1)/2 are exactly the
    rational subgroups, and their factors all have one degree dividing it."""
    p = E.field.p
    if ell == p:
        raise EqualCharacteristic("ell = p = %d" % p)
    key = ell
    got = E._kernel_cache.get(key)
    if got is not None:
        return got
    if ell == 2:
        roots = sorted(poly_roots(E.rhs_poly()), key=lambda r: r.enc())
        out = [Poly(E.field, [-r, E.field.one()]) for r in roots]
    else:
        dd = (ell - 1) // 2
        factors = [f for f, _ in poly_factor(_div_B(E, ell))
                   if dd % f.degree() == 0]
        num, den = _mult_by_k_fraction(E, _pm_generator(ell))
        image = [_image_factor(f, num, den, factors) for f in factors]
        out = []
        seen = set()
        for start in range(len(factors)):
            cycle = []
            i = start
            while i not in seen:
                seen.add(i)
                cycle.append(factors[i])
                i = image[i]
            if sum(f.degree() for f in cycle) == dd:
                h = Poly(E.field, [1])
                for f in cycle:
                    h = h * f
                out.append(h)
        out.sort(key=lambda f: f.key())
    E._kernel_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# Velu / Kohel isogenies

class Isogeny:
    """Separable normalized isogeny given by x -> N(x)/D(x), y -> y (N/D)'."""

    def __init__(self, source, target, degree, kernel_poly, num, den):
        self.source = source
        self.target = target
        self.degree = degree
        self.kernel_poly = kernel_poly
        self.num = num
        self.den = den
        self.dnum = num.derivative()
        self.dden = den.derivative()
        self._embedded = {}

    def _maps_in(self, field):
        got = self._embedded.get(id(field))
        if got is None:
            got = tuple(embed_poly(f, field) for f in
                        (self.num, self.den, self.dnum, self.dden))
            self._embedded[id(field)] = got
        return got

    def __call__(self, P):
        if P.inf:
            return self.target.infinity(P.field)
        num, den, dnum, dden = (self._maps_in(P.field)
                                if P.field is not self.source.field
                                else (self.num, self.den, self.dnum, self.dden))
        d = den(P.x)
        if d.is_zero():
            return self.target.infinity(P.field)
        n = num(P.x)
        dinv = d.inverse()
        X = n * dinv
        Y = P.y * (dnum(P.x) * d - n * dden(P.x)) * dinv * dinv
        return CurvePoint(self.target, P.field, X, Y, False, check=False)

    def __repr__(self):
        return "Isogeny(deg %d: %r -> %r)" % (self.degree, self.source, self.target)


def velu(E, kernel):
    """The separable isogeny with the given kernel polynomial (Velu/Kohel).

    Raises NotAKernel when the polynomial does not divide the relevant
    division polynomial of E.
    """
    F = E.field
    d = kernel.degree()
    if d < 1:
        raise NotAKernel("kernel polynomial must be non-constant")
    kernel = kernel.monic()
    f = E.rhs_poly()
    a, b = E.a, E.b
    if d == 1:
        x0 = -kernel.coeffs[0]
        if f(x0).is_zero():
            ell = 2
            v = x0 * x0 * 3 + a
            w = x0 * v
            num = Poly(F, [v, -x0, F.one()])
            den = kernel
        else:
            ell = 3
            if not (_div_B(E, 3) % kernel).is_zero():
                raise NotAKernel("x-coordinate is not 3-torsion")
            num, den, v, w = _odd_velu_maps(E, kernel, 3)
    else:
        ell = 2 * d + 1
        if not (_div_B(E, ell) % kernel).is_zero():
            raise NotAKernel("kernel does not divide the %d-division polynomial" % ell)
        num, den, v, w = _odd_velu_maps(E, kernel, ell)
    target = Curve(F, a - v * 5, b - w * 7)
    return Isogeny(E, target, ell, kernel, num, den)


def _odd_velu_maps(E, h, ell):
    F = E.field
    a, b = E.a, E.b
    d = h.degree()
    cs = h.coeffs
    s1 = -cs[d - 1] if d >= 1 else F.zero()
    s2 = cs[d - 2] if d >= 2 else F.zero()
    s3 = -cs[d - 3] if d >= 3 else F.zero()
    p2 = s1 * s1 - s2 * 2
    p3 = s1 * s1 * s1 - s1 * s2 * 3 + s3 * 3
    v = p2 * 6 + a * (2 * d)
    w = p3 * 10 + (a * s1) * 6 + b * (4 * d)
    f = E.rhs_poly()
    df = f.derivative()
    dh = h.derivative()
    ddh = dh.derivative()
    h2 = h * h
    # X = ell*x - 2 s1 - 2 f' h'/h - 4 f (h'' h - h'^2)/h^2
    num = (x_poly(F).scale(ell) - Poly(F, [s1 * 2])) * h2 \
        - (df * dh * h).scale(2) - (f * (ddh * h - dh * dh)).scale(4)
    return num, h2, v, w


def scaled_point(P, u, target):
    """Image of P under (x, y) -> (u^2 x, u^3 y) onto the target curve."""
    if P.inf:
        return target.infinity(P.field)
    if u.field is not P.field:
        u = embedding(u.field, P.field)(u)
    u2 = u * u
    return CurvePoint(target, P.field, P.x * u2, P.y * u2 * u, False, check=False)


def _binomial_roots(F, e, r):
    """The roots of x^e - r in F, sorted by encoding; cached on F.  For even
    e, u^e = r iff u^2 is a root of x^(e/2) - r, so poly_roots runs only
    for odd e."""
    key = (e, r.enc())
    got = F._root_cache.get(key)
    if got is None:
        if e % 2:
            roots = poly_roots(Poly(F, [-r] + [0] * (e - 1) + [1]))
        else:
            roots = set()
            for y in _binomial_roots(F, e // 2, r):
                w = y.sqrt()
                if w is not None:
                    roots |= {w, -w}
        got = F._root_cache[key] = sorted(roots, key=lambda t: t.enc())
    return got


def automorphism_scalars(E):
    """The scalars u with (x,y) -> (u^2 x, u^3 y) an automorphism of E."""
    return iso_scalars(E, E)


def iso_scalars(E1, E2):
    """All u with (a1 u^4, b1 u^6) = (a2, b2), i.e. isomorphisms E1 -> E2."""
    F = E1.field
    if F is not E2.field:
        raise ValueError("isomorphism search needs a common field")
    if E1.a.is_zero():
        if not E2.a.is_zero():
            return []
        return _binomial_roots(F, 6, E2.b / E1.b)
    if E1.b.is_zero():
        if not E2.b.is_zero():
            return []
        return _binomial_roots(F, 4, E2.a / E1.a)
    if E2.a.is_zero() or E2.b.is_zero():
        return []
    r = (E2.b * E1.a) / (E1.b * E2.a)  # u^2; b1 r^3 = b2 once a1 r^2 = a2
    u = r.sqrt() if E1.a * r * r == E2.a else None
    return [] if u is None else sorted((u, -u), key=lambda t: t.enc())


# ---------------------------------------------------------------------------
# torsion fields and bases (cofactor method, no large root finding)

def _companion_order(t, q, m):
    """Order of the companion matrix of x^2 - t x + q modulo m."""
    e = (0, (-q) % m, 1 % m, t % m)
    ident = (1 % m, 0, 0, 1 % m)
    cur = e
    r = 1
    while cur != ident:
        cur = mat_mul(cur, e, m)
        r += 1
        if r > m ** 4:
            raise InvariantBreach("companion matrix order overflow")
    return r


def torsion_field_degree(E, m):
    """Extension degree r over E.field with E[m] rational over it; cheap."""
    got = E._torsion_cache.get(("degree", m))
    if got is not None:
        return got
    if E.canonical_ss:
        r = multiplicative_order(E.field.p, m)
    else:
        r = _companion_order(trace_of_frobenius(E), E.field.order, m)
    E._torsion_cache[("degree", m)] = r
    return r


def _order_over(E, r):
    """#E(F_{q^r}), q = #E.field, from the trace of Frobenius t by the
    recurrence t_i = t t_{i-1} - q t_{i-2} for the trace over F_{q^i}."""
    q = E.field.order
    t = trace_of_frobenius(E)
    t0, t1 = 2, t
    for _ in range(r - 1):
        t0, t1 = t1, t * t1 - q * t0
    return q ** r + 1 - t1


def torsion_field(E, m):
    """(big field, #E over it, extension degree r) with E[m] rational there."""
    got = E._torsion_cache.get(("field", m))
    if got is not None:
        return got
    p = E.field.p
    r = torsion_field_degree(E, m)
    n = (p ** r - 1) ** 2 if E.canonical_ss else _order_over(E, r)
    big = make_field(p, E.field.k * r)
    got = (big, n, r)
    E._torsion_cache[("field", m)] = got
    return got


def _point_order_in_sylow(R, ell, cap):
    k = 0
    S = R
    while not S.inf:
        S = ell * S
        k += 1
        if k > cap:
            raise InvariantBreach("runaway order computation")
    return k


def _prime_power_basis(E, ell, e):
    """Basis of E[ell^e] over the torsion field, deterministic scan.

    Each lift P is pushed into the ell-Sylow subgroup by a cofactor c.  On
    canonical models E(F_{p^(2r)}) = E[p^r - 1], so c = (p^r - 1) / ell^v
    is prime to ell, and the point taken is (ell^(k-e) c) R with R = cP of
    order ell^k: ell^(k-e) c^2 P, the point that the cofactor c^2 of the
    group order (p^r - 1)^2 gives.

    A point with x in F_p lies in E(F_{q^2}), q = #E.field, whose exponent
    divides p^2 - 1 on canonical models (E(F_{p^4}) = E[p^2 - 1]) and
    #E(F_{q^2}) on the others.  When ell^e does not divide that number, no
    such point has order ell^e, and the scan starts at encoding p."""
    m = ell ** e
    big, n, r = torsion_field(E, m)
    p = E.field.p
    if E.canonical_ss:
        n = p ** r - 1
    below = p ** 2 - 1 if E.canonical_ss else _order_over(E, 2)
    start = p if below % m else 0
    v = 0
    nn = n
    while nn % ell == 0:
        nn //= ell
        v += 1
    cof = n // (ell ** v)
    rescale = cof if E.canonical_ss else 1
    first = None
    first_span = None
    for enc in range(start, big.order):
        x = big.from_enc(enc)
        P = E.lift_x(x)
        if P is None:
            continue
        R = cof * P
        k = _point_order_in_sylow(R, ell, v + 1)
        if k < e:
            continue
        A = (ell ** (k - e) * rescale % ell ** k) * R
        if first is None:
            first = A
            # span of ell^(e-1) * first inside E[ell], for independence tests
            F1 = (ell ** (e - 1)) * first
            first_span = set()
            S = E.infinity(big)
            for _ in range(ell):
                first_span.add(S.key())
                S = S + F1
            continue
        A1 = (ell ** (e - 1)) * A
        if A1.key() not in first_span:
            return first, A
    raise InvariantBreach("no independent %d^%d-torsion basis found" % (ell, e))


def torsion_basis(E, N):
    """(P1, P2) generating E[N] over the minimal torsion field; N >= 2."""
    if N % E.field.p == 0:
        raise BadTorsionOrder("p divides N")
    got = E._torsion_cache.get(("basis", N))
    if got is not None:
        return got
    big, _, _ = torsion_field(E, N)
    P1 = E.infinity(big)
    P2 = E.infinity(big)
    for ell, e in factor(N):
        A, B = _prime_power_basis(E, ell, e)
        emb = embedding(A.field, big)
        A = CurvePoint(E, big, emb(A.x), emb(A.y), False, check=False)
        B = CurvePoint(E, big, emb(B.x), emb(B.y), False, check=False)
        P1 = P1 + A
        P2 = P2 + B
    E._torsion_cache[("basis", N)] = (P1, P2)
    return P1, P2


def torsion_grid(E, N):
    """{(i, j): i P1 + j P2} over all of E[N] in row-major key order, on the
    basis (P1, P2) = torsion_basis(E, N); {(0, 0): O} at N = 1.  Cached on
    E; callers must not mutate it.

    The axes i P1 and j P2 are walked in Jacobian coordinates and made
    affine together.  Every other point is the chord sum i P1 + j P2, whose
    x-coordinates differ because the basis is independent; only the pairs
    with (i, j) <= (N - i, N - j) are summed, with one batch inversion of
    the chord denominators, and the rest are their negatives."""
    if N == 1:
        return {(0, 0): E.infinity()}
    got = E._torsion_cache.get(("grid", N))
    if got is not None:
        return got
    P1, P2 = torsion_basis(E, N)
    F = P1.field
    mul, sub = F._mulc, F._subc
    a = E.coeffs_in(F)[0].coeffs
    walk = []
    for P in (P1, P2):
        x, y = P.x.coeffs, P.y.coeffs
        T = (x, y, F.one().coeffs)
        walk.append(T)
        for _ in range(N - 2):
            T = _jacobian_add(F, a, *T, x, y)
            walk.append(T)
    pairs = [(i, j) for i in range(1, N // 2 + 1) for j in range(1, N)
             if (i, j) <= (N - i, N - j)]
    try:
        axes = _affine(E, F, walk)
        # A[i] = i P1 and B[j] = j P2, 0 <= i, j < N
        A = [E.infinity(F)] + axes[:N - 1]
        B = A[:1] + axes[N - 1:]
        inverses = iter(_batch_inverse(
            F, [sub(B[j].x.coeffs, A[i].x.coeffs) for i, j in pairs]))
    except ZeroDivisionError:
        raise InvariantBreach("dependent basis of E[%d]" % N) from None
    grid = {}
    for i in range(N):
        for j in range(N):
            if not (i and j):
                grid[i, j] = A[i] if i else B[j]
            elif (i, j) <= (N - i, N - j):
                xa, ya = A[i].x.coeffs, A[i].y.coeffs
                xb, yb = B[j].x.coeffs, B[j].y.coeffs
                lam = mul(sub(yb, ya), next(inverses))
                x3 = sub(sub(mul(lam, lam), xa), xb)
                grid[i, j] = CurvePoint(
                    E, F, ExtFieldElement(F, x3),
                    ExtFieldElement(F, sub(mul(lam, sub(xa, x3)), ya)), False,
                    check=False)
            else:
                grid[i, j] = -grid[N - i, N - j]
    E._torsion_cache[("grid", N)] = grid
    return grid


def torsion_index(E, N):
    """{P.key(): (i, j)}, the inverse of torsion_grid(E, N), cached on E;
    callers must not mutate it."""
    got = E._torsion_cache.get(("index", N))
    if got is None:
        got = {P.key(): c for c, P in torsion_grid(E, N).items()}
        E._torsion_cache[("index", N)] = got
    return got


def all_points_of_order(E, N):
    """Every point of exact order N, sorted by (x, y) encoding: the grid
    points (i, j) with gcd(N, i, j) = 1."""
    return sorted((P for (i, j), P in torsion_grid(E, N).items()
                   if math.gcd(N, i, j) == 1), key=CurvePoint.key)


def torsion_coordinates(R, m):
    """(a, b) with R = a Q1 + b Q2 on the basis (Q1, Q2) = torsion_basis(E, m)
    of R's curve E: one lookup of R in torsion_index(E, m), whose points
    live over the torsion field of E[m]."""
    got = torsion_index(R.curve, m).get(R.key())
    if got is None:
        raise InvariantBreach("point is not in E[%d]" % m)
    return got


def action_matrix(f, E, m):
    """The map f on E[m] as (a, b, c, d) = [[a, b], [c, d]] mod m, read
    against torsion_basis(E, m) and the basis of the curve that f's images
    lie on: column j holds the coordinates of f(Qj).  (0, 0, 0, 0) at
    m = 1, where f is not evaluated."""
    if m == 1:
        return (0, 0, 0, 0)
    Q1, Q2 = torsion_basis(E, m)
    a, c = torsion_coordinates(f(Q1), m)
    b, d = torsion_coordinates(f(Q2), m)
    return a, b, c, d


def mat_mul(M, K, m):
    """M K for 2x2 matrices (a, b, c, d) = [[a, b], [c, d]] mod m."""
    a, b, c, d = M
    e, f, g, h = K
    return ((a * e + b * g) % m, (a * f + b * h) % m,
            (c * e + d * g) % m, (c * f + d * h) % m)


# ---------------------------------------------------------------------------
# traces of isogeny chains via torsion action

def chain_eval(steps, P):
    """Evaluate a list of steps; each step is an Isogeny or (curve, u) scale."""
    for s in steps:
        if isinstance(s, Isogeny):
            P = s(P)
        else:
            target, u = s
            P = scaled_point(P, u, target)
    return P


def chain_trace(steps, E, ell, d, candidate_traces=None):
    """Trace of the endomorphism given by a closed chain of degree ell^d.

    The residue mod m is the trace of the chain's matrix on E[m] (the chain
    must end on E itself); ``trace_from_residues`` picks the primes, every
    auxiliary prime but ell and p, and lifts.
    """
    def residue(m):
        a, _, _, dd = action_matrix(lambda P: chain_eval(steps, P), E, m)
        return (a + dd) % m

    return trace_from_residues(E, ell, d, residue, candidate_traces)


def trace_from_residues(E, ell, d, residue, candidate_traces=None):
    """Trace of an endomorphism of E of degree ell^d from residue(m), its
    trace mod auxiliary primes m.

    The primes are every auxiliary prime other than ell and p, taken by
    increasing degree r of the field of E[m], until CRT with a centered
    lift against the Weil bound 4 ell^(d/2) is unambiguous.  That lift is
    unique, so any set of primes gives the same integer.  When the caller
    knows a finite candidate set (the endomorphism lies in a known
    quadratic field), residues are only collected until one candidate
    survives, which keeps the auxiliary torsion fields small.
    """
    norm = ell ** d
    if d == 0:
        return 2
    p = E.field.p
    cands = []
    for m in AUX_TRACE_PRIMES:
        if m == ell or m == p:
            continue
        try:
            r = torsion_field_degree(E, m)
        except InvariantBreach:
            continue
        if E.field.k * r > MAX_AUX_EXT_DEGREE:
            continue
        cands.append((r, m))
    cands.sort()
    survivors = None if candidate_traces is None else sorted(set(candidate_traces))
    t, prod = 0, 1
    for _, m in cands:
        t_m = residue(m)
        # CRT step: t = t_m mod m, t unchanged mod prod
        t = (t + prod * ((t_m - t) * pow(prod, -1, m) % m)) % (prod * m)
        prod *= m
        if survivors is not None:
            survivors = [s for s in survivors if s % m == t_m]
            if len(survivors) == 1:
                return survivors[0]
            if not survivors:
                raise InvariantBreach("no candidate trace matches the residues")
        if (prod - 1) ** 2 >= 16 * norm:
            break
    if (prod - 1) ** 2 < 16 * norm:
        raise TraceAmbiguous(
            "auxiliary primes insufficient for degree %d^%d" % (ell, d))
    if t > prod // 2:
        t -= prod
    if t * t > 4 * norm:
        raise TraceAmbiguous("lifted trace violates the Weil bound")
    return t
