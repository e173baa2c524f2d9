"""Imaginary-quadratic machinery: reduced forms, class groups, Hurwitz numbers.

All arithmetic is exact big-integer arithmetic; discriminants along volcano
levels grow like l^(2i)*D and must never be truncated.  Nothing is found by
search: forms compose by Dirichlet's formulas (Cohen, Alg. 5.4.7), the
order of a prime class comes from the powers of one prime form, and the
generator of its principal power from one Gauss reduction.
"""

from fractions import Fraction

from .errors import (BadDiscriminant, InertPrime, PositiveDiscriminant,
                     ScaleExceeded)
from .fields import is_prime, squarefree_split, xgcd

# volcano level sizes and rim witness norms are written as JSON integers,
# and Python converts at most 4300 digits of an int to text; 2^14000 has 4215
MAX_LEVEL_BITS = 14000


class QuadForm:
    """Positive definite integral binary quadratic form a x^2 + b xy + c y^2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        if a <= 0:
            raise PositiveDiscriminant("leading coefficient must be positive")
        if b * b - 4 * a * c >= 0:
            raise PositiveDiscriminant("form is not positive definite")
        self.a, self.b, self.c = a, b, c

    def disc(self):
        return self.b * self.b - 4 * self.a * self.c

    def key(self):
        return (self.a, self.b, self.c)

    def __eq__(self, other):
        return isinstance(other, QuadForm) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def is_reduced(self):
        a, b, c = self.a, self.b, self.c
        if not (-a < b <= a <= c):
            return False
        if a == c and b < 0:
            return False
        return True

    def __repr__(self):
        return "QuadForm(%d, %d, %d)" % (self.a, self.b, self.c)

    def __call__(self, x, y):
        return self.a * x * x + self.b * x * y + self.c * y * y


def _gauss(f):
    """Gauss reduction of f: the reduced form g and the first column (x, y)
    of the SL_2(Z) matrix M with g = f o M, so that f(x, y) = g.a."""
    a, b, c = f.a, f.b, f.c
    x, y, u, v = 1, 0, 0, 1  # M = (x u; y v)
    while True:
        if -a < b <= a <= c and not (a == c and b < 0):
            return QuadForm(a, b, c), (x, y)
        if c < a or (c == a and b < 0):
            # (X, Y) = (-y', x')
            a, b, c = c, -b, a
            x, y, u, v = u, v, -x, -y
            continue
        # (X, Y) = (x' + r y', y') normalizes b into (-a, a]
        r = (a - b) // (2 * a)
        b, c = b + 2 * r * a, a * r * r + b * r + c
        u, v = u + r * x, v + r * y


def reduce_form(f):
    """The unique reduced form equivalent to f (Gauss reduction)."""
    return _gauss(f)[0]


def principal_form(D):
    if D % 4 == 0:
        return QuadForm(1, 0, -D // 4)
    if D % 4 == 1 or D % 4 == -3:
        return QuadForm(1, 1, (1 - D) // 4)
    raise BadDiscriminant("D must be 0 or 1 mod 4, got %d" % D)


def _check_disc(D):
    if D >= 0:
        raise BadDiscriminant("need a negative discriminant, got %d" % D)
    if D % 4 not in (0, 1):
        raise BadDiscriminant("D must be 0 or 1 mod 4, got %d" % D)


def reduced_forms(D):
    """All primitive reduced forms of discriminant D < 0, in (a, b, c) order."""
    _check_disc(D)
    import math
    out = []
    for a in range(1, math.isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a) != 0:
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            out.append(QuadForm(a, b, c))
    out.sort(key=lambda f: f.key())
    return out


def _dirichlet(f1, f2):
    """The unreduced Dirichlet composite of two primitive forms of the same
    discriminant, and the content d1 it divides out: the ideals satisfy
    I1 I2 = d1 I3 (Cohen, Alg. 5.4.7)."""
    if f1.a > f2.a:
        f1, f2 = f2, f1
    a1, a2, b2, c2 = f1.a, f2.a, f2.b, f2.c
    s = (f1.b + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, y1, _ = xgcd(a2, a1)
    if s % d == 0:
        x2, y2, d1 = 0, -1, d
    else:
        d1, x2, y2 = xgcd(s, d)  # d1 > 0 as d > 0
        y2 = -y2
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    c3 = (c2 * d1 + r * (b2 + v2 * r)) // v1
    return QuadForm(v1 * v2, b3, c3), d1


def compose(f1, f2):
    """Dirichlet composition of two primitive forms of the same discriminant,
    reduced."""
    if f2.disc() != f1.disc():
        raise BadDiscriminant("discriminants differ")
    return reduce_form(_dirichlet(f1, f2)[0])


class ClassGroupTable:
    """The form class group cl(D) with an explicit composition table."""

    def __init__(self, D):
        _check_disc(D)
        self.D = D
        self.forms = reduced_forms(D)
        self.index = {f.key(): i for i, f in enumerate(self.forms)}
        self.identity = self.index[reduce_form(principal_form(D)).key()]
        n = len(self.forms)
        self.table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                k = self.index[compose(self.forms[i], self.forms[j]).key()]
                self.table[i][j] = k
                self.table[j][i] = k

    def __len__(self):
        return len(self.forms)

    def mul(self, i, j):
        return self.table[i][j]

    def inverse(self, i):
        f = self.forms[i]
        return self.index[reduce_form(QuadForm(f.a, -f.b, f.c)).key()]

    def order_of(self, i):
        e, n = self.identity, 1
        cur = i
        while cur != e:
            cur = self.mul(cur, i)
            n += 1
            if n > len(self.forms):
                raise RuntimeError("composition table is not a group")
        return n


def class_group(D):
    return ClassGroupTable(D)


def class_number(D):
    return len(reduced_forms(D))


def kronecker(D, n):
    """Kronecker symbol (D/n) for any integers, n != 0 handled fully."""
    if n == 0:
        return 1 if D in (1, -1) else 0
    a = D
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out twos from n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def fundamental_discriminant(D):
    """Write D = f^2 * D0 with D0 fundamental; returns (D0, f)."""
    _check_disc(D)
    n, f = squarefree_split(-D)
    D0 = -n
    if D0 % 4 not in (0, 1):
        D0 *= 4
        f //= 2
    return D0, f


def hurwitz_class_number(n):
    """Hurwitz class number H(n) as an exact Fraction, n = 0 or 3 mod 4.

    Sums the weighted class numbers h_w over discriminants -n/f^2, with
    h_w(-3) = 1/3 and h_w(-4) = 1/2.
    """
    if n <= 0 or n % 4 not in (0, 3):
        raise BadDiscriminant("H(n) needs n > 0 with n = 0 or 3 mod 4")
    total = Fraction(0)
    f = 1
    while f * f <= n:
        if n % (f * f) == 0:
            d = -(n // (f * f))
            if d % 4 in (0, 1):
                if d == -3:
                    total += Fraction(1, 3)
                elif d == -4:
                    total += Fraction(1, 2)
                else:
                    total += class_number(d)
        f += 1
    return total


def _prime_ideal_form(D, ell):
    """The unreduced form (ell, b, (b^2 - D)/(4 ell)) of least b >= 0: a prime
    ideal above ell, if ell splits or ramifies for discriminant D."""
    if kronecker(D, ell) == -1:
        raise InertPrime("%d is inert for discriminant %d" % (ell, D))
    for b in range(2 * ell):
        if (b - D) % 2 == 0 and (b * b - D) % (4 * ell) == 0:
            return QuadForm(ell, b, (b * b - D) // (4 * ell))
    raise InertPrime("no form of norm %d for discriminant %d" % (ell, D))


def prime_form(D, ell):
    """A reduced form representing a prime ideal above ell, if ell splits
    or ramifies in the order of discriminant D."""
    return reduce_form(_prime_ideal_form(D, ell))


def prime_class_order(D, ell):
    """Order a of the class of a prime L above ell in cl(D), plus a witness.

    The witness is a quadratic integer of norm ell^a in the order of
    discriminant D generating L^a (or its conjugate); returned as a
    (trace, norm) pair.  Raises InertPrime when ell is inert.

    The order comes from composing reduced forms, red <- red L, until the
    principal form.  Then the unreduced power I = L^a / g is built once,
    g the content the compositions divide out (ell at a = 2 for ramified
    ell, else 1), and reduced once: the reduction's column (x, y) has
    I(x, y) = 1, so alpha = g (x A + y (B + sqrt D)/2) generates L^a.
    Every generator of L^a or its conjugate is alpha or alpha-bar times a
    unit; the witness is the one of least (|t|, t).  Raises ScaleExceeded
    when ell^a passes MAX_LEVEL_BITS, since its norm could not be written
    as a JSON integer.
    """
    _check_disc(D)
    if not is_prime(ell):
        raise BadDiscriminant("ell must be prime, got %d" % ell)
    _, cond = fundamental_discriminant(D)
    if cond % ell == 0:
        raise BadDiscriminant("ell divides the conductor of %d" % D)
    L = _prime_ideal_form(D, ell)
    one = principal_form(D)
    red, a = reduce_form(L), 1
    while red != one:
        red = compose(red, L)
        a += 1
    if (ell ** a).bit_length() > MAX_LEVEL_BITS:
        raise ScaleExceeded("the witness norm %d^%d exceeds 2^%d"
                            % (ell, a, MAX_LEVEL_BITS))
    power, g = L, 1
    for _ in range(a - 1):
        power, d1 = _dirichlet(power, L)
        g *= d1
    _, (x, y) = _gauss(power)
    # alpha = (t + s sqrt D) / 2; the unit multiples at D = -4 and -3
    t, s = g * (2 * x * power.a + y * power.b), g * y
    traces = [t]
    if D == -4:
        traces.append(2 * s)
    elif D == -3:
        traces += [(t - 3 * s) // 2, (t + 3 * s) // 2]
    return a, (-min(abs(tr) for tr in traces), ell ** a)
