"""Imaginary-quadratic machinery: reduced forms, class groups, Hurwitz numbers.

All arithmetic is exact big-integer arithmetic; discriminants along volcano
levels grow like l^(2i)*D and must never be truncated.
"""

from fractions import Fraction

from .errors import BadDiscriminant, InertPrime, PositiveDiscriminant
from .fields import is_prime, squarefree_split, xgcd


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


def reduce_form(f):
    """The unique reduced form equivalent to f (Gauss reduction)."""
    a, b, c = f.a, f.b, f.c
    while True:
        if -a < b <= a <= c and not (a == c and b < 0):
            return QuadForm(a, b, c)
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            continue
        # normalize b into (-a, a]
        r = (a - b) // (2 * a)
        b2 = b + 2 * r * a
        c2 = a * r * r + b * r + c
        b, c = b2, c2


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


def _transform(f, M):
    """f composed with the unimodular substitution (x, y) -> M (x, y)."""
    (x1, u), (y1, v) = M
    a = f(x1, y1)
    c = f(u, v)
    b = 2 * (f.a * x1 * u + f.c * y1 * v) + f.b * (x1 * v + y1 * u)
    return QuadForm(a, b, c)


def _represent_coprime_to(f, n):
    """A form equivalent to f whose leading coefficient is coprime to n."""
    import math
    bound = 1
    while True:
        bound += 1
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if math.gcd(x, y) != 1:
                    continue
                val = f(x, y)
                if val > 0 and math.gcd(val, n) == 1:
                    # extend (x, y) to a determinant +1 matrix
                    g, u, v = xgcd(x, y)
                    if g < 0:
                        g, u, v = -g, -u, -v
                    assert x * u + v * y == 1
                    return _transform(f, ((x, -v), (y, u)))
        if bound > 64:
            raise BadDiscriminant("could not find coprime representation")


def compose(f1, f2):
    """Gauss composition of two primitive forms of the same discriminant."""
    D = f1.disc()
    if f2.disc() != D:
        raise BadDiscriminant("discriminants differ")
    g2 = _represent_coprime_to(f2, 2 * f1.a)
    a1, b1 = f1.a, f1.b
    a2, b2 = g2.a, g2.b
    # CRT for B: B = b1 mod 2a1, B = b2 mod 2a2; gcd(2a1, 2a2) = 2 divides b2-b1
    g, u, v = xgcd(2 * a1, 2 * a2)
    assert (b2 - b1) % g == 0
    lcm = (2 * a1) * (2 * a2) // g
    B = (b1 + (2 * a1) * ((b2 - b1) // g) * u) % lcm
    A = a1 * a2
    assert (B * B - D) % (4 * A) == 0
    return reduce_form(QuadForm(A, B, (B * B - D) // (4 * A)))


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

    def power(self, i, e):
        acc = self.identity
        for _ in range(e):
            acc = self.mul(acc, i)
        return acc


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


def prime_form(D, ell):
    """A reduced form representing a prime ideal above ell, if ell splits
    or ramifies in the order of discriminant D."""
    sym = kronecker(D, ell)
    if sym == -1:
        raise InertPrime("%d is inert for discriminant %d" % (ell, D))
    for b in range(2 * ell):
        if (b - D) % 2 == 0 and (b * b - D) % (4 * ell) == 0:
            return reduce_form(QuadForm(ell, b, (b * b - D) // (4 * ell)))
    raise InertPrime("no form of norm %d for discriminant %d" % (ell, D))


def prime_class_order(D, ell):
    """Order a of the class of a prime L above ell in cl(D), plus a witness.

    The witness is a quadratic integer of norm ell^a in the order of
    discriminant D generating L^a (or its conjugate); returned as a
    (trace, norm) pair.  Raises InertPrime when ell is inert.
    """
    _check_disc(D)
    if not is_prime(ell):
        raise BadDiscriminant("ell must be prime, got %d" % ell)
    _, cond = fundamental_discriminant(D)
    if cond % ell == 0:
        raise BadDiscriminant("ell divides the conductor of %d" % D)
    if kronecker(D, ell) == -1:
        raise InertPrime("%d is inert for discriminant %d" % (ell, D))
    import math
    G = class_group(D)
    L = G.index[prime_form(D, ell).key()]
    a = G.order_of(L) if L != G.identity else 1
    target = ell ** a
    split = kronecker(D, ell) == 1
    # solve principal_form(x, y) = ell^a exactly; for split ell a witness must
    # not be divisible by ell (v_L = a, v_Lbar = 0), for ramified ell any
    # element of norm ell^a generates L^a since L is the only prime above ell
    sols = []
    yb = math.isqrt(4 * target // (-D))
    for y in range(0, yb + 1):
        s2 = D * y * y + 4 * target
        if s2 < 0:
            continue
        s = math.isqrt(s2)
        if s * s != s2:
            continue
        if D % 4 == 0:
            # x^2 = target + (D/4) y^2, i.e. (2x)^2 = s2
            if s % 2 == 0:
                for x in {s // 2, -s // 2}:
                    sols.append((x, y))
        else:
            # x = (-y +- s) / 2
            for num in {-y + s, -y - s}:
                if num % 2 == 0:
                    sols.append((num // 2, y))
    best = None
    for x, y in sols:
        if split and x % ell == 0 and y % ell == 0:
            continue
        tr = 2 * x + (y if D % 4 == 1 else 0)
        if best is None or (abs(tr), tr) < (abs(best[0]), best[0]):
            best = (tr, target)
    if best is None:
        raise InertPrime("no witness of norm %d found for D = %d" % (target, D))
    return a, best
