"""The cyclotomic quotient ring Z/p^M [t] / Phi_{p^a}(1 + t), kept as a test
reference.

1 + t is a primitive p^a-th root of unity there, and coefficient arithmetic
is exact mod p^M, so (1 + t)^lam = 1 + t is decided by square-and-multiply.
The package reads the same answer off the digits of lam, and the tests
compare the two.
"""

from math import comb


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
                coeffs[k] = (coeffs[k] + comb(e, k)) % self.mod_int
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
