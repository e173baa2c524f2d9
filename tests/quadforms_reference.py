"""Gauss composition by a coprime representation and the prime class order
by a search over y, kept as test references.

``compose`` moves the second form to one whose leading coefficient is
coprime to 2 a1, found by a search over |x|, |y| <= 64, and glues the middle
coefficients by the Chinese remainder theorem.  ``prime_class_order`` reads
the order from the class group's composition table and then searches
y <= sqrt(4 ell^a / |D|) for the witness, which takes time exponential in
a.  The package composes by Dirichlet's formulas and reads the witness off
one reduction, and the tests compare them with these.
``prime_class_order_by_unreduced_powers`` Gauss-reduces every unreduced
power L^k of the prime form until one is principal, about cubic in a; the
package reduces L^a once.
"""

from heckedyn.errors import BadDiscriminant, InertPrime
from heckedyn.fields import is_prime, xgcd
from heckedyn.quadforms import (QuadForm, _check_disc, _dirichlet, _gauss,
                                _prime_ideal_form, class_group,
                                fundamental_discriminant, kronecker,
                                prime_form, principal_form, reduce_form)


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


def prime_class_order_by_unreduced_powers(D, ell):
    """The package's prime_class_order before it composed reduced forms:
    the unreduced powers L^k / g, each Gauss-reduced, until one is
    principal."""
    _check_disc(D)
    if not is_prime(ell):
        raise BadDiscriminant("ell must be prime, got %d" % ell)
    _, cond = fundamental_discriminant(D)
    if cond % ell == 0:
        raise BadDiscriminant("ell divides the conductor of %d" % D)
    L = _prime_ideal_form(D, ell)
    one = principal_form(D)
    power, g, a = L, 1, 1
    red, (x, y) = _gauss(power)
    while red != one:
        power, d1 = _dirichlet(power, L)
        g *= d1
        a += 1
        red, (x, y) = _gauss(power)
    t, s = g * (2 * x * power.a + y * power.b), g * y
    traces = [t]
    if D == -4:
        traces.append(2 * s)
    elif D == -3:
        traces += [(t - 3 * s) // 2, (t + 3 * s) // 2]
    return a, (-min(abs(tr) for tr in traces), ell ** a)
