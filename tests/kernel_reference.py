"""Kernel subgroups by the cycles of one [g] on the factors of psi_ell, kept
as a test reference.

``cycle_kernel_polys`` factors psi_ell completely, finds for each factor of
degree dividing (ell - 1)/2 the factor that [g] sends it to, g a generator
of (Z/ell)^x / {+-1}, and keeps the cycles of total degree (ell - 1)/2.
The package reads each kernel off one factor instead, and the tests compare
the two.  ``mult_by_k_fraction`` is the x-map of [k] as a fraction of
division polynomials.
"""

from heckedyn.curves import _div_B, _poly_invert_mod
from heckedyn.errors import EqualCharacteristic, InvariantBreach
from heckedyn.fields import Poly, factor, poly_factor, poly_roots, x_poly

_XI_CACHE = {}


def mult_by_k_fraction(E, k):
    """(numerator, denominator) x-polynomials of the multiplication-by-k map."""
    got = _XI_CACHE.get((E.key(), k))
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
        _XI_CACHE[(E.key(), k)] = got
    return got


def pm_generator(ell):
    """The least g >= 2 whose class generates (Z/ell)^x / {+-1}."""
    dd = (ell - 1) // 2
    for g in range(2, ell):
        if all(pow(g, dd // q, ell) not in (1, ell - 1) for q, _ in factor(dd)):
            return g


def image_factor(f, num, den, factors):
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


def cycle_kernel_polys(E, ell):
    """The kernel polynomials of the rational cyclic ell-subgroups of E,
    sorted by coefficient encoding, from the cycles of [g].

    For odd ell the x-set of a cyclic subgroup is one orbit of
    (Z/ell)^x / {+-1}, of size (ell-1)/2, under the generator [g].  [g]
    commutes with Galois, so it permutes the irreducible factors of psi_ell
    and keeps their degrees; the roots of one cycle are a Galois-stable union
    of [g]-orbits.  So the cycles of total degree (ell-1)/2 are exactly the
    rational subgroups, and their factors all have one degree dividing it."""
    p = E.field.p
    if ell == p:
        raise EqualCharacteristic("ell = p = %d" % p)
    if ell == 2:
        roots = sorted(poly_roots(E.rhs_poly()), key=lambda r: r.enc())
        return [Poly(E.field, [-r, E.field.one()]) for r in roots]
    dd = (ell - 1) // 2
    factors = [f for f, _ in poly_factor(_div_B(E, ell))
               if dd % f.degree() == 0]
    num, den = mult_by_k_fraction(E, pm_generator(ell))
    image = [image_factor(f, num, den, factors) for f in factors]
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
    return out
