"""Dual isogenies, the backtrack endomorphism and step lists, kept as test
references.

``dual_isogeny`` finds the dual of a Velu isogeny among the rational
subgroups of its target and normalises it so that the composite is exactly
[deg]; ``backtrack_endo`` reads the trace of an arrow followed by that dual,
which must be the scalar ell.  A step list spells a chain out as isogenies
and (curve, u) rescalings, and ``chain_eval`` applies it to a point; the
package applies its arrows directly instead.  No code in the package needs
any of them.
"""

from heckedyn.curves import (Isogeny, _div_B, chain_trace, ell_subgroups,
                             iso_scalars, scaled_point, velu)
from heckedyn.errors import InvariantBreach
from heckedyn.fields import Poly, make_field


def chain_eval(steps, P):
    """Evaluate a list of steps; each step is an Isogeny or (curve, u) scale."""
    for s in steps:
        if isinstance(s, Isogeny):
            P = s(P)
        else:
            target, u = s
            P = scaled_point(P, u, target)
    return P


def arrow_steps(arrows, curves, walk):
    """The step list of a walk: each arrow's isogeny, then its rescaling onto
    the model curves[dst] of its target."""
    steps = []
    for ai in walk:
        ar = arrows[ai]
        steps += [ar.isogeny, (curves[ar.dst], ar.post_scalar)]
    return steps


def dual_kernel_poly(phi):
    """Kernel polynomial of the dual isogeny, located among the rational
    subgroups of the target by composing with the x-map."""
    E, E2 = phi.source, phi.target
    ell = phi.degree
    if ell == 2:
        T = E.rhs_poly() // phi.kernel_poly
    else:
        T = _div_B(E, ell) // phi.kernel_poly
    for h2 in ell_subgroups(E2, ell):
        # h2(N/D) = 0 on the roots of T <=> T | sum_i h2_i N^i D^(dd-i)
        dd = h2.degree()
        cs = h2.coeffs
        acc = Poly(E.field, [])
        for i in range(dd + 1):
            term = Poly(E.field, [cs[i]])
            for _ in range(i):
                term = term * phi.num
            for _ in range(dd - i):
                term = term * phi.den
            acc = acc + term
        if (acc % T).is_zero():
            return h2
    raise InvariantBreach("dual kernel not found among rational subgroups")


def dual_isogeny(phi):
    """(psi, u) with psi = velu(target, dual kernel) and u the isomorphism
    scaling such that scaled psi(phi(P)) = [deg] P exactly."""
    h2 = dual_kernel_poly(phi)
    psi = velu(phi.target, h2)
    cands = iso_scalars(psi.target, phi.source)
    if not cands:
        raise InvariantBreach("dual target is not isomorphic to the source")
    # pin down u on a sample point whose image [deg] Q has order > 3, so no
    # nontrivial automorphism can fix it and fake the comparison
    E = phi.source
    Q = None
    for r in (1, 2, 3, 4):
        big = make_field(E.field.p, E.field.k * r)
        for enc in range(big.order):
            x = big.from_enc(enc)
            P = E.lift_x(x)
            if P is None:
                continue
            img = phi.degree * P
            if img.inf or (2 * img).inf or (3 * img).inf:
                continue
            Q = P
            break
        if Q is not None:
            break
    if Q is None:
        raise InvariantBreach("no sample point for dual normalization")
    target_val = phi.degree * Q
    for u in cands:
        img = scaled_point(psi(phi(Q)), u, E)
        if img == target_val:
            return psi, u
    raise InvariantBreach("no dual normalization matches [deg]")


def backtrack_endo(G, arrow_index):
    """(trace, norm) of an arrow followed by its exact dual label:
    multiplication by ell, recovered independently through the torsion
    action.

    The stored label of the dual arrow can differ from the exact dual by an
    automorphism at j in {0, 1728}; this helper always uses the exact dual.
    """
    ar = G.arrows[arrow_index]
    E = G.vertices[ar.src].curve
    psi, u2 = dual_isogeny(ar.isogeny)
    steps = [ar.isogeny, psi, (E, u2)]
    t = chain_trace(lambda P: chain_eval(steps, P), E, G.ell, 2)
    return (t, G.ell ** 2)
