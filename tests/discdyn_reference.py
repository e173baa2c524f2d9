"""The quaternion embedding by a search over c = p^e * cu, kept as a test
reference.

``quat_embed`` tries e = 0, 1, ... and cu = 1, ..., p - 1 until
disc/4 - d c^2 has odd valuation, and guesses afterwards whether a search
that found nothing ran out of precision.  The package reads e and cu off
the valuation of the discriminant, and the tests compare the two.
"""

from heckedyn.discdyn import QuatUnit
from heckedyn.errors import InvariantBreach, PrecisionExhausted, UsageError
from heckedyn.padics import (PadicNumber, WqElement, smallest_nonresidue,
                             sqrt_unit, wq)


class SearchExhausted(InvariantBreach):
    """The search below found no embedding; it never does."""


def quat_embed(trace, norm, p, prec):
    """A QuatUnit with reduced trace ``trace`` and determinant ``norm``.

    Realizes the quadratic order Z[f] inside the matrix model; solves
    Tr(a) = trace, Nm(a) - p Nm(b) = norm with a deterministic choice.
    The two possible embeddings are conjugate and yield conjugate dynamics.
    """
    if norm % p == 0:
        raise UsageError("determinant must be a unit at p")
    d = smallest_nonresidue(p)
    disc = trace * trace - 4 * norm
    if disc == 0:
        raise UsageError("scalar endomorphisms embed as scalars")
    v_disc = 0
    dd = disc
    while dd % p == 0:
        dd //= p
        v_disc += 1
    if v_disc % 2 == 0 and pow(dd % p, (p - 1) // 2, p) == 1:
        raise UsageError(
            "x^2 - %dx + %d splits at %d; no embedding into the division algebra"
            % (trace, norm, p))
    half = pow(2, -1, p ** (prec + 2))
    # try a = trace/2 + c*delta with c^2 = disc / (4 d): the inert case
    work = prec + 2
    cc = PadicNumber(p, work, disc) * PadicNumber(p, work, 4 * d).inverse()
    if cc.val % p != 0:
        c = sqrt_unit(cc)
        if c is not None:
            a = WqElement(PadicNumber(p, prec, trace) * PadicNumber(p, prec, half),
                          c.at_precision(prec))
            return QuatUnit(a, wq(p, prec, 0))
    # ramified case: choose c = p^e * unit so that (disc/4 - c^2 d)/p is a
    # nonzero norm from W (even valuation), then solve Nm(b) for b
    for e in range(0, prec // 2):
        for cu in range(1, p):
            c = PadicNumber(p, work, cu * p ** e)
            # need (trace^2/4 - c^2 d - norm)/p in Nm(W): even valuation
            t2 = PadicNumber(p, work, trace * trace) * PadicNumber(p, work, 4).inverse()
            rem = t2 - c * c * d - PadicNumber(p, work, norm)
            if rem.val == 0:
                continue
            v = rem.valuation()
            if v < 1 or (v - 1) % 2 != 0:
                continue
            unit_part = rem.shift_down(v)
            b = _solve_wq_norm(unit_part, p)
            if b is None:
                continue
            scale = PadicNumber(p, unit_part.prec, p ** ((v - 1) // 2))
            b = WqElement(b.a0 * scale, b.a1 * scale)
            a = WqElement(PadicNumber(p, b.a0.prec, trace)
                          * PadicNumber(p, b.a0.prec, 2).inverse(),
                          c.at_precision(b.a0.prec))
            gamma = QuatUnit(a, b)
            if gamma.det() == PadicNumber(p, gamma.a.a0.prec, norm):
                return gamma
    # rem has odd valuation only once 2e >= v_disc; a search stopped short
    # of that e failed for want of precision, not of an embedding
    e_needed = (v_disc + 1) // 2
    if e_needed >= prec // 2:
        raise PrecisionExhausted(
            "precision %d is too low to embed x^2 - %dx + %d; need >= %d"
            % (prec, trace, norm, 2 * e_needed + 2))
    raise SearchExhausted("no embedding found for (t, n) = (%d, %d)" % (trace, norm))


def _solve_wq_norm(u, p):
    """b in W(F_q) with Nm(b) = b0^2 - d b1^2 = u (a unit), or None."""
    d = smallest_nonresidue(p)
    prec = u.prec
    s = sqrt_unit(u)
    if s is not None:
        return WqElement(s, PadicNumber(p, prec, 0))
    # u = -d * b1^2 needs -u/d square; otherwise solve with both coords
    cand = -u * PadicNumber(p, prec, d).inverse()
    s = sqrt_unit(cand)
    if s is not None:
        return WqElement(PadicNumber(p, prec, 0), s)
    # generic: find b0 mod p with (b0^2 - u) / d a nonzero residue
    for b0 in range(1, p):
        val = (PadicNumber(p, prec, b0 * b0) - u) * PadicNumber(p, prec, d).inverse()
        if val.val % p == 0:
            continue
        s = sqrt_unit(val)
        if s is not None:
            return WqElement(PadicNumber(p, prec, b0), s)
    return None
