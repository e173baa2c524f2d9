"""The section of a field embedding, kept as a test reference.

``section(emb, elt)`` pulls an element of the big field of ``emb`` back to
its small field by linear algebra over F_p, and raises KeyError when the
element is not in the image.  No code in the package needs it.
"""

import functools

from heckedyn.fields import ExtFieldElement


@functools.lru_cache(maxsize=None)
def inverse_rows(emb):
    """Rows T over F_p with T V = [I; 0], V the big-field coordinates
    of root^0, ..., root^(k-1) as columns (Gauss-Jordan on [V | I])."""
    p, k, K = emb.small.p, emb.small.k, emb.big.k
    cols = [(emb.root ** i).coeffs for i in range(k)]
    rows = [[col[r] for col in cols] + [int(r == s) for s in range(K)]
            for r in range(K)]
    for c in range(k):
        piv = next(r for r in range(c, K) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p)
        rows[c] = [x * inv % p for x in rows[c]]
        for r in range(K):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return [row[k:] for row in rows]


def section(emb, elt):
    """Preimage in the small field; raises KeyError if not in the image.
    Solves sum_i c_i root^i = elt over F_p."""
    if elt.field is not emb.big:
        raise ValueError("element not in the target field")
    if emb.small is emb.big:
        return elt
    p, k = emb.small.p, emb.small.k
    w = [sum(t * v for t, v in zip(row, elt.coeffs)) % p
         for row in inverse_rows(emb)]
    if any(w[k:]):
        raise KeyError(elt.enc())
    return ExtFieldElement(emb.small, tuple(w[:k]))
