"""Property tests of Velu isogenies against the torsion grid, and of the
p-adic logarithm and exponential against each other."""

import functools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from heckedyn.curves import ell_subgroups, torsion_grid, velu
from heckedyn.fields import embed_poly
from heckedyn.padics import PadicNumber
from heckedyn.ssgraph import build_ssgraph

from padic_series import exp, log1p

# (p, ell) with E[ell] over F_{p^2}, F_{p^4} and F_{p^8}
VELU_SHAPES = ((11, 3), (11, 5), (13, 5), (13, 7), (17, 3), (19, 3),
               (23, 5), (29, 7))


@functools.lru_cache(maxsize=None)
def canonical_curves(p):
    return build_ssgraph(p, 3, 1).curves


@settings(max_examples=40)
@given(st.sampled_from(VELU_SHAPES), st.data())
def test_velu_degree_and_kernel(shape, data):
    # phi = velu(E, h) has degree ell and kills exactly O and the points of
    # E[ell] whose x is a root of h: a cyclic subgroup of order ell
    p, ell = shape
    E = data.draw(st.sampled_from(canonical_curves(p)))
    h = data.draw(st.sampled_from(ell_subgroups(E, ell)))
    phi = velu(E, h)
    assert phi.degree == ell
    grid = torsion_grid(E, ell)
    hx = embed_poly(h, grid[(1, 0)].field)
    roots = {c for c, P in grid.items() if P.inf or hx(P.x).is_zero()}
    assert {c for c, P in grid.items() if phi(P).inf} == roots
    assert len(roots) == ell


@given(st.sampled_from((2, 3, 5, 7, 11, 13)), st.integers(1, 30),
       st.integers(0, 10 ** 12))
def test_exp_inverts_log1p(p, prec, n):
    # the domain is ord(t) >= 1, and ord(t) >= 2 at p = 2
    t = PadicNumber(p, prec, n * p ** (2 if p == 2 else 1))
    assert exp(log1p(t)) == t + 1
