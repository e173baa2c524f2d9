"""Property tests of the field and point kernels against plain references:
the schoolbook product, repeated affine addition, the three-power square
root and a brute-force order filter."""

import functools
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from heckedyn.curves import (Curve, all_points_of_order, canonical_ss_model,
                             torsion_basis)
from heckedyn.fields import ExtFieldElement, FieldDesc, _PolyRing, make_field

# k in {1, 2, 3, 4, 6, 24} at small p (8- and 16-bit slots), 32-bit slots at
# p = 4001, and p = 2^31 - 1, whose k = 3 slot is wider than 64 bits
FIELD_SHAPES = ((11, 1), (11, 2), (11, 3), (11, 4), (11, 6), (11, 24),
                (5, 3), (5, 4), (4001, 2), (4001, 3),
                (2 ** 31 - 1, 2), (2 ** 31 - 1, 3))


def long_division(F, prod):
    """prod, a coefficient list over F_p, reduced mod p and by long division
    by F.modulus from the top down."""
    p, k, m = F.p, F.k, F.modulus
    prod = list(prod) + [0] * (k - len(prod))
    for j in range(len(prod) - 1, k - 1, -1):
        c = prod[j] % p
        for i in range(k + 1):
            prod[j - k + i] -= c * m[i]
    return tuple(v % p for v in prod[:k])


def schoolbook_product(a, b):
    """The unreduced coefficients of the product of two coefficient lists."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return prod


def schoolbook_mulc(F, a, b):
    """The product in F_{p^k} coefficient by coefficient, then reduced by
    long division by the modulus."""
    return long_division(F, schoolbook_product(a, b))


def three_power_sqrt(a):
    """Tonelli-Shanks with Euler's criterion, x and b as three separate
    powers of a."""
    if a.is_zero():
        return a
    F = a.field
    q = F.order
    if (a ** ((q - 1) // 2)).enc() != 1:
        return None
    t, s = q - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    c = F.nonresidue() ** t
    x = a ** ((t + 1) // 2)
    b = a ** t
    m = s
    one = F.one()
    while b != one:
        i, bb = 0, b
        while bb != one:
            bb = bb * bb
            i += 1
        e = c
        for _ in range(m - i - 1):
            e = e * e
        x = x * e
        c = e * e
        b = b * c
        m = i
    return x


def affine_double_and_add(n, P):
    """[n]P by right-to-left double-and-add with affine additions."""
    if n < 0:
        return affine_double_and_add(-n, -P)
    acc = P.curve.infinity(P.field)
    while n:
        if n & 1:
            acc = acc + P
        P = P + P
        n >>= 1
    return acc


@st.composite
def elements(draw, count, shapes=FIELD_SHAPES):
    """count elements of one field whose (p, k) is drawn from shapes."""
    F = make_field(*draw(st.sampled_from(shapes)))
    coeffs = st.lists(st.integers(0, F.p - 1), min_size=F.k, max_size=F.k)
    return [ExtFieldElement(F, tuple(draw(coeffs))) for _ in range(count)]


def packed_ring(F):
    """The packed ring that F_{p^k}, k >= 3, multiplies in."""
    ring = F._mulc.__self__
    assert isinstance(ring, _PolyRing) and ring.k == 1 and ring.n == F.k
    return ring


def test_slots_hold_the_product_bound():
    # a low slot collects up to (2k-1)(p-1)^2 before its final reduction
    for p, k in FIELD_SHAPES:
        if k >= 3:
            assert 2 * k * (p - 1) ** 2 < 1 << packed_ring(make_field(p, k))._bits
    assert packed_ring(make_field(11, 24))._structs is not None
    assert packed_ring(make_field(2 ** 31 - 1, 3))._structs is None


def slot_width(bound):
    """Bits of the narrowest slot that holds bound: 8, 16, 32 or 64, or
    exactly as many as bound has past 64."""
    bits = bound.bit_length()
    return next((w for w in (8, 16, 32, 64) if bits <= w), bits)


def fold_peak(F, a, b):
    """The largest low coefficient of a b after each high coefficient,
    reduced mod p, is folded back through x^j mod modulus and before the
    final reduction: the most a slot of the packed product must hold."""
    p, k = F.p, F.k
    prod = schoolbook_product(a, b)
    low = prod[:k]
    for j in range(k, 2 * k - 1):
        row = long_division(F, [0] * j + [1])
        for i in range(k):
            low[i] += prod[j] % p * row[i]
    return max(low)


# (p, modulus, a): a^2 drives a slot past the width that the product
# terms k (p-1)^2 alone would ask for, while (2k-1)(p-1)^2 asks for a wider
# one; 8 bits against 16 at F_{3^63}, F_{5^15} and F_{7^7}, 64 bits against
# a shift slot at F_{(2^31-1)^4}, whose rows x^4, x^5, x^6 all end in p - 1
P31 = 2 ** 31 - 1
PAST_THE_PRODUCT_TERMS = [
    (3, (1,) * 64, (2,) * 63),
    (5, (1,) * 16, (4,) * 15),
    (7, (1,) * 8, (6,) * 7),
    (P31, (1, 4, 2, 1, 1), (P31 - 1, P31 - 1, P31 - 1, P31 - 4)),
]


@pytest.mark.parametrize("p, modulus, a", PAST_THE_PRODUCT_TERMS)
def test_mulc_past_the_product_terms(p, modulus, a):
    k = len(a)
    F = FieldDesc(p, k, modulus)
    terms, true = k * (p - 1) ** 2, (2 * k - 1) * (p - 1) ** 2
    assert slot_width(terms) < slot_width(true)
    assert 1 << slot_width(terms) <= fold_peak(F, a, a) <= true
    other = tuple(list(a))          # equal, but not the same object
    assert F._mulc(a, a) == schoolbook_mulc(F, a, a)
    assert F._mulc(a, other) == schoolbook_mulc(F, a, a)


def check_products(F, seed, count):
    """F._mulc against the schoolbook product on count seeded pairs, on
    their squares (a is b) and on the all-(p - 1) element, whose product
    drives every slot nearest its bound."""
    rng = random.Random(seed)
    top = (F.p - 1,) * F.k
    pairs = [(top, (F.p - 1,) * F.k)]
    pairs += [tuple(tuple(rng.randrange(F.p) for _ in range(F.k))
                    for _ in "ab") for _ in range(count)]
    for a, b in pairs:
        assert F._mulc(a, b) == schoolbook_mulc(F, a, b)
        assert F._mulc(a, a) == schoolbook_mulc(F, a, a)


# every canonical modulus at 3 <= k <= 8 for small p, the long towers of
# F_11 (F_{11^32} and F_{11^44} fold in two rounds), and p = 2^31 - 1,
# whose tail-fold slots are packed by shifts
TAIL_SHAPES = ([(p, k) for p in (3, 5, 7, 11, 13, 47) for k in range(3, 9)]
               + [(11, 24), (11, 32), (11, 44)]
               + [(P31, k) for k in range(3, 7)])


@pytest.mark.parametrize("p, k", TAIL_SHAPES)
def test_canonical_moduli_fold_through_the_tail(p, k):
    F = make_field(p, k)
    ring = packed_ring(F)
    assert ring.mulc.__func__ is _PolyRing._mul_tail
    assert not hasattr(ring, "_rows")
    check_products(F, p * k, 40)


def edge_modulus(p, n, d, rng=None):
    """x^n plus a tail of degree d: every lower coefficient 1 (so each
    t_i = p - 1, the most a round can add), or random ones when rng is
    given; x^n alone for d = -1."""
    low = [1 if rng is None else rng.randrange(p) for _ in range(d)]
    return tuple(low + [1] * (d >= 0) + [0] * (n - d - 1) + [1])


# (n, d, fold): the tail fold up to 2d = n + 1, the row fold from 2d = n + 2
EDGE_SHAPES = [(3, -1, "tail"), (6, -1, "tail"), (3, 0, "tail"),
               (4, 1, "tail"), (3, 2, "tail"), (5, 3, "tail"),
               (7, 4, "tail"), (9, 5, "tail"), (4, 3, "rows"),
               (6, 4, "rows"), (8, 5, "rows"), (10, 6, "rows")]


@pytest.mark.parametrize("p", [3, 47, 1009, P31])
@pytest.mark.parametrize("n, d, fold", EDGE_SHAPES)
def test_edge_moduli_pick_their_fold(p, n, d, fold):
    rng = random.Random(n * p + d)
    for modulus in (edge_modulus(p, n, d), edge_modulus(p, n, d, rng)):
        F = FieldDesc(p, n, modulus)
        ring = packed_ring(F)
        assert ring.mulc.__func__ is getattr(_PolyRing, "_mul_" + fold)
        assert hasattr(ring, "_rows") == (fold == "rows")
        check_products(F, n * d, 10)


@pytest.mark.parametrize("p, k", [(11, 3), (11, 24), (47, 4), (P31, 5)])
def test_field_rows_are_built_on_demand(p, k):
    # a tail-folded field builds x^j mod modulus, j < 2k - 1, only when
    # a ring over it asks; a dense modulus gives the same rows
    for modulus in (make_field(p, k).modulus, (1,) * (k + 1)):
        F = FieldDesc(p, k, modulus)
        assert ("_red",) not in F._memo
        assert F._red() == tuple(long_division(F, [0] * j + [1])
                                 for j in range(2 * k - 1))


@pytest.mark.parametrize("shape", FIELD_SHAPES)
def test_mulc_extreme_coefficients(shape):
    F = make_field(*shape)
    top = (F.p - 1,) * F.k
    other = (F.p - 1,) * F.k        # equal, but not the same object
    assert F._mulc(top, top) == schoolbook_mulc(F, top, top)
    assert F._mulc(top, other) == schoolbook_mulc(F, top, top)


@settings(max_examples=300)
@given(elements(2))
def test_mulc_matches_schoolbook(ab):
    a, b = ab
    F = a.field
    assert F._mulc(a.coeffs, b.coeffs) == schoolbook_mulc(F, a.coeffs, b.coeffs)
    assert F._mulc(a.coeffs, a.coeffs) == schoolbook_mulc(F, a.coeffs, a.coeffs)


@settings(max_examples=200)
@given(elements(3))
def test_distributive_and_inverse(abc):
    a, b, c = abc
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if not a.is_zero():
        assert a * a.inverse() == 1


@settings(max_examples=60)
@given(elements(1, ((11, 24), (41, 6), (4001, 2))))
def test_sqrt_matches_three_power_reference(one):
    a, = one
    assert a.sqrt() == three_power_sqrt(a)
    sq = a * a
    root = sq.sqrt()
    assert root == three_power_sqrt(sq)
    assert root * root == sq


# curves over small fields, each listed with all its affine points; y^2 = x^3
# - x over F_11 and F_{11^2} has its three points of order 2 rational
SMALL_CURVES = ((11, 1, 10, 0), (11, 1, 1, 3), (11, 2, 10, 0), (7, 2, 3, 5),
                (5, 3, 1, 1), (13, 1, 2, 7))


@functools.lru_cache(maxsize=None)
def small_curve_points(index):
    p, k, a, b = SMALL_CURVES[index]
    F = make_field(p, k)
    E = Curve(F, a, b)
    pts = []
    for x in F.elements():
        P = E.lift_x(x)
        if P is not None:
            pts += [P, -P] if not P.y.is_zero() else [P]
    return E, pts


@functools.lru_cache(maxsize=None)
def multiples(index, i):
    """[O, P, 2P, ...] up to ord(P) - 1, by repeated affine addition."""
    E, pts = small_curve_points(index)
    P = pts[i]
    out = [E.infinity(P.field)]
    cur = P
    while not cur.inf:
        out.append(cur)
        cur = cur + P
    return out


@st.composite
def point_and_scalar(draw):
    index = draw(st.integers(0, len(SMALL_CURVES) - 1))
    _, pts = small_curve_points(index)
    i = draw(st.integers(0, len(pts) - 1))
    order = len(multiples(index, i))
    n = draw(st.one_of(
        st.integers(-3 * order - 2, 3 * order + 2),
        st.builds(lambda m, d: m * order + d,
                  st.integers(-3, 3), st.sampled_from((-1, 0, 1)))))
    return index, i, n


@settings(max_examples=300)
@given(point_and_scalar())
def test_scalar_mult_matches_repeated_addition(case):
    index, i, n = case
    table = multiples(index, i)
    P = table[1]
    assert n * P == table[n % len(table)]


@pytest.mark.parametrize("index", [0, 2])
def test_scalar_mult_on_points_of_order_two(index):
    E, pts = small_curve_points(index)
    two_torsion = [P for P in pts if P.y.is_zero()]
    assert len(two_torsion) == 3
    for T in two_torsion:
        for n in list(range(-6, 7)) + [2 ** 80, 2 ** 80 + 1, -(2 ** 80 + 1)]:
            Q = n * T
            assert Q == (T if n % 2 else E.infinity(T.field))
            assert Q == affine_double_and_add(n, T)


@settings(max_examples=40)
@given(st.sampled_from(((11, 6, 3, 7), (13, 3, 2, 9), (4001, 2, 5, 11))),
       st.integers(0, 10 ** 6), st.integers(-(2 ** 128), 2 ** 128))
def test_scalar_mult_matches_affine_double_and_add(shape, x0, n):
    p, k, a, b = shape
    F = make_field(p, k)
    E = Curve(F, a, b)
    P = None
    while P is None:
        P = E.lift_x(F.from_enc(x0 % F.order))
        x0 += 1
    assert n * P == affine_double_and_add(n, P)


def brute_points_of_order(E, N):
    """i P1 + j P2 over the whole grid by repeated addition, kept when
    repeated addition takes exactly N steps back to O."""
    P1, P2 = torsion_basis(E, N)
    out = []
    row = E.infinity(P1.field)
    for i in range(N):
        cur = row
        for j in range(N):
            order, S = 1, cur
            while not S.inf:
                S = S + cur
                order += 1
            if not cur.inf and order == N:
                out.append(cur)
            cur = cur + P2
        row = row + P1
    return sorted(out, key=lambda P: P.key())


@pytest.mark.parametrize("p, j, N", [(11, 0, 4), (11, 1, 6), (11, 0, 10),
                                      (13, 5, 6)])
def test_all_points_of_order_matches_brute_force(p, j, N):
    E = canonical_ss_model(make_field(p, 1).from_enc(j))
    assert all_points_of_order(E, N) == brute_points_of_order(E, N)
