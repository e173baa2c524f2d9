"""The p-adic logarithm and exponential as truncated series, kept as test
references.

``log1p`` and ``exp`` sum their series with guard digits so that every
division is exact; ``teichmuller_by_powers`` raises x to the p-th power
M + 1 times.  The package computes (1 + t)^lam - 1 and the Teichmuller lift
as single modular powers, and the tests compare them with these.
"""

from heckedyn.errors import ConvergenceDomain, NotAUnit, PrecisionExhausted
from heckedyn.padics import PadicNumber


def _min_valuation(p):
    # convergence domain of exp and of the isometric branch of log
    return 2 if p == 2 else 1


def log1p(t):
    """log(1 + t) for ord(t) >= 1 (>= 2 when p = 2), to t's precision.

    Computed with guard digits so the divisions by n are exact; the result
    satisfies ord(log1p(t)) = ord(t).
    """
    p, M = t.p, t.prec
    if t.val == 0:
        return PadicNumber(p, M, 0)
    if t.valuation() < _min_valuation(p):
        raise ConvergenceDomain("log1p needs ord(t) >= %d" % _min_valuation(p))
    # terms beyond nmax have valuation >= n - log_p(n) >= M; the bound
    # n - ilog_p(n) is nondecreasing, unlike n - v_p(n)
    nmax = 1
    while nmax - _ilog(p, nmax) < M + 1:
        nmax += 1
    guard = 0
    for n in range(1, nmax + 1):
        guard = max(guard, _vp(p, n))
    big = p ** (M + guard)
    acc = 0
    tn = t.val % big
    for n in range(1, nmax + 1):
        v = _vp(p, n)
        unit = n // (p ** v)
        term = (tn // (p ** v)) * pow(unit, -1, big)
        if tn % (p ** v) != 0:
            # t^n has valuation >= n > v, exact within the guard window
            raise PrecisionExhausted("guard digits exhausted in log1p")
        if n % 2 == 1:
            acc += term
        else:
            acc -= term
        tn = tn * t.val % big
    return PadicNumber(p, M, acc)


def exp(t):
    """exp(t) for ord(t) >= 1 (>= 2 when p = 2), to t's precision."""
    p, M = t.p, t.prec
    if t.val == 0:
        return PadicNumber(p, M, 1)
    if t.valuation() < _min_valuation(p):
        raise ConvergenceDomain("exp needs ord(t) >= %d" % _min_valuation(p))
    # v_p(n!) = (n - s_p(n)) / (p - 1); term valuation grows at least like
    # n * ord(t) - n/(p-1), so n <= 2M + p suffices for all p
    nmax = 2 * M + p
    guard = _vp_factorial(p, nmax) + 1
    big = p ** (M + guard)
    acc = 1
    tn = t.val % big
    fact_v = 0
    fact_unit = 1
    for n in range(1, nmax + 1):
        fact_v += _vp(p, n)
        fact_unit = fact_unit * (n // (p ** _vp(p, n))) % big
        pv = p ** fact_v
        if tn % pv != 0:
            raise PrecisionExhausted("guard digits exhausted in exp")
        acc += (tn // pv) * pow(fact_unit, -1, big)
        tn = tn * t.val % big
    return PadicNumber(p, M, acc)


def _vp(p, n):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _ilog(p, n):
    v = 0
    while p ** (v + 1) <= n:
        v += 1
    return v


def _vp_factorial(p, n):
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


def teichmuller_by_powers(x):
    """The unique (p-1)-st root of unity congruent to x mod p."""
    if not x.is_unit():
        raise NotAUnit("Teichmuller lift needs a unit")
    p, M = x.p, x.prec
    m = p ** M
    w = x.val % m
    for _ in range(M + 1):
        w = pow(w, p, m)
    # after enough iterations w is the fixed point of y -> y^p
    return PadicNumber(p, M, w)
