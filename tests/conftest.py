import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from domroots import intpoly
from domroots.errors import DomainError
from domroots.graph import Graph
from domroots.realroots import DEFAULT_TOL, RationalInterval, isolate_real_roots

settings.register_profile(
    "domroots",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("domroots")


def all_labeled_graphs(n):
    """Every graph on n labeled vertices, in edge-mask order."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for idx, (u, v) in enumerate(pairs):
            if mask >> idx & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield Graph(n, tuple(adj))


def random_graph(rng: random.Random, n: int) -> Graph:
    adj = [0] * n
    for v in range(1, n):
        for u in range(v):
            if rng.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def star_form_sign(k, u, v):
    """Sign of ``u (u+v)^k + u^k v`` from the integer itself: the reference
    for the star kernel."""
    val = u * (u + v) ** k + u ** k * v
    return (val > 0) - (val < 0)


def bipartite_form(sides, u, v):
    """``(w^a - v^a)(w^b - v^b) + u^a v^b + u^b v^a`` with ``w = u + v``:
    ``v^(a+b) D(K_{a,b}, u/v)`` in the direct closed form, the reference for
    the sign kernel and for the verifier's numerator."""
    a, b = sides
    w = u + v
    return (w ** a - v ** a) * (w ** b - v ** b) + u ** a * v ** b + u ** b * v ** a


def poly_add(p, q) -> list:
    """``p + q``, normalized."""
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return intpoly.normalize(out)


def pow_(p, e: int) -> list:
    """``p**e`` by binary powering; ``e >= 0``."""
    if e < 0:
        raise DomainError("negative polynomial power")
    out = [1]
    base = list(p)
    while e:
        if e & 1:
            out = intpoly.mul(out, base)
        e >>= 1
        if e:
            base = intpoly.mul(base, base)
    return out


def content_ref(p) -> int:
    """The gcd of the coefficients, folded one at a time from 0: the
    reference for :func:`intpoly.content`."""
    g = 0
    for c in p:
        g = math.gcd(g, c)
    return g


def primitive_ref(p) -> list:
    """``p`` without trailing zeros, divided by its content: the reference
    for :func:`intpoly.primitive`."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    g = content_ref(p)
    return [c // g for c in p] if g > 1 else p


def fraction_rem(f, g) -> list:
    """Remainder of ``f`` by ``g`` by long division over the rationals, with
    no trailing zeros: the reference for :func:`intpoly.pseudo_rem_positive`."""
    r = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    while g and g[-1] == 0:
        g.pop()
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(g):
            return r
        q = r[-1] / g[-1]
        off = len(r) - len(g)
        for j, c in enumerate(g):
            r[off + j] -= q * c


def poly_gcd(f, g) -> list:
    """Primitive gcd with positive leading coefficient (primitive PRS)."""
    f = intpoly.primitive(f)
    g = intpoly.primitive(g)
    while g:
        f, g = g, intpoly.pseudo_rem_positive(f, g)
    if f and f[-1] < 0:
        f = intpoly.neg(f)
    return f


def exact_negative_roots(coeffs, tol=DEFAULT_TOL):
    """``certified_negative_roots`` by Sturm isolation alone, with no float
    search: the exact point 0 when ``x`` divides ``coeffs``, and the
    isolation of the zero-free part over ``(-B, B]`` for its Cauchy bound."""
    coeffs = intpoly.normalize(list(coeffs))
    t0 = intpoly.trailing_zeros(coeffs)
    out = [(Fraction(0), Fraction(0))] if t0 else []
    cof = coeffs[t0:]
    if intpoly.degree(cof) >= 1:
        bound = intpoly.cauchy_root_bound(cof)
        encs = isolate_real_roots(cof, RationalInterval(-bound, bound), tol)
        out += [(e.interval.lo, e.interval.hi) for e in encs]
    return sorted(out)


@contextmanager
def time_limit(seconds):
    """Fail, rather than hang, when the body runs past ``seconds``."""

    def stop(signum, frame):
        raise AssertionError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return random.Random(0xD07)
