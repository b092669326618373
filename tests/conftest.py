import bisect
import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from domroots import graph, intpoly, witness
from domroots.errors import DomainError
from domroots.graph import Graph, _bits, _edge_pairs
from domroots.realroots import (
    DEFAULT_TOL,
    NOTE_SIMPLE,
    RationalInterval,
    RootEnclosure,
    _exact_enclosure,
    _sign_bisect,
    bipartite_sign,
    isolate_real_roots,
)

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


def mul_ref(p, q) -> list:
    """``p * q``, normalized, by the schoolbook double loop: the reference
    for :func:`intpoly.mul`."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return intpoly.normalize(out)


def compose_ref(coeffs, m: int) -> tuple:
    """``coeffs`` at ``(1+x)^m - 1`` by a Horner walk over :func:`mul_ref`,
    padded to ``degree * m + 1`` coefficients: the reference for
    :func:`dompoly.compose_with_complete`."""
    inner = [math.comb(m, i) for i in range(m + 1)]
    inner[0] = 0
    acc = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        acc = mul_ref(acc, inner)
        if c:
            if acc:
                acc[0] += c
            else:
                acc = [c]
    return tuple(acc + [0] * ((len(coeffs) - 1) * m + 1 - len(acc)))


def prefix_chunk_ref(args) -> tuple:
    """:func:`atlas._prefix_chunk` with the transform on a list of packed
    polynomials, one butterfly per index bit: the reference for the
    packed-slot transform."""
    from array import array
    from collections import defaultdict
    from operator import add, getitem

    n, digit, start, stop = args
    k = n - 1
    size = 1 << k
    full = size - 1
    base = 1 << digit
    pairs = _edge_pairs(k)
    term = [base * (base + 1) ** (k - m.bit_count()) for m in range(size)]
    table = []
    for a in range(size):
        row = [-v for v in term] if a.bit_count() & 1 else list(term)
        row[full] -= base ** a.bit_count()
        table.append(row)
    index = defaultdict()
    index.default_factory = index.__len__
    width = stop - start
    ids = array("I", [0]) * (size * width)
    for prefix in range(start, stop):
        nbh = [1 << v for v in range(k)]
        for e in _bits(prefix):
            u, v = pairs[e]
            nbh[u] |= 1 << v
            nbh[v] |= 1 << u
        cover = [0]
        for b in nbh:
            cover += [c | b for c in cover]
        z = list(map(getitem, table, cover))
        # each step sums over the lowest index bit and rotates it to the top
        for _ in range(k):
            lo, hi = z[0::2], z[1::2]
            z = lo + list(map(add, lo, hi))
        keys = map((z[full] // (base - 1)).__add__, reversed(z))
        ids[prefix - start::width] = array("I", map(index.__getitem__, keys))
    return list(index), ids


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


def simplest_ref(lo, hi, open_lo=False, open_hi=False) -> Fraction:
    """The rational of the range from ``lo`` to ``hi`` with the smallest
    denominator, and of those the one nearest 0, by trying each denominator
    from 1 up: the reference for :func:`realroots._simplest_ratio`.  With
    denominator ``q`` the candidates nearest 0 are 0 and the multiples of
    ``1/q`` next to ``lo`` and to ``hi``."""
    def inside(x):
        return (lo < x or x == lo and not open_lo) and (x < hi or x == hi and not open_hi)

    q = 1
    while True:
        near = {0, math.floor(lo * q), math.floor(lo * q) + 1, math.ceil(hi * q) - 1,
                math.ceil(hi * q)}
        found = [Fraction(p, q) for p in near if inside(Fraction(p, q))]
        if found:
            return min(found, key=abs)
        q += 1


def exact_witness(z, eps, budget=None, tol=DEFAULT_TOL):
    """:func:`witness.construct_witness` by exact signs alone: for each part
    of the window, the bisection on the family parameter and the certifying
    bisection take every sign from :func:`realroots.bipartite_sign`, and no
    float guide enters, and the bracket's ends are moved out as
    :func:`witness._simplest_ends` moves them.  The reference for the guided
    search; returns the certificate, or None when every part runs out of
    budget."""
    z, eps = Fraction(z), Fraction(eps)
    budget = budget or witness.SearchBudget()
    if z - eps < 0 < z + eps or z - eps < -2 < z + eps:
        return witness.construct_witness(z, eps, budget, tol)  # an exact root, no search
    for part in witness._classify(z - eps, z + eps):
        kind, w_lo, w_hi = part
        row = witness._KINDS[kind]
        sides = graph.FAMILIES[row.family].to_shape

        def toward(p, x):
            return bipartite_sign(sides(p), x.numerator, x.denominator) * row.ahead(p)

        best = None
        for m, ps in witness._Search(z, eps, budget, tol, part).ranges:
            if best:
                if m + 1 >= best[0]:
                    break
                ps = ps[:bisect.bisect_left(ps, best[0] - m)]
            near, far = witness._phi(w_lo, m), witness._phi(w_hi, m)
            if not row.climbs:
                near, far = far, near
            if not ps or toward(ps[-1], near) < 1:
                break
            p = ps[bisect.bisect_left(ps, 1, hi=len(ps) - 1, key=lambda p: toward(p, near))]
            if toward(p, far) == -1:
                best = (m + p, m, p)
        if best:
            _, m, p = best
            s_lo = row.ahead(p) if row.climbs else -row.ahead(p)
            sign = witness._composed(bipartite_sign, sides(p), m)
            lo, hi = _sign_bisect(sign, w_lo, w_hi, s_lo, tol, (z - eps, z + eps))
            if lo == hi:
                enc = _exact_enclosure(lo)
            else:
                lo, hi = witness._simplest_ends(lo, hi, w_lo, w_hi, tol)
                enc = RootEnclosure(RationalInterval(lo, hi), s_lo, -s_lo, NOTE_SIMPLE)
            return witness.WitnessCertificate(z, eps, kind, p, m, sum(sides(p)) * m, enc, row.case)
    return None


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
