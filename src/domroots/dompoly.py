"""Exact domination polynomials.

``D(G, x) = sum_k d_k x^k`` where ``d_k`` counts dominating sets of size
``k``.  Two independent general algorithms check each other: a scan of all
``2^n`` subsets, and inclusion-exclusion over undominated vertex sets with
the subsets of up to ``BLOCK`` vertices held as the bits of one int.  Closed
forms cover the three shapes of :data:`domroots.graph.FAMILIES` - complete,
edgeless and complete bipartite, so stars, ``K_{2,l}`` and ``K_{k,k}`` - and
composition under clique substitution is exact.  Coefficients are Python
ints (arbitrary precision); nothing here ever wraps around.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import intpoly
from .errors import CapacityError, DomainError
from .graph import (Graph, _bits, closed_neighborhood_mask, complete, complete_bipartite,
                    empty_graph, family_shape)
from .realroots import _as_fraction

BRUTE_FORCE_CAP = 24
BLOCK = 14  # low vertices whose subsets are the bits of one int


@dataclass(frozen=True)
class DomPolynomial:
    """Dense coefficient vector; ``coeffs[k]`` counts dominating sets of size k."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise DomainError("a domination polynomial needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def domination_number(self) -> int:
        """Index of the lowest nonzero coefficient (gamma for graph-derived polynomials)."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        raise DomainError("the zero polynomial has no domination number")

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                sign = "-" if c < 0 else ""
                var = "x" if k == 1 else f"x^{k}"
                terms.append(f"{sign}{mag}{var}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


def dom_poly_bruteforce(g: Graph) -> DomPolynomial:
    """Count dominating sets by scanning all 2^n subsets.

    A subset S dominates iff the union of closed neighbourhoods over S covers
    every vertex; the union is memoised over the subset lattice so each subset
    costs O(1) mask work.
    """
    n = g.n
    if n > BRUTE_FORCE_CAP:
        raise CapacityError(f"brute force is capped at {BRUTE_FORCE_CAP} vertices, got {n}")
    nbh = [g.adj[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    counts = [0] * (n + 1)
    size = 1 << n
    if n > 20:
        from array import array
        dominated = array("Q", bytes(8 * size))
    else:
        dominated = [0] * size
    for s in range(1, size):
        low = s & -s
        d = dominated[s ^ low] | nbh[low.bit_length() - 1]
        dominated[s] = d
        if d == full:
            counts[s.bit_count()] += 1
    return DomPolynomial(tuple(counts))


@lru_cache(maxsize=BLOCK + 1)
def _index_masks(low: int) -> tuple:
    """``(full, X, odd)`` with one bit per subset ``A`` of vertices ``0..low-1``:
    bit ``A`` of ``X[w]`` is set iff ``w`` is in ``A``, of ``odd`` iff ``|A|`` is odd."""
    full = (1 << (1 << low)) - 1
    xs, odd = [], 0
    for w in range(low):
        half = 1 << w
        xs.append(full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half))
        odd ^= xs[-1]
    return full, tuple(xs), odd


def dom_poly_inclusion_exclusion(g: Graph) -> DomPolynomial:
    """Inclusion-exclusion over sets of undominated vertices, bit-parallel.

    For each A subseteq V, the k-subsets avoiding N[A] number C(n-|N[A]|, k),
    so ``D(G,x) = sum_A (-1)^{|A|} (1+x)^{n-|N[A]|}``.  The subsets of the
    low ``L = min(n, BLOCK)`` vertices are the bits of one int.  A binary
    counter of ``n.bit_length()`` such ints (bit slices) holds every
    subset's count of covered vertices: each vertex adds its cover mask
    with a ripple carry.  The slices are then split once into ``layers[j]``,
    the subsets that cover exactly ``j`` vertices, and popcounts under the
    parity mask give each layer's signed count.  The subsets ``B`` of the
    vertices above ``L`` are walked one at a time: vertices in ``N[B]`` are
    not counted and the layers shift by ``|N[B]|``.  No int is wider than
    ``2^BLOCK`` bits at any order.
    This route checks :func:`dom_poly_bruteforce` and the sweep's transforms.
    """
    n = g.n
    low = min(n, BLOCK)
    full, xs, odd = _index_masks(low)
    covers = [0] * n  # covers[u]: U_u, the low subsets A with u in N[A]
    for w, xw in enumerate(xs):
        for u in _bits(g.adj[w] | 1 << w):
            covers[u] |= xw
    weight = [0] * (n + 1)
    slices = n.bit_length()
    for b in range(1 << (n - low)):
        taken = closed_neighborhood_mask(g, b << low)  # N[B], B the high subset b
        count = [0] * slices  # bit i of every A's count of untaken u in N[A]
        for u, x in enumerate(covers):
            if x and not taken >> u & 1:
                for i, s in enumerate(count):
                    count[i] = s ^ x
                    x &= s
                    if not x:
                        break
        layers = [full]  # layers[j]: the A whose count is j
        for s in reversed(count):
            layers = [part for a in layers for part in (a & ~s, a & s)]
        sign = -1 if b.bit_count() & 1 else 1
        top = n - taken.bit_count()
        for j, layer in enumerate(layers):
            if layer:
                weight[top - j] += sign * (layer.bit_count() - 2 * (layer & odd).bit_count())
    coeffs = [0] * (n + 1)
    for s, w in enumerate(weight):
        if w:
            for k in range(s + 1):
                coeffs[k] += w * comb(s, k)
    return DomPolynomial(tuple(coeffs))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _one_plus_x_pow(e: int) -> list:
    """Coefficients of ``(1+x)^e``, each binomial from the one before it."""
    c = [1] * (e + 1)
    for i in range(e):
        c[i + 1] = c[i] * (e - i) // (i + 1)
    return c


def closed_form_complete(n: int) -> DomPolynomial:
    """D(K_n) = (1+x)^n - 1: every nonempty subset dominates."""
    if n < 1:
        raise DomainError("complete graph needs order >= 1")
    c = _one_plus_x_pow(n)
    c[0] -= 1
    return DomPolynomial(tuple(c))


def closed_form_complete_bipartite(k: int, ell: int) -> DomPolynomial:
    """D(K_{k,l}) = ((1+x)^k - 1)((1+x)^l - 1) + x^k + x^l."""
    if k < 1 or ell < 1:
        raise DomainError("complete bipartite sides must be >= 1")
    out = intpoly.mul(closed_form_complete(k).coeffs, closed_form_complete(ell).coeffs)
    out[k] += 1
    out[ell] += 1
    return DomPolynomial(tuple(out))


def closed_form_empty(n: int) -> DomPolynomial:
    """D(E_n) = x^n: only the whole vertex set dominates the edgeless graph."""
    if n < 1:
        raise DomainError("empty graph needs order >= 1")
    return DomPolynomial((0,) * n + (1,))


def closed_form_star(k: int) -> DomPolynomial:
    """D(K_{1,k}) = x(x+1)^k + x^k."""
    return closed_form_complete_bipartite(1, k)


_BY_SHAPE = {
    complete: closed_form_complete,
    empty_graph: closed_form_empty,
    complete_bipartite: closed_form_complete_bipartite,
}


def dom_poly_closed_form(kind: str, *params: int) -> DomPolynomial:
    """Closed form of a named family of :data:`domroots.graph.FAMILIES`,
    e.g. ``dom_poly_closed_form("K22ell", 5)`` for ``D(K_{2,5})``."""
    shape, args = family_shape(kind, *params)
    return _BY_SHAPE[shape](*args)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def compose_with_complete(p: DomPolynomial, m: int) -> DomPolynomial:
    """Evaluate ``p`` at ``(1+x)^m - 1``, expanded exactly.

    This is the domination polynomial of G[K_m] whenever ``p = D(G)``; the
    degree multiplies by ``m``.  ``p`` is evaluated in integers at the
    packed inner polynomial ``(1 + 2^s)^m - 1`` and the value is unpacked
    once (Kronecker substitution, see :mod:`domroots.intpoly`).  The
    evaluation pairs neighbouring coefficients, ``c_2i + c_2i+1 y``, and
    repeats on the pairs with ``y`` squared (Estrin's scheme), so the long
    products are balanced, where a Horner walk multiplies a growing value
    by the short inner one ``deg p`` times.  The inner polynomial's
    coefficients are nonnegative and sum to ``2^m - 1``, so every
    coefficient of the result is at most ``sum |c_k| (2^m - 1)^k`` in
    magnitude, which sizes the slots.
    """
    if m < 1:
        raise DomainError("substitution order must be >= 1")
    if m == 1:
        return p
    bound = 0
    for c in reversed(p.coeffs):
        bound = bound * ((1 << m) - 1) + abs(c)
    nb = intpoly.slot_bytes(bound)
    vals, y = list(p.coeffs), (1 + (1 << 8 * nb)) ** m - 1
    while len(vals) > 1:
        if len(vals) & 1:
            vals.append(0)
        vals = [lo + hi * y for lo, hi in zip(vals[::2], vals[1::2])]
        if len(vals) > 1:
            y *= y
    return DomPolynomial(tuple(intpoly.unpack(vals[0], nb, p.degree * m + 1)))


def multiply(p: DomPolynomial, q: DomPolynomial) -> DomPolynomial:
    """Exact coefficient convolution; D(G)D(H) = D(G + H) for disjoint unions."""
    out = intpoly.mul(list(p.coeffs), list(q.coeffs))
    out = out + [0] * (p.degree + q.degree + 1 - len(out))
    return DomPolynomial(tuple(out))


def eval_rational(p: DomPolynomial, q) -> Fraction:
    """Exact value of ``p`` at a rational point (Horner on homogenised ints)."""
    q = _as_fraction(q)
    return Fraction(intpoly.eval_homogeneous(p.coeffs, q.numerator, q.denominator),
                    q.denominator ** p.degree)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_json(p: DomPolynomial) -> str:
    """Serialise as {"n": degree, "coeffs": [decimal strings]}.

    Coefficients are decimal strings because they routinely exceed the range
    of native integers in composed polynomials.
    """
    return json.dumps({"n": p.degree, "coeffs": [str(c) for c in p.coeffs]})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _coefficient(c) -> int:
    if _is_int(c):
        return c
    if isinstance(c, str):
        try:
            return int(c)
        except ValueError:
            pass
    raise DomainError(f"polynomial coefficient {c!r} is not a decimal integer")


def from_json(text: str) -> DomPolynomial:
    """Parse :func:`to_json` output; malformed input raises :class:`DomainError`."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise DomainError(f"polynomial is not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj or "coeffs" not in obj:
        raise DomainError('polynomial JSON must be an object with fields "n" and "coeffs"')
    n, raw = obj["n"], obj["coeffs"]
    if not _is_int(n):
        raise DomainError(f"polynomial field n must be an integer, got {n!r}")
    if not isinstance(raw, list):
        raise DomainError(f"polynomial field coeffs must be a list, got {raw!r}")
    coeffs = tuple(_coefficient(c) for c in raw)
    if len(coeffs) != n + 1:
        raise DomainError("coefficient vector length disagrees with the stated degree")
    return DomPolynomial(coeffs)
