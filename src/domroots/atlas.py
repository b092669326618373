"""Desk-scale sweeps: root clouds, extremal-root tables and growth checks.

The labeled sweep covers every graph on ``n`` labeled vertices (capped at 7
by default, ~2 million graphs).  Each graph is a prefix graph on the first
``n-1`` vertices plus the neighbourhood of the last one; one subset-sum
transform per prefix gives the domination polynomials of all ``2^(n-1)``
extensions, each packed into one int (see :func:`_polynomial_ids`).
Root finding is float-first: the Sturm chain comes first, and its first
element, the square-free part, is searched, so a repeated root is a
simple one there.  Floating bisection over monotone
segments only guesses the locations: exact endpoint signs certify each
enclosure, and the chain's count of distinct real roots completeness.
The float search is one function per degree, generated and
compiled on first use: it calls the search of the derivative's degree,
then takes its signs and bisects in straight-line Horner code, which
performs the same float operations in the same order as a loop over the
coefficients.  A derivative's roots only place segment ends, so its levels
halve a segment only until it is narrower than ``2^-7`` (``_LEVEL_WIDTH``)
times one more than its ends' smaller magnitude; the top level bisects to
adjacent floats, and the printed digits follow its bisection path, so no
step of it may change.  The count is that of the chain's sign variations
at -inf and +inf, read off each element's leading sign and degree, so
nothing is evaluated.  A domination polynomial's coefficients are
positive, so it has no positive root (Descartes' rule of signs) and the
float search covers the negative axis only; a polynomial with a positive
root fails the count.  A guess that fails an exact check (the count, an
end sign, overlapping enclosures, an enclosure that reaches 0) escalates
to fully exact isolation.
Workers take contiguous prefix ranges and the parent places their
polynomial ids by edge mask, so parallel output is byte-identical to a
single worker's.

Every root cloud is one :class:`_Cloud` over a source that gives its graphs'
graph6 labels, their distinct polynomials and each graph's polynomial
index: the sweep above, or a graph stream - a corpus file (``--mode file``)
or one graph per isomorphism class (``--mode dedup``) - read in full, with
each graph's polynomial from inclusion-exclusion.  One dict per call
certifies each distinct zero-free part once, so ``x^t q`` shares one
certification for every ``t >= 1``; the CSV writer keeps each one's
formatted text, and each row is a graph's label joined to its polynomial's
rows.  The extremal table keeps one such dict over all its orders.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, frexp, log
from typing import Callable, Iterable, Iterator, Optional

from . import intpoly
from .dompoly import dom_poly_inclusion_exclusion
from .errors import CapacityError, DomainError
from .graph import (
    Graph,
    _bits,
    _edge_pairs,
    _graph_from_mask,
    class_masks,
    labeled_graph6,
    mask_to_graph6,
    to_graph6,
)
from .realroots import (
    DEFAULT_TOL,
    RationalInterval,
    _isolate,
    _tolerance,
    count_real_roots,
    format_fixed,
    star_domination_root,
    star_root,
    sturm_chain,
)
# unused here; bench/spans.py wraps these names on this module
from .realroots import count_roots_in, isolate_real_roots  # noqa: F401

LABELED_CAP_DEFAULT = 7

# a derivative level of the float search halves to this relative width only
_LEVEL_WIDTH = 2.0 ** -7


@dataclass(frozen=True)
class RootCloudRecord:
    """One certified real-root enclosure of one scanned graph."""

    graph6: str
    n: int
    root_lo: Fraction
    root_hi: Fraction


@dataclass(frozen=True)
class ExtremalRecord:
    """Smallest certified real domination root over the scanned graphs of order n."""

    n: int
    root_lo: Fraction
    root_hi: Fraction
    graph6: str
    exhaustive: bool
    note: str = ""


@dataclass(frozen=True)
class GrowthRecord:
    """Extremal star-root magnitude against the n/ln n growth yardstick."""

    n: int
    magnitude: float
    n_over_log_n: float
    ratio: float


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _check_order(n: int, labeled_cap: int) -> None:
    if n < 1:
        raise DomainError("order must be >= 1")
    if n > labeled_cap:
        raise CapacityError(
            f"labeled enumeration of order {n} exceeds the cap of {labeled_cap}"
        )


def enumerate_graphs(
    n: int,
    mode: str = "all_labeled",
    *,
    labeled_cap: int = LABELED_CAP_DEFAULT,
) -> Iterator[Graph]:
    """Stream every labeled graph of order n, or in ``dedup`` mode one graph
    per isomorphism class: the smallest edge mask of each class, ascending.

    The classes are exact (:func:`graph.class_masks`).  Each class costs its
    ``n!`` images, marked in a table of ``2^(n(n-1)/2)`` bytes: 2 MiB at
    the default cap of 7, and 256 MiB if ``labeled_cap`` is raised to 8.
    The mode, order and cap are checked when this is called, before the
    first graph is drawn.
    """
    if mode not in ("all_labeled", "dedup"):
        raise DomainError(f"unknown enumeration mode {mode!r}")
    _check_order(n, labeled_cap)
    return _labeled_graphs(n, mode == "dedup")


def _labeled_graphs(n: int, dedup: bool) -> Iterator[Graph]:
    for mask in class_masks(n) if dedup else range(1 << n * (n - 1) // 2):
        yield _graph_from_mask(mask, n)


# ---------------------------------------------------------------------------
# certified per-polynomial root scan
# ---------------------------------------------------------------------------

_HORNER_STEPS = 16  # per statement: CPython's parser rejects 200 nested parentheses


def _horner(terms: list, x: str, acc: str, indent: int) -> tuple:
    """``(statements, expression)``: the Horner recurrence over ``terms`` (top
    coefficient first) at ``x``, ``acc = t0`` then ``acc = acc * x + t`` for
    each later ``t``, as nested expressions of at most ``_HORNER_STEPS``
    steps each.  ``statements``, each on a new line indented by ``indent``,
    store ``acc`` for the expression that follows them."""
    statements, expr = "", terms[0]
    for i, t in enumerate(terms[1:]):
        if i and i % _HORNER_STEPS == 0:
            statements += f"\n{' ' * indent}{acc} = {expr}"
            expr = acc
        expr = f"({expr} * {x} + {t})"
    return statements, expr


@functools.cache
def _root_search(deg: int):
    """The float root search for polynomials of degree ``deg >= 1``,
    generated and compiled on first use.

    ``search(lo, hi, width, c0, ..., cd)`` returns the roots of
    ``sum ci x^i`` on ``(lo, hi)``, by derivative subdivision: the
    degree-``d-1`` search finds the roots of the derivative, whose
    coefficients ``i * ci`` are written into the call, and with ``lo`` and
    ``hi`` they cut ``(lo, hi)`` into monotone segments.  An end is
    positive if its float value is ``> 0.0``.  The search never refuses:
    its roots are guesses, which :func:`_try_float_roots` checks exactly.
    The ends ascend, as each derivative root lies in its own segment; one
    that repeats an end leaves an empty segment with equal signs.  A
    segment ``(x, y)`` whose ends differ in sign is halved, moving the end
    whose sign the midpoint shares, until the midpoint is no longer strictly
    between the ends, and the final midpoint is its root.  With ``width =
    0.0`` that takes at most 200 halvings; a positive ``width`` takes at
    most ``k``, the least ``k >= 0`` with
    ``(y - x) / 2^k < width * (1 + min(|x|, |y|))``, the exponent of that
    ratio (``math.frexp``).  At degree 1 the root is ``-c0 / c1``.

    The derivative's roots only place segment ends, so every derivative
    level runs at ``width = _LEVEL_WIDTH``, and the top level, called with
    ``width = 0.0``, bisects to adjacent floats.  Every sign and halving is
    straight-line code (:func:`_horner`), and the halving loop comes twice,
    once per sign at the segment's left end, so its test is a bare
    ``acc > 0.0``.  The floats and their order are those of a loop over the
    coefficients from ``acc = 0.0`` (``0.0 * x + c`` is ``c`` for finite
    ``x``); the printed digits follow the top level's bisection path, so no
    step of it may change.
    """
    coefs = [f"c{i}" for i in range(deg + 1)]
    if deg == 1:
        body = """
    r = -c0 / c1
    return [r] if lo < r < hi else []"""
    else:
        top_down = coefs[::-1]
        derivative = ", ".join(["c1"] + [f"{i} * c{i}" for i in range(2, deg + 1)])
        acc_pre, acc = _horner(top_down, "x", "acc", 8)
        mid_pre, mid = _horner(top_down, "mid", "acc", 16)
        body = f"""
    pts = [lo, *inner(lo, hi, level_width, {derivative}), hi]
    ups = []
    for x in pts:{acc_pre}
        ups.append({acc} > 0.0)
    roots = []
    for x, y, up, next_up in zip(pts, pts[1:], ups, ups[1:]):
        if up is next_up:
            continue
        steps = frexp((y - x) / (width * (1.0 + min(abs(x), abs(y)))))[1] if width else 200
        if up:
            for _ in range(steps):
                mid = 0.5 * (x + y)
                if mid <= x or mid >= y:
                    break{mid_pre}
                if {mid} > 0.0:
                    x = mid
                else:
                    y = mid
        else:
            for _ in range(steps):
                mid = 0.5 * (x + y)
                if mid <= x or mid >= y:
                    break{mid_pre}
                if {mid} > 0.0:
                    y = mid
                else:
                    x = mid
        roots.append(0.5 * (x + y))
    return roots"""
    src = f"def search(lo, hi, width, {', '.join(coefs)}):{body}\n"
    ns = {"inner": _root_search(deg - 1) if deg > 1 else None, "level_width": _LEVEL_WIDTH,
          "frexp": frexp}
    exec(compile(src, f"<root search, degree {deg}>", "exec"), ns)
    return ns["search"]


def _float_candidates(c, lo: float, hi: float) -> list:
    """Roots of the float polynomial ``c`` (lowest coefficient first) on
    ``(lo, hi)``, by the search of its degree (:func:`_root_search`)."""
    return _root_search(len(c) - 1)(lo, hi, 0.0, *c) if len(c) > 1 else []


def certified_negative_roots(coeffs, tol: Fraction = DEFAULT_TOL) -> list:
    """Certified enclosures (lo, hi) for every distinct real root of ``coeffs``.

    The root at 0 (always present for graph polynomials) comes back as the
    exact point (0, 0).  The float fast path searches ``(-B, 0)`` only, for
    the Cauchy bound ``B``, whose float is one correctly rounded int
    division (:func:`_search_end`): a domination polynomial's coefficients
    are positive, so by Descartes' rule of signs it has no positive root.
    The Sturm chain is built first, and the search runs on its square-free
    part, so a repeated root is searched as a simple one; the search is one
    function per degree, compiled on first use (:func:`_root_search`).  The
    number of distinct nonzero real roots comes from the chain's leading
    signs (:func:`count_real_roots`), with no evaluation, and must equal the
    number of candidates, so any other polynomial with a positive root
    fails the count and falls back to Sturm isolation, on the same chain.
    The float roots are only guesses: each root ``r`` is certified
    by the square-free part's exact signs at ``r -/+ tol/2``, taken as
    integer numerators over one denominator
    (:func:`intpoly.eval_homogeneous`), and must lie strictly above the one
    before, so a wrong guess falls back, as does a float overflow or a
    coarse ``tol`` that reaches past 0 (``tol/2 >= |r|``).  The rational
    ends are built only once every root is certified.  Isolation runs on
    ``coeffs`` itself, so it splits off the root 0 exactly and keeps every
    other enclosure clear of it; its list is sorted, with a positive root,
    which no domination polynomial has, after ``(0, 0)``.  The audit tests
    check on random samples, repeated factors among them, that the fast
    path agrees, root for root, with Sturm isolation alone, and on wrong
    guesses that the result does not change.
    """
    tol = _tolerance(tol)
    coeffs = intpoly.normalize(list(coeffs))
    if not coeffs:
        raise DomainError("zero polynomial")
    t0 = intpoly.trailing_zeros(coeffs)
    zero = [(Fraction(0), Fraction(0))] if t0 else []
    cof = coeffs[t0:]
    if intpoly.degree(cof) < 1:
        return zero
    chain = sturm_chain(cof)
    intervals = _try_float_roots(cof, tol, chain)
    if intervals is not None:  # ascending and negative
        return intervals + zero
    bound = intpoly.cauchy_root_bound(cof)
    # isolation splits off the root 0 exactly and keeps the others clear of it
    encs = _isolate(coeffs, chain, RationalInterval(-bound, bound), tol)
    return [(e.interval.lo, e.interval.hi) for e in encs]


def _search_end(cof) -> float:
    """``-float(intpoly.cauchy_root_bound(cof))``, with no ``Fraction``: int
    true division rounds correctly, and raises ``OverflowError`` past the
    float range as ``float`` of the bound does."""
    lead = abs(cof[-1])
    return -((lead + max(map(abs, cof[:-1]))) / lead)


def _try_float_roots(cof, tol, chain) -> Optional[list]:
    """The certified roots of ``cof`` on the float route, or None; ``chain``
    is the Sturm chain of ``cof``."""
    f = list(chain.squarefree)  # the distinct roots of cof, each simple
    try:
        # a positive root, which no domination polynomial has, fails the count
        cands = [r.as_integer_ratio()  # a midpoint that overflows is -inf
                 for r in _float_candidates([float(c) for c in f], _search_end(f), 0.0)]
    except OverflowError:
        return None
    if len(cands) != count_real_roots(chain):
        return None
    # r = n/d and tol = p/q put the ends r -/+ tol/2 over the one denominator 2qd
    p, q = tol.numerator, tol.denominator
    ends = []
    for n, d in cands:
        den, mid, rad = 2 * q * d, 2 * q * n, p * d
        lo, hi = mid - rad, mid + rad
        if hi >= 0:  # a coarse tol reaches 0, where the root 0 may lie
            return None
        s_lo = intpoly.eval_homogeneous(f, lo, den)
        s_hi = intpoly.eval_homogeneous(f, hi, den)
        if not (s_lo < 0 < s_hi or s_hi < 0 < s_lo):
            return None
        if ends and lo * ends[-1][2] <= ends[-1][1] * den:  # meets the last one
            return None
        ends.append((lo, hi, den))
    return [(Fraction(lo, den), Fraction(hi, den)) for lo, hi, den in ends]


# ---------------------------------------------------------------------------
# the labeled sweep
# ---------------------------------------------------------------------------

def _slot_table(n: int, digit: int) -> tuple:
    """``(table, B, nb)`` for :func:`_prefix_chunk` at order ``n``: the
    power of two ``B`` above every ``|e|``, the bytes per slot ``nb``, and
    ``table[A][M]``, the ``nb`` little-endian bytes of ``e + B`` for the
    transform's input ``e`` at ``A`` when ``N'[A] = M``, packed at
    ``x = 2^digit``: ``x (-1)^|A| (1+x)^(k-|M|)``, less ``x^|A|`` when ``A``
    dominates (``M = V'``).  ``8 nb >= k + log2(B) + 1`` and
    ``2^(8 nb) >= 2^(digit (n+1))``, and ``nb`` is at least 8."""
    k = n - 1
    size = 1 << k
    base = 1 << digit
    term = [base * (base + 1) ** (k - m.bit_count()) for m in range(size)]
    entry = []
    for a in range(size):
        row = [-v for v in term] if a.bit_count() & 1 else list(term)
        row[-1] -= base ** a.bit_count()
        entry.append(row)
    bias = 1 << max(abs(e) for row in entry for e in row).bit_length()
    nb = max(8, -(-max(k + bias.bit_length(), digit * (n + 1)) // 8))
    return [[(e + bias).to_bytes(nb, "little") for e in row] for row in entry], bias, nb


def _prefix_chunk(args) -> tuple:
    """Packed polynomials, ``digit`` bits per coefficient, of the order-``n``
    graphs whose prefix lies in ``range(start, stop)`` (see
    :func:`_polynomial_ids`).

    Returns ``(keys, ids)``: the distinct packed polynomials in order of
    first appearance, and for the graph with prefix ``p`` and last-vertex
    neighbourhood ``S`` the index of its key at
    ``ids[S * (stop - start) + p - start]``, so each ``S`` is one run.

    Each prefix's transform runs on one int, a vector of ``2^k`` slots of
    ``W = 8 nb`` bits (``k = n - 1``; slot ``T`` at bit ``W T``), so its
    sums run in CPython's big-integer arithmetic (SWAR; Lamport, "Multiple
    byte processing with full-word instructions", CACM 1975).  The inputs
    come biased by ``B`` (:func:`_slot_table`), so each input slot lies in
    ``(0, 2B)``, and after the ``k`` zeta steps slot ``T`` holds its subset
    sum plus ``B 2^|T|``, in ``[0, 2^(k+1) B)``: as ``W >= k + log2(B) + 1``,
    no carry crosses a slot.  ``D(G')`` is read from the top slot of this
    biased vector, whose lower slots are all nonnegative, so the shift reads
    that slot exactly.  (The finished slots ``x P(T) - H(T)`` are positive
    without the bias too, as ``x P(T)`` holds ``x^(k+1)``, which exceeds
    ``H(T)`` at ``x = 2^digit``; the inputs and partial sums are not.)
    Subtracting the packed biases and adding ``D(G')`` to every slot leaves
    each slot holding its key, below ``2^(digit (n+1)) <= 2^W``.  ``W`` is
    64 through order 7, where the keys unpack through ``array("Q")``; wider
    slots unpack byte slice by byte slice.
    """
    from array import array
    from collections import defaultdict
    from operator import getitem

    n, digit, start, stop = args
    k = n - 1
    size = 1 << k
    full = size - 1
    base = 1 << digit
    pairs = _edge_pairs(k)
    table, bias, nb = _slot_table(n, digit)
    w = 8 * nb
    ones = 1 << w * size
    # masks[i]: every bit of the slots whose index lacks bit i
    masks = [ones // ((1 << (w << i + 1)) - 1) * ((1 << (w << i)) - 1) for i in range(k)]
    repunit = ones // ((1 << w) - 1)
    biases = sum(bias << t.bit_count() << w * t for t in range(size))
    index = defaultdict()
    index.default_factory = index.__len__  # a new key gets the next id
    width = stop - start
    ids = array("I", [0]) * (size * width)
    for prefix in range(start, stop):
        nbh = [1 << v for v in range(k)]
        for e in _bits(prefix):
            u, v = pairs[e]
            nbh[u] |= 1 << v
            nbh[v] |= 1 << u
        cover = [0]  # cover[A] = N'[A]
        for b in nbh:
            cover += [c | b for c in cover]
        z = int.from_bytes(b"".join(map(getitem, table, cover)), "little")
        for i, mask in enumerate(masks):  # slot T | 2^i gains slot T
            z += (z & mask) << (w << i)
        # slot V' holds (x - 1) D(G') = x P(V') - H(V'), as P(V') = H(V') = D(G')
        dg = ((z >> w * full) - (bias << k)) // (base - 1)
        packed = (z - biases + dg * repunit).to_bytes(nb * size, "little")
        if nb == 8:
            keys = array("Q", packed)
            if sys.byteorder == "big":
                keys.byteswap()
        else:
            keys = [int.from_bytes(packed[i:i + nb], "little")
                    for i in range(0, nb * size, nb)]
        # S ascending is T = V' \ S descending
        ids[prefix - start::width] = array("I", map(index.__getitem__, reversed(keys)))
    return list(index), ids


def _polynomial_ids(n: int, workers: int) -> tuple:
    """Distinct domination polynomials of the labeled graphs of order ``n``
    and, for every edge mask, the index of its polynomial in that list.

    A graph is a prefix graph ``G'`` on ``V' = {0..n-2}`` (the low mask
    bits) plus the neighbourhood ``S`` of vertex ``n-1`` (the high bits).
    A dominating set of ``G`` either omits ``n-1``, and then dominates
    ``G'`` and meets ``S``, or holds it, and then the rest ``W`` covers
    ``T = V' \\ S``.  So ``D(G) = D(G') - H(T) + x P(T)`` with
    ``H(T) = sum x^|W|`` over the ``W`` inside ``T`` that dominate ``G'``
    and ``P(T) = sum x^|W|`` over the ``W`` with ``T`` inside ``N'[W]``,
    which by inclusion-exclusion is
    ``sum_(A inside T) (-1)^|A| (1+x)^(n-1-|N'[A]|)``.  Both are subset
    sums over ``T``, so one zeta transform per prefix (Bjorklund, Husfeldt,
    Kaski and Koivisto, "Fourier meets Mobius: fast subset convolution",
    STOC 2007) gives ``x P - H`` at every ``T``, and each of the
    ``2^(n-1)`` extensions costs one addition.  A polynomial is packed into
    one int as its value at ``x = 2^digit``, where ``2^digit`` exceeds
    ``C(n, n // 2)`` and so every coefficient of ``D(G)``: the digits of the
    int are the coefficients, and equal keys mean equal polynomials.  The
    transform itself runs on one int per prefix, ``2^(n-1)`` slots wide, and
    each input carries a bias ``B``, a power of two above every input's
    magnitude, so that every slot stays nonnegative and within its width
    until the keys are formed (:func:`_prefix_chunk`).

    Workers take contiguous prefix ranges; the ids they return are mapped
    onto the keys in order of first appearance over the chunks, so the
    result does not depend on the worker count.  The pool is no larger than
    the CPUs this process may run on or the number of chunks.
    """
    from array import array

    k = n - 1
    prefix_bits = k * (k - 1) // 2
    prefixes = 1 << prefix_bits
    digit = comb(n, n // 2).bit_length()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1)
    if workers <= 1 or prefixes << k < 4096:
        keys, ids = _prefix_chunk((n, digit, 0, prefixes))
    else:
        import multiprocessing as mp

        step = -(-prefixes // workers)
        jobs = [(n, digit, a, min(a + step, prefixes)) for a in range(0, prefixes, step)]
        index = {}
        ids = array("I", [0]) * (prefixes << k)
        ctx = mp.get_context("fork") if sys.platform != "win32" else mp.get_context()
        with ctx.Pool(len(jobs)) as pool:
            results = pool.imap(_prefix_chunk, jobs)
            for (*_, start, stop), (chunk_keys, local) in zip(jobs, results):
                remap = [index.setdefault(key, len(index)) for key in chunk_keys]
                local = array("I", map(remap.__getitem__, local))
                width = stop - start
                for s in range(1 << k):
                    at = s << prefix_bits
                    ids[at + start:at + stop] = local[s * width:(s + 1) * width]
        keys = list(index)
    mask = (1 << digit) - 1
    return [tuple(key >> digit * j & mask for j in range(n + 1)) for key in keys], ids


# ---------------------------------------------------------------------------
# root clouds
# ---------------------------------------------------------------------------

def _labeled_source(n: int, workers: int) -> tuple:
    return labeled_graph6(n), *_polynomial_ids(n, workers)


def _stream_source(graphs: Iterable) -> tuple:
    """``(labels, polynomials, ids)`` of a graph stream, read in full: each
    graph's canonical graph6, the distinct domination polynomials in order
    of first appearance, and per graph the index of its polynomial."""
    from array import array

    labels, index, ids = [], {}, array("I")
    for g in graphs:
        labels.append(to_graph6(g))
        ids.append(index.setdefault(dom_poly_inclusion_exclusion(g).coeffs, len(index)))
    return labels, list(index), ids


def _root_key(coeffs) -> tuple:
    """``(q, t >= 1)`` for ``coeffs = x^t q``: ``x^t q`` has the roots of
    ``q`` and, for every ``t >= 1``, the root 0, so all of them share one
    certification under this key."""
    t0 = intpoly.trailing_zeros(coeffs)
    return coeffs[t0:], t0 > 0


def _roots(coeffs, tol: Fraction, seen: dict, form=list):
    """``form`` of the certified enclosures of ``coeffs``.  ``seen`` maps
    each :func:`_root_key` met so far to that value, so one ``seen`` dict
    certifies each key once."""
    key = _root_key(coeffs)
    got = seen.get(key)
    if got is None:
        got = seen[key] = form(certified_negative_roots(coeffs, tol))
    return got


def _text(roots) -> tuple:
    """The ``",lo,hi\\n"`` text of each enclosure of ``roots``."""
    return tuple(f",{format_fixed(lo)},{format_fixed(hi)}\n" for lo, hi in roots)


@dataclass(frozen=True)
class _Cloud:
    """The root cloud of one source: ``source()`` gives the graph6 labels of
    its graphs, their distinct domination polynomials and, per graph, the
    index of its polynomial.  Each call reads the source once and
    certifies each :func:`_root_key` once; a polynomial's degree is its
    graph's order."""

    source: Callable[[], tuple]
    tol: Fraction

    def rows(self) -> Iterator[tuple]:
        """``(graph6, n, enclosures)`` per graph, in source order."""
        labels, polys, ids = self.source()
        seen = {}
        parts = [(len(c) - 1, _roots(c, self.tol, seen)) for c in polys]
        for g6, (n, roots) in zip(labels, map(parts.__getitem__, ids)):
            yield g6, n, roots

    def __iter__(self) -> Iterator[RootCloudRecord]:
        for g6, n, roots in self.rows():
            for lo, hi in roots:
                yield RootCloudRecord(g6, n, lo, hi)

    def csv_rows(self) -> Iterator[str]:
        """One string per graph, its CSV rows.  The source is read, and each
        distinct polynomial's rows formatted, when this is called."""
        labels, polys, ids = self.source()
        seen = {}
        tails = [("",) + tuple(f",{len(c) - 1}{t}" for t in _roots(c, self.tol, seen, _text))
                 for c in polys]
        return map(str.join, labels, map(tails.__getitem__, ids))


def root_cloud(
    n: int,
    tol: Fraction = DEFAULT_TOL,
    workers: int = 1,
    labeled_cap: int = LABELED_CAP_DEFAULT,
) -> Iterable[RootCloudRecord]:
    """Certified real-root enclosures for every labeled graph of order ``n``.

    Rows come in edge-mask order with roots ascending per graph.  The order
    and cap are checked when this is called, before the first row; the
    sweep (:func:`_polynomial_ids`) runs each time the cloud is iterated or
    written.
    """
    _check_order(n, labeled_cap)
    return _Cloud(functools.partial(_labeled_source, n, workers), tol)


def root_cloud_from_graphs(
    graphs: Iterable, tol: Fraction = DEFAULT_TOL
) -> Iterable[RootCloudRecord]:
    """Certified real-root enclosures for an arbitrary graph stream, such as
    a corpus file (:func:`graph.read_graph6_file`).

    Rows come in stream order with roots ascending per graph, each labelled
    with its graph's canonical graph6.  The stream is read once, in full,
    by iterating or by :func:`write_root_cloud_csv`, before the first row.
    """
    return _Cloud(functools.partial(_stream_source, graphs), tol)


_N2_NOTE = (
    "root is -2; this order's extremal value is sometimes tabulated without "
    "the sign, but domination roots are never positive"
)


def smallest_root_table(
    n_max: int,
    tol: Fraction = DEFAULT_TOL,
    workers: int = 1,
    labeled_cap: int = LABELED_CAP_DEFAULT,
) -> list:
    """Per-order minimum certified real root.

    Orders up to the labeled cap are scanned exhaustively; beyond it the star
    value (certified by :func:`star_domination_root`) is reported with
    ``exhaustive=False``, since stars are only *expected* to be extremal
    there.  A star row's graph6 is written from its edge mask, so no order
    meets the vertex cap.  The order-2 row carries a note about its
    often-misprinted sign.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    records = []
    seen = {}  # one certification per _root_key over every order
    for n in range(1, min(n_max, labeled_cap) + 1):
        polys, ids = _polynomial_ids(n, workers)
        roots = [_roots(c, tol, seen) for c in polys]
        best = min(r[0] for r in roots)  # every list holds at least the root 0
        first = min(ids.index(i) for i, r in enumerate(roots) if r[0] == best)
        best_g6 = mask_to_graph6(first, n)
        note = _N2_NOTE if n == 2 else ""
        records.append(ExtremalRecord(n, best[0], best[1], best_g6, True, note))
    for n in range(min(n_max, labeled_cap) + 1, n_max + 1):
        enc = star_domination_root(n - 1, tol)
        # edge (0, j) is mask bit j(j-1)/2
        g6 = mask_to_graph6(sum(1 << j * (j - 1) // 2 for j in range(1, n)), n)
        records.append(
            ExtremalRecord(n, enc.interval.lo, enc.interval.hi, g6, False,
                           "star value; larger orders are not scanned exhaustively")
        )
    return records


def growth_check(n_max: int, tol: Fraction = DEFAULT_TOL) -> list:
    """Extremal star-root magnitudes against n/ln n for n = 3..n_max."""
    if n_max < 3:
        raise DomainError("growth check needs n_max >= 3")
    out = []
    for n in range(3, n_max + 1):
        enc = star_root(n - 1, tol)
        mag = float(enc.midpoint)
        yard = n / log(n)
        out.append(GrowthRecord(n, mag, yard, mag / yard))
    return out


# ---------------------------------------------------------------------------
# CSV surfaces
# ---------------------------------------------------------------------------

def write_root_cloud_csv(records: Iterable, out) -> None:
    """``graph6,n,root_lo,root_hi`` with 12-digit fixed-point rationals,
    written 4096 rows to a call.

    A cloud of :func:`root_cloud` or :func:`root_cloud_from_graphs` reads
    its whole source before the header, so a bad input line writes nothing,
    and formats each distinct polynomial's rows once, joining every graph's
    label to them; any other iterable of :class:`RootCloudRecord` is
    formatted record by record."""
    if isinstance(records, _Cloud):
        rows = records.csv_rows()
    else:
        rows = (f"{r.graph6},{r.n},{format_fixed(r.root_lo)},{format_fixed(r.root_hi)}\n"
                for r in records)
    out.write("graph6,n,root_lo,root_hi\n")
    while batch := list(islice(rows, 4096)):
        out.write("".join(batch))


def write_table_csv(records: Iterable, out) -> None:
    """``n,root_lo,root_hi,graph6,exhaustive`` rows for the extremal table."""
    out.write("n,root_lo,root_hi,graph6,exhaustive\n")
    for r in records:
        flag = "true" if r.exhaustive else "false"
        out.write(f"{r.n},{format_fixed(r.root_lo)},{format_fixed(r.root_hi)},{r.graph6},{flag}\n")


def write_growth_csv(records: Iterable, out) -> None:
    out.write("n,magnitude,n_over_log_n,ratio\n")
    for r in records:
        out.write(f"{r.n},{r.magnitude:.9f},{r.n_over_log_n:.9f},{r.ratio:.9f}\n")
