"""Desk-scale sweeps: root clouds, extremal-root tables and growth checks.

The labeled sweep covers every graph on ``n`` labeled vertices (capped at 7
by default, ~2 million graphs).  Each graph is a prefix graph on the first
``n-1`` vertices plus the neighbourhood of the last one; one subset-sum
transform per prefix gives the domination polynomials of all ``2^(n-1)``
extensions, each packed into one int (see :func:`_polynomial_ids`).  Every
*distinct* polynomial has its real roots certified once, and the CSV writer
formats each one's enclosures once.  Root finding is float-first: locations
come from floating bisection over monotone segments, then exact endpoint
signs certify each enclosure and an exact count certifies completeness.
The count is that of the Sturm chain's sign variations at -inf and +inf,
read off each element's leading sign and degree, so nothing is evaluated.
A domination polynomial's coefficients are positive, so it has no positive
root (Descartes' rule of signs) and the float search covers the negative
axis only; a polynomial with a positive root fails the count.  Anything
inconclusive (values within ``1e3 * machine epsilon`` of zero, mismatched
counts, overlapping enclosures) escalates to fully exact isolation.
Workers take contiguous prefix ranges and the parent places their
polynomial ids by edge mask, so parallel output is byte-identical to a
single worker's.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log
from typing import Iterable, Iterator, Optional

from . import intpoly
from .dompoly import dom_poly_inclusion_exclusion
from .errors import CapacityError, DomainError
from .graph import (
    Graph,
    _bits,
    labeled_graph6,
    mask_to_graph6,
    refinement_signature,
    star,
    to_graph6,
)
from .realroots import (
    DEFAULT_TOL,
    RationalInterval,
    count_real_roots,
    format_fixed,
    isolate_real_roots,
    star_domination_root,
    star_root,
    sturm_chain,
)
# unused here; bench/spans.py wraps this name on this module
from .realroots import count_roots_in  # noqa: F401

LABELED_CAP_DEFAULT = 7

_FLOAT_MARGIN = 1e3 * sys.float_info.epsilon


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

def _edge_pairs(n: int) -> list:
    # column-major upper triangle: (0,1), (0,2), (1,2), (0,3), ... matches
    # the graph6 bit order, so an edge mask doubles as the g6 payload
    return [(i, j) for j in range(1, n) for i in range(j)]


def _graph_from_mask(mask: int, n: int, pairs) -> Graph:
    adj = [0] * n
    for idx, (u, v) in enumerate(pairs):
        if mask >> idx & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, tuple(adj))


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
    """Stream every labeled graph of order n, or a deduplicated sub-stream.

    The mode, order and cap are checked when this is called, before the
    first graph is drawn.  ``dedup`` filters by an iterated
    degree-refinement signature, which is a coarse heuristic: it never
    repeats a signature but may drop graphs that are not actually
    isomorphic to an earlier one.
    """
    if mode not in ("all_labeled", "dedup"):
        raise DomainError(f"unknown enumeration mode {mode!r}")
    _check_order(n, labeled_cap)
    return _labeled_graphs(n, mode == "dedup")


def _labeled_graphs(n: int, dedup: bool) -> Iterator[Graph]:
    pairs = _edge_pairs(n)
    seen = set()
    for mask in range(1 << len(pairs)):
        g = _graph_from_mask(mask, n, pairs)
        if dedup:
            sig = refinement_signature(g)
            if sig in seen:
                continue
            seen.add(sig)
        yield g


# ---------------------------------------------------------------------------
# certified per-polynomial root scan
# ---------------------------------------------------------------------------

class _Inconclusive(Exception):
    pass


def _float_sign(c, x: float) -> int:
    acc = 0.0
    scale = 0.0
    for coef in reversed(c):
        acc = acc * x + coef
        scale = scale * abs(x) + abs(coef)
    if abs(acc) <= _FLOAT_MARGIN * max(1.0, scale):
        raise _Inconclusive
    return 1 if acc > 0.0 else -1


def _float_candidates(c, lo: float, hi: float) -> list:
    """Roots of the float polynomial on (lo, hi) via derivative subdivision."""
    deg = len(c) - 1
    if deg < 1:
        return []
    if deg == 1:
        r = -c[0] / c[1]
        return [r] if lo < r < hi else []
    der = [i * c[i] for i in range(1, len(c))]
    pts = [lo, *_float_candidates(der, lo, hi), hi]
    if not all(a < b for a, b in zip(pts, pts[1:])):
        raise _Inconclusive
    signs = [_float_sign(c, x) for x in pts]
    top_down = c[::-1]
    roots = []
    for a, b, sa, sb in zip(pts, pts[1:], signs, signs[1:]):
        if sa == sb:
            continue
        up = sa > 0
        x, y = a, b
        for _ in range(200):
            mid = 0.5 * (x + y)
            if mid <= x or mid >= y:
                break
            acc = 0.0
            for coef in top_down:
                acc = acc * mid + coef
            if (acc > 0.0) == up:
                x = mid
            else:
                y = mid
        roots.append(0.5 * (x + y))
    return roots


def certified_negative_roots(coeffs, tol: Fraction = DEFAULT_TOL, exact: bool = False) -> list:
    """Certified enclosures (lo, hi) for every distinct real root of ``coeffs``.

    The root at 0 (always present for graph polynomials) comes back as the
    exact point (0, 0).  The number of distinct nonzero real roots comes
    from the leading signs of the Sturm chain (:func:`count_real_roots`),
    with no evaluation.  The float fast path searches ``(-B, 0)`` only, for
    the Cauchy bound ``B``: a domination polynomial's coefficients are
    positive, so by Descartes' rule of signs it has no positive root.  Any
    other polynomial with a positive root fails the count and falls back to
    Sturm isolation.  Each float root is certified by the exact signs at its
    ends.  With ``exact=True`` the fast path is skipped and everything runs
    through Sturm isolation; the two routes agree on a per-polynomial basis,
    which the audit tests check on random samples.
    """
    coeffs = intpoly.normalize(list(coeffs))
    if not coeffs:
        raise DomainError("zero polynomial")
    t0 = intpoly.trailing_zeros(coeffs)
    out = []
    if t0:
        out.append((Fraction(0), Fraction(0)))
    cof = coeffs[t0:]
    if intpoly.degree(cof) < 1:
        return out
    total = count_real_roots(sturm_chain(cof))
    bound = intpoly.cauchy_root_bound(cof)
    intervals = None
    if not exact:
        intervals = _try_float_roots(cof, bound, total, tol)
    if intervals is None:
        encs = isolate_real_roots(cof, RationalInterval(-bound, bound), tol)
        intervals = [(e.interval.lo, e.interval.hi) for e in encs]
    merged = sorted(out + intervals)
    return merged


def _try_float_roots(cof, bound, total, tol) -> Optional[list]:
    try:
        fc = [float(c) for c in cof]
        fb = float(bound)
        # a positive root, which no domination polynomial has, fails the count
        cands = _float_candidates(fc, -fb, 0.0)
        if len(cands) != total:
            return None
        rad = tol / 2
        intervals = []
        prev_hi = None
        for r in cands:
            a = Fraction(r) - rad
            b = Fraction(r) + rad
            sa = intpoly.sign_at(cof, a)
            sb = intpoly.sign_at(cof, b)
            if sa * sb != -1:
                return None
            if prev_hi is not None and a <= prev_hi:
                return None
            prev_hi = b
            intervals.append((a, b))
        return intervals
    except (_Inconclusive, OverflowError):
        return None


# ---------------------------------------------------------------------------
# the labeled sweep
# ---------------------------------------------------------------------------

_SCAN_CACHE = {}


def _roots_cached(coeffs, tol) -> list:
    key = (coeffs, tol)
    got = _SCAN_CACHE.get(key)
    if got is None:
        got = certified_negative_roots(coeffs, tol)
        _SCAN_CACHE[key] = got
    return got


def _prefix_chunk(args) -> tuple:
    """Packed polynomials, ``digit`` bits per coefficient, of the order-``n``
    graphs whose prefix lies in ``range(start, stop)`` (see
    :func:`_polynomial_ids`).

    Returns ``(keys, ids)``: the distinct packed polynomials in order of
    first appearance, and for the graph with prefix ``p`` and last-vertex
    neighbourhood ``S`` the index of its key at
    ``ids[S * (stop - start) + p - start]``, so each ``S`` is one run.
    """
    from array import array
    from collections import defaultdict
    from operator import add, getitem

    n, digit, start, stop = args
    k = n - 1
    size = 1 << k
    full = size - 1
    base = 1 << digit
    pairs = _edge_pairs(k)
    # table[A][M] is the transform's input at A when N'[A] = M:
    # x (-1)^|A| (1+x)^(k-|M|), less x^|A| when A dominates (M = V')
    term = [base * (base + 1) ** (k - m.bit_count()) for m in range(size)]
    table = []
    for a in range(size):
        row = [-v for v in term] if a.bit_count() & 1 else list(term)
        row[full] -= base ** a.bit_count()
        table.append(row)
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
        z = list(map(getitem, table, cover))
        # each step sums over the lowest index bit and rotates it to the
        # top, so after k steps every bit is done and back in its place
        for _ in range(k):
            lo, hi = z[0::2], z[1::2]
            z = lo + list(map(add, lo, hi))
        # z[V'] = (x - 1) D(G'), as P(V') = H(V') = D(G'); S ascending is
        # T = V' \ S descending
        keys = map((z[full] // (base - 1)).__add__, reversed(z))
        ids[prefix - start::width] = array("I", map(index.__getitem__, keys))
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
    int are the coefficients, and equal keys mean equal polynomials.

    Workers take contiguous prefix ranges; the ids they return are mapped
    onto the keys in order of first appearance over the chunks, so the
    result does not depend on the worker count.
    """
    from array import array

    k = n - 1
    prefix_bits = k * (k - 1) // 2
    prefixes = 1 << prefix_bits
    digit = comb(n, n // 2).bit_length()
    if workers <= 1 or prefixes << k < 4096:
        keys, ids = _prefix_chunk((n, digit, 0, prefixes))
    else:
        import multiprocessing as mp

        step = -(-prefixes // workers)
        jobs = [(n, digit, a, min(a + step, prefixes)) for a in range(0, prefixes, step)]
        index = {}
        ids = array("I", [0]) * (prefixes << k)
        ctx = mp.get_context("fork") if sys.platform != "win32" else mp.get_context()
        with ctx.Pool(workers) as pool:
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


def _scan(n: int, tol: Fraction, workers: int) -> tuple:
    """``(roots, ids)``: the certified enclosures of each distinct polynomial
    of order ``n`` and, per edge mask, the index of its graph's list."""
    polys, ids = _polynomial_ids(n, workers)
    return [_roots_cached(c, tol) for c in polys], ids


def _iter_scan_rows(n: int, tol: Fraction, workers: int):
    """``(graph6, enclosures)`` for every labeled graph of order ``n``, in
    ascending edge-mask order."""
    roots, ids = _scan(n, tol, workers)
    return zip(labeled_graph6(n), map(roots.__getitem__, ids))


@dataclass(frozen=True)
class _LabeledCloud:
    """The root cloud of every labeled graph of one order.  Iterating yields
    :class:`RootCloudRecord` rows; :func:`write_root_cloud_csv` instead
    formats each distinct polynomial's enclosures once."""

    n: int
    tol: Fraction
    workers: int

    def __iter__(self) -> Iterator[RootCloudRecord]:
        for g6, roots in _iter_scan_rows(self.n, self.tol, self.workers):
            for lo, hi in roots:
                yield RootCloudRecord(g6, self.n, lo, hi)

    def write_rows(self, out) -> None:
        from itertools import islice

        roots, ids = _scan(self.n, self.tol, self.workers)
        n = self.n
        # g6.join(("", tail_1, tail_2, ...)) is one row per enclosure
        tails = [("",) + tuple(f",{n},{format_fixed(lo)},{format_fixed(hi)}\n"
                               for lo, hi in r) for r in roots]
        rows = map(str.join, labeled_graph6(n), map(tails.__getitem__, ids))
        while batch := list(islice(rows, 4096)):
            out.write("".join(batch))


def root_cloud(
    n: int,
    tol: Fraction = DEFAULT_TOL,
    workers: int = 1,
    labeled_cap: int = LABELED_CAP_DEFAULT,
) -> Iterable[RootCloudRecord]:
    """Certified real-root enclosures for every labeled graph of order ``n``.

    Rows come in enumeration order with roots ascending per graph.  The
    order and cap are checked when this is called, before the first row.
    """
    _check_order(n, labeled_cap)
    return _LabeledCloud(n, tol, workers)


def root_cloud_from_graphs(
    graphs: Iterable, tol: Fraction = DEFAULT_TOL
) -> Iterator[RootCloudRecord]:
    """Root-cloud records for an arbitrary graph stream (e.g. a corpus file)."""
    for g in graphs:
        coeffs = dom_poly_inclusion_exclusion(g).coeffs
        g6 = to_graph6(g)
        for lo, hi in _roots_cached(coeffs, tol):
            yield RootCloudRecord(g6, g.n, lo, hi)


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
    value (computed exactly from its shifted polynomial) is reported with
    ``exhaustive=False``, since stars are only *expected* to be extremal
    there.  The order-2 row carries a note about its often-misprinted sign.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    records = []
    for n in range(1, min(n_max, labeled_cap) + 1):
        roots, ids = _scan(n, tol, workers)
        best = min(r[0] for r in roots)  # every list holds at least the root 0
        first = min(ids.index(i) for i, r in enumerate(roots) if r[0] == best)
        best_g6 = mask_to_graph6(first, n)
        note = _N2_NOTE if n == 2 else ""
        records.append(ExtremalRecord(n, best[0], best[1], best_g6, True, note))
    for n in range(min(n_max, labeled_cap) + 1, n_max + 1):
        enc = star_domination_root(n - 1, tol)
        g6 = to_graph6(star(n - 1))
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
    """``graph6,n,root_lo,root_hi`` with 12-digit fixed-point rationals.

    For the cloud of :func:`root_cloud` each distinct polynomial's rows are
    formatted once and every graph's rows are its graph6 joined to them."""
    out.write("graph6,n,root_lo,root_hi\n")
    if isinstance(records, _LabeledCloud):
        records.write_rows(out)
        return
    for r in records:
        out.write(f"{r.graph6},{r.n},{format_fixed(r.root_lo)},{format_fixed(r.root_hi)}\n")


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
