"""Desk-scale sweeps: root clouds, extremal-root tables and growth checks.

The labeled sweep enumerates every graph on ``n`` labeled vertices (capped
at 7 by default, ~2 million graphs), computes each domination polynomial by
the Gray-coded inclusion-exclusion, and certifies the real roots of every
*distinct* polynomial it meets.  Root finding is float-first: locations come
from floating bisection over monotone segments, then exact endpoint signs
certify each enclosure and an exact Sturm count certifies completeness;
anything inconclusive (values within ``1e3 * machine epsilon`` of zero,
mismatched counts, overlapping enclosures) escalates to fully exact
isolation.  Workers process mask chunks and the writer merges in submission
order, so parallel output is byte-identical to a single worker's.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log
from typing import Iterable, Iterator, Optional

from . import intpoly
from .dompoly import _ie_coeffs, dom_poly_inclusion_exclusion
from .errors import CapacityError, DomainError
from .graph import Graph, _bits, mask_to_graph6, refinement_signature, star, to_graph6
from .realroots import (
    DEFAULT_TOL,
    RationalInterval,
    count_roots_in,
    format_fixed,
    isolate_real_roots,
    star_domination_root,
    star_root,
    sturm_chain,
)

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


def _float_value(c, x: float) -> float:
    acc = 0.0
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def _float_candidates(c, lo: float, hi: float) -> list:
    """Roots of the float polynomial on (lo, hi) via derivative subdivision."""
    deg = len(c) - 1
    if deg < 1:
        return []
    if deg == 1:
        r = -c[0] / c[1]
        return [r] if lo < r < hi else []
    der = [i * c[i] for i in range(1, len(c))]
    pts = [lo] + [p for p in _float_candidates(der, lo, hi)] + [hi]
    roots = []
    for a, b in zip(pts, pts[1:]):
        if not a < b:
            raise _Inconclusive
        sa = _float_sign(c, a)
        sb = _float_sign(c, b)
        if sa == sb:
            continue
        x, y = a, b
        for _ in range(200):
            mid = 0.5 * (x + y)
            if mid <= x or mid >= y:
                break
            if (_float_value(c, mid) > 0.0) == (sa > 0.0):
                x = mid
            else:
                y = mid
        roots.append(0.5 * (x + y))
    return roots


def certified_negative_roots(coeffs, tol: Fraction = DEFAULT_TOL, exact: bool = False) -> list:
    """Certified enclosures (lo, hi) for every distinct real root of ``coeffs``.

    The root at 0 (always present for graph polynomials) comes back as the
    exact point (0, 0).  With ``exact=True`` the float fast path is skipped
    and everything runs through Sturm isolation; the two routes agree on a
    per-polynomial basis, which the audit tests check on random samples.
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
    chain = sturm_chain(cof)
    bound = intpoly.cauchy_root_bound(cof)
    total = count_roots_in(chain, RationalInterval(-bound, bound))
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
        cands = sorted(
            _float_candidates(fc, -fb, 0.0) + _float_candidates(fc, 0.0, fb)
        )
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


def _scan_chunk(args) -> tuple:
    n, start, stop, tol = args
    pairs = _edge_pairs(n)
    binom_rows = [[comb(s, k) for k in range(s + 1)] for s in range(n + 1)]
    bit_lists = [list(_bits(m)) for m in range(1 << n)]
    adj = list(_graph_from_mask(start, n, pairs).adj)
    rows = []
    mask = start
    while mask < stop:
        if mask != start:
            flipped = mask ^ (mask - 1)
            idx = 0
            while flipped:
                if flipped & 1:
                    u, v = pairs[idx]
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
                flipped >>= 1
                idx += 1
        nbh_lists = [bit_lists[adj[v] | (1 << v)] for v in range(n)]
        coeffs = _ie_coeffs(n, nbh_lists, binom_rows)
        rows.append((mask_to_graph6(mask, n), _roots_cached(coeffs, tol)))
        mask += 1
    return start, rows


def _iter_scan_rows(n: int, tol: Fraction, workers: int):
    nbits = n * (n - 1) // 2
    total = 1 << nbits
    if workers <= 1 or total < 4096:
        yield from _scan_chunk((n, 0, total, tol))[1]
        return
    import multiprocessing as mp

    chunk = max(1024, total // 256)
    jobs = [(n, a, min(a + chunk, total), tol) for a in range(0, total, chunk)]
    ctx = mp.get_context("fork") if sys.platform != "win32" else mp.get_context()
    with ctx.Pool(workers) as pool:
        for _, rows in pool.imap(_scan_chunk, jobs):
            yield from rows


def root_cloud(
    n: int,
    tol: Fraction = DEFAULT_TOL,
    workers: int = 1,
    labeled_cap: int = LABELED_CAP_DEFAULT,
) -> Iterator[RootCloudRecord]:
    """Certified real-root enclosures for every labeled graph of order ``n``.

    Rows come in enumeration order with roots ascending per graph.  The
    order and cap are checked when this is called, before the first row.
    """
    _check_order(n, labeled_cap)
    return (RootCloudRecord(g6, n, lo, hi)
            for g6, roots in _iter_scan_rows(n, tol, workers) for lo, hi in roots)


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
        best = None
        best_g6 = None
        for g6, roots in _iter_scan_rows(n, tol, workers):
            if not roots:
                continue
            lo, hi = roots[0]
            if best is None or (lo, hi) < best:
                best = (lo, hi)
                best_g6 = g6
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
    """``graph6,n,root_lo,root_hi`` with 12-digit fixed-point rationals."""
    out.write("graph6,n,root_lo,root_hi\n")
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
