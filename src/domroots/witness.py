"""Constructive root-density witnesses.

Given a target ``z <= 0`` and a radius ``eps > 0``, :func:`construct_witness`
produces an explicit graph family descriptor ``F`` and a clique order ``m``
such that the domination polynomial of ``F[K_m]`` provably has a real root
inside ``(z - eps, z + eps)``, together with an exact enclosure certifying
it.  The key identity is that domination polynomials compose under clique
substitution, ``D(G[K_m], x) = D(G, (1+x)^m - 1)``, so for odd ``m`` the
composed polynomial has a root in a window exactly when the family
polynomial has a root in the forward-mapped window
``((z-eps+1)^m - 1, (z+eps+1)^m - 1)`` - and everything stays rational.

Three regimes are searched in a deterministic diagonal order over
``(m, parameter)``: diagonals ``m + parameter`` ascending, odd ``m``
ascending within a diagonal, and the first cell that certifies wins:

* windows inside ``(-2, -1)``: complete bipartite ``K_{2,l}`` with ``l`` odd
  (these have roots accumulating at -1 from the left);
* windows inside ``(-1, 0)``: balanced ``K_{k,k}`` with ``k`` odd (roots
  accumulating at -1 from the right);
* windows left of ``-2``: stars, whose extremal roots march to ``-infinity``
  with bounded gaps.

One walk serves the three.  Each family's order is affine in its
parameter, which bounds the parameter for each ``m``, and a float band
narrows that range to the parameters whose family can have a root in the
mapped window: for ``K_{2,l}`` and ``K_{k,k}`` the parameters whose root
equation can balance at the window's distance from -1, and for stars the
range of ``k`` whose Lambert-W root estimate, increasing in ``k``, lies
within 1 of the window, each found by binary search.  The bands carry a
cushion no float rounding crosses, and every cell in a band is still
decided by exact signs.  The walk merges the bands of all ``m`` in diagonal order.

Every witness family is a complete bipartite ``K_{a,b}`` (the family table
is :data:`domroots.graph.FAMILIES`).  The known rational domination roots 0
and -2 (both from ``K_2``) short-cut windows containing them.  Every other
cell is decided by one route: a hit is a change of the family's exact sign
across the mapped window, and certification bisects on exact signs of the
composed polynomial.  Signs are those of the integer numerator of the
``K_{a,b}`` closed form, never of reduced fractions.  The search takes them
from :func:`domroots.realroots.bipartite_sign` for every family: balls of
integers whose precision doubles until they exclude 0, or else the integer
itself, so the answer is always the integer's sign.
:func:`verify_certificate` expands every integer it checks
(:func:`_numerator`).  The bisection is
:func:`domroots.realroots._sign_bisect`, the one that also narrows
isolation leaves and star roots.  It stops once the width is at most
``tol`` and neither end of ``(z - eps, z + eps)`` lies in the enclosure,
and it has no step limit, so a fine ``tol`` gets every halving it needs.

Endpoint signs decide as much as a Sturm count would, because in each
interval the search uses its family has at most one real root, and a
simple one:

* ``K_{2,l}``, odd ``l``.  With ``x = -1-d``, ``d`` in ``(0,1)``,
  ``D = -(1+d) F(d)`` where ``F(d) = (1+d)^(l-1) - 2 - d^l (1-d)``.  Here
  ``F(0) = -1``, ``F(1) = 2^(l-1) - 2`` and
  ``F'(d) > (l-1)(1+d)^(l-2) - l d^(l-1) >= ((l-1) 2^(l-2) - l d) d^(l-2) > 0``,
  so ``D`` has one simple root in ``(-2,-1)`` when ``l >= 3`` and none
  when ``l = 1``.
* ``K_{k,k}``, odd ``k``.  With ``x = -1+d``,
  ``D = (1-d^k)^2 - 2(1-d)^k = 2(1-d)^k (e^h - 1)`` where
  ``h = 2 ln(1-d^k) - ln 2 - k ln(1-d)``.  ``h' > 0`` exactly when
  ``1 + d^k - 2d^(k-1) > 0``, which for ``k >= 3`` holds on ``(0,1)``: the
  left side decreases to 0 at ``d = 1``.  ``h`` runs from ``-ln 2`` up to
  ``+infinity``, so ``D`` has one simple root in ``(-1,0)`` when
  ``k >= 3`` and none when ``k = 1``.
* Composition.  ``phi(t) = (1+t)^m - 1`` with ``m`` odd is increasing,
  fixes -2, -1 and 0, and ``phi' != 0`` away from -1, so the composed
  polynomial has the same one simple root.

So a Sturm count of at least one is the same test as "the endpoint signs
differ", and bisecting on counts takes the same steps as bisecting on
signs.  Domination polynomials are monic, so their rational roots are
integers; -1 is never a root and -2 is not one of these families
(``D(K_{2,l}, -2) = 4 - 2^l``).  The one endpoint that can be a root is 0,
at the right end of a window in ``(-1, 0]``, and :func:`_classify` moves it
left once, by 2^-16 of the window's width.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from . import dompoly, graph
from .dompoly import DomPolynomial, compose_with_complete
from .errors import BudgetExhaustedError, DomainError, DomRootsError
from .realroots import (
    DEFAULT_TOL,
    NOTE_EXACT,
    NOTE_SIMPLE,
    RationalInterval,
    RootEnclosure,
    _as_fraction,
    _exact_enclosure,
    _sign_bisect,
    bipartite_sign,
    star_root_estimate,
)
# unused here; bench/spans.py wraps these names on this module
from .realroots import count_roots_in, isolate_real_roots, sturm_chain  # noqa: F401

CASE_EXACT = "exact"
CASE_11 = "case-1.1"
CASE_12 = "case-1.2"
CASE_2 = "case-2"

FAMILY_EXACT_K2 = "exact_K2"
FAMILY_K2_ELL = "K_2_ell"
FAMILY_KKK = "K_k_k"
FAMILY_STAR = "star"

# Up to this composed degree verify_certificate re-expands the composed
# polynomial and evaluates it, a cross-check independent of the substitution
# identity; above it the verifier, like the search at every degree, takes
# exact signs through the identity.
VERIFY_EXPANSION_MAX_DEGREE = 120


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for the diagonal witness search.

    Narrow windows far down the axis need star parameters in the thousands
    once the substitution map widens them past the star-root gaps
    (``z = -10, eps = 1/100`` takes a star with 4792 leaves at ``m = 3``).
    Measured reach of the defaults left of -2, for ``1/100 <= eps <= 1/10``
    on a 0.05 grid of ``z`` down to -20: every window with
    ``z + eps >= -10.1`` certifies.  Past that edge the ``m = 3`` stars need
    more than ``max_param`` leaves, and only windows that contain a root of
    a star with at most ``max_param`` leaves (``m = 1``) certify;
    ``z = -10.5, eps = 1/100`` exhausts the budget after 33,390 cells.
    """

    max_m: int = 41
    max_param: int = 5001
    max_degree: int = 20000

    def __post_init__(self):
        if self.max_m < 1 or self.max_param < 1 or self.max_degree < 1:
            raise DomainError("budget bounds must be positive")


@dataclass(frozen=True)
class WitnessCertificate:
    """Machine-checkable evidence of a domination root within eps of the target."""

    target_z: Fraction
    epsilon: Fraction
    family_kind: str
    family_param: Optional[int]
    m: int
    composed_degree: int
    enclosure: RootEnclosure
    case_tag: str


# ---------------------------------------------------------------------------
# family descriptors
# ---------------------------------------------------------------------------

class _Kind(NamedTuple):
    family: str  # the named family of graph.FAMILIES
    fixed: Optional[int]  # its parameter, when the kind fixes it
    case: str
    param: Optional[str]  # the parameter's name in verification reports
    odd: bool  # whether the parameter must be odd


# Every witness family is some K_{a,b}; exact_K2 is K_{1,1}.
_KINDS = {
    FAMILY_EXACT_K2: _Kind("star", 1, CASE_EXACT, None, False),
    FAMILY_K2_ELL: _Kind("K22ell", None, CASE_11, "l", True),
    FAMILY_KKK: _Kind("Kkk", None, CASE_12, "k", True),
    FAMILY_STAR: _Kind("star", None, CASE_2, "k", False),
}


def _named(kind: str, param: Optional[int]) -> tuple:
    """``(named family, parameter)`` of a witness family."""
    try:
        row = _KINDS[kind]
    except KeyError:
        raise DomainError(f"unknown witness family {kind!r}") from None
    return row.family, param if row.fixed is None else row.fixed


def _sides(kind: str, param: Optional[int]) -> tuple:
    """``(a, b)`` such that the witness family is ``K_{a,b}``."""
    return graph.family_shape(*_named(kind, param))[1]


def family_order(kind: str, param: Optional[int]) -> int:
    return sum(_sides(kind, param))


def family_polynomial(kind: str, param: Optional[int]) -> DomPolynomial:
    return dompoly.dom_poly_closed_form(*_named(kind, param))


def family_graph(kind: str, param: Optional[int]) -> graph.Graph:
    """The witness family as an actual graph (subject to the vertex cap)."""
    return graph.family(*_named(kind, param))


def _numerator(sides: tuple, u: int, v: int) -> int:
    """``v^(a+b)`` times ``D(K_{a,b})`` at ``u/v``, for ``sides = (a, b)``.

    The closed form ``((1+x)^a - 1)((1+x)^b - 1) + x^a + x^b`` is
    homogenised over ``v^(a+b)``, so for ``v > 0`` this integer has the sign
    of the polynomial's value and is zero exactly when the value is."""
    a, b = sides
    w = u + v
    wa, va, ua = w ** a, v ** a, u ** a
    wb, vb, ub = (wa, va, ua) if b == a else (w ** b, v ** b, u ** b)
    return (wa - va) * (wb - vb) + ua * vb + ub * va


def _composed_sign(sides: tuple, m: int, t: Fraction) -> int:
    """Sign of ``D(K_{a,b}[K_m], t) = D(K_{a,b}, (1+t)^m - 1)`` in integers
    alone: with ``t = p/q`` the inner point is ``((p+q)^m - q^m) / q^m``."""
    if m < 1:
        raise DomainError("substitution order must be >= 1")
    p, q = t.numerator, t.denominator
    v = q ** m
    return _sign(_numerator(sides, (p + q) ** m - v, v))


def _sign(v) -> int:
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# the forward interval map
# ---------------------------------------------------------------------------

def _phi(t: Fraction, m: int) -> Fraction:
    return (1 + t) ** m - 1


def target_interval(z, eps, m: int) -> RationalInterval:
    """Exact image ``((z-eps+1)^m - 1, (z+eps+1)^m - 1)`` of the target window.

    For odd ``m`` the map ``x -> (1+x)^m - 1`` is strictly increasing on the
    reals, so the image is a genuine interval; even ``m`` is rejected because
    the inverse map would leave the real line.
    """
    z = _as_fraction(z)
    eps = _as_fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    if m < 1 or m % 2 == 0:
        raise DomainError("the substitution order must be an odd positive integer")
    return RationalInterval(_phi(z - eps, m), _phi(z + eps, m))


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------

def _exact_certificate(z: Fraction, eps: Fraction, root: Fraction) -> WitnessCertificate:
    return WitnessCertificate(z, eps, FAMILY_EXACT_K2, None, 1, 2, _exact_enclosure(root),
                              CASE_EXACT)


def _classify(win_lo: Fraction, win_hi: Fraction):
    """Family selection and window clipping: -1 is never a domination root,
    and of a window that straddles it the left part is searched.  A window
    ending at the root 0 ends instead 2^-16 of its width left of 0, so no
    endpoint of a searched window is a root of its family."""
    if win_hi <= -2:
        return FAMILY_STAR, win_lo, win_hi
    if win_lo >= -1:
        if win_hi == 0:
            win_hi = win_lo / (1 << 16)
        return FAMILY_KKK, win_lo, win_hi
    return FAMILY_K2_ELL, win_lo, min(win_hi, Fraction(-1))


def _k2l_band(mapped: RationalInterval, ps: range) -> range:
    """The run of ``ps`` whose ``D(K_{2,l})`` can have a root in the mapped
    window.  Roots at ``-1-d`` (l odd, 0<d<1) satisfy
    ``(1+d)^l = 2 + 2d + d^l(1-d^2)``, whose right side lies in (2, 5).  In
    the window ``d <= d_hi``, so a root needs ``l log(1+d_hi) > log 2``, and
    the band starts where ``l log(1+d_hi) >= log(2)/2``; and ``d >= d_lo``,
    so it keeps ``l`` while ``l log(1+d_lo) <= log 5 + 1``.  Both carry a
    cushion that float rounding cannot cross, and every ``l`` in the band
    still takes the exact sign test."""
    d_hi = float(-1 - mapped.lo)
    d_lo = float(-1 - mapped.hi)
    if d_hi <= 0:
        return ps[:0]  # the window underflows: it lies within 1e-323 of -1
    reach = math.log1p(d_hi)
    first = bisect.bisect_left(ps, math.log(2) / 2, key=lambda p: p * reach)
    if d_lo <= 0:
        return ps[first:]
    rate = math.log1p(d_lo)
    return ps[first:bisect.bisect_right(ps, math.log(5) + 1, key=lambda p: p * rate)]


def _kkk_band(mapped: RationalInterval, ps: range) -> range:
    """The run of ``ps`` whose ``D(K_{k,k})`` can have a root in the
    mapped window.  No root lies in ``[-1/2, 0)``: there
    ``((1+x)^k - 1)^2 >= u^2 (3 - 3u + u^2)^2 > 2u^3 >= |2x^k|`` for odd
    ``k >= 3`` with ``u = -x``, and ``K_{1,1}`` has no roots in (-1, 0), so
    the window is cut at -1/2.  Roots at ``-1+d`` (k odd, 0<d<1) satisfy
    ``(1-d^k)^2 = 2(1-d)^k``, so ``2(1-d)^k <= 1``: with ``d <= d_hi`` a root
    needs ``-k log(1-d_hi) >= log 2``, and the band starts where that
    product is at least ``log(2)/2``.  For ``d_lo <= d`` the right side is
    at most ``2(1-d_lo)^k``, falling with ``k``, and the left at least
    ``(1-d_hi^k)^2``, rising, so the band keeps ``k`` while the log of the
    first is above that of the second less 2 (an e^2 cushion).  A window
    that touches -1 keeps every ``k`` from the first on."""
    hi = min(mapped.hi, Fraction(-1, 2))
    if mapped.lo >= hi:
        return ps[:0]
    d_lo = float(1 + mapped.lo)
    d_hi = float(1 + hi)
    reach = -math.log1p(-d_hi)
    first = bisect.bisect_left(ps, math.log(2) / 2, key=lambda k: k * reach)
    if d_lo <= 0:
        return ps[first:]
    fall, rise = math.log1p(-d_lo), math.log(d_hi)

    def dropped(k):
        return math.log(2) + k * fall < 2 * math.log1p(-math.exp(k * rise)) - 2

    return ps[first:bisect.bisect_left(ps, True, key=dropped)]


def _star_band(mapped: RationalInterval, ps: range) -> range:
    """The ``k`` of ``ps`` whose star-root estimate, increasing in ``k``,
    lies within 1 of the mapped window: two binary searches."""
    try:
        r_lo, r_hi = float(-mapped.hi), float(-mapped.lo)
    except OverflowError:
        return ps[:0]  # window mapped beyond any reachable star root
    lo = bisect.bisect_left(ps, r_lo - 1.0, key=star_root_estimate)
    hi = bisect.bisect_right(ps, r_hi + 1.0, lo=lo, key=star_root_estimate)
    return ps[lo:hi]


_BANDS = {FAMILY_K2_ELL: _k2l_band, FAMILY_KKK: _kkk_band, FAMILY_STAR: _star_band}


class _Search:
    def __init__(self, z, eps, budget: SearchBudget, tol: Fraction):
        self.z = z
        self.eps = eps
        self.budget = budget
        self.tol = tol
        self.kind, self.w_lo, self.w_hi = _classify(z - eps, z + eps)
        self.case = _KINDS[self.kind].case
        self.cells = 0  # cells of the diagonal order inside the budget

    def run(self) -> WitnessCertificate:
        for m, p, mapped in self._cells():
            signs = self._hit(p, mapped)
            if signs is not None:
                return self._certify(m, p, *signs)
        b = self.budget
        raise BudgetExhaustedError(
            "witness search budget exhausted (this does not prove nonexistence); "
            f"explored {self.cells} cells for case {self.case}",
            frontier={
                "case": self.case,
                "cells_tested": self.cells,
                "max_m": b.max_m,
                "max_param": b.max_param,
                "max_degree": b.max_degree,
            },
        )

    def _cells(self):
        """Cells ``(m, p, mapped window)`` in diagonal order, ``m + p``
        ascending, then ``m``, each ``m`` limited to its family's band.
        Every family's order is affine in ``p``, which bounds ``p`` for each
        odd ``m``; ``cells`` counts every ``p`` in those bounds.  The first
        cell of ``m`` lies on diagonal ``m + 1`` or later, so ``m``'s window
        and band are opened once the walk gets there."""
        b, kind = self.budget, self.kind
        step = 2 if _KINDS[kind].odd else 1
        base = family_order(kind, 1)
        slope = family_order(kind, 2) - base
        pending = list(range(1, b.max_m + 1, 2))[::-1]
        heap = []  # (m + p, m, index of p in run, run, mapped window)
        while True:
            while pending and (not heap or heap[0][0] > pending[-1]):
                m = pending.pop()
                cap = min(b.max_param, (b.max_degree // m - base) // slope + 1)
                ps = range(1, cap + 1, step)
                self.cells += len(ps)
                mapped = RationalInterval(_phi(self.w_lo, m), _phi(self.w_hi, m))
                run = _BANDS[kind](mapped, ps)
                if run:
                    heapq.heappush(heap, (m + run[0], m, 0, run, mapped))
            if not heap:
                return
            _, m, i, run, mapped = heap[0]
            yield m, run[i], mapped
            if i + 1 < len(run):
                heapq.heapreplace(heap, (m + run[i + 1], m, i + 1, run, mapped))
            else:
                heapq.heappop(heap)

    def _hit(self, p: int, mapped: RationalInterval) -> Optional[tuple]:
        """The family's signs at the mapped window's ends when they differ,
        else ``None``.  The composed polynomial at ``t`` is the family's at
        ``_phi(t, m)``, and ``_numerator`` is homogeneous, so these are also
        the signs that ``_composed_sign`` gives at the target window's ends."""
        sides = _sides(self.kind, p)
        s_lo = bipartite_sign(sides, mapped.lo.numerator, mapped.lo.denominator)
        s_hi = bipartite_sign(sides, mapped.hi.numerator, mapped.hi.denominator)
        return (s_lo, s_hi) if s_lo * s_hi < 0 else None

    # -- certification ------------------------------------------------------

    def _certify(self, m: int, p: int, s_lo: int, s_hi: int) -> WitnessCertificate:
        """Bisection on exact composed-value signs, by the one bisection of
        root isolation: it runs until the width is at most ``tol`` and the
        enclosure holds neither end of the target window, so the enclosure
        lies strictly inside ``(z - eps, z + eps)``."""
        sides = _sides(self.kind, p)

        def sign(num: int, den: int) -> int:
            # _composed_sign's point, with the search's sign
            v = den ** m
            return bipartite_sign(sides, (num + den) ** m - v, v)

        avoid = (self.z - self.eps, self.z + self.eps)
        lo, hi = _sign_bisect(sign, self.w_lo, self.w_hi, s_lo, self.tol, avoid)
        if lo == hi:
            enc = _exact_enclosure(lo)
        else:
            enc = RootEnclosure(RationalInterval(lo, hi), s_lo, s_hi, NOTE_SIMPLE)
        deg = sum(sides) * m
        return WitnessCertificate(self.z, self.eps, self.kind, p, m, deg, enc, self.case)


def construct_witness(
    z, eps, budget: Optional[SearchBudget] = None, tol: Fraction = DEFAULT_TOL
) -> WitnessCertificate:
    """Find a graph family and clique order whose composed domination
    polynomial certifiably has a real root within ``eps`` of ``z``.

    The search is deterministic: diagonals ``m + parameter`` ascending, ``m``
    ascending within a diagonal, leftmost qualifying root within a cell.
    Raises :class:`BudgetExhaustedError` when the budget runs out (which
    never claims nonexistence) and :class:`DomainError` for ``z > 0``.
    """
    z = _as_fraction(z)
    eps = _as_fraction(eps)
    if z > 0:
        raise DomainError("targets must satisfy z <= 0; positive reals carry no domination roots")
    if eps <= 0:
        raise DomainError("eps must be positive")
    if budget is None:
        budget = SearchBudget()
    if z - eps < 0 < z + eps:
        return _exact_certificate(z, eps, Fraction(0))
    if z - eps < -2 < z + eps:
        return _exact_certificate(z, eps, Fraction(-2))
    return _Search(z, eps, budget, _as_fraction(tol)).run()


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name}" + (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)


def _certified_signs(cert: WitnessCertificate):
    """The sign of the composed polynomial at a point, re-derived from the
    descriptor.

    Up to :data:`VERIFY_EXPANSION_MAX_DEGREE` the polynomial is re-expanded
    (once) and evaluated, independently of the substitution identity the
    search uses; above it the sign is taken through that identity, in
    integers.  The degree the descriptor implies picks the route, not the
    stored one, so a wrong stored degree or ``m < 1`` expands nothing."""
    degree = family_order(cert.family_kind, cert.family_param) * cert.m
    if 0 < degree <= VERIFY_EXPANSION_MAX_DEGREE:
        composed = compose_with_complete(
            family_polynomial(cert.family_kind, cert.family_param), cert.m
        )
        return lambda t: _sign(dompoly.eval_rational(composed, t))
    sides = _sides(cert.family_kind, cert.family_param)
    return lambda t: _composed_sign(sides, cert.m, t)


def verify_certificate(cert: WitnessCertificate) -> VerificationReport:
    """Independently re-check every claim a certificate makes.

    Failures are report entries, never exceptions; a certificate emitted by
    :func:`construct_witness` passes all checks.
    """
    checks = []

    def add(name, passed, detail=""):
        checks.append(CheckResult(name, bool(passed), detail))

    z, eps = cert.target_z, cert.epsilon
    add("target_nonpositive", z <= 0, f"z = {z}")
    add("epsilon_positive", eps > 0, f"eps = {eps}")
    add("substitution_order_odd", cert.m >= 1 and cert.m % 2 == 1, f"m = {cert.m}")

    kind, p = cert.family_kind, cert.family_param
    row = _KINDS.get(kind)
    if row is None:
        add("family_parameter", False, f"unknown family {kind!r}")
    else:
        if row.fixed is not None:
            add("family_parameter", p is None, f"{kind} carries no parameter")
        else:
            add("family_parameter",
                isinstance(p, int) and p >= 1 and (p % 2 == 1 or not row.odd),
                f"{row.param} = {p}" + (" must be odd" if row.odd else ""))
        add("case_tag", cert.case_tag == row.case, cert.case_tag)

    try:
        order = family_order(kind, p)
        add("composed_degree", cert.composed_degree == order * cert.m,
            f"{cert.composed_degree} vs {order}*{cert.m}")
    except DomainError as exc:
        add("composed_degree", False, str(exc))

    enc = cert.enclosure
    add(
        "enclosure_within_window",
        z - eps < enc.interval.lo and enc.interval.hi < z + eps,
        f"[{enc.interval.lo}, {enc.interval.hi}] vs ({z - eps}, {z + eps})",
    )

    try:
        sign = _certified_signs(cert)
        if enc.note == NOTE_EXACT:
            s = sign(enc.interval.lo)
            detail = "value at exact root = 0" if s == 0 else f"value at exact root has sign {s}"
            add("endpoint_certification", s == 0, detail)
        else:
            s_lo = sign(enc.interval.lo)
            s_hi = sign(enc.interval.hi)
            add(
                "endpoint_certification",
                s_lo == enc.sign_lo and s_hi == enc.sign_hi and s_lo * s_hi == -1,
                f"recomputed signs ({s_lo}, {s_hi}) vs stored ({enc.sign_lo}, {enc.sign_hi})",
            )
    except DomRootsError as exc:
        add("endpoint_certification", False, str(exc))

    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def certificate_to_json(cert: WitnessCertificate) -> str:
    enc = cert.enclosure
    return json.dumps(
        {
            "target_z": _frac_str(cert.target_z),
            "epsilon": _frac_str(cert.epsilon),
            "family": {"kind": cert.family_kind, "param": cert.family_param},
            "m": cert.m,
            "composed_degree": cert.composed_degree,
            "case_tag": cert.case_tag,
            "enclosure": {
                "lo": _frac_str(enc.interval.lo),
                "hi": _frac_str(enc.interval.hi),
                "sign_lo": enc.sign_lo,
                "sign_hi": enc.sign_hi,
                "note": enc.note,
            },
        },
        indent=2,
    )


def _field(obj, path: str, types: tuple):
    """The value at a dotted ``path`` such as ``enclosure.lo``, checked
    against ``types``; malformed input raises :class:`DomainError` naming
    the path."""
    value, walked = obj, []
    for key in path.split("."):
        if not isinstance(value, dict):
            raise DomainError(f"certificate field {'.'.join(walked) or '(top level)'} "
                              "must be an object")
        if key not in value:
            raise DomainError(f"certificate field {path} is missing")
        value = value[key]
        walked.append(key)
    if isinstance(value, bool) or not isinstance(value, types):
        raise DomainError(f"certificate field {path} has the wrong type: {value!r}")
    return value


def _rational_field(obj, path: str) -> Fraction:
    text = _field(obj, path, (str,))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"certificate field {path} is not a rational: {text!r}") from None


def certificate_from_json(text: str) -> WitnessCertificate:
    """Parse :func:`certificate_to_json` output; malformed input raises
    :class:`DomainError` naming the offending field."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise DomainError(f"certificate is not valid JSON: {exc}") from None
    return WitnessCertificate(
        _rational_field(obj, "target_z"),
        _rational_field(obj, "epsilon"),
        _field(obj, "family.kind", (str,)),
        _field(obj, "family.param", (int, type(None))),
        _field(obj, "m", (int,)),
        _field(obj, "composed_degree", (int,)),
        RootEnclosure(
            RationalInterval(_rational_field(obj, "enclosure.lo"),
                             _rational_field(obj, "enclosure.hi")),
            _field(obj, "enclosure.sign_lo", (int,)),
            _field(obj, "enclosure.sign_hi", (int,)),
            _field(obj, "enclosure.note", (str,)),
        ),
        _field(obj, "case_tag", (str,)),
    )
