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

A window that straddles -1 is searched in two parts, the one left of -1
first and then, if that one runs out of budget, the one right of it.

Each family's root in its region moves one way as the parameter ``p``
grows: star roots march to ``-infinity``, ``K_{2,l}`` roots climb and
``K_{k,k}`` roots fall towards -1.  The root of ``F_p`` is *past* a point
``x`` of the region when it lies strictly between ``x`` and that limit,
one sign test: ``bipartite_sign(sides(p), x) == ahead(p)``, with ``ahead``
``(-1)^k`` for stars, ``+1`` for ``K_{k,k}`` and ``-1`` for ``K_{2,l}``.
It is monotone in ``p`` (``F`` and ``h`` as in the lemma below):

* stars: ``R = -x`` at the root solves ``k ln(R/(R-1)) = ln R``, whose
  left side grows with ``k`` and falls with ``R``;
* ``K_{2,l}``: ``F_{l+2}(d) - F_l(d) =
  (1+d)^(l-1)((1+d)^2 - 1) + d^l (1-d)(1-d^2) > 0``;
* ``K_{k,k}``: ``h_{k+2}(d) - h_k(d) =
  2 ln((1-d^(k+2))/(1-d^k)) - 2 ln(1-d) > 0``.

The ``p = 1`` members have no root in their region and are past no point.
So for each odd ``m`` a bisection on ``p`` finds the first root past the
mapped window's near end (the right end for stars and ``K_{k,k}``, the left
for ``K_{2,l}``), and it is a hit exactly when it is not also past the far
end.

Floats pick, exact signs decide.  The float guide is
:func:`domroots.realroots.bipartite_log_value`, a log-form value with the
sign of the family polynomial, and a bracketed secant on it
(:func:`_first_past`) guesses where that sign turns: the first ``p`` past
the mapped near end, over the whole range of ``p``, and the dyadic cell of
the window part that holds the root.  Exact signs then confirm each guess:
two for the first ``p`` past (the sign must turn there, which also puts the
top ``p`` past), two at the ends of the cell.  Where they do not confirm
it, the exact bisection runs from the start.  A confirmed answer is the one
the exact bisection gives, so a guess only saves exact signs and never
reaches a certificate.

Every witness family is a complete bipartite ``K_{a,b}`` (the family table
is :data:`domroots.graph.FAMILIES`).  The known rational domination roots 0
and -2 (both from ``K_2``) short-cut windows containing them.  Every other
cell is decided by one route: a hit is a change of the family's exact sign
across the mapped window, and certification bisects on exact signs of the
composed polynomial.  Signs are those of the integer numerator of the
``K_{a,b}`` closed form, never of reduced fractions; for the search one
formula, :func:`domroots.realroots._expand`, writes that integer in ints,
in exact ``decimal`` and in balls.  :func:`_composed` maps a point of the
window to the family's argument in integers, and the search takes every
sign there from :func:`domroots.realroots.bipartite_sign`: balls of
integers whose precision doubles until they exclude 0, or else that
integer, so the answer is always the integer's sign.
:func:`verify_certificate` calls neither the balls nor ``_expand``: at
every degree it writes every integer it checks by its own transcription of
the closed form, :func:`_closed_form`, at the same mapped point.  It writes
it first in intervals of its own (:class:`_Bounds`), pairs of ``decimal``
numbers rounded down and up, at a precision that doubles by the balls' rule,
and an interval that excludes 0 decides.  Where none does, it expands the
integer through :func:`domroots.realroots.bipartite_numerator_sign`, in ints
or, for integers of more than about 4e5 bits, in exact ``decimal``.
The bisection is :func:`domroots.realroots._sign_bisect`, the one that
also narrows isolation leaves and star roots.  It stops once the width is at most
``tol`` and neither end of ``(z - eps, z + eps)`` lies in the enclosure,
and on exact signs it has no step limit, so a fine ``tol`` gets every
halving it needs.  Its bracket's ends are dyadic refinements of the
window's, and the certificate's are the simplest rationals around it
(:func:`_simplest_ends`): each end moves outwards, within ``tol`` of the
other and inside the searched part, to the rational of smallest
denominator.  The one-simple-root lemma below keeps their signs, and the
integers the verifier writes, whose length grows with the ends'
denominators, are shorter.

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
at the right end of a window part in ``(-1, 0]``, and :func:`_classify`
moves it left once, by 2^-16 of the part's width.
"""

from __future__ import annotations

import bisect
import decimal
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import dompoly, graph, realroots
from .dompoly import DomPolynomial
from .errors import BudgetExhaustedError, CapacityError, DomainError, DomRootsError
from .realroots import (
    DEFAULT_TOL,
    NOTE_EXACT,
    NOTE_SIMPLE,
    RationalInterval,
    RootEnclosure,
    _as_fraction,
    _exact_enclosure,
    _frac_str,
    _sign_bisect,
    _simplest_ratio,
    _tolerance,
    bipartite_log_value,
    bipartite_numerator_sign,
    bipartite_sign,
    enclosure_json,
)
# unused here; bench/spans.py wraps these names on this module
from .dompoly import compose_with_complete  # noqa: F401
from .realroots import count_roots_in, isolate_real_roots, star_root_estimate, sturm_chain  # noqa: F401

CASE_EXACT = "exact"
CASE_11 = "case-1.1"
CASE_12 = "case-1.2"
CASE_2 = "case-2"

FAMILY_EXACT_K2 = "exact_K2"
FAMILY_K2_ELL = "K_2_ell"
FAMILY_KKK = "K_k_k"
FAMILY_STAR = "star"

# The verifier signs no composed numerator estimated above this many bits
# (see _numerator_bits), and construct_witness emits no certificate above
# it.  The verifier's decimal intervals cost little at any length, but where
# they cannot decide a sign the integer is expanded exactly, and the cap
# bounds that.  The longest numerator of any test or benchmark query is the
# z = -20 star's (60,487 leaves, m = 3), about 4.4e6 bits at the default
# tol.  Its ends lengthen with tol: at tol = 1e-100 it estimates 3.15e7
# bits, and its two signs took 0.7-0.9 ms in the intervals and 2.1-2.3 s
# expanded exactly (Python 3.11.7, libmpdec 2.5.1, 2-core x86-64 host), so
# an exact expansion at the cap takes about 2.5 s.
VERIFY_MAX_NUMERATOR_BITS = 32_000_000


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
    ``z = -10.5, eps = 1/100`` exhausts the budget, with 33,390 cells in
    its frontier for 4 exact signs and 7 float guide values taken.

    Near -1 the caps put the nearest roots at ``m = 1`` (``m >= 3`` maps
    distance ``d`` from -1 to ``d^m``): ``K_{2,5001}`` at ``-1 - 1.3864e-4``
    and ``K_{5001,5001}`` at ``-1 + 1.3859e-4``.  Measured on windows ending
    at -1, 41 widths from 1e-5 to 1e-3 a side: every width of 1.41e-4 or
    more certifies, every one of 1.26e-4 or less exhausts.  Windows 1e-6
    wide all certify at distances 1.5e-4 to 7.5e-4 (step 5e-5), but from
    8.5e-4 to 2e-3 only 4 and 6 of 24 (left, right) do: the root gaps,
    about ``2 d^2 / log 2``, outgrow the width.
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
    odd: bool  # whether the parameter must be odd
    # for a searched kind: ahead(p), and whether the root climbs, so that it
    # passes the window's left end first
    ahead: Optional[Callable] = None
    climbs: bool = False


# Every witness family is some K_{a,b}; exact_K2 is K_{1,1}.
_KINDS = {
    FAMILY_EXACT_K2: _Kind("star", 1, CASE_EXACT, False),
    FAMILY_K2_ELL: _Kind("K22ell", None, CASE_11, True, lambda ell: -1, True),
    FAMILY_KKK: _Kind("Kkk", None, CASE_12, True, lambda k: 1),
    FAMILY_STAR: _Kind("star", None, CASE_2, False, lambda k: -1 if k & 1 else 1),
}


def _sides(kind: str, param: Optional[int]) -> tuple:
    """``(a, b)`` such that the witness family is ``K_{a,b}``, validated by
    :func:`domroots.graph.family_shape`."""
    try:
        row = _KINDS[kind]
    except KeyError:
        raise DomainError(f"unknown witness family {kind!r}") from None
    return graph.family_shape(row.family, param if row.fixed is None else row.fixed)[1]


def family_order(kind: str, param: Optional[int]) -> int:
    return sum(_sides(kind, param))


def family_polynomial(kind: str, param: Optional[int]) -> DomPolynomial:
    return dompoly.closed_form_complete_bipartite(*_sides(kind, param))


def family_graph(kind: str, param: Optional[int]) -> graph.Graph:
    """The witness family as an actual graph (subject to the vertex cap)."""
    return graph.complete_bipartite(*_sides(kind, param))


def _composed(sign, sides: tuple, m: int):
    """``sign(num, den)`` of ``D(K_{a,b}[K_m], t) = D(K_{a,b}, (1+t)^m - 1)``
    at ``t = num/den``, in integers alone: the inner point is
    ``((num+den)^m - den^m) / den^m``, handed to ``sign(sides, u, v)``, a sign
    of the numerator ``v^(a+b) D(K_{a,b}, u/v)``.  For ``t`` in
    lowest terms that pair is ``_phi(t, m)`` in lowest terms.  ``m < 1``
    raises at the first call, so the verifier reports an unknown enclosure
    note first."""
    def composed(num: int, den: int) -> int:
        if m < 1:
            raise DomainError("substitution order must be >= 1")
        v = den ** m
        return sign(sides, (num + den) ** m - v, v)
    return composed


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

def _classify(win_lo: Fraction, win_hi: Fraction) -> list:
    """The parts of a window to search, in order, as ``(kind, lo, hi)``:
    family selection and window clipping.  -1 is never a domination root,
    and a window that straddles it has two parts, ``(win_lo, -1)`` for
    ``K_{2,l}`` and then ``(-1, win_hi)`` for ``K_{k,k}``; the left one is
    searched first.  A part ending at the root 0 ends instead 2^-16 of its
    width left of 0, so no endpoint of a searched part is a root of its
    family."""
    if win_hi <= -2:
        return [(FAMILY_STAR, win_lo, win_hi)]
    parts = []
    if win_lo < -1:
        parts.append((FAMILY_K2_ELL, win_lo, min(win_hi, Fraction(-1))))
    if win_hi > -1:
        lo = max(win_lo, Fraction(-1))
        parts.append((FAMILY_KKK, lo, lo / (1 << 16) if win_hi == 0 else win_hi))
    return parts


class _Search:
    """The search of one part of the window (see :func:`_classify`).  It
    binds its kind's row and ``to_shape`` once, and validates no ``p`` of
    its own ranges."""

    def __init__(self, z, eps, budget: SearchBudget, tol: Fraction, part: tuple):
        self.z = z
        self.eps = eps
        self.tol = tol
        self.kind, self.w_lo, self.w_hi = part
        self.row = row = _KINDS[self.kind]
        self.sides = sides = graph.FAMILIES[row.family].to_shape
        # every family's order is affine in p, which bounds p for each odd m
        base = sum(sides(1))
        slope = sum(sides(2)) - base
        self.ranges = [(m, range(1, min(budget.max_param,
                                        (budget.max_degree // m - base) // slope + 1) + 1,
                                 2 if row.odd else 1))
                       for m in range(1, budget.max_m + 1, 2)]
        self.cells = sum(len(ps) for _, ps in self.ranges)

    def run(self) -> Optional[WitnessCertificate]:
        """The first hit in diagonal order, or None when the budget runs out.
        An ``m`` is searched while ``m + 1`` is below the best diagonal
        found, and only its ``p`` below that diagonal: the first one whose
        root is past the mapped window's near end is a hit when it is not
        also past the far end, and no other one can be.  When even the top
        ``p`` is not past the near end, no larger ``m`` has a hit either: as
        ``m`` grows the range never grows, and the mapped near end never
        moves away from the limit.

        The float guide guesses the first ``p`` past the near end over the
        whole range (:func:`_first_past` on
        :func:`domroots.realroots.bipartite_log_value` times ``ahead(p)``),
        and two exact signs confirm it: ``ps[i]`` is past and ``ps[i-1]`` is
        not.  ``toward`` is monotone in ``p``, so a confirmed guess is the
        first ``p`` past, and the top ``p`` is past as well; the exact sign at
        the top, the costliest one, is taken only when the guess is not
        confirmed, and then the exact bisection finds the first ``p``.

        Each exact sign is taken at an end of the part through
        :func:`_composed`, whose integers are the mapped end ``_phi(end, m)``
        in lowest terms, so no mapped end is formed as a fraction."""
        row, sides = self.row, self.sides
        near, far = (self.w_lo, self.w_hi) if row.climbs else (self.w_hi, self.w_lo)
        y = _float(1 + near)

        def toward(p: int, x: Fraction) -> int:
            # 1 when the root of the family at p is past _phi(x, m) for the
            # m of the loop below, 0 at it, else -1
            return _composed(bipartite_sign, sides(p), m)(x.numerator, x.denominator) * row.ahead(p)

        best = None  # (m + p, m, p) of the first hit so far
        for m, ps in self.ranges:
            if best:
                if m + 1 >= best[0]:
                    break
                ps = ps[:bisect.bisect_left(ps, best[0] - m)]
            if not ps:
                break
            i = _first_past(lambda i: bipartite_log_value(sides(ps[i]), y, m) * row.ahead(ps[i]),
                            len(ps))
            if not (0 <= i < len(ps) and (i == 0 or toward(ps[i - 1], near) < 1)
                    and toward(ps[i], near) == 1):
                if toward(ps[-1], near) < 1:
                    break
                i = bisect.bisect_left(ps, 1, hi=len(ps) - 1, key=lambda p: toward(p, near))
            p = ps[i]
            if toward(p, far) == -1:
                best = (m + p, m, p)
        if not best:
            return None
        _, m, p = best
        return self._certify(m, p, row.ahead(p) if row.climbs else -row.ahead(p))

    # -- certification ------------------------------------------------------

    def _certify(self, m: int, p: int, s_lo: int) -> WitnessCertificate:
        """Bisection on exact composed-value signs, by the one bisection of
        root isolation: it runs until the width is at most ``tol`` and the
        enclosure holds neither end of the target window, so the enclosure
        lies strictly inside ``(z - eps, z + eps)``.  ``s_lo`` is the family's
        sign at the mapped window's left end, which is the composed sign at
        the target window's: the composed polynomial at ``t`` is the family's
        at ``_phi(t, m)``, and the numerator is homogeneous.

        The float guide picks where the exact bisection starts.  ``D`` is
        the depth at which the part's dyadic cells are first at most ``tol``
        wide, or 40 if that is less, and :func:`_first_past` on
        :func:`domroots.realroots.bipartite_log_value` at the ``2^D + 1``
        ends of those cells finds the cell that holds the float root.  Exact
        signs at that cell's ends then decide.  Signs ``s_lo`` and ``-s_lo``
        put the one root inside, so the cell is the one the exact bisection
        passes through at that depth, where it cannot have stopped yet
        (:func:`domroots.realroots._sign_bisect`), and the exact bisection
        goes on from there.  An end of sign 0 is the root, a midpoint the
        exact bisection reaches.  Any other signs send the exact bisection
        back to the whole part.  So the bracket is the one exact signs alone
        give, and a simple-certified one then takes its simplest ends within
        the part (:func:`_simplest_ends`), which keep the signs
        ``(s_lo, -s_lo)`` and lie strictly inside the target window.  A
        certificate that :func:`verify_certificate` would not expand
        (:func:`_numerator_bits` above :data:`VERIFY_MAX_NUMERATOR_BITS`)
        raises :class:`CapacityError` instead."""
        sides = self.sides(p)
        avoid = (self.z - self.eps, self.z + self.eps)
        exact = _composed(bipartite_sign, sides, m)
        width = self.w_hi - self.w_lo
        cells = 1 << min(_GUIDED_DEPTH, (-(-width // self.tol) - 1).bit_length())
        y, step = _float(1 + self.w_lo), _float(width) / cells
        i = _first_past(lambda i: -s_lo * bipartite_log_value(sides, y + i * step, m), cells + 1)
        i = min(max(i, 1), cells)
        lo, hi = self.w_lo + (i - 1) * width / cells, self.w_lo + i * width / cells
        ends = exact(lo.numerator, lo.denominator), exact(hi.numerator, hi.denominator)
        if 0 in ends:
            lo = hi = lo if ends[0] == 0 else hi
        else:
            if ends != (s_lo, -s_lo):
                lo, hi = self.w_lo, self.w_hi
            lo, hi = _sign_bisect(exact, lo, hi, s_lo, self.tol, avoid)
        if lo == hi:
            enc = _exact_enclosure(lo)
        else:
            lo, hi = _simplest_ends(lo, hi, self.w_lo, self.w_hi, self.tol)
            enc = RootEnclosure(RationalInterval(lo, hi), s_lo, -s_lo, NOTE_SIMPLE)
        bits = _numerator_bits(sum(sides), m, enc.interval)
        if bits > VERIFY_MAX_NUMERATOR_BITS:
            raise CapacityError(f"the certificate found ({self.kind} {p}, m = {m}) has a composed "
                                f"numerator of about {bits} bits, above the verifier's cap of "
                                f"{VERIFY_MAX_NUMERATOR_BITS}")
        return WitnessCertificate(self.z, self.eps, self.kind, p, m, sum(sides) * m, enc,
                                  self.row.case)


# the guided pass of _Search._certify picks a dyadic cell at most this deep
_GUIDED_DEPTH = 40


def _float(q: Fraction) -> float:
    """``float(q)``, or NaN past the float range: the guide's value at NaN
    is NaN, on which :func:`_first_past` guesses nothing."""
    try:
        return float(q)
    except OverflowError:
        return math.nan


def _first_past(value: Callable, n: int) -> int:
    """A guess at the first ``i`` in ``range(n)`` with ``value(i) > 0``, or
    ``n`` when ``value(n - 1)`` is not, for a ``value`` that rises through 0
    once: a bracketed secant (regula falsi with the Illinois rule, Dowell
    and Jarratt, BIT 1971) on the indices.

    The bracket starts at ``(0, n - 1)``.  Each step takes an index strictly
    inside it, where the secant through its ends meets 0, rounded down, or
    the middle where that is not a number or where the last two steps did
    not halve the bracket, and moves the end on the same side; an end that
    stays for two steps in a row has its value halved.  It ends when the
    ends are neighbours, so a guess comes with the float values of both.
    On a value linear in the index, such as a star's
    (:func:`domroots.realroots.bipartite_log_value`), the first step lands
    next to the root.  Where ``value`` raises ``ArithmeticError`` or
    ``ValueError`` the guess is ``n``.  Any guess may be wrong; the caller
    confirms it with exact signs."""
    try:
        lo, hi = 0, n - 1
        v_hi = value(hi)
        if not v_hi > 0:
            return n
        if not hi:
            return 0
        v_lo = value(lo)
        if v_lo > 0:
            return 0
        moved = 0  # which end the last step moved: 1 for hi, -1 for lo
        two_back = one_back = 2 * n  # the bracket's width two steps and one step back
        while hi - lo > 1:
            i = (lo + hi) // 2
            if 2 * (hi - lo) <= two_back:
                try:
                    i = min(max(lo + int((hi - lo) * v_lo / (v_lo - v_hi)), lo + 1), hi - 1)
                except (ArithmeticError, ValueError):
                    pass
            two_back, one_back = one_back, hi - lo
            v = value(i)
            if v > 0:
                hi, v_hi = i, v
                if moved > 0:
                    v_lo /= 2
                moved = 1
            else:
                lo, v_lo = i, v
                if moved < 0:
                    v_hi /= 2
                moved = -1
        return hi
    except (ArithmeticError, ValueError):
        return n


def _simplest_ends(lo: Fraction, hi: Fraction, w_lo: Fraction, w_hi: Fraction,
                   tol: Fraction) -> tuple:
    """The ends of the bracket ``(lo, hi)`` of the one root in the part
    ``(w_lo, w_hi)``, each moved outwards to the simplest rational it may
    take: ``lo`` to the simplest in ``[max(hi - tol, w_lo), lo]``, then
    ``hi`` to the simplest in ``[hi, min(lo + tol, w_hi)]``, the part's ends
    left out.  An end that is the part's end stays.  The width stays at most
    ``tol``, no denominator grows, and the ends keep their signs: every
    point of the part left of its one simple root has the sign of ``lo``,
    and every point right of it that of ``hi``.  The comparisons and bounds
    are taken on int pairs (:func:`domroots.realroots._simplest_ratio`)."""
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    tn, td = tol.numerator, tol.denominator
    an, ad, bn, bd = w_lo.numerator, w_lo.denominator, w_hi.numerator, w_hi.denominator
    if ln * ad > an * ld:
        en, ed = hn * td - tn * hd, hd * td  # hi - tol
        past = en * ad <= an * ed
        ln, ld = _simplest_ratio(*((an, ad) if past else (en, ed)), ln, ld, past)
        lo = Fraction(ln, ld)
    if hn * bd < bn * hd:
        en, ed = ln * td + tn * ld, ld * td  # lo + tol
        past = en * bd >= bn * ed
        hi = Fraction(*_simplest_ratio(hn, hd, *((bn, bd) if past else (en, ed)), False, past))
    return lo, hi


def construct_witness(
    z, eps, budget: Optional[SearchBudget] = None, tol: Fraction = DEFAULT_TOL
) -> WitnessCertificate:
    """Find a graph family and clique order whose composed domination
    polynomial certifiably has a real root within ``eps`` of ``z``.

    The search is deterministic: the parts of the window in order (a window
    that straddles -1 is searched left of it first), and in each, diagonals
    ``m + parameter`` ascending, ``m`` ascending within a diagonal; a
    searched cell holds at most one root in its part (the one-simple-root
    lemma of the module docstring).  Raises :class:`BudgetExhaustedError`
    when every part runs out of budget (which never claims nonexistence):
    its frontier's ``case`` joins the parts' case tags with ``+``
    (``case-1.1+case-1.2`` for a window that straddles -1), and
    ``cells_tested`` counts the ``(m, p)`` cells the budget admits in every
    part, not the signs taken: the monotone bisection rules them out with a
    few (``z = -1, eps = 10^-6`` reports 26,711 cells for 2 exact signs and
    2 float guide values).  Raises :class:`CapacityError` when the
    certificate found is one that :func:`verify_certificate` would not
    expand, its composed numerator estimated above
    :data:`VERIFY_MAX_NUMERATOR_BITS` (:func:`_numerator_bits`: a fine
    ``tol`` lengthens the ends, and a far target needs a large order).
    Raises :class:`DomainError` for ``z > 0``.
    """
    z = _as_fraction(z)
    eps = _as_fraction(eps)
    tol = _tolerance(tol)
    if z > 0:
        raise DomainError("targets must satisfy z <= 0; positive reals carry no domination roots")
    if eps <= 0:
        raise DomainError("eps must be positive")
    if budget is None:
        budget = SearchBudget()
    for root in (Fraction(0), Fraction(-2)):
        if z - eps < root < z + eps:
            return WitnessCertificate(z, eps, FAMILY_EXACT_K2, None, 1,
                                      family_order(FAMILY_EXACT_K2, None),
                                      _exact_enclosure(root), CASE_EXACT)
    searches = [_Search(z, eps, budget, tol, part) for part in _classify(z - eps, z + eps)]
    for search in searches:
        cert = search.run()
        if cert:
            return cert
    cells = sum(s.cells for s in searches)
    case = "+".join(s.row.case for s in searches)
    raise BudgetExhaustedError(
        "witness search budget exhausted (this does not prove nonexistence); "
        f"explored {cells} cells for case {case}",
        frontier={
            "case": case,
            "cells_tested": cells,
            "max_m": budget.max_m,
            "max_param": budget.max_param,
            "max_degree": budget.max_degree,
        },
    )


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


def _numerator_bits(order: int, m: int, interval: RationalInterval) -> int:
    """The length in bits of the composed numerator of a family of
    ``order`` vertices at the ends of ``interval``, estimated before
    anything is expanded: ``order (m bits(|num| + den) + 1)`` at the longer
    end."""
    size = max(abs(t.numerator) + t.denominator for t in (interval.lo, interval.hi))
    return order * (m * size.bit_length() + 1)


def _closed_form(a: int, b: int, u: int, v: int, ar):
    """The verifier's own writer of ``v^(a+b) D(K_{a,b}, u/v)`` (``a <= b``)
    in the arithmetic ``ar``: ints, an exact ``decimal.Context`` or
    :class:`_Bounds`.  It transcribes the closed form
    ``((1+x)^a - 1)((1+x)^b - 1) + x^a + x^b`` (Alikhani and Peng, Ars
    Combinatoria 2014) as ``(w^a - v^a)(w^b - v^b) + u^a v^b + u^b v^a``
    with ``w = u + v``, and a star's row ``x(1+x)^k + x^k`` as
    ``u w^b + v u^b``, two long powers instead of three.  Every power is
    taken in ``ar``; it calls nothing of :func:`domroots.realroots._expand`,
    the search's writer."""
    w = u + v
    power = ar.power
    if a == 1:
        return ar.add(ar.multiply(u, power(w, b)), ar.multiply(v, power(u, b)))
    return ar.add(ar.multiply(ar.subtract(power(w, a), power(v, a)),
                              ar.subtract(power(w, b), power(v, b))),
                  ar.add(ar.multiply(power(u, a), power(v, b)),
                         ar.multiply(power(u, b), power(v, a))))


class _Bounds:
    """Intervals ``(lo, hi)`` of Decimals at ``digits`` significant digits,
    under the names of ``decimal.Context``'s methods, so that
    :func:`_closed_form` runs in them.  Every ``lo`` comes from a private
    ``ROUND_FLOOR`` context and every ``hi`` from a ``ROUND_CEILING`` one,
    both correctly rounded (Cowlishaw, General Decimal Arithmetic), so each
    interval holds the integer the same operations give on ints (Moore,
    Interval Analysis, 1966).  Ints enter through each context's
    ``create_decimal``, and a sign flips by ``copy_negate``: unary ``-``,
    ``+`` and ``abs`` round in the thread's context.  ``Overflow`` and
    ``InvalidOperation`` are trapped.  Only ``multiply`` takes an int, as
    its first operand."""

    __slots__ = ("floor", "ceiling")

    def __init__(self, digits: int):
        d = decimal
        self.floor, self.ceiling = (d.Context(prec=digits, rounding=r, Emax=d.MAX_EMAX,
                                              traps=[d.Overflow, d.InvalidOperation])
                                    for r in (d.ROUND_FLOOR, d.ROUND_CEILING))

    def _entered(self, n: int) -> tuple:
        return self.floor.create_decimal(n), self.ceiling.create_decimal(n)

    def power(self, x: int, n: int) -> tuple:
        """``x^n`` for ``n >= 1``: square-and-multiply on ``|x|``, then the
        sign."""
        f, c = self.floor.multiply, self.ceiling.multiply
        lo0, hi0 = lo, hi = self._entered(-x if x < 0 else x)
        for bit in bin(n)[3:]:
            lo, hi = f(lo, lo), c(hi, hi)
            if bit == "1":
                lo, hi = f(lo, lo0), c(hi, hi0)
        return (hi.copy_negate(), lo.copy_negate()) if x < 0 and n & 1 else (lo, hi)

    def multiply(self, x, y: tuple) -> tuple:
        (a, b), (c, d) = self._entered(x) if isinstance(x, int) else x, y
        f, g = self.floor.multiply, self.ceiling.multiply
        return (min(f(a, c), f(a, d), f(b, c), f(b, d)),
                max(g(a, c), g(a, d), g(b, c), g(b, d)))

    def add(self, x: tuple, y: tuple) -> tuple:
        return self.floor.add(x[0], y[0]), self.ceiling.add(x[1], y[1])

    def subtract(self, x: tuple, y: tuple) -> tuple:
        return self.floor.subtract(x[0], y[1]), self.ceiling.subtract(x[1], y[0])


_LOG10_2 = math.log10(2)


def _bounds_sign(a: int, b: int, u: int, v: int) -> int:
    """The sign of the numerator ``v^(a+b) D(K_{a,b}, u/v)`` (``a <= b``)
    where :func:`_closed_form` in :class:`_Bounds` decides it, else 0.
    The precision starts at ``realroots._START_BITS`` bits and doubles by
    the rule of the search's sign (:func:`domroots.realroots._precisions`),
    and an interval that excludes 0 decides.  Without the C module
    ``_decimal``, ``decimal`` is the slow pure-Python one, and nothing is
    decided."""
    if realroots._decimal is None:
        return 0
    for prec in realroots._precisions(a, b, u, v):
        lo, hi = _closed_form(a, b, u, v, _Bounds(math.ceil(prec * _LOG10_2)))
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
    return 0


def _verifier_sign(sides: tuple, u: int, v: int) -> int:
    """The sign of the numerator: decided by :func:`_bounds_sign`, or else
    exactly by :func:`domroots.realroots.bipartite_numerator_sign` from
    :func:`_closed_form`."""
    a, b = sorted(sides)
    return _bounds_sign(a, b, u, v) or bipartite_numerator_sign((a, b), u, v, _closed_form)


def verify_certificate(cert: WitnessCertificate) -> VerificationReport:
    """Independently re-check every claim a certificate makes.

    Failures are report entries, never exceptions; a certificate emitted by
    :func:`construct_witness` passes all checks.  The descriptor is
    resolved once (:func:`_sides`) for every check that reads it.

    An end's sign is that of the integer numerator at the mapped point
    (:func:`_composed`), written by the verifier's own :func:`_closed_form`
    and never by the search's :func:`domroots.realroots._expand` or in its
    balls (:func:`_verifier_sign`): in decimal intervals where they decide
    it (:func:`_bounds_sign`), and otherwise expanded exactly, so a sign of
    0 at an exact root is always exact.  Nothing is expanded unless the
    degree the descriptor implies is the stored one (a tampered star of
    10^6 leaves took 8 s and 92 MiB to reject without this guard) and the
    numerator's estimated length (:func:`_numerator_bits`) is within
    :data:`VERIFY_MAX_NUMERATOR_BITS`, which bounds an ``m`` edited along
    with the degree (the z = -10 star with ``m = 1,001`` took 9.9 s to
    reject without it); either guard fails ``endpoint_certification``.
    :func:`construct_witness` emits no certificate above the cap, and one
    under it can still be false: its recomputed signs reject it.  ``m < 1``
    raises at the first sign (:func:`_composed`), so an unknown enclosure
    note is reported first.
    """
    checks = []

    def add(name, passed, detail=""):
        checks.append(CheckResult(name, bool(passed), detail))

    z, eps, m, enc = cert.target_z, cert.epsilon, cert.m, cert.enclosure
    add("target_nonpositive", z <= 0, f"z = {z}")
    add("epsilon_positive", eps > 0, f"eps = {eps}")
    add("substitution_order_odd", m >= 1 and m % 2 == 1, f"m = {m}")

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
                f"{graph.FAMILIES[row.family].params[0]} = {p}" + (" must be odd" if row.odd else ""))
        add("case_tag", cert.case_tag == row.case, cert.case_tag)

    try:
        sides = _sides(kind, p)
    except DomainError as exc:
        sides, unresolved = None, exc
        add("composed_degree", False, str(exc))
    else:
        order = sum(sides)
        add("composed_degree", cert.composed_degree == order * m,
            f"{cert.composed_degree} vs {order}*{m}")

    lo, hi = enc.interval.lo, enc.interval.hi
    add("enclosure_within_window", z - eps < lo and hi < z + eps,
        f"[{lo}, {hi}] vs ({z - eps}, {z + eps})")

    try:
        if sides is None:
            raise unresolved
        if order * m != cert.composed_degree:
            raise DomainError(f"the descriptor implies degree {order * m}, not the stored "
                              f"{cert.composed_degree}; nothing was expanded")
        bits = _numerator_bits(order, m, enc.interval)
        if bits > VERIFY_MAX_NUMERATOR_BITS:
            raise DomainError(f"the composed numerator would have about {bits} bits, above the "
                              f"cap of {VERIFY_MAX_NUMERATOR_BITS}; nothing was expanded")
        sign = _composed(_verifier_sign, sides, m)
        if enc.note == NOTE_EXACT:
            s = sign(lo.numerator, lo.denominator)
            detail = "value at exact root = 0" if s == 0 else f"value at exact root has sign {s}"
            add("endpoint_certification", s == 0, detail)
        elif enc.note != NOTE_SIMPLE:
            add("endpoint_certification", False, f"unknown enclosure note {enc.note!r}")
        else:
            s_lo, s_hi = sign(lo.numerator, lo.denominator), sign(hi.numerator, hi.denominator)
            add("endpoint_certification",
                s_lo == enc.sign_lo and s_hi == enc.sign_hi and s_lo * s_hi == -1,
                f"recomputed signs ({s_lo}, {s_hi}) vs stored ({enc.sign_lo}, {enc.sign_hi})")
    except DomRootsError as exc:
        add("endpoint_certification", False, str(exc))

    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def certificate_to_json(cert: WitnessCertificate) -> str:
    return json.dumps(
        {
            "target_z": _frac_str(cert.target_z),
            "epsilon": _frac_str(cert.epsilon),
            "family": {"kind": cert.family_kind, "param": cert.family_param},
            "m": cert.m,
            "composed_degree": cert.composed_degree,
            "case_tag": cert.case_tag,
            "enclosure": enclosure_json(cert.enclosure),
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
        return _as_fraction(text)
    except DomainError:
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
