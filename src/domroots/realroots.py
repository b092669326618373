"""Certified real-root counting, isolation and refinement.

All certification is exact: Sturm chains over the integers (with primitive
reduction after every Euclidean step), interval endpoints as rationals, and
sign evaluations on homogenised integer forms.  The number of all distinct
real roots comes from the chain's leading signs alone
(:func:`count_real_roots`).  One formula, :func:`_expand`, writes the
integer ``v^(a+b) D(K_{a,b}, u/v)`` behind every star root and witness
for both arithmetics; :func:`bipartite_numerator` is its int form, and
:func:`bipartite_numerator_sign` expands it exactly for its sign: in ints,
or past a measured crossover in an exact ``decimal`` context, whose
libmpdec multiplies long numbers faster.  One kernel,
:func:`bipartite_sign`, decides that sign: midpoint-radius balls of
integers at a working precision that doubles until the ball excludes 0,
with the exact sign once it is no more work.  Star roots are bisected on
``D(K_{1,k})`` itself.  Binary floating point appears only in
:func:`lambert_w` / :func:`star_root_estimate` and in
:func:`bipartite_log_value`, the witness search's guide to a ``K_{a,b}``
sign; they serve as search seeds, guides and reporting checks, never as
evidence.

Counting convention: an interval ``(lo, hi]`` is half-open on the left, so a
root exactly at ``hi`` is counted and a root exactly at ``lo`` is not.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import attrgetter, ne
from typing import TYPE_CHECKING, Optional, Sequence

from . import intpoly
from .errors import DomainError, EndpointRootError, InternalInvariantError

try:
    import _decimal  # libmpdec; without it decimal is the pure-Python _pydecimal
except ImportError:
    _decimal = None

if TYPE_CHECKING:
    from .dompoly import DomPolynomial

DEFAULT_TOL = Fraction(1, 10 ** 9)

NOTE_SIMPLE = "simple-certified"
NOTE_STURM = "sturm-counted"
NOTE_EXACT = "exact"

Rational = Fraction
"""Exact rational scalar.

`fractions.Fraction` already maintains the canonical form this package
needs (positive denominator, reduced by gcd), so it is used directly.
"""


def _as_fraction(x) -> Fraction:
    """Every rational the package reads, text such as ``"-3/2"`` included;
    anything that is not an exact rational raises :class:`DomainError`."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"not a rational number: {x!r}") from None
    raise DomainError(f"expected an exact rational, got {type(x).__name__}")


def _tolerance(tol) -> Fraction:
    """``tol`` as a :class:`Fraction`, which every bisection needs positive."""
    tol = _as_fraction(tol)
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    return tol


@dataclass(frozen=True)
class RationalInterval:
    """Closed rational interval with ``lo <= hi``."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_fraction(self.lo))
        object.__setattr__(self, "hi", _as_fraction(self.hi))
        if self.lo > self.hi:
            raise DomainError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class RootEnclosure:
    """An interval proven to contain a real root.

    ``note`` records how the enclosure was certified: ``simple-certified``
    means the endpoint signs differ, ``sturm-counted`` means Sturm counts put
    exactly one distinct root inside while the endpoint signs agree (a root
    of even multiplicity), and ``exact`` marks a degenerate point interval
    where the polynomial evaluates to zero.
    """

    interval: RationalInterval
    sign_lo: int
    sign_hi: int
    note: str

    @property
    def midpoint(self) -> Fraction:
        return self.interval.midpoint

    @property
    def width(self) -> Fraction:
        return self.interval.width

    def __post_init__(self):
        if self.note == NOTE_SIMPLE and self.sign_lo * self.sign_hi != -1:
            raise DomainError("simple-certified enclosures need opposite endpoint signs")
        if self.note == NOTE_EXACT and (self.interval.width or self.sign_lo or self.sign_hi):
            raise DomainError("exact enclosures are point intervals with zero end signs")


@dataclass(frozen=True)
class SturmChain:
    """Sturm sequence of the square-free part; last element a nonzero constant."""

    polys: tuple

    @property
    def squarefree(self) -> tuple:
        return self.polys[0]


def _coeffs(p: Sequence[int] | DomPolynomial) -> list:
    if hasattr(p, "coeffs"):
        return intpoly.normalize(list(p.coeffs))
    return intpoly.normalize(list(p))


def _sturm_sequence(f: list) -> list:
    """``f``, ``f'`` and the negated primitive pseudo-remainders that follow,
    up to a constant or to the first element that divides the one before."""
    chain = [f, intpoly.primitive(intpoly.derivative(f))]
    while intpoly.degree(chain[-1]) > 0:
        r = intpoly.pseudo_rem_positive(chain[-2], chain[-1])
        if not r:
            break
        chain.append(intpoly.neg(r))
    return chain


def _positive_primitive(p) -> list:
    f = intpoly.primitive(p)
    return intpoly.neg(f) if f[-1] < 0 else f


def sturm_chain(p: Sequence[int] | DomPolynomial) -> SturmChain:
    """Build the Sturm chain on the square-free part of ``p``.

    One primitive remainder sequence runs on ``p`` and ``p'``.  When it
    ends in a constant, ``p`` is square-free and the sequence is the chain.
    When it ends in a ``g`` of positive degree, ``g`` is ``gcd(p, p')`` up to
    sign, and a second sequence runs on the primitive part of ``p / g``.
    Content is removed after every Euclidean step, which keeps coefficient
    growth manageable at the degrees the witness search produces.
    """
    coeffs = _coeffs(p)
    if not coeffs:
        raise DomainError("cannot build a Sturm chain for the zero polynomial")
    if intpoly.degree(coeffs) == 0:
        return SturmChain(((1,),))
    chain = _sturm_sequence(_positive_primitive(coeffs))
    if intpoly.degree(chain[-1]) > 0:
        chain = _sturm_sequence(_positive_primitive(intpoly.exact_div(coeffs, chain[-1])))
        if intpoly.degree(chain[-1]) > 0:
            raise InternalInvariantError("square-free Sturm chain hit a zero remainder")
    return SturmChain(tuple(map(tuple, chain)))


def count_real_roots(chain: SturmChain) -> int:
    """Number of distinct real roots, ``V(-inf) - V(+inf)``.

    At ``+inf`` every chain element takes the sign of its leading
    coefficient, and at ``-inf`` that sign times ``(-1)^degree``, so no
    element is evaluated.  For a strict root bound ``B`` this is the count
    :func:`count_roots_in` gives over ``(-B, B]``.
    """
    plus = [q[-1] > 0 for q in chain.polys]
    minus = [s == (len(q) % 2 == 1) for s, q in zip(plus, chain.polys)]
    return sum(map(ne, minus, minus[1:])) - sum(map(ne, plus, plus[1:]))


def _variations(chain: SturmChain, q: Fraction) -> int:
    prev = 0
    var = 0
    for poly in chain.polys:
        v = intpoly.eval_homogeneous(poly, q.numerator, q.denominator)
        s = (v > 0) - (v < 0)
        if s == 0:
            continue
        if prev and s != prev:
            var += 1
        prev = s
    return var


def count_roots_in(chain: SturmChain, interval: RationalInterval) -> int:
    """Number of distinct real roots in ``(lo, hi]`` by sign-variation difference.

    Raises :class:`EndpointRootError` when either endpoint is itself a root of
    the square-free part.  Isolation does not call this: it counts through
    root endpoints.
    """
    f = chain.squarefree
    lo, hi = interval.lo, interval.hi
    if intpoly.sign_at(f, lo) == 0 or intpoly.sign_at(f, hi) == 0:
        raise EndpointRootError(f"interval endpoint is a root: ({lo}, {hi}]")
    count = _variations(chain, lo) - _variations(chain, hi)
    if count < 0:
        raise InternalInvariantError("negative Sturm variation difference")
    return count


def _open_count(chain: SturmChain, a: Fraction, b: Fraction) -> int:
    # variations skip zero terms, so V(a) - V(b) counts the roots in (a, b]
    # even where a or b is a root; a root at b is then taken off
    return (_variations(chain, a) - _variations(chain, b)
            - (intpoly.sign_at(chain.squarefree, b) == 0))


def _exact_enclosure(point: Fraction) -> RootEnclosure:
    return RootEnclosure(RationalInterval(point, point), 0, 0, NOTE_EXACT)


def _sign_bisect(sign, a: Fraction, b: Fraction, ref: int, tol: Fraction,
                 avoid: Sequence[Fraction]) -> tuple:
    """Bisect ``(a, b)`` on ``sign``, which has one root there and changes sign at it.

    ``sign(num, den)`` takes a point as an unreduced pair with ``den > 0``:
    both ends are kept over one integer denominator, doubled when a
    midpoint needs it, so every caller's sign must be homogeneous (the same
    for ``(num, den)`` and ``(c num, c den)``, ``c > 0``).  ``ref`` is the
    sign just right of ``a``.  The loop runs until the width is at most
    ``tol`` and no point of ``avoid`` lies in the closed ``[a, b]``; a
    midpoint that is the root comes back as ``(mid, mid)``.  The root is
    not in ``avoid``, so every point there is bisected off in finitely many
    steps.  An end that may itself be a root must be named in ``avoid``:
    the ends are never evaluated.  Every midpoint is a dyadic point of
    ``(a, b)``, and the loop cannot stop while the width is above ``tol``,
    so it passes through every dyadic cell that holds the root inside it,
    down to the first depth at which the width is at most ``tol``; started
    from such a cell, it ends where it ends from ``(a, b)``.
    """
    den = math.lcm(a.denominator, b.denominator)
    lo = a.numerator * (den // a.denominator)
    hi = b.numerator * (den // b.denominator)
    tn, td = tol.numerator, tol.denominator
    avoid = [(x.numerator, x.denominator) for x in avoid]
    while (hi - lo) * td > tn * den or any(lo * xd <= xn * den <= hi * xd for xn, xd in avoid):
        if (lo + hi) & 1:
            lo, hi, den = 2 * lo, 2 * hi, 2 * den
        mid = (lo + hi) >> 1
        s = sign(mid, den)
        if s == 0:
            mid = Fraction(mid, den)
            return mid, mid
        if s == ref:
            lo = mid
        else:
            hi = mid
    return Fraction(lo, den), Fraction(hi, den)


def _simplest(lo: Fraction, hi: Fraction, open_lo: bool = False, open_hi: bool = False) -> Fraction:
    """The simplest rational in the range from ``lo`` to ``hi``: the one with
    the smallest denominator, and of those the one nearest 0.  An open end
    is left out of the range, which must hold a rational.

    For ``0 <= lo``: a range that holds an integer gives its smallest;
    otherwise both ends have the integer part ``n``, and the answer is
    ``n + 1/t`` for the simplest ``t`` between ``1/(hi - n)`` and
    ``1/(lo - n)``, the ends swapped with their openness.  The loop keeps
    the continued fraction so far as ``(h1 t + h0) / (k1 t + k0)``, all on
    ints (:func:`_simplest_ratio`)."""
    return Fraction(*_simplest_ratio(lo.numerator, lo.denominator, hi.numerator, hi.denominator,
                                     open_lo, open_hi))


def _simplest_ratio(ln: int, ld: int, un: int, ud: int, open_lo: bool = False,
                    open_hi: bool = False) -> tuple:
    """:func:`_simplest` of the range from ``ln/ld`` to ``un/ud``, each end
    an int pair with a positive denominator and not necessarily in lowest
    terms, as ``(num, den)`` in lowest terms; a range of ``t`` with no
    upper end has ``ud = 0``."""
    if un < 0 or un == 0 and open_hi:
        n, d = _simplest_ratio(-un, ud, -ln, ld, open_hi, open_lo)
        return -n, d
    if ln < 0:
        return 0, 1
    h0, k0, h1, k1 = 0, 1, 1, 0
    while True:
        n, r = divmod(ln, ld)
        c = n + bool(r or open_lo)
        if c * ud < un or c * ud == un and not open_hi:
            return h1 * c + h0, k1 * c + k0
        h0, k0, h1, k1 = h1, k1, n * h1 + h0, n * k1 + k0
        ln, ld, un, ud = ud, un - n * ud, ld, r
        open_lo, open_hi = open_hi, open_lo


def isolate_real_roots(
    p: Sequence[int] | DomPolynomial, interval: RationalInterval, tol: Fraction = DEFAULT_TOL
) -> list:
    """Isolate every distinct real root of ``p`` in ``(lo, hi]``.

    Returns pairwise-disjoint enclosures of width <= ``tol`` in ascending
    order, one per distinct root.  A root at 0 is split off exactly first
    (the constant-free part is deflated).  Sturm counts of the roots in an
    open interval split every interval that holds two or more roots at its
    midpoint; a midpoint that is a root comes back as an exact point, and
    both halves keep their counts.  Each leaf, an open interval that holds
    one root, is narrowed by :func:`_sign_bisect` until the enclosure lies
    strictly inside the leaf and does not hold a deflated 0.  Leaves do not
    overlap, so neither do their enclosures, and the results are only
    sorted.  The window stays half-open: a root at ``hi`` comes back as an
    exact point, a root at ``lo`` is left out, and every enclosure lies
    inside the window.
    """
    tol = _tolerance(tol)
    coeffs = _coeffs(p)
    if not coeffs:
        raise DomainError("cannot isolate roots of the zero polynomial")
    t0 = intpoly.trailing_zeros(coeffs)
    work = coeffs[t0:] if t0 else coeffs
    chain = None
    if intpoly.degree(work) >= 1 and interval.lo != interval.hi:
        chain = sturm_chain(work)
    return _isolate(coeffs, chain, interval, tol)


def _isolate(coeffs: list, chain: Optional[SturmChain], interval: RationalInterval,
             tol: Fraction) -> list:
    """:func:`isolate_real_roots` of the normalized ``coeffs``, for a
    positive ``tol``, given the Sturm chain of their zero-free part, or None
    when that part is a constant or the window a point: the route of a
    caller that has built the chain already."""
    lo, hi = interval.lo, interval.hi
    results = []
    if coeffs[0] == 0 and lo < 0 <= hi:
        results.append(_exact_enclosure(Fraction(0)))
    if chain is None:
        return results
    if intpoly.sign_at(chain.squarefree, hi) == 0:
        results.append(_exact_enclosure(hi))
    deflated = (Fraction(0),) if coeffs[0] == 0 else ()
    stack = [(lo, hi, _open_count(chain, lo, hi))]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 1:
            results.append(_refine_one(coeffs, chain, a, b, tol, deflated))
        elif cnt > 1:
            mid = (a + b) / 2
            left = _open_count(chain, a, mid)
            if intpoly.sign_at(chain.squarefree, mid) == 0:
                results.append(_exact_enclosure(mid))
                cnt -= 1
            stack.append((a, mid, left))
            stack.append((mid, b, cnt - left))
    results.sort(key=attrgetter("interval.lo"))
    return results


def _refine_one(orig, chain, a: Fraction, b: Fraction, tol, deflated) -> RootEnclosure:
    """Enclose the one root of the square-free part in the open leaf ``(a, b)``.

    The bisection avoids the leaf's ends, which may be roots, split points
    or the excluded window end ``lo``, and the points of ``deflated`` (0 when
    it was split off), so the enclosure lies strictly inside the leaf and
    its ends are not roots of ``orig``.
    """
    f = chain.squarefree

    def sign(num: int, den: int) -> int:
        v = intpoly.eval_homogeneous(f, num, den)
        return (v > 0) - (v < 0)

    # just right of a root at a, f takes the sign of f'; chain.polys[1] is a
    # positive multiple of f'
    ref = intpoly.sign_at(f, a) or intpoly.sign_at(chain.polys[1], a)
    a, b = _sign_bisect(sign, a, b, ref, tol, (a, b, *deflated))
    if a == b:
        return _exact_enclosure(a)
    sl, sh = intpoly.sign_at(orig, a), intpoly.sign_at(orig, b)
    note = NOTE_SIMPLE if sl * sh == -1 else NOTE_STURM
    return RootEnclosure(RationalInterval(a, b), sl, sh, note)


# ---------------------------------------------------------------------------
# Lambert W and the star-root sequence
# ---------------------------------------------------------------------------

def lambert_w(x: float) -> float:
    """Principal-branch Lambert W on the nonnegative reals.

    Halley iteration, seeded by ``ln x - ln ln x`` for ``x >= e`` and by the
    leading series terms ``x(1 - x)`` in the small-x region; the residual
    ``|w e^w - x|`` is driven below ``1e-12 * max(1, x)``.
    """
    x = float(x)
    if x < 0:
        raise DomainError("lambert_w is only defined for x >= 0 here")
    if x == 0.0:
        return 0.0
    if x >= math.e:
        lx = math.log(x)
        w = lx - math.log(lx) if lx > 0 else lx
    elif x <= 1.0:
        w = x * (1.0 - x)
    else:
        w = 0.7
    target = 1e-13 * max(1.0, x)
    for _ in range(60):
        ew = math.exp(w)
        err = w * ew - x
        if abs(err) <= target:
            break
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * err / (2.0 * wp1)
        w -= err / denom
    return w


def star_root_estimate(k: int) -> float:
    """Leading asymptotic terms ``k/W(k) + W(k)/(2(1+W(k)))`` for the star root."""
    if k < 1:
        raise DomainError("star index must be >= 1")
    w = lambert_w(float(k))
    return k / w + w / (2.0 * (1.0 + w))


# ---------------------------------------------------------------------------
# the K_{a,b} sign kernel
# ---------------------------------------------------------------------------
#
# A ball (m, r, e) stands for every real within r 2^e of m 2^e; m is cut to
# the working precision P, so r counts units in the last place (ulps).
# The bounds each operation keeps, with t the bits a cut drops:
#
# * _power: |x|^n stays in [lo 2^e, hi 2^e].  The base is cut to lo and
#   hi = lo + 1; each squaring (and each product with the base) multiplies
#   the ends, which are positive, and cuts them back to P bits with lo
#   rounded down and hi rounded up, so the power never leaves the interval,
#   which widens by at most one ulp at each end per squaring on top of
#   doubling its relative width.  It comes back as the ball
#   (lo + hi, hi - lo, e - 1), signed by the parity of n.
# * _mul: |x y - m1 m2| <= |m1| r2 + |m2| r1 + r1 r2 in units of
#   2^(e1 + e2), before the product is cut.
# * _cut: dropping t < 2^s from m adds t to the radius, and the radius is
#   then rounded up: r' = ceil((r + t) / 2^s).
# * _sum: the terms are aligned 2P bits below the largest exponent; a term
#   below that is cut first.


def _cut(m: int, r: int, e: int, s: int) -> tuple:
    if s <= 0:
        return m, r, e
    q = m >> s
    return q, -(-(r + m - (q << s)) >> s), e + s


def _ball(x: int, prec: int) -> tuple:
    return _cut(x, 0, 0, x.bit_length() - prec)


def _power(x: int, n: int, prec: int) -> tuple:
    y = -x if x < 0 else x
    s = y.bit_length() - prec
    if s > 0:
        lo, hi, e = y >> s, (y >> s) + 1, s
    else:
        lo = hi = y
        e = 0
    base_lo, base_hi, base_e = lo, hi, e
    for bit in bin(n)[3:]:
        lo *= lo
        hi *= hi
        e += e
        if bit == "1":
            lo *= base_lo
            hi *= base_hi
            e += base_e
        s = lo.bit_length() - prec
        if s > 0:
            lo >>= s
            hi = -(-hi >> s)
            e += s
    m = lo + hi
    return (-m if x < 0 and n & 1 else m), hi - lo, e - 1


def _mul(x: tuple, y: tuple, prec: int) -> tuple:
    (m1, r1, e1), (m2, r2, e2) = x, y
    m = m1 * m2
    return _cut(m, abs(m1) * r2 + abs(m2) * r1 + r1 * r2, e1 + e2, m.bit_length() - prec)


def _sum(balls, prec: int) -> tuple:
    low = max(e for _, _, e in balls) - 2 * prec
    total = rad = 0
    for m, r, e in balls:
        if e < low:
            m, r, e = _cut(m, r, e, low - e)
        total += m << (e - low)
        rad += r << (e - low)
    return total, rad, low


def _short_side(a: int, u: int, v: int) -> tuple:
    """``(v^a, d, c)`` with ``d = (u+v)^a - v^a`` and ``c = u^a - d``: the
    ``K_{a,b}`` numerator is ``d (u+v)^b + c v^b + v^a u^b``, and ``c = 0``
    when ``a = 1``."""
    va = v ** a
    d = (u + v) ** a - va
    return va, d, u ** a - d


class _Ints:
    """Python ints under the names of ``decimal.Context``'s methods."""

    power = pow
    multiply = operator.mul
    add = operator.add
    subtract = operator.sub


def _expand(a: int, b: int, u: int, v: int, ar):
    """The ``K_{a,b}`` numerator (``a <= b``) in the arithmetic ``ar``:
    :class:`_Ints`, or an exact ``decimal.Context``.  Only ``u``, ``v``,
    ``u + v``, 2 and the short side's integers enter as ints; every long
    power and product is taken in ``ar``."""
    w = u + v
    if a == b:
        va = ar.power(v, a)
        d = ar.subtract(ar.power(w, a), va)
        return ar.add(ar.multiply(d, d), ar.multiply(ar.multiply(2, ar.power(u, a)), va))
    va, d, c = _short_side(a, u, v)
    n = ar.multiply(va, ar.power(u, b))
    if d:
        n = ar.add(n, ar.multiply(d, ar.power(w, b)))
    if c:
        n = ar.add(n, ar.multiply(c, ar.power(v, b)))
    return n


def bipartite_numerator(sides: tuple, u: int, v: int) -> int:
    """``v^(a+b)`` times ``D(K_{a,b})`` at ``u/v``, for ``sides = (a, b)``,
    which for ``v > 0`` has the value's sign.  The short side is expanded
    first (:func:`_short_side`): a star takes two long powers, ``K_{2,l}``
    three, and ``K_{k,k}`` is ``(w^k - v^k)^2 + 2 u^k v^k``, ``w = u + v``."""
    a, b = sorted(sides)
    return _expand(a, b, u, v, _Ints)


def _numerator_bits(a: int, b: int, u: int, v: int) -> int:
    """The numerator's length in bits, estimated from its operands."""
    return (a + b) * (max(-u if u < 0 else u, v).bit_length() + 1)


# Above this size estimate the numerator is expanded in libmpdec, which
# multiplies long numbers by a number-theoretic transform where CPython's
# ints use Karatsuba.  Sign of a star numerator with 90-bit operands, int
# against decimal (Python 3.11.7, libmpdec 2.5.1, 2-core x86-64 host):
# 1.7k bits 3.9 us / 9.9 us; 26k bits 0.20 / 1.2 ms; 99k bits 1.6 / 3.1 ms;
# 400k bits 15 / 12 ms; 1.6M bits 139 / 52 ms.  Decimal's time steps up
# near 2.7e5 bits, and from there to 3.5e5 it loses on some shapes (up to
# 1.4 times the ints' time, for stars, K_{2,l}, K_{k,k} and K_{13,b} with
# 40- to 1,300-bit operands); from 4e5 bits on it won on every one, by
# 0.5-0.65 of the ints' time at 5e5 and 0.2-0.45 at 2e6.
_DECIMAL_BITS = 400_000


def bipartite_numerator_sign(sides: tuple, u: int, v: int) -> int:
    """Sign of :func:`bipartite_numerator`, from the integer's expansion.

    Up to :data:`_DECIMAL_BITS` the integer is expanded in ints.  Above,
    the same integer is expanded in a private ``decimal.Context`` with the
    largest precision and exponent range, where integer arithmetic is
    exact; ``Inexact``, ``Rounded``, ``Overflow`` and ``InvalidOperation``
    are trapped, so a result that is not exact raises and is never read as
    a sign.  Only the sign is read back (a long ``Decimal`` turns into an
    int in quadratic time).  Without the C module ``_decimal``, ``decimal``
    is the slow pure-Python one, and ints are kept at every size."""
    a, b = sorted(sides)
    return _exact_sign(a, b, u, v, _numerator_bits(a, b, u, v))


def _exact_sign(a: int, b: int, u: int, v: int, size: int) -> int:
    """:func:`bipartite_numerator_sign` for ``a <= b`` and the size
    estimate ``size`` the caller already has."""
    if _decimal is None or size <= _DECIMAL_BITS:
        n = _expand(a, b, u, v, _Ints)
        return (n > 0) - (n < 0)
    d = _decimal
    exact = d.Context(prec=d.MAX_PREC, Emax=d.MAX_EMAX, Emin=d.MIN_EMIN,
                      traps=[d.Inexact, d.Rounded, d.Overflow, d.InvalidOperation])
    n = _expand(a, b, u, v, exact)
    return 0 if n.is_zero() else -1 if n.is_signed() else 1


def _numerator_ball(a: int, b: int, u: int, v: int, prec: int) -> tuple:
    """The ``K_{a,b}`` numerator (``a <= b``) as a ball at ``prec`` bits.
    With ``a < b`` the short side's integers are exact; with ``a = b`` the
    numerator is ``(w^a - v^a)^2 + 2 u^a v^a``."""
    w = u + v
    if a < b:
        va, d, c = _short_side(a, u, v)
        terms = [_mul(_ball(va, prec), _power(u, b, prec), prec)]
        if d:
            terms.append(_mul(_ball(d, prec), _power(w, b, prec), prec))
        if c:
            terms.append(_mul(_ball(c, prec), _power(v, b, prec), prec))
    else:
        wa, va, ua = (_power(x, a, prec) for x in (w, v, u))
        d = _sum([wa, (-va[0], va[1], va[2])], prec)
        m, r, e = _mul(ua, va, prec)
        terms = [_mul(d, d, prec), (2 * m, 2 * r, e)]
    return _sum(terms, prec)


# the first working precision, in bits
_START_BITS = 128


def bipartite_sign(sides: tuple, u: int, v: int) -> int:
    """Sign of ``v^(a+b)`` times ``D(K_{a,b})`` at ``u/v`` (``v > 0``): of
    ``(w^a - v^a)(w^b - v^b) + u^a v^b + u^b v^a`` with ``w = u + v``.
    A star ``K_{1,k}`` gives ``u w^k + u^k v``.

    The numerator is evaluated in balls (:func:`_numerator_ball`) at a
    working precision of ``P`` bits, and a ball that excludes 0 decides;
    otherwise ``P`` doubles.  A pass squares ``steps`` numbers of ``P``
    bits, and once the exact integer is no larger than those together it
    is expanded instead (:func:`bipartite_numerator_sign`), so the answer
    is always the integer's sign."""
    if not u:
        return 0  # x = 0 is a root of every domination polynomial
    a, b = sorted(sides)
    size = _numerator_bits(a, b, u, v)
    steps = (2 if a == 1 else 3) * b.bit_length()
    prec = _START_BITS
    while size > prec * steps:
        m, r, _ = _numerator_ball(a, b, u, v, prec)
        if abs(m) > r:
            return (m > 0) - (m < 0)
        prec *= 2
    return _exact_sign(a, b, u, v, size)


def _log_power_minus_one(log_y: float, y_negative: bool, n: int) -> tuple:
    """``(sign, log|y^n - 1|)`` for ``|y| = e^log_y``, ``n >= 1``; no power
    of ``y`` is formed, so none overflows."""
    t = n * log_y
    if y_negative and n & 1:  # y^n - 1 = -(e^t + 1)
        return -1, (t + math.log1p(math.exp(-t)) if t > 0 else math.log1p(math.exp(t)))
    if t > 0:
        return 1, t + math.log(-math.expm1(-t))
    if t < 0:
        return -1, math.log(-math.expm1(t))
    return 0, -math.inf


def _log_total(logs: list) -> float:
    """``log`` of the sum of ``e^l`` over ``logs``, scaled by the largest;
    ``-inf`` for none."""
    top = max(logs, default=-math.inf)
    if len(logs) < 2 or top == -math.inf:
        return top
    return top + math.log(sum(math.exp(l - top) for l in logs))


_LOG_2 = math.log(2)


def bipartite_log_value(sides: tuple, y: float, m: int) -> float:
    """A float stand-in for ``D(K_{a,b}, y^m - 1)``, for ``m >= 1``: the
    log of the sum of its positive terms minus the log of the sum of its
    negative ones, which has the polynomial's sign.

    The terms are those :func:`_expand` groups, at ``x = y^m - 1`` with
    ``d = (1+x)^a - 1``: ``d (1+x)^b + x^a - d + x^b`` for ``a < b``
    (``x^a - d`` is 0 for a star) and ``d^2 + 2 x^a`` for ``a = b``.  Each
    is carried as ``(sign, log|term|)``, so no power of ``y`` overflows, and
    each sum is scaled by its largest term.  Where a term of each sign is
    left, the value is continuous in ``y``, and in its log form it is close
    to linear along a family: for a star with ``y <= -1`` it is exactly
    linear in ``k`` up to the sign ``(-1)^k``.  Near a root it can have the
    wrong sign: it guides the witness search to where an exact sign is
    worth taking and is never read as evidence."""
    a, b = sorted(sides)
    neg = y < 0
    log_y = math.log(-y if neg else y) if y else -math.inf
    sx, lx = _log_power_minus_one(log_y, neg, m)
    sd, ld = (sx, lx) if a == 1 else _log_power_minus_one(log_y, neg, m * a)
    if a == b:
        terms = ((sd * sd, 2 * ld), (sx ** a, _LOG_2 + a * lx))
    else:
        terms = [(-sd if neg and m * b & 1 else sd, ld + m * b * log_y), (sx ** b, b * lx)]
        if a > 1:
            terms += ((sx ** a, a * lx), (-sd, ld))
    pos, negative = [], []
    for s, l in terms:
        if s > 0:
            pos.append(l)
        elif s < 0:
            negative.append(l)
    return _log_total(pos) - _log_total(negative)


def star_domination_root(k: int, tol: Fraction = DEFAULT_TOL) -> RootEnclosure:
    """Certified enclosure of the extremal real root of ``D(K_{1,k}, x) =
    x(x+1)^k + x^k``, the one left of -1.

    With ``R = -x`` the equation is ``(R/(R-1))^k = R``, which on ``R > 1``
    balances a strictly decreasing against a strictly increasing side, so
    there is exactly one crossing.  The search is seeded by the floating
    asymptotic estimate, and the enclosure is certified by exact signs of
    the star form (:func:`bipartite_sign`): ``(-1)^(k+1)`` far left, and
    ``(-1)^k`` at -1.
    """
    if k < 1:
        raise DomainError("star index must be >= 1")
    tol = _tolerance(tol)
    # For k >= 2, D(x)/x = (x+1)^k + x^(k-1) is monic with constant term 1,
    # so its rational roots could only be 1 and -1, where it is 2^k + 1 and
    # (-1)^(k-1): the root is irrational.  For k = 1 it is -2.
    if k == 1:
        return _exact_enclosure(Fraction(-2))
    sign = partial(bipartite_sign, (1, k))
    far = 1 if k % 2 else -1
    est = star_root_estimate(k)
    near = max(1, math.floor(est) - 2)
    if near > 1 and sign(-near, 1) == far:
        near = 1
    reach = math.ceil(est) + 2
    while sign(-reach, 1) != far:
        reach *= 2
    # neither end is a root, so there is nothing to avoid, and no bisection
    # point is one
    lo, hi = _sign_bisect(sign, Fraction(-reach), Fraction(-near), far, tol, ())
    return RootEnclosure(RationalInterval(lo, hi), far, -far, NOTE_SIMPLE)


def star_root(k: int, tol: Fraction = DEFAULT_TOL) -> RootEnclosure:
    """Certified enclosure of ``r_k``, the unique root of ``R(R-1)^k - R^k``
    above 1: the mirror of :func:`star_domination_root`, with the signs of
    ``g(R) = R(R-1)^k - R^k``, which is -1 at 1."""
    enc = star_domination_root(k, tol)
    lo, hi = enc.interval.lo, enc.interval.hi
    if enc.note == NOTE_EXACT:
        return _exact_enclosure(-lo)
    return RootEnclosure(RationalInterval(-hi, -lo), -1, +1, NOTE_SIMPLE)


@dataclass(frozen=True)
class StarGapRecord:
    """One row of the star-root progression report."""

    k: int
    enclosure: RootEnclosure
    gap: Optional[Fraction]
    estimate: float
    abs_err: float


def star_gap_report(k_max: int, tol: Fraction = DEFAULT_TOL) -> list:
    """Certified star roots for k = 1..k_max with gaps and asymptotic errors.

    ``gap`` is the midpoint difference to the next root (None on the last
    row).  Successive enclosures are checked to be disjoint and increasing,
    which certifies strict monotonicity of the sequence.
    """
    if k_max < 2:
        raise DomainError("the gap report needs k_max >= 2")
    roots = [star_root(k, tol) for k in range(1, k_max + 1)]
    for k in range(len(roots) - 1):
        if not roots[k].interval.hi < roots[k + 1].interval.lo:
            raise InternalInvariantError(
                f"star root enclosures for k={k + 1},{k + 2} are not increasing"
            )
    records = []
    for i, enc in enumerate(roots):
        k = i + 1
        est = star_root_estimate(k)
        gap = roots[i + 1].midpoint - enc.midpoint if i + 1 < len(roots) else None
        records.append(
            StarGapRecord(k, enc, gap, est, abs(float(enc.midpoint) - est))
        )
    return records


def format_fixed(q: Fraction, digits: int = 12) -> str:
    """Render a rational as a fixed-point decimal with ``digits`` places,
    rounding half to even."""
    q = _as_fraction(q)
    unit = 10 ** digits
    i, r = divmod(q.numerator * unit, q.denominator)
    r *= 2
    if r > q.denominator or (r == q.denominator and i & 1):
        i += 1
    sign = "-" if i < 0 else ""
    whole, frac = divmod(abs(i), unit)
    return f"{sign}{whole}.{frac:0{digits}d}"


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def enclosure_json(e: RootEnclosure) -> dict:
    """The JSON object of an enclosure, its ends as exact ``"num/den"`` text."""
    return {"lo": _frac_str(e.interval.lo), "hi": _frac_str(e.interval.hi),
            "sign_lo": e.sign_lo, "sign_hi": e.sign_hi, "note": e.note}


def star_gap_csv(records) -> str:
    """CSV rows ``k,r_k_lo,r_k_hi,gap,estimate,abs_err`` (12-digit fixed point)."""
    lines = ["k,r_k_lo,r_k_hi,gap,estimate,abs_err"]
    for r in records:
        gap = format_fixed(r.gap) if r.gap is not None else ""
        lines.append(
            f"{r.k},{format_fixed(r.enclosure.interval.lo)},"
            f"{format_fixed(r.enclosure.interval.hi)},{gap},"
            f"{r.estimate:.12f},{r.abs_err:.12f}"
        )
    return "\n".join(lines) + "\n"
