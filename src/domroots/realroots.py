"""Certified real-root counting, isolation and refinement.

All certification is exact: Sturm chains over the integers (with primitive
reduction after every Euclidean step), interval endpoints as rationals, and
sign evaluations on homogenised integer forms.  The number of all distinct
real roots comes from the chain's leading signs alone
(:func:`count_real_roots`).  :func:`bipartite_numerator` owns the integer
``v^(a+b) D(K_{a,b}, u/v)`` behind every star root and witness, and one
kernel, :func:`bipartite_sign`, decides its sign: midpoint-radius balls of
integers at a working precision that doubles until the ball excludes 0,
with that integer once it is no more work.  Star roots are bisected on
``D(K_{1,k})`` itself.  Binary floating point appears only in
:func:`lambert_w` / :func:`star_root_estimate`, which serve as search seeds
and reporting checks, never as evidence.

Counting convention: an interval ``(lo, hi]`` is half-open on the left, so a
root exactly at ``hi`` is counted and a root exactly at ``lo`` is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import attrgetter, ne
from typing import TYPE_CHECKING, Optional, Sequence

from . import intpoly
from .errors import DomainError, EndpointRootError, InternalInvariantError

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
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
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
    midpoint that is the root comes back as ``(mid, mid)``.  The root is not
    in ``avoid``, so every point there is bisected off in finitely many
    steps.  An end that may itself be a root must be named in ``avoid``: the
    ends are never evaluated.
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
    lo, hi = interval.lo, interval.hi
    results = []
    t0 = intpoly.trailing_zeros(coeffs)
    work = coeffs[t0:] if t0 else coeffs
    if t0 and lo < 0 <= hi:
        results.append(_exact_enclosure(Fraction(0)))
    if intpoly.degree(work) < 1 or lo == hi:
        return results
    chain = sturm_chain(work)
    if intpoly.sign_at(chain.squarefree, hi) == 0:
        results.append(_exact_enclosure(hi))
    deflated = (Fraction(0),) if t0 else ()
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


def bipartite_numerator(sides: tuple, u: int, v: int) -> int:
    """``v^(a+b)`` times ``D(K_{a,b})`` at ``u/v``, for ``sides = (a, b)``,
    which for ``v > 0`` has the value's sign.  The short side is expanded
    first (:func:`_short_side`): a star takes two long powers, ``K_{2,l}``
    three, and ``K_{k,k}`` is ``(w^k - v^k)^2 + 2 u^k v^k``, ``w = u + v``."""
    a, b = sorted(sides)
    w = u + v
    if a == b:
        va = v ** a
        return (w ** a - va) ** 2 + 2 * u ** a * va
    va, d, c = _short_side(a, u, v)
    return va * u ** b + (d * w ** b if d else 0) + (c * v ** b if c else 0)


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
    is expanded instead (:func:`bipartite_numerator`), so the answer is
    always the integer's sign."""
    if not u:
        return 0  # x = 0 is a root of every domination polynomial
    a, b = sorted(sides)
    size = (a + b) * (max(-u if u < 0 else u, v).bit_length() + 1)
    steps = (2 if a == 1 else 3) * b.bit_length()
    prec = _START_BITS
    while size > prec * steps:
        m, r, _ = _numerator_ball(a, b, u, v, prec)
        if abs(m) > r:
            return (m > 0) - (m < 0)
        prec *= 2
    val = bipartite_numerator((a, b), u, v)
    return (val > 0) - (val < 0)


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
