import decimal
import functools
import math
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from domroots.atlas import (
    certified_negative_roots,
    enumerate_graphs,
    growth_check,
    root_cloud,
    root_cloud_from_graphs,
    smallest_root_table,
)
from domroots.dompoly import dom_poly_closed_form, eval_rational
from domroots.errors import DomainError, EndpointRootError
from domroots import intpoly, realroots
from domroots.intpoly import mul, sign_at
from domroots.realroots import (
    DEFAULT_TOL,
    NOTE_EXACT,
    NOTE_SIMPLE,
    NOTE_STURM,
    RationalInterval,
    bipartite_numerator_sign,
    bipartite_sign,
    count_real_roots,
    count_roots_in,
    format_fixed,
    isolate_real_roots,
    lambert_w,
    star_domination_root,
    star_gap_csv,
    star_gap_report,
    star_root,
    star_root_estimate,
    sturm_chain,
)
from domroots.witness import construct_witness, target_interval

from conftest import (bipartite_form, content_ref, exact_negative_roots, fraction_rem, mul_ref,
                      poly_add, poly_gcd, pow_, primitive_ref, star_form_sign, time_limit)


def interval(lo, hi):
    return RationalInterval(Fraction(lo), Fraction(hi))


def test_sturm_chain_textbook():
    chain = sturm_chain([-1, 0, 1])  # x^2 - 1
    assert chain.polys == ((-1, 0, 1), (0, 1), (1,))  # up to positive scaling


def test_sturm_chain_degree_one():
    assert sturm_chain([0, 1]).polys == ((0, 1), (1,))


def test_sturm_chain_collapses_multiplicity():
    # (x-1)^2 -> square-free part x - 1
    chain = sturm_chain([1, -2, 1])
    assert chain.polys == ((-1, 1), (1,))


def test_sturm_chain_zero_poly():
    with pytest.raises(DomainError):
        sturm_chain([0])


def _chain_from_squarefree_part(p):
    """The Sturm chain of the square-free part computed first, as
    ``primitive(p / gcd(p, p'))``: the reference for :func:`sturm_chain`."""
    p = intpoly.normalize(p)
    g = poly_gcd(p, intpoly.derivative(p))
    f = intpoly.primitive(intpoly.exact_div(p, g))
    if f[-1] < 0:
        f = intpoly.neg(f)
    chain = [f]
    if intpoly.degree(f) > 0:
        chain.append(intpoly.primitive(intpoly.derivative(f)))
        while intpoly.degree(chain[-1]) > 0:
            chain.append(intpoly.neg(intpoly.pseudo_rem_positive(chain[-2], chain[-1])))
    return tuple(map(tuple, chain))


_small_polys = st.lists(st.integers(-12, 12), min_size=1, max_size=7).filter(any)
_factors = st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(lambda c: c[-1] != 0)


@given(_small_polys, _factors, st.integers(0, 2))
@example([-1, 0, 1], [1, 1], 2)  # (x^2 - 1)(x + 1)^4
@example([3, 7, 5, 1], [1, 1], 0)  # already carries (x + 1)^2
def test_sturm_chain_matches_squarefree_part_first(base, factor, power):
    p = mul(base, pow_(factor, 2 * power))
    chain = sturm_chain(p)
    assert chain.polys == _chain_from_squarefree_part(p)
    if intpoly.degree(p) > 0:
        bound = intpoly.cauchy_root_bound(p)
        assert count_real_roots(chain) == count_roots_in(chain, interval(-bound, bound))


_coefficient_lists = st.lists(st.integers(-10 ** 6, 10 ** 6) | st.sampled_from([0, 1, -1]),
                              max_size=9)


@given(_coefficient_lists)
@example([])
@example([0, 0])
@example([-6, 0, 4, -10])
def test_content_and_primitive_match_the_textbook(p):
    assert intpoly.content(p) == content_ref(p)
    assert intpoly.primitive(p) == primitive_ref(p)


_wide_coefficients = (st.integers(-10 ** 6, 10 ** 6) | st.sampled_from([0, 1, -1])
                      | st.integers(-10 ** 300, 10 ** 300))


@given(st.lists(_wide_coefficients, max_size=12), st.lists(_wide_coefficients, max_size=12))
@example([], [3, 4])
@example([0, 0], [5])
@example([0], [128])  # a zero factor: the slots must still hold the other one
@example([7], [-6])
@example([1, 0, 0, -2, 0], [0, 3, 0])  # inner and trailing zeros
@example([128], [1])  # a product of 2^7 needs a second byte for its sign
@example([-(2 ** 63)] * 3, [2 ** 63, -1])
@example(list(range(-60, 61)), [-3, 2])  # long by short
@example([10 ** 300, -(10 ** 300)], [10 ** 300] * 9)
def test_mul_matches_the_schoolbook(p, q):
    assert intpoly.mul(p, q) == mul_ref(p, q)
    assert intpoly.mul(q, p) == mul_ref(p, q)


def test_mul_of_long_binomial_rows_matches_the_schoolbook():
    row = [math.comb(400, i) for i in range(401)]
    signed = [(-1) ** i * c for i, c in enumerate(row[:31])]
    assert intpoly.mul(row, signed) == mul_ref(row, signed)
    assert intpoly.mul(row, row) == [math.comb(800, i) for i in range(801)]


def _nonzero_top(coeffs):
    return st.lists(coeffs, max_size=6).flatmap(
        lambda low: coeffs.filter(bool).map(lambda top: low + [top]))


@st.composite
def pseudo_divisions(draw):
    """``(f, g)``: ``f = q g + s`` with the degree of ``s`` drawn anywhere
    below that of ``g``, so the remainder may drop several degrees, or ``f``
    drawn freely; leading coefficients of either sign."""
    coeffs = st.integers(-30, 30)
    g = draw(_nonzero_top(coeffs))
    if draw(st.booleans()):
        return draw(st.lists(coeffs, max_size=12)), g
    q = draw(_nonzero_top(coeffs))
    s = draw(st.lists(coeffs, max_size=len(g) - 1))
    return poly_add(mul(q, g), s), g


@given(pseudo_divisions())
@example(([3, 1, 2, 0, 1], [-1, 0, -2]))  # remainder x + 9/4, lc(g) < 0
@example((poly_add(mul([1, 0, 0, 1], [1, 1, 0, 0, -3]), [5]), [1, 1, 0, 0, -3]))  # remainder 5
@example((mul([2, -1, 0, 4], [7, 0, -5, 0, 3]), [7, 0, -5, 0, 3]))  # remainder 0
def test_pseudo_remainder_is_a_positive_multiple_of_the_remainder(case):
    f, g = case
    r = intpoly.pseudo_rem_positive(f, g)
    ref = fraction_rem(f, g)
    assert len(r) == len(ref)
    if ref:
        scale = r[-1] / ref[-1]
        assert scale > 0
        assert all(a == scale * b for a, b in zip(r, ref))
        assert content_ref(r) == 1


def test_count_textbook():
    chain = sturm_chain([-1, 0, 1])
    assert count_roots_in(chain, interval(-2, 0)) == 1


def test_count_k2_root():
    chain = sturm_chain([0, 2, 1])  # x^2 + 2x: roots 0 and -2
    assert count_roots_in(chain, interval(-3, -1)) == 1


def test_count_empty_interval():
    chain = sturm_chain([-1, 0, 1])
    assert count_roots_in(chain, interval(Fraction(1, 2), Fraction(1, 2))) == 0


def test_count_half_open():
    chain = sturm_chain([-1, 0, 1])
    # (lo, hi]: the root at 1 is counted when hi = 1... but 1 is an endpoint
    # root, which must be signalled distinctly
    with pytest.raises(EndpointRootError):
        count_roots_in(chain, interval(0, 1))
    assert count_roots_in(chain, interval(0, 2)) == 1


def test_isolate_k2():
    encs = isolate_real_roots([0, 2, 1], interval(-10, 1))
    assert len(encs) == 2
    near_minus2, at_zero = encs
    assert at_zero.note == NOTE_EXACT and at_zero.interval.lo == 0
    assert near_minus2.interval.lo <= -2 <= near_minus2.interval.hi
    assert near_minus2.width <= DEFAULT_TOL


def test_isolate_star2_matches_table_values():
    # roots of x^3 + 3x^2 + x: 0 and (-3 +- sqrt5)/2
    p = dom_poly_closed_form("star", 2)
    encs = isolate_real_roots(p, interval(-10, 0))
    assert len(encs) == 3
    mids = [e.midpoint for e in encs]
    assert abs(float(mids[0]) - -2.618033989) < 5e-9
    assert abs(float(mids[1]) - -0.381966011) < 5e-9
    assert encs[2].note == NOTE_EXACT and mids[2] == 0


def test_isolate_no_real_roots():
    assert isolate_real_roots([1, 0, 1], interval(-100, 100)) == []


def test_isolate_collapses_multiple_roots():
    # (x+1)^2 (x+3): two distinct roots
    p = [3, 7, 5, 1]
    encs = isolate_real_roots(p, interval(-10, 1))
    assert len(encs) == 2
    assert abs(float(encs[0].midpoint) + 3) < 1e-9
    assert abs(float(encs[1].midpoint) + 1) < 1e-9
    # the double root shows no sign change but still counts exactly one
    assert encs[0].note == NOTE_SIMPLE


def test_isolate_completeness_and_enclosure_counts():
    p = dom_poly_closed_form("complete_bipartite", 3, 3)
    chain = sturm_chain(p)
    win = interval(-20, Fraction(1, 7))
    total = count_roots_in(chain, win)
    encs = isolate_real_roots(p, win)
    assert len(encs) == total
    for e in encs:
        if e.note == NOTE_EXACT:
            continue
        assert count_roots_in(chain, e.interval) == 1
        if e.note == NOTE_SIMPLE:
            assert e.sign_lo * e.sign_hi == -1
    for a, b in zip(encs, encs[1:]):
        assert a.interval.hi < b.interval.lo


def test_isolate_nudges_endpoint_roots():
    # hi endpoint is the root -1 of x + 1; it comes back as an exact point
    encs = isolate_real_roots([1, 1], interval(-2, -1))
    assert len(encs) == 1
    assert encs[0].interval.lo <= -1 <= encs[0].interval.hi


@pytest.mark.parametrize(
    "lo, hi, roots",
    [
        # (x+1)(x+2)(x+3): a root at hi is exact, a root at lo is left out
        ("-3", "-1", [-2, -1]),
        ("-7/2", "-3/2", [-3, -2]),
        ("-2", "-1", [-1]),
        ("-4", "-3", [-3]),
        ("-3", "-2", [-2]),
        ("-2", "-2", []),
    ],
)
def test_isolate_keeps_half_open_window(lo, hi, roots):
    lo, hi = Fraction(lo), Fraction(hi)
    encs = isolate_real_roots([6, 11, 6, 1], RationalInterval(lo, hi))
    assert len(encs) == len(roots)
    for e, root in zip(encs, roots):
        assert lo < e.interval.lo <= root <= e.interval.hi <= hi
        if root == hi:
            assert e.note == NOTE_EXACT


# small integer and dyadic roots; a root drawn twice is a repeated root
dyadic = st.builds(lambda n, j: Fraction(n, 2 ** j), st.integers(-16, 4), st.integers(0, 2))


@st.composite
def isolation_cases(draw):
    roots = draw(st.lists(dyadic, min_size=1, max_size=7))
    coeffs = [1]
    for r in roots:
        coeffs = mul(coeffs, [-r.numerator, r.denominator])
    distinct = sorted(set(roots))
    point = st.sampled_from(distinct) | st.builds(
        lambda n: Fraction(n, 8), st.integers(-140, 40))
    shape = draw(st.sampled_from(("ends", "centred")))
    if shape == "ends":
        # endpoints anywhere on the 1/8 grid, roots included
        lo, hi = sorted((draw(point), draw(point)))
    else:
        # the midpoints of the left halves are r + (s - 1) d / 2, ...: the
        # root r at the first split for s = 1, the second for 3, the third for 7
        r = draw(st.sampled_from(distinct))
        d = Fraction(draw(st.integers(1, 16)), 4)
        s = draw(st.sampled_from((1, 3, 7)))
        lo, hi = r - d, r + s * d
    tol = draw(st.sampled_from((Fraction(2), Fraction(1, 2), Fraction(1, 64), DEFAULT_TOL)))
    return coeffs, distinct, lo, hi, tol


@example(([0, -2, 1], [0, 2], Fraction(0), Fraction(2), Fraction(2)))  # x(x-2), root ends
@example(([2, 3, 1], [-2, -1], Fraction(-3), Fraction(0), Fraction(2)))  # midpoint -3/2, no root
@example(([0, -1, 0, 1], [-1, 0, 1], Fraction(-7, 4), Fraction(5, 4), Fraction(2)))  # 0 inside
# x(4x - 1) and x(16x - 1): without 0 among the points the bisection avoids,
# the enclosure of the positive root would end on the deflated 0, or hold it
@example(([0, -1, 4], [0, Fraction(1, 4)], Fraction(-1), Fraction(1), Fraction(2)))
@example(([0, -1, 16], [0, Fraction(1, 16)], Fraction(-3, 4), Fraction(1, 2), Fraction(2)))
@given(isolation_cases())
def test_isolation_contract(case):
    coeffs, distinct, lo, hi, tol = case
    with time_limit(5):
        encs = isolate_real_roots(coeffs, RationalInterval(lo, hi), tol)
    assert len(encs) == sum(1 for r in distinct if lo < r <= hi)
    for a, b in zip(encs, encs[1:]):
        assert a.interval.hi < b.interval.lo
    for e in encs:
        elo, ehi = e.interval.lo, e.interval.hi
        assert lo < elo <= ehi <= hi
        inside = [r for r in distinct if elo <= r <= ehi]
        assert len(inside) == 1
        if e.note == NOTE_EXACT:
            assert elo == ehi == inside[0]
            continue
        assert e.note in (NOTE_SIMPLE, NOTE_STURM)
        assert 0 < e.width <= tol
        assert (e.sign_lo, e.sign_hi) == (sign_at(coeffs, elo), sign_at(coeffs, ehi))
        if e.note == NOTE_SIMPLE:
            assert e.sign_lo * e.sign_hi == -1


def test_exact_isolation_midpoint_root_pinned():
    # x^5 (x + 2)(x^2 + 3x + 1): the third midpoint in the bisection of the
    # Cauchy window (-8, 8) is the root -2, which comes back exact
    with time_limit(5):
        got = exact_negative_roots((0, 0, 0, 0, 0, 2, 7, 5, 1))
    assert got == [
        (Fraction(-2811092591, 1073741824), Fraction(-1405546295, 536870912)),
        (Fraction(-2), Fraction(-2)),
        (Fraction(-205066441, 536870912), Fraction(-410132881, 1073741824)),
        (Fraction(0), Fraction(0)),
    ]


def test_interval_validation():
    with pytest.raises(DomainError):
        RationalInterval(Fraction(1), Fraction(0))
    with pytest.raises(DomainError):
        isolate_real_roots([0, 1], interval(-1, 1), tol=Fraction(0))


# every public route to a bisection, called with the tolerance ``tol``
_TOLERANT_CALLS = {
    "isolate_real_roots": lambda tol: isolate_real_roots([0, 1, 3, 1], interval(-4, 4), tol),
    "certified_negative_roots": lambda tol: certified_negative_roots([0, 1, 3, 1], tol),
    "root_cloud": lambda tol: list(root_cloud(3, tol)),
    "root_cloud_from_graphs": lambda tol: list(root_cloud_from_graphs(enumerate_graphs(3), tol)),
    "smallest_root_table": lambda tol: smallest_root_table(3, tol),
    "star_root": lambda tol: star_root(5, tol),
    "star_domination_root": lambda tol: star_domination_root(5, tol),
    "star_gap_report": lambda tol: star_gap_report(3, tol),
    "growth_check": lambda tol: growth_check(4, tol),
    "construct_witness": lambda tol: construct_witness(-3, Fraction(1, 10), tol=tol),
}


@pytest.mark.parametrize("entry", sorted(_TOLERANT_CALLS))
@pytest.mark.parametrize("tol", [0, Fraction(-1, 1000)])
def test_tolerance_must_be_positive(entry, tol):
    # a bisection to a width of at most tol <= 0 never ends, and a route
    # that skips it would widen each float root backwards, to lo > hi
    with time_limit(5), pytest.raises(DomainError, match="tolerance must be positive"):
        _TOLERANT_CALLS[entry](tol)


# every public entry point that reads a rational, handed the text ``text``
_RATIONAL_READERS = {
    "construct_witness(z)": lambda text: construct_witness(text, Fraction(1, 10)),
    "construct_witness(eps)": lambda text: construct_witness(-3, text),
    "target_interval": lambda text: target_interval(text, Fraction(1, 10), 3),
    "RationalInterval": lambda text: RationalInterval(text, 1),
    "isolate_real_roots": lambda text: isolate_real_roots([0, 1, 3, 1], interval(-4, 4), text),
    "star_root": lambda text: star_root(5, tol=text),
    "format_fixed": lambda text: format_fixed(text),
    "eval_rational": lambda text: eval_rational(dom_poly_closed_form("star", 2), text),
}


@pytest.mark.parametrize("entry", sorted(_RATIONAL_READERS))
@pytest.mark.parametrize("text", ["abc", "1/0", "", "1/2/3"])
def test_malformed_rational_text_is_a_domain_error(entry, text):
    # Fraction raises ValueError or ZeroDivisionError for these; the package
    # reports every bad input as a DomainError
    with pytest.raises(DomainError, match=f"not a rational number: {text!r}"):
        _RATIONAL_READERS[entry](text)


# f(w) = w e^w inverse checks
def test_lambert_w_values():
    assert lambert_w(0.0) == 0.0
    assert abs(lambert_w(math.e) - 1.0) < 1e-12
    assert abs(lambert_w(1.0) - 0.5671432904) < 1e-10  # the omega constant


def test_lambert_w_residuals():
    for x in (0.5, 1.0, math.e, 10.0, 1e6):
        w = lambert_w(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)


def test_lambert_w_negative_rejected():
    with pytest.raises(DomainError):
        lambert_w(-0.1)


def test_lambert_w_against_mpmath():
    for x in (0.1, 0.9, 1.5, 2.0, 5.0, 100.0, 1e4):
        assert abs(lambert_w(x) - float(mpmath.lambertw(x))) < 1e-10


def test_star_root_k1_exact():
    enc = star_root(1)
    assert enc.note == NOTE_EXACT
    assert enc.interval.lo == enc.interval.hi == 2


@pytest.mark.parametrize(
    "k,value",
    [(2, 2.618033989), (3, 3.147899036), (4, 3.629658127), (8, 5.309330065)],
)
def test_star_root_published_values(k, value):
    enc = star_root(k)
    assert enc.width <= DEFAULT_TOL
    assert abs(float(enc.midpoint) - value) < 5e-9


def test_star_root_monotone_disjoint():
    prev = star_root(1)
    for k in range(2, 31):
        cur = star_root(k)
        assert prev.interval.hi < cur.interval.lo
        prev = cur


def star_shifted_polynomial(k: int) -> list:
    """Coefficients of ``g(R) = R(R-1)^k - R^k``: ``R`` is a root of ``g``
    in (1, oo) exactly when ``-R`` is a real root of the star's domination
    polynomial."""
    return poly_add(intpoly.mul([0, 1], pow_([-1, 1], k)), [0] * k + [-1])


def test_star_root_sign_convention():
    enc = star_root(5)
    assert enc.sign_lo == -1 and enc.sign_hi == +1
    g = star_shifted_polynomial(5)
    assert sign_at(g, enc.interval.lo) == -1
    assert sign_at(g, enc.interval.hi) == +1


def test_star_shifted_polynomial_small():
    # g_1 = R(R-1) - R = R^2 - 2R
    assert star_shifted_polynomial(1) == [0, -2, 1]


def test_star_domination_root_matches_isolation():
    for k in (2, 3, 5, 8):
        neg = star_domination_root(k)
        p = dom_poly_closed_form("star", k)
        cap = Fraction(-(k + 2) * 4)
        encs = isolate_real_roots(p, RationalInterval(cap, Fraction(-1)))
        assert len(encs) == 1
        assert abs(encs[0].midpoint - neg.midpoint) <= DEFAULT_TOL
        # and the stored signs describe the star polynomial itself
        assert sign_at(list(p.coeffs), neg.interval.lo) == neg.sign_lo
        assert sign_at(list(p.coeffs), neg.interval.hi) == neg.sign_hi


def test_star_root_estimate_close():
    assert abs(star_root_estimate(2) - 2.618033989) < 0.5
    # relative error decays with k
    e50 = abs(star_root_estimate(50) - float(star_root(50).midpoint)) / 50
    e200 = abs(star_root_estimate(200) - float(star_root(200).midpoint)) / 200
    assert e200 < e50


@functools.cache
def _undecidable_star_points():
    """Both ends of ``star_root(k, 10^-40)`` for three ``k`` as star-form
    points ``(k, -num, den)``: that close to a root the first working
    precision cannot decide."""
    points = []
    for k in (150, 400, 1000):
        enc = star_root(k, Fraction(1, 10 ** 40))
        points += [(k, -q.numerator, q.denominator) for q in (enc.interval.lo, enc.interval.hi)]
    return tuple(points)


@st.composite
def star_points(draw):
    """``(k, u, v)`` with the integer on both sides of the kernel's exact
    cutoff; half of them next to the star root ``-r_k``, where the terms
    nearly cancel."""
    k = draw(st.integers(1, 2000))
    bits = draw(st.integers(1, 120))
    v = draw(st.integers(1, 2 ** bits))
    if draw(st.booleans()):
        u = -round(star_root_estimate(k) * v) + draw(st.integers(-3, 3))
    else:
        u = draw(st.integers(-(2 ** bits), 2 ** bits))
    return k, u, v


def _in_ball(value, ball) -> bool:
    """Whether ``value`` lies within ``r 2^e`` of ``m 2^e``."""
    m, r, e = ball
    if e >= 0:
        return abs(value - (m << e)) <= r << e
    return abs((value << -e) - m) <= r


@example((1, -2, 1))  # k = 1: the root -2
@example((1, -2 * 3 ** 80, 3 ** 80))
@example((5000, 0, 3 ** 80))  # u = 0
@example((5000, -(3 ** 80), 3 ** 80))  # u + v = 0: the first term is 0
@given(star_points() | st.integers(0, 5).map(lambda i: _undecidable_star_points()[i]))
def test_star_sign_is_the_integer_sign(point):
    k, u, v = point
    exact = star_form_sign(k, u, v)
    assert bipartite_sign((1, k), u, v) == exact
    if u:
        value = u * (u + v) ** k + u ** k * v
        assert _in_ball(value, realroots._numerator_ball(1, k, u, v, realroots._START_BITS))


def test_star_sign_doubles_the_precision_next_to_a_root():
    # the property above draws these points; here the ball at the first
    # working precision holds 0 for every one of them, and the kernel still
    # gives the integer's sign
    for k, u, v in _undecidable_star_points():
        m, r, _ = realroots._numerator_ball(1, k, u, v, realroots._START_BITS)
        assert abs(m) <= r
        assert bipartite_sign((1, k), u, v) == star_form_sign(k, u, v) != 0


@functools.cache
def _family_root(sides) -> mpmath.mpf:
    """The root of ``D(K_{a,b})`` the witness search uses, to 600 bits by
    bisection: left of -2 for a star, in (-2, -1) for ``K_{2,l}`` and in
    (-1, -1/2) for ``K_{k,k}`` (odd ``l, k >= 3``).  For odd ``3 <= a < b``
    it is a root left of -2, where ``D`` changes sign between -2 and a
    point far enough left."""
    a, b = sides
    with mpmath.workprec(600):
        def f(x):
            return ((1 + x) ** a - 1) * ((1 + x) ** b - 1) + x ** a + x ** b
        if a == 1:
            lo, hi = -star_root_estimate(b) - 2, -2 - mpmath.mpf(2) ** -40
        elif a == 2:
            lo, hi = -2, -1 - mpmath.mpf(2) ** -40
        elif a == b:
            lo, hi = -1 + mpmath.mpf(2) ** -40, mpmath.mpf(-1) / 2
        else:
            lo, hi = -4, -2
            while mpmath.sign(f(lo)) == mpmath.sign(f(hi)):
                lo *= 2
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        ref = mpmath.sign(f(lo))
        assert ref * mpmath.sign(f(hi)) < 0
        for _ in range(620):
            mid = (lo + hi) / 2
            if mpmath.sign(f(mid)) == ref:
                lo = mid
            else:
                hi = mid
        return lo


@st.composite
def family_points(draw):
    """``(sides, u, v)`` for a star, ``K_{2,l}``, ``K_{k,k}`` or ``K_{a,b}``
    with odd ``3 <= a <= 13 < b``: ``u/v`` within a few ``1/v`` of the
    family's root, ``v`` up to 400 bits; or, a quarter of the time, any
    ``u`` of that size."""
    kind = draw(st.sampled_from(("star", "K2l", "Kkk", "Kab")))
    if kind == "star":
        sides = (1, draw(st.integers(2, 2000)))
    elif kind == "K2l":
        sides = (2, draw(st.integers(1, 500)) * 2 + 1)
    elif kind == "Kkk":
        sides = (k := draw(st.integers(1, 120)) * 2 + 1, k)
    else:
        sides = (draw(st.integers(1, 6)) * 2 + 1, draw(st.integers(14, 300)))
    bits = draw(st.integers(8, 400))
    v = draw(st.integers(2 ** (bits - 1), 2 ** bits))
    if draw(st.integers(0, 3)):
        with mpmath.workprec(bits + 64):
            u = int(mpmath.nint(_family_root(sides) * v)) + draw(st.integers(-3, 3))
    else:
        u = draw(st.integers(-(2 ** bits), 2 ** bits))
    return sides, u, v


@example(((1, 1), -2 * 5 ** 90, 5 ** 90))  # -2 is a root of K_{1,1}
@example(((2, 2), -2 * 5 ** 90, 5 ** 90))  # D(K_{2,2}, -2) = 8
@example(((3, 3), -(5 ** 90), 5 ** 90))  # u + v = 0
@given(family_points())
def test_bipartite_sign_is_the_integer_sign(point):
    # the kernel's sign is the integer's, and at every working precision
    # its ball holds the integer
    sides, u, v = point
    value = bipartite_form(sides, u, v)
    assert bipartite_sign(sides, u, v) == (value > 0) - (value < 0)
    assert bipartite_sign(sides[::-1], u, v) == (value > 0) - (value < 0)
    if u:
        for prec in range(2, 420, 6):
            assert _in_ball(value, realroots._numerator_ball(*sides, u, v, prec)), prec


@example(((1, 1), -2 * 5 ** 90, 5 ** 90))  # the integer is 0
@example(((3, 3), -(5 ** 90), 5 ** 90))  # u + v = 0
@example(((1, 3000), 0, 5 ** 90))  # u = 0
@given(family_points())
def test_numerator_sign_is_the_integer_sign(point):
    # ints below the crossover, exact decimal above it: both expansions give
    # the integer's sign, each forced by moving the crossover
    sides, u, v = point
    value = bipartite_form(sides, u, v)
    for crossover in (0, 10 ** 12):
        with mock.patch.object(realroots, "_DECIMAL_BITS", crossover):
            assert bipartite_numerator_sign(sides, u, v) == (value > 0) - (value < 0)
            assert bipartite_numerator_sign(sides[::-1], u, v) == (value > 0) - (value < 0)


def test_numerator_sign_traps_a_rounded_decimal(monkeypatch):
    # an exact context that could round raises; it never gives a sign
    if realroots._decimal is None:
        pytest.skip("the C decimal module is not built")
    rounding = SimpleNamespace(**{**vars(realroots._decimal), "MAX_PREC": 30})
    monkeypatch.setattr(realroots, "_decimal", rounding)
    monkeypatch.setattr(realroots, "_DECIMAL_BITS", 0)
    with pytest.raises(decimal.DecimalException):
        bipartite_numerator_sign((1, 50), -3 * 10 ** 10, 10 ** 10)


def test_gap_report_first_rows():
    recs = star_gap_report(3)
    assert [r.k for r in recs] == [1, 2, 3]
    assert abs(float(recs[0].gap) - 0.618034) < 1e-6
    assert recs[-1].gap is None
    assert all(r.gap is None or r.gap > 0 for r in recs)


def test_gap_report_requires_two():
    with pytest.raises(DomainError):
        star_gap_report(1)


def test_gap_csv_format():
    text = star_gap_csv(star_gap_report(2))
    lines = text.strip().split("\n")
    assert lines[0] == "k,r_k_lo,r_k_hi,gap,estimate,abs_err"
    assert lines[1].startswith("1,2.000000000000,2.000000000000,0.618033988")
    assert lines[2].endswith(",")  is False
    assert lines[2].split(",")[3] == ""  # the last row has no gap


def test_format_fixed():
    assert format_fixed(Fraction(-2)) == "-2.000000000000"
    assert format_fixed(Fraction(1, 3), 6) == "0.333333"
    assert format_fixed(Fraction(-1, 8), 3) == "-0.125"
    # half-unit ties in the last digit round to even
    half = Fraction(1, 2 * 10 ** 12)
    assert format_fixed(half) == "0.000000000000"
    assert format_fixed(3 * half) == "0.000000000002"
    assert format_fixed(5 * half) == "0.000000000002"
    assert format_fixed(-half) == "0.000000000000"
    assert format_fixed(-3 * half) == "-0.000000000002"
    assert format_fixed(-5 * half) == "-0.000000000002"
    assert format_fixed(Fraction(7, 2) + half) == "3.500000000000"
    assert format_fixed(Fraction(-7, 2) - 3 * half) == "-3.500000000002"


def _rounded_fixed(q, digits):
    i = round(q * 10 ** digits)
    whole, frac = divmod(abs(i), 10 ** digits)
    return f"{'-' if i < 0 else ''}{whole}.{frac:0{digits}d}"


@given(st.fractions() | st.builds(lambda k, d: Fraction(2 * k + 1, 2 * 10 ** d),
                                  st.integers(-10 ** 15, 10 ** 15), st.integers(0, 14)),
       st.integers(0, 14))
def test_format_fixed_rounds_like_round(q, digits):
    assert format_fixed(q, digits) == _rounded_fixed(q, digits)
