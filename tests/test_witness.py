import dataclasses
import decimal
import functools
import json
import math
import random
import re
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from domroots import cli, intpoly, realroots, witness
from domroots.dompoly import compose_with_complete, dom_poly_bruteforce, eval_rational
from domroots.errors import BudgetExhaustedError, CapacityError, DomainError, EndpointRootError
from domroots.graph import substitute_complete
from domroots.realroots import (
    DEFAULT_TOL,
    NOTE_EXACT,
    NOTE_SIMPLE,
    NOTE_STURM,
    RationalInterval,
    RootEnclosure,
    _exact_enclosure,
    bipartite_numerator_sign,
    count_roots_in,
    sturm_chain,
)
from domroots.witness import (
    CASE_11,
    CASE_12,
    CASE_2,
    CASE_EXACT,
    FAMILY_EXACT_K2,
    FAMILY_K2_ELL,
    FAMILY_KKK,
    FAMILY_STAR,
    SearchBudget,
    WitnessCertificate,
    certificate_from_json,
    certificate_to_json,
    construct_witness,
    family_graph,
    family_polynomial,
    target_interval,
    verify_certificate,
)

from conftest import bipartite_form, exact_witness, poly_gcd, simplest_ref


def F(x):
    return Fraction(x)


def test_target_interval_identity():
    i = target_interval(F("-1.5"), F("0.1"), 1)
    assert (i.lo, i.hi) == (F("-1.6"), F("-1.4"))


def test_target_interval_cubed():
    i = target_interval(F("-1.5"), F("0.1"), 3)
    assert (i.lo, i.hi) == (F("-152/125"), F("-133/125"))  # (-1.216, -1.064)


def test_target_interval_case2_widening_example():
    i = target_interval(F(-3), F("0.5"), 3)
    assert (i.lo, i.hi) == (F("-133/8"), F("-35/8"))  # (-16.625, -4.375)


def test_target_interval_rejects_even_m():
    with pytest.raises(DomainError):
        target_interval(F(-1), F("0.1"), 2)


def test_target_interval_rejects_bad_eps():
    with pytest.raises(DomainError):
        target_interval(F(-1), F(0), 3)


def test_target_interval_monotone_and_widening():
    # lo < hi always for odd m; widths grow without bound left of -2
    for z in (F("-2.5"), F(-5), F(-10)):
        prev = None
        for m in (1, 3, 5):
            i = target_interval(z, F("0.1"), m)
            assert i.lo < i.hi
            if prev is not None:
                assert i.width > prev
            prev = i.width


def test_exact_shortcut_zero():
    cert = construct_witness(F(0), F("0.5"))
    assert cert.case_tag == CASE_EXACT
    assert cert.family_kind == "exact_K2"
    assert cert.enclosure.note == NOTE_EXACT
    assert cert.enclosure.interval.lo == 0
    assert verify_certificate(cert).ok


def test_exact_shortcut_minus_two():
    cert = construct_witness(F(-2), F("0.05"))
    assert cert.enclosure.interval.lo == -2
    assert verify_certificate(cert).ok


def test_witness_case_11():
    cert = construct_witness(F("-1.5"), F("0.05"))
    assert cert.case_tag == CASE_11
    assert cert.family_kind == "K_2_ell"
    assert cert.family_param % 2 == 1
    assert cert.m % 2 == 1
    enc = cert.enclosure
    assert F("-1.55") < enc.interval.lo and enc.interval.hi < F("-1.45")
    assert verify_certificate(cert).ok


def test_witness_small_enough_to_bruteforce():
    # K_{3,3}[K_1] has 6 vertices: the composed polynomial must equal the
    # brute-force domination polynomial of the substituted graph
    cert = construct_witness(F("-0.75"), F("0.1"))
    g = family_graph(cert.family_kind, cert.family_param)
    assert g.n * cert.m <= 20
    composed = compose_with_complete(family_polynomial(cert.family_kind, cert.family_param), cert.m)
    direct = dom_poly_bruteforce(substitute_complete(g, cert.m))
    assert composed.coeffs == direct.coeffs
    assert verify_certificate(cert).ok


def test_witness_case_2_star_sequence():
    cert = construct_witness(F(-7), F("0.5"))
    assert cert.case_tag == CASE_2
    assert cert.family_kind == "star"
    # a star root certified near 7 exists (r_12 is the first above 6.5)
    assert cert.m == 1 and cert.family_param == 12
    enc = cert.enclosure
    assert F("-7.5") < enc.interval.lo and enc.interval.hi < F("-6.5")
    # 13 vertices: cross-validate against the actual graph
    g = family_graph(cert.family_kind, cert.family_param)
    composed = compose_with_complete(family_polynomial(cert.family_kind, cert.family_param), cert.m)
    assert composed.coeffs == dom_poly_bruteforce(substitute_complete(g, 1)).coeffs
    assert verify_certificate(cert).ok


def test_witness_straddling_minus_one_clips_left():
    cert = construct_witness(F(-1), F("0.1"))
    assert cert.case_tag == CASE_11
    assert cert.enclosure.interval.hi < -1
    assert verify_certificate(cert).ok


def test_window_straddling_minus_one_searches_its_right_part():
    # (-1 - 10^-5, -1/2): the left part (-1 - 10^-5, -1) exhausts the
    # default budget after 16,690 cells, and the right part (-1, -1/2) then
    # certifies with K_{3,3}
    z, eps = Fraction(-3, 4) - Fraction(1, 2 * 10 ** 5), Fraction(1, 4) + Fraction(1, 2 * 10 ** 5)
    with pytest.raises(BudgetExhaustedError) as exc:
        construct_witness(-1 - Fraction(1, 2 * 10 ** 5), Fraction(1, 2 * 10 ** 5))
    assert exc.value.frontier["cells_tested"] == 16690
    cert = construct_witness(z, eps)
    assert (cert.family_kind, cert.family_param, cert.m, cert.case_tag) == (FAMILY_KKK, 3, 1,
                                                                           CASE_12)
    assert -1 < cert.enclosure.interval.lo
    assert verify_certificate(cert).ok


def test_straddling_window_frontier_counts_both_parts():
    # (-1 - 10^-5, -1 + 10^-5): the left part exhausts after 16,690 cells
    # and the right one after 10,021; the frontier joins the two case tags
    with pytest.raises(BudgetExhaustedError) as exc:
        construct_witness(F(-1), Fraction(1, 10 ** 5))
    assert exc.value.frontier == {
        "case": f"{CASE_11}+{CASE_12}", "cells_tested": 16690 + 10021,
        "max_m": 41, "max_param": 5001, "max_degree": 20000,
    }
    assert f"explored 26711 cells for case {CASE_11}+{CASE_12}" in str(exc.value)


def test_witness_determinism():
    a = construct_witness(F("-1.9"), F("0.01"))
    b = construct_witness(F("-1.9"), F("0.01"))
    assert a == b


def test_witness_rejects_positive_target():
    with pytest.raises(DomainError):
        construct_witness(F(1), F("0.1"))


def test_witness_rejects_bad_eps():
    with pytest.raises(DomainError):
        construct_witness(F(-1), F(0))


def test_budget_exhaustion_carries_frontier():
    tiny = SearchBudget(max_m=1, max_param=3, max_degree=10)
    with pytest.raises(BudgetExhaustedError) as exc:
        construct_witness(F("-9.37"), F("1/1000"), tiny)
    frontier = exc.value.frontier
    assert frontier["max_param"] == 3
    assert frontier["cells_tested"] == 3
    assert "nonexistence" in str(exc.value)


def test_default_budget_reach_at_one_hundredth():
    # at eps = 1/100 the m=3 stars within the default budget reach z = -10
    # (4792 leaves) but not z = -10.5, where no cell of the budget hits
    cert = construct_witness(F(-10), F("1/100"))
    assert (cert.family_kind, cert.family_param, cert.m) == (FAMILY_STAR, 4792, 3)
    assert cert.composed_degree == 14379
    assert verify_certificate(cert).ok
    with pytest.raises(BudgetExhaustedError) as exc:
        construct_witness(F("-10.5"), F("1/100"))
    assert exc.value.frontier["cells_tested"] == 33390


def test_fine_tolerance_is_not_a_false_exhaustion():
    # about 428 halvings take the window's width 1/10 below 10^-130; the
    # search certifies instead of reporting an exhausted budget
    tol = Fraction(1, 10 ** 130)
    budget = SearchBudget(max_m=5, max_param=41, max_degree=400)
    cert = construct_witness(Fraction(-3, 2), Fraction(1, 20), budget, tol=tol)
    assert (cert.family_kind, cert.family_param, cert.m) == (FAMILY_K2_ELL, 7, 3)
    assert 0 < cert.enclosure.width <= tol
    assert verify_certificate(cert).ok


def _counted_passes(monkeypatch) -> list:
    """Wrap the numerator's expansion; the list collects the working
    precision of every pass in balls and whether its ball decided."""
    passes = []
    expand = realroots._expand

    def counted(a, b, u, v, ar):
        n = expand(a, b, u, v, ar)
        if isinstance(ar, realroots._Balls):
            m, r, _ = n
            passes.append((ar.prec, abs(m) > r))
        return n

    monkeypatch.setattr(realroots, "_expand", counted)
    return passes


def _integer_sign(sides, u, v):
    return _sign(bipartite_form(sides, u, v))


def test_fine_tolerance_star_steps_double_the_precision(monkeypatch):
    # past about 40 halvings the point is too close to the root for the
    # first working precision, and the kernel doubles it; the certificate is
    # the one the plain integer gives
    passes = _counted_passes(monkeypatch)
    tol = Fraction(1, 10 ** 130)
    cert = construct_witness(F(-3), F("1/100"), tol=tol)
    assert (cert.family_kind, cert.family_param, cert.m) == (FAMILY_STAR, 19, 3)
    assert 0 < cert.enclosure.width <= tol
    assert verify_certificate(cert).ok
    assert max(prec for prec, _ in passes) > realroots._START_BITS
    assert not all(decided for _, decided in passes)
    monkeypatch.setattr(witness, "bipartite_sign", _integer_sign)
    assert construct_witness(F(-3), F("1/100"), tol=tol) == cert


def test_fine_tolerance_deep_star_builds():
    # 4,792 leaves at m = 3: every bisection step takes a star sign of
    # integers of millions of bits, which the balls decide at a few hundred.
    # The verifier's decimal intervals decide both end signs, on numerators
    # of about 3.2e6 bits each, in about 0.4 ms on a 2-core host (expanding
    # them took about 0.2 s in exact decimal)
    tol = Fraction(1, 10 ** 130)
    t0 = time.perf_counter()
    cert = construct_witness(F(-10), F("1/100"), tol=tol)
    t1 = time.perf_counter()
    assert (cert.family_kind, cert.family_param, cert.m) == (FAMILY_STAR, 4792, 3)
    assert 0 < cert.enclosure.width <= tol
    assert t1 - t0 < 2.0, f"search took {t1 - t0:.1f} s"
    assert verify_certificate(cert).ok
    t2 = time.perf_counter()
    assert t2 - t1 < 10.0, f"verification took {t2 - t1:.1f} s"


# the acceptance grid (it holds the (-10, 1/100) anchor) and the K_75,75 anchor
_GRID = [(z, e) for z in ("-0.25", "-0.75", "-1.25", "-1.5", "-1.9", "-2.5", "-5", "-10")
         for e in ("1/10", "1/100")] + [("-0.8", "1/100")]


def test_ball_signs_give_the_exact_certificates(monkeypatch):
    def output(z, e):
        cert = construct_witness(F(z), F(e))
        return certificate_to_json(cert) + "\n" + str(verify_certificate(cert))

    passes = _counted_passes(monkeypatch)
    kernel = [output(z, e) for z, e in _GRID]
    assert any(decided for _, decided in passes)  # some sign was decided by balls
    monkeypatch.setattr(witness, "bipartite_sign", _integer_sign)
    assert [output(z, e) for z, e in _GRID] == kernel


def test_without_the_c_decimal_module_the_numerators_stay_ints(monkeypatch):
    # at tol = 10^-15 the (-10, 1/100) cell verifies two numerators past the
    # crossover, in exact decimal (their size estimates are 426,577 and
    # 431,370 bits; at the default tolerance 292,373 and 321,131, below it);
    # without _decimal they are ints, and every certificate and report keeps
    # its bytes.  The caller's decimal context is untouched.  Only the exact
    # expansions count: the sign kernel's balls and the verifier's intervals
    # are not exact, and the intervals, which decide both of those signs,
    # decide none here, so that the verifier expands them exactly
    queries = _GRID + [("-10", "1/100", "1e-15")]

    def output(z, e, tol=DEFAULT_TOL):
        cert = construct_witness(F(z), F(e), tol=F(tol))
        return certificate_to_json(cert) + "\n" + str(verify_certificate(cert))

    arithmetics = []

    def recorder(write):
        def recorded(a, b, u, v, ar):
            arithmetics.append(ar)
            return write(a, b, u, v, ar)
        return recorded

    def exact():
        return [ar for ar in arithmetics
                if not isinstance(ar, (realroots._Balls, witness._Bounds))]

    # the search's writer, and the verifier's, whose are the decimal expansions
    monkeypatch.setattr(realroots, "_expand", recorder(realroots._expand))
    monkeypatch.setattr(witness, "_closed_form", recorder(witness._closed_form))
    monkeypatch.setattr(witness, "_bounds_sign", lambda a, b, u, v: 0)
    context = decimal.getcontext()
    prec, traps = context.prec, dict(context.traps)
    with_decimal = [output(*q) for q in queries]
    assert decimal.getcontext() is context
    assert (context.prec, dict(context.traps)) == (prec, traps)
    assert any(ar is not realroots._Ints for ar in exact())
    arithmetics.clear()
    monkeypatch.setattr(realroots, "_decimal", None)
    assert [output(*q) for q in queries] == with_decimal
    assert exact() and all(ar is realroots._Ints for ar in exact())


def _verify_certs():
    """The (-10, 1/100) star, the (-5, 1/10) star and the (-0.8, 1/100)
    ``K_{75,75}``: composed degrees 14,379, 8 and 450."""
    certs = [construct_witness(F(z), F(e)) for z, e in (("-10", "1/100"), ("-5", "1/10"),
                                                        ("-0.8", "1/100"))]
    assert [c.family_kind for c in certs] == [FAMILY_STAR, FAMILY_STAR, FAMILY_KKK]
    assert [c.composed_degree for c in certs] == [14379, 8, 450]
    return certs


def test_verify_certificate_never_calls_the_star_kernel(monkeypatch):
    # nor, at any degree, the search's writer of the numerator or a dense
    # composition
    certs = _verify_certs()
    assert all(c.composed_degree > 120 for c in certs[::2])

    def refuse(*args):
        raise AssertionError("the verifier called the sign kernel or the search's writer")

    for module, name in ((witness, "bipartite_sign"), (realroots, "bipartite_sign"),
                         (realroots, "_Balls"), (realroots, "_expand"),
                         (witness, "compose_with_complete"), (intpoly, "sign_at")):
        monkeypatch.setattr(module, name, refuse)
    assert all(verify_certificate(c).ok for c in certs)


def test_verify_rejects_flipped_signs_that_a_negated_search_writer_would_confirm(monkeypatch):
    # a slip in the search's writer that negates its exact integers, and a
    # certificate whose stored end signs agree with the slip: the verifier
    # writes its own numerator at every degree, so it rejects all three
    certs = _verify_certs()
    expand = realroots._expand

    def negated(a, b, u, v, ar):
        n = expand(a, b, u, v, ar)
        return n if isinstance(ar, realroots._Balls) else -n

    monkeypatch.setattr(realroots, "_expand", negated)
    for cert in certs:
        enc = cert.enclosure
        flipped = dataclasses.replace(cert, enclosure=dataclasses.replace(
            enc, sign_lo=-enc.sign_lo, sign_hi=-enc.sign_hi))
        failed = [c.name for c in verify_certificate(flipped).checks if not c.passed]
        assert failed == ["endpoint_certification"], cert.composed_degree


@settings(max_examples=200, deadline=None)
@given(a=st.integers(1, 300), b=st.integers(1, 300), u=st.integers(),
       v=st.integers(min_value=1))
@example(a=300, b=300, u=-(3 ** 450), v=2 ** 700 + 1)
def test_the_verifiers_writer_is_the_searchs_integer(a, b, u, v):
    a, b = sorted((a, b))
    sides = (a, b)
    assert witness._closed_form(a, b, u, v, realroots._Ints) == realroots._expand(
        a, b, u, v, realroots._Ints)
    if realroots._numerator_bits(a, b, u, v) > realroots._DECIMAL_BITS:
        # both signs from exact decimal
        assert bipartite_numerator_sign(sides, u, v, witness._closed_form) == (
            bipartite_numerator_sign(sides, u, v))


@settings(max_examples=200, deadline=None)
@given(a=st.integers(1, 300), b=st.integers(1, 300), u=st.integers(),
       v=st.integers(min_value=1), digits=st.integers(3, 40))
# the left end of the (-10, 1/100) star, 4,792 leaves at m = 3, mapped by
# _composed: a numerator of 285,467 bits
@example(a=1, b=4792, u=-854080992552997827, v=1173707204019904, digits=39)
def test_the_verifiers_intervals_hold_the_integer(a, b, u, v, digits):
    # at a few digits nearly every operation rounds; the powers are checked
    # on their own too, since a later product would hide an interval whose
    # ends came out swapped
    a, b = sorted((a, b))
    bounds = witness._Bounds(digits)
    lo, hi = witness._closed_form(a, b, u, v, bounds)
    assert lo <= witness._closed_form(a, b, u, v, realroots._Ints) <= hi
    for x, n in ((u, b), (u + v, a)):
        lo, hi = bounds.power(x, n)
        assert lo <= x ** n <= hi


def test_the_intervals_decide_deep_stars_and_an_exact_root_stays_exact(monkeypatch):
    # the (-10, 1/100) and z = -20 stars verify with no exact expansion in
    # the verifier; the exact root -2 is one the intervals cannot decide
    deep = [construct_witness(F(-10), F("1/100")),
            construct_witness(F(-20), F("1/100"), SearchBudget(41, 70000, 200000))]
    assert [c.family_param for c in deep] == [4792, 60487]
    root = construct_witness(F(-2), F("1/10"))
    assert root.enclosure.note == NOTE_EXACT
    end = deep[0].enclosure.interval.lo
    seen = []
    witness._composed(lambda sides, u, v: seen.append((u, v)), (1, 4792), 3)(
        end.numerator, end.denominator)
    assert seen == [(-854080992552997827, 1173707204019904)]  # the example above

    def refuse(*args):
        raise AssertionError("the verifier expanded a numerator exactly")

    monkeypatch.setattr(witness, "bipartite_numerator_sign", refuse)
    assert all(verify_certificate(c).ok for c in deep)
    exact = []
    monkeypatch.setattr(witness, "bipartite_numerator_sign",
                        lambda *args: exact.append(args) or bipartite_numerator_sign(*args))
    assert verify_certificate(root).ok
    assert len(exact) == 1


@settings(max_examples=60, deadline=None)
@given(a=st.integers(1, 300), b=st.integers(1, 300),
       t=st.fractions(-12, 1, max_denominator=10 ** 6), half=st.integers(0, 20))
def test_the_verifiers_writer_at_the_mapped_points(a, b, t, half):
    # the points _composed hands over for odd m <= 41
    a, b = sorted((a, b))
    seen = []
    witness._composed(lambda sides, u, v: seen.append((u, v)), (a, b), 2 * half + 1)(
        t.numerator, t.denominator)
    [(u, v)] = seen
    assert witness._closed_form(a, b, u, v, realroots._Ints) == realroots._expand(
        a, b, u, v, realroots._Ints)


def test_star_witness_at_minus_fifteen():
    # 21,678 leaves: through the exact integer alone the search takes about
    # 8 s on a 2-core host, with the sign kernel about 0.01 s; verification
    # about 0.2 ms: the decimal intervals decide the signs of its two
    # numerators, about 1.4e6 and 1.6e6 bits, which took 0.06 s to expand in
    # exact decimal and 0.17 s as ints
    budget = SearchBudget(max_m=41, max_param=30000, max_degree=100000)
    t0 = time.perf_counter()
    cert = construct_witness(F(-15), F("1/100"), budget)
    t1 = time.perf_counter()
    assert (cert.family_kind, cert.family_param, cert.m) == (FAMILY_STAR, 21678, 3)
    assert verify_certificate(cert).ok
    t2 = time.perf_counter()
    assert t1 - t0 < 3.0, f"search took {t1 - t0:.1f} s"
    assert t2 - t1 < 5.0, f"verification took {t2 - t1:.1f} s"


# targets within 1/2 of -2, -1 and 0, the ends of the regimes: a point of
# the 1/64 grid moved by a fraction with a large denominator
@st.composite
def _near_anchor(draw):
    d = draw(st.integers(10 ** 6, 10 ** 12))
    offset = Fraction(draw(st.integers(-31, 31)), 64) + Fraction(draw(st.integers(0, d)), 64 * d)
    return draw(st.sampled_from((-2, -1, 0))) + offset


@settings(max_examples=100)
@given(
    z=_near_anchor(),
    eps=st.fractions(Fraction(1, 100), Fraction(1, 10), max_denominator=10 ** 9),
    tol=st.sampled_from((DEFAULT_TOL, Fraction(1, 10 ** 130)))
    | st.integers(0, 60).map(lambda k: Fraction(1, 2 ** k)),
    max_m=st.integers(1, 7),
    max_param=st.integers(1, 61),
)
def test_witness_verifies_or_exhausts(z, eps, tol, max_m, max_param):
    assume(z <= 0)
    try:
        cert = construct_witness(z, eps, SearchBudget(max_m, max_param, 400), tol=tol)
    except BudgetExhaustedError:
        return
    assert verify_certificate(cert).ok
    enc = cert.enclosure
    if enc.note != NOTE_EXACT:
        assert z - eps < enc.interval.lo < enc.interval.hi < z + eps
        assert enc.width <= tol


def _sign(v):
    return (v > 0) - (v < 0)


def _diagonal_search(z, eps, budget):
    """Reference for the search: the parts of the window in order, and in
    each every cell of the diagonal order, ``m + p`` ascending, then ``m``,
    decided by the signs of the expanded family polynomial at the mapped
    part's ends.  Returns the part and ``(m, p, sign at the left end)`` of
    the first cell whose signs differ, or None when every part's budget runs
    out, with the number of cells and the case tags of the parts searched."""
    cells, cases = 0, []
    for part in witness._classify(z - eps, z + eps):
        kind, lo, hi = part
        odd = witness._KINDS[kind].odd
        first = None
        for s in range(2, budget.max_m + budget.max_param + 1):
            for m in range(1, min(budget.max_m, s - 1) + 1, 2):
                p = s - m
                if (p > budget.max_param or odd and p % 2 == 0
                        or witness.family_order(kind, p) * m > budget.max_degree):
                    continue
                cells += 1
                if first is None:
                    poly = family_polynomial(kind, p)
                    s_lo, s_hi = (_sign(eval_rational(poly, witness._phi(t, m))) for t in (lo, hi))
                    if s_lo * s_hi < 0:
                        first = (m, p, s_lo)
        cases.append(witness._KINDS[kind].case)
        if first:
            return (part, first), cells, cases
    return None, cells, cases


def _first_hit(z, eps, budget):
    """The ``(m, p, s_lo)`` that the search hands to certification."""
    with mock.patch.object(witness._Search, "_certify", lambda self, *cell: cell):
        return construct_witness(z, eps, budget)


# the stretch of the axis each family's targets are drawn from; the window
# is searched with whatever family _classify gives it
_REGIMES = {FAMILY_K2_ELL: (-2, -1), FAMILY_KKK: (-1, 0), FAMILY_STAR: (-8, -2)}


@settings(max_examples=300)
@given(
    z=st.one_of(*(st.fractions(lo, hi, max_denominator=1000) for lo, hi in _REGIMES.values()),
                _near_anchor()),
    eps_den=st.integers(2, 60),
    max_m=st.integers(1, 7),
    max_param=st.integers(1, 61),
    max_degree=st.integers(1, 2000),
)
def test_search_is_the_first_sign_change_in_diagonal_order(z, eps_den, max_m, max_param,
                                                          max_degree):
    eps = Fraction(1, eps_den)
    assume(z + eps <= 0 and not z - eps < -2 < z + eps)
    budget = SearchBudget(max_m, max_param, max_degree)
    found, cells, cases = _diagonal_search(z, eps, budget)
    if found is None:
        with pytest.raises(BudgetExhaustedError) as exc:
            _first_hit(z, eps, budget)
        assert exc.value.frontier == {
            "case": "+".join(cases), "cells_tested": cells,
            "max_m": max_m, "max_param": max_param, "max_degree": max_degree,
        }
    else:
        part, first = found
        assert _first_hit(z, eps, budget) == first
        expected = witness._Search(z, eps, budget, DEFAULT_TOL, part)._certify(*first)
        assert construct_witness(z, eps, budget) == expected


@settings(max_examples=80)
@given(
    kind=st.sampled_from(sorted(_REGIMES)),
    at=st.fractions(0, 1, max_denominator=10 ** 4),
    near_minus_one=st.booleans(),
)
def test_past_is_monotone_in_the_parameter(kind, at, near_minus_one):
    # the bisection on p needs "the root of F_p is past x" to be false and
    # then true as p grows, and false at p = 1
    lo, hi = _REGIMES[kind]
    if near_minus_one and kind != FAMILY_STAR:
        x = -1 + (1 if kind == FAMILY_KKK else -1) * at / 1000
    else:
        x = lo + (hi - lo) * at
    ahead = witness._KINDS[kind].ahead
    top, step = (201, 1) if kind == FAMILY_STAR else (1001, 2)
    past = [_sign(bipartite_form(witness._sides(kind, p), x.numerator, x.denominator)) == ahead(p)
            for p in range(1, top + 1, step)]
    assert past == sorted(past)
    assert not past[0]


@given(t=st.fractions(), m=st.integers(1, 41))
def test_composed_hands_the_sign_the_mapped_point_in_lowest_terms(t, m):
    # the hit test signs the part's own ends through _composed: the sign
    # gets exactly the integers of the mapped end _phi(t, m), so it takes
    # the arguments the mapped Fraction would give it
    seen = []

    def record(sides, u, v):
        seen.append((sides, u, v))
        return 0

    witness._composed(record, (1, 3), m)(t.numerator, t.denominator)
    x = witness._phi(t, m)
    assert seen == [((1, 3), x.numerator, x.denominator)]


@pytest.mark.parametrize("z, eps", [("-3", "1/10"), ("-2.01", "1/100"), ("-1.5", "1/20"),
                                    ("-1.9", "1/100"), ("-0.9", "1/20"), ("-0.05", "1/20")])
def test_certification_starts_from_the_composed_signs(z, eps):
    # the search derives the left end's sign from which end the root is
    # past; it must be the composed polynomial's sign at the target
    # window's ends
    z, eps = F(z), F(eps)
    m, p, s_lo = _first_hit(z, eps, SearchBudget())
    [(kind, w_lo, w_hi)] = witness._classify(z - eps, z + eps)
    sides = witness._sides(kind, p)
    sign = witness._composed(bipartite_numerator_sign, sides, m)
    assert (s_lo, -s_lo) == (sign(w_lo.numerator, w_lo.denominator),
                             sign(w_hi.numerator, w_hi.denominator))


def _distinct_and_repeated_roots(poly, lo, hi):
    """Sturm counts in ``(lo, hi]`` of the distinct roots of ``poly`` and of
    its repeated ones (the roots of ``gcd(poly, poly')``)."""
    interval = RationalInterval(lo, hi)
    coeffs = list(poly.coeffs)
    repeated = poly_gcd(coeffs, intpoly.derivative(coeffs))
    return (count_roots_in(sturm_chain(coeffs), interval),
            count_roots_in(sturm_chain(repeated), interval))


@pytest.mark.parametrize("ell", range(1, 62, 2))
def test_k2l_has_one_simple_root_in_minus_two_minus_one(ell):
    # the lemma of the witness module docstring that lets endpoint signs
    # stand in for Sturm counts in case 1.1
    poly = family_polynomial(FAMILY_K2_ELL, ell)
    assert _distinct_and_repeated_roots(poly, F(-2), F(-1)) == (int(ell >= 3), 0)


@pytest.mark.parametrize("k", range(1, 32, 2))
def test_kkk_has_one_simple_root_in_minus_one_zero(k):
    # the same lemma for case 1.2; no root lies in [-1/2, 0)
    poly = family_polynomial(FAMILY_KKK, k)
    assert _distinct_and_repeated_roots(poly, F(-1), F("-1/2")) == (int(k >= 3), 0)
    assert _distinct_and_repeated_roots(poly, F("-1/2"), F("-1/1000000")) == (0, 0)


def _nudged_count(chain, lo, hi):
    """Sturm count in ``(lo, hi]``, each endpoint that is a root moved inward
    by 2^-16 of the width until it is not."""
    eta = (hi - lo) / (1 << 16)
    while True:
        try:
            return count_roots_in(chain, RationalInterval(lo, hi))
        except EndpointRootError:
            f = list(chain.squarefree)
            if intpoly.sign_at(f, lo) == 0:
                lo += eta
            if intpoly.sign_at(f, hi) == 0:
                hi -= eta
            if lo >= hi:
                return 0


def _count_bisection(chain, poly, m, z, eps, lo, hi, tol):
    """Leftmost root in ``(lo, hi)`` by bisecting on Sturm counts of the
    family polynomial over mapped subintervals, the bracket's ends then
    moved out as :func:`witness._simplest_ends` moves them within the
    nudged ``(lo, hi)``; composed signs come from the expanded family
    polynomial at the mapped point."""
    def phi(t):
        return witness._phi(t, m)

    def sign(t):
        return _sign(eval_rational(poly, phi(t)))

    def strict(a, b):
        return z - eps < a and b < z + eps

    eta = (hi - lo) / (1 << 16)
    while sign(lo) == 0:
        lo += eta
    while sign(hi) == 0:
        hi -= eta
    if lo >= hi:
        return None
    count = count_roots_in(chain, RationalInterval(phi(lo), phi(hi)))
    if count < 1:
        return None
    part = lo, hi
    for _ in range(400):
        if count == 1 and hi - lo <= tol and strict(lo, hi):
            lo, hi = witness._simplest_ends(lo, hi, *part, tol)
            s_lo, s_hi = sign(lo), sign(hi)
            if s_lo * s_hi == -1:
                return RootEnclosure(RationalInterval(lo, hi), s_lo, s_hi, NOTE_SIMPLE)
            return None
        mid = (lo + hi) / 2
        if sign(mid) == 0:
            return _exact_enclosure(mid) if strict(mid, mid) else None
        left = count_roots_in(chain, RationalInterval(phi(lo), phi(mid)))
        if left >= 1:
            hi, count = mid, left
        else:
            lo = mid
    return None


def _count_route_search(z, eps, budget):
    """Reference for the bipartite regimes: the parts of the window left and
    right of -1 in that order, and in each the diagonal order with every
    cell of the budget, none skipped by a band, decided by Sturm counts of
    the family polynomial, endpoints that are roots nudged inward.  Returns
    the first certificate, or None when every part's budget runs out, with
    the number of cells and the case tags of the parts searched."""
    lo, hi = z - eps, z + eps
    parts = []
    if lo < -1:
        parts.append((FAMILY_K2_ELL, CASE_11, lo, min(hi, F(-1))))
    if hi > -1:
        parts.append((FAMILY_KKK, CASE_12, max(lo, F(-1)), hi))
    cells, cases = 0, []
    for kind, case, lo, hi in parts:
        cases.append(case)
        chains = {}
        for s in range(2, budget.max_m + budget.max_param + 1):
            for m in range(1, min(budget.max_m, s - 1) + 1, 2):
                p = s - m
                order = witness.family_order(kind, p)
                if p > budget.max_param or p % 2 == 0 or order * m > budget.max_degree:
                    continue
                cells += 1
                mapped = RationalInterval(witness._phi(lo, m), witness._phi(hi, m))
                poly = family_polynomial(kind, p)
                if p not in chains:
                    chains[p] = sturm_chain(poly)
                chain = chains[p]
                if _nudged_count(chain, mapped.lo, mapped.hi) < 1:
                    continue
                enc = _count_bisection(chain, poly, m, z, eps, lo, hi, DEFAULT_TOL)
                if enc is not None:
                    cert = WitnessCertificate(z, eps, kind, p, m, order * m, enc, case)
                    return cert, cells, cases
    return None, cells, cases


@settings(max_examples=100)
@given(
    z_milli=st.integers(1, 1999),
    eps_den=st.integers(2, 60),
    anchor=st.sampled_from(["none", "end at 0", "start at -2"]),
    max_m=st.integers(1, 11),
    max_param=st.integers(1, 61),
    max_degree=st.integers(1, 2000),
)
def test_sign_route_matches_count_route(z_milli, eps_den, anchor, max_m, max_param, max_degree):
    eps = Fraction(1, eps_den)
    z = {"none": Fraction(-z_milli, 1000), "end at 0": -eps, "start at -2": -2 + eps}[anchor]
    assume(z + eps <= 0 and not z - eps < -2 < z + eps and z + eps > -2)
    budget = SearchBudget(max_m, max_param, max_degree)
    expected, cells, cases = _count_route_search(z, eps, budget)
    if expected is None:
        with pytest.raises(BudgetExhaustedError) as exc:
            construct_witness(z, eps, budget)
        assert exc.value.frontier == {
            "case": "+".join(cases), "cells_tested": cells,
            "max_m": max_m, "max_param": max_param, "max_degree": max_degree,
        }
    else:
        assert construct_witness(z, eps, budget) == expected


# -- floats pick, exact signs decide -----------------------------------------

@settings(max_examples=150)
@given(
    z=st.one_of(*(st.fractions(lo, hi, max_denominator=1000) for lo, hi in _REGIMES.values()),
                _near_anchor()),
    eps_den=st.integers(2, 1000),
    tol=st.sampled_from((DEFAULT_TOL, Fraction(1, 10 ** 30))),
    budget=st.just(SearchBudget()) | st.builds(SearchBudget, st.integers(1, 41),
                                               st.integers(1, 5001), st.integers(1, 20000)),
)
def test_guided_search_is_the_exact_search(z, eps_den, tol, budget):
    # the float guides pick every bisection's answer, and the certificate
    # (or the exhaustion) is the one exact signs alone give; windows on the
    # exact roots 0 and -2 run no search
    eps = Fraction(1, eps_den)
    assume(z + eps <= 0 and not z - eps < -2 < z + eps)
    expected = exact_witness(z, eps, budget, tol)
    if expected is None:
        with pytest.raises(BudgetExhaustedError):
            construct_witness(z, eps, budget, tol)
    else:
        assert construct_witness(z, eps, budget, tol) == expected
        # and the raw brackets, before their ends move out, are the same
        with mock.patch.object(witness, "_simplest_ends", _raw_ends):
            assert construct_witness(z, eps, budget, tol) == exact_witness(z, eps, budget, tol)


def _raw_ends(lo, hi, *part_and_tol):
    return lo, hi


def _seeded_random_guide():
    rng = random.Random(0x5EED)
    return lambda sides, y, m: rng.choice((-1, 0, 1))


_WRONG_GUIDES = {
    "always +1": lambda: lambda sides, y, m: 1,
    "always -1": lambda: lambda sides, y, m: -1,
    "negated": lambda: lambda sides, y, m: -realroots.bipartite_log_value(sides, y, m),
    "seeded random": _seeded_random_guide,
}


@pytest.mark.parametrize("guide", sorted(_WRONG_GUIDES))
def test_a_wrong_guide_changes_no_byte(monkeypatch, guide):
    # a guide that is always wrong, or wrong at random, costs exact signs
    # but moves no certificate byte: only exact signs decide
    queries = _GRID + [("-1.00001", "1/4"), ("-1", "1/100000"), ("-3", "1/100", "1e-30"),
                       ("-0.3", "1/20", "1e-30")]

    def output(cert):
        return certificate_to_json(cert) + "\n" + str(verify_certificate(cert))

    def outputs():
        out = []
        for z, e, *tol in queries:
            tol = F(tol[0]) if tol else DEFAULT_TOL
            try:
                out.append(output(construct_witness(F(z), F(e), tol=tol)))
            except BudgetExhaustedError as exc:
                out.append(str(exc))
        return out

    guided = outputs()
    assert guided[:len(_GRID)] == [output(exact_witness(F(z), F(e))) for z, e in _GRID]
    monkeypatch.setattr(witness, "bipartite_log_value", _WRONG_GUIDES[guide]())
    assert outputs() == guided


_STAND_IN_GUIDES = {
    "the sign": lambda t, root: _sign(t - root),
    "+1 at the root": lambda t, root: 1 if t >= root else -1,
    "-1 at the root": lambda t, root: 1 if t > root else -1,
    "always +1": lambda t, root: 1,
    "always -1": lambda t, root: -1,
}


@pytest.mark.parametrize("guide", sorted(_STAND_IN_GUIDES))
@pytest.mark.parametrize("at", [Fraction(3, 8), Fraction(5, 2 ** 45)])
def test_a_dyadic_root_comes_back_as_the_exact_bisection_gives_it(monkeypatch, guide, at):
    # the families' roots in a window are irrational, so a stand-in sign
    # with its root at a dyadic point of the window (-1, -1/2) takes its
    # place: the guided cell may end on the root, and the enclosure is the
    # exact bisection's all the same.  At 5/2^45 of the window the root is
    # inside a guided cell (depth 29 here, and at most 40)
    lo, hi = F(-1), F("-1/2")
    root = lo + (hi - lo) * at
    search = witness._Search(F("-3/4"), F("1/4"), SearchBudget(), DEFAULT_TOL,
                             (FAMILY_KKK, lo, hi))
    monkeypatch.setattr(witness, "bipartite_sign",
                        lambda sides, u, v: _sign(u * root.denominator - root.numerator * v))
    monkeypatch.setattr(witness, "bipartite_log_value",
                        lambda sides, y, m: _STAND_IN_GUIDES[guide](F(y) - 1, root))
    exact = witness._composed(witness.bipartite_sign, (3, 3), 1)
    expected = realroots._sign_bisect(exact, lo, hi, -1, DEFAULT_TOL, (lo, hi))
    enc = search._certify(1, 3, -1).enclosure
    if expected[0] < expected[1]:
        expected_ends = witness._simplest_ends(*expected, lo, hi, DEFAULT_TOL)
        assert (enc.interval.lo, enc.interval.hi) == expected_ends
        monkeypatch.setattr(witness, "_simplest_ends", _raw_ends)
        enc = search._certify(1, 3, -1).enclosure
    assert (enc.interval.lo, enc.interval.hi) == expected
    assert (expected == (root, root)) == (at == Fraction(3, 8))


def _raising_guide(sides, y, m):
    raise OverflowError("a guide past the float range")


# float guides that are wrong in every way a float can be, and the true one
# for index guesses that are off alone; each is built from the true guide
# and a shift of the point it is taken at
_ADVERSARIAL_VALUES = {
    "NaN": lambda true, shift: lambda sides, y, m: math.nan,
    "+inf": lambda true, shift: lambda sides, y, m: math.inf,
    "-inf": lambda true, shift: lambda sides, y, m: -math.inf,
    "negated": lambda true, shift: lambda sides, y, m: -true(sides, y, m),
    "root-shifted": lambda true, shift: lambda sides, y, m: true(sides, y + shift, m),
    "raises OverflowError": lambda true, shift: _raising_guide,
    "true": lambda true, shift: true,
}


@settings(max_examples=120)
@given(
    z=st.one_of(*(st.fractions(lo, hi, max_denominator=1000) for lo, hi in _REGIMES.values()),
                _near_anchor()),
    eps_den=st.integers(2, 1000),
    tol=st.sampled_from((DEFAULT_TOL, Fraction(1, 10 ** 30), Fraction(1, 4))),
    budget=st.just(SearchBudget()) | st.builds(SearchBudget, st.integers(1, 41),
                                               st.integers(1, 5001), st.integers(1, 20000)),
    value=st.sampled_from(sorted(_ADVERSARIAL_VALUES)),
    shift=st.floats(-1 / 2, 1 / 2),
    off=st.integers(-3, 3) | st.integers(-10 ** 15, 10 ** 15),
)
def test_adversarial_guides_leave_the_exact_answer(z, eps_den, tol, budget, value, shift, off):
    # index guesses off by any amount, inside the range or outside it, and
    # values that are NaN, infinite, negated, taken at a shifted point or
    # raise: every certificate, report and exhaustion frontier is the one
    # exact signs alone give
    eps = Fraction(1, eps_den)
    assume(z + eps <= 0 and not z - eps < -2 < z + eps)
    expected = exact_witness(z, eps, budget, tol)
    first_past = witness._first_past
    guide = _ADVERSARIAL_VALUES[value](realroots.bipartite_log_value, shift)
    with mock.patch.object(witness, "bipartite_log_value", guide), \
            mock.patch.object(witness, "_first_past", lambda v, n: first_past(v, n) + off):
        if expected is None:
            with pytest.raises(BudgetExhaustedError) as exc:
                construct_witness(z, eps, budget, tol)
        else:
            cert = construct_witness(z, eps, budget, tol)
    if expected is None:
        parts = witness._classify(z - eps, z + eps)
        assert exc.value.frontier == {
            "case": "+".join(witness._KINDS[kind].case for kind, _, _ in parts),
            "cells_tested": sum(witness._Search(z, eps, budget, tol, part).cells for part in parts),
            "max_m": budget.max_m, "max_param": budget.max_param,
            "max_degree": budget.max_degree,
        }
    else:
        assert cert == expected
        assert str(verify_certificate(cert)) == str(verify_certificate(expected))


@pytest.mark.parametrize("n", [1, 2, 3, 50, 5001, 2 ** 40 + 1])
@pytest.mark.parametrize("at", [-7.5, -0.5, 0.5, 0.25, 1 / 3, 0.999, 1.5])
def test_first_past_lands_next_to_the_root_of_a_linear_value(n, at):
    # a star's guide is linear in its index: the secant's first step lands
    # next to the root, and one more step takes its other neighbour
    root = math.floor(at * (n - 1)) + 0.5
    calls = []

    def value(i):
        calls.append(i)
        return 3 * (i - root)

    assert witness._first_past(value, n) == min(max(math.ceil(root), 0), n)
    assert len(calls) <= 4


@settings(max_examples=300)
@given(
    n=st.integers(1, 10 ** 6),
    first=st.integers(0, 10 ** 6),
    shape=st.sampled_from(["step", "cube", "exp", "inf above", "-inf below", "NaN below"]),
)
def test_first_past_finds_the_first_positive_index_of_a_rising_value(n, first, shape):
    # for any value that rises through 0 once the bracket's ends stay on
    # their sides, so the guess is exact, and the bracket halves at least
    # every third step
    first = min(first, n)
    below, above = {"step": (-1.0, 1.0), "cube": (None, None), "exp": (None, None),
                    "inf above": (-1.0, math.inf), "-inf below": (-math.inf, 1.0),
                    "NaN below": (math.nan, 2.0)}[shape]
    calls = []

    def value(i):
        calls.append(i)
        if shape == "cube":
            return float(i - first + 1) ** 3 - 0.5
        if shape == "exp":
            return math.exp(min(i - first, 700)) - math.exp(-1)
        return above if i >= first else below

    assert witness._first_past(value, n) == first
    assert len(calls) <= 3 * n.bit_length() + 4


def test_the_grid_takes_fewer_exact_signs(monkeypatch):
    # the guess confirmed by two exact signs replaces the exact sign at the
    # top p of every searched m; the guided cell saves the rest.  The 16
    # cells took 196 exact signs when the top p was always taken
    calls = []

    def counted(sides, u, v):
        calls.append(sides)
        return realroots.bipartite_sign(sides, u, v)

    monkeypatch.setattr(witness, "bipartite_sign", counted)
    for z, e in _GRID[:16]:
        construct_witness(F(z), F(e))
    assert len(calls) == 158


def test_a_target_past_the_float_range_is_searched_on_exact_signs():
    # 1 + z has no float, so the guides guess nothing and exact signs alone
    # search the window; it used to end in an OverflowError
    budget = SearchBudget(3, 50, 1000)
    z, eps = F(-10 ** 400), F("1/100")
    assert exact_witness(z, eps, budget) is None
    with pytest.raises(BudgetExhaustedError):
        construct_witness(z, eps, budget)


@settings(max_examples=300)
@given(
    kind=st.sampled_from(sorted(_REGIMES)),
    p=st.integers(0, 1000),
    m=st.sampled_from((1, 3, 5, 7)),
    at=st.fractions(0, 1, max_denominator=10 ** 6),
)
def test_guide_agrees_with_the_kernel_where_its_first_ball_decides(kind, p, m, at):
    # away from a root the float guess is the sign: wherever the sign
    # kernel's first ball excludes 0 the two agree
    lo, hi = _REGIMES[kind]
    t = lo + (hi - lo) * at
    sides = witness._sides(kind, 2 * p + 1 if witness._KINDS[kind].odd else p + 1)
    y = 1 + t
    v = y.denominator ** m
    u = y.numerator ** m - v
    mid, rad, _ = realroots._expand(*sorted(sides), u, v, realroots._Balls(realroots._START_BITS))
    assume(abs(mid) > rad)
    v = realroots.bipartite_log_value(sides, float(y), m)
    assert (v > 0) - (v < 0) == _sign(mid)


# -- the simplest ends of the bracket ------------------------------------------

@pytest.mark.parametrize("bracket, part, tol, ends", [
    # [hi - tol, lo] would hold the part's end -3, its simplest rational,
    # which is left out
    (("-191/64", "-95/32"), ("-3", "-2"), "1/8", ("-191/64", "-23/8")),
    # a coarse tol: [hi - tol, lo] holds the integer -3
    (("-21/8", "-41/16"), ("-7/2", "-5/2"), "1", ("-3", "-23/9")),
    # an end on the part's end stays
    (("-5/4", "-1"), ("-3/2", "-1"), "1", ("-4/3", "-1")),
])
def test_simplest_ends(bracket, part, tol, ends):
    (lo, hi), (w_lo, w_hi), tol = map(F, bracket), map(F, part), F(tol)
    got = witness._simplest_ends(lo, hi, w_lo, w_hi, tol)
    assert got == tuple(map(F, ends))
    new_lo, new_hi = got
    if lo > w_lo:
        assert new_lo == simplest_ref(max(hi - tol, w_lo), lo, hi - tol <= w_lo)
    if hi < w_hi:
        assert new_hi == simplest_ref(hi, min(new_lo + tol, w_hi), False, new_lo + tol >= w_hi)


@settings(max_examples=150)
@given(
    z=st.one_of(*(st.fractions(lo, hi, max_denominator=1000) for lo, hi in _REGIMES.values()),
                _near_anchor()),
    eps_den=st.integers(2, 1000),
    tol=st.sampled_from((DEFAULT_TOL, Fraction(1, 10 ** 30)))
    | st.integers(-2, 60).map(lambda k: Fraction(1, 2) ** k),
    budget=st.builds(SearchBudget, st.integers(1, 41), st.integers(1, 5001),
                     st.integers(1, 20000)),
)
def test_certificate_ends_are_the_simplest_around_the_bracket(z, eps_den, tol, budget):
    # only the ends of a simple-certified enclosure move: each one outwards
    # from the bisection's bracket but not onto the part's end, to no larger
    # a denominator, and the certificate still verifies
    eps = Fraction(1, eps_den)
    assume(z + eps <= 0)
    try:
        cert = construct_witness(z, eps, budget, tol)
    except BudgetExhaustedError:
        return
    with mock.patch.object(witness, "_simplest_ends", _raw_ends):
        raw = construct_witness(z, eps, budget, tol)
    assert verify_certificate(cert).ok
    enc, bracket = cert.enclosure, raw.enclosure
    assert dataclasses.replace(cert, enclosure=bracket) == raw
    assert (enc.sign_lo, enc.sign_hi, enc.note) == (bracket.sign_lo, bracket.sign_hi, bracket.note)
    if enc.note == NOTE_EXACT:
        assert enc == bracket
        return
    [(_, w_lo, w_hi)] = [part for part in witness._classify(z - eps, z + eps)
                         if part[0] == cert.family_kind]
    (lo, hi), (new_lo, new_hi) = ((e.interval.lo, e.interval.hi) for e in (bracket, enc))
    assert w_lo < new_lo <= lo or new_lo == lo == w_lo
    assert hi <= new_hi < w_hi or new_hi == hi == w_hi
    assert new_hi - new_lo <= tol
    assert new_lo.denominator <= lo.denominator and new_hi.denominator <= hi.denominator


# construct_witness(-21/25, 1/50): the Sturm-count route, which took about
# three minutes on this query, built this family and m with the bracket
# K119_BRACKET, and the certificate's ends are that bracket's simplest ends
K119_BRACKET = (F("-1376149387/1677721600"), F("-688074693/838860800"))
GOLDEN_K119 = """{
  "target_z": "-21/25",
  "epsilon": "1/50",
  "family": {
    "kind": "K_k_k",
    "param": 119
  },
  "m": 3,
  "composed_degree": 714,
  "case_tag": "case-1.2",
  "enclosure": {
    "lo": "-31564/38481",
    "hi": "-156305/190558",
    "sign_lo": -1,
    "sign_hi": 1,
    "note": "simple-certified"
  }
}"""
GOLDEN_K119_REPORT = """\
[pass] target_nonpositive: z = -21/25
[pass] epsilon_positive: eps = 1/50
[pass] substitution_order_odd: m = 3
[pass] family_parameter: k = 119 must be odd
[pass] case_tag: case-1.2
[pass] composed_degree: 714 vs 238*3
[pass] enclosure_within_window: [-31564/38481, -156305/190558] vs (-43/50, -41/50)
[pass] endpoint_certification: recomputed signs (-1, 1) vs stored (-1, 1)"""


def test_golden_k119_certificate():
    cert = construct_witness(F("-21/25"), F("1/50"))
    assert certificate_to_json(cert) == GOLDEN_K119
    assert str(verify_certificate(cert)) == GOLDEN_K119_REPORT
    ends = witness._simplest_ends(*K119_BRACKET, F("-43/50"), F("-41/50"), DEFAULT_TOL)
    assert (cert.enclosure.interval.lo, cert.enclosure.interval.hi) == ends
    with mock.patch.object(witness, "_simplest_ends", _raw_ends):
        raw = construct_witness(F("-21/25"), F("1/50")).enclosure.interval
    assert (raw.lo, raw.hi) == K119_BRACKET


def test_budget_validation():
    with pytest.raises(DomainError):
        SearchBudget(max_m=0)


def test_verify_rejects_tampered_interval():
    cert = construct_witness(F("-1.5"), F("0.05"))
    shifted = RootEnclosure(
        RationalInterval(
            cert.enclosure.interval.lo + F("1/2"), cert.enclosure.interval.hi + F("1/2")
        ),
        cert.enclosure.sign_lo,
        cert.enclosure.sign_hi,
        cert.enclosure.note,
    )
    bad = dataclasses.replace(cert, enclosure=shifted)
    report = verify_certificate(bad)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.passed}
    assert "enclosure_within_window" in failed


_TAMPER_QUERIES = ((F(0), F("1/10")), (F(-2), F("1/10")), (F("-1.5"), F("1/20")),
                   (F("-0.75"), F("1/10")), (F("-2.5"), F("1/10")))
_NOTES = (NOTE_EXACT, NOTE_SIMPLE, NOTE_STURM, "", "banana")
_TAMPER_FIELDS = ("family", "param", "m", "degree", "lo", "hi", "sign_lo", "sign_hi", "note",
                  "case", "z", "eps")


@functools.lru_cache(maxsize=None)
def _valid_certificate(i):
    return construct_witness(*_TAMPER_QUERIES[i])


def _tampered(cert, field, draw):
    """``cert`` with one field changed so that its claim is false.

    An endpoint moves out of the window or onto or past the other endpoint,
    and the query moves off the enclosure: a wider window, or a narrower bracket on
    the same sides of the root, would still be a true claim.
    """
    enc, lo, hi = cert.enclosure, cert.enclosure.interval.lo, cert.enclosure.interval.hi
    z, eps = cert.target_z, cert.epsilon
    r = draw(st.fractions(0, 4, max_denominator=10 ** 6))
    shift = draw(st.integers(-200, 200).filter(bool))

    def other(values, current):
        value = draw(st.sampled_from(values))
        assume(value != current)
        return value

    def enclosure(lo=lo, hi=hi, sign_lo=enc.sign_lo, sign_hi=enc.sign_hi, note=enc.note):
        return RootEnclosure(RationalInterval(lo, hi), sign_lo, sign_hi, note)

    kinds = (FAMILY_EXACT_K2, FAMILY_K2_ELL, FAMILY_KKK, FAMILY_STAR, "K_9")
    changed = {
        "family": lambda: {"family_kind": other(kinds, cert.family_kind)},
        "param": lambda: {"family_param": other((None, shift, abs(shift)), cert.family_param)},
        "m": lambda: {"m": cert.m + shift},
        "degree": lambda: {"composed_degree": cert.composed_degree + shift},
        "lo": lambda: {"enclosure": enclosure(lo=other((z - eps - r, hi + r), lo))},
        "hi": lambda: {"enclosure": enclosure(hi=other((z + eps + r, lo - r), hi))},
        "sign_lo": lambda: {"enclosure": enclosure(sign_lo=other(range(-2, 3), enc.sign_lo))},
        "sign_hi": lambda: {"enclosure": enclosure(sign_hi=other(range(-2, 3), enc.sign_hi))},
        "note": lambda: {"enclosure": enclosure(note=other(_NOTES, enc.note))},
        "case": lambda: {"case_tag": other((CASE_EXACT, CASE_11, CASE_12, CASE_2, "case-3"),
                                           cert.case_tag)},
        "z": lambda: {"target_z": draw(st.sampled_from((lo + eps + r, hi - eps - r)))},
        "eps": lambda: {"epsilon": max(z - lo, hi - z) - r},
    }[field]
    return dataclasses.replace(cert, **changed())


@settings(max_examples=200)
@given(st.integers(0, len(_TAMPER_QUERIES) - 1), st.sampled_from(_TAMPER_FIELDS), st.data())
def test_single_field_tamper_never_verifies(which, field, data):
    cert = _valid_certificate(which)
    assert verify_certificate(cert).ok
    try:
        report = verify_certificate(_tampered(cert, field, data.draw))
    except DomainError:
        return
    assert not report.ok


@pytest.mark.parametrize("note", [NOTE_STURM, "", "banana"])
def test_verify_rejects_an_enclosure_note_it_does_not_check(note):
    # the verifier checks end signs (simple-certified) or a zero (exact),
    # and nothing that another note would claim
    cert = construct_witness(F(-3), F("1/10"))
    bad = dataclasses.replace(cert, enclosure=dataclasses.replace(cert.enclosure, note=note))
    failed = [c for c in verify_certificate(bad).checks if not c.passed]
    assert [(c.name, c.detail) for c in failed] == [
        ("endpoint_certification", f"unknown enclosure note {note!r}")]


def test_exact_enclosure_carries_zero_signs():
    with pytest.raises(DomainError):
        RootEnclosure(RationalInterval(F(-2), F(-2)), 1, 0, NOTE_EXACT)


def test_verify_rejects_even_m():
    cert = construct_witness(F("-1.5"), F("0.05"))
    bad = dataclasses.replace(cert, m=cert.m + 1, composed_degree=cert.composed_degree)
    report = verify_certificate(bad)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.passed}
    assert "substitution_order_odd" in failed


def test_verify_reports_nonpositive_m_without_raising():
    # the verifier evaluates through the substitution identity, which needs
    # a positive substitution order
    cert = construct_witness(F(-7), F("0.5"))
    point = RootEnclosure(RationalInterval(F(-7), F(-7)), 0, 0, NOTE_EXACT)
    bad = dataclasses.replace(cert, family_param=4999, m=-1, composed_degree=1000,
                              enclosure=point)
    report = verify_certificate(bad)
    failed = {c.name for c in report.checks if not c.passed}
    assert {"substitution_order_odd", "endpoint_certification"} <= failed


@pytest.mark.parametrize("param", [None, 0, -3])
def test_verify_reports_bad_family_parameter_without_raising(param):
    cert = construct_witness(F("-1.5"), F("0.05"))
    report = verify_certificate(dataclasses.replace(cert, family_param=param))
    failed = {c.name for c in report.checks if not c.passed}
    assert {"family_parameter", "composed_degree", "endpoint_certification"} <= failed


def _counted_writes(monkeypatch) -> list:
    """Wrap the verifier's writer of the numerator; the list collects the
    sides of every call."""
    calls = []
    write = witness._closed_form

    def counted(a, b, u, v, ar):
        calls.append((a, b))
        return write(a, b, u, v, ar)

    monkeypatch.setattr(witness, "_closed_form", counted)
    return calls


def test_verify_expands_the_composed_polynomial_once(monkeypatch):
    # once per end: the verifier writes one numerator at each end of a
    # simple-certified enclosure
    cert = construct_witness(F("-1.5"), F("0.05"))
    assert cert.enclosure.note == NOTE_SIMPLE
    calls = _counted_writes(monkeypatch)
    assert verify_certificate(cert).ok
    assert calls == [(2, cert.family_param)] * 2


def test_verify_routes_by_the_implied_degree(monkeypatch):
    # degree 27 is stored, but l = 5001 implies 15009: no expansion
    cert = construct_witness(F("-1.5"), F("0.05"))
    calls = _counted_writes(monkeypatch)
    assert not verify_certificate(dataclasses.replace(cert, family_param=5001)).ok
    assert calls == []


def test_verify_rejects_a_huge_tampered_parameter_at_once():
    # the z = -10 star has 4792 leaves; 10^6 leaves imply degree 3000003,
    # and expanding it took 8 s and 92 MiB when no degree check came first
    cert = construct_witness(F(-10), F("1/100"))
    bad = dataclasses.replace(cert, family_param=10 ** 6)
    start = time.perf_counter()
    report = verify_certificate(bad)
    assert time.perf_counter() - start < 1.0
    failed = {c.name: c.detail for c in report.checks if not c.passed}
    assert failed["endpoint_certification"] == (
        f"the descriptor implies degree 3000003, not the stored "
        f"{cert.composed_degree}; nothing was expanded")


def _no_expansion(*args):
    raise AssertionError("the verifier expanded a numerator above the cap")


@pytest.mark.parametrize("m", [1001, 10001])
def test_verify_rejects_a_tampered_m_before_any_expansion(monkeypatch, m):
    # composed_degree edited to match: the z = -10 star's numerator would
    # have about 1.1e8 bits at m = 1,001 (9.9 s to reject when it was
    # expanded) and 1.1e9 at m = 10,001
    cert = construct_witness(F(-10), F("1/100"))
    order = cert.composed_degree // cert.m
    bad = dataclasses.replace(cert, m=m, composed_degree=order * m)
    monkeypatch.setattr(witness, "_composed", _no_expansion)
    monkeypatch.setattr(witness, "_closed_form", _no_expansion)
    failed = [(c.name, c.detail) for c in verify_certificate(bad).checks if not c.passed]
    [(name, detail)] = failed
    assert name == "endpoint_certification"
    assert detail.endswith(f"above the cap of {witness.VERIFY_MAX_NUMERATOR_BITS}; "
                           "nothing was expanded")


def test_a_tampered_m_under_the_cap_is_rejected_by_its_signs():
    # K_{75,75} at m = 1,001 estimates 2.7e6 bits, under the cap, so the
    # verifier signs its ends (the decimal intervals decide both) and the
    # recomputed signs reject it
    cert = construct_witness(F("-0.8"), F("1/100"))
    assert (cert.family_param, cert.m) == (75, 3)
    bad = dataclasses.replace(cert, m=1001, composed_degree=150 * 1001)
    failed = [(c.name, c.detail) for c in verify_certificate(bad).checks if not c.passed]
    [(name, detail)] = failed
    assert name == "endpoint_certification"
    assert detail.startswith("recomputed signs")


def test_the_largest_pinned_certificate_is_under_the_cap():
    # the largest numerator a CI step expands, the z = -20 star's, is under
    # half the cap, and the certificate verifies
    cert = construct_witness(F(-20), F("1/100"), SearchBudget(41, 70000, 200000))
    assert cert.family_param == 60487
    ends = (cert.enclosure.interval.lo, cert.enclosure.interval.hi)
    bits = 60488 * (3 * max((abs(t.numerator) + t.denominator).bit_length() for t in ends) + 1)
    assert 4.0e6 < bits < witness.VERIFY_MAX_NUMERATOR_BITS / 2
    assert verify_certificate(cert).ok



@pytest.mark.parametrize("tol, code", [("1e-40", cli.EXIT_OK), ("1e-110", cli.EXIT_CAPACITY)])
def test_a_fine_tol_far_out_verifies_or_exits_on_the_cap(capsys, tol, code):
    # the z = -20 star's ends lengthen with tol: about 1.3e7 bits at 1e-40,
    # which verifies, and 3.5e7 at 1e-110, which the search does not emit
    # and the CLI reports as a cap, never as a failed verification
    argv = ["--tol", tol, "witness", "-z", "-20", "-e", "1/100",
            "--max-param", "70000", "--max-degree", "200000"]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert "FAIL" not in err and "internal invariant" not in err
    if code == cli.EXIT_CAPACITY:
        assert "above the verifier's cap of 32000000" in err


def test_the_search_and_the_verifier_share_the_cap(monkeypatch):
    # with the cap just under a certificate's estimate, the search refuses
    # to emit it and the verifier refuses to expand it
    cert = construct_witness(F(-10), F("1/100"))
    bits = witness._numerator_bits(cert.composed_degree // cert.m, cert.m,
                                   cert.enclosure.interval)
    monkeypatch.setattr(witness, "VERIFY_MAX_NUMERATOR_BITS", bits - 1)
    with pytest.raises(CapacityError, match=f"about {bits} bits"):
        construct_witness(F(-10), F("1/100"))
    [check] = [c for c in verify_certificate(cert).checks if not c.passed]
    assert check.name == "endpoint_certification"
    assert f"about {bits} bits" in check.detail
    monkeypatch.setattr(witness, "VERIFY_MAX_NUMERATOR_BITS", bits)
    assert construct_witness(F(-10), F("1/100")) == cert
    assert verify_certificate(cert).ok

def test_verify_rejects_even_family_parameter():
    cert = construct_witness(F("-0.75"), F("0.1"))
    bad = dataclasses.replace(cert, family_param=cert.family_param + 1)
    report = verify_certificate(bad)
    assert not report.ok


def test_verify_rejects_wrong_degree():
    cert = construct_witness(F("-1.5"), F("0.05"))
    bad = dataclasses.replace(cert, composed_degree=cert.composed_degree + 1)
    assert not verify_certificate(bad).ok


def test_verify_report_is_readable():
    report = verify_certificate(construct_witness(F(0), F("0.1")))
    text = str(report)
    assert "[pass]" in text and "FAIL" not in text


def test_certificate_json_round_trip():
    cert = construct_witness(F("-1.9"), F("0.1"))
    assert certificate_from_json(certificate_to_json(cert)) == cert


# targets on a grid of hundredths: no window's left end falls strictly
# between -1.01 and -1, where the K_{2,l} search slows as its sliver closes
@given(st.integers(0, 1200).map(lambda k: Fraction(-k, 100)),
       st.sampled_from([F("1/10"), F("1/20")]))
@example(F(-2), F("1/10"))  # exact_K2
@example(F("-1.5"), F("1/20"))  # K_2_ell
@example(F("-0.9"), F("1/20"))  # K_k_k
@example(F(-3), F("1/10"))  # star
def test_certificate_json_round_trip_property(z, eps):
    try:
        cert = construct_witness(z, eps)
    except BudgetExhaustedError:
        assume(False)
    assert certificate_from_json(certificate_to_json(cert)) == cert


def test_certificate_json_fields():
    import json

    cert = construct_witness(F("-2.5"), F("0.1"))
    obj = json.loads(certificate_to_json(cert))
    assert obj["family"]["kind"] == "star"
    assert obj["case_tag"] == "case-2"
    assert "/" in obj["enclosure"]["lo"]
    assert obj["enclosure"]["sign_lo"] * obj["enclosure"]["sign_hi"] == -1


def _mangled(path, value):
    obj = json.loads(certificate_to_json(construct_witness(F("-2.5"), F("0.1"))))
    *parents, last = path.split(".")
    target = obj
    for key in parents:
        target = target[key]
    if value is KeyError:
        del target[last]
    else:
        target[last] = value
    return json.dumps(obj)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "field (top level) must be an object"),
        ("{not json", "is not valid JSON"),
        (_mangled("target_z", KeyError), "field target_z is missing"),
        (_mangled("enclosure.lo", KeyError), "field enclosure.lo is missing"),
        (_mangled("enclosure", [1]), "field enclosure must be an object"),
        (_mangled("family.param", "7"), "field family.param has the wrong type"),
        (_mangled("m", 3.0), "field m has the wrong type"),
        (_mangled("enclosure.sign_lo", True), "field enclosure.sign_lo has the wrong type"),
        (_mangled("enclosure.lo", 5), "field enclosure.lo has the wrong type"),
        (_mangled("enclosure.hi", "1/0"), "field enclosure.hi is not a rational"),
        (_mangled("epsilon", "a tenth"), "field epsilon is not a rational"),
    ],
)
def test_certificate_from_json_names_malformed_field(text, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        certificate_from_json(text)
