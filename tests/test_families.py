"""The family table: every named family's closed form against brute force,
and the witness families' integer sign numerators against exact values."""

import itertools
import random
from fractions import Fraction

import pytest

from domroots import witness
from domroots.dompoly import dom_poly_bruteforce, dom_poly_closed_form, eval_rational
from domroots.graph import FAMILIES, family
from domroots.realroots import bipartite_numerator

SMALL_ORDER = 10


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_closed_form_matches_bruteforce(kind):
    arity = len(FAMILIES[kind].params)
    checked = 0
    for params in itertools.product(range(1, SMALL_ORDER + 1), repeat=arity):
        g = family(kind, *params)
        if g.n > SMALL_ORDER:
            continue
        assert dom_poly_bruteforce(g) == dom_poly_closed_form(kind, *params), params
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize("kind", sorted(witness._KINDS))
@pytest.mark.parametrize("p", range(1, 42, 2))
def test_numerator_is_homogenised_closed_form(kind, p):
    rng = random.Random(f"{kind}:{p}")
    sides = witness._sides(kind, p)
    order = witness.family_order(kind, p)
    poly = witness.family_polynomial(kind, p)
    assert poly.degree == order == sum(sides)
    points = [(-1, 1), (-2, 1), (0, 1)]
    points += [(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in range(5)]
    for u, v in points:
        value = v ** order * eval_rational(poly, Fraction(u, v))
        assert bipartite_numerator(sides, u, v) == value, (u, v)
        assert bipartite_numerator(sides[::-1], u, v) == value, (u, v)
