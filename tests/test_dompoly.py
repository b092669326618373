import itertools
import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from domroots import dompoly
from domroots.dompoly import (
    DomPolynomial,
    compose_with_complete,
    dom_poly_bruteforce,
    dom_poly_closed_form,
    dom_poly_inclusion_exclusion,
    eval_rational,
    multiply,
)
from domroots.errors import CapacityError, DomainError
from domroots.graph import (
    FAMILIES,
    complete,
    complete_bipartite,
    disjoint_union,
    empty_graph,
    family_shape,
    from_edges,
    star,
    substitute_complete,
)

from conftest import all_labeled_graphs, compose_ref, random_graph


def test_bruteforce_k1():
    assert dom_poly_bruteforce(complete(1)).coeffs == (0, 1)


def test_bruteforce_k2():
    assert dom_poly_bruteforce(complete(2)).coeffs == (0, 2, 1)


def test_bruteforce_c4():
    # frozen from the 16-subset scan: singletons fail, every pair dominates
    assert dom_poly_bruteforce(complete_bipartite(2, 2)).coeffs == (0, 0, 6, 4, 1)


def test_bruteforce_cap():
    with pytest.raises(CapacityError):
        dom_poly_bruteforce(empty_graph(25))


def test_inclusion_exclusion_hand_expansions():
    # K_1: A={} gives (1+x), A={v} gives -1
    assert dom_poly_inclusion_exclusion(complete(1)).coeffs == (0, 1)
    # K_2: (1+x)^2 - 1 - 1 + 1
    assert dom_poly_inclusion_exclusion(complete(2)).coeffs == (0, 2, 1)


def test_oracle_equivalence_small():
    for n in (1, 2, 3, 4):
        for g in all_labeled_graphs(n):
            assert dom_poly_inclusion_exclusion(g).coeffs == dom_poly_bruteforce(g).coeffs


def test_oracle_equivalence_sampled_n5(rng):
    for _ in range(120):
        g = random_graph(rng, 5)
        assert dom_poly_inclusion_exclusion(g).coeffs == dom_poly_bruteforce(g).coeffs


# orders BLOCK-1 .. BLOCK+2 walk the subsets of the vertices above the block
@settings(max_examples=80)
@given(st.integers(1, 16) | st.integers(dompoly.BLOCK - 1, dompoly.BLOCK + 2), st.data())
def test_inclusion_exclusion_matches_bruteforce_across_the_block(n, data):
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    chosen = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = from_edges(n, [e for e, keep in zip(pairs, chosen) if keep])
    assert dom_poly_inclusion_exclusion(g).coeffs == dom_poly_bruteforce(g).coeffs


@pytest.mark.parametrize("n", range(13, 17))
def test_inclusion_exclusion_closed_forms_across_the_block(n):
    cases = [
        (complete(n), ("complete", n)),
        (empty_graph(n), ("empty_graph", n)),
        (star(n - 1), ("star", n - 1)),
        (complete_bipartite(3, n - 3), ("complete_bipartite", 3, n - 3)),
    ]
    for g, form in cases:
        assert dom_poly_inclusion_exclusion(g).coeffs == dom_poly_closed_form(*form).coeffs


def test_closed_form_star1():
    assert dom_poly_closed_form("star", 1).coeffs == (0, 2, 1)


def test_closed_form_c4_matches_bruteforce():
    assert dom_poly_closed_form("complete_bipartite", 2, 2).coeffs == (0, 0, 6, 4, 1)


def test_closed_form_complete3():
    assert dom_poly_closed_form("complete", 3).coeffs == (0, 3, 3, 1)


def test_closed_form_star3_bruteforce_confirmed():
    # x(x+1)^3 + x^3 expands to x^4 + 4x^3 + 3x^2 + x; confirmed on K_{1,3}
    expected = dom_poly_bruteforce(star(3)).coeffs
    assert expected == (0, 1, 3, 4, 1)
    assert dom_poly_closed_form("star", 3).coeffs == expected


@pytest.mark.parametrize("k,ell", [(k, l) for k in range(1, 6) for l in range(k, 7) if k + l <= 9])
def test_closed_form_bipartite_vs_bruteforce(k, ell):
    g = complete_bipartite(k, ell)
    assert dom_poly_closed_form("complete_bipartite", k, ell).coeffs == dom_poly_bruteforce(g).coeffs


@pytest.mark.parametrize("ell", range(1, 8))
def test_k2ell_consistency(ell):
    assert (
        dom_poly_closed_form("K22ell", ell).coeffs
        == dom_poly_closed_form("complete_bipartite", 2, ell).coeffs
    )


@pytest.mark.parametrize("k", range(1, 5))
def test_kkk_consistency(k):
    assert (
        dom_poly_closed_form("Kkk", k).coeffs
        == dom_poly_closed_form("complete_bipartite", k, k).coeffs
    )


@pytest.mark.parametrize("e", [0, 1, 2, 3, 10, 63, 64, 101, 1000, 2001])
def test_one_plus_x_pow_is_the_binomial_row(e):
    assert dompoly._one_plus_x_pow(e) == [comb(e, i) for i in range(e + 1)]


# each shape's closed form as an integer function of x
_FORMULAS = {
    complete: lambda x, n: (1 + x) ** n - 1,
    empty_graph: lambda x, n: x ** n,
    complete_bipartite: lambda x, a, b: ((1 + x) ** a - 1) * ((1 + x) ** b - 1) + x ** a + x ** b,
}


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_closed_forms_are_their_formulas(kind):
    # coefficients of a polynomial on n vertices count subsets, so they lie
    # in [0, 2^n); at x = 2^(n+1) its value fixes every coefficient
    arity = len(FAMILIES[kind].params)
    for ps in itertools.product((1, 2, 3, 7, 30, 101), repeat=arity):
        shape, args = family_shape(kind, *ps)
        poly = dom_poly_closed_form(kind, *ps)
        assert poly.degree == sum(args)
        x = 2 ** (poly.degree + 1)
        assert sum(c * x ** i for i, c in enumerate(poly.coeffs)) == _FORMULAS[shape](x, *args), ps


def test_closed_form_zero_parameter():
    with pytest.raises(DomainError):
        dom_poly_closed_form("star", 0)
    with pytest.raises(DomainError):
        dom_poly_closed_form("Kkk", 0)


def test_compose_k2_m2_is_k4():
    composed = compose_with_complete(dom_poly_bruteforce(complete(2)), 2)
    assert composed.coeffs == (0, 4, 6, 4, 1)
    assert composed.coeffs == dom_poly_bruteforce(complete(4)).coeffs


def test_compose_identity():
    p = dom_poly_closed_form("K22ell", 5)
    assert compose_with_complete(p, 1) is p


_signed = (st.integers(-10 ** 6, 10 ** 6) | st.sampled_from([0, 1, -1])
           | st.integers(-10 ** 40, 10 ** 40))


@given(st.lists(_signed, min_size=1, max_size=13), st.integers(1, 9))
@example([0], 5)
@example([-4], 3)
@example([3, -1, 0], 4)  # a zero top coefficient keeps its degree
@example([0, 0, 0, 0], 9)
@example([1, -(10 ** 40)] * 6 + [10 ** 40], 9)
def test_compose_matches_the_horner_reference(coeffs, m):
    p = DomPolynomial(tuple(coeffs))
    composed = compose_with_complete(p, m)
    assert len(composed.coeffs) == p.degree * m + 1
    assert composed.coeffs == compose_ref(coeffs, m)
    if m == 1:
        assert composed is p


def test_compose_star2_m3_vs_bruteforce():
    base = dom_poly_bruteforce(star(2))
    composed = compose_with_complete(base, 3)
    direct = dom_poly_bruteforce(substitute_complete(star(2), 3))
    assert composed.coeffs == direct.coeffs


def test_compose_matches_substitution_randomized(rng):
    for _ in range(40):
        n = rng.randint(1, 4)
        g = random_graph(rng, n)
        for m in (2, 3):
            composed = compose_with_complete(dom_poly_inclusion_exclusion(g), m)
            direct = dom_poly_bruteforce(substitute_complete(g, m))
            assert composed.coeffs == direct.coeffs


def test_eval_known_roots():
    k2 = dom_poly_bruteforce(complete(2))
    # the only known rational domination roots: 0 and -2, both from K_2
    assert eval_rational(k2, Fraction(-2)) == 0
    assert eval_rational(k2, Fraction(0)) == 0
    assert eval_rational(k2, Fraction(-1)) == -1


def test_eval_k2ell_at_minus_one():
    # D(K_{2,l}, -1) = (-1)^l + 2
    for ell in range(1, 9):
        p = dom_poly_closed_form("K22ell", ell)
        assert eval_rational(p, Fraction(-1)) == (-1) ** ell + 2
    assert eval_rational(dom_poly_closed_form("K22ell", 3), Fraction(-1)) == 1


def test_minus_one_never_a_root_small_orders():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert eval_rational(dom_poly_inclusion_exclusion(g), Fraction(-1)) != 0


def test_multiply():
    x = DomPolynomial((0, 1))
    assert multiply(x, x).coeffs == (0, 0, 1)
    k2 = dom_poly_bruteforce(complete(2))
    pair = multiply(k2, k2)
    assert pair.coeffs == dom_poly_bruteforce(disjoint_union(complete(2), complete(2))).coeffs
    one = DomPolynomial((1,))
    assert multiply(k2, one).coeffs == k2.coeffs


def test_multiply_matches_disjoint_union_randomized(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 4))
        h = random_graph(rng, rng.randint(1, 4))
        assert (
            multiply(dom_poly_bruteforce(g), dom_poly_bruteforce(h)).coeffs
            == dom_poly_bruteforce(disjoint_union(g, h)).coeffs
        )


def test_empty_graph_polynomial_is_monomial():
    for n in (1, 2, 5):
        assert dom_poly_bruteforce(empty_graph(n)).coeffs == tuple([0] * n + [1])


@given(st.integers(1, 6), st.data())
@settings(max_examples=60)
def test_graph_polynomial_invariants(n, data):
    edges = []
    for v in range(1, n):
        for u in range(v):
            if data.draw(st.booleans()):
                edges.append((u, v))
    g = from_edges(n, edges)
    p = dom_poly_inclusion_exclusion(g)
    assert len(p.coeffs) == n + 1
    assert p.coeffs[n] == 1  # monic
    assert p.coeffs[0] == 0  # the empty set dominates nothing
    assert all(0 <= p.coeffs[k] <= comb(n, k) for k in range(n + 1))
    gamma = p.domination_number
    assert all(p.coeffs[k] == 0 for k in range(gamma))
    assert all(p.coeffs[k] > 0 for k in range(gamma, n + 1))
    # every dominating set extends: supersets counted with multiplicity <= k+1
    for k in range(gamma, n):
        assert (k + 1) * p.coeffs[k + 1] >= (n - k) * p.coeffs[k]


def test_json_round_trip():
    p = compose_with_complete(dom_poly_closed_form("star", 9), 7)
    text = dompoly.to_json(p)
    assert dompoly.from_json(text).coeffs == p.coeffs
    assert '"n": 70' in text


def test_json_rejects_inconsistent_length():
    with pytest.raises(DomainError):
        dompoly.from_json('{"n": 3, "coeffs": ["0", "1"]}')


@pytest.mark.parametrize("text, message", [
    ("{}", 'fields "n" and "coeffs"'),
    ("[1]", 'fields "n" and "coeffs"'),
    ('{"n": 1}', 'fields "n" and "coeffs"'),
    ('{"n": "1", "coeffs": ["0", "1"]}', "field n must be an integer"),
    ('{"n": true, "coeffs": ["0", "1"]}', "field n must be an integer"),
    ('{"n": 1, "coeffs": "01"}', "field coeffs must be a list"),
    ('{"n": 0, "coeffs": ["a"]}', "coefficient 'a' is not a decimal integer"),
    ('{"n": 0, "coeffs": [1.5]}', "coefficient 1.5 is not a decimal integer"),
    ('{"n": 0, "coeffs": [null]}', "coefficient None is not a decimal integer"),
    ("not json", "not valid JSON"),
    ("", "not valid JSON"),
])
def test_json_malformed_raises_domain_error(text, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        dompoly.from_json(text)


def test_str_rendering():
    assert str(dom_poly_bruteforce(complete(2))) == "x^2 + 2x"
    assert str(DomPolynomial((0, 1))) == "x"
