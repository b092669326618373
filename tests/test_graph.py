import functools
import itertools

import pytest
from hypothesis import given, strategies as st

from domroots.errors import CapacityError, DomainError, DomRootsError, Graph6ParseError
from domroots.graph import (
    Graph,
    _edge_pairs,
    class_masks,
    closed_neighborhood_union,
    complete,
    complete_bipartite,
    disjoint_union,
    empty_graph,
    family,
    from_edges,
    from_graph6,
    labeled_graph6,
    star,
    substitute_complete,
    to_graph6,
)

from conftest import all_labeled_graphs


# decoded by hand from the 6-bit upper-triangle packing: 'A'=order 2,
# '_'=32+63 whose top bit is the single (0,1) edge; '@'=order 1, no payload
def test_graph6_k2():
    g = from_graph6("A_")
    assert g.n == 2
    assert list(g.edges()) == [(0, 1)]


def test_graph6_k1():
    g = from_graph6("@")
    assert g.n == 1
    assert g.edge_count() == 0


def test_graph6_empty_input():
    with pytest.raises(Graph6ParseError) as exc:
        from_graph6("")
    assert exc.value.offset == 0


def test_graph6_order_zero_rejected():
    with pytest.raises(Graph6ParseError):
        from_graph6("?")


def test_graph6_length_mismatch():
    with pytest.raises(Graph6ParseError):
        from_graph6("A")  # order 2 needs one edge byte
    with pytest.raises(Graph6ParseError):
        from_graph6("A__")  # one byte too many


def test_graph6_bad_byte():
    with pytest.raises(Graph6ParseError) as exc:
        from_graph6("A" + chr(20))
    assert exc.value.offset == 1


def test_graph6_header_accepted():
    assert from_graph6(">>graph6<<A_") == from_graph6("A_")


def test_graph6_nonzero_padding_rejected():
    # order 2: only bit 0 of the payload is meaningful
    with pytest.raises(Graph6ParseError):
        from_graph6("A" + chr(63 + 1))


def test_graph6_long_form_round_trip():
    g = empty_graph(63)
    assert from_graph6(to_graph6(g)) == g
    g64 = complete(64)
    assert from_graph6(to_graph6(g64)) == g64


def test_graph6_over_cap():
    # long-form order 100
    text = chr(126) + chr(63) + chr(63 + 1) + chr(63 + 36)
    with pytest.raises(CapacityError):
        from_graph6(text)


def test_graph6_round_trip_exhaustive_small():
    for n in (1, 2, 3, 4):
        for g in all_labeled_graphs(n):
            assert from_graph6(to_graph6(g)) == g


def test_labeled_graph6_follows_mask_order():
    for n in range(1, 7):
        assert list(labeled_graph6(n)) == [to_graph6(g) for g in all_labeled_graphs(n)]


@given(st.integers(2, 16), st.data())
def test_graph6_round_trip_random(n, data):
    edges = []
    for v in range(1, n):
        for u in range(v):
            if data.draw(st.booleans()):
                edges.append((u, v))
    g = from_edges(n, edges)
    assert from_graph6(to_graph6(g)) == g


@st.composite
def _graph6_shaped(draw):
    """An order byte and about as many payload bytes as it needs, mostly
    printable, so decoding gets past the length check to the padding bits."""
    n = draw(st.integers(1, 20))
    need = max((n * (n - 1) // 2 + 5) // 6 + draw(st.integers(-1, 1)), 0)
    body = draw(st.lists(st.integers(63, 126) | st.integers(0, 255), min_size=need, max_size=need))
    return bytes([63 + n] + body)


@given(st.binary(max_size=40) | _graph6_shaped())
def test_graph6_decoder_raises_only_package_errors(raw):
    text = raw.decode("latin-1")  # one character per byte, printable or not
    try:
        g = from_graph6(text)
    except DomRootsError:
        return
    body = text.removeprefix(">>graph6<<").rstrip("\r\n")
    assert all(63 <= ord(c) <= 126 for c in body)
    assert from_graph6(to_graph6(g)) == g


def test_graph6_non_ascii_rejected():
    with pytest.raises(Graph6ParseError) as exc:
        from_graph6("A\xe9")
    assert exc.value.offset == 1


def test_family_c4():
    c4 = family("complete_bipartite", 2, 2)
    assert c4.n == 4
    assert c4.edge_count() == 4
    # each side pair mutually non-adjacent, all cross edges
    assert not c4.has_edge(0, 1) and not c4.has_edge(2, 3)
    assert c4.has_edge(0, 2) and c4.has_edge(1, 3)


def test_family_star1_is_k2():
    assert family("star", 1) == complete(2)


def test_family_complete4():
    k4 = family("complete", 4)
    assert k4.edge_count() == 6
    assert all(k4.has_edge(u, v) for u in range(4) for v in range(u + 1, 4))


def test_family_size_zero_rejected():
    for kind, params in (("complete", (0,)), ("star", (0,)),
                         ("complete_bipartite", (0, 3)), ("empty_graph", (0,)),
                         ("Kkk", (0,)), ("K22ell", (-1,)), ("star", (1, 2))):
        with pytest.raises(DomainError):
            family(kind, *params)


def test_family_unknown():
    with pytest.raises(DomainError):
        family("wheel", 5)


def test_star_center_is_vertex_zero():
    s = star(4)
    assert s.neighbors(0) == frozenset({1, 2, 3, 4})
    assert s.degree_sequence() == (1, 1, 1, 1, 4)


def test_substitute_k2_k2_is_k4():
    assert substitute_complete(complete(2), 2) == complete(4)


def test_substitute_identity():
    for g in (star(3), complete_bipartite(2, 3), complete(4)):
        assert substitute_complete(g, 1) == g


def test_substitute_k2_m3_is_k6():
    assert substitute_complete(complete(2), 3) == complete(6)


def test_substitute_counts():
    g = complete_bipartite(2, 3)
    for m in (2, 3):
        h = substitute_complete(g, m)
        assert h.n == g.n * m
        assert h.edge_count() == m * m * g.edge_count() + g.n * (m * (m - 1) // 2)


def test_substitute_cap():
    with pytest.raises(CapacityError):
        substitute_complete(complete(33), 2)


def test_closed_neighborhood_star_center():
    s = star(3)
    assert closed_neighborhood_union(s, {0}) == frozenset({0, 1, 2, 3})


def test_closed_neighborhood_empty():
    assert closed_neighborhood_union(star(3), set()) == frozenset()


def test_closed_neighborhood_c4():
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert closed_neighborhood_union(c4, {0}) == frozenset({0, 1, 3})


def test_closed_neighborhood_whole_vertex_set():
    for g in (star(4), complete(5), empty_graph(3)):
        assert closed_neighborhood_union(g, range(g.n)) == frozenset(range(g.n))


def test_closed_neighborhood_out_of_range():
    with pytest.raises(DomainError):
        closed_neighborhood_union(star(2), {5})


def test_disjoint_union():
    u = disjoint_union(complete(1), complete(1))
    assert u == empty_graph(2)
    m = disjoint_union(complete(2), complete(2))
    assert m.edge_count() == 2 and m.n == 4
    c4 = complete_bipartite(2, 2)
    w = disjoint_union(complete(1), c4)
    assert w.n == 5 and w.edge_count() == 4


def test_disjoint_union_cap():
    with pytest.raises(CapacityError):
        disjoint_union(complete(40), complete(30))


def test_graph_invariants_enforced():
    with pytest.raises(DomainError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(DomainError):
        Graph(1, (0b1,))  # loop
    with pytest.raises(DomainError):
        Graph(0, ())
    with pytest.raises(CapacityError):
        Graph(65, (0,) * 65)


def test_from_edges_rejects_bad_edges():
    with pytest.raises(DomainError):
        from_edges(3, [(0, 0)])
    with pytest.raises(DomainError):
        from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(DomainError):
        from_edges(2, [(0, 5)])


@functools.cache
def _class_masks(n):
    return frozenset(class_masks(n))


def _relabel(mask, n, p):
    """The edge mask of the graph of ``mask`` with vertex ``v`` renamed ``p[v]``."""
    pairs = _edge_pairs(n)
    image = 0
    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            image |= 1 << pairs.index((min(p[u], p[v]), max(p[u], p[v])))
    return image


def _representative(mask, n):
    """The emitted masks in the orbit of ``mask``, found by brute force over
    all ``n!`` relabelings, and the orbit's smallest mask."""
    orbit = {_relabel(mask, n, q) for q in itertools.permutations(range(n))}
    return {r for r in _class_masks(n) if r in orbit}, min(orbit)


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1),
                        st.permutations(range(n)))))
def test_class_masks_one_smallest_mask_per_orbit(drawn):
    n, mask, p = drawn
    reps, smallest = _representative(mask, n)
    # the mask and its image reach the same one emitted mask, the smallest
    assert reps == {smallest}
    assert _representative(_relabel(mask, n, p), n) == (reps, smallest)
