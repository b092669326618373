"""Simple-graph representation with word-sized adjacency bitmasks.

Vertices are ``0..n-1`` and each adjacency row is one Python int used as a
bitmask, so a graph up to the 64-vertex cap fits in a handful of machine
words and neighbourhood unions are single OR instructions.  Graphs are
immutable after construction and safe to share between workers.

:data:`FAMILIES` describes every named family once; the closed forms, the
witness families and the CLI's family spellings are looked up in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations, product, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import CapacityError, DomainError, Graph6ParseError

VERTEX_CAP = 64

_G6_HEADER = ">>graph6<<"


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: vertex count plus per-vertex neighbour masks."""

    n: int
    adj: tuple

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"graph order must be a positive integer, got {self.n!r}")
        if self.n > VERTEX_CAP:
            raise CapacityError(f"graph order {self.n} exceeds the cap of {VERTEX_CAP}")
        if len(self.adj) != self.n:
            raise DomainError("adjacency table length does not match the order")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise DomainError(f"vertex {v} has neighbours outside 0..{self.n - 1}")
            if mask >> v & 1:
                raise DomainError(f"loop at vertex {v}")
        for v, mask in enumerate(self.adj):
            while mask:
                low = mask & -mask
                u = low.bit_length() - 1
                if not self.adj[u] >> v & 1:
                    raise DomainError(f"asymmetric edge {{{v},{u}}}")
                mask ^= low

    def neighbors(self, v: int) -> frozenset:
        self._check_vertex(v)
        return frozenset(_bits(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edges(self) -> Iterator[tuple]:
        for v in range(self.n):
            for u in _bits(self.adj[v]):
                if u > v:
                    yield (v, u)

    def degree_sequence(self) -> tuple:
        return tuple(sorted(m.bit_count() for m in self.adj))

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise DomainError(f"vertex {v} out of range for order {self.n}")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_edges(n: int, edges: Iterable) -> Graph:
    """Build a graph from an edge list; loops and duplicates are rejected."""
    if n < 1:
        raise DomainError("graph order must be >= 1")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise DomainError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge {{{u},{v}}} out of range for order {n}")
        if adj[u] >> v & 1:
            raise DomainError(f"duplicate edge {{{u},{v}}}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

def complete(n: int) -> Graph:
    """Complete graph on ``n`` vertices."""
    if n < 1:
        raise DomainError("complete graph needs order >= 1")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def empty_graph(n: int) -> Graph:
    """Edgeless graph on ``n`` vertices."""
    if n < 1:
        raise DomainError("empty graph needs order >= 1")
    return Graph(n, (0,) * n)


def complete_bipartite(k: int, ell: int) -> Graph:
    """K_{k,l}: sides {0..k-1} and {k..k+l-1}, all cross edges."""
    if k < 1 or ell < 1:
        raise DomainError("complete bipartite sides must be >= 1")
    left = (1 << k) - 1
    right = ((1 << ell) - 1) << k
    adj = [right] * k + [left] * ell
    return Graph(k + ell, tuple(adj))


def star(k: int) -> Graph:
    """Star with ``k`` leaves (K_{1,k}); the centre is vertex 0 by convention."""
    if k < 1:
        raise DomainError("star needs at least one leaf")
    return complete_bipartite(1, k)


class Family(NamedTuple):
    """A named family: its parameter names (their count is the arity), its
    spelling in the CLI's ``--family`` mini-language (or None), its shape -
    the constructor of ``K_n``, of the edgeless ``E_n`` or of ``K_{a,b}`` -
    and the map from its parameters to the shape's."""

    params: tuple
    cli: Optional[str]
    shape: Callable
    to_shape: Callable


# One record per named family.  The paper's density families are all
# K_{a,b}: stars, K_{2,l} and K_{k,k}.
FAMILIES = {
    "complete": Family(("n",), "complete", complete, lambda n: (n,)),
    "complete_bipartite": Family(("k", "l"), "kbip", complete_bipartite, lambda k, ell: (k, ell)),
    "star": Family(("k",), "star", complete_bipartite, lambda k: (1, k)),
    "Kkk": Family(("k",), "kkk", complete_bipartite, lambda k: (k, k)),
    "empty_graph": Family(("n",), "empty", empty_graph, lambda n: (n,)),
    "K22ell": Family(("l",), None, complete_bipartite, lambda ell: (2, ell)),
}


def family_shape(kind: str, *params: int) -> tuple:
    """``(shape, shape parameters)`` of a named family of :data:`FAMILIES`."""
    try:
        fam = FAMILIES[kind]
    except KeyError:
        raise DomainError(f"unknown graph family {kind!r}") from None
    arity = len(fam.params)
    if len(params) != arity:
        raise DomainError(f"family {kind!r} takes {arity} parameter(s), got {len(params)}")
    if not all(isinstance(p, int) and p >= 1 for p in params):
        raise DomainError(f"family {kind!r} needs positive integer parameters, got {params}")
    return fam.shape, fam.to_shape(*params)


def family(kind: str, *params: int) -> Graph:
    """The graph of a named family of :data:`FAMILIES`, e.g. ``family("star", 3)``."""
    shape, args = family_shape(kind, *params)
    return shape(*args)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def substitute_complete(g: Graph, m: int) -> Graph:
    """Substitute a clique K_m for every vertex of ``g``.

    Block ``i`` occupies vertices ``i*m .. i*m+m-1`` (block-major order);
    blocks are cliques and two blocks are completely joined exactly when the
    underlying vertices are adjacent.
    """
    if m < 1:
        raise DomainError("substitution order must be >= 1")
    n = g.n * m
    if n > VERTEX_CAP:
        raise CapacityError(
            f"substitution would create {n} vertices, above the cap of {VERTEX_CAP}"
        )
    block = (1 << m) - 1
    block_masks = [block << (i * m) for i in range(g.n)]
    adj = []
    for i in range(g.n):
        joined = 0
        for j in _bits(g.adj[i]):
            joined |= block_masks[j]
        for t in range(m):
            v = i * m + t
            adj.append((block_masks[i] ^ (1 << v)) | joined)
    return Graph(n, tuple(adj))


def closed_neighborhood_mask(g: Graph, mask: int) -> int:
    """N[A] as a bitmask for a vertex-set bitmask ``A``."""
    out = 0
    for v in _bits(mask):
        out |= g.adj[v] | (1 << v)
    return out


def closed_neighborhood_union(g: Graph, vertices: Iterable) -> frozenset:
    """N[A]: the union of closed neighbourhoods over ``A``; empty for A = {}."""
    mask = 0
    for v in vertices:
        g._check_vertex(v)
        mask |= 1 << v
    return frozenset(_bits(closed_neighborhood_mask(g, mask)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """G + H with H's vertices shifted by n(G); no cross edges."""
    n = g.n + h.n
    if n > VERTEX_CAP:
        raise CapacityError(f"union would have {n} vertices, above the cap of {VERTEX_CAP}")
    adj = list(g.adj) + [m << g.n for m in h.adj]
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

# 6-bit groups reversed (an involution): graph6 puts a group's first bit high
_REV6 = [int(f"{i:06b}"[::-1], 2) for i in range(64)]


@cache
def _edge_pairs(n: int) -> tuple:
    """Vertex pair of each edge-mask bit: (0,1), (0,2), (1,2), (0,3), ...,
    the graph6 bit order, so an edge mask doubles as the graph6 payload."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def class_masks(n: int) -> Iterator[int]:
    """The smallest edge mask (:func:`_edge_pairs`) of every isomorphism
    class of order-``n`` graphs, in ascending order, by orbit marking.

    A table of ``2^(n(n-1)/2)`` bytes marks the masks seen.  The next
    unmarked one (``bytearray.find``) is the smallest of a new class, and
    its images under all ``n!`` relabelings are marked.  Each edge has an
    int of ``array("I")`` slots, one per relabeling, holding the bit that
    the edge moves to; a mask's images are the sum of its edges' ints, in
    which no carry crosses a slot, as the edges' bits are distinct.
    """
    from array import array
    from collections import deque

    pairs = _edge_pairs(n)
    bit = {pair: 1 << i for i, pair in enumerate(pairs)}
    relabelings = list(permutations(range(n)))
    moves = [int.from_bytes(array("I", [bit[min(p[u], p[v]), max(p[u], p[v])]
                                        for p in relabelings]), "little")
             for u, v in pairs]
    size = len(relabelings) * array("I").itemsize
    marked = bytearray(1 << len(pairs))
    mask = 0
    while mask >= 0:
        yield mask
        images = array("I", sum(map(moves.__getitem__, _bits(mask))).to_bytes(size, "little"))
        deque(map(marked.__setitem__, images, repeat(1)), 0)
        mask = marked.find(0, mask + 1)


def _graph_from_mask(mask: int, n: int) -> Graph:
    """The graph whose edges are ``pairs[i]`` (:func:`_edge_pairs`) for each
    set bit ``i``.  Column ``j`` of the upper triangle, the neighbours of
    ``j`` below it, is the ``j`` bits from bit ``j(j-1)/2`` on, so each
    column is read in one shift and only its set bits are walked.  Rows
    read from an edge mask are symmetric and loop-free, so for
    ``1 <= n <= VERTEX_CAP`` the checks of :class:`Graph` are not run."""
    adj = [0] * n
    for j in range(1, n):
        col = mask >> (j * (j - 1) >> 1) & ((1 << j) - 1)
        adj[j] = col
        bit = 1 << j
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= bit
            col ^= low
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", tuple(adj))
    return g


def from_graph6(text: str) -> Graph:
    """Decode one graph6-encoded graph (optionally prefixed with the header)."""
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):]
    text = text.rstrip("\r\n")
    if not text:
        raise Graph6ParseError("empty graph6 input", 0)
    data = [ord(c) for c in text]
    for off, b in enumerate(data):
        if not 63 <= b <= 126:
            raise Graph6ParseError(f"byte {b} outside the printable graph6 range", off)
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6ParseError("8-byte order encoding exceeds the vertex cap", 0)
        if len(data) < 4:
            raise Graph6ParseError("truncated long-form order", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
        body_off = 4
    else:
        n = data[0] - 63
        body = data[1:]
        body_off = 1
    if n == 0:
        raise Graph6ParseError("graph of order 0 is not supported", 0)
    if n > VERTEX_CAP:
        raise CapacityError(f"graph6 order {n} exceeds the cap of {VERTEX_CAP}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6ParseError(
            f"expected {need} edge byte(s) for order {n}, got {len(body)}",
            body_off + min(len(body), need),
        )
    mask = 0
    for b in reversed(body):
        mask = mask << 6 | _REV6[b - 63]
    if mask >> nbits:
        raise Graph6ParseError("nonzero padding bits", body_off + need - 1)
    return _graph_from_mask(mask, n)


def to_graph6(g: Graph) -> str:
    """Encode a graph in graph6; round-trips with :func:`from_graph6`."""
    mask, idx = 0, 0
    for j in range(1, g.n):
        mask |= (g.adj[j] & ((1 << j) - 1)) << idx
        idx += j
    return mask_to_graph6(mask, g.n)


def mask_to_graph6(mask: int, n: int) -> str:
    """graph6 of the order-``n`` graph whose edges are the bits of ``mask``,
    upper triangle in column-major order: (0,1), (0,2), (1,2), (0,3), ..."""
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    body = [_REV6[mask >> g & 63] + 63 for g in range(0, n * (n - 1) // 2, 6)]
    return bytes(head + body).decode("ascii")


def labeled_graph6(n: int) -> Iterator[str]:
    """graph6 of every graph on ``n`` labeled vertices, in ascending edge
    mask order: the strings ``mask_to_graph6(mask, n)`` for every mask."""
    nbits = n * (n - 1) // 2
    # one character per 6-bit group of the mask; the low group varies fastest
    groups = [[chr(_REV6[v] + 63) for v in range(1 << min(6, nbits - g))]
              for g in range(0, nbits, 6)]
    empty = mask_to_graph6(0, n)
    header = empty[:len(empty) - len(groups)]
    heads = [header + c for c in groups[0]] if groups else [header]
    for high in product(*reversed(groups[1:])):
        tail = "".join(reversed(high))
        for head in heads:
            yield head + tail


# what str.strip() removes from ASCII text; the Latin-1 spaces \x85 and \xa0
# stay in the line and fail the decoder's range check
_ASCII_SPACE = " \t\n\r\v\f\x1c\x1d\x1e\x1f"


def read_graph6_file(path) -> Iterator[Graph]:
    """Every graph of a one-graph-per-line graph6 corpus file, decoded as the
    file is read.  Blank lines are skipped.  Each byte is one character
    (Latin-1), so a non-ASCII byte fails the decoder's range check, and
    every error starts with the 1-based number of its line."""
    with open(path, encoding="latin-1") as fh:
        for number, line in enumerate(fh, 1):
            text = line.strip(_ASCII_SPACE)
            if text:
                try:
                    g = from_graph6(text)
                except (Graph6ParseError, CapacityError) as exc:
                    exc.args = (f"line {number}: {exc}",)  # what str(exc) prints
                    raise
                yield g
