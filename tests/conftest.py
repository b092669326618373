import random

import pytest
from hypothesis import HealthCheck, settings

from domroots.graph import Graph

settings.register_profile(
    "domroots",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("domroots")


def all_labeled_graphs(n):
    """Every graph on n labeled vertices, in edge-mask order."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for idx, (u, v) in enumerate(pairs):
            if mask >> idx & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield Graph(n, tuple(adj))


def random_graph(rng: random.Random, n: int) -> Graph:
    adj = [0] * n
    for v in range(1, n):
        for u in range(v):
            if rng.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def star_form_sign(k, u, v):
    """Sign of ``u (u+v)^k + u^k v`` from the integer itself: the reference
    for the star kernel."""
    val = u * (u + v) ** k + u ** k * v
    return (val > 0) - (val < 0)


@pytest.fixture
def rng():
    return random.Random(0xD07)
