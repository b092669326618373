import contextlib
import io
import math
import os
import random
import tempfile
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from domroots import atlas, cli, realroots
from domroots.atlas import (
    certified_negative_roots,
    enumerate_graphs,
    growth_check,
    root_cloud,
    root_cloud_from_graphs,
    smallest_root_table,
)
from domroots.dompoly import BLOCK, dom_poly_closed_form, dom_poly_inclusion_exclusion
from domroots.errors import CapacityError, DomainError
from domroots.graph import (
    Graph,
    _graph_from_mask,
    complete_bipartite,
    disjoint_union,
    empty_graph,
    from_graph6,
    mask_to_graph6,
    read_graph6_file,
    star,
    to_graph6,
)
from domroots.intpoly import cauchy_root_bound, mul, sign_at, trailing_zeros
from domroots.realroots import (
    DEFAULT_TOL,
    RationalInterval,
    count_real_roots,
    count_roots_in,
    sturm_chain,
)

from conftest import all_labeled_graphs, exact_negative_roots, prefix_chunk_ref, random_graph


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_graphs(2)) == 2
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(4)) == 64


def test_enumerate_cap():
    with pytest.raises(CapacityError):
        list(enumerate_graphs(8))
    # explicit override is allowed
    it = enumerate_graphs(8, labeled_cap=8)
    assert next(it).n == 8


def test_enumerate_modes():
    with pytest.raises(DomainError):
        list(enumerate_graphs(3, "unknown"))
    # the smallest masks of order 3: no edge, an edge, a path and a triangle
    assert [to_graph6(g) for g in enumerate_graphs(3, "dedup")] == ["B?", "B_", "Bo", "Bw"]


def test_dedup_counts_are_the_isomorphism_classes():
    # OEIS A000088: graphs on n unlabeled vertices
    counts = [sum(1 for _ in enumerate_graphs(n, "dedup")) for n in range(1, 7)]
    assert counts == [1, 2, 4, 11, 34, 156]


@pytest.mark.parametrize("n", [5, 6])
def test_dedup_classes_give_the_sweep_polynomials(n):
    classes = {dom_poly_inclusion_exclusion(g).coeffs for g in enumerate_graphs(n, "dedup")}
    assert classes == set(atlas._polynomial_ids(n, 1)[0])


def test_corpus_round_trip(tmp_path):
    graphs = list(enumerate_graphs(3))
    path = tmp_path / "order3.g6"
    path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
    back = list(read_graph6_file(path))
    assert back == graphs


def test_root_cloud_n2():
    records = list(root_cloud(2))
    # edgeless pair: D = x^2, only the root 0; K_2: roots -2 and 0
    assert [r.graph6 for r in records] == ["A?", "A_", "A_"]
    assert (records[0].root_lo, records[0].root_hi) == (0, 0)
    assert records[1].root_lo <= -2 <= records[1].root_hi
    assert (records[2].root_lo, records[2].root_hi) == (0, 0)


def test_root_cloud_sign_facts_n5():
    for rec in root_cloud(5):
        assert rec.root_hi <= 0
        assert not (rec.root_lo <= -1 <= rec.root_hi)


def test_root_cloud_cap():
    with pytest.raises(CapacityError):
        next(root_cloud(8))


def test_parallel_output_identical(monkeypatch):
    # order 6 (32,768 graphs) is above the serial cutoff, so two workers
    # each take half of the prefixes and the parent merges their ids; two
    # CPUs are pretended, as the pool has at most one worker per CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial = io.StringIO()
    parallel = io.StringIO()
    atlas.write_root_cloud_csv(root_cloud(6, workers=1), serial)
    atlas.write_root_cloud_csv(root_cloud(6, workers=2), parallel)
    assert serial.getvalue() == parallel.getvalue()


class _FakePool:
    """Stands in for a process pool: records its size and maps in-process."""

    def __init__(self, sizes, size):
        sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("cpus, workers, pool", [
    (4, 100_000, 4),  # a typo's worker count: one worker per CPU
    (4, 3, 3),
    (10 ** 6, 100_000, 1024),  # one worker per chunk: order 6 has 1024 prefixes
    (1, 100_000, None),  # one CPU runs serially
])
def test_worker_pool_is_capped(monkeypatch, cpus, workers, pool):
    import multiprocessing

    sizes = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(cpus), raising=False)
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda *a: mock.Mock(Pool=lambda size: _FakePool(sizes, size)))
    assert atlas._polynomial_ids(6, workers) == atlas._polynomial_ids(6, 1)
    assert sizes == ([pool] if pool else [])


def test_csv_of_the_sweep_matches_its_records():
    # the writer formats each distinct polynomial once; formatting every
    # record (a plain iterator takes that route) must give the same bytes
    cached = io.StringIO()
    per_record = io.StringIO()
    atlas.write_root_cloud_csv(root_cloud(5), cached)
    atlas.write_root_cloud_csv(iter(root_cloud(5)), per_record)
    assert cached.getvalue() == per_record.getvalue()


def test_sweep_polynomials_match_inclusion_exclusion():
    distinct = []
    for n in range(1, 7):
        polys, ids = atlas._polynomial_ids(n, 1)
        assert len(ids) == 1 << (n * (n - 1) // 2)
        assert len(set(polys)) == len(polys)
        for g, i in zip(all_labeled_graphs(n), ids):
            assert polys[i] == dom_poly_inclusion_exclusion(g).coeffs
        distinct.append(len(polys))
    assert distinct == [1, 2, 4, 10, 27, 88]


def _chunk_args(n, start, stop):
    return (n, math.comb(n, n // 2).bit_length(), start, stop)


@given(st.data())
@settings(max_examples=60)
def test_prefix_chunk_matches_the_list_transform(data):
    n = data.draw(st.integers(1, 7), label="n")
    prefixes = 1 << (n - 1) * (n - 2) // 2
    start = data.draw(st.integers(0, prefixes - 1), label="start")
    stop = data.draw(st.integers(start + 1, min(prefixes, start + 150)), label="stop")
    args = _chunk_args(n, start, stop)
    assert atlas._prefix_chunk(args) == prefix_chunk_ref(args)


@pytest.mark.parametrize("n", [8, 9])
def test_prefix_chunk_wide_slots(n):
    # keys above 2^64 (order 9) and biased slots above 2^64 (orders 8 and 9)
    # take slots wider than 8 bytes
    k = n - 1
    prefix_bits = k * (k - 1) // 2
    last = (1 << prefix_bits) - 1
    digit = math.comb(n, n // 2).bit_length()
    for start, stop in [(0, 2), (0x5A5A5 & last, (0x5A5A5 & last) + 1), (last - 1, last + 1)]:
        args = (n, digit, start, stop)
        keys, ids = atlas._prefix_chunk(args)
        assert (keys, ids) == prefix_chunk_ref(args)
        width = stop - start
        for s_mask in (0, 1, 0b1011, (1 << k) - 1):
            g = _graph_from_mask(stop - 1 | s_mask << prefix_bits, n)
            key = keys[ids[s_mask * width + width - 1]]
            coeffs = tuple(key >> digit * j & (1 << digit) - 1 for j in range(n + 1))
            assert coeffs == dom_poly_inclusion_exclusion(g).coeffs


@pytest.mark.parametrize("n", range(1, 10))
def test_slot_table_invariants(n):
    # every biased partial sum of the transform stays in [0, 2^W), and so
    # does every key, so no carry or borrow crosses a slot
    k = n - 1
    digit = math.comb(n, n // 2).bit_length()
    table, bias, nb = atlas._slot_table(n, digit)
    width = 8 * nb
    assert bias & bias - 1 == 0
    assert width >= k + bias.bit_length() and width >= digit * (n + 1)
    assert (width == 64) == (n <= 7)
    base = 1 << digit
    for a, row in enumerate(table):
        for m, cell in enumerate(row):
            assert len(cell) == nb
            e = int.from_bytes(cell, "little") - bias
            assert abs(e) < bias
            want = (-1) ** a.bit_count() * base * (base + 1) ** (k - m.bit_count())
            if m == len(row) - 1:
                want -= base ** a.bit_count()
            assert e == want


def test_root_cloud_from_graphs_matches_labeled():
    direct = list(root_cloud(3))
    streamed = list(root_cloud_from_graphs(enumerate_graphs(3)))
    assert direct == streamed


@st.composite
def graph6_corpora(draw):
    """``(text, labels)``: a graph6 corpus of orders 1-16, some lines with
    the ``>>graph6<<`` header or the long-form order and some blank, and the
    canonical graph6 of its graphs.  Orders 15 and 16 run inclusion-exclusion
    over the subsets above ``dompoly.BLOCK``."""
    lines, labels = [], []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.integers(1, 16))
        g6 = mask_to_graph6(draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)), n)
        long_order = "~" + "".join(chr(63 + (n >> k & 63)) for k in (12, 6, 0))
        lines += [""] * draw(st.integers(0, 1))
        lines.append(draw(st.sampled_from([g6, ">>graph6<<" + g6, long_order + g6[1:]])))
        labels.append(g6)
    event(f"an order above BLOCK: {any(ord(g6[0]) - 63 > BLOCK for g6 in labels)}")
    return "".join(line + "\n" for line in lines), labels


@settings(max_examples=40, deadline=None)
@given(graph6_corpora())
def test_file_mode_csv_is_the_records_of_its_graphs(corpus):
    # the CLI writes rows from the cloud's formatted parts; the graphs'
    # records, formatted one by one, must give the same bytes
    text, labels = corpus
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.g6")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["atlas", "0", "--mode", "file", "--input", path]) == 0
        want = io.StringIO()
        records = list(root_cloud_from_graphs(read_graph6_file(path)))
        atlas.write_root_cloud_csv(iter(records), want)
    assert out.getvalue() == want.getvalue()
    # every graph's last row is its root 0, the only enclosure that reaches 0
    assert [r.graph6 for r in records if r.root_hi == 0] == labels


def test_float_fast_path_agrees_with_exact(rng):
    # audit: identical enclosure sets per polynomial on a random sample
    cases = []
    seen = set()
    for _ in range(400):
        g = random_graph(rng, 6)
        coeffs = dom_poly_inclusion_exclusion(g).coeffs
        if coeffs in seen:
            continue
        seen.add(coeffs)
        cases.append((coeffs, None))
    # mixed signs: products of (d x - c) with roots on both sides of 0, and
    # (x - 1)(x - 2)(x + 3) = x^3 - 7x + 6 with its zero x^2 coefficient;
    # the float search misses their positive roots, so they must fall back
    for _ in range(30):
        roots = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        roots += [-Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        coeffs = [1]
        for r in set(roots):
            coeffs = mul(coeffs, [-r.numerator, r.denominator])
        cases.append((coeffs, sorted(set(roots))))
    cases.append(([6, -7, 0, 1], [-3, 1, 2]))
    # repeated factors: (x+2)^2 q, x (x^2+3x+1)^2, 2P_3's (x^3+3x^2+x)^2 and
    # D(G + H) = D(G) D(H); the search runs on the square-free part, so the
    # named ones stay on the float route
    floated = [mul([0, 1], mul([1, 3, 1], [1, 3, 1])), mul([0, 1, 3, 1], [0, 1, 3, 1])]
    for _ in range(20):
        q = dom_poly_inclusion_exclusion(random_graph(rng, rng.randint(3, 7))).coeffs
        floated.append(mul([4, 4, 1], q[trailing_zeros(q):]))
    cases += [(c, None) for c in floated]
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 5))
        h = g if rng.random() < 0.5 else random_graph(rng, rng.randint(2, 5))
        cases.append((dom_poly_inclusion_exclusion(disjoint_union(g, h)).coeffs, None))
    for c in floated:
        cof = c[trailing_zeros(c):]
        assert atlas._try_float_roots(cof, DEFAULT_TOL, sturm_chain(cof)) is not None
    for coeffs, roots in cases:
        fast = certified_negative_roots(coeffs, DEFAULT_TOL)
        exact = exact_negative_roots(coeffs, DEFAULT_TOL)
        assert len(fast) == len(exact)
        for (a, b), (c, d) in zip(fast, exact):
            # same root: the enclosures must overlap or touch within tol
            assert max(a, c) <= min(b, d) + DEFAULT_TOL
        if roots is not None:
            # every true root, positive ones included, is enclosed; exact
            # isolation returns a rational root it bisects onto as (r, r)
            assert len(fast) == len(roots)
            for (a, b), r in zip(fast, roots):
                assert a < r < b or a == r == b


# The float search as a loop over the coefficients: the reference that the
# per-degree kernels must match float for float.


def _loop_float_sign(c, x):
    acc = 0.0
    for coef in reversed(c):
        acc = acc * x + coef
    return 1 if acc > 0.0 else -1


def _loop_float_candidates(c, lo, hi, width=0.0):
    deg = len(c) - 1
    if deg < 1:
        return []
    if deg == 1:
        r = -c[0] / c[1]
        return [r] if lo < r < hi else []
    der = [i * c[i] for i in range(1, len(c))]
    # the derivative's roots only place segment ends: its levels halve coarsely
    pts = [lo, *_loop_float_candidates(der, lo, hi, atlas._LEVEL_WIDTH), hi]
    signs = [_loop_float_sign(c, x) for x in pts]
    top_down = c[::-1]
    roots = []
    for a, b, sa, sb in zip(pts, pts[1:], signs, signs[1:]):
        if sa == sb:
            continue
        up = sa > 0
        x, y = a, b
        steps = math.frexp((y - x) / (width * (1.0 + min(abs(x), abs(y)))))[1] if width else 200
        for _ in range(steps):
            mid = 0.5 * (x + y)
            if mid <= x or mid >= y:
                break
            acc = 0.0
            for coef in top_down:
                acc = acc * mid + coef
            if (acc > 0.0) == up:
                x = mid
            else:
                y = mid
        roots.append(0.5 * (x + y))
    return roots


def _outcome(fn, *args):
    """Every float bit of ``fn(*args)``."""
    return [r.hex() for r in fn(*args)]


_HUGE = (st.floats(min_value=-1e308, max_value=1e308, allow_nan=False, allow_infinity=False)
         | st.sampled_from([1e308, -1e308, 1e307, -1e307]))


@st.composite
def float_searches(draw, degrees=st.integers(1, 40), kinds=("small", "repeated", "huge")):
    """``(coefficients, lo, hi)``: small integer coefficients; products with
    repeated factors, whose multiple roots are roots of the derivative too,
    so a segment end lands on or next to a root; or huge coefficients, whose
    derivatives and Horner sums overflow to inf and nan.  ``degrees`` draws
    the degree of the small and huge kinds."""
    kind = draw(st.sampled_from(kinds))
    if kind == "repeated":
        ints = [1]
        while len(ints) < 3 or (len(ints) < 38 and draw(st.booleans())):
            p, q = draw(st.integers(-9, 9)), draw(st.integers(1, 4))
            for _ in range(draw(st.integers(1, 3))):
                ints = mul(ints, [p, q])
        c = [float(v) for v in ints]
    else:
        small = st.integers(-50, 50).map(float)
        top = (st.integers(1, 50) | st.integers(-50, -1)).map(float)
        if kind == "huge":
            small, top = small | _HUGE, top | _HUGE.filter(bool)
        deg = draw(degrees)
        c = draw(st.lists(small, min_size=deg, max_size=deg))
        c.append(draw(top))
    bound = 1.0 + max(abs(v) for v in c[:-1]) / abs(c[-1])
    bound = min(bound, 1e308)
    bracket = draw(st.sampled_from(["negative axis", "both axes", "random"]))
    if bracket == "negative axis":
        lo, hi = -bound, 0.0
    elif bracket == "both axes":
        lo, hi = -bound, bound
    else:
        lo, hi = sorted(draw(st.lists(st.floats(-100, 100) | _HUGE, min_size=2, max_size=2)))
    event(kind)
    return c, lo, hi


@settings(max_examples=300)
@given(float_searches())
@example(([1e-20, 0.0, 1e-20], -2.0, 0.0))  # values far below 1 keep their signs
def test_horner_kernels_match_the_coefficient_loop(case):
    # the printed digits follow the bisection path, so the kernels must give
    # the loop's floats bit for bit
    c, lo, hi = case
    want = _outcome(_loop_float_candidates, c, lo, hi)
    event("candidates" if want else "no candidates")
    assert _outcome(atlas._float_candidates, c, lo, hi) == want
    # the search takes its signs at the ends of its segments, so a bracket
    # ending at x checks them at x, at every derivative level; it evaluates
    # at finite points only, where 0.0 * x + c is c
    for x in (0.5 * lo + 0.5 * hi, -1.0, -2.0):
        for a, b in ((lo, x), (x, hi)):
            assert _outcome(atlas._float_candidates, c, a, b) == \
                _outcome(_loop_float_candidates, c, a, b)


@settings(max_examples=200)
@given(float_searches(st.sampled_from([15, 16, 17, 31, 32, 33]), ("small", "huge")))
def test_root_search_matches_the_coefficient_loop_at_chunk_boundaries(case):
    # a statement holds 16 Horner steps, so these degrees end one statement
    # exactly, or spill one or two steps into the next
    c, lo, hi = case
    assert _outcome(atlas._float_candidates, c, lo, hi) == \
        _outcome(_loop_float_candidates, c, lo, hi)


def test_horner_kernels_match_the_coefficient_loop_on_domination_polynomials(rng):
    # near a root the float sign is noisy, so on about 3% of these another
    # midpoint or Horner order lands on other floats; a derivative level's
    # coarse root is a segment end of the level above, so the loop must stop
    # its derivative levels at the kernels' width too
    for _ in range(400):
        coeffs = dom_poly_inclusion_exclusion(random_graph(rng, rng.randint(8, 12))).coeffs
        cof = coeffs[trailing_zeros(coeffs):]
        c, lo = [float(v) for v in cof], -float(cauchy_root_bound(cof))
        assert _outcome(atlas._float_candidates, c, lo, 0.0) == \
            _outcome(_loop_float_candidates, c, lo, 0.0)


def test_horner_kernels_match_the_coefficient_loop_at_degree_300():
    # sum a_i x^i / i! scaled by 10^300: every derivative stays finite, so
    # the search bisects at each of the 300 degrees (245 bisections)
    rng = random.Random(0)
    c = [float(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)) * 10 ** 300, math.factorial(i)))
         for i in range(301)]
    want = _outcome(_loop_float_candidates, c, -5.0, 0.0)
    assert want == ["-0x1.c7ccada1687fep+1", "-0x1.20192a62d10dep-1"]
    assert _outcome(atlas._float_candidates, c, -5.0, 0.0) == want


def test_derivative_levels_stop_at_the_level_width():
    # x^2 - 2 on (0, 2): a derivative level halves the segment until it is
    # narrower than _LEVEL_WIDTH (1 + 0), the top level to adjacent floats
    search = atlas._root_search(2)
    (coarse,), (fine,) = search(0.0, 2.0, atlas._LEVEL_WIDTH, -2.0, 0.0, 1.0), \
        search(0.0, 2.0, 0.0, -2.0, 0.0, 1.0)
    assert abs(fine - math.sqrt(2.0)) <= math.ulp(fine)
    assert 0.0 < abs(coarse - fine) < atlas._LEVEL_WIDTH / 2
    assert _loop_float_candidates([-2.0, 0.0, 1.0], 0.0, 2.0, atlas._LEVEL_WIDTH) == [coarse]


def test_few_domination_polynomials_fall_back_to_sturm_isolation():
    # 2,000 seeded graphs of orders 8-12, edge probability uniform per graph:
    # none of the 1,312 distinct zero-free polynomials fails the float route,
    # and a change that sends any of them to Sturm isolation fails this test
    rng = random.Random(1)
    polys = set()
    for k in range(2000):
        n, p = 8 + k % 5, rng.random()
        adj = [0] * n
        for v in range(1, n):
            for u in range(v):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        coeffs = dom_poly_inclusion_exclusion(Graph(n, tuple(adj))).coeffs
        polys.add(coeffs[trailing_zeros(coeffs):])
    assert len(polys) == 1312
    fallbacks = sum(atlas._try_float_roots(list(c), DEFAULT_TOL, sturm_chain(c)) is None
                    for c in polys if len(c) > 1)
    assert fallbacks == 0


def _overlap_root_for_root(got, want, tol=DEFAULT_TOL):
    """``got`` encloses the roots of ``want``, one each: the same count, each
    enclosure at most ``tol`` wide and strictly above the one before, and
    each one overlapping the exact enclosure of its root."""
    assert len(got) == len(want)
    assert all(hi - lo <= tol for lo, hi in got)
    assert all(hi < lo for (_, hi), (lo, _) in zip(got, got[1:]))
    for (a, b), (c, d) in zip(got, want):
        assert max(a, c) <= min(b, d)


def test_a_float_sign_near_zero_on_a_derivative_level_only_guesses():
    # the zero-free part of D(KCH_W@??Oaa?): a float sign on a derivative
    # level lies within 1e3 machine epsilons of zero; it only places a
    # segment end, so the polynomial stays on the float route
    coeffs = dom_poly_inclusion_exclusion(from_graph6("KCH_W@??Oaa?")).coeffs
    cof = list(coeffs[trailing_zeros(coeffs):])
    assert cof == [3, 51, 211, 361, 336, 187, 63, 12, 1]
    got = atlas._try_float_roots(cof, DEFAULT_TOL, sturm_chain(cof))
    assert got is not None
    assert [round(float(lo), 3) for lo, _ in got] == [-2.618, -2.270, -0.382, -0.084]
    _overlap_root_for_root(got, exact_negative_roots(cof))


def test_a_float_root_past_the_float_range_falls_back():
    # x^2 + 1.3e308 x + 2e305 has a root near -1.3e308, the search's end: the
    # search's midpoint there overflows to -inf, which has no integer ratio
    cof = [2 * 10 ** 305, 13 * 10 ** 307, 1]
    assert float("-inf") in atlas._float_candidates([float(c) for c in cof],
                                                    atlas._search_end(cof), 0.0)
    assert atlas._try_float_roots(cof, DEFAULT_TOL, sturm_chain(cof)) is None
    assert certified_negative_roots(cof) == exact_negative_roots(cof)


def test_a_fallback_isolates_on_the_chain_it_built(monkeypatch):
    # the polynomial above falls back to Sturm isolation, which takes the
    # chain the float route built instead of building a second one
    cof = [2 * 10 ** 305, 13 * 10 ** 307, 1]
    expected = exact_negative_roots(cof)
    chains = []

    def counted(p):
        chains.append(p)
        return sturm_chain(p)

    monkeypatch.setattr(atlas, "sturm_chain", counted)
    monkeypatch.setattr(realroots, "sturm_chain", counted)
    assert certified_negative_roots(cof) == expected
    assert len(chains) == 1


@st.composite
def wrong_guesses(draw):
    """``(coefficients, kind, guesses)``: the domination polynomial of a
    small graph, squared at times for repeated roots, and a float guess at
    its nonzero roots that may be unsorted, duplicated, of the wrong count,
    the right count at random places, the true roots shifted by about
    ``tol/2``, or the true roots themselves."""
    n = draw(st.integers(2, 7))
    g = _graph_from_mask(draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)), n)
    coeffs = dom_poly_inclusion_exclusion(g).coeffs
    if draw(st.booleans()):
        coeffs = tuple(mul(coeffs, coeffs))
    true = [float((lo + hi) / 2) for lo, hi in exact_negative_roots(coeffs) if hi < 0]
    cof = coeffs[trailing_zeros(coeffs):]
    places = st.floats(-float(cauchy_root_bound(cof)) if len(cof) > 1 else -1.0, 0.0)
    kind = draw(st.sampled_from(
        ["unsorted", "duplicated", "wrong count", "wrong places", "shifted", "true"]))
    if kind == "unsorted":
        guesses = draw(st.permutations(true))
    elif kind == "duplicated" and true:
        i, j = draw(st.integers(0, len(true) - 1)), draw(st.integers(0, len(true) - 1))
        guesses = sorted(true + [true[i]])
        if draw(st.booleans()):  # the right count: root i in place of root j
            guesses = sorted(true[:j] + [true[i]] + true[j + 1:])
    elif kind == "wrong count":
        guesses = list(true)
        if guesses and draw(st.booleans()):
            guesses.pop(draw(st.integers(0, len(guesses) - 1)))
        else:
            guesses = sorted(guesses + [draw(places)])
    elif kind == "wrong places":
        guesses = sorted(draw(st.lists(places, min_size=len(true), max_size=len(true))))
    elif kind == "shifted":
        half = float(DEFAULT_TOL) / 2
        guesses = [r + draw(st.sampled_from([-1, 1])) * half * draw(st.floats(0.9, 1.1))
                   for r in true]
    else:
        guesses = true
    event(kind)
    return coeffs, kind, guesses


@settings(max_examples=300, deadline=None)
@given(wrong_guesses())
def test_wrong_float_guesses_still_give_the_exact_roots(case):
    # the float search only guesses: whatever it returns, each root comes out
    # certified by exact checks, either on the float route or by isolation
    coeffs, kind, guesses = case
    want = exact_negative_roots(coeffs)
    cof = list(coeffs[trailing_zeros(coeffs):])
    with mock.patch.object(atlas, "_float_candidates", lambda c, lo, hi: list(guesses)):
        if len(cof) > 1 and kind == "true":
            assert atlas._try_float_roots(cof, DEFAULT_TOL, sturm_chain(cof)) is not None
        got = certified_negative_roots(coeffs)
    assert got[-1:] == want[-1:] == [(0, 0)]
    _overlap_root_for_root(got[:-1], want[:-1])


def _counted_certifications(monkeypatch) -> list:
    """The root keys of every later ``certified_negative_roots`` call that
    the atlas makes."""
    keys = []

    def counted(coeffs, tol):
        keys.append(atlas._root_key(tuple(coeffs)))
        return certified_negative_roots(coeffs, tol)

    monkeypatch.setattr(atlas, "certified_negative_roots", counted)
    return keys


def test_isolated_vertices_share_one_certification(monkeypatch):
    # D(G + 2K_1) = x^2 D(G): the same roots, 0 included, from one certification
    keys = _counted_certifications(monkeypatch)
    g = complete_bipartite(2, 3)
    h = disjoint_union(g, empty_graph(2))
    rows = list(root_cloud_from_graphs([g, h]))
    assert len(keys) == 1
    ours = [(r.root_lo, r.root_hi) for r in rows if r.n == g.n]
    theirs = [(r.root_lo, r.root_hi) for r in rows if r.n == h.n]
    assert ours[-1] == (0, 0) and len(ours) >= 2 and ours == theirs
    assert theirs == certified_negative_roots(dom_poly_inclusion_exclusion(h).coeffs)
    # the labeled sweep, written and iterated: each key once per call
    polys = atlas._polynomial_ids(5, 1)[0]
    for use in (lambda c: atlas.write_root_cloud_csv(c, io.StringIO()), list):
        keys.clear()
        use(root_cloud(5))
        assert sorted(keys) == sorted({atlas._root_key(c) for c in polys})
    # the extremal table keeps one dict over its orders, where D(G + K_1) =
    # x D(G) shares a key across orders: each key once
    keys.clear()
    smallest_root_table(5)
    every = {atlas._root_key(c) for n in range(1, 6) for c in atlas._polynomial_ids(n, 1)[0]}
    assert sorted(keys) == sorted(every)
    assert len(keys) < sum(len(atlas._polynomial_ids(n, 1)[0]) for n in range(1, 6))


def test_no_certification_is_kept_between_calls(monkeypatch):
    # each call has its own dict, so a second call certifies again
    keys = _counted_certifications(monkeypatch)
    first = io.StringIO()
    atlas.write_root_cloud_csv(root_cloud(5), first)
    once = len(keys)
    second = io.StringIO()
    atlas.write_root_cloud_csv(root_cloud(5), second)
    assert once > 0 and len(keys) == 2 * once
    assert first.getvalue() == second.getvalue()


def test_certified_roots_reject_zero_poly():
    with pytest.raises(DomainError):
        certified_negative_roots((0, 0))


def test_certified_roots_ascend_with_zero_in_place():
    # x(x - 1)(x + 3): the positive root 1 fails the count, and on the
    # isolation path the root 0 lies between the others
    cof = [-3, 2, 1]
    assert atlas._try_float_roots(cof, DEFAULT_TOL, sturm_chain(cof)) is None
    roots = certified_negative_roots([0, *cof])
    assert len(roots) == 3 and all(a <= r <= b for (a, b), r in zip(roots, (-3, 0, 1)))
    assert roots[1] == (0, 0)
    # D(K_{3,3}) = x^2 (...) on the float path: its two negative roots, then 0
    coeffs = dom_poly_closed_form("Kkk", 3).coeffs
    cof = list(coeffs[trailing_zeros(coeffs):])
    assert atlas._try_float_roots(cof, DEFAULT_TOL, sturm_chain(cof)) is not None
    roots = certified_negative_roots(coeffs)
    assert len(roots) == 3 and roots[-1] == (0, 0)
    assert all(b < c for (_, b), (c, _) in zip(roots, roots[1:]))


def test_coarse_tol_enclosures_stop_short_of_zero():
    # x^2 (x^2 + 3x + 1): at tol 1 the float root -0.382 got (-0.882, 0.118),
    # which reached past the exact root 0; isolation keeps it negative
    coeffs = (0, 0, 1, 3, 1)
    cof = list(coeffs[2:])
    assert atlas._try_float_roots(cof, Fraction(1), sturm_chain(cof)) is None
    assert certified_negative_roots(coeffs, Fraction(1)) == [
        (-3, Fraction(-5, 2)), (Fraction(-1, 2), Fraction(-1, 4)), (0, 0)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
           st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))),
       st.sampled_from([Fraction(1, 10 ** 9), Fraction(1, 2), Fraction(1), Fraction(2)]))
def test_certified_roots_contract_at_any_tolerance(graph, tol):
    # ascending, disjoint, nonpositive, one root in each, and every root
    coeffs = dom_poly_inclusion_exclusion(_graph_from_mask(graph[1], graph[0])).coeffs
    roots = certified_negative_roots(coeffs, tol)
    chain = sturm_chain(coeffs)
    assert len(roots) == count_real_roots(chain)
    assert all(b < c for (_, b), (c, _) in zip(roots, roots[1:]))
    for lo, hi in roots:
        assert lo <= hi <= 0 and hi - lo <= tol
        if lo == hi:
            assert sign_at(list(coeffs), lo) == 0
        else:
            assert count_roots_in(chain, RationalInterval(lo, hi)) == 1


@settings(max_examples=300)
@given(st.lists(st.integers(-10, 10) | st.integers(-10 ** 400, 10 ** 400), min_size=1, max_size=20),
       st.integers(1, 10) | st.integers(1, 10 ** 400) | st.integers(-10 ** 400, -1))
def test_search_end_is_the_cauchy_bound(lower, lead):
    # int true division rounds as Fraction's float does, overflow included
    cof = [*lower, lead]
    try:
        want = -float(cauchy_root_bound(cof))
    except OverflowError:
        with pytest.raises(OverflowError):
            atlas._search_end(cof)
        return
    assert atlas._search_end(cof) == want


def test_smallest_root_table_small_orders():
    table = smallest_root_table(4)
    assert [r.n for r in table] == [1, 2, 3, 4]
    assert table[0].root_lo == 0 and table[0].root_hi == 0
    # order 2: the root is -2 and the record carries the sign-typo note
    assert abs(float(table[1].root_lo) + 2) < 1e-9
    assert table[1].note != ""
    assert table[1].graph6 == "A_"
    # orders 3 and 4: stars attain the published extremal values
    assert abs(float(table[2].root_lo) + 2.618033989) < 5e-9
    assert abs(float(table[3].root_lo) + 3.147899036) < 5e-9
    assert all(r.exhaustive for r in table)


def test_smallest_root_table_star_rows_beyond_cap():
    table = smallest_root_table(9, labeled_cap=3)
    beyond = [r for r in table if r.n > 3]
    assert all(not r.exhaustive for r in beyond)
    assert all(r.note for r in beyond)
    by_n = {r.n: r for r in table}
    assert abs(float(by_n[9].root_lo) + 5.309330065) < 5e-9
    assert from_graph6(by_n[8].graph6).degree_sequence() == (1,) * 7 + (7,)


def test_star_rows_are_the_stars_past_the_vertex_cap():
    # a star row's graph6 is written from its edge mask, with no Graph built
    table = smallest_root_table(64, labeled_cap=1)
    assert [r.graph6 for r in table[1:]] == [to_graph6(star(n - 1)) for n in range(2, 65)]


def test_growth_check():
    rows = growth_check(9)
    by_n = {r.n: r for r in rows}
    assert abs(by_n[3].ratio - 2.618033989 / (3 / __import__("math").log(3))) < 1e-6
    assert abs(by_n[9].magnitude - 5.309330065) < 1e-6
    assert all(0.5 < r.ratio < 2.0 for r in rows)
    with pytest.raises(DomainError):
        growth_check(2)


def test_csv_headers():
    out = io.StringIO()
    atlas.write_root_cloud_csv(root_cloud(2), out)
    lines = out.getvalue().strip().split("\n")
    assert lines[0] == "graph6,n,root_lo,root_hi"
    assert lines[1] == "A?,2,0.000000000000,0.000000000000"

    out = io.StringIO()
    atlas.write_table_csv(smallest_root_table(3), out)
    lines = out.getvalue().strip().split("\n")
    assert lines[0] == "n,root_lo,root_hi,graph6,exhaustive"
    assert lines[1].endswith(",true")


def test_extremal_graph_has_star_polynomial():
    # at order 5 the scan's minimum is attained by a labeled star
    table = smallest_root_table(5)
    rec = table[4]
    g = from_graph6(rec.graph6)
    assert dom_poly_inclusion_exclusion(g).coeffs == dom_poly_closed_form("star", 4).coeffs
