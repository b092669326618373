import io
from fractions import Fraction

import pytest

from domroots import atlas
from domroots.atlas import (
    certified_negative_roots,
    enumerate_graphs,
    growth_check,
    root_cloud,
    root_cloud_from_graphs,
    smallest_root_table,
)
from domroots.dompoly import dom_poly_closed_form, dom_poly_inclusion_exclusion
from domroots.errors import CapacityError, DomainError
from domroots.graph import from_graph6, read_graph6_file, to_graph6
from domroots.intpoly import mul
from domroots.realroots import DEFAULT_TOL

from conftest import all_labeled_graphs, random_graph


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
    # order 3: the four isomorphism classes all have distinct signatures
    assert sum(1 for _ in enumerate_graphs(3, "dedup")) == 4


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


def test_parallel_output_identical():
    # order 6 (32,768 graphs) is above the serial cutoff, so two workers
    # each take half of the prefixes and the parent merges their ids
    serial = io.StringIO()
    parallel = io.StringIO()
    atlas.write_root_cloud_csv(root_cloud(6, workers=1), serial)
    atlas.write_root_cloud_csv(root_cloud(6, workers=2), parallel)
    assert serial.getvalue() == parallel.getvalue()


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


def test_root_cloud_from_graphs_matches_labeled():
    direct = list(root_cloud(3))
    streamed = list(root_cloud_from_graphs(enumerate_graphs(3)))
    assert direct == streamed


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
    for coeffs, roots in cases:
        fast = certified_negative_roots(coeffs, DEFAULT_TOL)
        exact = certified_negative_roots(coeffs, DEFAULT_TOL, exact=True)
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


def test_certified_roots_reject_zero_poly():
    with pytest.raises(DomainError):
        certified_negative_roots((0, 0))


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
