"""Output checks, run after the timed phase and outside it.

Each check recomputes what it can by a route independent of the one the
workload timed: polynomials by brute force (the atlas uses
inclusion-exclusion), root counts by Sturm sequences over the whole real
line, certificates by ``verify_certificate`` on the re-parsed JSON.  Every
check returns a list of problems (empty when the output is correct) and the
indices of the ``cli.main`` calls whose output failed.

Root-cloud CSVs print endpoints rounded to 12 decimals, which can move an
endpoint by up to half a unit in the last place; sign checks therefore
widen every enclosure by ``1e-12`` on each side.  Exact enclosures (a point
``lo == hi``) need no widening: domination polynomials are monic, so their
rational roots are integers and print exactly.
"""

from __future__ import annotations

import csv
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from domroots import intpoly  # noqa: E402
from domroots.dompoly import closed_form_star, dom_poly_bruteforce  # noqa: E402
from domroots.errors import DomRootsError  # noqa: E402
from domroots.graph import from_graph6  # noqa: E402
from domroots.realroots import RationalInterval, count_roots_in, sturm_chain  # noqa: E402
from domroots.witness import certificate_from_json, verify_certificate  # noqa: E402

CSV_HEADER = ["graph6", "n", "root_lo", "root_hi"]
PRINT_SLACK = Fraction(1, 10 ** 12)
MAX_PROBLEMS = 20


class _Problems(list):
    """A problem list that keeps only the first ``MAX_PROBLEMS`` messages."""

    def add(self, message: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(message)


class _RootCounter:
    """Distinct real roots per polynomial, by a Sturm count over the whole
    line, memoised because many graphs share a polynomial."""

    def __init__(self):
        self._memo = {}

    def chain_and_count(self, coeffs: tuple):
        got = self._memo.get(coeffs)
        if got is None:
            chain = sturm_chain(coeffs)
            if intpoly.degree(list(chain.squarefree)) < 1:
                got = (chain, 0)
            else:
                bound = intpoly.cauchy_root_bound(list(coeffs))
                # no positive roots: D(G, 1) counts dominating sets, so it is > 0
                got = (chain, count_roots_in(chain, RationalInterval(-bound - 1, Fraction(1))))
            self._memo[coeffs] = got
        return got


def _read_rows(path, problems):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        problems.add(f"root-cloud CSV header is {rows[:1]!r}, expected {CSV_HEADER!r}")
        return []
    return rows[1:]


def check_sweep(csv_path, order: int):
    """Labeled sweep of one order: every graph once, every root <= 0, no
    enclosure containing -1, one row per distinct real root (Sturm count of
    the brute-force polynomial), and the minimum root from a star."""
    problems = _Problems()
    rows = _read_rows(csv_path, problems)
    counter = _RootCounter()
    minus_one = Fraction(-1)
    per_graph = {}
    last = None
    best = None
    for row in rows:
        if len(row) != 4:
            problems.add(f"malformed row {row!r}")
            continue
        g6, n, lo_s, hi_s = row
        lo, hi = Fraction(lo_s), Fraction(hi_s)
        if n != str(order):
            problems.add(f"{g6}: order {n}, expected {order}")
        if not lo <= hi <= 0:
            problems.add(f"{g6}: enclosure [{lo_s}, {hi_s}] is not a nonpositive interval")
        if lo <= minus_one <= hi:
            problems.add(f"{g6}: enclosure [{lo_s}, {hi_s}] contains -1")
        if g6 != last:
            if g6 in per_graph:
                problems.add(f"{g6}: rows are not contiguous")
            per_graph[g6] = 0
            last = g6
        per_graph[g6] += 1
        if best is None or lo < best[0]:
            best = (lo, g6)
    expected_graphs = 1 << (order * (order - 1) // 2)
    if len(per_graph) != expected_graphs:
        problems.add(f"{len(per_graph)} graphs in the CSV, expected {expected_graphs}")
    for g6, got in per_graph.items():
        coeffs = dom_poly_bruteforce(from_graph6(g6)).coeffs
        _, want = counter.chain_and_count(coeffs)
        if got != want:
            problems.add(f"{g6}: {got} enclosures, Sturm count of distinct real roots is {want}")
    if best is not None:
        extremal = dom_poly_bruteforce(from_graph6(best[1])).coeffs
        if extremal != closed_form_star(order - 1).coeffs:
            problems.add(f"minimum root comes from {best[1]}, whose polynomial is not the star's")
    return problems, {0} if problems else set()


def check_corpus(csv_path, graph6_lines):
    """Corpus root cloud: rows follow the input graphs in order; each graph
    has one enclosure per distinct real root of its brute-force polynomial,
    and every enclosure is sign-certified (exact roots evaluate to zero)."""
    problems = _Problems()
    rows = _read_rows(csv_path, problems)
    counter = _RootCounter()
    pos = 0
    for g6 in graph6_lines:
        g = from_graph6(g6)
        coeffs = dom_poly_bruteforce(g).coeffs
        chain, want = counter.chain_and_count(coeffs)
        mine = rows[pos:pos + want]
        pos += want
        if len(mine) != want or any(r[:2] != [g6, str(g.n)] for r in mine):
            problems.add(f"{g6}: expected {want} rows for this graph at CSV row {pos - want + 2}")
            break
        squarefree = list(chain.squarefree)
        prev_hi = None
        for _, _, lo_s, hi_s in mine:
            lo, hi = Fraction(lo_s), Fraction(hi_s)
            if lo == hi:
                if intpoly.sign_at(list(coeffs), lo) != 0:
                    problems.add(f"{g6}: exact root {lo_s} does not evaluate to zero")
                a = b = lo
            else:
                a, b = lo - PRINT_SLACK, hi + PRINT_SLACK
                if intpoly.sign_at(squarefree, a) * intpoly.sign_at(squarefree, b) != -1:
                    problems.add(f"{g6}: no sign change across [{lo_s}, {hi_s}]")
                elif count_roots_in(chain, RationalInterval(a, b)) != 1:
                    problems.add(f"{g6}: [{lo_s}, {hi_s}] holds more than one distinct root")
            if prev_hi is not None and not prev_hi < a:
                problems.add(f"{g6}: enclosures overlap or are out of order at {lo_s}")
            prev_hi = b
    if pos != len(rows):
        problems.add(f"{len(rows)} CSV rows, the corpus accounts for {pos}")
    return problems, {0} if problems else set()


def check_witness(calls, queries):
    """Every certificate re-parses, passes ``verify_certificate`` and answers
    the query asked.  Exit code 3 (budget exhausted) is a failed operation,
    not a wrong output, so it is left to the caller to count."""
    problems = _Problems()
    bad = set()
    for i, (call, query) in enumerate(zip(calls, queries)):
        z, eps = query[:2]
        if call["rc"] != 0:
            continue
        try:
            cert = certificate_from_json(call["stdout"])
            report = verify_certificate(cert)
        except (ValueError, KeyError, TypeError, DomRootsError) as exc:
            problems.add(f"witness {z} {eps}: unreadable certificate ({exc!r})")
            bad.add(i)
            continue
        if not report.ok:
            problems.add(f"witness {z} {eps}: certificate fails verification:\n{report}")
            bad.add(i)
        elif (cert.target_z, cert.epsilon) != (Fraction(z), Fraction(eps)):
            problems.add(f"witness {z} {eps}: certificate answers "
                         f"({cert.target_z}, {cert.epsilon})")
            bad.add(i)
    return problems, bad
