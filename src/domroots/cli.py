"""Command-line surface.

Subcommands: ``poly``, ``roots``, ``witness``, ``atlas``, ``star-roots``,
``compose``.  All numeric inputs parse as exact rationals ("-3/2" and
"-1.5" are both accepted); floats never enter any certification path.

Exit codes: 0 success, 2 usage or parse error, 3 capacity or budget
exhaustion, 4 internal invariant violation, and 141 (what a shell reports
for a process that SIGPIPE ended) when the reader of stdout closes it
early, as ``| head`` does; that exit prints nothing.  Results go to stdout,
diagnostics to stderr.  ``--workers N`` sets the worker processes of the
labeled sweeps and the extremal table.

``poly``, ``roots`` and ``compose`` read one graph, ``--graph6`` or a
``--family`` of the mini-language (``star:3``, ``kbip:2,3``).  Above order
12 a family's closed form is used and no graph is built, so the 64-vertex
cap binds only ``--graph6`` input and ``poly --method brute|inex``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import atlas, dompoly, realroots, witness
from .dompoly import DomPolynomial
from .errors import (
    BudgetExhaustedError,
    CapacityError,
    DomainError,
    DomRootsError,
    Graph6ParseError,
    InternalInvariantError,
)
from .graph import FAMILIES, family, from_graph6, read_graph6_file
from .realroots import DEFAULT_TOL, RationalInterval, _tolerance, format_fixed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141


_FAMILY_BY_CLI = {f.cli: kind for kind, f in FAMILIES.items() if f.cli}
_FAMILY_USAGE = "families: " + ", ".join(
    f"{f.cli}:{','.join(f.params)}" for f in FAMILIES.values() if f.cli
)


def _polynomial(args, method: str = "auto") -> DomPolynomial:
    """D(G) of the ``--graph6`` or ``--family`` input by ``method``.

    ``auto`` cross-checks the routes up to order 12.  Above it, it returns a
    family's closed form before any graph exists, and inclusion-exclusion
    for ``--graph6`` input.  A family's graph is built only for ``brute``,
    ``inex`` and that cross-check.

    Disagreement between routes is a bug in this package, never in the input,
    so it surfaces as an internal invariant violation with a dump of every
    route's coefficient vector.
    """
    closed = None
    if args.graph6:
        g = from_graph6(args.graph6)
    elif args.family:
        name, _, rest = args.family.partition(":")
        try:
            params = [int(p) for p in rest.split(",")] if rest else []
        except ValueError:
            raise DomainError(
                f"bad family parameters in {args.family!r}; {_FAMILY_USAGE}") from None
        kind = _FAMILY_BY_CLI.get(name)
        if kind is None or len(params) != len(FAMILIES[kind].params):
            raise DomainError(f"unrecognized family {args.family!r}; {_FAMILY_USAGE}")
        if method == "auto":
            closed = dompoly.dom_poly_closed_form(kind, *params)
            if closed.degree > 12:  # the degree is the order
                return closed
        g = family(kind, *params)
    else:
        raise DomainError("provide --graph6 or --family")
    if method == "brute":
        return dompoly.dom_poly_bruteforce(g)
    if method == "inex" or g.n > 12:
        return dompoly.dom_poly_inclusion_exclusion(g)
    a = dompoly.dom_poly_inclusion_exclusion(g)
    routes = {"inclusion-exclusion": a, "bruteforce": dompoly.dom_poly_bruteforce(g)}
    if closed is not None:
        routes["closed-form"] = closed
    if any(v.coeffs != a.coeffs for v in routes.values()):
        dump = "; ".join(f"{k}={list(v.coeffs)}" for k, v in routes.items())
        raise InternalInvariantError(f"polynomial routes disagree: {dump}")
    return a


def _emit_poly(p: DomPolynomial, fmt: str, out) -> None:
    if fmt == "json":
        out.write(dompoly.to_json(p) + "\n")
    elif fmt == "csv":
        out.write("k,coeff\n")
        for k, c in enumerate(p.coeffs):
            out.write(f"{k},{c}\n")
    else:
        out.write(str(p) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_poly(args, out) -> int:
    _emit_poly(_polynomial(args, args.method), args.format, out)
    return EXIT_OK


def _default_window(p: DomPolynomial) -> RationalInterval:
    m = max(abs(c) for c in p.coeffs)
    lo = -Fraction((p.degree + 1) * max(m, 1))
    return RationalInterval(lo, Fraction(0))


def _cmd_roots(args, out) -> int:
    p = _polynomial(args)
    if args.window:
        win = RationalInterval(*args.window)
    else:
        win = _default_window(p)
    encs = realroots.isolate_real_roots(p, win, args.tol)
    if args.format == "json":
        rows = [realroots.enclosure_json(e) for e in encs]
        out.write(json.dumps(rows, indent=2) + "\n")
    elif args.format == "csv":
        out.write("root_lo,root_hi,note\n")
        for e in encs:
            out.write(f"{format_fixed(e.interval.lo)},{format_fixed(e.interval.hi)},{e.note}\n")
    else:
        for e in encs:
            out.write(f"{format_fixed(e.midpoint)}  [{e.note}]\n")
    return EXIT_OK


def _cmd_witness(args, out) -> int:
    cert = witness.construct_witness(args.z, args.eps, args.budget, args.tol)
    report = witness.verify_certificate(cert)
    out.write(witness.certificate_to_json(cert) + "\n")
    print(str(report), file=sys.stderr)
    if not report.ok:
        raise InternalInvariantError("emitted certificate failed verification")
    return EXIT_OK


def _cmd_atlas(args, out) -> int:
    if args.table:
        records = atlas.smallest_root_table(args.n, args.tol, workers=args.workers)
        atlas.write_table_csv(records, out)
        return EXIT_OK
    if args.growth:
        atlas.write_growth_csv(atlas.growth_check(args.n, args.tol), out)
        return EXIT_OK
    # every input check runs before the CSV header is written
    if args.mode == "file":
        if not args.input or not os.path.isfile(args.input):
            raise DomainError(f"--mode file needs an existing --input file, got {args.input!r}")
        graphs = read_graph6_file(args.input)
        records = atlas.root_cloud_from_graphs(graphs, args.tol)
    elif args.mode == "dedup":
        graphs = atlas.enumerate_graphs(args.n, "dedup")
        records = atlas.root_cloud_from_graphs(graphs, args.tol)
    else:
        records = atlas.root_cloud(args.n, args.tol, workers=args.workers)
    atlas.write_root_cloud_csv(records, out)
    return EXIT_OK


def _cmd_star_roots(args, out) -> int:
    records = realroots.star_gap_report(args.k_max, args.tol)
    out.write(realroots.star_gap_csv(records))
    return EXIT_OK


def _cmd_compose(args, out) -> int:
    composed = dompoly.compose_with_complete(_polynomial(args), args.m)
    _emit_poly(composed, args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _add_input_flags(sp) -> None:
    sp.add_argument("--graph6", help="graph6-encoded input graph")
    sp.add_argument("--family", help=_FAMILY_USAGE)


_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    """Reads every negative number, such as ``-3/2``, as a value: argparse's
    own pattern covers ``-3`` and ``-1.5`` only, and takes ``-3/2`` for an
    unknown option.  No option starts with a digit."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_NUMBER.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the
    process: parsing does not change it, and a build costs about 15 times
    a parse."""
    ap = _Parser(
        prog="domroots",
        description="Exact domination polynomials, certified real roots, "
        "and constructive root-density witnesses.",
    )
    ap.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    ap.add_argument("--tol", default=None, help="certification tolerance (rational)")
    ap.add_argument("--workers", type=int, default=1)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("poly", help="print a domination polynomial")
    _add_input_flags(sp)
    sp.add_argument("--method", choices=("auto", "brute", "inex"), default="auto")
    sp.set_defaults(func=_cmd_poly)

    sp = sub.add_parser("roots", help="certified real-root enclosures")
    _add_input_flags(sp)
    sp.add_argument("--window", nargs=2, metavar=("LO", "HI"))
    sp.set_defaults(func=_cmd_roots)

    sp = sub.add_parser("witness", help="construct and verify a density witness")
    sp.add_argument("-z", required=True, help="target point (rational, <= 0)")
    sp.add_argument("-e", "--eps", required=True, help="radius (rational, > 0)")
    sp.add_argument("--max-m", type=int, default=witness.SearchBudget.max_m)
    sp.add_argument("--max-param", type=int, default=witness.SearchBudget.max_param)
    sp.add_argument("--max-degree", type=int, default=witness.SearchBudget.max_degree)
    sp.set_defaults(func=_cmd_witness)

    sp = sub.add_parser("atlas", help="root cloud / extremal table / growth CSVs")
    sp.add_argument("n", type=int)
    sp.add_argument("--mode", choices=("all", "dedup", "file"), default="all")
    sp.add_argument("--input", help="graph6 corpus file for --mode file")
    table = sp.add_mutually_exclusive_group()
    table.add_argument("--table", action="store_true", help="emit the extremal-root table")
    table.add_argument("--growth", action="store_true", help="emit the growth-ratio table")
    sp.set_defaults(func=_cmd_atlas)

    sp = sub.add_parser("star-roots", help="certified star-root progression CSV")
    sp.add_argument("k_max", type=int)
    sp.set_defaults(func=_cmd_star_roots)

    sp = sub.add_parser("compose", help="substitute a clique into the input graph")
    _add_input_flags(sp)
    sp.add_argument("-m", type=int, required=True, help="clique order")
    sp.set_defaults(func=_cmd_compose)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # the order of the checks is the order of the errors reported
        args.tol = DEFAULT_TOL if args.tol is None else _tolerance(args.tol)
        if args.command == "witness":
            args.budget = witness.SearchBudget(args.max_m, args.max_param, args.max_degree)
        if args.workers < 1:
            raise DomainError("worker count must be >= 1")
        return args.func(args, sys.stdout)
    except (DomainError, Graph6ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, BudgetExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except DomRootsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout points at the closed pipe until exit, whose flush would
        # raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
