"""Span tracing for the benchmark's traced runs, and the per-layer metrics.

A traced run replaces the public functions that one domroots module calls
in another with wrappers that record a span per call: which boundary was
crossed, the span that was open when the call started (its parent), and the
start and end on the ``perf_counter_ns`` clock.  Only the benchmark installs
the wrappers, at run time; no file of the package changes, and an untraced
run installs none.

Spans are held in memory in one flat ``array('q')`` (four integers per
span) while the workload runs, written to a file when it ends, and reduced
by :func:`summarize` to a call count, an inclusive time and a self time per
boundary.  A span's self time is its duration minus the time its child spans
cover; calls are synchronous, so children never overlap and the covered time
is the sum of their durations.  :func:`layer_metrics` maps those sums onto
the per-layer metric names listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter_ns

FIELDS = 4  # name id, parent span index (-1 at the root), start ns, end ns

# (module, attribute, span name).  The attribute is replaced on the module
# object, so the caller's own global lookup finds the wrapper: names a module
# imported with ``from ... import`` are patched in the importing module, and
# names reached as ``module.function`` are patched on the defining module.
# Span names read ``caller>callee``; the benchmark's call into the CLI is
# traced as ``cli.main`` by the worker itself.
BOUNDARIES = (
    ("domroots.atlas", "root_cloud", "cli>atlas.root_cloud"),
    ("domroots.atlas", "root_cloud_from_graphs", "cli>atlas.root_cloud_from_graphs"),
    ("domroots.atlas", "enumerate_graphs", "cli>atlas.enumerate_graphs"),
    ("domroots.atlas", "write_root_cloud_csv", "cli>atlas.write_root_cloud_csv"),
    ("domroots.atlas", "certified_negative_roots", "atlas.certified_negative_roots"),
    ("domroots.atlas", "dom_poly_inclusion_exclusion",
     "atlas>dompoly.dom_poly_inclusion_exclusion"),
    ("domroots.atlas", "to_graph6", "atlas>graph.to_graph6"),
    ("domroots.atlas", "sturm_chain", "atlas>realroots.sturm_chain"),
    ("domroots.atlas", "count_roots_in", "atlas>realroots.count_roots_in"),
    ("domroots.atlas", "isolate_real_roots", "atlas>realroots.isolate_real_roots"),
    ("domroots.atlas", "format_fixed", "atlas>realroots.format_fixed"),
    ("domroots.graph", "from_graph6", "atlas>graph.from_graph6"),
    ("domroots.witness", "construct_witness", "cli>witness.construct_witness"),
    ("domroots.witness", "verify_certificate", "cli>witness.verify_certificate"),
    ("domroots.witness", "certificate_to_json", "cli>witness.certificate_to_json"),
    ("domroots.witness", "compose_with_complete", "witness>dompoly.compose_with_complete"),
    ("domroots.witness", "sturm_chain", "witness>realroots.sturm_chain"),
    ("domroots.witness", "count_roots_in", "witness>realroots.count_roots_in"),
    ("domroots.witness", "isolate_real_roots", "witness>realroots.isolate_real_roots"),
    ("domroots.witness", "star_root_estimate", "witness>realroots.star_root_estimate"),
    ("domroots.intpoly", "sign_at", "intpoly.sign_at"),
)

CLI_SPAN = "cli.main"
SINK_SPAN = "atlas>sink.write"
EXHAUSTED_CELLS = "witness.exhausted_cells"


class Tracer:
    """Records nested spans for the functions it wraps."""

    def __init__(self):
        self.names = []
        self.spans = array("q")
        self.counters = {}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        nid = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            i = len(spans) // FIELDS
            spans.extend((nid, stack[-1], clock(), 0))
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i * FIELDS + 3] = clock()

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def install(self, modules: dict) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`; ``modules`` maps module
        names to imported modules, as ``sys.modules`` does."""
        for mod_name, attr, span_name in BOUNDARIES:
            mod = modules[mod_name]
            setattr(mod, attr, self.wrap(span_name, getattr(mod, attr)))
        # the exhausted-budget frontier is only visible on the exception,
        # which the CLI turns into exit code 3
        witness = modules["domroots.witness"]
        budget_error = modules["domroots.errors"].BudgetExhaustedError
        construct = witness.construct_witness

        def construct_counted(*args, **kwargs):
            try:
                return construct(*args, **kwargs)
            except budget_error as exc:
                self.count(EXHAUSTED_CELLS, exc.frontier["cells_tested"])
                raise

        witness.construct_witness = construct_counted

    def dump(self, path) -> None:
        """Write names, counters and spans: a JSON header line, then raw spans."""
        header = {"names": self.names, "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            self.spans.tofile(fh)


def load(path):
    """Read back what :meth:`Tracer.dump` wrote: ``(names, counters, spans)``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        spans = array("q")
        spans.frombytes(fh.read())
    return header["names"], header["counters"], spans


def summarize(names, spans) -> dict:
    """``{span name: {"calls", "total_ns", "self_ns"}}`` over all spans."""
    if len(spans) % FIELDS:
        raise ValueError("span array length is not a multiple of the record size")
    ids = spans[0::FIELDS]
    parents = spans[1::FIELDS]
    starts = spans[2::FIELDS]
    ends = spans[3::FIELDS]
    durations = [e - s for s, e in zip(starts, ends)]
    if any(d < 0 for d in durations):
        raise ValueError("a span ended before it started (left open?)")
    covered = [0] * len(durations)
    for parent, d in zip(parents, durations):
        if parent >= 0:
            covered[parent] += d
    out = {}
    for nid, d, c in zip(ids, durations, covered):
        agg = out.get(names[nid])
        if agg is None:
            agg = out[names[nid]] = {"calls": 0, "total_ns": 0, "self_ns": 0}
        agg["calls"] += 1
        agg["total_ns"] += d
        agg["self_ns"] += d - c
    return out


# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("cli.self_s", "s"),
    ("atlas.scan_self_s", "s"),
    ("atlas.certify_s", "s"),
    ("atlas.certify_calls", "count"),
    ("atlas.cache_hit_ratio", "ratio"),
    ("atlas.float_fallback_ratio", "ratio"),
    ("atlas.csv_write_s", "s"),
    ("dompoly.ie_s", "s"),
    ("dompoly.ie_calls", "count"),
    ("dompoly.compose_s", "s"),
    ("dompoly.compose_calls", "count"),
    ("realroots.sturm_chain_s", "s"),
    ("realroots.sturm_chain_calls", "count"),
    ("realroots.count_s", "s"),
    ("realroots.count_calls", "count"),
    ("realroots.isolate_s", "s"),
    ("realroots.isolate_calls", "count"),
    ("realroots.star_estimate_calls", "count"),
    ("intpoly.sign_at_s", "s"),
    ("intpoly.sign_at_calls", "count"),
    ("graph.decode_s", "s"),
    ("graph.encode_s", "s"),
    ("witness.construct_self_s", "s"),
    ("witness.verify_s", "s"),
    ("witness.exhausted_cells", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(summary: dict, counters: dict, graphs: int) -> dict:
    """Per-layer metrics of one traced repetition (all but the overhead ratio).

    ``graphs`` is the number of graphs the repetition fed to the atlas; a
    ratio whose base is zero (no graphs, no certify calls) reads 0.
    """

    def calls(*spans):
        return sum(summary[s]["calls"] for s in spans if s in summary)

    def total(*spans):
        return sum(summary[s]["total_ns"] for s in spans if s in summary) / 1e9

    def self_time(*spans):
        return sum(summary[s]["self_ns"] for s in spans if s in summary) / 1e9

    def both(callee):
        return ("atlas>" + callee, "witness>" + callee)

    certify = calls("atlas.certified_negative_roots")
    fallback = calls("atlas>realroots.isolate_real_roots")
    return {
        "cli.self_s": self_time(CLI_SPAN),
        "atlas.scan_self_s": self_time(
            "cli>atlas.write_root_cloud_csv",
            "cli>atlas.root_cloud",
            "cli>atlas.root_cloud_from_graphs",
            "cli>atlas.enumerate_graphs",
        ),
        "atlas.certify_s": total("atlas.certified_negative_roots"),
        "atlas.certify_calls": certify,
        "atlas.cache_hit_ratio": 1 - certify / graphs if graphs else 0.0,
        "atlas.float_fallback_ratio": fallback / certify if certify else 0.0,
        "atlas.csv_write_s": total("atlas>realroots.format_fixed", SINK_SPAN),
        "dompoly.ie_s": total("atlas>dompoly.dom_poly_inclusion_exclusion"),
        "dompoly.ie_calls": calls("atlas>dompoly.dom_poly_inclusion_exclusion"),
        "dompoly.compose_s": total("witness>dompoly.compose_with_complete"),
        "dompoly.compose_calls": calls("witness>dompoly.compose_with_complete"),
        "realroots.sturm_chain_s": total(*both("realroots.sturm_chain")),
        "realroots.sturm_chain_calls": calls(*both("realroots.sturm_chain")),
        "realroots.count_s": total(*both("realroots.count_roots_in")),
        "realroots.count_calls": calls(*both("realroots.count_roots_in")),
        "realroots.isolate_s": total(*both("realroots.isolate_real_roots")),
        "realroots.isolate_calls": calls(*both("realroots.isolate_real_roots")),
        "realroots.star_estimate_calls": calls("witness>realroots.star_root_estimate"),
        "intpoly.sign_at_s": total("intpoly.sign_at"),
        "intpoly.sign_at_calls": calls("intpoly.sign_at"),
        "graph.decode_s": total("atlas>graph.from_graph6"),
        "graph.encode_s": total("atlas>graph.to_graph6"),
        "witness.construct_self_s": self_time("cli>witness.construct_witness"),
        "witness.verify_s": total("cli>witness.verify_certificate"),
        "witness.exhausted_cells": counters.get(EXHAUSTED_CELLS, 0),
    }
