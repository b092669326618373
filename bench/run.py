"""The domroots benchmark.

Usage::

    python3 bench/run.py --workload {sweep,corpus,witness} --seed N \\
        --seconds S --trace {0,1}

Every repetition runs the public ``domroots.cli.main`` entry point in a
fresh interpreter (``bench/worker.py``), one process at a time with
``--workers 1``, as a closed loop with one caller: the next call starts only
after the previous one returned.  Repetitions go on until the next one would
overrun ``--seconds``; there is always at least one.  The forked worker pool
of the sweeps is not measured: on a two-core host the pool's timings follow
the load of other processes more than the code.

Workloads (inputs come from ``--seed``; the same seed gives the same inputs):

* ``sweep`` - ``atlas 6``: the certified root cloud of all 32,768 labeled
  graphs of order 6, CSV into a file sink.  This is the atlas hot loop
  (enumerate, fused Gray-code inclusion-exclusion, graph6 encode) with very
  high root-cache reuse (88 distinct polynomials).  Its input does not
  depend on the seed.  Order 7 is left out: it takes about 190 s, too long
  for one run.
* ``corpus`` - ``atlas 0 --mode file`` on a seeded corpus of 2,500 random
  graphs of order 8-12 (see :func:`random_corpus`).  Few polynomials
  repeat, so the root cache is mostly bypassed and the time goes to public
  ``dom_poly_inclusion_exclusion``, float-first certification with exact
  fallback, and graph6 decode/encode: the atlas layer used the opposite way
  to ``sweep``.
* ``witness`` - 200 ``witness -z Z -e EPS`` queries, one ``cli.main`` call
  each, in a seed-shuffled order:

  - the 16-cell acceptance grid (the same for every seed); its
    ``z=-10, eps=1/100`` cell is the deep-star case (a star with 4792
    leaves);
  - anchor ``(-0.8, 1/100)``: ``K_{75,75}`` with ``m=3``, heavy on Sturm
    chains, standing in for the slow ``eps=1/100`` targets near -0.83 and
    -1.15 (15-154 s each, too slow to draw at random);
  - anchor ``(-0.96, 1/20)``: the window crosses -1 by 0.01, leaving a
    sliver for ``K_{2,l}`` with large ``l`` (about 1.3 s); seeded targets
    with thinner slivers take minutes and are redrawn;
  - anchor ``(-10.5, 1/100)``: exhausts the default budget (exit 3) and is
    counted as a failed operation - the witness reach gap;
  - 181 seeded bulk queries, ``z = -u/1000`` with ``u`` stratified over
    ``[1, 6000)`` and ``eps`` alternating between 1/10 and 1/20; they take
    milliseconds to half a second each and fill the run.

  ``star-roots 300`` is left out: at about 0.3 s it is below run noise.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s`` - from just before a fresh interpreter is started until
  ``domroots`` and ``domroots.cli`` are imported in it; the median over
  every repetition and 16 import-only probes, half before the repetitions
  and half after (one unmeasured probe first compiles the bytecode, as an
  installed package has it).  Like ``wall_ref`` it is freed of the host's
  speed: each set-up time is scaled by ``REF_UNIT_NOMINAL_S`` over the
  reference unit's time in the same process (the probe times a few units
  right after its imports), which reports it in seconds on a host where a
  unit takes ``REF_UNIT_NOMINAL_S``.  The unscaled median is in the
  report lines;
* ``wall_ref`` - the timed phase in reference units, the median over
  repetitions.  Every ``REF_INTERVAL_S`` seconds a repetition is paused
  to time one unit of a fixed reference workload (``reference.py``); the
  timed phase's wall time, less those pauses, is divided by the mean time
  of one unit.  On a shared host the same work runs up to half again
  slower for seconds to minutes at a time (CPU time rises with wall time,
  so it is no remedy); the reference, sampled at the same moments, slows
  down with the program, so the quotient moves with the program's own
  speed.  Raw ``wall_s`` (fastest, median and slowest repetition) and
  the reference unit's time are in the report lines;
* ``peak_rss_mib`` - the worker's peak resident memory right after the
  timed phase, median over repetitions.

The report lines above the result also give ``failed_ratio`` and, on
``witness``, the per-query latency percentiles ``witness_p50_ms`` and
``witness_p90_ms`` with their sample count.  These are not metrics of
``BENCHMARK.json``, where every end-to-end metric must be reported, and be
non-zero, on every workload; failures reach the result line through
``attempted`` and ``failed``.

``--trace 1`` spends half of ``--seconds`` on untraced repetitions and half
on traced ones, and reports the per-layer metrics of ``spans.py`` (medians
over the traced repetitions) and ``trace.overhead_ratio``, the median
traced ``wall_s`` over the median untraced one.  Traced repetitions sample
no reference, so their spans hold only the program.

Outputs are checked after the timed phase (``checks.py``), and every
repetition of a run, traced or not, must produce the same output.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run that cannot finish (no source tree, a
worker that dies or overruns the time limit) exits non-zero without a
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORK_ROOT = ROOT / ".bench_build" / "domroots-bench"

RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_PROBES = 16
PROBE_REF_UNITS = 5  # reference units an import-only probe times after set-up
# set-up time is reported at the host speed where a reference unit takes
# this long: about the median on an unloaded 2-core Xeon guest
REF_UNIT_NOMINAL_S = 0.0045
REF_INTERVAL_S = 0.05  # one reference unit (about 4 ms) per 50 ms of a repetition

SWEEP_ORDER = 6
CORPUS_SIZE = 2500
CORPUS_ORDERS = (8, 12)
CORPUS_EDGE_PROB = (0.15, 0.85)
WITNESS_GRID_Z = ("-0.25", "-0.75", "-1.25", "-1.5", "-1.9", "-2.5", "-5", "-10")
WITNESS_GRID_EPS = ("1/10", "1/100")
WITNESS_ANCHORS = (("-0.8", "1/100"), ("-0.96", "1/20"), ("-10.5", "1/100"))
WITNESS_BULK = 181
WITNESS_BULK_EPS = ("1/10", "1/20")
WITNESS_NARROW = Fraction(1, 50)  # see witness_queries

EXIT_BUDGET = 3  # the CLI's exit code for an exhausted search budget

END_TO_END = (("setup_s", "s"), ("wall_ref", "ref_units"), ("peak_rss_mib", "MiB"))


class BenchError(Exception):
    """The run cannot produce a result."""


@dataclass
class Plan:
    """What one repetition runs, and how its output is checked."""

    workload: str
    calls: list
    sink: bool  # stdout of the calls goes to one CSV file
    graphs: int  # graphs the atlas scans per repetition
    queries: list = field(default_factory=list)  # witness (z, eps, *extra)
    corpus: list = field(default_factory=list)  # graph6 lines of the input file
    order: int = 0


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _graph6(n: int, edges) -> str:
    """graph6 text of a graph of order < 63 given as a set of pairs ``i < j``."""
    bits = [1 if (i, j) in edges else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [sum(b << (5 - k) for k, b in enumerate(bits[i:i + 6])) + 63
            for i in range(0, len(bits), 6)]
    return bytes([n + 63] + body).decode("ascii")


def random_corpus(seed: int, size: int) -> list:
    """``size`` random graphs in a shuffled order.

    Orders and edge probabilities are stratified - the same number of graphs
    of each order, and per order one edge probability from each equal slice
    of ``CORPUS_EDGE_PROB`` - so the work in a run varies little with the
    seed while every graph is still drawn at random.
    """
    rng = random.Random(seed)
    lo, hi = CORPUS_ORDERS
    orders = hi - lo + 1
    per_order = -(-size // orders)
    p_lo, p_hi = CORPUS_EDGE_PROB
    lines = []
    for k in range(size):
        n = lo + k % orders
        p = p_lo + (p_hi - p_lo) * (k // orders + rng.random()) / per_order
        edges = {(i, j) for j in range(1, n) for i in range(j) if rng.random() < p}
        lines.append(_graph6(n, edges))
    rng.shuffle(lines)
    return lines


def witness_queries(seed: int) -> list:
    """The fixed grid and anchors plus ``WITNESS_BULK`` seeded queries, shuffled.

    Bulk targets are stratified: ``u`` is drawn uniformly from each of
    ``WITNESS_BULK`` equal slices of ``[1, 6000)`` and the two radii alternate, so
    the targets cover the range evenly and the few slow bands (near
    ``z = -3.4`` and ``-5.8``) get a steady share from seed to seed.

    A draw is redrawn when its window reaches less than ``WITNESS_NARROW``
    past -1 on the left (``-1.02 < z - eps < -1``): the search then looks
    for a root of ``K_{2,l}`` in that sliver, which takes minutes as the
    sliver closes.  The ``(-0.96, 1/20)`` anchor, with a sliver of 0.01,
    keeps that mechanism in the workload at a bounded cost.
    """
    rng = random.Random(seed)
    queries = [(z, eps) for z in WITNESS_GRID_Z for eps in WITNESS_GRID_EPS]
    queries += WITNESS_ANCHORS
    bulk = WITNESS_BULK
    for k in range(bulk):
        eps = WITNESS_BULK_EPS[k % len(WITNESS_BULK_EPS)]
        while True:
            u = rng.randrange(1 + 5999 * k // bulk, 1 + 5999 * (k + 1) // bulk)
            if not -1 - WITNESS_NARROW < Fraction(-u, 1000) - Fraction(eps) < -1:
                break
        # decimal form: argparse would take "-u/1000" for an option
        queries.append((f"-{u // 1000}.{u % 1000:03d}", eps))
    rng.shuffle(queries)
    return queries


def sweep_plan(order: int = SWEEP_ORDER) -> Plan:
    return Plan("sweep", [["--workers", "1", "atlas", str(order)]], True,
                1 << (order * (order - 1) // 2), order=order)


def corpus_plan(lines: list, path: Path) -> Plan:
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    argv = ["--workers", "1", "atlas", "0", "--mode", "file", "--input", str(path)]
    return Plan("corpus", [argv], True, len(lines), corpus=lines)


def witness_plan(queries: list) -> Plan:
    calls = [["--workers", "1", "witness", "-z", q[0], "-e", q[1], *q[2:]] for q in queries]
    return Plan("witness", calls, False, 0, queries=list(queries))


def make_plan(workload: str, seed: int, workdir: Path) -> Plan:
    if workload == "sweep":
        return sweep_plan()
    if workload == "corpus":
        return corpus_plan(random_corpus(seed, CORPUS_SIZE), workdir / "corpus.g6")
    return witness_plan(witness_queries(seed))


# ---------------------------------------------------------------------------
# running repetitions
# ---------------------------------------------------------------------------

class Runner:
    """Starts workers one at a time and waits for each to end."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.jobs = 0
        self.env = dict(os.environ)
        self.env.pop("DOMROOTS_WORKERS", None)  # it would override --workers 1

    def spawn(self, job: dict) -> dict:
        self.jobs += 1
        job_path = self.workdir / f"job{self.jobs}.json"
        job["result"] = str(self.workdir / f"result{self.jobs}.json")
        job_path.write_text(json.dumps(job), encoding="utf-8")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(job_path)],
                env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, timeout=max(1.0, self.deadline - t0),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"a worker overran the {RUN_LIMIT_S} s run limit") from None
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace")[-2000:]
            raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        result["setup_s"] = result["ready"] - t0
        return result

    def probe_setup(self) -> dict:
        return self.spawn({"import_only": True, "ref_units": PROBE_REF_UNITS})

    def repeat(self, plan: Plan, seconds: float, trace: bool) -> list:
        """Repetitions until the next one would end after ``seconds``."""
        reps = []
        start = time.monotonic()
        while True:
            k = self.jobs + 1
            job = {
                "calls": plan.calls,
                "ref_interval": REF_INTERVAL_S,
                "trace": trace,
                "sink": str(self.workdir / f"out{k}.csv") if plan.sink else None,
                "trace_out": str(self.workdir / f"spans{k}.bin") if trace else None,
            }
            rep = self.spawn(job)
            rep["sink"], rep["trace_out"] = job["sink"], job["trace_out"]
            reps.append(rep)
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(reps) > seconds:
                return reps


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------

def _digest(rep: dict) -> str:
    h = hashlib.sha256()
    h.update(json.dumps([[c["rc"], c["stdout"]] for c in rep["calls"]]).encode())
    if rep["sink"]:
        with open(rep["sink"], "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def evaluate(plan: Plan, reps: list):
    """``(correct, attempted, failed, problems)`` over every repetition.

    A call fails when it exits non-zero or its output fails a check.  Exit
    code 3 (budget exhausted) is only a failed operation; any other non-zero
    exit, a failed check, or repetitions that disagree make the run
    incorrect.  Only the first repetition is checked in depth: the others
    must match it byte for byte, exit codes included.
    """
    import checks  # imports domroots; kept out of the timed phase

    first = reps[0]
    try:
        if plan.workload == "sweep":
            problems, bad = checks.check_sweep(first["sink"], plan.order)
        elif plan.workload == "corpus":
            problems, bad = checks.check_corpus(first["sink"], plan.corpus)
        else:
            problems, bad = checks.check_witness(first["calls"], plan.queries)
    except Exception:  # noqa: BLE001 - output malformed enough to break a check
        problems = [f"output check raised:\n{traceback.format_exc()}"]
        bad = set(range(len(plan.calls)))
    problems = list(problems)
    if len({_digest(rep) for rep in reps}) != 1:
        problems.append("repetitions produced different outputs")
    for argv, call in zip(plan.calls, first["calls"]):
        if call["rc"] not in (0, EXIT_BUDGET):
            problems.append(f"call {argv} exited {call['rc']}: {call['stderr'][-500:]}")
    attempted = sum(len(rep["calls"]) for rep in reps)
    failed = sum(1 for rep in reps for i, call in enumerate(rep["calls"])
                 if call["rc"] != 0 or i in bad)
    return not problems, attempted, failed, problems


def wall_ref(rep: dict) -> float:
    """The timed phase of a repetition in units of its reference workload."""
    return rep["wall_s"] / (rep["ref_s"] / rep["ref_units"])


def scaled_setup(run: dict) -> float:
    """Set-up time of a probe or repetition at the nominal host speed."""
    unit_s = run["unit_s"] if "unit_s" in run else run["ref_s"] / run["ref_units"]
    return run["setup_s"] * REF_UNIT_NOMINAL_S / unit_s


def end_to_end(reps: list, probes: list) -> dict:
    return {
        "setup_s": median(scaled_setup(r) for r in probes + reps),
        "wall_ref": median(wall_ref(r) for r in reps),
        "peak_rss_mib": median([r["peak_rss_kib"] / 1024 for r in reps]),
    }


def per_layer(plan: Plan, untraced: list, traced: list) -> dict:
    rows = []
    for rep in traced:
        names, counters, recorded = spans.load(rep["trace_out"])
        rows.append(spans.layer_metrics(spans.summarize(names, recorded), counters, plan.graphs))
    out = {name: median([row[name] for row in rows]) for name in rows[0]}
    # traced repetitions sample no reference, so their raw times are compared
    out["trace.overhead_ratio"] = (median(r["wall_s"] for r in traced)
                                   / median(r["wall_s"] for r in untraced))
    return out


def latency_lines(reps: list) -> list:
    """Per-query latency percentiles of ``cli.main`` over the untraced calls."""
    ms = [c["seconds"] * 1000 for rep in reps for c in rep["calls"]]
    p90 = quantiles(ms, n=10, method="inclusive")[8]
    return [f"  {'witness_p50_ms':<30} {median(ms):.6g} ms  (n={len(ms)})",
            f"  {'witness_p90_ms':<30} {p90:.6g} ms  (n={len(ms)})"]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    plan = make_plan(workload, seed, workdir)
    runner = Runner(workdir, deadline)
    runner.probe_setup()  # unmeasured: compiles the bytecode once
    probes = []
    if trace:
        untraced = runner.repeat(plan, seconds / 2, trace=False)
        traced = runner.repeat(plan, seconds / 2, trace=True)
        values = per_layer(plan, untraced, traced)
        units = dict(spans.PER_LAYER)
    else:
        # half the probes before the repetitions and half after, so that
        # set-up time is sampled across the run, not in one moment
        probes = [runner.probe_setup() for _ in range(SETUP_PROBES // 2)]
        untraced, traced = runner.repeat(plan, seconds, trace=False), []
        probes += [runner.probe_setup() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        values = end_to_end(untraced, probes)
        units = dict(END_TO_END)
    correct, attempted, failed, problems = evaluate(plan, untraced + traced)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {workload}  seed {seed}  repetitions {len(untraced)} untraced"
          f", {len(traced)} traced  correct {correct}")
    for name, value in values.items():
        print(f"  {name:<30} {value:.6g} {units[name]}")
    walls = sorted(r["wall_s"] for r in untraced)
    print(f"  {'untraced repetitions':<30} wall_s min {walls[0]:.6g}, median {median(walls):.6g},"
          f" max {walls[-1]:.6g} s")
    unit_ms = sorted(1000 * r["ref_s"] / r["ref_units"] for r in untraced)
    print(f"  {'reference unit':<30} min {unit_ms[0]:.6g}, median {median(unit_ms):.6g},"
          f" max {unit_ms[-1]:.6g} ms")
    if probes:
        raw = median(r["setup_s"] for r in probes + untraced)
        print(f"  {'setup_s unscaled':<30} {raw:.6g} s")
    print(f"  {'failed_ratio':<30} {failed / attempted:.6g}  ({failed}/{attempted} calls)")
    if workload == "witness":
        print("\n".join(latency_lines(untraced)))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "corpus", "witness"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into an exception, so that a running worker is killed
    # and waited for on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "domroots" / "cli.py").is_file():
        print(f"error: no domroots source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
