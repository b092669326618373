"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: ``python3 bench/worker.py JOB.json`` (started by ``bench/run.py``).

The package is imported first, before anything else the worker needs, and
the monotonic clock is read as soon as ``domroots`` and ``domroots.cli`` are
in: the parent subtracts its own reading taken just before it started this
process, which gives the set-up time a CLI user pays.  An import-only
probe then times a few reference units, which gauge the host's speed at
that moment.  Each process starts
with cold module caches (``atlas._SCAN_CACHE`` among them), as a CLI
invocation does.

The job file lists ``cli.main`` argument vectors.  They run one after the
other (a closed loop with one caller), with stdout sent either to a sink
file (the atlas CSV) or to a per-call buffer (witness certificates).  The
timed phase is the loop of calls; peak resident memory is read right after
it.  An untraced repetition runs the calls under ``reference.Sampler``,
which pauses them every ``ref_interval`` seconds to time one unit of the
reference workload; that time is taken out of the timed phase and the
per-call timings and reported beside them.  With ``"trace": true`` the
worker samples no reference, installs the span wrappers of ``spans.py``
before the loop and writes the spans out after it.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import domroots  # noqa: E402
import domroots.cli  # noqa: E402

READY = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402


def _call(main, argv, stdout, sampler):
    """Run one ``cli.main`` call; an exception escaping it is reported as
    exit code -1 with its traceback, so the run goes on and counts it."""
    err = io.StringIO()
    sys.stdout, sys.stderr = stdout, err
    t0, paused = time.perf_counter(), sampler.seconds
    try:
        rc = main(argv)
    except Exception:  # noqa: BLE001 - a bug in the program under test
        rc = -1
        err.write(traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - t0 - (sampler.seconds - paused)
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    return rc, elapsed, err.getvalue()


class _TracedSink:
    """Stands in for the sink file so that CSV writes show as spans."""

    def __init__(self, write):
        self.write = write


def run(job: dict) -> dict:
    tracer = None
    main = domroots.cli.main
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install(sys.modules)
        main = tracer.wrap(spans.CLI_SPAN, main)
    sink = open(job["sink"], "w", encoding="ascii", newline="") if job["sink"] else None
    try:
        out = sink
        if sink is not None and tracer is not None:
            out = _TracedSink(tracer.wrap(spans.SINK_SPAN, sink.write))
        calls = []
        sampler = reference.Sampler(0 if tracer is not None else job["ref_interval"])
        t0 = time.perf_counter()
        with sampler:
            for argv in job["calls"]:
                buf = out if out is not None else io.StringIO()
                rc, elapsed, err = _call(main, argv, buf, sampler)
                calls.append({
                    "rc": rc,
                    "seconds": elapsed,
                    "stdout": None if out is not None else buf.getvalue(),
                    "stderr": err if rc != 0 else "",
                })
        wall = time.perf_counter() - t0 - sampler.seconds
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if sink is not None:
            sink.close()
    if tracer is not None:
        tracer.dump(job["trace_out"])
    return {"ready": READY, "wall_s": wall, "peak_rss_kib": peak_kib, "calls": calls,
            "ref_s": sampler.seconds, "ref_units": sampler.units}


def probe(job: dict) -> dict:
    """An import-only run: set-up time, and the reference unit's time
    measured right after it, in the same process."""
    return {"ready": READY, "unit_s": reference.unit_seconds(job["ref_units"])}


def main(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = probe(job) if job.get("import_only") else run(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
