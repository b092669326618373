"""Self-test of the benchmark itself: ``python3 bench/selftest.py``.

Checks the self-time arithmetic on hand-made nested spans and that the
reference sampler interrupts a running loop, runs the real machinery
(fresh-interpreter workers, tracing, output checks) on tiny inputs, checks
that a witness query that exhausts its budget is counted as a failed
operation, that a corrupted output is caught, and that the benchmark
refuses to run without the source tree.
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class SpanArithmetic(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        # root [0, 100] holds child [10, 40] (which holds leaf [20, 30])
        # and child [50, 70]
        names = ["root", "child", "leaf"]
        recorded = array("q", [0, -1, 0, 100, 1, 0, 10, 40, 2, 1, 20, 30, 1, 0, 50, 70])
        got = spans.summarize(names, recorded)
        self.assertEqual(got["root"], {"calls": 1, "total_ns": 100, "self_ns": 50})
        self.assertEqual(got["child"], {"calls": 2, "total_ns": 50, "self_ns": 40})
        self.assertEqual(got["leaf"], {"calls": 1, "total_ns": 10, "self_ns": 10})

    def test_open_span_is_rejected(self):
        with self.assertRaises(ValueError):
            spans.summarize(["root"], array("q", [0, -1, 5, 0]))

    def test_tracer_nests_spans_and_closes_them_on_exceptions(self):
        tracer = spans.Tracer()

        def leaf(x):
            if x < 0:
                raise ValueError(x)
            return x

        traced_leaf = tracer.wrap("leaf", leaf)

        def outer(x):
            with self.assertRaises(ValueError):
                traced_leaf(-1)
            return traced_leaf(x)

        self.assertEqual(tracer.wrap("outer", outer)(3), 3)
        self.assertEqual(list(tracer.spans[1::spans.FIELDS]), [-1, 0, 0])
        got = spans.summarize(tracer.names, tracer.spans)
        self.assertEqual((got["outer"]["calls"], got["leaf"]["calls"]), (1, 2))
        outer, leaf = got["outer"], got["leaf"]
        self.assertEqual(outer["self_ns"], outer["total_ns"] - leaf["total_ns"])

    def test_dump_and_load_round_trip(self):
        tracer = spans.Tracer()
        tracer.wrap("f", abs)(-1)
        tracer.count(spans.EXHAUSTED_CELLS, 7)
        run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
            path = Path(tmp) / "spans.bin"
            tracer.dump(path)
            names, counters, recorded = spans.load(path)
        self.assertEqual(names, ["f"])
        self.assertEqual(counters, {spans.EXHAUSTED_CELLS: 7})
        self.assertEqual(recorded, tracer.spans)


class Reference(unittest.TestCase):
    def test_sampler_interrupts_a_busy_loop_and_restores_the_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        with reference.Sampler(0.01) as sampler:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
        self.assertGreater(sampler.units, 3)
        self.assertGreater(sampler.seconds, 0)
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)


class Inputs(unittest.TestCase):
    def test_witness_queries_follow_the_seed_around_a_fixed_core(self):
        a, b = run.witness_queries(1), run.witness_queries(2)
        self.assertEqual(a, run.witness_queries(1))
        self.assertNotEqual(sorted(a), sorted(b))
        fixed = {(z, e) for z in run.WITNESS_GRID_Z for e in run.WITNESS_GRID_EPS}
        fixed |= set(run.WITNESS_ANCHORS)
        for queries in (a, b):
            self.assertGreaterEqual(len(queries), 100)
            self.assertTrue(fixed <= set(queries))

    def test_corpus_follows_the_seed(self):
        self.assertEqual(run.random_corpus(3, 10), run.random_corpus(3, 10))
        self.assertNotEqual(run.random_corpus(3, 10), run.random_corpus(4, 10))


class TinyRuns(unittest.TestCase):
    def setUp(self):
        run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _run(self, plan):
        """One untraced and one traced repetition, then the checks."""
        self.runner = run.Runner(self.workdir, time.monotonic() + 120)
        untraced = self.runner.repeat(plan, 0, trace=False)
        traced = self.runner.repeat(plan, 0, trace=True)
        return untraced, traced, run.evaluate(plan, untraced + traced)

    def test_sweep(self):
        plan = run.sweep_plan(order=4)
        untraced, traced, (correct, attempted, failed, problems) = self._run(plan)
        self.assertTrue(correct, problems)
        self.assertEqual((attempted, failed), (2, 0))
        layers = run.per_layer(plan, untraced, traced)
        self.assertEqual({name for name, _ in spans.PER_LAYER}, set(layers))
        self.assertGreater(layers["atlas.certify_calls"], 0)
        self.assertGreater(layers["atlas.cache_hit_ratio"], 0)
        self.assertGreater(layers["atlas.scan_self_s"], 0)
        self.assertEqual(layers["dompoly.ie_calls"], 0)
        probe = self.runner.probe_setup()
        self.assertGreater(probe["unit_s"], 0)
        totals = run.end_to_end(untraced, [probe])
        self.assertGreater(totals["setup_s"], 0)
        self.assertGreater(totals["wall_ref"], 0)
        self.assertGreater(untraced[0]["ref_units"], 0)
        self.assertEqual(traced[0]["ref_units"], 0)

    def test_corpus(self):
        plan = run.corpus_plan(run.random_corpus(5, 10), self.workdir / "corpus.g6")
        untraced, traced, (correct, attempted, failed, problems) = self._run(plan)
        self.assertTrue(correct, problems)
        self.assertEqual((attempted, failed), (2, 0))
        layers = run.per_layer(plan, untraced, traced)
        self.assertEqual(layers["dompoly.ie_calls"], 10)
        self.assertGreater(layers["graph.decode_s"], 0)
        self.assertGreater(layers["graph.encode_s"], 0)

    def test_exhausted_budget_is_a_failed_operation(self):
        plan = run.witness_plan([("-10", "1/100", "--max-param", "10"), ("-1.5", "1/10")])
        untraced, traced, (correct, attempted, failed, problems) = self._run(plan)
        self.assertTrue(correct, problems)
        self.assertEqual([c["rc"] for c in untraced[0]["calls"]], [run.EXIT_BUDGET, 0])
        self.assertEqual((attempted, failed), (4, 2))
        layers = run.per_layer(plan, untraced, traced)
        self.assertGreater(layers["witness.exhausted_cells"], 0)
        self.assertGreater(layers["witness.construct_self_s"], 0)

    def test_usage_error_is_a_check_failure(self):
        plan = run.witness_plan([("-1.5", "1/10", "--max-m", "x")])
        _, _, (correct, _, failed, _) = self._run(plan)
        self.assertFalse(correct)
        self.assertEqual(failed, 2)

    def test_corrupted_output_is_caught(self):
        plan = run.sweep_plan(order=3)
        runner = run.Runner(self.workdir, time.monotonic() + 60)
        reps = runner.repeat(plan, 0, trace=False)
        path = Path(reps[0]["sink"])
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        correct, _, failed, problems = run.evaluate(plan, reps)
        self.assertFalse(correct)
        self.assertEqual(failed, 1)
        self.assertTrue(problems)

    def test_malformed_output_is_a_check_failure(self):
        plan = run.sweep_plan(order=3)
        runner = run.Runner(self.workdir, time.monotonic() + 60)
        reps = runner.repeat(plan, 0, trace=False)
        Path(reps[0]["sink"]).write_text("graph6,n,root_lo,root_hi\nB?,3,x,y\n")
        correct, _, failed, problems = run.evaluate(plan, reps)
        self.assertFalse(correct)
        self.assertEqual(failed, 1)
        self.assertIn("output check raised", problems[0])


class WithoutSources(unittest.TestCase):
    def test_refuses_to_run_without_the_source_tree(self):
        bench = Path(__file__).resolve().parent
        run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
            shutil.copytree(bench, Path(tmp) / bench.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{bench.name}/run.py", "--workload", "sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
