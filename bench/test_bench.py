"""Tests of the benchmark's own machinery.

    python3 -m unittest discover -s bench -p "test_*.py"

Run from the repository root; the library is imported from ``src``.
"""

from __future__ import annotations

import contextlib
import os
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, expect  # noqa: E402


class JobListTest(unittest.TestCase):
    def test_same_seed_same_job_list(self):
        for w in workloads.WORKLOADS:
            first = [job.label for job in workloads.build(w, 7)]
            again = [job.label for job in workloads.build(w, 7)]
            self.assertEqual(first, again, w)
            self.assertNotEqual(first, [job.label for job in workloads.build(w, 8)], w)

    def test_work_does_not_depend_on_seed(self):
        # the seed draws order, random coordinates and table formats only
        def shapes(w, seed):
            return sorted(re.sub(r" --format \w+", "", job.label) for job in workloads.build(w, seed))

        for w in workloads.WORKLOADS:
            self.assertEqual(len({tuple(shapes(w, seed)) for seed in range(4)}), 1, w)

    def test_random_point_sets_are_in_general_position(self):
        import random

        from ncmatch import geometry

        rng = random.Random(3)
        for n in (3, 8, 11):
            ps = geometry.from_json_dict(workloads.random_points(rng, n))
            self.assertEqual(len(ps), n)

    def test_interleave_keeps_group_order(self):
        import random

        groups = [[Job(f"{g}{i}", lambda: None) for i in range(4)] for g in "abc"]
        merged = [job.label for job in workloads.interleave(groups, random.Random(1))]
        for g in "abc":
            self.assertEqual([x for x in merged if x[0] == g], [f"{g}{i}" for i in range(4)])


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_above(self):
        self.assertEqual(run.tail_percentile(range(1, 101)), (90, 90, 10))
        self.assertEqual(run.tail_percentile(range(40)), (75, 29, 10))
        pct, value, above = run.tail_percentile(range(1000))
        self.assertEqual((pct, above), (99, 10))
        self.assertEqual(value, 989)

    def test_too_few_jobs_fall_back_to_the_maximum(self):
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (100, 3.0, 0))

    def test_printed_with_percentile_and_job_count(self):
        slow = [{"records": [_record(float(i) + 0.5) for i in range(40)], "rss_kib": 1024}]
        fast = [{"records": [_record(float(i)) for i in range(40)], "rss_kib": 1024}]
        metrics, notes, attempted, failed = run.summarize(slow + fast, [0.5, 0.7, 0.6])
        self.assertEqual(metrics["job_tail_s"], 29.0)
        self.assertEqual(metrics["wall_s"], sum(range(40)))
        self.assertEqual(metrics["setup_s"], 0.6)
        self.assertEqual((attempted, failed), (80, 0))
        self.assertEqual(notes["job_tail_s"], "p75 of 40 jobs, each at its best of 2 rounds, 10 jobs above it")

    def test_rounds_do_not_count_as_jobs(self):
        # five jobs run in ten rounds are five times, not fifty
        rounds = [{"records": [_record(float(i) + r) for i in range(5)], "rss_kib": 1024} for r in range(10)]
        metrics, notes, attempted, _ = run.summarize(rounds, [0.1])
        self.assertEqual(metrics["job_tail_s"], 4.0)
        self.assertEqual(attempted, 50)
        self.assertEqual(notes["job_tail_s"], "maximum of 5 jobs, each at its best of 10 rounds: "
                                              "too few jobs for ten above a percentile")


class SelfTimeTest(unittest.TestCase):
    def _span(self, t: tracing.Tracer, name: str, start: float, end: float) -> int:
        idx = t.open(t.name_id(name))
        t.start[idx] = start
        t.close(idx)
        t.end[idx] = end
        return idx

    def test_self_time_subtracts_child_spans(self):
        t = tracing.Tracer()
        job = t.open(t.name_id(tracing.JOB))
        t.start[job] = 0.0
        outer = t.open(t.name_id("spectral.build_certificate"))
        t.start[outer] = 1.0
        self._span(t, "quadfield.QuadNumber.__init__", 2.0, 3.0)
        inner = t.open(t.name_id("quadfield.QuadNumber.__mul__"))
        t.start[inner] = 4.0
        self._span(t, "quadfield.QuadNumber.__init__", 5.0, 5.5)
        t.close(inner)
        t.end[inner] = 6.0
        t.close(outer)
        t.end[outer] = 9.0
        t.close(job)
        t.end[job] = 10.0
        by_layer, by_name = tracing.self_times(t)
        self.assertAlmostEqual(by_layer["spectral"], 8.0 - 1.0 - 2.0)
        self.assertAlmostEqual(by_layer["quadfield"], 1.0 + 2.0)
        self.assertAlmostEqual(by_layer["bench"], 10.0 - 8.0)
        self.assertAlmostEqual(by_name["quadfield.QuadNumber.__init__"], 1.5)
        self.assertAlmostEqual(sum(by_layer.values()), 10.0)

    def test_wrappers_nest_and_pass_through_outside_jobs(self):
        t = tracing.Tracer()

        def leaf(x):
            return x + 1

        wrapped_leaf = t.wrap("zigzag.leaf", leaf)

        def outer(x):
            return wrapped_leaf(x) * 2

        wrapped = t.wrap("chains.outer", outer)
        self.assertEqual(wrapped(1), 4)
        self.assertEqual(len(t.start), 0)
        job = t.begin_job(0)
        self.assertEqual(wrapped(1), 4)
        t.end_job(job)
        names = [t.names[i] for i in t.name]
        self.assertEqual(names, [tracing.JOB, "chains.outer", "zigzag.leaf"])
        self.assertEqual(list(t.parent), [-1, 0, 1])
        by_layer, _ = tracing.self_times(t)
        self.assertAlmostEqual(sum(by_layer.values()), t.end[0] - t.start[0])


class LayerMetricsTest(unittest.TestCase):
    def test_every_listed_metric_is_emitted_and_has_a_home_workload(self):
        import json

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        listed = [m["name"] for m in spec["per_layer"]]
        emitted = list(tracing.layer_metrics(tracing.Tracer(), 1.0)) + ["trace_overhead_ratio"]
        self.assertEqual(sorted(listed), sorted(emitted))
        for name in listed:
            if not name.startswith("trace_"):
                self.assertIn(run.home(name), workloads.WORKLOADS, name)


def _record(seconds: float, ok: bool = True) -> dict:
    return {"label": "x", "seconds": seconds, "ok": ok, "error": None if ok else "E", "digest": None}


class FailRatioTest(unittest.TestCase):
    def test_exceptions_and_wrong_outputs_count_as_failed(self):
        def wrong(out, state):
            expect(out == 3, "not three")

        jobs = [
            Job("good", lambda: 3, check=wrong, key="good"),
            Job("raises", lambda: 1 // 0, key="raises"),
            Job("wrong", lambda: 2, check=wrong),
            Job("needs a failed job", lambda x: x, prep=lambda st: (st["raises"],)),
            Job("uses a good job", lambda x: x, prep=lambda st: (st["good"],), check=wrong),
        ]
        records = worker.run_jobs(jobs)
        self.assertEqual([rec["ok"] for rec in records], [True, False, False, False, True])
        self.assertTrue(records[1]["error"].startswith("ZeroDivisionError"))
        self.assertTrue(records[2]["error"].startswith("Mismatch"))
        self.assertTrue(records[3]["error"].startswith("prep KeyError"))
        self.assertIsNotNone(records[0]["digest"])
        _, notes, attempted, failed = run.summarize([{"records": records, "rss_kib": 2048}], [0.1])
        self.assertEqual((attempted, failed), (5, 3))
        self.assertEqual(notes["fail_ratio"], "3 of 5 job runs raised or returned a wrong output")

    def test_output_differing_from_the_checked_round_fails(self):
        first = [dict(_record(1.0), digest="a"), dict(_record(1.0), digest="b")]
        second = [dict(_record(1.0), digest="a"), dict(_record(1.0), digest="c")]
        rounds = [{"records": first, "rss_kib": 1024}, {"records": second, "rss_kib": 1024}]
        run.mark_differing(rounds)
        _, _, attempted, failed = run.summarize(rounds, [0.1])
        self.assertEqual((attempted, failed), (4, 1))
        self.assertEqual(second[1]["error"], "output differs from the checked round")


class ForkedRoundTest(unittest.TestCase):
    def test_round_runs_in_a_child_that_starts_from_the_parent_state(self):
        seen = []

        def round_fn():
            seen.append(os.getpid())
            return {"pid": os.getpid(), "earlier": len(seen)}

        first, second = worker.forked(round_fn), worker.forked(round_fn)
        self.assertNotEqual(first["pid"], os.getpid())
        self.assertEqual((first["earlier"], second["earlier"]), (1, 1))
        self.assertEqual(seen, [])

    def test_failed_child_raises(self):
        with open(os.devnull, "w") as null, contextlib.redirect_stderr(null):
            with self.assertRaises(RuntimeError):
                worker.forked(lambda: 1 // 0)


class DigestTest(unittest.TestCase):
    def test_digest_is_canonical(self):
        from ncmatch.quadfield import QuadNumber

        self.assertEqual(workloads.digest({1: [2, 3], 4: {5, 6}}), workloads.digest({4: {6, 5}, 1: [2, 3]}))
        self.assertEqual(workloads.digest(QuadNumber(0, 1, 1, 8)), workloads.digest(QuadNumber(0, 2, 1, 2)))
        self.assertNotEqual(workloads.digest([1, 2]), workloads.digest([2, 1]))


if __name__ == "__main__":
    unittest.main()
