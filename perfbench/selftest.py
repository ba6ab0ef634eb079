"""Self-tests of the benchmark's own arithmetic and records.

Run from the repository root::

    python3 perfbench/selftest.py

They cover what the benchmark computes rather than what it measures: the
ledger check on a synthetic stalled ledger, self-time arithmetic on nested
spans, the latency summary, the host-speed scale, and the consistency of ``BENCHMARK.json`` with
the metric and workload names the benchmark prints.
"""

from __future__ import annotations

import json
import random
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ledger import check_ledger  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _rows(count: int, start: int = 0) -> list:
    return [
        (seq, repr(seq * 0.01), (("seq", repr(seq)), ("value", repr(float(seq)))))
        for seq in range(start, start + count)
    ]


class LedgerCheckTest(unittest.TestCase):
    def test_stalled_ledger_counts_the_missing_share(self):
        # chain(4) at 600 tuples/s with a 10 s disconnect stabilizes only the
        # first 2,940 of 37,770 rows: the check must report ~0.92 failed,
        # while the prefix itself is neither duplicated nor reordered.
        reference = _rows(37_770)
        check = check_ledger(reference[:2_940], reference)
        self.assertEqual(check.attempted, 37_770)
        self.assertEqual(check.missing, 37_770 - 2_940)
        self.assertEqual(check.failed, 34_830)
        self.assertAlmostEqual(check.failed_frac, 34_830 / 37_770)
        self.assertTrue(check.ordered)
        self.assertFalse(check.exact)

    def test_exact_ledger(self):
        reference = _rows(100)
        check = check_ledger(list(reference), reference)
        self.assertTrue(check.exact)
        self.assertEqual(check.failed_frac, 0.0)

    def test_duplicate_and_reordered_rows_fail_outright(self):
        reference = _rows(10)
        duplicated = reference[:5] + [reference[4]] + reference[5:]
        self.assertEqual(check_ledger(duplicated, reference).duplicates, 1)
        self.assertFalse(check_ledger(duplicated, reference).ordered)
        swapped = reference[:3] + [reference[4], reference[3]] + reference[5:]
        check = check_ledger(swapped, reference)
        self.assertEqual(check.reordered, 1)
        self.assertEqual(check.failed, 0)
        self.assertFalse(check.ordered)

    def test_changed_and_invented_rows_count_as_failed(self):
        reference = _rows(10)
        changed = list(reference)
        seq, stime, _ = changed[6]
        changed[6] = (seq, stime, (("seq", repr(seq)), ("value", "-1.0")))
        invented = reference + _rows(2, start=10)
        self.assertEqual(check_ledger(changed, reference).wrong, 1)
        self.assertEqual(check_ledger(invented, reference).extra, 2)
        self.assertEqual(check_ledger(invented, reference).failed, 2)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # A [0, 10] contains B [2, 5] and C [6, 7]; C contains D [6.2, 6.7];
        # A also re-enters itself as A' [8, 9].
        ticks = iter([0.0, 2.0, 5.0, 6.0, 6.2, 6.7, 7.0, 8.0, 9.0, 10.0])
        tracer = layertrace.Tracer(clock=lambda: next(ticks))

        def leaf():
            return None

        def c_body():
            tracer.call("D", leaf)

        def a_body():
            tracer.call("B", leaf)
            tracer.call("C", c_body)
            tracer.call("A", leaf)

        tracer.call("A", a_body)
        self_s = tracer.self_s
        self.assertAlmostEqual(self_s["B"], 3.0)
        self.assertAlmostEqual(self_s["C"], 0.5)
        self.assertAlmostEqual(self_s["D"], 0.5)
        self.assertAlmostEqual(self_s["A"], (10.0 - 3.0 - 1.0 - 1.0) + 1.0)
        self.assertAlmostEqual(sum(self_s.values()), 10.0)
        self.assertEqual(tracer.calls["A"], 2)
        parents = {span[0]: span[4] for span in tracer.spans}
        layers = {span[0]: span[1] for span in tracer.spans}
        self.assertEqual({layers[i]: layers.get(p) for i, p in parents.items() if p >= 0},
                         {"B": "A", "C": "A", "D": "C", "A": "A"})
        self.assertEqual(tracer.stack, [])

    def test_span_closes_on_exception(self):
        ticks = iter([0.0, 1.0, 4.0, 5.0])
        tracer = layertrace.Tracer(clock=lambda: next(ticks))

        def boom():
            raise ValueError("boom")

        def outer():
            with self.assertRaises(ValueError):
                tracer.call("inner", boom)

        tracer.call("outer", outer)
        self.assertAlmostEqual(tracer.self_s["inner"], 3.0)
        self.assertAlmostEqual(tracer.self_s["outer"], 2.0)
        self.assertEqual(tracer.stack, [])


class LatencySummaryTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(workloads.nearest_rank(values, 0.99), 99)
        self.assertEqual(workloads.nearest_rank(values, 0.5), 50)
        self.assertEqual(workloads.nearest_rank([7], 0.99), 7)

    def test_window_medians_of_p50_and_p99(self):
        width = workloads.STEADY_WINDOW
        new_tuples = []
        # Three full windows of 100 new tuples each, latencies 1..100 ms
        # plus a per-window offset; one partial window that must be ignored.
        for window, offset in enumerate((0.0, 0.010, 0.020)):
            for i in range(100):
                stime = window * width + i * width / 100
                new_tuples.append((stime, (i + 1) / 1000 + offset, True))
        new_tuples.append((3 * width + 0.1, 9.0, False))
        latency = workloads.latency_of(new_tuples, 0.0, 3 * width + 0.5)
        self.assertEqual(latency.windows, 3)
        self.assertAlmostEqual(latency.p99, 0.099 + 0.010)
        self.assertAlmostEqual(latency.p50, 0.0505 + 0.010)
        self.assertEqual(latency.proc_new, 9.0)
        self.assertEqual(latency.samples, 301)
        self.assertAlmostEqual(latency.stable_new_frac, 300 / 301)


class HostSpeedTest(unittest.TestCase):
    def test_scale_is_nominal_over_mean_slice_time(self):
        ticks = iter([0.0, 0.002, 0.010, 0.016])
        meter = hostspeed.Meter(clock=lambda: next(ticks))
        meter.slice()
        meter.slice()
        self.assertEqual(meter.slices, 2)
        self.assertAlmostEqual(meter.seconds, 0.008)
        self.assertAlmostEqual(meter.scale(), hostspeed.NOMINAL_SLICE_S / 0.004)


class LivePhaseTest(unittest.TestCase):
    def test_odd_executions_mirror_the_start_phase_before(self):
        live = workloads.WORKLOADS["live-chain1-steady"]
        for seed in (1, 7, 101):
            seeds = [live.execution_seed(seed, index) for index in range(4)]
            self.assertEqual(len(set(seeds)), 4)
            phases = [random.Random(each).random() for each in seeds]
            self.assertAlmostEqual(phases[0] + phases[1], 1.0, delta=0.01)
            self.assertAlmostEqual(phases[2] + phases[3], 1.0, delta=0.01)


class RecordsTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_names_are_well_formed(self):
        names = [
            *run.END_TO_END,
            *run.PER_LAYER,
            *workloads.WORKLOADS,
            *(entry["name"] for key in ("workloads", "end_to_end", "per_layer")
              for entry in self.spec[key]),
        ]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)

    def test_benchmark_json_matches_what_the_benchmark_prints(self):
        self.assertEqual(
            {entry["name"]: entry["unit"] for entry in self.spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {entry["name"]: entry["unit"] for entry in self.spec["per_layer"]}, run.PER_LAYER
        )
        self.assertEqual([entry["name"] for entry in self.spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertIn("setup_s", run.END_TO_END)

    def test_each_workload_records_why_and_which_layers_it_loads(self):
        for entry in self.spec["workloads"]:
            self.assertLessEqual(len(entry["why"]), 200)
            self.assertNotIn("\n", entry["why"])
            self.assertIn("loads", entry["why"])
            self.assertIn("bypasses", entry["why"])

    def test_self_time_metrics_are_layer_metrics(self):
        self.assertLessEqual(set(run.SELF_TIME_LAYERS), set(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
