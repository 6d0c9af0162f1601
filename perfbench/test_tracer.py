"""Self-tests of the benchmark: tracer arithmetic, speed probe, BENCHMARK.json sync.

Run from the repository root:
    python3 -m pytest -q perfbench/test_tracer.py
or  python3 perfbench/test_tracer.py
"""

import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, covered_length, self_times  # noqa: E402


class CoveredLengthTest(unittest.TestCase):
    def test_union_clipped_to_parent(self):
        # [1,4] and [3,6] overlap; [9,12] is clipped to 10; [11,13] is outside
        got = covered_length([(9, 12), (1, 4), (3, 6), (11, 13)], 0, 10)
        self.assertEqual(got, 5 + 1)

    def test_empty(self):
        self.assertEqual(covered_length([], 0, 10), 0.0)


class HandBuiltTreeTest(unittest.TestCase):
    """Span records: [id, parent, name, start, end, folded seconds]."""

    spans = [
        [1, None, "A", 0.0, 10.0, 0.5],  # 0.5 s in folded calls
        [2, 1, "B", 1.0, 4.0, 0.0],
        [3, 2, "A", 2.0, 3.0, 0.0],      # A nested inside itself, via B
        [4, 1, "C", 3.0, 6.0, 0.0],      # overlaps B (another thread)
        [5, 1, "D", 9.0, 12.0, 0.0],     # outlives its parent
    ]

    def test_self_times(self):
        got = self_times(self.spans)
        # A: 10 - |[1,6] u [9,10]| - 0.5 folded
        self.assertEqual(got, {1: 3.5, 2: 2.0, 3: 1.0, 4: 3.0, 5: 3.0})

    def test_stats_merge_nested_calls_of_one_function(self):
        tracer = Tracer()
        tracer.spans.extend(self.spans)
        stats = tracer.stats()
        self.assertEqual(stats["A"], [2, 4.5, 11.0])
        self.assertEqual(stats["B"], [1, 2.0, 3.0])


class WrapperTest(unittest.TestCase):
    """Wrappers on toy functions, timed by a clock the functions advance."""

    def setUp(self):
        self.now = 0.0
        self.tracer = Tracer(clock=lambda: self.now)

    def work(self, seconds):
        self.now += seconds

    def test_recursion_and_folded_calls(self):
        tr = self.tracer
        hot = tr.wrap("hot", lambda: self.work(0.5), fold=True)

        def warm_body():
            self.work(0.25)
            hot()
        warm = tr.wrap("warm", warm_body, fold=True)

        def inner_body(depth):
            self.work(1.0)
            if depth:
                inner(depth - 1)
            hot()
            warm()
        inner = tr.wrap("inner", inner_body)

        def outer_body():
            self.work(1.0)
            inner(1)
            self.work(1.0)
        tr.wrap("outer", outer_body)()

        # inner(0) = 1 + 0.5 + 0.75 = 2.25; inner(1) = 1 + 2.25 + 1.25 = 4.5
        stats = tr.stats()
        self.assertEqual(stats["outer"], [1, 2.0, 6.5])
        self.assertEqual(stats["inner"], [2, 2.0, 6.75])
        self.assertEqual(stats["hot"], [4, 2.0, 2.0])
        self.assertEqual(stats["warm"], [2, 0.5, 1.5])
        # folded calls are counted against their nearest kept ancestor
        inner_ids = {rec[0] for rec in tr.spans if rec[2] == "inner"}
        self.assertEqual({anchor for anchor, _ in tr.folded()}, inner_ids)

    def test_when_predicate_skips_span(self):
        f = self.tracer.wrap("f", lambda x: self.work(x), when=lambda x: x > 1)
        f(1)
        f(2)
        self.assertEqual(self.tracer.stats()["f"], [1, 2.0, 2.0])

    def test_named_by_arguments_and_unpatched(self):
        class Box:
            def get(self, key):
                return key
        tr = self.tracer
        original = Box.get
        tr.patch(Box, "get", tr.wrap(lambda box, key: f"get.{key}", original))
        self.assertEqual(Box().get("a"), "a")
        tr.unpatch()
        self.assertIs(Box.get, original)
        self.assertEqual([rec[2] for rec in tr.spans], ["get.a"])


class SpeedProbeTest(unittest.TestCase):
    def test_scale_needs_chunks_and_is_positive(self):
        from run import SpeedProbe
        with SpeedProbe() as probe:
            since = probe.reading()
            with self.assertRaises(RuntimeError):
                probe.scale(probe.reading())
            while probe.reading()[1] < since[1] + 10:
                time.sleep(0.01)
            self.assertGreater(probe.scale(since), 0)
        self.assertFalse(probe.thread.is_alive())


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json lists what the benchmark measures."""

    @classmethod
    def setUpClass(cls):
        root = HERE.parent
        sys.path.insert(0, str(root / "src"))
        cls.spec = json.loads((root / "BENCHMARK.json").read_text())

    def test_workloads(self):
        from workloads import WORKLOADS
        self.assertEqual({w["name"]: w["why"] for w in self.spec["workloads"]},
                         {name: w.why for name, w in WORKLOADS.items()})

    def test_end_to_end(self):
        from run import END_TO_END_UNITS
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         END_TO_END_UNITS)

    def test_per_layer(self):
        import layers
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in self.spec["per_layer"]},
                         layers.declared_metrics())


if __name__ == "__main__":
    unittest.main()
