"""Self-tests of the serving benchmark's arithmetic (perfserve/perfstats.py).

Run from the repository root:
  python3 -m unittest discover -s perfserve/tests
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import perfstats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertFalse(perfstats.tail_valid(999, 0.99))
        self.assertTrue(perfstats.tail_valid(1000, 0.99))

    def test_other_quantiles_need_ten_beyond(self):
        self.assertFalse(perfstats.tail_valid(19, 0.5))
        self.assertTrue(perfstats.tail_valid(20, 0.5))
        self.assertFalse(perfstats.tail_valid(9999, 0.999))
        self.assertTrue(perfstats.tail_valid(10000, 0.999))

    def test_ten_samples_lie_beyond_p99_of_a_thousand(self):
        samples = list(range(1000))
        p99 = perfstats.percentile(samples, 0.99)
        self.assertEqual(sum(s > p99 for s in samples), 10)

    def test_percentile_interpolates(self):
        self.assertEqual(perfstats.percentile([4, 1, 3, 2], 0.5), 2.5)
        self.assertEqual(perfstats.percentile([7], 0.99), 7)
        self.assertEqual(perfstats.percentile([1, 2, 3], 1.0), 3)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.1, 9.4, 2.2, 5.5, 7.0, 4.8, 6.1, 8.3, 1.9, 5.0]
        q1, median, q3 = perfstats.quartiles(values)
        self.assertEqual([q1, median, q3],
                         statistics.quantiles(values, n=4))
        self.assertEqual(median, statistics.median(values))

    def test_known_values(self):
        # Exclusive method: positions (n + 1) * k / 4 of 1..8.
        self.assertEqual(perfstats.quartiles([1, 2, 3, 4, 5, 6, 7, 8]),
                         (2.25, 4.5, 6.75))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(
            perfstats.spread([1, 2, 3, 4, 5, 6, 7, 8]), 4.5 / 4.5)
        self.assertEqual(perfstats.spread([5.0] * 10), 0.0)
        self.assertEqual(perfstats.spread([0.0, 0.0]), 0.0)


class SelfTime(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(perfstats.self_times([(0, 10, -1)]), [10])

    def test_children_are_subtracted(self):
        spans = [(0, 100, -1), (10, 30, 0), (40, 70, 0), (45, 50, 2)]
        self.assertEqual(perfstats.self_times(spans), [50, 20, 25, 5])

    def test_overlapping_children_count_once(self):
        # Two children on different threads overlapping in [20, 30].
        spans = [(0, 100, -1), (10, 30, 0), (20, 50, 0)]
        self.assertEqual(perfstats.self_times(spans)[0], 60)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(10, 20, -1), (5, 15, 0)]
        self.assertEqual(perfstats.self_times(spans)[0], 5)

    def test_self_times_add_up_to_the_root(self):
        spans = [(0, 1000, -1), (0, 400, 0), (100, 300, 1), (400, 990, 0),
                 (500, 600, 3), (600, 700, 3)]
        self.assertEqual(sum(perfstats.self_times(spans)), 1000)


class AmdahlLine(unittest.TestCase):
    def test_ceiling(self):
        self.assertEqual(perfstats.amdahl_ceiling(0.0, 4), 4.0)
        self.assertEqual(perfstats.amdahl_ceiling(1.0, 4), 1.0)
        self.assertAlmostEqual(perfstats.amdahl_ceiling(0.25, 4), 1 / 0.4375)
        self.assertEqual(perfstats.amdahl_ceiling(0.3, 1), 1.0)


class CompareLabels(unittest.TestCase):
    BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]

    def test_within_bound(self):
        new = [v * 1.03 for v in self.BASE]
        new[0] = 9.0  # one run better than every base run
        self.assertEqual(
            perfstats.label_move(self.BASE, new, 0.1, "lower"),
            "within bound")

    def test_worse(self):
        new = [v * 1.2 for v in self.BASE]
        new[0] = 9.0
        self.assertEqual(perfstats.label_move(self.BASE, new, 0.1, "lower"),
                         "worse")

    def test_better_when_every_run_wins(self):
        new = [v * 0.9 for v in self.BASE]
        self.assertEqual(perfstats.label_move(self.BASE, new, 0.1, "lower"),
                         "better")
        self.assertEqual(perfstats.label_move(self.BASE, new, 0.1, "higher"),
                         "worse")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0]
        self.assertEqual(
            perfstats.label_move(self.BASE, noisy, 0.1, "lower"),
            "unresolved")

    def test_higher_is_better(self):
        new = [v * 1.2 for v in self.BASE]
        new[0] = 9.0
        self.assertEqual(perfstats.label_move(self.BASE, new, 0.1, "higher"),
                         "better")


if __name__ == "__main__":
    unittest.main()
