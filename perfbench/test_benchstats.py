"""Tests for the steadiness tool's quartile maths (benchstats) and for the
runner's nearest-rank percentile rule (runner/common.hpp), which the
perfbench_rank tool applies to samples given on stdin. Building that tool
configures .bench_build/ like run.py does.

    python3 -m unittest discover -s perfbench
"""

import math
import os
import random
import statistics
import subprocess
import unittest

import run
from benchstats import quartiles, spread, worse_by

RANK_TOOL = os.path.join(run.BUILD_DIR, "perfbench_rank")


def nearest_rank(values, p):
    """The runner's nearest-rank p-th percentile of `values`."""
    line = " ".join(repr(float(x)) for x in [p, *values])
    proc = subprocess.run([RANK_TOOL], input=line + "\n", stdout=subprocess.PIPE, text=True,
                          check=True)
    answer = proc.stdout.strip()
    if answer.startswith("error: "):
        raise ValueError(answer)
    return float(answer)


class QuartileTest(unittest.TestCase):
    def test_one_value_is_every_quartile(self):
        self.assertEqual(quartiles([7.5]), (7.5, 7.5, 7.5))
        self.assertEqual(spread([7.5]), 0.0)

    def test_two_values_extrapolate_like_the_exclusive_method(self):
        # Positions (n+1)p = 0.75, 1.5, 2.25 over [1, 3]: the outer
        # quartiles reach past both samples.
        self.assertEqual(quartiles([1.0, 3.0]), (0.5, 2.0, 3.5))
        self.assertAlmostEqual(spread([1.0, 3.0]), 1.5)

    def test_ties_give_zero_spread(self):
        self.assertEqual(quartiles([4, 4, 4, 4]), (4, 4, 4))
        self.assertEqual(spread([4, 4, 4, 4]), 0.0)
        # One outlier among ties: the spread stays on the tied side.
        self.assertEqual(quartiles([2, 2, 2, 2, 2, 2, 2, 2, 2, 9]), (2, 2, 2.0))

    def test_ten_values_match_the_acceptance_rule(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        self.assertEqual(quartiles(values), (11.75, 14.5, 17.25))
        self.assertAlmostEqual(spread(values), 5.5 / 14.5)

    def test_agrees_with_statistics_quantiles(self):
        rng = random.Random(20221)
        for n in range(2, 40):
            values = [rng.uniform(0.5, 2.0) for _ in range(n)]
            self.assertEqual(quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_order_does_not_matter(self):
        self.assertEqual(quartiles([3, 1, 2, 5, 4]), quartiles([1, 2, 3, 4, 5]))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            quartiles([])

    def test_zero_median(self):
        self.assertEqual(spread([0, 0, 0]), 0.0)
        self.assertTrue(math.isinf(spread([-1, 0, 0, 1])))


class NearestRankTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build("perfbench_rank")

    def test_one_sample(self):
        for p in (0.001, 50, 90, 100):
            self.assertEqual(nearest_rank([42], p), 42)

    def test_two_samples(self):
        self.assertEqual(nearest_rank([5, 1], 50), 1)   # rank ceil(1.0) = 1
        self.assertEqual(nearest_rank([5, 1], 50.1), 5)  # rank ceil(1.002) = 2
        self.assertEqual(nearest_rank([5, 1], 90), 5)

    def test_rank_edges(self):
        values = list(range(1, 11))  # 1..10
        self.assertEqual(nearest_rank(values, 0.001), 1)  # smallest p -> rank 1
        self.assertEqual(nearest_rank(values, 10), 1)     # exactly 1.0 -> rank 1
        self.assertEqual(nearest_rank(values, 10.01), 2)  # just past -> rank 2
        self.assertEqual(nearest_rank(values, 50), 5)
        self.assertEqual(nearest_rank(values, 90), 9)
        self.assertEqual(nearest_rank(values, 90.01), 10)
        self.assertEqual(nearest_rank(values, 100), 10)

    def test_ties(self):
        self.assertEqual(nearest_rank([3, 3, 3, 1], 50), 3)
        self.assertEqual(nearest_rank([3, 3, 3, 1], 25), 1)

    def test_result_is_a_sample(self):
        rng = random.Random(7)
        values = [rng.random() for _ in range(101)]
        for p in (1, 33.3, 50, 90, 99, 100):
            got = nearest_rank(values, p)
            self.assertIn(got, values)
            at_or_below = sum(v <= got for v in values)
            self.assertGreaterEqual(at_or_below / len(values), p / 100)
            # The smallest such sample: one fewer would not reach p%.
            self.assertLess((at_or_below - 1) / len(values), p / 100)

    def test_invalid_input(self):
        with self.assertRaises(ValueError):
            nearest_rank([], 50)
        for p in (0, -1, 100.5):
            with self.assertRaises(ValueError):
                nearest_rank([1, 2], p)


class WorseByTest(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(worse_by(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(worse_by(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(worse_by(100, 80, "higher"), 0.20)

    def test_zero_base(self):
        self.assertEqual(worse_by(0, 0, "lower"), 0.0)
        self.assertTrue(math.isinf(worse_by(0, 1, "lower")))


if __name__ == "__main__":
    unittest.main()
