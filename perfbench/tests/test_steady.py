"""Checks the steadiness summary's quartile arithmetic on hand-made values.

    python3 perfbench/tests/test_steady.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import steady  # noqa: E402


class SummariseTest(unittest.TestCase):
    def test_quartiles_are_the_exclusive_method(self):
        median, q1, q3, spread = steady.summarise(list(range(1, 11)))
        self.assertEqual(median, 5.5)
        self.assertEqual(q1, 2.75)
        self.assertEqual(q3, 8.25)
        self.assertAlmostEqual(spread, 5.5 / 5.5)

    def test_order_does_not_matter(self):
        self.assertEqual(steady.summarise([4.0, 1.0, 3.0, 2.0]),
                         steady.summarise([1.0, 2.0, 3.0, 4.0]))

    def test_identical_values_have_no_spread(self):
        self.assertEqual(steady.summarise([2.5] * 10), (2.5, 2.5, 2.5, 0.0))

    def test_zero_median_reports_infinite_spread(self):
        self.assertEqual(steady.summarise([0.0, 0.0, 0.0])[3], float("inf"))


if __name__ == "__main__":
    unittest.main()
