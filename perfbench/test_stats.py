"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        samples = list(range(1, 1001))  # 1..1000
        p, value, beyond = stats.tail(samples)
        # p99.9 leaves one sample above it; p99 leaves exactly ten.
        self.assertEqual(p, 99.0)
        self.assertAlmostEqual(value, 990.01)
        self.assertEqual(beyond, 10)

    def test_smaller_sample_drops_to_lower_percentile(self):
        samples = [float(x) for x in range(96)]
        p, value, beyond = stats.tail(samples)
        # 96 samples: p95 leaves 5 above it, p90 leaves 10.
        self.assertEqual(p, 90.0)
        self.assertAlmostEqual(value, 85.5)
        self.assertEqual(beyond, 10)

    def test_ties_do_not_change_the_count(self):
        # Eleven copies of the maximum: p99 still leaves ten samples
        # ranked beyond it, and its value is the tied maximum.
        samples = [1.0] * 989 + [5.0] * 11
        self.assertEqual(stats.tail(samples), (99.0, 5.0, 10))

    def test_tiny_sample_reports_median_and_its_count(self):
        p, value, beyond = stats.tail([3.0, 1.0, 2.0])
        self.assertEqual((p, value, beyond), (50.0, 2.0, 1))

    def test_percentile_interpolates_like_the_runner(self):
        self.assertAlmostEqual(stats.percentile([10, 20, 30, 40], 50), 25.0)
        self.assertAlmostEqual(stats.percentile([10, 20, 30, 40], 95), 38.5)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)


class WindowedTailTest(unittest.TestCase):
    def test_burst_in_one_window_moves_only_that_window(self):
        quiet = [float(x % 100) for x in range(1000)]
        burst = [v + 100.0 for v in quiet]
        samples = quiet * 3 + burst  # 4000 samples, the last 1000 slow
        p, value, beyond, windows = stats.windowed_tail(samples)
        self.assertEqual((p, windows, beyond), (99.0, 4, 10))
        # Three quiet windows and one slow one: the median is quiet.
        self.assertAlmostEqual(value, stats.tail(quiet)[1])
        self.assertGreater(stats.tail(samples)[1], 150.0)

    def test_windows_never_weaken_the_percentile(self):
        samples = [float(x) for x in range(160)]
        # 160 samples give p90; 80 would only give p75, so no windows.
        self.assertEqual(stats.windowed_tail(samples),
                         stats.tail(samples) + (1,))
        # 2000 give p99; windows of 500 would give p95, of 1000 p99.
        p, _, beyond, windows = stats.windowed_tail(
            [float(x) for x in range(2000)])
        self.assertEqual((p, beyond, windows), (99.0, 10, 2))

    def test_fixed_percentile_windows_keep_enough_beyond(self):
        # A one-entry ladder always yields p90, so only the sample count
        # beyond it limits the windows: 40 per window leave 3 beyond.
        samples = [float(x) for x in range(160)]
        self.assertEqual(stats.windowed_tail(samples, ladder=(90.0,)),
                         (90.0, stats.percentile(samples, 90.0), 16, 1))
        p, _, beyond, windows = stats.windowed_tail(
            [float(x % 1250) for x in range(5000)], ladder=(90.0,))
        self.assertEqual((p, beyond, windows), (90.0, 125, 4))


class DrainTest(unittest.TestCase):
    def test_drain_is_last_completion_minus_last_arrival(self):
        self.assertAlmostEqual(
            stats.drain_ms([0.0, 400.0, 1000.0, 900.0], 3500.0), 2.5)


class WindowedRateTest(unittest.TestCase):
    def test_slow_stretch_in_one_window_does_not_move_it(self):
        # 8 passes of 8 samples; the last two take 4x as long.
        seconds = [0.1] * 6 + [0.4] * 2
        self.assertAlmostEqual(
            stats.windowed_rate([8] * 8, seconds, 4), 80.0)
        # The mean over the run would read 64 / 1.4 s.
        self.assertLess(sum([8] * 8) / sum(seconds), 46.0)

    def test_uneven_windows_and_single_window(self):
        self.assertAlmostEqual(
            stats.windowed_rate([1, 1, 1, 1, 1], [1, 1, 1, 1, 1], 2), 1.0)
        self.assertAlmostEqual(
            stats.windowed_rate([3, 5], [1.0, 1.0], 1), 4.0)
        with self.assertRaises(ValueError):
            stats.windowed_rate([1], [1.0, 2.0], 1)


class GoodputTest(unittest.TestCase):
    def test_counts_only_ok_requests_within_the_limit(self):
        lat = [1.0, 2.0, 30.0, 3.0, 4.0]
        ok = [True, True, True, False, True]
        # Request 2 is late, request 3 failed: 3 of 5 count, over 2 s.
        self.assertAlmostEqual(stats.goodput(lat, ok, 2.0, 25.0), 1.5)

    def test_request_at_the_limit_meets_it(self):
        self.assertEqual(stats.goodput([25.0], [True], 1.0, 25.0), 1.0)

    def test_outcomes_must_match_latencies(self):
        with self.assertRaises(ValueError):
            stats.goodput([1.0, 2.0], [True], 1.0, 25.0)


def span(start, end, parent=-1):
    return {"start_us": start, "end_us": end, "parent": parent}


class SelfTimeTest(unittest.TestCase):
    def test_parent_minus_children(self):
        spans = [span(0, 100), span(10, 30, 0), span(40, 90, 0)]
        self.assertEqual(stats.self_times(spans), [30, 20, 50])

    def test_overlapping_children_count_once(self):
        # Two children run concurrently (parallel encoders): 10..60.
        spans = [span(0, 100), span(10, 50, 0), span(20, 60, 0)]
        self.assertEqual(stats.self_times(spans)[0], 50)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, 100), span(90, 130, 0), span(-20, 5, 0)]
        self.assertEqual(stats.self_times(spans)[0], 85)

    def test_grandchildren_belong_to_their_own_parent(self):
        spans = [span(0, 100), span(0, 80, 0), span(10, 70, 1)]
        self.assertEqual(stats.self_times(spans), [20, 20, 60])


class HostNoiseTest(unittest.TestCase):
    def test_steal_share_between_readings(self):
        before = stats.parse_proc_stat_cpu(
            "cpu  100 0 50 800 0 0 0 50 0 0\ncpu0 1 2 3 4\n")
        after = stats.parse_proc_stat_cpu(
            "cpu  200 0 100 1600 0 0 0 100 0 0\n")
        self.assertEqual(before, (1000, 50))
        self.assertAlmostEqual(stats.steal_pct(before, after), 5.0)

    def test_process_ticks_survive_spaces_in_the_name(self):
        text = "42 (mm perf) S " + " ".join(["0"] * 10) + " 250 50 0 0"
        self.assertEqual(stats.parse_proc_pid_cpu_ticks(text), 300)

    def test_cpu_util_over_thread_seconds(self):
        self.assertAlmostEqual(stats.cpu_util(300, 100, 2.0, 2), 0.75)


class SpreadTest(unittest.TestCase):
    def test_quartile_spread_over_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0, 10.0, 10.0, 9.5, 10.5, 10.0]
        q1, q2, q3 = 9.875, 10.0, 10.125
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / q2)


if __name__ == "__main__":
    unittest.main()
