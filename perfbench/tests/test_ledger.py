"""Tests for the benchmark's own arithmetic (perfbench/ledger.py).

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import ledger  # noqa: E402


def span(name, category, start_s, end_s, pid=100, tid=0, trace="7"):
    return [name, category, pid, tid, int(start_s * 1e9), int((end_s - start_s) * 1e9), trace]


class TailRuleTest(unittest.TestCase):
    def test_value_with_exactly_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 34)]  # 33 campaigns
        p, value, n_beyond = ledger.tail_percentile(values)
        self.assertEqual(value, 23.0)  # the 11th slowest
        self.assertEqual(n_beyond, 10)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(p, 100.0 * 23 / 33)

    def test_percentile_rises_with_the_sample_count(self):
        self.assertAlmostEqual(ledger.tail_percentile(list(range(100)))[0], 90.0)
        self.assertAlmostEqual(ledger.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertAlmostEqual(ledger.tail_percentile(list(range(20)))[0], 50.0)

    def test_order_of_samples_does_not_matter(self):
        values = [float((7 * i) % 25) for i in range(25)]  # 0..24, shuffled
        self.assertEqual(ledger.tail_percentile(values)[1], 14.0)

    def test_too_few_samples_fall_back_to_the_median(self):
        values = [3.0, 1.0, 2.0, 5.0, 4.0]
        p, value, n_beyond = ledger.tail_percentile(values)
        self.assertEqual((p, value), (50.0, 3.0))
        self.assertLess(n_beyond, ledger.MIN_BEYOND)
        # 12 samples would put the rank at p16.7, below the median.
        p, value, _ = ledger.tail_percentile([float(v) for v in range(12)])
        self.assertEqual((p, value), (50.0, 5.5))

    def test_percentile_interpolates_linearly(self):
        self.assertEqual(ledger.percentile([10.0, 20.0], 50.0), 15.0)
        self.assertEqual(ledger.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75.0), 4.0)
        self.assertEqual(ledger.percentile([7.0], 90.0), 7.0)


class HypervolumeTest(unittest.TestCase):
    def test_staircase_against_the_reference_point(self):
        front = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        # Columns of the staircase under (4, 4): 3 + 2 + 1 wide, summed
        # as horizontal slabs: (4-1)*(4-3) + (4-2)*(3-2) + (4-3)*(2-1).
        self.assertAlmostEqual(ledger.hypervolume_2d(front, (4.0, 4.0)), 6.0)

    def test_dominated_and_outside_points_add_only_their_clipped_part(self):
        front = [(1.0, 1.0)]
        self.assertAlmostEqual(ledger.hypervolume_2d(front + [(2.0, 2.0)], (3.0, 3.0)), 4.0)
        # A point beyond the reference in one objective is clipped to it.
        self.assertAlmostEqual(ledger.hypervolume_2d([(0.5, 5.0)], (1.0, 2.0)), 0.0)
        self.assertAlmostEqual(ledger.hypervolume_2d([(0.5, 1.0), (5.0, 0.0)], (1.0, 2.0)), 0.5)

    def test_order_does_not_matter(self):
        front = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)]
        self.assertAlmostEqual(ledger.hypervolume_2d(front, (4.0, 4.0)), 6.0)


class HostSpeedTest(unittest.TestCase):
    def test_core_slowdown_is_the_median_probe_over_the_reference(self):
        self.assertEqual(ledger.core_slowdown([0.25, 0.125, 0.5], 0.125), 2.0)
        # One outlying probe point does not move it.
        self.assertEqual(ledger.core_slowdown([0.125] * 4 + [1.0], 0.125), 1.0)

    def test_stolen_time_comes_off_and_the_rest_runs_at_reference_speed(self):
        self.assertEqual(ledger.reference_speed_factor(0.0, 1.0), 1.0)
        # A quarter stolen on cores half as fast: 8 s measured read as 3 s.
        self.assertEqual(8.0 * ledger.reference_speed_factor(0.25, 2.0), 3.0)


class IdleShareTest(unittest.TestCase):
    def test_busy_over_lane_capacity(self):
        # 4 lanes for 2.5 s of batch wall time, 8 s of evaluation.
        self.assertAlmostEqual(ledger.idle_share(8.0, 4, 2.5), 0.2)

    def test_saturated_and_empty(self):
        self.assertAlmostEqual(ledger.idle_share(10.0, 4, 2.5), 0.0)
        self.assertEqual(ledger.idle_share(1.0, 4, 0.0), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
        # Covered inside [0, 10]: [1, 6] and [8, 10] -> 7 s.
        self.assertAlmostEqual(ledger.self_time((0.0, 10.0), children), 3.0)

    def test_nested_and_disjoint_children(self):
        self.assertAlmostEqual(ledger.self_time((0.0, 10.0), [(2.0, 8.0), (3.0, 4.0)]), 4.0)
        self.assertAlmostEqual(ledger.self_time((0.0, 10.0), [(11.0, 12.0)]), 10.0)
        self.assertAlmostEqual(ledger.self_time((0.0, 10.0), []), 10.0)

    def test_union_length(self):
        self.assertAlmostEqual(ledger.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]), 4.0)


class ScrapeTest(unittest.TestCase):
    def test_series_are_summed_over_labels(self):
        text = "\n".join([
            "# TYPE hm_campaign_evals_delivered gauge",
            'hm_campaign_evals_delivered{campaign="a"} 230',
            'hm_campaign_evals_delivered{campaign="b"} 229',
            "hm_serve_sheds 0",
            "garbage line",
        ])
        sums = ledger.prometheus_sums(text)
        self.assertEqual(sums["hm_campaign_evals_delivered"], 459.0)
        self.assertEqual(sums["hm_serve_sheds"], 0.0)
        self.assertNotIn("garbage", sums)


class FoldTest(unittest.TestCase):
    def kfusion_spans(self, sandboxed):
        driver = dict(tid=0)
        spans = [
            span("bench_campaign", "perfbench", 0.0, 10.0, **driver),
            span("bench_propose", "perfbench", 0.0, 1.0, **driver),
            span("surrogate_fit", "dse", 0.2, 0.4, **driver),
            span("surrogate_predict", "dse", 0.5, 0.9, **driver),
            span("bench_batch", "perfbench", 1.0, 9.0, **driver),
            span("bench_finish", "perfbench", 9.0, 9.5, **driver),
        ]
        # Two lanes, each evaluating for 6 s of the 8 s batch: 4 s of frames
        # (tracking 2, integration 1, preprocess 0.5) and 1 s of harness; in
        # the sandboxed case the worker's share is 5 s of the 6 s evaluation.
        for tid in (1, 2):
            spans.append(span("bench_evaluate", "perfbench", 1.0, 7.0, tid=tid))
            pid, offset = (200 + tid, 1.0) if sandboxed else (100, 0.0)
            base = 1.0 + offset
            if sandboxed:
                spans.append(span("worker_eval", "sandbox", base, base + 5.0, pid=pid))
            else:
                pid = 100
            frame_tid = tid if not sandboxed else 0
            spans.append(span("kfusion_frame", "slam", base, base + 4.0, pid=pid, tid=frame_tid))
            spans.append(span("tracking", "kfusion", base, base + 2.0, pid=pid, tid=frame_tid))
            spans.append(span("integration", "kfusion", base + 2.0, base + 3.0, pid=pid, tid=frame_tid))
            spans.append(span("preprocess", "kfusion", base + 3.0, base + 3.5, pid=pid, tid=frame_tid))
        spans.append(span("bench_campaign", "perfbench", 0.0, 3.0, trace="8"))
        return ledger.campaign_spans(spans, "7")

    def test_in_process_lines_sum_to_the_campaign(self):
        wall, lines, layers = ledger.fold_kfusion(self.kfusion_spans(False), lanes=2)
        self.assertAlmostEqual(wall, 10.0)
        self.assertAlmostEqual(sum(lines.values()), wall)
        self.assertAlmostEqual(lines["ledger.rf_s"], 0.6)
        self.assertAlmostEqual(lines["ledger.hypermapper_s"], 0.9)
        # 8 s of batch over 2 lanes: 8 s of frames, 4 s harness, 4 s idle of 16.
        self.assertAlmostEqual(lines["ledger.kfusion_s"], 4.0)
        self.assertAlmostEqual(lines["ledger.slambench_s"], 2.0)
        self.assertAlmostEqual(lines["ledger.thread_pool_s"], 2.0)
        self.assertAlmostEqual(lines["ledger.sandbox_s"], 0.0)
        self.assertAlmostEqual(lines["ledger.unattributed_s"], 0.5)
        self.assertAlmostEqual(layers["kfusion.tracking_s"], 4.0)
        self.assertAlmostEqual(layers["kfusion.outside_frames_s"], 4.0)
        self.assertAlmostEqual(layers["slambench.eval_busy_s"], 12.0)

    def test_sandboxed_lines_split_ipc_from_worker_time(self):
        wall, lines, layers = ledger.fold_kfusion(self.kfusion_spans(True), lanes=2)
        self.assertAlmostEqual(sum(lines.values()), wall)
        # Per lane: 6 s evaluate = 1 s sandbox + 1 s harness + 4 s frames.
        self.assertAlmostEqual(lines["ledger.sandbox_s"], 1.0)
        self.assertAlmostEqual(lines["ledger.slambench_s"], 1.0)
        self.assertAlmostEqual(lines["ledger.kfusion_s"], 4.0)
        self.assertAlmostEqual(layers["kfusion.outside_frames_s"], 2.0)

    def test_served_lines_sum_to_the_campaign(self):
        spans = [span("bench_campaign", "perfbench", 0.0, 2.0)]
        wall, lines = ledger.fold_served(
            spans, {"rf_s": 0.5, "hypermapper_s": 0.2, "sandbox_s": 0.1},
            serve_overhead_s=1.0)
        self.assertAlmostEqual(wall, 2.0)
        self.assertAlmostEqual(lines["ledger.sandbox_s"], 0.1)
        self.assertAlmostEqual(lines["ledger.unattributed_s"], 0.2)
        self.assertAlmostEqual(sum(lines.values()), wall)


if __name__ == "__main__":
    unittest.main()
