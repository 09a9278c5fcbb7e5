"""Self-tests of the benchmark's own statistics, output checks and
comparison code. Run from the repository root:

    python3 -m unittest discover -s ledger -p 'test_*.py'
"""

import sys
import unittest

sys.dont_write_bytecode = True
import ledger  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "episodes_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "victim_steps_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.2},
]}

FP = {"nproc": 4, "cpus": "0-3", "simd_kernel": "avx2", "bench_scale": 0.25,
      "build_type": "Release", "source_rev": "aaaa"}


def result(workload, episodes_s, rate, **fp_changes):
    return {"workload": workload, "trace": 0,
            "fingerprint": dict(FP, **fp_changes),
            "metrics": {"episodes_s": {"value": episodes_s, "unit": "s"},
                        "victim_steps_per_s": {"value": rate, "unit": "1/s"}}}


class StatsTest(unittest.TestCase):
    def test_median_and_quartile_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertEqual(ledger.median(values), 5.5)
        # statistics.quantiles(n=4) puts Q1 at 2.75 and Q3 at 8.25 here.
        self.assertAlmostEqual(ledger.quartile_spread(values), 5.5 / 5.5)
        self.assertEqual(ledger.quartile_spread([3.0]), 0.0)
        self.assertEqual(ledger.quartiles(values), (2.75, 8.25))
        self.assertEqual(ledger.quartiles([3.0]), (3.0, 3.0))

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(ledger.worse_by(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(ledger.worse_by(10.0, 9.0, "higher"), 0.1)
        self.assertLess(ledger.worse_by(10.0, 9.0, "lower"), 0.0)

    def test_cpu_list(self):
        self.assertEqual(ledger.cpu_list({0, 1, 2, 5}), "0-2,5")
        self.assertEqual(ledger.cpu_list({3}), "3")


class DigestTest(unittest.TestCase):
    def test_all_passes_agree_with_reference(self):
        self.assertEqual(
            ledger.digest_failures(["ab", "ab", "ab"], None, ["ab"]), 0)

    def test_mismatch_against_reference_counts_every_bad_pass(self):
        self.assertEqual(
            ledger.digest_failures(["ab", "cd", "ab"], None, ["ab"]), 1)
        self.assertEqual(ledger.digest_failures(["cd", "cd"], None, ["ab"]), 2)

    def test_each_pass_is_checked_against_its_own_grid(self):
        grids = [0, 1, 0, 1]
        self.assertEqual(ledger.digest_failures(
            ["ab", "cd", "ab", "cd"], grids, ["ab", "cd"]), 0)
        self.assertEqual(ledger.digest_failures(
            ["ab", "ab", "ab", "cd"], grids, ["ab", "cd"]), 1)

    def test_without_reference_passes_must_agree_with_each_other(self):
        self.assertEqual(ledger.digest_failures(["ab", "ab", "cd"], None, None),
                         1)
        self.assertEqual(ledger.digest_failures(
            ["ab", "cd", "ab", "ef"], [0, 1, 0, 1], None), 1)


class CompareTest(unittest.TestCase):
    def test_within_bounds_passes(self):
        base = [result("w", 10.0, 100.0), result("w", 10.4, 98.0),
                result("w", 9.8, 101.0)]
        head = [result("w", 11.0, 90.0, source_rev="bbbb")]
        rows, ok = ledger.compare(base, head, SPEC)
        self.assertTrue(ok, rows)
        self.assertEqual(len(rows), 2)

    def test_regression_beyond_bound_fails(self):
        base = [result("w", 10.0, 100.0)]
        head = [result("w", 12.5, 100.0)]
        rows, ok = ledger.compare(base, head, SPEC)
        self.assertFalse(ok)
        self.assertEqual([r[3] for r in rows], [False, True])

    def test_base_spread_wider_than_bound_is_unresolved(self):
        base = [result("w", v, 100.0) for v in (6.0, 8.0, 10.0, 12.0, 14.0)]
        rows, ok = ledger.compare(base, [result("w", 10.0, 100.0)], SPEC)
        self.assertFalse(ok)
        self.assertTrue(rows[0][2].endswith("unresolved"))
        # Unless every head run reads better than every base run.
        rows, ok = ledger.compare(base, [result("w", 5.0, 100.0)], SPEC)
        self.assertTrue(ok, rows)

    def test_fingerprint_mismatch_is_refused(self):
        base = [result("w", 10.0, 100.0)]
        head = [result("w", 10.0, 100.0, cpus="0", nproc=1)]
        rows, ok = ledger.compare(base, head, SPEC)
        self.assertFalse(ok)
        self.assertIn("fingerprint mismatch", [r[2] for r in rows])

    def test_other_core_count_compares_within_its_own_fingerprint(self):
        one_core = {"cpus": "0"}
        base = [result("w", 10.0, 100.0), result("w", 20.0, 50.0, **one_core)]
        head = [result("w", 10.1, 99.0), result("w", 20.1, 49.0, **one_core)]
        rows, ok = ledger.compare(base, head, SPEC)
        self.assertTrue(ok, rows)
        self.assertEqual(len(rows), 4)

    def test_zero_compared_workloads_fails(self):
        rows, ok = ledger.compare([result("a", 1.0, 1.0)],
                                  [result("b", 1.0, 1.0)], SPEC)
        self.assertFalse(ok)
        self.assertIn("zero workloads compared", [r[2] for r in rows])
        rows, ok = ledger.compare([], [], SPEC)
        self.assertFalse(ok)


class MetricsTest(unittest.TestCase):
    def test_end_to_end_pools_passes_of_every_process_at_better_quartile(self):
        timed = [{"episodes_s": [2.0, 1.0], "victim_steps": [100] * 2,
                  "grids": [0, 0], "setup_s": [0.1, 0.3],
                  "peak_rss_mb": 40.0},
                 {"episodes_s": [3.0], "victim_steps": [100],
                  "grids": [0], "setup_s": [0.2], "peak_rss_mb": 44.0},
                 {"episodes_s": [2.5], "victim_steps": [100],
                  "grids": [0], "setup_s": [0.4], "peak_rss_mb": 41.0}]
        m = ledger.end_to_end(timed)
        # Pass times 1, 2, 2.5, 3: the first quartile, within the passes.
        self.assertEqual(m["episodes_s"], (1.75, "s"))
        # Rates per pass 33.3, 40, 50, 100: the third quartile.
        self.assertEqual(m["victim_steps_per_s"], (62.5, "1/s"))
        self.assertEqual(m["setup_s"], (0.25, "s"))
        self.assertEqual(m["peak_rss_mb"], (41.0, "MiB"))

    def test_end_to_end_averages_the_quartiles_of_each_grid(self):
        timed = [{"episodes_s": [1.0, 4.0, 2.0, 5.0, 3.0, 6.0],
                  "victim_steps": [12.0] * 6, "grids": [0, 1] * 3,
                  "setup_s": [0.1], "peak_rss_mb": 40.0}]
        m = ledger.end_to_end(timed)
        # Grid 0 passes 1, 2, 3 (Q1 1.5), grid 1 passes 4, 5, 6 (Q1 4.5).
        self.assertEqual(m["episodes_s"], (3.0, "s"))
        # Grid 0 rates 4, 6, 12 (Q3 9), grid 1 rates 2, 2.4, 3 (Q3 2.7).
        self.assertAlmostEqual(m["victim_steps_per_s"][0], 5.85)

    def test_a_grid_of_two_passes_stays_within_them(self):
        timed = [{"episodes_s": [1.0, 2.0], "victim_steps": [10.0] * 2,
                  "grids": [0, 0], "setup_s": [0.1], "peak_rss_mb": 40.0}]
        m = ledger.end_to_end(timed)
        self.assertEqual(m["episodes_s"], (1.25, "s"))
        self.assertEqual(m["victim_steps_per_s"], (8.75, "1/s"))

    def test_per_layer_reports_every_layer_metric(self):
        span = {"total_s": 2.0, "p50_s": 0.5, "p99_s": 1.0}
        traced = {
            "episodes_s": [4.0], "untraced_episodes_s": 3.2, "cpu_s": [8.0],
            "registry": {
                "counters": {"nn.gemm.calls": 10, "nn.gemm.flops": 4e9},
                "gauges": {"experiment.workers": 32.0},
                "histograms": {"eval.batch.size": {"mean": 7.5}},
                "spans": {"phase.victim_step": span,
                          "nn.forward.Dense": span}}}
        m = ledger.per_layer(traced, 0.0)
        self.assertEqual(m["core.victim_step_p50_s"], (0.5, "s"))
        self.assertEqual(m["attack.eval_batch_rows_mean"], (7.5, "rows"))
        self.assertEqual(m["nn.flops_per_gemm"], (4e8, "flop"))
        self.assertEqual(m["nn.gemm_gflops_approx"], (2.0, "GFLOP/s"))
        self.assertAlmostEqual(m["obs.trace_overhead"][0], 0.25)
        self.assertEqual(m["proc.cpu_util"], (2.0, "ratio"))
        self.assertEqual(m["nn.forward_s.Conv2D"], (0.0, "s"))


if __name__ == "__main__":
    unittest.main()
