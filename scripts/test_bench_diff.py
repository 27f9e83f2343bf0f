#!/usr/bin/env python3
"""Unit tests for bench_diff.py (registered as the bench_diff_unit CTest).

The fixtures under testdata/ pin the regression matrix the CI bench-diff
job relies on: identical reports pass, a regressed report fails, a looser
threshold forgives it, a report whose repeatable fields changed fails, a
v1-vs-v2 diff degrades to the overlapping subset, and unrelated artifacts are
a usage error rather than a silent pass.
"""

import contextlib
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_diff  # noqa: E402

TESTDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "testdata")
BASE_V2 = os.path.join(TESTDATA, "bench_base_v2.json")
REGRESSED_V2 = os.path.join(TESTDATA, "bench_regressed_v2.json")
BASE_V1 = os.path.join(TESTDATA, "bench_base_v1.json")
DISJOINT_V2 = os.path.join(TESTDATA, "bench_disjoint_v2.json")
UNREPEATED_V2 = os.path.join(TESTDATA, "bench_unrepeated_v2.json")


def run_main(argv):
    """Runs bench_diff.main, capturing (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bench_diff.main(argv)
    return code, out.getvalue(), err.getvalue()


class EntryKeyTest(unittest.TestCase):
    def test_missing_fields_default_cleanly(self):
        self.assertEqual(bench_diff.entry_key({}), ("", "", 0, "", ""))

    def test_v1_and_v2_minseps_entries_collide(self):
        v1 = {"suite": "minseps", "graph": "g", "threads": 2}
        v2 = dict(v1, cost="")
        self.assertEqual(bench_diff.entry_key(v1), bench_diff.entry_key(v2))

    def test_solver_no_longer_distinguishes_entries(self):
        a = {"suite": "ranked", "graph": "g", "threads": 1, "cost": "width"}
        b = dict(a, solver="indexed")
        self.assertEqual(bench_diff.entry_key(a), bench_diff.entry_key(b))

    def test_tier_distinguishes_huge_entries(self):
        a = {"suite": "huge", "graph": "grid-32x32", "threads": 1,
             "tier": "heuristic"}
        b = dict(a, tier="atom-exact")
        self.assertNotEqual(bench_diff.entry_key(a), bench_diff.entry_key(b))

    def test_cost_distinguishes_ranked_entries(self):
        a = {"suite": "ranked", "graph": "g", "threads": 1, "cost": "width"}
        b = dict(a, cost="fill")
        self.assertNotEqual(bench_diff.entry_key(a), bench_diff.entry_key(b))

    def test_index_entries_keys_every_entry(self):
        report = bench_diff.load_report(BASE_V2)
        index = bench_diff.index_entries(report["entries"])
        self.assertEqual(len(index), len(report["entries"]))


class CompareTest(unittest.TestCase):
    def test_identical_reports_have_no_regressions(self):
        report = bench_diff.load_report(BASE_V2)
        result = bench_diff.compare(report, report, 25.0)
        self.assertEqual(result["matched"], len(report["entries"]))
        self.assertEqual(result["base_only"], 0)
        self.assertEqual(result["new_only"], 0)
        self.assertEqual(result["regressions"], [])
        self.assertTrue(all(r["throughput_ratio"] == 1.0
                            for r in result["rows"]))

    def test_missing_entries_are_counted_not_fatal(self):
        base = bench_diff.load_report(BASE_V2)
        v1 = bench_diff.load_report(BASE_V1)
        result = bench_diff.compare(v1, base, 25.0)
        # Only the 3 cost-less minseps points collide; v1's 2 ranked
        # entries and v2's 4 cost-tagged ranked entries do not.
        self.assertEqual(result["matched"], 3)
        self.assertEqual(result["base_only"], 2)
        self.assertEqual(result["new_only"], 4)
        self.assertEqual(result["regressions"], [])

    def test_init_floor_skips_timer_noise(self):
        entry = {"suite": "minseps", "family": "rand", "graph": "g",
                 "threads": 1, "results_per_sec": 100.0,
                 "init_seconds": 0.001}
        base = {"schema_version": 2, "entries": [entry]}
        # 9x init blowup, but under the 0.01 s floor: not a regression.
        new = {"schema_version": 2,
               "entries": [dict(entry, init_seconds=0.009)]}
        result = bench_diff.compare(base, new, 25.0)
        self.assertEqual(result["regressions"], [])
        self.assertIsNone(result["rows"][0]["init_ratio"])


class RepeatTest(unittest.TestCase):
    BASE = {"suite": "ranked", "family": "grid", "graph": "g", "threads": 1,
            "cost": "width", "count": 50, "results_per_sec": 100.0,
            "best_cost": 4.0, "best_count": 12, "status": "complete"}

    def mismatches(self, base, new):
        result = bench_diff.compare({"schema_version": 2, "entries": [base]},
                                    {"schema_version": 2, "entries": [new]},
                                    25.0)
        return result["mismatches"]

    def test_complete_entries_must_repeat_count_and_best(self):
        for field, value in (("count", 51), ("best_cost", 5.0),
                             ("best_count", 11)):
            found = self.mismatches(self.BASE, dict(self.BASE,
                                                    **{field: value}))
            self.assertEqual(len(found), 1, field)
            self.assertIn(field, found[0]["changes"][0])

    def test_complete_ckk_entries_must_repeat_too(self):
        base = dict(self.BASE, suite="ckk")
        self.assertEqual(len(self.mismatches(base, dict(base, count=49))), 1)

    def test_truncated_counts_may_differ(self):
        base = dict(self.BASE, status="truncated")
        new = dict(base, count=70, best_count=30)
        self.assertEqual(self.mismatches(base, new), [])
        # ... but a ckk stream cut by the clock may also find a new best.
        ckk = dict(base, suite="ckk")
        self.assertEqual(self.mismatches(ckk, dict(ckk, best_cost=3.0)), [])

    def test_ranked_best_cost_repeats_even_when_truncated(self):
        base = dict(self.BASE, status="truncated")
        found = self.mismatches(base, dict(base, status="complete",
                                           best_cost=5.0))
        self.assertEqual(len(found), 1)
        self.assertIn("best_cost 4.0 -> 5.0", found[0]["changes"])

    def test_ranked_entry_without_results_is_not_compared(self):
        base = dict(self.BASE, status="ms-terminated", count=0,
                    best_cost=0.0, best_count=0)
        self.assertEqual(
            self.mismatches(base, dict(self.BASE, status="truncated")), [])

    def test_baseline_without_best_fields_skips_both_checks(self):
        base = {k: v for k, v in self.BASE.items()
                if k not in ("best_cost", "best_count")}
        self.assertEqual(self.mismatches(base, dict(self.BASE, count=51)),
                         [])


class MainTest(unittest.TestCase):
    def test_identical_reports_exit_zero_with_table(self):
        code, out, err = run_main([BASE_V2, BASE_V2])
        self.assertEqual(code, 0)
        self.assertIn("| family |", out)
        self.assertIn("| minseps/rand |", out)
        self.assertIn("| ranked/grid |", out)
        self.assertIn("ok |", out)
        self.assertNotIn("REGRESSION", out)
        self.assertIn("bench_diff: OK", err)

    def test_regression_exits_one_and_names_family(self):
        code, out, err = run_main([BASE_V2, REGRESSED_V2])
        self.assertEqual(code, 1)
        # ranked/grid throughput halved (0.50x) and minseps/rand init grew
        # 1.5x on its one above-floor entry: both trip the 25% gate.
        self.assertIn("REGRESSION", out)
        self.assertIn("ranked/grid", err)
        self.assertIn("minseps/rand", err)

    def test_looser_threshold_forgives_the_same_diff(self):
        code, out, _ = run_main([BASE_V2, REGRESSED_V2, "--threshold=60"])
        self.assertEqual(code, 0)
        self.assertNotIn("REGRESSION", out)

    def test_unrepeated_fields_exit_one_and_name_entries(self):
        code, out, err = run_main([BASE_V2, UNREPEATED_V2])
        self.assertEqual(code, 1)
        # Throughput is unchanged: only the repeatability gate trips.
        self.assertNotIn("REGRESSION", out)
        self.assertIn("MISMATCH ranked/grid-4x4 threads=1 cost=width: "
                      "count 50 -> 51", out)
        self.assertIn("MISMATCH ranked/grid-4x4 threads=2 cost=fill: "
                      "best_cost 4.0 -> 5.0", out)
        self.assertIn("2 entries did not repeat", err)

    def test_v1_vs_v2_degrades_to_overlap(self):
        code, out, _ = run_main([BASE_V1, BASE_V2])
        self.assertEqual(code, 0)
        self.assertIn("Matched 3 entries; 2 only in baseline; "
                      "4 only in current.", out)

    def test_zero_overlap_is_a_usage_error(self):
        code, _, err = run_main([BASE_V2, DISJOINT_V2])
        self.assertEqual(code, 2)
        self.assertIn("share no entries", err)

    def test_unreadable_file_is_a_usage_error(self):
        code, _, err = run_main(["/no/such/report.json", BASE_V2])
        self.assertEqual(code, 2)
        self.assertIn("cannot parse", err)

    def test_bad_threshold_is_a_usage_error(self):
        self.assertEqual(run_main([BASE_V2, BASE_V2, "--threshold=0"])[0], 2)
        self.assertEqual(
            run_main([BASE_V2, BASE_V2, "--threshold=100"])[0], 2)


class JsonOutputTest(unittest.TestCase):
    def run_with_json(self, argv):
        import json
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bench_diff.json")
            code, out, err = run_main(argv + [f"--json={path}"])
            doc = None
            if os.path.exists(path):
                with open(path) as f:
                    doc = json.load(f)
            return code, out, err, doc

    def test_json_mirrors_the_markdown_rows(self):
        code, out, _, doc = self.run_with_json([BASE_V2, BASE_V2])
        self.assertEqual(code, 0)
        self.assertIn("| family |", out)  # markdown still printed
        self.assertIsNotNone(doc)
        self.assertEqual(doc["kind"], "bench_diff")
        self.assertEqual(doc["schema_version"], 1)
        self.assertFalse(doc["regressed"])
        self.assertEqual(doc["matched"], 7)
        families = {row["family"] for row in doc["families"]}
        self.assertIn("minseps/rand", families)
        self.assertIn("ranked/grid", families)
        for row in doc["families"]:
            # Identical reports: every measured ratio is exactly 1.0.
            if row["throughput_ratio"] is not None:
                self.assertAlmostEqual(row["throughput_ratio"], 1.0)
            self.assertEqual(row["reasons"], [])

    def test_json_written_on_regression_with_reasons(self):
        code, _, _, doc = self.run_with_json([BASE_V2, REGRESSED_V2])
        self.assertEqual(code, 1)
        self.assertIsNotNone(doc)
        self.assertTrue(doc["regressed"])
        reasons = [r for row in doc["families"] for r in row["reasons"]]
        self.assertTrue(any("throughput" in r for r in reasons))

    def test_json_lists_mismatches(self):
        code, _, _, doc = self.run_with_json([BASE_V2, UNREPEATED_V2])
        self.assertEqual(code, 1)
        self.assertTrue(doc["regressed"])
        self.assertEqual(len(doc["mismatches"]), 2)

    def test_json_records_both_shas_and_threshold(self):
        _, _, _, doc = self.run_with_json(
            [BASE_V2, REGRESSED_V2, "--threshold=60"])
        self.assertEqual(doc["threshold_pct"], 60.0)
        self.assertEqual(doc["base_git_sha"],
                         bench_diff.load_report(BASE_V2).get("git_sha", ""))

    def test_unwritable_json_path_is_a_usage_error(self):
        code, _, err = run_main(
            [BASE_V2, BASE_V2, "--json=/no/such/dir/out.json"])
        self.assertEqual(code, 2)
        self.assertIn("cannot write", err)


if __name__ == "__main__":
    unittest.main()
