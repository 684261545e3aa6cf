#!/usr/bin/env python3
"""Unit tests for the pure logic of tools/bench_check.py: run/baseline
schema validation, the merge-style --update document builder, and the
calibration-normalized trend gate.  No amopt/ambench binary is needed;
everything runs on fabricated documents.

Run directly (``python3 tools/bench_check_test.py``) or via ctest
(``bench_check_unit``).
"""

import copy
import importlib.util
import json
import os
import sys
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "bench_check", os.path.join(_HERE, "bench_check.py"))
bench_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_check)


def make_run(calib_ns=100, presets=None):
    """A minimal valid ambench-v1 document."""
    if presets is None:
        presets = {"uniform/structured-64": 1000}
    results = [{"name": "calib/spin", "wall_ns": calib_ns, "mad_ns": 1,
                "kept": 3, "samples": [calib_ns, calib_ns, calib_ns]}]
    for name, wall in presets.items():
        results.append({"name": name, "wall_ns": wall, "mad_ns": 1,
                        "kept": 3, "samples": [wall, wall, wall]})
    return {
        "schema": "ambench-v1",
        "fingerprint": {"host": "test", "cpu": "fake", "threads": 1},
        "calibration": {"spin_ns": calib_ns},
        "results": results,
    }


class ValidateRunTest(unittest.TestCase):
    def test_valid_run_passes(self):
        self.assertEqual(bench_check.validate_run(make_run()), [])

    def test_wrong_schema_tag(self):
        doc = make_run()
        doc["schema"] = "ambench-v0"
        self.assertTrue(any("schema" in e
                            for e in bench_check.validate_run(doc)))

    def test_missing_calibration(self):
        doc = make_run()
        del doc["calibration"]
        self.assertTrue(any("calibration" in e
                            for e in bench_check.validate_run(doc)))

    def test_malformed_samples(self):
        doc = make_run()
        doc["results"][1]["samples"] = ["fast", "slow"]
        self.assertTrue(any("samples" in e
                            for e in bench_check.validate_run(doc)))

    def test_negative_wall_ns(self):
        doc = make_run()
        doc["results"][1]["wall_ns"] = -5
        self.assertTrue(any("wall_ns" in e
                            for e in bench_check.validate_run(doc)))

    def test_non_object(self):
        self.assertTrue(bench_check.validate_run([1, 2, 3]))
        self.assertTrue(bench_check.validate_run(None))


class ValidateBaselineTest(unittest.TestCase):
    def make_baseline(self):
        return {
            "tolerance": 1.15,
            "presets": {
                "uniform/running_example": {
                    "wall_ns": 123456,
                    "counters": {"dfa.solves": 7},
                },
            },
        }

    def test_valid_baseline(self):
        self.assertEqual(
            bench_check.validate_baseline(self.make_baseline()), [])

    def test_bad_tolerance(self):
        doc = self.make_baseline()
        doc["tolerance"] = 0.5
        self.assertTrue(bench_check.validate_baseline(doc))

    def test_bad_counter_value(self):
        doc = self.make_baseline()
        doc["presets"]["uniform/running_example"]["counters"]["x"] = "many"
        self.assertTrue(bench_check.validate_baseline(doc))

    def test_invalid_ambench_section_reported(self):
        doc = self.make_baseline()
        doc["ambench"] = {"schema": "wrong"}
        self.assertTrue(any(e.startswith("ambench:")
                            for e in bench_check.validate_baseline(doc)))

    def test_valid_history_section(self):
        doc = self.make_baseline()
        doc["history"] = {"file": "bench/BENCH_history.jsonl"}
        self.assertEqual(bench_check.validate_baseline(doc), [])

    def test_history_must_be_object(self):
        doc = self.make_baseline()
        doc["history"] = "bench/BENCH_history.jsonl"
        self.assertTrue(any("history: not an object" in e
                            for e in bench_check.validate_baseline(doc)))

    def test_history_needs_file_pointer(self):
        doc = self.make_baseline()
        doc["history"] = {"_comment": "pointer lost"}
        self.assertTrue(any("history: missing file pointer" in e
                            for e in bench_check.validate_baseline(doc)))


class CommittedBaselineTest(unittest.TestCase):
    def test_presets_record_exactly_the_gated_counters(self):
        # The check compares only the counters a baseline entry records: a
        # gated counter missing there is silently ungated, a stale one
        # (no longer produced) reads as 0 and never fails.
        path = os.path.join(_HERE, os.pardir, "bench", "BENCH_baseline.json")
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        for name, entry in doc["presets"].items():
            self.assertEqual(sorted(entry["counters"]),
                             sorted(bench_check.GATED_COUNTERS), name)


class BuildBaselineDocTest(unittest.TestCase):
    RESULTS = {"uniform/running_example": {"wall_ns": 42,
                                           "counters": {"dfa.solves": 1}}}

    def test_preserves_unknown_sections(self):
        old = {"presets": {}, "tolerance": 1.0,
               "my_custom_section": {"keep": "me"}}
        doc = bench_check.build_baseline_doc(old, self.RESULTS)
        self.assertEqual(doc["my_custom_section"], {"keep": "me"})
        self.assertEqual(doc["presets"], self.RESULTS)
        self.assertEqual(doc["tolerance"], bench_check.TOLERANCE)

    def test_preserves_history_pointer(self):
        old = {"presets": {}, "tolerance": 1.0,
               "history": {"file": "bench/BENCH_history.jsonl"}}
        doc = bench_check.build_baseline_doc(old, self.RESULTS, make_run())
        self.assertEqual(doc["history"],
                         {"file": "bench/BENCH_history.jsonl"})
        self.assertEqual(bench_check.validate_baseline(doc), [])

    def test_refreshes_wall_ns(self):
        old = {"presets": {"uniform/running_example": {
            "wall_ns": 999999, "counters": {"dfa.solves": 1}}}}
        doc = bench_check.build_baseline_doc(old, self.RESULTS)
        self.assertEqual(
            doc["presets"]["uniform/running_example"]["wall_ns"], 42)

    def test_ambench_section_untouched_without_run(self):
        old = {"presets": {}, "ambench": make_run()}
        doc = bench_check.build_baseline_doc(old, self.RESULTS)
        self.assertEqual(doc["ambench"], make_run())

    def test_ambench_section_replaced_with_run(self):
        old = {"presets": {}, "ambench": make_run(calib_ns=1)}
        new_run = make_run(calib_ns=200)
        doc = bench_check.build_baseline_doc(old, self.RESULTS, new_run)
        self.assertEqual(doc["ambench"]["calibration"]["spin_ns"], 200)

    def test_result_validates(self):
        doc = bench_check.build_baseline_doc({}, self.RESULTS, make_run())
        self.assertEqual(bench_check.validate_baseline(doc), [])


class TrendTest(unittest.TestCase):
    BIG = 100_000_000  # 100 ms — far above the noise floor

    def test_identical_runs_pass(self):
        base = make_run(presets={"p": self.BIG})
        failures, _ = bench_check.trend_failures(base,
                                                 copy.deepcopy(base))
        self.assertEqual(failures, [])

    def test_large_regression_fails(self):
        base = make_run(presets={"p": self.BIG})
        slow = make_run(presets={"p": self.BIG * 3})
        failures, _ = bench_check.trend_failures(base, slow, factor=2.0)
        self.assertEqual(len(failures), 1)
        self.assertIn("3.00x", failures[0])

    def test_below_factor_passes(self):
        base = make_run(presets={"p": self.BIG})
        ok = make_run(presets={"p": int(self.BIG * 1.9)})
        failures, _ = bench_check.trend_failures(base, ok, factor=2.0)
        self.assertEqual(failures, [])

    def test_noise_floor_suppresses_tiny_regressions(self):
        # 10x slower but only ~90 us of absolute excess: noise, not rot.
        base = make_run(presets={"p": 10_000})
        slow = make_run(presets={"p": 100_000})
        failures, _ = bench_check.trend_failures(base, slow, factor=2.0)
        self.assertEqual(failures, [])

    def test_calibration_normalizes_machine_speed(self):
        # The checking machine is 3x slower across the board (calibration
        # and preset alike): the normalized ratio is 1.0, no failure.
        base = make_run(calib_ns=100, presets={"p": self.BIG})
        slower_machine = make_run(calib_ns=300,
                                  presets={"p": self.BIG * 3})
        failures, _ = bench_check.trend_failures(base, slower_machine,
                                                 factor=2.0)
        self.assertEqual(failures, [])

    def test_real_regression_on_slower_machine_still_fails(self):
        # 3x slower machine AND a genuine 3x algorithmic slowdown: the
        # normalized ratio is 3.0 and the gate fires.
        base = make_run(calib_ns=100, presets={"p": self.BIG})
        bad = make_run(calib_ns=300, presets={"p": self.BIG * 9})
        failures, _ = bench_check.trend_failures(base, bad, factor=2.0)
        self.assertEqual(len(failures), 1)

    def test_missing_preset_is_note_not_failure(self):
        base = make_run(presets={"p": self.BIG, "q": self.BIG})
        run = make_run(presets={"p": self.BIG})
        failures, notes = bench_check.trend_failures(base, run)
        self.assertEqual(failures, [])
        self.assertTrue(any("q" in n and "missing" in n for n in notes))

    def test_zero_calibration_rejected(self):
        base = make_run(presets={"p": self.BIG})
        base["calibration"]["spin_ns"] = 0
        failures, _ = bench_check.trend_failures(
            base, make_run(presets={"p": self.BIG}))
        self.assertTrue(failures)

    def test_improvement_is_noted(self):
        base = make_run(presets={"p": self.BIG})
        fast = make_run(presets={"p": self.BIG // 2})
        failures, notes = bench_check.trend_failures(base, fast)
        self.assertEqual(failures, [])
        self.assertTrue(any("improved" in n for n in notes))


if __name__ == "__main__":
    unittest.main()
