#!/usr/bin/env python3
"""Unit coverage for tools/bench_diff.py.

The contract under test (satellite of the hot-path performance pass):

  * a pinned-metric regression beyond the threshold exits 1,
  * an improvement (or in-threshold noise) passes,
  * a pinned metric missing from the current row exits 2 — silently
    dropping a metric must not read as a pass,
  * a fingerprint mismatch is reported, and escalates to exit 3 only
    under --require-fingerprint-match,
  * --informational prints everything and always exits 0,
  * a one-row trajectory in single-file mode is a baseline only and
    passes; a file with no rows is malformed.

Run directly (python3 tools/test_bench_diff.py) or via ctest
(bench_diff_unit).
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402


FINGERPRINT = {
    "build": "release",
    "compiler": "gcc 13",
    "cpu": "test-cpu",
    "mode": "full",
    "threads": 8,
}


def make_row(label, metrics, fingerprint=None):
    return {
        "fingerprint": fingerprint or copy.deepcopy(FINGERPRINT),
        "label": label,
        "metrics": metrics,
        "utc": "2026-01-01T00:00:00Z",
    }


def metric(value, better="higher", pinned=False, unit="req/s"):
    return {"better": better, "pinned": pinned, "unit": unit, "value": value}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def write_trajectory(self, name, rows, bench="serve_load"):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"bench": bench, "schema": 1, "rows": rows}, fh)
        return path

    def run_diff(self, argv):
        """Returns (exit_code, stdout, stderr); captures sys.exit paths."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = bench_diff.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()

    def test_improvement_passes(self):
        base = make_row("before", {"warm_qps": metric(100.0, pinned=True)})
        cur = make_row("after", {"warm_qps": metric(250.0, pinned=True)})
        path = self.write_trajectory("t.json", [base, cur])
        code, out, _ = self.run_diff([path])
        self.assertEqual(code, 0)
        self.assertIn("improved", out)
        self.assertIn("all pinned metrics held", out)

    def test_regression_detected(self):
        base = make_row("before", {"warm_qps": metric(100.0, pinned=True)})
        cur = make_row("after", {"warm_qps": metric(50.0, pinned=True)})
        path = self.write_trajectory("t.json", [base, cur])
        code, out, _ = self.run_diff([path])
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_lower_is_better_regression(self):
        base = make_row("before",
                        {"p50_us": metric(3.0, "lower", True, "us")})
        cur = make_row("after",
                       {"p50_us": metric(9.0, "lower", True, "us")})
        path = self.write_trajectory("t.json", [base, cur])
        code, out, _ = self.run_diff([path])
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_lower_is_better_improvement(self):
        base = make_row("before",
                        {"p50_us": metric(9.0, "lower", True, "us")})
        cur = make_row("after",
                       {"p50_us": metric(3.0, "lower", True, "us")})
        path = self.write_trajectory("t.json", [base, cur])
        code, _, _ = self.run_diff([path])
        self.assertEqual(code, 0)

    def test_p999_only_regression_detected(self):
        # A tail-latency blowup must trip the gate even when every other
        # pinned metric (throughput, p50) holds — the shape of a lock
        # convoy or a stalled flush, which averages hide.
        base = make_row("before", {
            "warm_qps": metric(100.0, pinned=True),
            "warm_p50_us": metric(5.0, "lower", True, "us"),
            "warm_p999_us": metric(40.0, "lower", True, "us"),
        })
        cur = make_row("after", {
            "warm_qps": metric(101.0, pinned=True),
            "warm_p50_us": metric(5.0, "lower", True, "us"),
            "warm_p999_us": metric(400.0, "lower", True, "us"),
        })
        path = self.write_trajectory("t.json", [base, cur])
        code, out, _ = self.run_diff([path])
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)
        self.assertIn("warm_p999_us", out)

    def test_within_threshold_noise_passes(self):
        base = make_row("before", {"warm_qps": metric(100.0, pinned=True)})
        cur = make_row("after", {"warm_qps": metric(95.0, pinned=True)})
        path = self.write_trajectory("t.json", [base, cur])
        code, _, _ = self.run_diff([path, "--threshold", "10"])
        self.assertEqual(code, 0)
        code, _, _ = self.run_diff([path, "--threshold", "2"])
        self.assertEqual(code, 1)

    def test_unpinned_regression_reported_not_fatal(self):
        base = make_row("before", {"cold_qps": metric(100.0)})
        cur = make_row("after", {"cold_qps": metric(40.0)})
        path = self.write_trajectory("t.json", [base, cur])
        code, out, _ = self.run_diff([path])
        self.assertEqual(code, 0)
        self.assertIn("worse (unpinned)", out)

    def test_missing_pinned_metric_is_error(self):
        base = make_row("before", {"warm_qps": metric(100.0, pinned=True)})
        cur = make_row("after", {"other": metric(1.0)})
        path = self.write_trajectory("t.json", [base, cur])
        code, out, _ = self.run_diff([path])
        self.assertEqual(code, 2)
        self.assertIn("PINNED metric 'warm_qps' missing", out)

    def test_missing_unpinned_metric_reported_not_fatal(self):
        base = make_row("before", {"warm_qps": metric(100.0, pinned=True),
                                   "cold_qps": metric(10.0)})
        cur = make_row("after", {"warm_qps": metric(100.0, pinned=True)})
        path = self.write_trajectory("t.json", [base, cur])
        code, out, _ = self.run_diff([path])
        self.assertEqual(code, 0)
        self.assertIn("metric 'cold_qps' missing", out)

    def test_fingerprint_mismatch_reported(self):
        other = dict(FINGERPRINT, cpu="another-cpu", mode="smoke")
        base = make_row("before", {"warm_qps": metric(100.0, pinned=True)})
        cur = make_row("after", {"warm_qps": metric(100.0, pinned=True)},
                       fingerprint=other)
        path = self.write_trajectory("t.json", [base, cur])
        code, out, _ = self.run_diff([path])
        self.assertEqual(code, 0)  # reported, not fatal by default
        self.assertIn("fingerprint differs", out)
        self.assertIn("cpu", out)
        code, out, _ = self.run_diff([path, "--require-fingerprint-match"])
        self.assertEqual(code, 3)

    def test_fingerprint_mismatch_does_not_mask_regression(self):
        other = dict(FINGERPRINT, cpu="another-cpu")
        base = make_row("before", {"warm_qps": metric(100.0, pinned=True)})
        cur = make_row("after", {"warm_qps": metric(10.0, pinned=True)},
                       fingerprint=other)
        path = self.write_trajectory("t.json", [base, cur])
        code, _, _ = self.run_diff([path, "--require-fingerprint-match"])
        self.assertEqual(code, 3)  # max(regression=1, fingerprint=3)
        code, _, _ = self.run_diff([path])
        self.assertEqual(code, 1)  # regression still wins without the flag

    def test_informational_always_exits_zero(self):
        base = make_row("before", {"warm_qps": metric(100.0, pinned=True)})
        cur = make_row("after", {"warm_qps": metric(10.0, pinned=True)})
        path = self.write_trajectory("t.json", [base, cur])
        code, out, _ = self.run_diff([path, "--informational"])
        self.assertEqual(code, 0)
        self.assertIn("REGRESSION", out)
        self.assertIn("suppressing exit code 1", out)

    def test_two_file_mode_compares_last_rows(self):
        old = make_row("ancient", {"warm_qps": metric(1.0, pinned=True)})
        good = make_row("committed", {"warm_qps": metric(100.0, pinned=True)})
        fresh = make_row("ci", {"warm_qps": metric(50.0, pinned=True)})
        base_path = self.write_trajectory("base.json", [old, good])
        cur_path = self.write_trajectory("cur.json", [fresh])
        code, out, _ = self.run_diff([base_path, cur_path])
        self.assertEqual(code, 1)  # 100 -> 50, not 1 -> 50
        self.assertIn("committed", out)

    def test_two_file_bench_mismatch_is_error(self):
        row = make_row("r", {"m": metric(1.0, pinned=True)})
        a = self.write_trajectory("a.json", [row], bench="serve_load")
        b = self.write_trajectory("b.json", [row], bench="mc")
        code, _, err = self.run_diff([a, b])
        self.assertEqual(code, 2)
        self.assertIn("bench mismatch", err)

    def test_single_row_single_file_is_baseline_only(self):
        row = make_row("only", {"m": metric(1.0, pinned=True)})
        path = self.write_trajectory("t.json", [row])
        code, out, _ = self.run_diff([path])
        self.assertEqual(code, 0)
        self.assertIn("baseline only", out)
        self.assertIn(" *m: 1 -> 1 ", out)  # the row against itself

    def test_empty_rows_single_file_is_error(self):
        path = self.write_trajectory("t.json", [])
        code, _, err = self.run_diff([path])
        self.assertEqual(code, 2)
        self.assertIn("no trajectory rows", err)

    def test_malformed_file_is_error(self):
        path = os.path.join(self._tmp.name, "broken.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        code, _, err = self.run_diff([path])
        self.assertEqual(code, 2)
        self.assertIn("not valid JSON", err)

    def test_missing_rows_field_is_error(self):
        path = os.path.join(self._tmp.name, "norows.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"bench": "x", "schema": 1}, fh)
        code, _, err = self.run_diff([path])
        self.assertEqual(code, 2)
        self.assertIn("missing the 'rows' field", err)


if __name__ == "__main__":
    unittest.main()
