"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs the shortest workload twice from the checkout root: once against a
pinned-digest file with one digest altered, once with an injected job that
raises.  Each run must report failed_share > 0, say correct = false and exit
non-zero.  A third run checks that the unaltered gate passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD = "verify-checks"
ALTERED_JOB = "ut6_2-series-kappa"


def bench(*extra: str) -> tuple[int, dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOAD,
         "--seed", "0", "--seconds", "1", "--trace", "0", *extra],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


class GateTest(unittest.TestCase):

    def assert_failed(self, code: int, report: dict, result: dict, job: str) -> None:
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(report["failed_share"], 0)
        self.assertIn(job, {f["job"] for f in report["failures"]})

    def test_altered_digest_fails(self):
        with open(os.path.join(HERE, "pinned.json")) as fh:
            pinned = json.load(fh)
        pinned["digests"][ALTERED_JOB] = "0" * 16
        os.makedirs(".perfbench", exist_ok=True)
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=".perfbench",
                                         delete=False) as fh:
            json.dump(pinned, fh)
        try:
            self.assert_failed(*bench("--pinned", fh.name), ALTERED_JOB)
        finally:
            os.unlink(fh.name)

    def test_injected_raise_fails(self):
        self.assert_failed(*bench("--inject-failure"), "injected-failure")

    def test_unaltered_gate_passes(self):
        code, report, result = bench()
        self.assertEqual(code, 0, report["failures"])
        self.assertTrue(result["correct"])
        self.assertEqual(report["failed_share"], 0)


if __name__ == "__main__":
    unittest.main()
