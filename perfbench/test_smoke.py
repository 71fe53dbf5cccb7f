"""The benchmark's own test: a broken harness fails here in seconds.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    return proc, results


def declared(section):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc[section]]


class SmokeTest(unittest.TestCase):

    def test_smoke_runs_every_workload_correctly(self):
        proc, results = run_bench("--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        self.assertEqual(len(results), 3)
        for result in results:
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(list(result["metrics"]), declared("per_layer"))

    def test_untraced_run_prints_the_declared_metrics(self):
        proc, results = run_bench("--workload", "null-prep", "--seed", "3",
                                  "--seconds", "0", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = results[-1]
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]), declared("end_to_end"))
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)


if __name__ == "__main__":
    unittest.main()
