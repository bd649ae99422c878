#!/usr/bin/env python3
"""Fast self-test of the benchmark on tiny inputs (about 15 seconds).

    python3 perfbench/selftest.py

Runs the ledger, table and query workloads at (1,2), checks that every
metric of BENCHMARK.json is printed with its unit, and that the correctness
gate counts a dropped check, a corrupted digest and a wrong answer as
failed operations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest

from run import HERE, ROOT, load_json, measure, result
from workloads import TABLE_COMMANDS, Ledger, Queries, Tables

sys.path.insert(0, str(ROOT / "src"))
SPEC = load_json(ROOT / "BENCHMARK.json")
EXPECTED = load_json(HERE / "expected.json")


class BenchmarkSelfTest(unittest.TestCase):

    def run_workload(self, workload, trace, seed=1):
        attempted, failed, values = measure(workload, seed, 0.0, trace)
        res = result(SPEC, attempted, failed, values, trace)
        kind = "per_layer" if trace else "end_to_end"
        self.assertEqual(list(res["metrics"]), [m["name"] for m in SPEC[kind]])
        for m in SPEC[kind]:
            entry = res["metrics"][m["name"]]
            self.assertEqual(entry["unit"], m["unit"])
            self.assertIsInstance(entry["value"], (int, float))
            if not trace and res["correct"]:
                self.assertGreater(entry["value"], 0, m["name"])
        json.loads(json.dumps(res))
        return res

    def test_recorded_ledgers(self):
        self.assertEqual(len(EXPECTED["ledger"]["2,3"]), 86)
        self.assertEqual(len(EXPECTED["ledger"]["1,2"]), 84)

    def test_ledger(self):
        ledger = Ledger([(1, 2)], EXPECTED["ledger"])
        res = self.run_workload(ledger, trace=0)
        self.assertEqual((res["attempted"], res["failed"], res["correct"]), (84, 0, True))
        first = self.run_workload(ledger, trace=1)["metrics"]
        self.assertEqual(sum(v["value"] for k, v in first.items()
                             if k.startswith("verify.") and k.endswith(".checks")), 84)
        self.assertGreater(first["algebra.mono_mul.calls"]["value"], 0)
        second = self.run_workload(ledger, trace=1)["metrics"]
        for name, entry in first.items():
            if name.endswith(".calls"):
                self.assertEqual(entry["value"], second[name]["value"], name)

    def test_dropped_check_fails(self):
        expected = dict(EXPECTED["ledger"])
        expected["1,2"] = expected["1,2"] + ["hopf-axioms: a check that no longer runs"]
        res = self.run_workload(Ledger([(1, 2)], expected), trace=0)
        self.assertEqual((res["attempted"], res["failed"], res["correct"]), (85, 1, False))

    def test_tables(self):
        tables = Tables((1, 2), EXPECTED["tables"]["1,2"], str(ROOT))
        res = self.run_workload(tables, trace=0)
        passes = Tables.min_passes
        self.assertEqual((res["attempted"], res["failed"]), (passes * len(TABLE_COMMANDS), 0))
        traced = self.run_workload(tables, trace=1)["metrics"]
        for cmd in TABLE_COMMANDS:
            self.assertGreater(traced[f"cli.{cmd}.s"]["value"], 0, cmd)

    def test_corrupted_digest_fails(self):
        digests = dict(EXPECTED["tables"]["1,2"])
        digests["smatrix"] = "0" * 64
        res = self.run_workload(Tables((1, 2), digests, str(ROOT)), trace=0)
        self.assertEqual((res["failed"], res["correct"]), (Tables.min_passes, False))

    def test_queries(self):
        queries = Queries((1, 2))      # 16 queries of each kind
        for seed in (1, 2, 3):
            res = self.run_workload(queries, trace=0, seed=seed)
            self.assertEqual((res["attempted"], res["failed"]), (48, 0))
        first = self.run_workload(queries, trace=1, seed=4)["metrics"]
        second = self.run_workload(queries, trace=1, seed=4)["metrics"]
        for kind in ("product", "central", "fusion"):
            self.assertGreater(first[f"queries.{kind}.p50_ms"]["value"], 0, kind)
        for name, entry in first.items():
            if name.endswith(".calls"):
                self.assertEqual(entry["value"], second[name]["value"], name)

    def test_wrong_answer_fails(self):
        queries = Queries((1, 2))
        queries._check = lambda *args: False
        res = self.run_workload(queries, trace=0)
        self.assertEqual((res["attempted"], res["failed"]), (48, 48))

    def test_checkout_without_program_fails(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, f"{tmp}/perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ledger-2-3",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
