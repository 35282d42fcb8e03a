#!/usr/bin/env python3
"""Tests of the benchmark's correctness accounting (no build needed).

    python3 perfbench/test_reference.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def reference(workload, seed=1):
    return run.load_reference(workload, (seed,))[seed]


def bench_lines(records, calls=1, crash_after=None, seed=1):
    """The run-mode output campaign_bench prints for @p records."""
    lines = [json.dumps({"stamp": {"build_type": "Release"}})]
    for call in range(calls):
        lines.append(json.dumps({"call": call, "seed": seed,
                                 "ops": len(records)}))
        for i, (key, rec) in enumerate(records.items()):
            if crash_after is not None and i == crash_after:
                lines.append('{"op":"t')  # cut short mid-line
                return lines
            lines.append(json.dumps({"op": key, "rec": rec}))
        lines.append(json.dumps({"call_s": 0.5}))
    return lines


def tally(records, lines, seed=1):
    t = run.Tally({seed: records})
    for line in lines:
        t.feed(line)
    return t.finish()


class ReferenceTest(unittest.TestCase):
    def test_every_workload_and_seed_has_a_reference(self):
        for workload in run.WORKLOADS:
            seeds = run.CAMPAIGN_SEEDS + (run.HELD_OUT_SEED,)
            refs = run.load_reference(workload, seeds)
            for seed in seeds:
                self.assertTrue(refs[seed], (workload, seed))

    def test_matching_records_pass(self):
        ref = reference("avf_hmmer")
        t = tally(ref, bench_lines(ref, calls=2))
        self.assertEqual(t.attempted, 2 * len(ref))
        self.assertEqual(t.failed, 0)
        self.assertEqual(run.round_rates(t.calls, 1),
                         [len(ref) / 0.5, len(ref) / 0.5])

    def test_corrupted_reference_entry_is_a_failed_op(self):
        for workload in run.WORKLOADS:
            ref = reference(workload)
            corrupted = dict(ref)
            key = sorted(corrupted)[0]
            rec = list(corrupted[key])
            rec[0] += 1
            corrupted[key] = rec
            t = tally(corrupted, bench_lines(ref, calls=3))
            # One bad entry fails its op in every call that ran it.
            self.assertEqual(t.failed, 3, workload)
            self.assertEqual(t.attempted, 3 * len(ref))

    def test_crash_fails_every_op_not_completed(self):
        ref = reference("rootcause_mcf")
        t = tally(ref, bench_lines(ref, crash_after=10))
        self.assertEqual(t.attempted, len(ref))
        self.assertEqual(t.failed, len(ref) - 10)

    def test_fidelity_mismatch_is_a_failed_op(self):
        ref = reference("wcdl_sweep")
        lines = bench_lines(ref)
        lines.append(json.dumps({"traced_ops": len(ref), "traced_s": 1.0,
                                 "fidelity_mismatches": 2}))
        t = tally(ref, lines)
        self.assertEqual(t.attempted, 2 * len(ref))
        self.assertEqual(t.failed, 2)

    def test_simulated_metrics(self):
        sweep = reference("wcdl_sweep")
        over = run.sweep_overheads(sweep)
        self.assertAlmostEqual(over["tp_overhead_dl10"], 1.045, places=3)
        self.assertAlmostEqual(over["tp_overhead_dl50"], 1.094, places=3)
        self.assertAlmostEqual(over["ts_overhead_dl50"], 3.927, places=3)
        v = run.vulnerability({1: reference("avf_hmmer")})
        self.assertGreater(v, 0.0)
        self.assertLess(v, 1.0)

    def test_only_complete_rounds_count(self):
        calls = [(0, 10, 1.0), (0, 10, 1.0), (1, 10, 0.5)]
        self.assertEqual(run.round_rates(calls, 2), [10.0])

    def test_benchmark_json_matches_run_py(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
