#!/usr/bin/env python3
"""Self-test of the benchmark's own tools; needs no build.

  python3 e2ebench/selftest.py
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DATA = HERE / "testdata"


class RollupTest(unittest.TestCase):
    def setUp(self):
        self.rows = layers.parse_flat((DATA / "flat_profile.txt").read_text())

    def test_parses_every_function_row(self):
        self.assertEqual(len(self.rows), 11)
        self.assertEqual(self.rows[0], ("xmp::sim::Scheduler::sift_down(unsigned long)", 0.40,
                                        3115817))
        self.assertEqual(self.rows[5], ("xmp::model::hybrid::Engine::tick()", 0.05, 0))

    def test_namespace_shares(self):
        got = layers.rollup([self.rows])
        want = {
            "sim.self_share": 0.40,
            "net.self_share": 0.20,
            "sim.callback_share": 0.10,
            "route.self_share": 0.10,
            "transport.self_share": 0.05,
            "model.self_share": 0.05,
            "ckpt.self_share": 0.04,
            "workload.self_share": 0.03,
            "mptcp.self_share": 0.01,
            "obs.self_share": 0.0,
            "topo.self_share": 0.0,
        }
        for key, share in want.items():
            self.assertAlmostEqual(got[key], share, places=9, msg=key)

    def test_calls_are_per_run_over_summed_profiles(self):
        got = layers.rollup([self.rows, self.rows])
        self.assertEqual(got["sim.sift_down_calls"], 3115817)
        self.assertEqual(got["net.dequeue_calls"], 1514960)
        self.assertEqual(got["route.select_up_port_calls"], 490356)
        self.assertEqual(got["transport.arm_rto_calls"], 177477)
        self.assertEqual(got["mptcp.gain_refresh_calls"], 14171)
        self.assertAlmostEqual(got["sim.self_share"], 0.40, places=9)

    def test_empty_profile_reports_zero_shares(self):
        got = layers.rollup([[]])
        self.assertEqual(got["sim.self_share"], 0.0)
        self.assertEqual(got["sim.sift_down_calls"], 0)


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.summary = json.loads((DATA / "summary.json").read_text())
        self.reference = check.observables(self.summary)

    def tally(self, returncode, summary, reference):
        t = run.Tally()
        r = run.Run(1.0, 1.0, 1.0, summary)
        r.problems = check.check_run(returncode, summary, reference)
        t.add([r])
        return t

    def test_matching_reference_passes(self):
        t = self.tally(0, self.summary, self.reference)
        self.assertEqual((t.attempted, t.failed), (1, 0))

    def test_perturbed_reference_counts_as_failed(self):
        reference = copy.deepcopy(self.reference)
        reference["goodput_mbps"]["all"]["mean"] *= 1.000001
        t = self.tally(0, self.summary, reference)
        self.assertEqual((t.attempted, t.failed), (1, 1))
        self.assertEqual(t.fail_ratio, 1.0)

    def test_engine_cost_counters_are_not_references(self):
        summary = copy.deepcopy(self.summary)
        summary["summary"]["events"] += 1
        self.assertEqual(check.check_run(0, summary, self.reference), [])

    def test_other_seed_checks_invariants_only(self):
        summary = copy.deepcopy(self.summary)
        summary["summary"]["flows"] += 1
        self.assertEqual(check.check_run(0, summary, None), [])
        self.assertNotEqual(check.check_run(0, summary, self.reference), [])

    def test_conservation_and_exit_status(self):
        summary = copy.deepcopy(self.summary)
        summary["drops"]["delivered"] = summary["drops"]["offered"] + 1
        self.assertNotEqual(check.check_run(0, summary, None), [])
        self.assertNotEqual(check.check_run(1, self.summary, None), [])
        self.assertNotEqual(check.check_run(0, None, None), [])

    def test_every_workload_has_a_reference(self):
        refs = check.load_references()
        self.assertEqual(sorted(refs), sorted(WORKLOADS))
        for name, entry in refs.items():
            self.assertEqual(entry["observables"]["drops"]["queue"], 0, name)


class BenchmarkFileTest(unittest.TestCase):
    def test_names_and_units_match_run_py(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)


if __name__ == "__main__":
    unittest.main()
