#!/usr/bin/env python3
"""Self-tests of the benchmark harness (about one minute on 2 CPUs).

    python3 perfbench/selftest.py

They run real operations of every workload, so they check the harness
against the program as it is: the output gate fails on a corrupted
recording, operations never share an interpreter, the work counters
repeat exactly across runs and seeds, each workload's time goes to the
layer it was chosen for, and times are scaled by the probe beside them.
"""

import json
import shutil
import subprocess
import sys
import time
import unittest

import run
from child import Tracer

EXPECTED = json.loads((run.HERE / "expected.json").read_text())
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# The layer each workload was chosen for: its wrapped names must hold
# the majority of the workload's traced time.
FOCUS = {
    "betti": ("partitions.skew_schur_dim",),
    "minors": ("polysym.SparsePoly.evaluate", "polysym.determinant"),
    "graded": ("verify.monomials_of_degree",),
    "battery": ("bott.dotted_bott", "bott.bundle_cohomology", "bott.exhaustive_dotted_check"),
}


def traced_round(workload: str, seed: int) -> list[dict]:
    return run.run_round(workload, seed, EXPECTED, True, time.monotonic() + 300)


class OutputGate(unittest.TestCase):
    def test_corrupted_recording_raises_error_rate(self):
        corrupted = {k: dict(v) for k, v in EXPECTED.items()}
        corrupted["check-all"]["sha256"] = "0" * 64
        for expected, failed in ((EXPECTED, 0), (corrupted, 1)):
            records = run.run_round("battery", 1, expected, False, time.monotonic() + 300)
            result = run.summarize("battery", {"records": records, "imports": []}, False, BENCHMARK)
            self.assertEqual(result["failed"], failed)
            self.assertEqual(result["attempted"], 2)
            self.assertEqual(result["correct"], not failed)

    def test_exit_status_and_verdict_are_checked(self):
        argv = ["check-all"]
        good = {"exit": 0, "stdout": "result: pass\n"}
        self.assertIsNotNone(run.failure(dict(good, exit=1), argv, run.digest(b"result: pass\n")))
        self.assertIsNotNone(run.failure(dict(good, stdout="result: FAIL\n"), argv, run.digest(b"result: FAIL\n")))
        self.assertIsNotNone(run.failure(good, argv, None))
        self.assertIsNone(run.failure(good, argv, run.digest(b"result: pass\n")))

    def test_a_failing_operation_is_reported(self):
        report = run.run_operation(["check-minors", "--d", "4", "--n", "4"], None, time.monotonic() + 60)
        self.assertEqual(report["exit"], 2)
        self.assertIsNotNone(run.failure(report, [], EXPECTED["check-all"]))


class TracedRuns(unittest.TestCase):
    """Two traced rounds per workload, with seeds 1 and 2, plus a second
    seed-1 round where operations take the seed."""

    @classmethod
    def setUpClass(cls):
        cls.rounds = {w: {1: traced_round(w, 1), 2: traced_round(w, 2)} for w in run.WORKLOADS}
        cls.repeat = {w: traced_round(w, 1) for w in run.WORKLOADS
                      if any("*" in key for key, _ in run.operations(w, 1))}

    def test_every_operation_passes(self):
        for workload, by_seed in self.rounds.items():
            for records in by_seed.values():
                self.assertEqual([r["failure"] for r in records], [None] * len(records), workload)

    def test_no_two_operations_share_an_interpreter(self):
        records = [r for by_seed in self.rounds.values() for rs in by_seed.values() for r in rs]
        self.assertTrue(all(r["fresh"] for r in records))
        self.assertEqual(len({r["pid"] for r in records}), len(records))

    def test_counters_repeat_across_runs_and_seeds(self):
        for workload, by_seed in self.rounds.items():
            for i, a in enumerate(by_seed[1]):
                # a seeded operation is compared with the same seed run again
                b = self.repeat[workload][i] if "*" in a["key"] else by_seed[2][i]
                self.assertEqual(run.counters_of([a]), run.counters_of([b]), a["key"])

    def test_time_goes_to_the_named_layer(self):
        for workload, names in FOCUS.items():
            records = self.rounds[workload][1]
            focus = sum(r["layers"][n]["self_s"] for r in records for n in names)
            total = sum(r["main_s"] for r in records)
            self.assertGreater(focus / total, 0.5, workload)

    def test_per_layer_metrics_are_all_reported(self):
        records = self.rounds["graded"][1]
        values = run.per_layer(records, records, 1)
        self.assertEqual({m["name"] for m in BENCHMARK["per_layer"]} - set(values), set())


class HostSpeed(unittest.TestCase):
    def test_times_are_scaled_by_the_probe_beside_them(self):
        def record(main_s, probe_s):
            return {"main_s": main_s, "cpu_s": main_s, "import_s": main_s / 10,
                    "probe_s": probe_s, "maxrss_kb": 2048}

        fast = [record(1.0, run.REF_PROBE_S), record(2.0, run.REF_PROBE_S)]
        slow = [record(1.5, 1.5 * run.REF_PROBE_S), record(3.0, 1.5 * run.REF_PROBE_S)]
        scaled = run.end_to_end(slow, 2, [])
        for name, value in run.end_to_end(fast, 2, []).items():
            self.assertAlmostEqual(scaled[name], value, msg=name)
        self.assertEqual(run.end_to_end(slow, 2, [], run.as_measured)["wall_s"], 4.5)
        self.assertEqual(run.end_to_end(fast, 2, [])["wall_s"], 3.0)
        self.assertEqual(run.end_to_end(fast, 2, [])["peak_rss_mb"], 2.0)


class AbsentLayer(unittest.TestCase):
    def test_missing_boundary_is_absent_not_zero(self):
        sys.path.insert(0, str(run.SRC))
        import kalvar.partitions
        import kalvar.bott

        original = kalvar.partitions.schur_dim
        tracer = Tracer()
        tracer.install((("kalvar.verify", "folded_away", None, None),
                        ("kalvar.partitions", "schur_dim", None, None)))
        try:
            kalvar.bott.schur_dim((2, 1), 3)
        finally:
            for name, module in list(sys.modules.items()):
                if name.startswith("kalvar"):
                    for key, value in list(vars(module).items()):
                        if getattr(value, "__wrapped__", None) is original:
                            setattr(module, key, original)
        self.assertEqual(tracer.absent, ["verify.folded_away"])
        layers = tracer.layers()
        self.assertNotIn("verify.folded_away", layers)
        self.assertEqual(layers["partitions.schur_dim"]["calls"], 1)


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
