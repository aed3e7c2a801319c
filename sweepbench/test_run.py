#!/usr/bin/env python3
"""Tests of the sweep benchmark itself.

    python3 sweepbench/test_run.py

Run from the root of a checkout; the byte-neutrality tests build the
benchmark first (as run.py does) and take a few seconds.
"""

import importlib.util
import json
import os
import subprocess
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("sweepbench_run", BENCH_DIR / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAME = r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$"


class MetricNames(unittest.TestCase):
    def test_names_use_only_the_allowed_characters(self):
        names = [name for name, _ in run.END_TO_END + run.PER_LAYER]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_names_what_run_py_reports(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        for workload in spec["workloads"]:
            self.assertRegex(workload["name"], NAME)


def task(scenario, scheme, repetition, throughput, status="ok"):
    return {"scenario": scenario, "scheme": scheme, "repetition": repetition,
            "status": status,
            "metrics": {"throughput": throughput, "packets_attempted": 10,
                        "packets_delivered": 9}}


class ClaimExtraction(unittest.TestCase):
    # Hand-built anc.sweep.v4 rows: per-repetition ratios are exact in
    # binary floating point, so the expected gains are exact too.
    DOC = {"schema": "anc.sweep.v4", "tasks": [
        task("alice_bob", "traditional", 0, 0.5), task("alice_bob", "traditional", 1, 0.25),
        task("alice_bob", "cope", 0, 0.5), task("alice_bob", "cope", 1, 0.5),
        task("alice_bob", "anc", 1, 0.5), task("alice_bob", "anc", 0, 0.75),
        task("x_topology", "traditional", 0, 0.5), task("x_topology", "anc", 0, 0.75),
        task("chain", "traditional", 0, 0.5), task("chain", "anc", 0, 0.625),
        task("chain", "anc", 1, 0.0, status="error"),
    ]}

    def test_gains_pair_repetitions_and_average_the_ratios(self):
        self.assertEqual(run.paired_gain(self.DOC, "alice_bob", "traditional"),
                         (1.5 + 2.0) / 2)
        self.assertEqual(run.paired_gain(self.DOC, "alice_bob", "cope"), (1.5 + 1.0) / 2)
        self.assertEqual(run.paired_gain(self.DOC, "x_topology", "traditional"), 1.5)
        self.assertEqual(run.paired_gain(self.DOC, "chain", "traditional"), 1.25)

    def test_claim_err_max_is_the_worst_relative_miss(self):
        rows, err = run.paper_claims(self.DOC)
        self.assertEqual([(label, paper) for label, paper, _ in rows],
                         [("alice_bob anc/traditional", 1.70), ("alice_bob anc/cope", 1.30),
                          ("x_topology anc/traditional", 1.65),
                          ("chain anc/traditional", 1.36)])
        expected = max(abs(1.75 / 1.70 - 1), abs(1.25 / 1.30 - 1), abs(1.5 / 1.65 - 1),
                       abs(1.25 / 1.36 - 1))
        self.assertEqual(err, expected)
        self.assertAlmostEqual(err, 1 - 1.5 / 1.65)

    def test_an_anc_only_grid_has_no_claims(self):
        doc = {"tasks": [row for row in self.DOC["tasks"] if row["scheme"] == "anc"]}
        self.assertEqual(run.paper_claims(doc), ([], None))

    def test_two_points_per_scheme_are_refused(self):
        doc = {"tasks": self.DOC["tasks"] + [task("alice_bob", "anc", 0, 0.5)]}
        with self.assertRaises(ValueError):
            run.paired_gain(doc, "alice_bob", "traditional")

    def test_task_counts_skip_rows_that_are_not_ok(self):
        self.assertEqual(run.task_counts(self.DOC), (10, 90, 100))


class WrappingRegistryIsByteNeutral(unittest.TestCase):
    """sweep_trace's traced runs (timing registry, telemetry, spans) write
    the same bytes as anc_sweep with the builtin registry."""

    GRID = ["--scenario", "alice_bob", "--scenario", "x_topology", "--scenario", "chain",
            "--snr", "20,24", "--exchanges", "2", "--payload-bits", "256",
            "--repetitions", "2", "--math-profile", "exact,fast", "--seed", "7"]

    @classmethod
    def setUpClass(cls):
        os.chdir(BENCH_DIR.parent)
        run.build()
        cls.bins = run.binaries()
        cls.tmp = tempfile.TemporaryDirectory(dir=run.BUILD_DIR)
        cls.reference = Path(cls.tmp.name) / "anc_sweep.json"
        subprocess.run([str(cls.bins["sweep"]), *cls.GRID, "--threads", "2", "--quiet",
                        "--json", str(cls.reference)], check=True,
                       stderr=subprocess.DEVNULL)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def trace(self, *extra):
        work_dir = Path(self.tmp.name) / "trace"
        work_dir.mkdir(exist_ok=True)
        proc = subprocess.run([str(self.bins["trace"]), *self.GRID, "--seconds", "0",
                               "--work-dir", str(work_dir), *extra],
                              stdout=subprocess.PIPE, check=True, text=True)
        return json.loads(proc.stdout)

    def assert_neutral(self, trace):
        self.assertTrue(trace["docs_identical"])
        self.assertEqual(trace["failed"], 0)
        self.assertEqual(Path(trace["doc"]).read_bytes(), self.reference.read_bytes())
        self.assertEqual(trace["metrics"]["check.tasks_traced"], [64, 64])

    def test_in_process(self):
        self.assert_neutral(self.trace())

    def test_fleet_emulation(self):
        self.assert_neutral(self.trace("--fleet-workers", "2"))


if __name__ == "__main__":
    unittest.main()
