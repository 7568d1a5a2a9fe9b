"""Tests of the repository benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

They build the benchmark (as perfbench/run.py does) and make short
runs of every workload, so they take a few minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

sys.path.insert(0, BENCH)
import run as bench_run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Per-layer metrics that are timings rather than counts of work.
TIMED = re.compile(r"(_s|_ms|ms_per_op|_s_1t|_scaling_x|overhead_pct)$")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


SPEC = load(os.path.join(ROOT, "BENCHMARK.json"))
LAYERS = load(os.path.join(BENCH, "layers.json"))["layers"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def harness_record(workload, seed, trace, seconds=1.0):
    """Runs the built harness directly; returns its JSON record."""
    binary = bench_run.build(bench_run.build_dir())
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def layer_metrics(layer):
    return [m for m in layer["metrics"] if m != "calls.*"]


class BenchmarkJsonTest(unittest.TestCase):
    def test_top_level_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        budget = 4 + 22 * len(WORKLOADS)
        self.assertLess(budget * (SPEC["run_seconds"] + 5), 3420 - 2 * 120)

    def test_workloads_record_their_reason(self):
        self.assertTrue(2 <= len(WORKLOADS) <= 8)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        names = []
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class LayerTableTest(unittest.TestCase):
    """layers.json holds the layer -> metric -> workload table."""

    def test_every_per_layer_metric_has_one_layer(self):
        owner = {}
        for layer in LAYERS:
            for m in layer_metrics(layer):
                self.assertNotIn(m, owner, f"{m} listed twice")
                owner[m] = layer["layer"]
        for m in SPEC["per_layer"]:
            if m["name"].startswith("calls."):
                continue
            self.assertIn(m["name"], owner)
        self.assertTrue(any("calls.*" in layer["metrics"]
                            for layer in LAYERS))

    def test_predictions_name_known_metrics_and_workloads(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        for layer in LAYERS:
            self.assertTrue(set(layer["should_move"]) <= e2e, layer)
            self.assertTrue(set(layer["on"]) <= set(WORKLOADS), layer)
            self.assertTrue(set(layer["not_on"]) <= set(WORKLOADS), layer)
            self.assertFalse(set(layer["on"]) & set(layer["not_on"]))
            self.assertTrue(layer["module"])


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.traced = {w: harness_record(w, 7, 1) for w in WORKLOADS}

    def test_traced_run_emits_every_metric_where_it_applies(self):
        for layer in LAYERS:
            for w in layer["on"]:
                got = self.traced[w]["metrics"]
                for m in layer_metrics(layer):
                    self.assertIn(m, got, f"{m} missing on {w}")
                if "calls.*" in layer["metrics"]:
                    self.assertTrue(any(k.startswith("calls.")
                                        for k in got), w)

    def test_runs_are_correct(self):
        for w, rec in self.traced.items():
            self.assertGreater(rec["attempted"], 0, w)
            self.assertEqual(rec["failed"], 0, w)
            self.assertEqual(rec["metrics"]["core.violations"]["value"], 0)
            prov = rec["provenance"]
            self.assertFalse(prov["lockdep"])
            self.assertFalse(prov["sanitizers"])
            self.assertEqual(prov["build_type"], "Release")

    def test_per_op_counters_repeat_for_a_seed(self):
        for w in WORKLOADS:
            again = harness_record(w, 7, 1)
            first = self.traced[w]
            self.assertEqual(first["info"]["inputs_digest"],
                             again["info"]["inputs_digest"])
            for name, v in first["metrics"].items():
                if TIMED.search(name):
                    continue
                self.assertEqual(v["value"], again["metrics"][name]["value"],
                                 f"{w}: {name}")

    def test_second_seed_changes_inputs(self):
        for w in WORKLOADS:
            other = harness_record(w, 8, 1)
            self.assertNotEqual(self.traced[w]["info"]["inputs_digest"],
                                other["info"]["inputs_digest"], w)

    def test_peak_rss_does_not_grow_with_ops(self):
        # The harness keeps latencies in fixed-size storage, so a faster
        # system (more ops per run) does not read as a memory regression.
        short = harness_record("mt-grant", 7, 0, seconds=1.0)
        long = harness_record("mt-grant", 7, 0, seconds=4.0)
        self.assertGreater(long["attempted"], 2 * short["attempted"])
        rss = [r["metrics"]["peak_rss_mb"]["value"] for r in (short, long)]
        self.assertLess(abs(rss[1] - rss[0]), 0.02 * rss[0], rss)

    def test_model_split_accounts_for_the_clock(self):
        for w in ("nginx-large", "tenants-small"):
            m = self.traced[w]["metrics"]
            self.assertLess(abs(m["model.other_ms_per_op"]["value"]),
                            0.01 * m["model_ms_per_op"]["value"], w)


class RunScriptTest(unittest.TestCase):
    def test_result_line(self):
        for workload, trace, declared in (
                ("mt-grant", 0, "end_to_end"), ("mt-grant", 1, "per_layer"),
                ("sqlite-speedtest", 0, "end_to_end")):
            out = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            record = json.loads(lines[-2])
            self.assertEqual(len(record["instances"]),
                             bench_run.instance_count(workload, trace))
            res = json.loads(lines[-1])
            self.assertEqual(set(res),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(res["correct"])
            self.assertEqual(set(res["metrics"]),
                             {m["name"] for m in SPEC[declared]})
            for m in SPEC[declared]:
                self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ,
                       CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "mt-grant", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn("metrics", out.stdout)


if __name__ == "__main__":
    unittest.main()
