#!/usr/bin/env python3
"""Tests of the pipeline benchmark itself.

Run from the root of a checkout (builds on first use, ~1-2 minutes):

    python3 -m unittest perfbench/test_perfbench.py

They check that short runs of every workload print every metric
BENCHMARK.json names with its unit, that the deterministic metrics
repeat exactly for a seed, that an injected bad output counts as a
failed operation, and that BENCHMARK.json keeps to the benchmark
contract.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that must be measured (non-zero) by the workload that
# runs the layer.
OWNED = {
    "ingest": ["trace.open_ms", "trace.decode_ms", "trace.bytes_per_uop",
               "profiler.seq_uops_per_s", "profiler.par_uops_per_s",
               "profiler.seq_busy_ms", "profiler.par_busy_ms",
               "profiler.par_efficiency"],
    "explore": ["profiler.setup_uops_per_s", "statstack.build_ms",
                "model.ns_per_point", "dse.chunk_self_ms", "dse.front_size",
                "dse.points_per_s", "dse.modelonly_points_per_s"],
    "serve": ["serve.req_per_s", "serve.client_p50_ms",
              "serve.client_p99_ms", "serve.evaluate_p50_ms",
              "serve.sweep_p50_ms", "serve.load_p50_ms",
              "serve.parse_self_ms", "serve.exec_self_ms",
              "serve.respond_self_ms", "serve.lru_hit_ratio",
              "serve.evictions"],
    "validate": ["sim.uops_per_s", "sim.ns_per_uop",
                 "model.scalar_us_per_point", "power.ns_per_call",
                 "validate.cpi_mape_pct", "validate.power_mape_pct"],
}

_cache = {}


def run(workload, seed, trace, inject=0, seconds=1):
    """Last stdout line of one benchmark run, parsed (memoized)."""
    key = (workload, seed, trace, inject, seconds)
    if key not in _cache:
        cmd = [sys.executable, RUN, "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        if inject:
            cmd += ["--inject-bad", str(inject)]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=900)
        if r.returncode:
            raise AssertionError("%s failed:\n%s" % (cmd, r.stderr[-3000:]))
        lines = r.stdout.strip().splitlines()
        assert lines[-2].startswith("perfbench host: "), lines
        _cache[key] = json.loads(lines[-1])
    return _cache[key]


class SmokeRuns(unittest.TestCase):
    def check_result(self, res, trace):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        want = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in want])
        for m in want:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_every_metric_printed_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                e2e = run(w, 1, 0)
                self.check_result(e2e, 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(e2e["metrics"][m["name"]]["value"], 0)
                layers = run(w, 1, 1)
                self.check_result(layers, 1)
                vals = {k: v["value"] for k, v in layers["metrics"].items()}
                for name in OWNED[w]:
                    self.assertGreater(vals[name], 0, name)
                self.assertEqual(vals["obs.dropped_spans"], 0)
                self.assertEqual(vals["validate.violations"], 0)

    def test_deterministic_metrics_repeat(self):
        for w, names in (("validate", ["validate.cpi_mape_pct",
                                       "validate.power_mape_pct",
                                       "validate.points"]),
                         ("explore", ["dse.front_size"])):
            a = run(w, 11, 1)["metrics"]
            b = run(w, 11, 1, seconds=2)["metrics"]
            for n in names:
                self.assertEqual(a[n]["value"], b[n]["value"], n)
                self.assertGreater(a[n]["value"], 0, n)

    def test_injected_bad_output_counts_as_failed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = run(w, 1, 0, inject=2)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], 2)
                self.assertGreater(res["attempted"], 2)


class Contract(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len(json.dumps(SPEC)), 64 * 1024)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        for p in SPEC["paths"]:
            self.assertRegex(p, r"^[A-Za-z0-9_.\-/]{1,200}$")
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], self.NAME)
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_fails_without_the_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark must
        # fail fast without printing a result.
        lone = os.path.join(ROOT, ".bench_build", "lone")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = subprocess.run([sys.executable, RUN, "--workload", WORKLOADS[0],
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=lone, capture_output=True, text=True,
                           timeout=180)
        shutil.rmtree(lone, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"metrics"', r.stdout)


if __name__ == "__main__":
    unittest.main()
