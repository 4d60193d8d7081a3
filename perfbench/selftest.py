#!/usr/bin/env python3
"""Self-tests for the dvx host-time benchmark (fast-mode sizes, ~1 minute
after the build).

    python3 perfbench/selftest.py

Checks:
  * metric names match [A-Za-z0-9_.-]+ and every metric has a unit, both in
    BENCHMARK.json and in what run.py prints;
  * a point that throws (fft at 3 nodes, which fft_detail::shape_for
    rejects) fails one operation per execution and the run continues;
  * per-layer counts equal the sum over the per-node (and other) labels of
    the dvx-metrics/v1 snapshots the traced pass writes;
  * two traced runs give identical counts;
  * bfs output changes with the seed; fft output does not, because
    fft_detail::input_point ignores the seed.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark entry point, for its paths and build)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer count -> (obs metric, label filter); mirrors kCountSources in
# dvx_perfbench.cpp, but is applied to the snapshot files the program wrote.
COUNT_SOURCES = {
    "sim.engine.events": ("sim.engine.events", None),
    "dv.fabric.bursts": ("dv.fabric.bursts", None),
    "dv.fabric.words": ("dv.fabric.words", None),
    "dv.fabric.inject_wait_ps": ("dv.fabric.inject_wait_ps", None),
    "dv.fabric.eject_wait_ps": ("dv.fabric.eject_wait_ps", None),
    "vic.fifo.deposits": ("vic.fifo.deposits", None),
    "vic.dma.bytes": ("vic.dma.bytes", None),
    "vic.dma.transactions": ("vic.dma.transactions", None),
    "vic.counter.wait_ps": ("vic.counter.wait_ps", None),
    "mpi.msgs.eager": ("mpi.msgs", ("protocol", "eager")),
    "mpi.msgs.rendezvous": ("mpi.msgs", ("protocol", "rendezvous")),
    "mpi.msg.bytes": ("mpi.msg.bytes", None),
    "serve.admission.accepted": ("serve.admission.accepted", None),
    "serve.admission.shed": ("serve.admission.shed", None),
}


def bench(*args):
    """Runs run.py in fast mode; returns (exit code, parsed last line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--fast", "--seconds", "0"]
    proc = subprocess.run(cmd + list(args), cwd=run.ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    return proc.returncode, json.loads(last)


def benchmark_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def records(workload):
    with open(os.path.join(run.out_dir(), f"records_{workload}.json")) as f:
        return json.load(f)["records"]


def snapshot_sums(workload, pass_label="traced.t1"):
    """Sums each count source over every point and label set."""
    sums = {name: 0.0 for name in COUNT_SOURCES}
    snap_dir = os.path.join(run.out_dir(), "obs_" + workload)
    files = [f for f in os.listdir(snap_dir) if f.startswith(pass_label + "_p")]
    for fname in files:
        with open(os.path.join(snap_dir, fname)) as f:
            doc = json.load(f)
        for m in doc["metrics"]:
            for layer, (obs_name, label) in COUNT_SOURCES.items():
                if m["name"] != obs_name:
                    continue
                if label and m["labels"].get(label[0]) != label[1]:
                    continue
                if m["type"] == "counter":
                    sums[layer] += m["value"]
                elif m["type"] == "histogram":
                    sums[layer] += m["mean"] * m["count"]
    return sums, len(files)


def setUpModule():
    run.build()


class MetricNames(unittest.TestCase):
    def test_spec_names_and_units(self):
        spec = benchmark_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)

    def test_printed_metrics_match_spec(self):
        spec = benchmark_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench("--workload", "serving", "--seed", "1", "--trace", str(trace))
            self.assertEqual(code, 0)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, expected)
            for name, v in result["metrics"].items():
                self.assertRegex(name, NAME_RE)
                self.assertIsInstance(v["value"], (int, float))


class Failures(unittest.TestCase):
    def test_throwing_point_is_one_failed_operation(self):
        # Both backends run at 2 nodes. At 3 nodes each throws, once per
        # thread setting: 4 of the 8 operations fail, the rest still run.
        code, result = bench("--workload", "fft", "--seed", "1", "--trace", "0",
                             "--nodes", "2,3")
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], 8)
        self.assertEqual(result["failed"], 4)
        self.assertGreater(result["metrics"]["wall_s.t1"]["value"], 0.0)


class Counts(unittest.TestCase):
    def traced_counts(self, workload, seed="1"):
        code, result = bench("--workload", workload, "--seed", seed, "--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        return {k: result["metrics"][k]["value"] for k in COUNT_SOURCES}

    def test_counts_equal_sum_over_labels(self):
        for workload in ("bfs", "serving"):
            counts = self.traced_counts(workload)
            sums, files = snapshot_sums(workload)
            self.assertGreater(files, 0)
            for name, value in counts.items():
                self.assertAlmostEqual(value, sums[name], delta=1e-9 * max(1.0, value),
                                       msg=f"{workload} {name}")
            self.assertGreater(counts["sim.engine.events"], 0)

    def test_two_traced_runs_give_identical_counts(self):
        self.assertEqual(self.traced_counts("bfs"), self.traced_counts("bfs"))


class Seeds(unittest.TestCase):
    def test_bfs_changes_with_seed_fft_does_not(self):
        for workload, should_change in (("bfs", True), ("fft", False)):
            outputs = []
            for seed in ("1", "2"):
                code, result = bench("--workload", workload, "--seed", seed, "--trace", "0")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                outputs.append(records(workload))
            self.assertEqual(outputs[0] != outputs[1], should_change, workload)


if __name__ == "__main__":
    unittest.main(verbosity=2)
